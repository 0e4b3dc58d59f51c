(* The reachable-state search behind Theorem 6 and Definition 8, checked
   against the history enumerator it replaced, plus the two facts it rests
   on: serial specs are deterministic per (state, event), and types with
   finitely many reachable states get an exact relation once the bound
   covers the search. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The reference the state search must agree with: every legal serial
   history up to the bound, in breadth-first order, and the relations
   decided by splitting each one into h1·h2·h3. *)
module Reference = struct
  let enumerate spec ~max_len =
    let expand (rev_hist, s) =
      List.concat_map
        (fun inv ->
          List.map
            (fun (res, s') -> (Event.make inv res :: rev_hist, s'))
            (spec.Serial_spec.step s inv))
        spec.Serial_spec.invocations
    in
    let rec levels frontier depth acc =
      if depth = 0 then acc
      else
        match List.concat_map expand frontier with
        | [] -> acc
        | next -> levels next (depth - 1) (List.rev_append next acc)
    in
    let root = [ ([], spec.Serial_spec.initial) ] in
    List.rev_map (fun (rev_hist, s) -> (List.rev rev_hist, s)) (levels root max_len root)

  let event_universe spec ~max_len =
    List.concat_map fst (enumerate spec ~max_len)
    |> List.sort_uniq Event.compare

  (* The first split of the first history, in enumeration order, that
     realizes Theorem 6 for each ordered (first, second) pair of the
     universe: [first] inserted after h1 = H[0,i) and [second] after
     h2 = H[i,j), replayed from the states reached along H. *)
  let static_hits spec ~max_len =
    let universe = event_universe spec ~max_len in
    let run s h =
      List.fold_left
        (fun s e -> Option.bind s (fun s -> Serial_spec.apply_event spec s e))
        (Some s) h
    in
    let legal s h = Option.is_some (run s h) in
    let hits = Hashtbl.create 64 in
    List.iteri
      (fun idx (hist, _) ->
        let arr = Array.of_list hist in
        let n = Array.length arr in
        let sub i j = Array.to_list (Array.sub arr i (j - i)) in
        let states = Array.make (n + 1) spec.Serial_spec.initial in
        Array.iteri (fun k e -> states.(k + 1) <- Option.get (run states.(k) [ e ])) arr;
        for i = 0 to n do
          for j = i to n do
            let h2 = sub i j and h3 = sub j n in
            let seconds = List.filter (fun second -> legal states.(j) (second :: h3)) universe in
            List.iter
              (fun first ->
                match run states.(i) (first :: h2) with
                | Some t2 when legal t2 h3 ->
                  List.iter
                    (fun second ->
                      if (not (Hashtbl.mem hits (first, second))) && not (legal t2 (second :: h3))
                      then Hashtbl.add hits (first, second) ((idx, i, j), (sub 0 i, h2, h3)))
                    seconds
                | _ -> ())
              universe
          done
        done)
      (enumerate spec ~max_len);
    (universe, hits)

  let static_minimal (_, hits) =
    Hashtbl.fold
      (fun ((f : Event.t), (s : Event.t)) _ r ->
        Relation.add (f.inv, s) (Relation.add (s.inv, f) r))
      hits Relation.empty

  let static_witness (universe, hits) inv e =
    let candidates =
      List.filter (fun (ev : Event.t) -> Event.Invocation.equal ev.inv inv) universe
    in
    List.concat
      (List.mapi
         (fun k ev ->
           List.filter_map
             (fun (cond, pair) ->
               Option.map
                 (fun (key, (h1, h2, h3)) -> ((key, k, cond), (h1, ev, h2, h3)))
                 (Hashtbl.find_opt hits pair))
             [ (0, (ev, e)); (1, (e, ev)) ])
         candidates)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> function
    | [] -> None
    | (_, w) :: _ -> Some w

  let dynamic_minimal spec ~max_len =
    let universe = event_universe spec ~max_len in
    let histories = enumerate spec ~max_len in
    List.fold_left
      (fun r (e : Event.t) ->
        List.fold_left
          (fun r (e' : Event.t) ->
            if
              List.exists
                (fun (h, _) ->
                  Serial_spec.legal spec (h @ [ e ])
                  && Serial_spec.legal spec (h @ [ e' ])
                  && not
                       (Serial_spec.legal spec (h @ [ e; e' ])
                       && Serial_spec.legal spec (h @ [ e'; e ])
                       && Serial_spec.equivalent spec ~depth:(max_len + 2) (h @ [ e; e' ])
                            (h @ [ e'; e ])))
                histories
            then Relation.add (e.inv, e') r
            else r)
          r universe)
      Relation.empty universe
end

let pp_hist = Fmt.(list ~sep:semi Event.pp)

(* For every registered type at bounds 1-4: the event universe and both
   relations equal the reference's, every static witness is the
   reference's (so the CLI prints the same evidence), and each witness is
   checked directly against the theorem with [Serial_spec.legal]. *)
let test_matches_reference () =
  List.iter
    (fun (name, spec) ->
      for max_len = 1 to 4 do
        let label what = Printf.sprintf "%s max_len:%d %s" name max_len what in
        let universe = Serial_spec.event_universe spec ~max_len in
        check_bool (label "universe") true
          (List.equal Event.equal universe (Reference.event_universe spec ~max_len));
        let reference = Reference.static_hits spec ~max_len in
        check_bool (label "static") true
          (Relation.equal (Static_dep.minimal spec ~max_len) (Reference.static_minimal reference));
        check_bool (label "dynamic") true
          (Relation.equal (Dynamic_dep.minimal spec ~max_len)
             (Reference.dynamic_minimal spec ~max_len));
        List.iter
          (fun inv ->
            List.iter
              (fun e ->
                let w = Static_dep.witness spec ~max_len inv e in
                check_bool (label "witness = reference") true
                  (w = Reference.static_witness reference inv e);
                Option.iter
                  (fun (h1, ev, h2, h3) ->
                    let legal = Serial_spec.legal spec in
                    let base = h1 @ h2 @ h3 in
                    let holds first second =
                      legal (h1 @ (first :: h2) @ h3)
                      && legal (h1 @ h2 @ (second :: h3))
                      && not (legal (h1 @ (first :: h2) @ (second :: h3)))
                    in
                    if not (legal base && (holds ev e || holds e ev)) then
                      Alcotest.failf "%s: not a witness: h1 = [%a] ev = %a h2 = [%a] h3 = [%a]"
                        (label "witness") pp_hist h1 Event.pp ev pp_hist h2 pp_hist h3;
                    (* Minimal: no witness fits in a shorter bound. *)
                    let len = List.length base in
                    check_bool (label "witness minimal") true
                      (len = 0 || Option.is_none (Static_dep.witness spec ~max_len:(len - 1) inv e)))
                  w)
              universe)
          spec.Serial_spec.invocations
      done)
    Type_registry.all

(* Beyond the reference's reach: at bounds 5 and 6 [minimal] (which stops
   at the first hit and builds no path) and [witness] (which keeps the
   least path) must still decide every pair alike. *)
let test_minimal_agrees_with_witness () =
  List.iter
    (fun (name, spec) ->
      for max_len = 5 to 6 do
        let relation = Static_dep.minimal spec ~max_len in
        List.iter
          (fun inv ->
            List.iter
              (fun (e : Event.t) ->
                check_bool
                  (Fmt.str "%s max_len:%d %a >= %a" name max_len Event.Invocation.pp inv Event.pp e)
                  (Relation.mem (inv, e) relation)
                  (Option.is_some (Static_dep.witness spec ~max_len inv e)))
              (Serial_spec.event_universe spec ~max_len))
          spec.Serial_spec.invocations
      done)
    Type_registry.all;
  List.iter
    (fun (name, cardinal) ->
      check_int (name ^ " pairs at six events") cardinal
        (Relation.cardinal (Static_dep.minimal (Option.get (Type_registry.find name)) ~max_len:6)))
    [ ("queue", 8); ("stack", 8); ("log", 14) ]

(* [Serial_spec.apply_event] takes the first matching response, and the
   state search visits each state once: both are exact only if a (state,
   event) pair has one next state. *)
let test_deterministic () =
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun (_, s) ->
          List.iter
            (fun inv ->
              let next = spec.Serial_spec.step s inv in
              List.iter
                (fun (res, s') ->
                  List.iter
                    (fun (res', s'') ->
                      if Event.Response.equal res res' && not (Value.equal s' s'') then
                        Alcotest.failf "%s: %a;%a from %a has two next states" name
                          Event.Invocation.pp inv Event.Response.pp res Value.pp s)
                    next)
                next)
            spec.Serial_spec.invocations)
        (Serial_spec.reachable spec ~max_len:4))
    Type_registry.all

(* Types whose reachable states reach a fixed point: a search node is a
   phase and up to four states, so the number of nodes is at most 3·|S|⁴,
   and each is reached at its minimal depth. At a bound that large the
   search runs until its frontier is empty, and the relation is exact. *)
let finite_types =
  [ ("prom", 6); ("flagset", 9); ("doublebuffer", 7); ("register", 3); ("wset", 4);
    ("directory", 3); ("boundedbuffer", 7); ("rset", 4) ]

(* Close();Ok(true) needs Open, three Shifts and Close, so no four-event
   history holds these FlagSet pairs. *)
let flagset_beyond_four r =
  List.fold_left
    (fun r k -> Relation.add (Flag_set.shift_inv k, Flag_set.close true) r)
    r [ 1; 2; 3 ]

let test_saturation_certificate () =
  List.iter
    (fun (name, n) ->
      let spec = Option.get (Type_registry.find name) in
      check_int (name ^ " reachable states") n
        (List.length (Serial_spec.reachable spec ~max_len:(n - 1)));
      check_int (name ^ " is a fixed point") n
        (List.length (Serial_spec.reachable spec ~max_len:n));
      let exact = Static_dep.minimal spec ~max_len:((3 * n * n * n * n) + 1) in
      let at4 = Static_dep.minimal spec ~max_len:4 in
      if name = "flagset" then begin
        check_int "flagset pairs at four events" 19 (Relation.cardinal at4);
        check_bool "flagset exact relation" true (Relation.equal exact (flagset_beyond_four at4));
        check_bool "flagset exact at five events" true
          (Relation.equal exact (Static_dep.minimal spec ~max_len:5))
      end
      else check_bool (name ^ " exact relation") true (Relation.equal exact at4))
    finite_types

let suites =
  [
    ( "reachable-state relations",
      [
        Alcotest.test_case "specs are deterministic" `Quick test_deterministic;
        Alcotest.test_case "static, dynamic, universe, witness = reference" `Quick
          test_matches_reference;
        Alcotest.test_case "minimal = witness at bounds 5 and 6" `Quick
          test_minimal_agrees_with_witness;
        Alcotest.test_case "saturation certificates" `Quick test_saturation_certificate;
      ] );
  ]
