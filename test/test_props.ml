(* Property-based tests (qcheck, registered through QCheck_alcotest). *)

open Atomrep_history
open Atomrep_spec
open Atomrep_atomicity
open Atomrep_core

let specs =
  [ Queue_type.spec; Prom.spec; Counter.spec; Register.spec; Wset.spec ]

let spec_gen = QCheck2.Gen.oneofl specs

(* Generators built on the workload module keep qcheck shrinking simple:
   generate a seed, derive the structure deterministically. *)
let seeded name gen_count prop =
  QCheck2.Test.make ~name ~count:gen_count QCheck2.Gen.(pair spec_gen nat) prop

let history_of spec seed ~max_actions ~max_events =
  let rng = Atomrep_stats.Rng.create seed in
  Atomrep_workload.Histories.random rng spec ~max_actions ~max_events

let serial_of spec seed ~len =
  let rng = Atomrep_stats.Rng.create seed in
  Atomrep_workload.Histories.random_serial rng spec ~len

let prop_generated_histories_well_formed =
  seeded "generated histories are well-formed" 300 (fun (spec, seed) ->
      Behavioral.well_formed (history_of spec seed ~max_actions:3 ~max_events:5))

let prop_random_serial_legal =
  seeded "random serial histories are legal" 300 (fun (spec, seed) ->
      Serial_spec.legal spec (serial_of spec seed ~len:6))

let prop_serial_prefix_closed =
  seeded "legality is prefix-closed" 200 (fun (spec, seed) ->
      let h = serial_of spec seed ~len:6 in
      let rec prefixes acc = function
        | [] -> [ List.rev acc ]
        | e :: rest -> List.rev acc :: prefixes (e :: acc) rest
      in
      List.for_all (Serial_spec.legal spec) (prefixes [] h))

let prop_dynamic_implies_hybrid =
  seeded "strong dynamic implies hybrid" 200 (fun (spec, seed) ->
      let h = history_of spec seed ~max_actions:3 ~max_events:4 in
      (not (Atomicity.is_dynamic_atomic spec h)) || Atomicity.is_hybrid_atomic spec h)

let prop_atomic_control_accepted =
  seeded "serial executions satisfy all properties" 200 (fun (spec, seed) ->
      let rng = Atomrep_stats.Rng.create seed in
      let h = Atomrep_workload.Histories.random_atomic rng spec ~max_actions:3 ~max_events:5 in
      List.for_all (fun p -> Atomicity.satisfies spec p h) Atomicity.all_properties)

let prop_stripping_preserves_properties =
  seeded "aborted actions do not affect verdicts" 200 (fun (spec, seed) ->
      let h = history_of spec seed ~max_actions:3 ~max_events:4 in
      List.for_all
        (fun p ->
          Bool.equal (Atomicity.satisfies spec p h)
            (Atomicity.satisfies spec p (Behavioral.strip_aborted h)))
        Atomicity.all_properties)

(* The reference the serialization search must agree with: build every
   order the on-line properties demand as a list, serialize it, and replay
   it from the initial state. Exponential (factorial for hybrid and
   dynamic) in the active actions, so only for small histories. *)
module Enumerator = struct
  let subsets l =
    List.fold_right (fun x acc -> List.concat_map (fun s -> [ s; x :: s ]) acc) l [ [] ]

  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat
        (List.mapi
           (fun i x ->
             let rest = List.filteri (fun j _ -> j <> i) l in
             List.map (fun p -> x :: p) (permutations rest))
           l)

  (* A precedes B when B executes an operation after A commits; only
     non-aborted actions that executed something take part. *)
  let precedes_pairs h =
    let rec go committed acc = function
      | [] -> acc
      | Behavioral.Commit a :: rest -> go (a :: committed) acc rest
      | Behavioral.Exec (_, b) :: rest ->
        go committed
          (List.filter_map (fun a -> if Action.equal a b then None else Some (a, b)) committed
          @ acc)
          rest
      | (Behavioral.Begin _ | Behavioral.Abort _) :: rest -> go committed acc rest
    in
    let aborted = Behavioral.aborted h and executed = Behavioral.events_by_action h in
    let live a = (not (Action.Set.mem a aborted)) && Action.Map.mem a executed in
    List.filter (fun (a, b) -> live a && live b) (go [] [] h)

  let rec linear_extensions pairs = function
    | [] -> [ [] ]
    | remaining ->
      let minimal x =
        not
          (List.exists
             (fun (a, b) -> Action.equal b x && List.exists (Action.equal a) remaining)
             pairs)
      in
      List.concat_map
        (fun c ->
          let rest = List.filter (fun x -> not (Action.equal x c)) remaining in
          List.map (fun tail -> c :: tail) (linear_extensions pairs rest))
        (List.filter minimal remaining)

  let orders property h =
    let committed = Behavioral.committed h in
    let mem l a = List.exists (Action.equal a) l in
    List.concat_map
      (fun chosen ->
        match property with
        | Atomicity.Static ->
          [ List.filter (fun a -> mem committed a || mem chosen a) (Behavioral.begin_order h) ]
        | Atomicity.Hybrid -> List.map (fun p -> committed @ p) (permutations chosen)
        | Atomicity.Dynamic -> linear_extensions (precedes_pairs h) (committed @ chosen))
      (subsets (Behavioral.active h))

  (* The action set an order covers, among the actions that executed
     something (the others add nothing to a serialization). *)
  let covers h order =
    let executed = Behavioral.events_by_action h in
    List.filter (fun a -> Action.Map.mem a executed) order
    |> List.map Action.to_string |> List.sort compare

  let depth h = List.length (Behavioral.all_events h) + 2

  let satisfies spec property h =
    let h = Behavioral.strip_aborted h in
    let orders = orders property h in
    let serial = Behavioral.serialize h in
    let first = Hashtbl.create 16 in
    List.iter
      (fun o -> if not (Hashtbl.mem first (covers h o)) then Hashtbl.add first (covers h o) o)
      orders;
    List.for_all (fun o -> Serial_spec.legal spec (serial o)) orders
    && (property <> Atomicity.Dynamic
       || List.for_all
            (fun o ->
              Serial_spec.equivalent spec ~depth:(depth h)
                (serial (Hashtbl.find first (covers h o)))
                (serial o))
            orders)
end

let search_specs =
  [
    Queue_type.spec; Counter.spec; Prom.spec; Register.spec; Double_buffer.spec;
    Flag_set.spec;
  ]

(* Small histories: interleaved random ones, serial executions, prefixes
   of the latter (which leave actions active), and serial executions
   whose Commits all move to the end — concurrent actions, legal in commit
   order, so the dynamic property turns on equivalence. *)
let small_history spec seed =
  let rng = Atomrep_stats.Rng.create seed in
  let module H = Atomrep_workload.Histories in
  let serial () = H.random_atomic rng spec ~max_actions:6 ~max_events:8 in
  match seed mod 4 with
  | 0 -> H.random rng spec ~max_actions:6 ~max_events:6
  | 1 -> serial ()
  | 2 ->
    let h = serial () in
    let keep = Atomrep_stats.Rng.int rng (List.length h + 1) in
    List.filteri (fun i _ -> i < keep) h
  | _ ->
    let commits, rest =
      List.partition (function Behavioral.Commit _ -> true | _ -> false) (serial ())
    in
    rest @ commits

let prop_search_matches_enumerator =
  QCheck2.Test.make ~name:"serialization search agrees with the order enumerator"
    ~count:600
    QCheck2.Gen.(pair (oneofl search_specs) nat)
    (fun (spec, seed) ->
      let h = small_history spec seed in
      let stripped = Behavioral.strip_aborted h in
      let serial = Behavioral.serialize stripped in
      let demanded p = Enumerator.orders p stripped in
      (* A reported counterexample is an illegal prefix of a demanded
         order, or an order whose serialization some other demanded order
         over the same actions is not equivalent to. *)
      let sound p (f : Atomicity.failure) =
        let covered = Enumerator.covers stripped in
        let rec is_prefix l l' =
          match l, l' with
          | [], _ -> true
          | a :: l, b :: l' -> Action.equal a b && is_prefix l l'
          | _ :: _, [] -> false
        in
        let executed o =
          List.filter (fun a -> Action.Map.mem a (Behavioral.events_by_action stripped)) o
        in
        f.serial = serial f.order
        &&
        match f.reason with
        | "illegal serialization" ->
          (not (Serial_spec.legal spec f.serial))
          && List.exists (fun o -> is_prefix f.order (executed o)) (demanded p)
        | "inequivalent serializations" ->
          List.exists
            (fun o ->
              covered o = covered f.order
              && not
                   (Serial_spec.equivalent spec ~depth:(Enumerator.depth stripped)
                      (serial o) f.serial))
            (demanded p)
        | _ -> false
      in
      List.for_all
        (fun p ->
          match Atomicity.check spec p h, Enumerator.satisfies spec p h with
          | Ok (), true -> true
          | Error f, false -> sound p f
          | Ok (), false | Error _, true -> false)
        Atomicity.all_properties)

let prop_state_equiv_reflexive_on_reachable =
  seeded "state equivalence is reflexive" 200 (fun (spec, seed) ->
      let h = serial_of spec seed ~len:5 in
      match Serial_spec.run spec h with
      | None -> false
      | Some s -> Serial_spec.state_equiv spec ~depth:4 s s)

let prop_commute_symmetric =
  QCheck2.Test.make ~name:"commutativity is symmetric" ~count:100
    QCheck2.Gen.(pair (oneofl specs) (pair nat nat))
    (fun (spec, (i, j)) ->
      let universe = Serial_spec.event_universe spec ~max_len:3 in
      let n = List.length universe in
      let e = List.nth universe (i mod n) and e' = List.nth universe (j mod n) in
      Bool.equal
        (Dynamic_dep.commute spec ~max_len:3 e e')
        (Dynamic_dep.commute spec ~max_len:3 e' e))

let prop_static_minimal_monotone =
  QCheck2.Test.make ~name:"static relation monotone in bound" ~count:10
    (QCheck2.Gen.oneofl specs)
    (fun spec ->
      Relation.subset
        (Static_dep.minimal spec ~max_len:2)
        (Static_dep.minimal spec ~max_len:4))

(* Random replica logs over all five record kinds. Four actions and small
   timestamps make duplicate commit and precommit records for one action,
   with different timestamps, common. *)
module Log = Atomrep_replica.Log
module Ts = Atomrep_clock.Lamport.Timestamp

let log_actions = List.init 4 Action.of_int

let random_record rng seq =
  let int = Atomrep_stats.Rng.int rng in
  let action = List.nth log_actions (int 4) in
  let ts () = { Ts.counter = 1 + int 10; site = int 2 } in
  match int 5 with
  | 0 ->
    let ets = ts () in
    Log.Entry { Log.ets; action; begin_ts = ets; seq; event = Queue_type.enq "x" }
  | 1 -> Log.Commit_record (action, ts ())
  | 2 -> Log.Abort_record action
  | 3 -> Log.Precommit (action, ts ())
  | _ -> Log.Preabort action

let random_log rng ~max_len =
  let n = Atomrep_stats.Rng.int rng (max_len + 1) in
  List.fold_left Log.add Log.empty (List.init n (random_record rng))

let prop_log_merge_associative =
  QCheck2.Test.make ~name:"log merge associative/commutative/idempotent" ~count:100
    QCheck2.Gen.(triple nat nat nat)
    (fun (s1, s2, s3) ->
      let mk seed = random_log (Atomrep_stats.Rng.create seed) ~max_len:8 in
      let l1 = mk s1 and l2 = mk s2 and l3 = mk s3 in
      Log.equal (Log.merge l1 (Log.merge l2 l3)) (Log.merge (Log.merge l1 l2) l3)
      && Log.equal (Log.merge l1 l2) (Log.merge l2 l1)
      && Log.equal (Log.merge l1 l1) l1)

(* Reference scans over the record list: what the status lookups must
   answer, with the later timestamp winning between duplicates. *)
let scan_ts log pick action =
  List.fold_left
    (fun acc r ->
      match pick r, acc with
      | Some (a, ts), Some best when Action.equal a action ->
        Some (if Ts.compare ts best >= 0 then ts else best)
      | Some (a, ts), None when Action.equal a action -> Some ts
      | _ -> acc)
    None (Log.records log)

let scan_has log pick action =
  List.exists
    (fun r -> match pick r with Some a -> Action.equal a action | None -> false)
    (Log.records log)

let log_agrees_with_scan log =
  let commit = function Log.Commit_record (a, ts) -> Some (a, ts) | _ -> None in
  let precommit = function Log.Precommit (a, ts) -> Some (a, ts) | _ -> None in
  let abort = function Log.Abort_record a -> Some a | _ -> None in
  let preabort = function Log.Preabort a -> Some a | _ -> None in
  let ts_eq = Option.equal Ts.equal in
  let status_ok a =
    ts_eq (Log.commit_ts log a) (scan_ts log commit a)
    && ts_eq (Log.precommit_ts log a) (scan_ts log precommit a)
    && Bool.equal (Log.is_committed log a) (Option.is_some (scan_ts log commit a))
    && Bool.equal (Log.is_aborted log a) (scan_has log abort a)
    && Bool.equal (Log.has_preabort log a) (scan_has log preabort a)
  in
  let entries =
    List.filter_map (function Log.Entry e -> Some e | _ -> None) (Log.records log)
    |> List.stable_sort (fun (e1 : Log.entry) e2 -> Ts.compare e1.ets e2.ets)
  in
  List.for_all status_ok log_actions && Log.entries log = entries

let prop_log_status_index =
  QCheck2.Test.make ~name:"log status lookups agree with a record scan" ~count:200
    QCheck2.Gen.nat
    (fun seed ->
      let rng = Atomrep_stats.Rng.create seed in
      let step log =
        match Atomrep_stats.Rng.int rng 4 with
        | 0 -> Log.add log (random_record rng (Atomrep_stats.Rng.int rng 8))
        | 1 -> Log.merge log (random_log rng ~max_len:6)
        | 2 -> Log.gc log
        | _ -> Log.stable log
      in
      let rec go log n = n = 0 || (log_agrees_with_scan log && go (step log) (n - 1)) in
      go (random_log rng ~max_len:8) 12)

(* The copy-and-sort latency book that [Sitelat]'s sorted mirrors
   replaced, kept as the oracle: each site's window is a newest-first
   list, and every percentile sorts a fresh copy. Its rank rule is
   written out rather than borrowed from [Summary]. *)
module Ref_sitelat = struct
  type t = {
    alpha : float;
    window : int;
    ewma : float array;
    rings : float list array;
    seen : int array;
  }

  let create ~n_sites ~window =
    {
      alpha = 0.2;
      window;
      ewma = Array.make n_sites (-1.0);
      rings = Array.make n_sites [];
      seen = Array.make n_sites 0;
    }

  let n_sites t = Array.length t.ewma
  let in_range t site = site >= 0 && site < n_sites t

  let observe t ~site x =
    if in_range t site then begin
      t.ewma.(site) <-
        (if t.ewma.(site) < 0.0 then x
         else (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.ewma.(site)));
      t.rings.(site) <- List.filteri (fun i _ -> i < t.window) (x :: t.rings.(site));
      t.seen.(site) <- t.seen.(site) + 1
    end

  let nearest_rank values q =
    let a = Array.of_list values in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
      a.(max 0 (min (n - 1) (rank - 1)))
    end

  let samples t ~site = if in_range t site then t.seen.(site) else 0
  let ewma t ~site = if in_range t site && t.ewma.(site) >= 0.0 then t.ewma.(site) else 0.0
  let percentile t ~site ~q = if in_range t site then nearest_rank t.rings.(site) q else 0.0

  let pooled_percentile ~exclude t ~q =
    nearest_rank
      (List.concat (List.filteri (fun site _ -> not (exclude site)) (Array.to_list t.rings)))
      q

  let median_over t stat =
    nearest_rank
      (List.filter_map
         (fun site -> if t.rings.(site) = [] then None else Some (stat site))
         (List.init (n_sites t) Fun.id))
      0.5

  let median_ewma t = median_over t (fun site -> ewma t ~site)
  let median_percentile t ~q = median_over t (fun site -> percentile t ~site ~q)
end

let prop_sitelat_matches_reference =
  QCheck2.Test.make ~name:"latency books agree with a copy-and-sort reference"
    ~count:200 QCheck2.Gen.nat (fun seed ->
      let module S = Atomrep_obs.Sitelat in
      let module Rng = Atomrep_stats.Rng in
      let rng = Rng.create seed in
      let window = Rng.pick rng [| 1; 2; 3; 64 |] in
      let n_sites = 1 + Rng.int rng 6 in
      let book = S.create ~n_sites ~window () in
      let reference = Ref_sitelat.create ~n_sites ~window in
      (* A small value set, so windows hold duplicates and evict values
         that have equals elsewhere in the mirror. *)
      let values = [| 0.5; 1.0; 1.0; 2.0; 3.5; 8.0; 25.0 |] in
      let qs = [| 0.0; 0.01; 0.07; 0.5; 0.95; 0.99; 1.0 |] in
      let sites = List.init (n_sites + 2) (fun i -> i - 1) in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let agrees () =
        let q = if Rng.bool rng then Rng.pick rng qs else Rng.float rng 1.0 in
        let excluded = Array.init n_sites (fun _ -> Rng.int rng 3 = 0) in
        let exclude site = excluded.(site) in
        List.for_all
          (fun site ->
            S.samples book ~site = Ref_sitelat.samples reference ~site
            && same (S.ewma book ~site) (Ref_sitelat.ewma reference ~site)
            && same (S.percentile book ~site ~q)
                 (Ref_sitelat.percentile reference ~site ~q))
          sites
        && same (S.pooled_percentile ~exclude book ~q)
             (Ref_sitelat.pooled_percentile ~exclude reference ~q)
        && same (S.pooled_percentile book ~q)
             (Ref_sitelat.pooled_percentile ~exclude:(fun _ -> false) reference ~q)
        && same (S.median_percentile book ~q) (Ref_sitelat.median_percentile reference ~q)
        && same (S.median_ewma book) (Ref_sitelat.median_ewma reference)
      in
      let rec go n =
        n = 0
        || begin
             (* Site [n_sites] lies outside the book; both ignore it. *)
             let site = Rng.int rng (n_sites + 1) in
             let x = Rng.pick rng values in
             S.observe book ~site x;
             Ref_sitelat.observe reference ~site x;
             agrees () && go (n - 1)
           end
      in
      agrees () && go (50 + Rng.int rng 250))

(* Nearest rank is ceil(q*n): 0.07 of 100 samples is the 7th smallest,
   although [0.07 *. 100.] rounds to 7.000000000000001. *)
let test_nearest_rank_float_guard () =
  let book = Atomrep_obs.Sitelat.create ~n_sites:2 ~window:64 () in
  for i = 1 to 100 do
    Atomrep_obs.Sitelat.observe book ~site:(i mod 2) (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "pooled" 7.0
    (Atomrep_obs.Sitelat.pooled_percentile book ~q:0.07);
  let summary = Atomrep_stats.Summary.create () in
  for i = 1 to 100 do
    Atomrep_stats.Summary.add summary (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "summary" 7.0
    (Atomrep_stats.Summary.percentile summary 0.07);
  Alcotest.(check int) "rank index" 6 (Atomrep_stats.Summary.nearest_rank ~n:100 0.07)

(* The guard moves no rank the gray layer reads: for the detector's and
   hedge trigger's quantiles, guarded and unguarded ceilings agree at
   every pooled size up to 5 sites x 64 samples, so adding it kept every
   run's decisions unchanged. *)
let test_nearest_rank_guard_is_inert_for_gray_quantiles () =
  List.iter
    (fun q ->
      for n = 1 to 320 do
        let unguarded = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)) in
        Alcotest.(check int)
          (Printf.sprintf "q=%g n=%d" q n)
          unguarded
          (Atomrep_stats.Summary.nearest_rank ~n q)
      done)
    [ 0.5; 0.95; 0.99 ]

let prop_quorum_intersection_theorem =
  QCheck2.Test.make ~name:"threshold quorums intersect iff k1+k2>n" ~count:200
    QCheck2.Gen.(triple (int_range 1 6) (int_range 0 6) (int_range 0 6))
    (fun (n, k1, k2) ->
      let k1 = min k1 n and k2 = min k2 n in
      let q1s = Atomrep_quorum.Quorum.all_of_size ~n k1 in
      let q2s = Atomrep_quorum.Quorum.all_of_size ~n k2 in
      let all_intersect =
        List.for_all
          (fun q1 -> List.for_all (Atomrep_quorum.Quorum.intersects q1) q2s)
          q1s
      in
      Bool.equal all_intersect (k1 + k2 > n && k1 > 0 && k2 > 0))

let prop_availability_bounds =
  QCheck2.Test.make ~name:"availability lies in [0,1]" ~count:200
    QCheck2.Gen.(triple (int_range 1 7) (int_range 0 7) (float_bound_inclusive 1.0))
    (fun (n, k, p) ->
      let k = min k n in
      let a =
        Atomrep_quorum.Assignment.make ~n_sites:n
          [ ("Op", { Atomrep_quorum.Assignment.initial = k; final = k }) ]
      in
      let v = Atomrep_quorum.Assignment.availability a ~p "Op" in
      v >= -.1e-9 && v <= 1.0 +. 1e-9)

(* Random operation-level constraint sets over a small op alphabet. *)
let constraints_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (map2
         (fun d s ->
           {
             Atomrep_quorum.Op_constraint.dependent = (if d then "A" else "B");
             supplier = (if s then "A" else "B");
             labels = [ "Ok" ];
           })
         bool bool))

let prop_enumerate_satisfies =
  QCheck2.Test.make ~name:"every enumerated assignment satisfies its constraints"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 4) constraints_gen)
    (fun (n_sites, constraints) ->
      let open Atomrep_quorum in
      Assignment.enumerate ~n_sites ~ops:[ "A"; "B" ] constraints
      |> List.for_all (fun a -> Assignment.satisfies a constraints))

let prop_availability_monotone_in_p =
  QCheck2.Test.make ~name:"availability monotone in site up-probability" ~count:120
    QCheck2.Gen.(
      quad (int_range 1 6) (int_range 1 6)
        (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    (fun (n, k, p1, p2) ->
      let open Atomrep_quorum in
      let k = min k n in
      let a =
        Assignment.make ~n_sites:n
          [ ("Op", { Assignment.initial = k; final = k }) ]
      in
      let lo = min p1 p2 and hi = max p1 p2 in
      Assignment.availability a ~p:lo "Op"
      <= Assignment.availability a ~p:hi "Op" +. 1e-9)

let prop_reassign_plan_sound =
  (* Whatever the policy proposes must be usable as an epoch: members are
     exactly the (deduplicated, sorted) live view, and the assignment both
     fits the member count and satisfies the constraints. *)
  QCheck2.Test.make ~name:"reassignment plans are sound" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 0 6) (int_range 0 5)) constraints_gen)
    (fun (live, constraints) ->
      let open Atomrep_quorum in
      match Reassign.plan ~live ~ops:[ "A"; "B" ] ~constraints () with
      | None -> true
      | Some (members, a) ->
        members = List.sort_uniq compare live
        && Assignment.satisfies a constraints
        && (try
              ignore
                (Atomrep_replica.Epoch.make ~number:1 ~members ~assignment:a);
              true
            with Invalid_argument _ -> false))

let prop_relation_union_still_dependency =
  (* Monotonicity of hybrid validity under union, checked on PROM with a
     small checker. *)
  let checker =
    lazy (Hybrid_dep.make_checker Prom.spec ~max_events:3 ~max_actions:2)
  in
  QCheck2.Test.make ~name:"hybrid validity monotone under union" ~count:30
    QCheck2.Gen.(pair nat nat)
    (fun (i, j) ->
      let checker = Lazy.force checker in
      let base = Paper.prom_hybrid_relation in
      let universe = Serial_spec.event_universe Prom.spec ~max_len:3 in
      let invs = Prom.spec.Serial_spec.invocations in
      let extra =
        ( List.nth invs (i mod List.length invs),
          List.nth universe (j mod List.length universe) )
      in
      let bigger = Relation.add extra base in
      (not (Hybrid_dep.is_hybrid_dependency checker base))
      || Hybrid_dep.is_hybrid_dependency checker bigger)

(* Drive the one-site scheduler with random interleavings; whatever it
   lets through must satisfy its scheme's property. *)
let drive_scheduler scheme spec seed =
  let open Atomrep_clock in
  let open Atomrep_replica in
  let rng = Atomrep_stats.Rng.create seed in
  let t = Scheduler.create scheme spec in
  let n_actions = 2 + Atomrep_stats.Rng.int rng 2 in
  let clock = ref 0 in
  let tick () =
    incr clock;
    { Lamport.Timestamp.counter = !clock; site = 0 }
  in
  let status = Array.make n_actions `Fresh in
  let actions = Array.init n_actions Action.of_int in
  for _ = 1 to 12 do
    let i = Atomrep_stats.Rng.int rng n_actions in
    match status.(i) with
    | `Fresh ->
      Scheduler.begin_action t actions.(i) ~ts:(tick ());
      status.(i) <- `Active
    | `Active ->
      (match Atomrep_stats.Rng.int rng 4 with
       | 0 ->
         Scheduler.commit t actions.(i) ~ts:(tick ());
         status.(i) <- `Done
       | 1 ->
         Scheduler.abort t actions.(i);
         status.(i) <- `Done
       | _ ->
         let inv = Atomrep_stats.Rng.pick_list rng spec.Serial_spec.invocations in
         (match Scheduler.try_operation t actions.(i) inv with
          | Replicated.(Done _ | Blocked_on _ | Unavailable _) -> ()
          | Replicated.Rejected _ ->
            Scheduler.abort t actions.(i);
            status.(i) <- `Done))
    | `Done -> ()
  done;
  Scheduler.history t

let scheduler_specs = List.map snd Type_registry.all

let prop_scheduler_atomic scheme ~name holds =
  QCheck2.Test.make ~name ~count:120
    QCheck2.Gen.(pair (oneofl scheduler_specs) nat)
    (fun (spec, seed) -> holds spec (drive_scheduler scheme spec seed))

let prop_locking_scheduler_dynamic =
  prop_scheduler_atomic Atomrep_replica.Replicated.Locking
    ~name:"locking scheduler yields dynamic atomic histories" Atomicity.is_dynamic_atomic

let prop_static_scheduler_static =
  prop_scheduler_atomic Atomrep_replica.Replicated.Static
    ~name:"static scheduler yields static atomic histories" Atomicity.is_static_atomic

let prop_hybrid_scheduler_hybrid =
  prop_scheduler_atomic Atomrep_replica.Replicated.Hybrid
    ~name:"hybrid scheduler yields hybrid atomic histories" Atomicity.is_hybrid_atomic

let prop_runtime_random_seeds_atomic =
  QCheck2.Test.make ~name:"replicated runtime atomic across random seeds" ~count:8
    QCheck2.Gen.nat
    (fun seed ->
      let open Atomrep_replica in
      let cfg = { Runtime.default_config with seed; n_txns = 25 } in
      let outcome = Runtime.run cfg in
      Runtime.check_atomicity cfg outcome = []
      && Runtime.check_common_order cfg outcome = [])

let prop_rng_int_uniform_support =
  QCheck2.Test.make ~name:"rng int covers support" ~count:20 QCheck2.Gen.nat
    (fun seed ->
      let rng = Atomrep_stats.Rng.create seed in
      let seen = Array.make 5 false in
      for _ = 1 to 300 do
        seen.(Atomrep_stats.Rng.int rng 5) <- true
      done;
      Array.for_all Fun.id seen)

let to_alcotest = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "properties",
      to_alcotest
        [
          prop_generated_histories_well_formed;
          prop_random_serial_legal;
          prop_serial_prefix_closed;
          prop_dynamic_implies_hybrid;
          prop_atomic_control_accepted;
          prop_stripping_preserves_properties;
          prop_search_matches_enumerator;
          prop_state_equiv_reflexive_on_reachable;
          prop_commute_symmetric;
          prop_static_minimal_monotone;
          prop_log_merge_associative;
          prop_log_status_index;
          prop_quorum_intersection_theorem;
          prop_availability_bounds;
          prop_enumerate_satisfies;
          prop_availability_monotone_in_p;
          prop_reassign_plan_sound;
          prop_relation_union_still_dependency;
          prop_locking_scheduler_dynamic;
          prop_static_scheduler_static;
          prop_hybrid_scheduler_hybrid;
          prop_runtime_random_seeds_atomic;
          prop_rng_int_uniform_support;
          prop_sitelat_matches_reference;
        ]
      @ [
          Alcotest.test_case "nearest rank: 0.07 of 100 is the 7th" `Quick
            test_nearest_rank_float_guard;
          Alcotest.test_case "nearest rank: guard inert for gray quantiles"
            `Quick test_nearest_rank_guard_is_inert_for_gray_quantiles;
        ] );
  ]
