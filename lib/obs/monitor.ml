type verdict = {
  d_txn : string;
  d_commits : int;
  d_aborts : int;
  d_sites : int list; (* deciding sites, first-decision order *)
}

let decisions ?(from_id = 0) trace =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.id >= from_id then
        match e.Trace.kind with
        | Trace.Txn_decide { txn; site; committed } ->
          let v =
            match Hashtbl.find_opt tbl txn with
            | Some v -> v
            | None ->
              order := txn :: !order;
              { d_txn = txn; d_commits = 0; d_aborts = 0; d_sites = [] }
          in
          let v =
            if committed then { v with d_commits = v.d_commits + 1 }
            else { v with d_aborts = v.d_aborts + 1 }
          in
          let v =
            if List.mem site v.d_sites then v
            else { v with d_sites = v.d_sites @ [ site ] }
          in
          Hashtbl.replace tbl txn v
        | _ -> ())
    (Trace.events trace);
  List.rev_map (fun txn -> Hashtbl.find tbl txn) !order

(* The declarative form: one state machine per transaction folding its
   Txn_decide events; the first opposite verdict is the counterexample
   (flagged once — later contradictions of an already-divergent
   transaction add nothing). *)
type div_state = {
  s_commits : int;
  s_aborts : int;
  s_sites : int list;
  s_flagged : bool;
}

let observes = [ "txn_decide" ]

let spec () =
  Spec_monitor.keyed ~name:"no_divergence" ~observes
    ~key:(fun e ->
      match e.Trace.kind with
      | Trace.Txn_decide { txn; _ } -> Some txn
      | _ -> None)
    ~init:(fun _ -> { s_commits = 0; s_aborts = 0; s_sites = []; s_flagged = false })
    ~step:(fun s e ->
      match e.Trace.kind with
      | Trace.Txn_decide { site; committed; _ } ->
        let s =
          if committed then { s with s_commits = s.s_commits + 1 }
          else { s with s_aborts = s.s_aborts + 1 }
        in
        let s =
          if List.mem site s.s_sites then s
          else { s with s_sites = s.s_sites @ [ site ] }
        in
        if s.s_commits > 0 && s.s_aborts > 0 && not s.s_flagged then
          Spec_monitor.Violate
            ( { s with s_flagged = true },
              Printf.sprintf
                "divergent decisions: %d commit verdict(s) and %d abort \
                 verdict(s) across driver sites [%s]"
                s.s_commits s.s_aborts
                (String.concat ";" (List.map string_of_int s.s_sites)) )
        else Spec_monitor.Continue s
      | _ -> Spec_monitor.Continue s)
    ()
