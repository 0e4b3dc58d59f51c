open Atomrep_replica
module Trace = Atomrep_obs.Trace
module SM = Atomrep_obs.Spec_monitor
module Profile = Atomrep_obs.Profile
module Assignment = Atomrep_quorum.Assignment
module Op_constraint = Atomrep_quorum.Op_constraint
module Termination = Atomrep_txn.Termination

type ctx = { cfg : Runtime.config; outcome : Runtime.outcome }
type kind = Safety | Liveness

type entry = { e_name : string; e_doc : string; e_kind : kind; e_spec : ctx SM.t }

(* The whole retry budget (capped backoff x attempts), a few RPC round
   trips, and two reaper sweeps. *)
let grace =
  let retries = float_of_int (Runtime.max_retries + 1) *. Runtime.retry_delay_cap in
  let rpc = 4.0 *. Replicated.rpc_timeout in
  let reaper = 2.0 *. Term_driver.reaper_every in
  Float.max 500.0 (retries +. rpc +. reaper)

(* One shape for every obligation judged at quiesce. The runtime's final
   [Quiesce] event is the end-of-run fairness signal: only a network that
   ended healed and fully live gave every open obligation its chance, so
   only then — and only when [gate] enables the property for this run —
   does the machine report what is [standing]: (opened-at time, message
   given its age) pairs, each reported once it aged [grace] or more,
   sorted. [step] folds every other observed kind into the (mutable)
   state; a violation message it returns is anchored at the event as in
   any machine, so one machine can carry a safety leg beside its
   obligations. *)
type 's obligations = { st : 's; on : bool; mutable fair : bool; mutable horizon : float }

let obligations ~name ~observes ?(gate = fun _ -> true) ~init
    ?(step = fun _ _ -> None) ~standing () =
  SM.make ~name ~observes:("quiesce" :: observes)
    ~init:(fun ctx -> { st = init ctx; on = gate ctx; fair = false; horizon = 0.0 })
    ~step:(fun o e ->
      match e.Trace.kind with
      | Trace.Quiesce { up; n_sites; partitioned } ->
        o.fair <- up = n_sites && not partitioned;
        o.horizon <- e.Trace.time;
        SM.Continue o
      | _ -> (
        match step o.st e with
        | None -> SM.Continue o
        | Some msg -> SM.Violate (o, msg)))
    ~at_quiesce:(fun o ->
      if not (o.on && o.fair) then []
      else
        List.filter_map
          (fun (opened, msg) ->
            let age = o.horizon -. opened in
            if age >= grace then Some (msg age) else None)
          (standing o.st)
        |> List.sort compare)
    ()

(* --- commit_atomicity / common_order -------------------------------- *)
(* The history-based oracles judge reconstructed behavioral histories,
   not individual events, so their declarative form is pure at_quiesce:
   no events observed, the whole check is the quiesce obligation. *)

let outcome_spec ~name check =
  SM.check ~name (fun ctx ->
      List.map
        (fun (obj, why) -> Printf.sprintf "%s: %s" obj why)
        (check ctx.cfg ctx.outcome))

(* --- quorum_intersection -------------------------------------------- *)

(* Static leg: every object's threshold assignment must satisfy the
   intersection constraints its scheme's relation induces. *)
let quorum_static =
  SM.check ~name:"quorum_assignment" (fun ctx ->
      List.filter_map
        (fun (o : Runtime.object_config) ->
          let constraints =
            Op_constraint.of_relation
              (Replicated.scheme_relation ~configured:o.Runtime.obj_relation
                 ctx.cfg.Runtime.scheme o.Runtime.obj_spec)
          in
          if Assignment.satisfies o.Runtime.obj_assignment constraints then None
          else
            Some
              (Printf.sprintf
                 "object %s: assignment violates a dependency intersection \
                  constraint (some initial(dependent) + final(supplier) <= n)"
                 o.Runtime.obj_name))
        ctx.cfg.Runtime.objects)

type attempt = { a_ok : bool; a_got : int; a_need : int; a_phase : string }

(* Operational leg: per-transaction machine remembering each operation's
   latest quorum-assembly outcome; committing while any operation's last
   attempt fell short means the protocol committed without the
   intersection the scheme's correctness argument assumes. *)
let quorum_operational =
  SM.keyed ~name:"quorum_intersection"
    ~observes:[ "quorum_read"; "quorum_append"; "txn_commit"; "txn_abort" ]
    ~key:(fun e ->
      match e.Trace.kind with
      | Trace.Quorum_read { txn; _ }
      | Trace.Quorum_append { txn; _ }
      | Trace.Txn_commit { txn }
      | Trace.Txn_abort { txn; _ } ->
        Some txn
      | _ -> None)
    ~init:(fun _ -> Hashtbl.create 8)
    ~step:(fun ops e ->
      match e.Trace.kind with
      | Trace.Quorum_read { op; got; need; _ } ->
        Hashtbl.replace ops op
          { a_ok = got >= need; a_got = got; a_need = need; a_phase = "initial" };
        SM.Continue ops
      | Trace.Quorum_append { op; got; need; _ } ->
        Hashtbl.replace ops op
          { a_ok = got >= need; a_got = got; a_need = need; a_phase = "final" };
        SM.Continue ops
      | Trace.Txn_abort _ -> SM.Accept
      | Trace.Txn_commit _ ->
        let short =
          Hashtbl.fold
            (fun op a acc -> if a.a_ok then acc else (op, a) :: acc)
            ops []
          |> List.sort compare
        in
        if short = [] then SM.Accept
        else
          SM.Violate
            ( ops,
              String.concat "; "
                (List.map
                   (fun (op, a) ->
                     Printf.sprintf
                       "committed though %s's last %s quorum got %d of %d" op
                       a.a_phase a.a_got a.a_need)
                   short) )
      | _ -> SM.Continue ops)
    ()

let quorum_intersection =
  SM.all ~name:"quorum_intersection" [ quorum_static; quorum_operational ]

(* --- commit_durability ---------------------------------------------- *)

module IntSet = Set.Make (Int)

type durab = {
  (* amnesia erases a site's stored entries for good (see the Crash arm) *)
  wipes : bool;
  (* (txn, op) -> distinct repository sites holding the tentative entry *)
  stored : (string * string, IntSet.t) Hashtbl.t;
  (* (txn, op) -> write-quorum size of the latest final-quorum append *)
  need : (string * string, int) Hashtbl.t;
  (* txn -> ops with a final-quorum obligation, first-seen order *)
  ops_of : (string, string list) Hashtbl.t;
}

(* "Nothing is reported committed before a write quorum stored it": the
   eMonitor_CommitDurability shape — per-entry stored-site sets, checked
   at the commit event. Repositories emit [Repo_append] when they log the
   tentative entry, so stored-site counts are ground truth (ack counts at
   the front-end can only under-report them). With ungated rejoin on
   volatile repositories a crash-with-amnesia erases the site's log for
   good, so the site leaves every stored set; gated rejoin resyncs the
   store from a quorum before the site serves again, and durable
   repositories keep what their WAL replays — both keep their credit. *)
let commit_durability =
  SM.make ~name:"commit_durability"
    ~observes:[ "repo_append"; "quorum_append"; "txn_commit"; "txn_abort"; "crash" ]
    ~init:(fun ctx ->
      {
        wipes =
          ctx.cfg.Runtime.durability = Repository.Volatile
          && ctx.cfg.Runtime.mutant = Some Replicated.Ungated_rejoin;
        stored = Hashtbl.create 64;
        need = Hashtbl.create 64;
        ops_of = Hashtbl.create 32;
      })
    ~step:(fun st e ->
      let gc txn =
        (match Hashtbl.find_opt st.ops_of txn with
         | None -> ()
         | Some ops ->
           List.iter
             (fun op ->
               Hashtbl.remove st.stored (txn, op);
               Hashtbl.remove st.need (txn, op))
             ops);
        Hashtbl.remove st.ops_of txn
      in
      match e.Trace.kind with
      | Trace.Repo_append { txn; op; tentative = true } ->
        let k = (txn, op) in
        let s = Option.value ~default:IntSet.empty (Hashtbl.find_opt st.stored k) in
        Hashtbl.replace st.stored k (IntSet.add e.Trace.site s);
        SM.Continue st
      | Trace.Repo_append { tentative = false; _ } -> SM.Continue st
      | Trace.Quorum_append { txn; op; need; _ } ->
        Hashtbl.replace st.need (txn, op) need;
        let ops = Option.value ~default:[] (Hashtbl.find_opt st.ops_of txn) in
        if not (List.mem op ops) then Hashtbl.replace st.ops_of txn (ops @ [ op ]);
        SM.Continue st
      | Trace.Crash { site; amnesia = true } when st.wipes ->
        (* Amnesia wipes a volatile repository, and with rejoin gating
           disabled nothing ever restores it: whatever the site stored is
           gone for good. Under gated rejoin the resync protocol rebuilds
           the store from a quorum before the site serves again, so the
           copy still counts toward durability. *)
        Hashtbl.iter
          (fun k s ->
            if IntSet.mem site s then Hashtbl.replace st.stored k (IntSet.remove site s))
          (Hashtbl.copy st.stored);
        SM.Continue st
      | Trace.Crash _ -> SM.Continue st
      | Trace.Txn_abort { txn; _ } ->
        gc txn;
        SM.Continue st
      | Trace.Txn_commit { txn } ->
        let short =
          List.filter_map
            (fun op ->
              let need = Option.value ~default:0 (Hashtbl.find_opt st.need (txn, op)) in
              let have =
                IntSet.cardinal
                  (Option.value ~default:IntSet.empty
                     (Hashtbl.find_opt st.stored (txn, op)))
              in
              if have >= need then None else Some (op, have, need))
            (Option.value ~default:[] (Hashtbl.find_opt st.ops_of txn))
        in
        gc txn;
        if short = [] then SM.Continue st
        else
          SM.Violate
            ( st,
              Printf.sprintf "%s reported committed before a write quorum stored it: %s"
                txn
                (String.concat "; "
                   (List.map
                      (fun (op, have, need) ->
                        Printf.sprintf "%s stored at %d site(s), write quorum %d" op
                          have need)
                      short)) )
      | _ -> SM.Continue st)
    ()

(* --- no_divergence --------------------------------------------------- *)

(* Every driver that renders a verdict for a transaction — the original
   coordinator, a recovered coordinator re-driving its decision log, a
   cooperative participant, or a takeover lease holder — emits a
   [Txn_decide] event at the verdict, before the idempotent finalize
   guard. One state machine per transaction folds them; re-deciding the
   same outcome is legal (redrive and adoption are idempotent), and the
   first opposite verdict is the counterexample (flagged once — later
   contradictions of an already-divergent transaction add nothing). *)
type div_state = {
  s_commits : int;
  s_aborts : int;
  s_sites : int list; (* deciding sites, first-decision order *)
  s_flagged : bool;
}

let no_divergence =
  SM.keyed ~name:"no_divergence" ~observes:[ "txn_decide" ]
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
          SM.Violate
            ( { s with s_flagged = true },
              Printf.sprintf
                "divergent decisions: %d commit verdict(s) and %d abort \
                 verdict(s) across driver sites [%s]"
                s.s_commits s.s_aborts
                (String.concat ";" (List.map string_of_int s.s_sites)) )
        else SM.Continue s
      | _ -> SM.Continue s)
    ()

(* --- stranded_entries ------------------------------------------------ *)

(* The gauges are read at the horizon and carry no opening time: a
   nonzero reading is overdue whatever the grace window. *)
let stranded_entries =
  obligations ~name:"stranded_entries" ~observes:[]
    ~gate:(fun ctx -> Termination.cooperative ctx.cfg.Runtime.termination)
    ~init:(fun ctx -> ctx.outcome.Runtime.metrics)
    ~standing:(fun m ->
      let overdue msg = (Float.neg_infinity, fun _ -> msg) in
      (if m.Runtime.stranded_entries > 0 then
         [
           overdue
             (Printf.sprintf
                "%d tentative entr%s still stranded at the horizon despite \
                 cooperative termination and a healed, fully-live network"
                m.Runtime.stranded_entries
                (if m.Runtime.stranded_entries = 1 then "y" else "ies"));
         ]
       else [])
      @
      if m.Runtime.stranded_live <> 0 then
        [
          overdue
            (Printf.sprintf
               "stranded-transaction gauge ended at %d (must drain to 0 under \
                cooperative termination)"
               m.Runtime.stranded_live);
        ]
      else [])
    ()

(* --- blocked_liveness ------------------------------------------------ *)

type blocked = {
  b_waiting : (string, float * string) Hashtbl.t;
      (* txn -> (time, blocker) of the latest unresolved wait *)
  b_terminal : (string, unit) Hashtbl.t;
      (* txns that already reached a commit/abort verdict: a later
         lock_wait is a zombie retry attempt the front-end abandons
         without another event, not a new obligation *)
}

let blocked_liveness =
  obligations ~name:"blocked_liveness"
    ~observes:[ "lock_wait"; "lock_grant"; "txn_commit"; "txn_abort"; "deadlock" ]
    ~init:(fun _ -> { b_waiting = Hashtbl.create 32; b_terminal = Hashtbl.create 32 })
    ~step:(fun st e ->
      (match e.Trace.kind with
       | Trace.Lock_wait { txn; blocker } ->
         if not (Hashtbl.mem st.b_terminal txn) then
           Hashtbl.replace st.b_waiting txn (e.Trace.time, blocker)
       | Trace.Lock_grant { txn; _ } -> Hashtbl.remove st.b_waiting txn
       | Trace.Txn_commit { txn } | Trace.Txn_abort { txn; _ } ->
         Hashtbl.replace st.b_terminal txn ();
         Hashtbl.remove st.b_waiting txn
       | Trace.Deadlock { victim; _ } -> Hashtbl.remove st.b_waiting victim
       | _ -> ());
      None)
    ~standing:(fun st ->
      Hashtbl.fold
        (fun txn (t, blocker) acc ->
          ( t,
            Printf.sprintf
              "%s blocked on %s at t=%.0f and never resolved in the %.0fms \
               before quiesce on a healed, fully-live network"
              txn blocker t )
          :: acc)
        st.b_waiting [])
    ()

(* --- indoubt_liveness ------------------------------------------------ *)

type indoubt = {
  i_pending : (string, float) Hashtbl.t;
      (* txn -> time of its durable commit point *)
  i_done : (string, unit) Hashtbl.t;
      (* txns that already reached a verdict: a commit point re-logged by
         a redrive or adoption does not reopen the obligation *)
}

let indoubt_liveness =
  obligations ~name:"indoubt_liveness"
    ~observes:
      [
        "commit_point"; "txn_decide"; "txn_commit"; "txn_abort"; "txn_redrive";
        "coop_term";
      ]
    ~gate:(fun ctx -> Termination.enabled ctx.cfg.Runtime.termination)
    ~init:(fun _ -> { i_pending = Hashtbl.create 32; i_done = Hashtbl.create 32 })
    ~step:(fun st e ->
      (match e.Trace.kind with
       | Trace.Commit_point { txn } ->
         if not (Hashtbl.mem st.i_pending txn || Hashtbl.mem st.i_done txn) then
           Hashtbl.replace st.i_pending txn e.Trace.time
       | Trace.Txn_decide { txn; _ }
       | Trace.Txn_commit { txn }
       | Trace.Txn_abort { txn; _ }
       | Trace.Txn_redrive { txn; _ }
       | Trace.Coop_term { txn; _ } ->
         Hashtbl.replace st.i_done txn ();
         Hashtbl.remove st.i_pending txn
       | _ -> ());
      None)
    ~standing:(fun st ->
      Hashtbl.fold
        (fun txn t acc ->
          ( t,
            Printf.sprintf
              "%s logged a durable commit point at t=%.0f but reached no \
               verdict in the %.0fms before quiesce despite enabled \
               termination and a healed, fully-live network"
              txn t )
          :: acc)
        st.i_pending [])
    ()

(* --- shed_safety ------------------------------------------------------ *)

type shed_st = {
  sh_shed : (string, float) Hashtbl.t; (* txn -> shed time *)
  (* txn -> repository sites holding an unresolved tentative entry *)
  sh_pending : (string, IntSet.t) Hashtbl.t;
  (* txn -> sites whose repository already resolved it (sticky: a stale
     tentative re-delivery after the resolution does not reopen the
     obligation — the repository drops it as a duplicate anyway) *)
  sh_resolved : (string, IntSet.t) Hashtbl.t;
}

(* "A shed transaction is cleanly aborted everywhere": it must never be
   reported committed, and once the network heals, no repository may
   still hold one of its tentative entries. [Repo_resolve] fires exactly
   when a repository first installs the transaction's terminal record
   (whatever the delivery path: the abort broadcast, gossip, or a
   status-poll offer), so resolution is tracked at the store, not at the
   front-end. One machine carries both legs, so in the catalogue's
   conjunction a commit-of-a-shed-transaction violation also silences
   the residual leg. *)
let shed_safety =
  obligations ~name:"shed_safety"
    ~observes:
      [ "crash"; "repo_append"; "repo_resolve"; "shed"; "txn_abort"; "txn_commit" ]
    ~init:(fun _ ->
      {
        sh_shed = Hashtbl.create 16;
        sh_pending = Hashtbl.create 32;
        sh_resolved = Hashtbl.create 32;
      })
    ~step:(fun st e ->
      match e.Trace.kind with
      | Trace.Shed { txn; _ } ->
        Hashtbl.replace st.sh_shed txn e.Trace.time;
        None
      | Trace.Repo_append { txn; tentative = true; _ } ->
        let resolved =
          Option.value ~default:IntSet.empty (Hashtbl.find_opt st.sh_resolved txn)
        in
        if not (IntSet.mem e.Trace.site resolved) then begin
          let s =
            Option.value ~default:IntSet.empty (Hashtbl.find_opt st.sh_pending txn)
          in
          Hashtbl.replace st.sh_pending txn (IntSet.add e.Trace.site s)
        end;
        None
      | Trace.Repo_resolve { txn; _ } ->
        let r =
          Option.value ~default:IntSet.empty (Hashtbl.find_opt st.sh_resolved txn)
        in
        Hashtbl.replace st.sh_resolved txn (IntSet.add e.Trace.site r);
        (match Hashtbl.find_opt st.sh_pending txn with
         | Some s -> Hashtbl.replace st.sh_pending txn (IntSet.remove e.Trace.site s)
         | None -> ());
        None
      | Trace.Crash { site; amnesia = true } ->
        (* Amnesia wipes a volatile repository's log (and a durable one
           replays only what its WAL kept): the site's unresolved entries
           are not evidence any more. Anything resurrected or re-delivered
           later re-enters via a fresh [Repo_append]. *)
        Hashtbl.iter
          (fun txn s ->
            if IntSet.mem site s then
              Hashtbl.replace st.sh_pending txn (IntSet.remove site s))
          (Hashtbl.copy st.sh_pending);
        None
      | Trace.Txn_commit { txn } ->
        if Hashtbl.mem st.sh_shed txn then
          Some (Printf.sprintf "shed transaction %s reported committed" txn)
        else begin
          Hashtbl.remove st.sh_pending txn;
          Hashtbl.remove st.sh_resolved txn;
          None
        end
      | Trace.Txn_abort { txn; _ } ->
        (* A shed transaction's entries must still resolve at every
           repository, so only non-shed aborts are GC'd. *)
        if not (Hashtbl.mem st.sh_shed txn) then begin
          Hashtbl.remove st.sh_pending txn;
          Hashtbl.remove st.sh_resolved txn
        end;
        None
      | _ -> None)
    ~standing:(fun st ->
      Hashtbl.fold
        (fun txn t0 acc ->
          match Hashtbl.find_opt st.sh_pending txn with
          | Some pending when not (IntSet.is_empty pending) ->
            ( t0,
              fun _ ->
                Printf.sprintf
                  "shed transaction %s still holds tentative entries at \
                   site(s) %s on a healed, fully-live network"
                  txn
                  (String.concat ", "
                     (List.map string_of_int (IntSet.elements pending))) )
            :: acc
          | _ -> acc)
        st.sh_shed [])
    ()

(* --- hedge_safety ----------------------------------------------------- *)

(* Hedged quorum rounds re-issue RPCs to spare members and take the first
   satisfying vote set; repositories are idempotent (sticky intentions,
   set-semantics logs, deduplicating vote acceptance), so duplicate or
   late deliveries must never change what anything decides. The
   trace-observable statement: each transaction's verdict is assigned once
   and never flips — the front-end emits exactly one terminal event, and
   every repository that resolves the transaction ([Repo_resolve] fires
   when a store first installs a terminal record, whatever the delivery
   path) resolves it with that same polarity. A duplicate front-end
   verdict is a double-apply; any polarity disagreement — front-end vs
   front-end, store vs store, or store vs front-end — means a hedged or
   straggler delivery re-drove a decision. Holds vacuously (and is
   checked!) with hedging off, which is exactly the point: the monitor
   cannot tell hedged runs from unhedged ones. *)
let hedge_safety =
  SM.keyed ~name:"hedge_safety" ~observes:[ "txn_commit"; "txn_abort"; "repo_resolve" ]
    ~key:(fun e ->
      match e.Trace.kind with
      | Trace.Txn_commit { txn }
      | Trace.Txn_abort { txn; _ }
      | Trace.Repo_resolve { txn; _ } ->
        Some txn
      | _ -> None)
    ~init:(fun _ -> (None, None))
    ~step:(fun ((fe, store) as s) e ->
      let agree verdict = function
        | Some v when v <> verdict -> false
        | _ -> true
      in
      let txn_of () =
        match e.Trace.kind with
        | Trace.Txn_commit { txn }
        | Trace.Txn_abort { txn; _ }
        | Trace.Repo_resolve { txn; _ } ->
          txn
        | _ -> "?"
      in
      let verdict_name v = if v then "commit" else "abort" in
      match e.Trace.kind with
      | Trace.Txn_commit _ | Trace.Txn_abort _ ->
        let v = match e.Trace.kind with Trace.Txn_commit _ -> true | _ -> false in
        (match fe with
         | Some prev when prev = v ->
           SM.Violate
             ( s,
               Printf.sprintf "%s reported %s twice (duplicate terminal verdict)"
                 (txn_of ()) (verdict_name v) )
         | Some prev ->
           SM.Violate
             ( s,
               Printf.sprintf "%s verdict flipped from %s to %s" (txn_of ())
                 (verdict_name prev) (verdict_name v) )
         | None ->
           if agree v store then SM.Continue (Some v, store)
           else
             SM.Violate
               ( s,
                 Printf.sprintf
                   "%s reported %s after a repository resolved it as %s"
                   (txn_of ()) (verdict_name v)
                   (verdict_name (not v)) ))
      | Trace.Repo_resolve { committed; _ } ->
        if agree committed store && agree committed fe then
          SM.Continue (fe, Some committed)
        else
          SM.Violate
            ( s,
              Printf.sprintf
                "site %d resolved %s as %s against an earlier %s verdict"
                e.Trace.site (txn_of ())
                (verdict_name committed)
                (verdict_name (not committed)) )
      | _ -> SM.Continue s)
    ()

(* --- session_monotonic ------------------------------------------------ *)

(* Open-loop plans pin each client session to one home site, so a
   session's commit timestamps all come from that site's Lamport clock —
   which only moves forward (ticks, witnesses and skew all advance it).
   [Session_commit] is emitted at timestamp assignment, so trace order is
   clock-assignment order even when a partition delays one transaction's
   vote drive past a later-stamped sibling's verdict. Observing a session
   commit whose counter is not strictly above the session's previous one
   therefore means a clock ran backwards or a session leaked across
   sites. Closed-loop runs carry no sessions and emit no [Session_commit]
   events, so the monitor is vacuous there. *)
let session_monotonic =
  SM.keyed ~name:"session_monotonic" ~observes:[ "session_commit" ]
    ~key:(fun e ->
      match e.Trace.kind with
      | Trace.Session_commit { session; _ } -> Some (string_of_int session)
      | _ -> None)
    ~init:(fun _ -> (min_int, "-"))
    ~step:(fun ((last, last_txn) as s) e ->
      match e.Trace.kind with
      | Trace.Session_commit { txn; counter; _ } ->
        if counter > last then SM.Continue (counter, txn)
        else
          SM.Violate
            ( s,
              Printf.sprintf
                "commit timestamp went backwards: %s committed at counter %d \
                 after %s at counter %d"
                txn counter last_txn last )
      | _ -> SM.Continue s)
    ()

(* --- registry --------------------------------------------------------- *)

(* An entry's name is its spec's. *)
let entry e_kind e_doc e_spec = { e_name = SM.name e_spec; e_doc; e_kind; e_spec }

let registry =
  [
    entry Safety
      "every object's history satisfies the scheme's local atomicity property"
      (outcome_spec ~name:"commit_atomicity" Runtime.check_atomicity);
    entry Safety "committed transactions serialize in one system-wide order"
      (outcome_spec ~name:"common_order" Runtime.check_common_order);
    entry Safety "no two drivers ever render opposite verdicts for a transaction"
      no_divergence;
    entry Safety
      "assignments satisfy dependency intersection; no commit after a short quorum"
      quorum_intersection;
    entry Safety "nothing is reported committed before a write quorum stored it"
      commit_durability;
    entry Safety "every shed transaction is cleanly aborted everywhere" shed_safety;
    entry Safety
      "verdicts are assigned once and never flip under hedged or duplicate deliveries"
      hedge_safety;
    entry Safety "per-session commit timestamps are strictly increasing"
      session_monotonic;
    entry Liveness "cooperative termination drains every stranded tentative entry"
      stranded_entries;
    entry Liveness "every blocked operation resolves once partitions heal"
      blocked_liveness;
    entry Liveness "every durable commit point reaches a verdict after recovery"
      indoubt_liveness;
  ]

let history =
  List.filter
    (fun e -> List.mem e.e_name [ "commit_atomicity"; "common_order" ])
    registry

let names = List.map (fun e -> e.e_name) registry

let selection_name sel =
  let sel = List.map (fun e -> e.e_name) sel in
  if sel = names then "all" else String.concat "," sel

let find name = List.find_opt (fun e -> String.equal e.e_name name) registry

let of_names spec =
  match String.trim spec with
  | "all" -> Ok registry
  | "safety" -> Ok (List.filter (fun e -> e.e_kind = Safety) registry)
  | "liveness" -> Ok (List.filter (fun e -> e.e_kind = Liveness) registry)
  | spec ->
    let parts =
      String.split_on_char ',' spec |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if parts = [] then Error "empty monitor selection"
    else
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match find p with
          | Some e -> resolve (e :: acc) rest
          | None ->
            Error
              (Printf.sprintf "unknown monitor %S (expected all, safety, liveness, %s)"
                 p
                 (String.concat ", " names)))
      in
      resolve [] parts

let selection_doc =
  Printf.sprintf "all, safety, liveness, or a comma-separated subset of: %s"
    (String.concat ", " names)

let run ?from_id entries ctx trace =
  let all = SM.all ~name:"monitors" (List.map (fun e -> e.e_spec) entries) in
  SM.run ?from_id all ctx trace

let observed_labels entries =
  List.concat_map (fun e -> SM.observed e.e_spec) entries
  |> List.sort_uniq String.compare

let check_run ?(monitors = history) cfg =
  let cfg =
    match observed_labels monitors with
    | _ :: _ as observes when cfg.Runtime.trace = None ->
      {
        cfg with
        Runtime.trace = Some (Trace.create ~observes ~n_sites:cfg.Runtime.n_sites ());
      }
    | _ -> cfg
  in
  let trace = Option.value cfg.Runtime.trace ~default:Trace.null in
  let from_id = Trace.length trace in
  let outcome = Runtime.run cfg in
  let judge () = run ~from_id monitors { cfg; outcome } trace in
  let violations =
    if Profile.enabled cfg.Runtime.profile then
      Profile.with_current cfg.Runtime.profile judge
    else judge ()
  in
  (outcome, SM.failures violations)
