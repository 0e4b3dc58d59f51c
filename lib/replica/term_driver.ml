(* The termination driver: the single Running/Committing -> terminal
   transition every started transaction goes through ([finalize]), the
   Precommit vote drives, participant-driven cooperative termination with
   takeover leases, blocker resolution, recovery redrive and the orphan
   reaper, plus the live stranded gauge (DESIGN §3e–§3f). *)

open Atomrep_history
open Atomrep_clock
open Atomrep_sim
open Atomrep_txn
open Runtime_config
open Run_state

type t = {
  st : Run_state.t;
  log : Termination.t option; (* decision logs, modes <> Disabled *)
  (* Actions with a cooperative-termination round in flight — dedups
     concurrent participants piling onto the same stuck blocker. *)
  in_termination : (Action.t, unit) Hashtbl.t;
  (* (blocker, polling site) pairs whose status was already re-broadcast
     from try_resolve: later polls from the same site suppress the
     duplicate push and count it instead (the reaper still repairs any
     repository the one broadcast missed). *)
  rebroadcasted : (Action.t, int list) Hashtbl.t;
  (* Highest takeover term seen per action — the next bid must exceed it. *)
  takeover_terms : (Action.t, int) Hashtbl.t;
  (* Transactions currently counted in the live stranded gauge; the guard
     that makes adoption and orphan GC unable to double-decrement. *)
  counted_stranded : (Action.t, unit) Hashtbl.t;
  mutable n_stranded_live : int;
  (* Terminal transactions with a tentative entry at the reaper's last
     sweep. *)
  mutable lingering : (Action.t, unit) Hashtbl.t;
  mutable n_decided : int; (* entries of [st.txns] with a verdict *)
}

let create st =
  {
    st;
    log =
      (if Termination.enabled st.cfg.termination then
         Some (Termination.create ~n_sites:st.cfg.n_sites ())
       else None);
    in_termination = Hashtbl.create 16;
    rebroadcasted = Hashtbl.create 16;
    takeover_terms = Hashtbl.create 16;
    counted_stranded = Hashtbl.create 16;
    n_stranded_live = 0;
    lingering = Hashtbl.create 16;
    n_decided = 0;
  }

(* Under [Takeover], a transaction's own driver — its coordinator, or a
   recovered one redriving — votes at the implicit term 0 so a takeover
   lease holder fences it; every other mode leaves the votes unfenced. *)
let driver_term t =
  match t.st.cfg.termination with
  | Termination.Takeover -> Some 0
  | Termination.Disabled | Termination.Presumed_abort_only | Termination.Cooperative ->
    None

(* Live stranded-transaction gauge. One increment the first time a
   transaction is observed stranded (driver died / coordinator found
   dead), one decrement when it is finalized — the [counted_stranded]
   guard is what keeps adoption and a later orphan-GC sweep of the same
   transaction from double-decrementing. *)
let set_stranded t n =
  t.n_stranded_live <- n;
  Metrics.set t.st.counters.g_stranded_live (float_of_int n)

let mark_stranded t btxn =
  match btxn.Txn.status with
  | Txn.Committed _ | Txn.Aborted _ -> ()
  | Txn.Running | Txn.Committing ->
    let action = btxn.Txn.action in
    if not (Hashtbl.mem t.counted_stranded action) then begin
      Hashtbl.replace t.counted_stranded action ();
      set_stranded t (t.n_stranded_live + 1)
    end

let unmark_stranded t action =
  if Hashtbl.mem t.counted_stranded action then begin
    Hashtbl.remove t.counted_stranded action;
    set_stranded t (t.n_stranded_live - 1)
  end

(* Push a terminal transaction's status records to every repository of
   every object it touched (from [from]): lingering tentative entries at
   any reachable repository resolve, not just the object the caller was
   blocked on. *)
let broadcast_status st btxn ~from =
  let action = btxn.Txn.action in
  List.iter
    (fun name ->
      let record =
        match btxn.Txn.status with
        | Txn.Committed ts -> Some (Log.Commit_record (action, ts))
        | Txn.Aborted _ -> Some (Log.Abort_record action)
        | Txn.Running | Txn.Committing -> None
      in
      Option.iter
        (fun r ->
          Replicated.broadcast_status (find_object st name) r ~reachable_from:from)
        record)
    btxn.Txn.touched

(* The terminal transition. Every verdict on a started transaction lands
   here, from its own driver ([drv] given: the driver's commit without a
   vote drive, the empty commit, every driver abort) or from outside it
   (vote drives, cooperative termination, recovery). The Txn_decide event
   goes out before the idempotence guard, so every contending driver's
   decision reaches the trace and the no-divergence monitor can check
   that no two ever disagreed; the status broadcast goes out even when
   someone else got there first. Side-effect order is part of the
   contract — a driver's commit frees its admission slot before
   broadcasting (the next queued transaction starts, and draws, inside
   this event), a driver's abort after; external finalizers never touch
   the driver's spans, latency or slot. *)
let finalize t btxn ~site ?drv verdict =
  let st = t.st and c = t.st.counters in
  let action = btxn.Txn.action in
  let txn = Action.to_string action in
  let committed = match verdict with `Commit _ -> true | `Abort _ -> false in
  note st ~site (Trace.Txn_decide { txn; site; committed });
  (match btxn.Txn.status with
   | Txn.Committed _ | Txn.Aborted _ -> ()
   | Txn.Running | Txn.Committing ->
     t.n_decided <- t.n_decided + 1;
     Waits_for.clear st.waits action;
     unmark_stranded t action;
     (match verdict with
      | `Commit cts ->
        btxn.Txn.status <- Txn.Committed cts;
        Metrics.incr c.c_committed;
        let now = Engine.now st.engine in
        let arrival = (Hashtbl.find st.drivers action).arrival in
        if now -. arrival <= st.cfg.timely_bound then Metrics.incr c.c_timely;
        Option.iter
          (fun d ->
            Metrics.observe c.c_latency (now -. d.started);
            note_session_commit st d ~site txn cts)
          drv;
        note st ~site (Trace.Txn_commit { txn })
      | `Abort (kind, why) ->
        btxn.Txn.status <- Txn.Aborted why;
        Metrics.incr c.c_aborted;
        Metrics.incr
          (match kind with
           | `Unavailable -> c.c_unavailable
           | `Rejected -> c.c_rejected
           | `Conflict -> c.c_conflict
           | `Deadlock -> c.c_deadlock
           | `Presumed -> c.c_presumed
           | `Coop -> c.c_coop_abort
           | `Shed -> c.c_shed);
        (* A mid-flight shed is an ordinary clean abort plus the Shed
           marker the shed-safety monitor keys on: the abort broadcast
           must resolve its tentative entries at every reachable
           repository. *)
        if kind = `Shed then note st ~site (Trace.Shed { txn; reason = why });
        note st ~site (Trace.Txn_abort { txn; reason = why }));
     Option.iter
       (fun d -> close_spans st d ~site (if committed then "committed" else "aborted"))
       drv;
     List.iter
       (fun name ->
         let entry = if committed then Behavioral.Commit action else Behavioral.Abort action in
         Replicated.observe (find_object st name) entry)
       btxn.Txn.touched;
     if committed then Option.iter (fun d -> d.release ()) drv);
  broadcast_status st btxn ~from:site;
  if not committed then Option.iter (fun d -> d.release ()) drv

(* Close the site's decision-log intent for a driven verdict. *)
let log_verdict t ~site action verdict =
  match (t.log, verdict) with
  | Some log, (`Committed | `Aborted) ->
    Termination.log_outcome log ~site ~action ~committed:(verdict = `Committed)
  | _ -> ()

(* Place one vote round at [obj]'s repositories. A repository holding a
   newer takeover lease than [term] fences the round: counted, traced,
   and handed to [fenced] instead of [k] — the lease holder owns the
   drive now. *)
let vote ?term t obj record btxn ~from ~fenced k =
  Replicated.place_vote ?term obj record ~from ~k:(fun evs ->
      match
        List.find_map
          (function Repository.E_fenced granted -> Some granted | _ -> None)
          evs
      with
      | Some granted ->
        Metrics.incr t.st.counters.c_takeover_fenced;
        note t.st ~site:from
          (Trace.Takeover_fence
             {
               txn = Action.to_string btxn.Txn.action;
               site = from;
               term = Option.value term ~default:0;
               granted;
             });
        fenced ()
      | None -> k evs)

let count_votes p evs = List.length (List.filter p evs)

let certified_abort evs =
  List.exists (function Repository.E_aborted -> true | _ -> false) evs

(* Drive Precommit vote rounds for [btxn] at timestamp [cts] across every
   object it touched, from site [from]. Commit certifies only when EVERY
   object yields a full vote quorum (>= vote_need) — counting evidence on
   one object alone could commit object A while object B certifies abort.
   [k] gets `Committed, `Aborted (certified abort evidence surfaced),
   `Fenced (some repository holds a newer takeover lease than [term]), or
   `Inconclusive (some quorum unreachable; the decision stays open). *)
let drive_commit_votes ?term t btxn cts ~from ~k =
  let action = btxn.Txn.action in
  let yes = function
    | Repository.E_committed _ -> true
    | Repository.E_precommit ts -> Lamport.Timestamp.compare ts cts = 0
    | _ -> false
  in
  let rec round = function
    | [] ->
      finalize t btxn ~site:from (`Commit cts);
      k `Committed
    | name :: more ->
      let obj = find_object t.st name in
      vote ?term t obj (Log.Precommit (action, cts)) btxn ~from
        ~fenced:(fun () -> k `Fenced)
        (fun evs ->
          if certified_abort evs then begin
            finalize t btxn ~site:from (`Abort (`Coop, "termination abort"));
            k `Aborted
          end
          else if count_votes yes evs >= Replicated.vote_need obj then round more
          else k `Inconclusive)
  in
  round btxn.Txn.touched

(* Participant-driven cooperative termination for a stuck blocker.
   Poll the blocked object's repositories; adopt any certified decision;
   otherwise (Cooperative mode) either complete a commit the evidence
   shows was underway, or run a Preabort round: n - f + 1 sticky abort
   votes on ONE object guarantee no commit quorum of f can ever assemble
   there (the vote sets intersect), so installing the abort record is
   safe — presumed abort with a quorum proof.

   Under [Takeover], the active branch first wins a takeover lease at
   the blocked object's repositories (a monotone term granted by
   [lease_need] members — enough to intersect every commit AND abort
   vote set), stamps its votes with the term so stale drivers fence, and
   force-writes an adopted commit to its own durable decision log before
   driving, so a crash of the taker leaves the adoption re-drivable. *)
let cooperative_terminate t btxn target ~from =
  let st = t.st in
  let action = btxn.Txn.action in
  if not (Hashtbl.mem t.in_termination action) then begin
    Hashtbl.replace t.in_termination action ();
    mark_stranded t btxn;
    let obj = find_object st target in
    let finish outcome =
      Hashtbl.remove t.in_termination action;
      note st ~site:from
        (Trace.Coop_term { txn = Action.to_string action; outcome })
    in
    (* Under takeover a terminator is a real contender that can die
       between its rounds: re-check liveness before starting the next
       phase, so a dead taker's round ends (releasing the in-flight
       dedup for the next contender) instead of continuing as a ghost.
       Replies already in flight still land — messages sent are sent.
       [Cooperative] terminators never re-check. *)
    let alive k = if Network.site_up st.net from then k () else finish "taker-died" in
    let adopt_certified evs k =
      match List.find_map (function Repository.E_committed ts -> Some ts | _ -> None) evs with
      | Some cts ->
        finalize t btxn ~site:from (`Commit cts);
        finish "adopted-commit"
      | None ->
        if certified_abort evs then begin
          finalize t btxn ~site:from (`Abort (`Coop, "termination abort"));
          finish "adopted-abort"
        end
        else k ()
    in
    let preabort_round ?term () =
      vote ?term t obj (Log.Preabort action) btxn ~from
        ~fenced:(fun () -> finish "fenced")
        (fun evs ->
          adopt_certified evs (fun () ->
              let no = function
                | Repository.E_aborted | Repository.E_preabort -> true
                | _ -> false
              in
              if count_votes no evs >= Replicated.veto_need obj then begin
                finalize t btxn ~site:from (`Abort (`Coop, "presumed abort"));
                finish "presumed-abort"
              end
              else finish "inconclusive"))
    in
    let drive_adopted ?term cts =
      drive_commit_votes ?term t btxn cts ~from ~k:(fun verdict ->
          (* An adoption under a lease is decided and certified: make the
             outcome durable at the taker too, closing its intent. *)
          if term <> None then log_verdict t ~site:from action verdict;
          match verdict with
          | `Committed ->
            Metrics.incr st.counters.c_coop_commit;
            if term <> None then begin
              Metrics.incr st.counters.c_takeover_adopt;
              finish "takeover-commit"
            end
            else finish "coop-commit"
          | `Aborted -> finish "adopted-abort"
          | `Fenced -> finish "fenced"
          | `Inconclusive -> finish "inconclusive")
    in
    let precommit =
      List.find_map (function Repository.E_precommit ts -> Some ts | _ -> None)
    in
    Replicated.poll_status obj action ~from ~k:(fun evs ->
        adopt_certified evs (fun () ->
            match st.cfg.termination with
            | Termination.Disabled | Termination.Presumed_abort_only ->
              (* Passive: without certified evidence the participant keeps
                 waiting for the coordinator (textbook presumed-abort
                 blocking). *)
              finish "inconclusive"
            | Termination.Cooperative -> (
              match precommit evs with
              | Some cts ->
                (* The coordinator reached its commit point: act as a
                   substitute coordinator and complete the commit. *)
                drive_adopted cts
              | None -> preabort_round ())
            | Termination.Takeover ->
              alive (fun () ->
                  (* Bid for the takeover lease before driving either
                     side. The bid announces itself to the fault layer
                     (the takeover killer ambushes here). *)
                  Network.note_takeover st.net ~site:from;
                  let propose =
                    1
                    + Option.value ~default:0
                        (Hashtbl.find_opt t.takeover_terms action)
                  in
                  Replicated.takeover_acquire obj action ~term:propose
                    ~holder:from ~from ~k:(fun ~granted ~highest ->
                      Hashtbl.replace t.takeover_terms action
                        (max highest propose);
                      alive (fun () ->
                          if granted < Replicated.lease_need obj then begin
                            Metrics.incr st.counters.c_takeover_contended;
                            finish "lease-refused"
                          end
                          else begin
                            Metrics.incr st.counters.c_takeover_lease;
                            note st ~site:from
                              (Trace.Takeover_acquire
                                 {
                                   txn = Action.to_string action;
                                   site = from;
                                   term = propose;
                                 });
                            match precommit evs with
                            | Some cts ->
                              (* Force-write the adopted decision to the
                                 taker's own durable decision log first:
                                 if the taker crashes mid-drive, its
                                 recovery re-drives the adoption like
                                 any in-doubt intent of its own. *)
                              let logged =
                                match t.log with
                                | Some log ->
                                  Termination.log_intent log ~site:from
                                    ~action ~touched:btxn.Txn.touched ~cts
                                | None -> false
                              in
                              if logged then
                                drive_adopted ~term:propose cts
                              else finish "adoption-log-full"
                            | None -> preabort_round ~term:propose ()
                          end)))))
  end

(* A blocked operation consults the blocking transaction's coordinator when
   reachable; a finished transaction's status records are re-broadcast so
   lingering tentative entries resolve on every reachable repository of
   every touched object. When the coordinator is unreachable, the
   termination protocol (if enabled) takes over instead of the historical
   silent give-up. *)
let try_resolve t ~home blocker target =
  let st = t.st in
  match Hashtbl.find_opt st.txns blocker with
  | None -> ()
  | Some btxn ->
    let coord = btxn.Txn.home_site in
    if Network.reachable st.net home coord then begin
      match btxn.Txn.status with
      | Txn.Committed _ | Txn.Aborted _ ->
        (* Idempotence guard: one status re-broadcast per (blocker,
           polling site). A blocked operation's retry loop polls here on
           every backoff; without the guard each poll re-pushed the same
           records to every repository. Suppressed duplicates are counted;
           a repository the one broadcast missed (crashed, partitioned) is
           repaired by the orphan reaper, whose re-pushes stay
           unconditional. *)
        let sites =
          Option.value ~default:[] (Hashtbl.find_opt t.rebroadcasted blocker)
        in
        if List.mem home sites then
          Metrics.incr st.counters.c_rebroadcast_suppressed
        else begin
          Hashtbl.replace t.rebroadcasted blocker (home :: sites);
          broadcast_status st btxn ~from:coord
        end
      | Txn.Running | Txn.Committing -> ()
    end
    else if Termination.enabled st.cfg.termination then
      cooperative_terminate t btxn target ~from:home

let redrive_outcome = function
  | `Committed -> "committed"
  | `Aborted -> "aborted"
  | `Fenced -> "fenced"
  | `Inconclusive -> "in-doubt"

(* Recovery redrive: a recovered coordinator replays its decision log and
   re-drives every in-doubt intent to a verdict; transactions homed at
   the site that never reached the commit point cannot have committed
   (the intent is durable-first), so they are presumed aborted. Sorted
   iteration keeps the broadcast order — and hence the draw order —
   independent of hash-table layout. *)
let redrive t log site =
  let st = t.st in
  let in_doubt = Termination.recover log ~site in
  List.iter
    (fun (action, _touched, cts) ->
      match Hashtbl.find_opt st.txns action with
      | None -> ()
      | Some btxn -> (
        Metrics.incr st.counters.c_redrive;
        let redriven ~rebroadcast verdict =
          log_verdict t ~site action verdict;
          if rebroadcast then broadcast_status st btxn ~from:site;
          note st ~site
            (Trace.Txn_redrive
               { txn = Action.to_string action; outcome = redrive_outcome verdict })
        in
        match btxn.Txn.status with
        | Txn.Committed _ -> redriven ~rebroadcast:true `Committed
        | Txn.Aborted _ -> redriven ~rebroadcast:true `Aborted
        | Txn.Running | Txn.Committing ->
          drive_commit_votes ?term:(driver_term t) t btxn cts ~from:site
            ~k:(redriven ~rebroadcast:false)))
    in_doubt;
  let no_intent a =
    not (List.exists (fun (a', _, _) -> Action.equal a a') in_doubt)
  in
  Hashtbl.fold
    (fun a btxn acc ->
      match btxn.Txn.status with
      | (Txn.Running | Txn.Committing)
        when btxn.Txn.home_site = site && no_intent a ->
        (a, btxn) :: acc
      | _ -> acc)
    st.txns []
  |> List.sort (fun (a, _) (b, _) -> Action.compare a b)
  |> List.iter (fun (_, btxn) ->
         btxn.Txn.stranded <- true;
         finalize t btxn ~site (`Abort (`Presumed, "presumed abort")))

(* Orphan-reaper sweep period (sim ms). *)
let reaper_every = 250.0

(* How long a live coordinator may keep a transaction in its commit
   window before the reaper adopts it (sim ms): two ladders (prepare
   probes, then vote drives) of [1 + commit_quorum_retries] rounds, each
   an RPC timeout plus the backoff cap. A probe waits one timeout per
   object with its own backoffs, a vote drive one timeout per object, and
   the backoffs stay under 37.5 and 75 ms, so a transaction touching k
   objects leaves the window within 412.5k + 112.5 ms: the bound covers
   k <= 6. *)
let commit_window =
  2.0 *. float_of_int (commit_quorum_retries + 1)
  *. (Replicated.rpc_timeout +. retry_delay_cap)

(* Orphan reaper ([Cooperative] and [Takeover]): periodically sweep every
   repository for tentative entries. A terminal transaction whose entry
   was already tentative at the previous sweep gets its status records
   re-pushed: a sweep period outlasts any commit or abort broadcast in
   flight, so only an entry the broadcast missed (a crashed or
   partitioned repository) is repaired. A non-terminal transaction gets a
   cooperative-termination round when its coordinator is gone (stranded,
   down or unreachable from the sweeping site), or when it has sat in the
   commit window longer than [commit_window] (its coordinator left it
   in doubt). A healthy coordinator's transactions are never adopted, so
   the reaper stays inert when nothing fails. Draws nothing when there is
   nothing to do. *)
let rec reap t =
  let st = t.st in
  Engine.schedule st.engine ~delay:reaper_every (fun () ->
      (match List.find_opt (Network.site_up st.net) (List.init st.cfg.n_sites Fun.id) with
       | None -> ()
       | Some origin ->
         let seen = Hashtbl.create 16 in
         fold_tentative st
           (fun name () (e : Log.entry) ->
             if not (Hashtbl.mem seen e.Log.action) then
               Hashtbl.replace seen e.Log.action name)
           ();
         let resolved = ref 0 in
         let terminal = Hashtbl.create 16 in
         let coordinator_lost btxn =
           btxn.Txn.stranded || not (Network.reachable st.net origin btxn.Txn.home_site)
         in
         Hashtbl.fold (fun a name acc -> (a, name) :: acc) seen []
         |> List.sort (fun (a, _) (b, _) -> Action.compare a b)
         |> List.iter (fun (a, target) ->
                match Hashtbl.find_opt st.txns a with
                | None -> ()
                | Some btxn -> (
                  match btxn.Txn.status with
                  | Txn.Committed _ | Txn.Aborted _ ->
                    Hashtbl.replace terminal a ();
                    if Hashtbl.mem t.lingering a then begin
                      incr resolved;
                      Metrics.incr st.counters.c_orphans;
                      broadcast_status st btxn ~from:origin
                    end
                  | Txn.Committing ->
                    if
                      coordinator_lost btxn
                      || Engine.now st.engine -. (Hashtbl.find st.drivers a).commit_at
                         > commit_window
                    then cooperative_terminate t btxn target ~from:origin
                  | Txn.Running ->
                    if coordinator_lost btxn then
                      cooperative_terminate t btxn target ~from:origin));
         t.lingering <- terminal;
         if !resolved > 0 then
           note st ~site:origin
             (Trace.Orphan_gc { site = origin; resolved = !resolved }));
      reap t)

(* Arm recovery redrive (any termination mode) and the orphan reaper
   ([Cooperative] and [Takeover]). *)
let install t =
  Option.iter (fun log -> Network.on_recover t.st.net (redrive t log)) t.log;
  if Termination.cooperative t.st.cfg.termination then reap t

(* Work left: an enabled protocol owes a started transaction a verdict, or
   a tentative entry awaits the reaper. *)
let has_work t =
  let mode = t.st.cfg.termination in
  Termination.enabled mode
  && (Hashtbl.length t.st.txns > t.n_decided
     || (Termination.cooperative mode && fold_tentative t.st (fun _ _ _ -> true) false))
