open Atomrep_history
open Atomrep_spec
open Atomrep_clock
open Atomrep_quorum
open Atomrep_sim
open Atomrep_cc
open Atomrep_txn
module Trace = Atomrep_obs.Trace
module Wal = Atomrep_store.Wal

type scheme = Hybrid | Static | Locking

let scheme_name = function
  | Hybrid -> "hybrid"
  | Static -> "static"
  | Locking -> "locking"

let scheme_of_name = function
  | "hybrid" -> Ok Hybrid
  | "static" -> Ok Static
  | "locking" -> Ok Locking
  | other -> Error (Printf.sprintf "unknown scheme %S (hybrid|static|locking)" other)

let property_of_scheme = function
  | Hybrid -> Atomrep_atomicity.Atomicity.Hybrid
  | Static -> Atomrep_atomicity.Atomicity.Static
  | Locking -> Atomrep_atomicity.Atomicity.Dynamic

type op_result =
  | Done of Event.Response.t
  | Blocked_on of Action.t
  | Unavailable of string
  | Rejected of string

(* Gray-failure mitigation hooks, installed by the runtime when hedging or
   slow-site demotion is on. [g_route] picks each quorum round's primary
   destinations (a floor-respecting subset of the epoch members, steering
   away from slow-suspected sites) and the hedging policy whose spares are
   the members routed out; [g_early] turns on early-quorum gathers;
   [g_on_late] counts straggler replies for the dedup metrics. *)
type gray = {
  g_route : op:string -> floor:int -> members:int list -> int list * Rpc.hedge option;
  g_early : bool;
  g_on_late : (dst:int -> ok:bool -> unit) option;
}

(* Every quorum RPC's timeout, in ms: reads, writes and commit probes. *)
let rpc_timeout = 50.0

type t = {
  name : string;
  spec : Serial_spec.t;
  scheme : scheme;
  table : Conflict_table.t;
  constraints : Op_constraint.t list;
  mutable current : Epoch.t; (* the configuration quorum traffic targets *)
  net : Network.t;
  repos : Repository.t array;
  own : (Action.t, Log.entry list) Hashtbl.t; (* per-action entry cache *)
  views : View.cache;
  mutable observer : Behavioral.entry list; (* reversed *)
  mutable commit_piggyback : bool;
  mutable gray : gray option;
  recoveries : Repository.recovery list ref; (* reversed *)
}

(* The conflict table is where the schemes genuinely differ (paper, §5):
   hybrid and static lock on the dependency relation — Enq need not
   conflict with Enq because timestamp order resolves them — while a
   locking scheme serializes in commit order and so must conflict every
   non-commuting pair (the dynamic dependency relation, Theorem 10).
   Locking on the weaker dependency table admits concurrent Enqs whose
   commit order can contradict the timestamp order later Deqs answer
   from, which is exactly a dynamic-atomicity violation. *)
let scheme_relation scheme spec =
  match scheme with
  | Locking -> Atomrep_core.Dynamic_dep.minimal spec ~max_len:4
  | Hybrid | Static -> Atomrep_core.Static_dep.minimal spec ~max_len:4

let conflict_table spec scheme relation =
  Conflict_table.of_relation
    (match scheme with
     | Hybrid | Static -> Lazy.force relation
     | Locking -> scheme_relation Locking spec)

let create ~name ~spec ~scheme ~relation ~assignment ~net ?members
    ?(durability = Repository.Volatile) () =
  let repos =
    Array.init (Network.n_sites net) (fun site ->
        Repository.create ~durability ~site ())
  in
  let recoveries = ref [] in
  (* Crash-with-amnesia loses a repository's volatile state; the rejoin
     protocol restores what reachable peers still hold before the site
     serves again (state transfer is modeled as instantaneous at
     recovery). *)
  Network.on_amnesia net (fun site -> Repository.amnesia repos.(site));
  Network.on_rejoin net (fun site ->
      (* A durable repository first replays its WAL: the flushed prefix
         (truncated at the first torn or corrupt record) comes back from
         local storage, and only the lost suffix needs the peers. The
         resync quorum gating this rejoin is what makes a detected-corrupt
         or truncated log safe to serve again. *)
      (match Repository.recover repos.(site) with
       | Some r ->
         recoveries := r :: !recoveries;
         let trc = Network.trace net in
         if Trace.enabled trc then
           ignore
             (Trace.emit trc ~site
                (Trace.Wal_replay
                   {
                     site;
                     replayed = r.Repository.r_replayed;
                     truncated = r.Repository.r_truncated;
                     corrupt = r.Repository.r_corrupt;
                   }))
       | None -> ());
      for peer = 0 to Network.n_sites net - 1 do
        if peer <> site && Network.reachable net site peer then
          Repository.ingest repos.(site) (Repository.read repos.(peer))
      done);
  (* Storage faults travel through the network (like amnesia) and land on
     the per-site WAL; volatile repositories have nothing to corrupt. *)
  Network.on_storage_fault net (fun site fault ->
      match Repository.store repos.(site) with
      | Some wal -> Wal.inject wal fault
      | None -> ());
  Array.iter
    (fun repo ->
      let site = Repository.site repo in
      Repository.set_storage_hook repo (fun sn ->
          let trc = Network.trace net in
          if Trace.enabled trc then
            ignore
              (Trace.emit trc ~site
                 (match sn with
                  | Repository.Flushed n -> Trace.Wal_flush { site; records = n }
                  | Repository.Flush_rejected -> Trace.Wal_full { site }
                  | Repository.Checkpointed { kept; dropped_segments } ->
                    Trace.Wal_checkpoint { site; kept; dropped_segments })));
      (* A newly installed commit/abort record resolves every tentative
         entry the repository holds for that action — the shed-safety
         monitor folds these to check shed transactions are cleanly
         aborted everywhere. *)
      Repository.set_resolve_hook repo (fun action ~committed ->
          let trc = Network.trace net in
          if Trace.enabled trc then
            ignore
              (Trace.emit trc ~site
                 (Trace.Repo_resolve { txn = Action.to_string action; committed }))))
    repos;
  let table = conflict_table spec scheme (lazy relation) in
  {
    name;
    spec;
    scheme;
    table;
    constraints = Op_constraint.of_relation relation;
    current = Epoch.bootstrap ~n_sites:(Network.n_sites net) ?members assignment;
    net;
    repos;
    own = Hashtbl.create 64;
    views = View.cache spec;
    observer = [];
    commit_piggyback = true;
    gray = None;
    recoveries;
  }

let set_commit_piggyback t v = t.commit_piggyback <- v
let set_gray t g = t.gray <- g

let name t = t.name
let current_epoch t = t.current
let assignment t = Epoch.assignment t.current
let constraints t = t.constraints
let ops t = List.map fst (assignment t).Assignment.ops
let history t = List.rev t.observer
let observe t entry = t.observer <- entry :: t.observer

let max_final t =
  List.fold_left
    (fun acc (_, s) -> max acc s.Assignment.final)
    0 (assignment t).Assignment.ops

let own_entries t action =
  Option.value (Hashtbl.find_opt t.own action) ~default:[]

let replay spec state events =
  List.fold_left
    (fun state ev ->
      match state with
      | None -> None
      | Some s -> Serial_spec.apply_event spec s ev)
    state events

let decide ~spec ~scheme ~table ~action ~begin_ts ~own view inv =
  (* The caller's own entries are authoritative, not the view's copies: a
     front-end's initial quorum need not intersect the action's own final
     quorums. Every view query leaves the action's entries out. *)
  let own_events =
    List.sort (fun e1 e2 -> Int.compare e1.Log.seq e2.Log.seq) own
    |> List.map (fun e -> e.Log.event)
  in
  let related e =
    (not (Action.equal e.Log.action action))
    && Conflict_table.related table inv e.Log.event
  in
  match scheme with
  | Hybrid | Locking ->
    (* Both lock-style schemes: block on related tentative entries, then
       choose a response against committed (commit-timestamp order) plus
       own events. They differ only in the conflict table installed. *)
    (match View.find_tentative view related with
     | Some e -> Error (Blocked_on e.Log.action)
     | None ->
       (match replay spec (View.commit_state view ~exclude:action) own_events with
        | None -> Error (Rejected "view reconstruction failed")
        | Some state ->
          (match Serial_spec.responses spec state inv with
           | [] -> Error (Rejected "no legal response")
           | (res, _) :: _ -> Ok res)))
  | Static ->
    let earlier e = Lamport.Timestamp.compare e.Log.begin_ts begin_ts < 0 in
    (* Block on related tentative entries of earlier-timestamped actions. *)
    (match View.find_tentative view (fun e -> earlier e && related e) with
     | Some e -> Error (Blocked_on e.Log.action)
     | None ->
       (* In the static order my events follow every earlier-timestamped
          action's and precede every later one's. The response comes from
          the committed entries before me plus my own events. *)
       let timeline_to_me tentative =
         replay spec
           (View.static_state view ~exclude:action ~before:begin_ts ~tentative)
           own_events
       in
       (match timeline_to_me (fun _ -> false) with
        | None -> Error (Rejected "inconsistent timeline")
        | Some state ->
          (* On-line static atomicity: the Begin-order timeline must stay
             legal whichever of the other active actions go on to commit.
             A candidate is viable iff, for every subset of them, the
             committed entries plus that subset's tentative ones, with my
             events and the candidate at my position, replay legally. The
             subset of all of them comes first: it is the likeliest to
             refuse. *)
          let others =
            View.tentative view
            |> List.filter_map (fun e ->
                   if Action.equal e.Log.action action then None else Some e.Log.action)
            |> List.sort_uniq Action.compare
          in
          let rec subsets = function
            | [] -> Seq.return []
            | a :: rest -> Seq.flat_map (fun s -> List.to_seq [ a :: s; s ]) (subsets rest)
          in
          let timelines =
            Seq.memoize
              (Seq.map
                 (fun kept ->
                   let tentative a = List.exists (Action.equal a) kept in
                   ( timeline_to_me tentative,
                     View.static_later view ~exclude:action ~from:begin_ts ~tentative ))
                 (subsets others))
          in
          let viable (res, _) =
            Seq.for_all
              (fun (at_me, later) ->
                Option.is_some (replay spec at_me (Event.make inv res :: later)))
              timelines
          in
          (match List.find_opt viable (Serial_spec.responses spec state inv) with
           | None -> Error (Rejected "timestamp order violation")
           | Some (res, _) -> Ok res)))

type read_reply = Busy of Action.t | Logs of Log.t | Stale_epoch of int

let note t ~site ?cause kind =
  let trc = Network.trace t.net in
  if Trace.enabled trc then ignore (Trace.emit trc ~site ?cause kind)

let execute t ~txn ~clock ?(span = -1) inv ~k =
  (* Pin the configuration for the whole operation: a reconfiguration that
     lands mid-flight must not split one quorum access across two epochs.
     Stale-stamped traffic is refused by advanced repositories, so a pinned
     operation that straddles a switch fails cleanly and retries under the
     new epoch. *)
  let epoch = Epoch.number t.current in
  let members = Epoch.members t.current in
  let sizes = Assignment.sizes_of (Epoch.assignment t.current) inv.Event.Invocation.op in
  (* The quorum-choice floor: a round's primary destinations must keep at
     least max(initial, final) members so both phases can still assemble
     their quorums from primaries alone — demotion narrows the vote set, it
     never shrinks a quorum. *)
  let floor = max sizes.Assignment.initial sizes.Assignment.final in
  let dsts, hedge, early, on_late =
    match t.gray with
    | None -> (members, None, false, None)
    | Some g ->
      let dsts, hedge = g.g_route ~op:inv.Event.Invocation.op ~floor ~members in
      (dsts, hedge, g.g_early, g.g_on_late)
  in
  let src = txn.Txn.home_site in
  let action = txn.Txn.action in
  let seq = List.length (own_entries t action) in
  let trc = Network.trace t.net in
  let opname = inv.Event.Invocation.op in
  let txname = Action.to_string action in
  let ospan =
    if Trace.enabled trc then
      Trace.span_begin trc ~site:src ~parent:span ("op:" ^ opname)
    else -1
  in
  let k result =
    Trace.span_end trc ~site:src ~span:ospan
      ~outcome:
        (match result with
         | Done _ -> "done"
         | Blocked_on _ -> "blocked"
         | Unavailable _ -> "unavailable"
         | Rejected _ -> "rejected");
    k result
  in
  (* Back-off path: withdraw this operation's intentions so concurrent
     conflicting operations are not deadlocked by a blocked or failed
     attempt. Releases go to every member, not just the round's primaries:
     a hedged request may have planted an intention at a spare.

     A release must chase its intend, never race it: an early-quorum
     gather runs while laggards' view requests are still in flight, and
     simulated links reorder, so a release broadcast at gather time could
     land before the intend it withdraws — the intend would then install
     a lock nobody ever clears, wedging every later related operation.
     Sites whose view call has settled (replied or timed out) are released
     immediately; a site still in flight is owed its release and gets it
     the moment its call settles. Without early-quorum the gather only
     runs once every call has settled, so this is exactly the historical
     immediate broadcast. *)
  let view_in_flight = Array.make (Array.length t.repos) 0 in
  let release_owed = Array.make (Array.length t.repos) false in
  let release_site site =
    Network.send t.net ~src ~dst:site (fun () ->
        Repository.release t.repos.(site) action seq)
  in
  let view_issued ~dst = view_in_flight.(dst) <- view_in_flight.(dst) + 1 in
  let view_settled ~dst =
    (* A hedged site settles once per issued call — counter, not flag. *)
    view_in_flight.(dst) <- view_in_flight.(dst) - 1;
    if view_in_flight.(dst) = 0 && release_owed.(dst) then begin
      release_owed.(dst) <- false;
      release_site dst
    end
  in
  let release_and_return result =
    List.iter
      (fun site ->
        if view_in_flight.(site) > 0 then release_owed.(site) <- true
        else release_site site)
      members;
    k result
  in
  (* Early-quorum satisfaction for the view phase: fire the moment [floor]
     repositories granted (any two related operations' grant sets of that
     size meet at a repository whose sticky intention refuses the later
     arrival, so mutual exclusion is what it was under all-or-timeout), or
     the moment any repository answered Busy or Stale — both verdicts
     already doom the round, and aborting it early is conservative. *)
  let enough_view replies =
    let rec go grants = function
      | [] -> grants >= floor
      | (_, (Busy _ | Stale_epoch _)) :: _ -> true
      | (_, Logs _) :: rest -> go (grants + 1) rest
    in
    go 0 replies
  in
  let enough_view = if early then Some enough_view else None in
  let with_view k_view =
    if sizes.Assignment.initial = 0 then k_view (View.gather t.views [])
    else
      Rpc.multicast ?enough:enough_view ?hedge ?on_late ~on_issue:view_issued
        ~on_settle:view_settled t.net ~src ~dsts ~timeout:rpc_timeout
        ~handler:(fun site ->
          let repo = t.repos.(site) in
          if epoch < Repository.epoch repo then Stale_epoch (Repository.epoch repo)
          else begin
            Repository.advance_epoch repo epoch;
            Lamport.witness clock (Repository.high_ts repo);
            (* The read doubles as lock acquisition: a foreign unresolved
               intention on a related operation refuses this read; quorum
               intersection makes any two related operations meet at some
               repository. *)
            let conflicting =
              List.find_opt
                (fun (i : Repository.intention) ->
                  (not (Action.equal i.i_action action))
                  && Conflict_table.related_ops t.table inv.Event.Invocation.op i.i_op)
                (Repository.intentions repo)
            in
            match conflicting with
            | Some i -> Busy i.i_action
            | None ->
              Repository.intend repo
                {
                  Repository.i_action = action;
                  i_op = inv.Event.Invocation.op;
                  i_bts = txn.Txn.begin_ts;
                  i_seq = seq;
                };
              Logs (Repository.read repo)
          end)
        ~gather:(fun replies ->
          let stale =
            List.find_map
              (fun (_, r) -> match r with Stale_epoch e -> Some e | _ -> None)
              replies
          in
          match stale with
          | Some e ->
            note t ~site:src (Trace.Epoch_fence { epoch = e; stale = epoch });
            release_and_return
              (Unavailable
                 (Printf.sprintf "stale epoch: %d superseded by %d" epoch e))
          | None ->
            (match
               List.find_map
                 (fun (_, r) -> match r with Busy b -> Some b | _ -> None)
                 replies
             with
             | Some blocker ->
               note t ~site:src
                 (Trace.Lock_wait
                    { txn = txname; blocker = Action.to_string blocker });
               release_and_return (Blocked_on blocker)
             | None ->
               let logs =
                 List.filter_map
                   (fun (site, r) -> match r with Logs l -> Some (site, l) | _ -> None)
                   replies
               in
               note t ~site:src
                 (Trace.Quorum_read
                    {
                      txn = txname;
                      op = opname;
                      got = List.length logs;
                      need = sizes.Assignment.initial;
                    });
               if List.length logs < sizes.Assignment.initial then
                 release_and_return
                   (Unavailable
                      (Printf.sprintf "initial quorum: %d of %d sites for %s"
                         (List.length logs) sizes.Assignment.initial
                         inv.Event.Invocation.op))
               else k_view (View.gather t.views logs)))
  in
  (* The new entry's timestamp exceeds everything in the view with no pass
     over it: each replying handler witnessed its repository's high
     watermark, which bounds every timestamp in the log it returned. *)
  with_view (fun view ->
      match
        decide ~spec:t.spec ~scheme:t.scheme ~table:t.table ~action
          ~begin_ts:txn.Txn.begin_ts ~own:(own_entries t action) view inv
      with
      | Error result -> release_and_return result
      | Ok res ->
        note t ~site:src (Trace.Lock_grant { txn = txname; op = opname });
        let own = own_entries t action in
        let entry =
          {
            Log.ets = Lamport.tick clock;
            action;
            begin_ts = txn.Txn.begin_ts;
            seq;
            event = Event.make inv res;
          }
        in
        if sizes.Assignment.final = 0 then begin
          (* Nothing depends on this event: record locally only. *)
          Hashtbl.replace t.own action (own @ [ entry ]);
          observe t (Behavioral.Exec (entry.Log.event, action));
          release_and_return (Done res)
        end
        else begin
          (* Early-quorum satisfaction for the append phase: a final
             quorum of acks is all the round needs. *)
          let enough_append replies =
            List.length (List.filter snd replies) >= sizes.Assignment.final
          in
          let enough_append = if early then Some enough_append else None in
          Rpc.multicast ?enough:enough_append ?hedge ?on_late t.net ~src ~dsts
            ~timeout:rpc_timeout
            ~handler:(fun site ->
              let repo = t.repos.(site) in
              if epoch < Repository.epoch repo then false
              else begin
                Repository.advance_epoch repo epoch;
                (* Entry arrival converts this operation's intention into a
                   logged tentative entry at the repository. *)
                Repository.append repo [ Log.Entry entry ];
                note t ~site
                  (Trace.Repo_append
                     { txn = txname; op = opname; tentative = true });
                true
              end)
            ~gather:(fun replies ->
              let acks = List.filter snd replies in
              note t ~site:src
                (Trace.Quorum_append
                   {
                     txn = txname;
                     op = opname;
                     got = List.length acks;
                     need = sizes.Assignment.final;
                   });
              if List.length acks < sizes.Assignment.final then
                release_and_return
                  (Unavailable
                     (Printf.sprintf "final quorum: %d of %d sites for %s"
                        (List.length acks) sizes.Assignment.final
                        inv.Event.Invocation.op))
              else begin
                Hashtbl.replace t.own action (own @ [ entry ]);
                observe t (Behavioral.Exec (entry.Log.event, action));
                k (Done res)
              end)
        end)

let broadcast_status t record ~reachable_from =
  (* A commit record carries the action's own entries with it: commit is
     the moment entries become stable, so re-pushing them repairs any
     repository whose tentative copy was lost to a crash-with-amnesia
     (appends are idempotent — duplicates are harmless). *)
  let records =
    match record with
    | Log.Commit_record (action, _) when t.commit_piggyback ->
      List.map (fun e -> Log.Entry e) (own_entries t action) @ [ record ]
    | Log.Commit_record _ | Log.Entry _ | Log.Abort_record _ | Log.Precommit _
    | Log.Preabort _ ->
      [ record ]
  in
  (* Status records bypass the epoch check: a commit or abort resolves
     entries wherever they sit, and refusing one at a sealed repository
     would strand tentative entries there forever. *)
  List.iter
    (fun site ->
      Network.send t.net ~src:reachable_from ~dst:site (fun () ->
          Repository.append t.repos.(site) records;
          if Trace.enabled (Network.trace t.net) then
            List.iter
              (function
                | Log.Entry e ->
                  note t ~site
                    (Trace.Repo_append
                       {
                         txn = Action.to_string e.Log.action;
                         op = e.Log.event.Event.inv.Event.Invocation.op;
                         tentative = false;
                       })
                | Log.Commit_record _ | Log.Abort_record _ | Log.Precommit _
                | Log.Preabort _ ->
                  ())
              records))
    (Epoch.members t.current)

let prepared_sites t ~from ~timeout ~k =
  Rpc.multicast t.net ~src:from ~dsts:(Epoch.members t.current) ~timeout
    ~handler:(fun site -> ignore site)
    ~gather:(fun acks -> k (List.map fst acks))

(* Cooperative-termination quorum rounds. Votes and status polls bypass
   the epoch fence for the same reason broadcast_status does: they exist
   to resolve stuck state, and refusing them at a sealed repository would
   strand it. Safety rests on the sticky-vote rule at each repository
   plus the vote/veto thresholds intersecting, not on epoch pinning. *)

let quorum_n t = List.length (Epoch.members t.current)

(* Commit certification threshold f: a final quorum's worth of Precommit
   votes. Abort needs the co-quorum n - f + 1, so any commit vote set and
   any abort vote set share a repository, whose sticky first vote decides
   which side can possibly reach its threshold. *)
let vote_need t = max 1 (max_final t)
let veto_need t = quorum_n t - vote_need t + 1

let place_vote ?term t record ~from ~k =
  Rpc.multicast t.net ~src:from ~dsts:(Epoch.members t.current)
    ~timeout:rpc_timeout
    ~handler:(fun site -> Repository.offer ?term t.repos.(site) record)
    ~gather:(fun replies -> k (List.map snd replies))

(* Takeover lease sizing: the lease set must intersect every possible
   commit vote set (size [vote_need]) AND every abort vote set (size
   [veto_need]), so a stale driver meets the fence inside any quorum it
   could otherwise assemble. That takes n - vote_need + 1 = veto_need
   grants for the former and n - veto_need + 1 = vote_need for the
   latter — the max of the two thresholds. *)
let lease_need t = max (vote_need t) (veto_need t)

let takeover_acquire t action ~term ~holder ~from ~k =
  Rpc.multicast t.net ~src:from ~dsts:(Epoch.members t.current)
    ~timeout:rpc_timeout
    ~handler:(fun site -> Repository.grant_takeover t.repos.(site) action ~term ~holder)
    ~gather:(fun replies ->
      let granted, highest =
        List.fold_left
          (fun (g, h) (_, r) ->
            match r with
            | Takeover.Granted -> (g + 1, max h term)
            | Takeover.Fenced grant -> (g, max h grant.Takeover.g_term))
          (0, 0) replies
      in
      k ~granted ~highest)

let poll_status t action ~from ~k =
  Rpc.multicast t.net ~src:from ~dsts:(Epoch.members t.current)
    ~timeout:rpc_timeout
    ~handler:(fun site -> Repository.status_of t.repos.(site) action)
    ~gather:(fun replies -> k (List.map snd replies))

let repository_log t ~site = Repository.read t.repos.(site)
let repository t ~site = t.repos.(site)
let recoveries t = List.rev !(t.recoveries)

(* Summed WAL counters over the object's repositories; [None] when the
   object runs volatile. *)
let wal_totals t =
  match List.filter_map Repository.store (Array.to_list t.repos) with
  | [] -> None
  | wals ->
    let acc = Wal.zero_stats () in
    List.iter (fun w -> Wal.add_stats acc (Wal.stats w)) wals;
    Some acc

(* The gossip process draws from its own stream so that enabling or
   disabling it never perturbs the workload's random choices — ablation
   runs stay comparable at equal seeds. *)
let start_anti_entropy t ~rng ~every =
  let engine = Network.engine t.net in
  let rec cycle () =
    Engine.schedule engine ~delay:every (fun () ->
        (* Gossip pairs are drawn from the current epoch's members: sealed
           ex-members no longer serve quorums, so spreading their logs is
           the barrier's job (once, at handoff), not gossip's. *)
        let sites = Array.of_list (Epoch.members t.current) in
        let n = Array.length sites in
        if n >= 2 then begin
          let ai = Atomrep_stats.Rng.int rng n in
          let bi = (ai + 1 + Atomrep_stats.Rng.int rng (n - 1)) mod n in
          let a = sites.(ai) and b = sites.(bi) in
          if Network.reachable t.net a b then begin
            let log_a = Repository.read t.repos.(a) in
            let log_b = Repository.read t.repos.(b) in
            Network.send t.net ~src:a ~dst:b (fun () ->
                Repository.ingest t.repos.(b) log_a);
            Network.send t.net ~src:b ~dst:a (fun () ->
                Repository.ingest t.repos.(a) log_b)
          end
        end;
        cycle ())
  in
  cycle ()

(* ------------------------------------------------------------------ *)
(* Online reconfiguration (paper, §4–5: hybrid and dynamic atomicity   *)
(* permit reassignment as timestamps advance; static does not).        *)

type reconfig_result =
  | Reconfigured of int
  | Refused of string
  | Failed of string

(* Acks needed to seal the old epoch: a set of n - f + 1 old members
   intersects every f-sized final quorum, so for each entry that reached a
   final quorum, at least one sealing site both holds it and was still up
   to ack — its log (read in the same handler that advances the epoch)
   carries the entry into the merge. Ops with f = 0 persist nothing. *)
let seal_need epoch =
  let n = List.length (Epoch.members epoch) in
  List.fold_left
    (fun acc (_, s) ->
      if s.Assignment.final > 0 then max acc (n - s.Assignment.final + 1)
      else acc)
    0 (Epoch.assignment epoch).Assignment.ops

(* Acks needed to install the merged state in the new epoch: a set of
   n - i + 1 new members intersects every i-sized initial quorum, so every
   future read meets at least one site that ingested the transferred log.
   Ops with i = 0 never read. *)
let transfer_need epoch =
  let n = List.length (Epoch.members epoch) in
  List.fold_left
    (fun acc (_, s) ->
      if s.Assignment.initial > 0 then max acc (n - s.Assignment.initial + 1)
      else acc)
    0 (Epoch.assignment epoch).Assignment.ops

let reconfigure t ~members ~assignment ?(allow_barrier = true)
    ?(unsafe_no_barrier = false) ~from k =
  match t.scheme with
  | Static ->
    (* Theorem 12's flip side: static atomicity orders actions by Begin
       timestamp, so an action must be able to read state written by
       later-started but earlier-committing actions — sound only if the
       quorums it will meet are known when the type is defined. *)
    k
      (Refused
         "static atomicity fixes quorum assignments when the type is \
          defined; reassignment requires hybrid or dynamic atomicity \
          (paper, §4-5)")
  | Hybrid | Locking ->
    let members = List.sort_uniq compare members in
    let n_net = Network.n_sites t.net in
    if members = [] || List.exists (fun s -> s < 0 || s >= n_net) members then
      k (Refused "invalid member set")
    else if assignment.Assignment.n_sites <> List.length members then
      k (Refused "assignment sized for a different member count")
    else if not (Assignment.satisfies assignment t.constraints) then
      k (Refused "assignment violates the type's intersection constraints")
    else begin
      let prev = t.current in
      let next =
        Epoch.make ~number:(Epoch.number prev + 1) ~members ~assignment
      in
      let number = Epoch.number next in
      if unsafe_no_barrier then begin
        (* Deliberately broken handoff for negative testing: no invariant
           check, no seal, no state transfer. If the member sets drift
           apart, committed state is left behind at ex-members and the
           atomicity oracles catch the divergence. *)
        t.current <- next;
        k (Reconfigured number)
      end
      else if Epoch.intersects ~constraints:t.constraints ~prev ~next then begin
        (* Direct handoff: cross-epoch intersection already guarantees new
           initial quorums meet old final quorums, so no drain is needed.
           Epoch advances are fire-and-forget — they only fence stale
           traffic faster; safety does not depend on their delivery. *)
        List.iter
          (fun site ->
            Network.send t.net ~src:from ~dst:site (fun () ->
                Repository.advance_epoch t.repos.(site) number))
          (List.sort_uniq compare (Epoch.members prev @ Epoch.members next));
        t.current <- next;
        note t ~site:from (Trace.Epoch_transfer { epoch = number });
        k (Reconfigured number)
      end
      else if not allow_barrier then
        k
          (Failed
             "epochs do not intersect and the state-transfer barrier is \
              disabled")
      else begin
        (* State-transfer barrier: seal the old epoch (advancing each old
           member fences its future old-epoch appends in the same handler
           that snapshots its log), merge the sealed logs, install the
           merge at enough new members, then switch. Either quorum failing
           aborts the handoff — the system stays in the old epoch, albeit
           with some members already sealed; the coordinator retries with
           the same epoch number, which sealed repositories accept. *)
        let sn = seal_need prev in
        note t ~site:from (Trace.Epoch_seal { epoch = number });
        let seal k_logs =
          if sn = 0 then k_logs []
          else
            Rpc.multicast t.net ~src:from ~dsts:(Epoch.members prev)
              ~timeout:rpc_timeout
              ~handler:(fun site ->
                let repo = t.repos.(site) in
                Repository.advance_epoch repo number;
                Repository.read repo)
              ~gather:(fun replies ->
                if List.length replies < sn then
                  k
                    (Failed
                       (Printf.sprintf "seal quorum: %d of %d old-epoch sites"
                          (List.length replies) sn))
                else k_logs (List.map snd replies))
        in
        seal (fun logs ->
            let merged = List.fold_left Log.merge Log.empty logs in
            let tn = transfer_need next in
            let transfer k_done =
              if tn = 0 then k_done ()
              else
                Rpc.multicast t.net ~src:from ~dsts:(Epoch.members next)
                  ~timeout:rpc_timeout
                  ~handler:(fun site ->
                    let repo = t.repos.(site) in
                    Repository.advance_epoch repo number;
                    Repository.ingest repo merged)
                  ~gather:(fun acks ->
                    if List.length acks < tn then
                      k
                        (Failed
                           (Printf.sprintf
                              "transfer quorum: %d of %d new-epoch sites"
                              (List.length acks) tn))
                    else k_done ())
            in
            transfer (fun () ->
                t.current <- next;
                note t ~site:from (Trace.Epoch_transfer { epoch = number });
                k (Reconfigured number)))
      end
    end
