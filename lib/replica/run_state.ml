(* Mutable state of one run, shared by the transaction driver, admission,
   the termination driver, the gray policy and the reconfiguration
   coordinator: the simulation handles, the transactions and their
   drivers' handles, the waits-for graph, and the registry handles for the
   hot counters. Static configuration lives in {!Runtime_config}. *)

open Atomrep_history
open Atomrep_clock
open Atomrep_sim
open Atomrep_txn
open Runtime_config
module Trace = Atomrep_obs.Trace
module Metrics = Atomrep_obs.Metrics
module Waits_for = Atomrep_cc.Waits_for

(* Registry handles for the hot counters: looked up once at run start so
   the per-transaction path never hashes a label set. *)
type counters = {
  c_committed : Metrics.counter;
  c_aborted : Metrics.counter;
  c_unavailable : Metrics.counter;
  c_rejected : Metrics.counter;
  c_conflict : Metrics.counter;
  c_blocked : Metrics.counter;
  c_ops : Metrics.counter;
  c_latency : Metrics.histogram;
  c_deadlock : Metrics.counter;
  c_presumed : Metrics.counter;
  c_coop_commit : Metrics.counter;
  c_coop_abort : Metrics.counter;
  c_redrive : Metrics.counter;
  c_orphans : Metrics.counter;
  c_blocked_latency : Metrics.histogram;
  c_takeover_lease : Metrics.counter;
  c_takeover_adopt : Metrics.counter;
  c_takeover_fenced : Metrics.counter;
  c_takeover_contended : Metrics.counter;
  c_rebroadcast_suppressed : Metrics.counter;
  g_stranded_live : Metrics.gauge;
  c_shed : Metrics.counter;
  c_timely : Metrics.counter;
  c_retries_spent : Metrics.counter;
  c_retry_exhausted : Metrics.counter;
  c_sojourn : Metrics.histogram;
  c_breaker_trips : Metrics.counter;
  c_reconfig_done : Metrics.counter;
  c_reconfig_refused : Metrics.counter;
  c_reconfig_failed : Metrics.counter;
  c_reconfig_latency : Metrics.histogram;
  c_hedges : Metrics.counter;
  c_hedge_wins : Metrics.counter;
  c_hedge_late : Metrics.counter;
  c_demoted : Metrics.counter;
}

(* The transaction driver's own handles on a started transaction: what the
   terminal transition settles when the driver itself decides. *)
type driver = {
  arrival : float;
  started : float;
  session : int; (* open-loop session, -1 without a plan *)
  tspan : int;
  mutable commit_span : int;
  mutable commit_at : float; (* entered the commit window; nan before *)
  release : unit -> unit; (* idempotent admission release *)
}

type t = {
  engine : Engine.t;
  net : Network.t;
  clocks : Lamport.t array;
  objects : (string * Replicated.t) list;
  txns : (Action.t, Txn.t) Hashtbl.t;
  drivers : (Action.t, driver) Hashtbl.t;
  counters : counters;
  registry : Metrics.t;
  cfg : config;
  waits : Waits_for.t;
}

let create cfg ~engine ~net ~objects ~registry ~labels =
  let counter name = Metrics.counter registry ~labels name
  and histogram name = Metrics.histogram registry ~labels name
  and aborts reason =
    Metrics.counter registry ~labels:(("reason", reason) :: labels) "txn.aborts"
  in
  (* Registration order is the registry's export order, which the metrics
     JSON has always had: keep it. *)
  let c_breaker_trips = counter "breaker.trips" in
  let c_sojourn = histogram "admission.sojourn" in
  let c_retry_exhausted = counter "runtime.retries_budget_exhausted" in
  let c_retries_spent = counter "runtime.retries_spent" in
  let c_timely = counter "runtime.timely_commits" in
  let c_shed = counter "admission.shed" in
  let g_stranded_live = Metrics.gauge registry ~labels "term.stranded_live" in
  let c_rebroadcast_suppressed = counter "term.rebroadcasts_suppressed" in
  let c_takeover_contended = counter "takeover.contended" in
  let c_takeover_fenced = counter "takeover.fenced" in
  let c_takeover_adopt = counter "takeover.adoptions" in
  let c_takeover_lease = counter "takeover.leases" in
  let c_blocked_latency = histogram "op.blocked_latency" in
  let c_orphans = counter "term.orphans_reaped" in
  let c_redrive = counter "term.redrives" in
  let c_coop_abort = counter "term.coop_aborts" in
  let c_coop_commit = counter "term.coop_commits" in
  let c_presumed = aborts "presumed" in
  let c_deadlock = aborts "deadlock" in
  let c_latency = histogram "txn.latency" in
  let c_ops = counter "op.done" in
  let c_blocked = counter "op.blocked_waits" in
  let c_conflict = aborts "conflict" in
  let c_rejected = aborts "rejected" in
  let c_unavailable = aborts "unavailable" in
  let c_aborted = counter "txn.aborted" in
  let c_committed = counter "txn.committed" in
  let c_reconfig_done = counter "reconfig.done" in
  let c_reconfig_refused = counter "reconfig.refused" in
  let c_reconfig_failed = counter "reconfig.failed" in
  let c_reconfig_latency = histogram "reconfig.latency" in
  let c_hedges = counter "gray.hedges" in
  let c_hedge_wins = counter "gray.hedge_wins" in
  let c_hedge_late = counter "gray.hedge_late" in
  let c_demoted = counter "gray.demoted_rounds" in
  {
    engine;
    net;
    clocks = Array.init cfg.n_sites (fun site -> Lamport.create ~site);
    objects;
    txns = Hashtbl.create 256;
    drivers = Hashtbl.create 256;
    counters =
      {
        c_committed; c_aborted; c_unavailable; c_rejected; c_conflict;
        c_blocked; c_ops; c_latency; c_deadlock; c_presumed; c_coop_commit;
        c_coop_abort; c_redrive; c_orphans; c_blocked_latency;
        c_takeover_lease; c_takeover_adopt; c_takeover_fenced;
        c_takeover_contended; c_rebroadcast_suppressed; g_stranded_live;
        c_shed; c_timely; c_retries_spent; c_retry_exhausted; c_sojourn;
        c_breaker_trips; c_reconfig_done; c_reconfig_refused;
        c_reconfig_failed; c_reconfig_latency; c_hedges; c_hedge_wins;
        c_hedge_late; c_demoted;
      };
    registry;
    cfg;
    waits = Waits_for.create ();
  }

let find_object st name =
  match List.assoc_opt name st.objects with
  | Some o -> o
  | None -> invalid_arg ("Runtime: unknown object " ^ name)

let note st ~site kind =
  let trc = Network.trace st.net in
  if Trace.enabled trc then ignore (Trace.emit trc ~site kind)

(* The preassigned home of transaction [index] under an open-loop plan;
   [None] under the closed-loop process, which draws it at start. *)
let planned_home cfg index =
  Option.map (fun l -> l.home_of index mod cfg.n_sites) cfg.load

let close_spans st d ~site outcome =
  let trc = Network.trace st.net in
  Trace.span_end trc ~site ~span:d.commit_span ~outcome;
  Trace.span_end trc ~site ~span:d.tspan ~outcome

let note_session_commit st d ~site txn cts =
  if d.session >= 0 then
    note st ~site
      (Trace.Session_commit
         {
           session = d.session;
           txn;
           counter = cts.Lamport.Timestamp.counter;
           site = cts.Lamport.Timestamp.site;
         })

(* Fold [f] over every tentative entry at every member repository of every
   object, objects in configuration order. *)
let fold_tentative st f init =
  List.fold_left
    (fun acc (name, obj) ->
      List.fold_left
        (fun acc site ->
          List.fold_left (f name) acc (Log.tentative (Replicated.repository_log obj ~site)))
        acc
        (Epoch.members (Replicated.current_epoch obj)))
    init st.objects
