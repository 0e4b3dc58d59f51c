open Atomrep_stats
module Trace = Atomrep_obs.Trace

type stats = {
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable dead_dest : int;
  mutable rpc_timeouts : int;
  mutable storage_faults : int;
}

(* Persistent fail-slow laws: how a gray site's service time inflates while
   the fault is installed. Distinct from transient delay spikes — a spike
   stretches one message; fail-slow stretches every message through the site
   until it is cleared. *)
type slow_mode =
  | Slow_constant of float
  | Slow_heavy of { factor : float; p_tail : float; tail_factor : float }
  | Slow_creeping of { rate : float; cap : float }

let slow_mode_label = function
  | Slow_constant _ -> "constant"
  | Slow_heavy _ -> "heavy"
  | Slow_creeping _ -> "creeping"

type t = {
  engine : Engine.t;
  n_sites : int;
  latency_mean : float;
  mutable drop_probability : float;
  mutable dup_probability : float;
  mutable spike_probability : float;
  mutable spike_factor : float;
  slow : (slow_mode * float) option array; (* installed law, onset time *)
  up : bool array;
  mutable groups : int array; (* partition group per site *)
  blocked : (int * int, unit) Hashtbl.t; (* one-way failed links, (src, dst) *)
  stats : stats;
  mutable amnesia_listeners : (int -> unit) list;
  mutable rejoin_listeners : (int -> unit) list;
  mutable recover_listeners : (int -> unit) list;
  mutable commit_window_listeners : (int -> unit) list;
  mutable takeover_listeners : (int -> unit) list;
  mutable storage_listeners : (int -> Atomrep_store.Wal.fault -> unit) list;
  mutable skew_handler : site:int -> amount:int -> unit;
  mutable resync_quorum : int;
  mutable trace : Trace.t;
  (* Interned while traced: the [Rpc_send] and [Rpc_recv] kinds of link
     (src, dst), at [src * n_sites + dst]. *)
  mutable rpc_sends : Trace.kind array;
  mutable rpc_recvs : Trace.kind array;
  mutable router : (src:int -> dst:int -> bool) option;
  mutable rpc_result_listeners :
    (src:int -> dst:int -> ok:bool -> elapsed:float -> unit) list;
}

let create engine ~n_sites ?(latency_mean = 5.0) ?(drop_probability = 0.0) () =
  {
    engine;
    n_sites;
    latency_mean;
    drop_probability;
    dup_probability = 0.0;
    spike_probability = 0.0;
    spike_factor = 1.0;
    slow = Array.make n_sites None;
    up = Array.make n_sites true;
    groups = Array.make n_sites 0;
    blocked = Hashtbl.create 8;
    stats =
      {
        sent = 0;
        dropped = 0;
        duplicated = 0;
        dead_dest = 0;
        rpc_timeouts = 0;
        storage_faults = 0;
      };
    amnesia_listeners = [];
    rejoin_listeners = [];
    recover_listeners = [];
    commit_window_listeners = [];
    takeover_listeners = [];
    storage_listeners = [];
    skew_handler = (fun ~site:_ ~amount:_ -> ());
    resync_quorum = 0;
    trace = Trace.null;
    rpc_sends = [||];
    rpc_recvs = [||];
    router = None;
    rpc_result_listeners = [];
  }

let engine t = t.engine
let n_sites t = t.n_sites
let site_up t s = t.up.(s)

let trace t = t.trace

let set_trace t tr =
  t.trace <- tr;
  Trace.set_clock tr (fun () -> Engine.now t.engine);
  if Trace.enabled tr then begin
    let n = t.n_sites in
    let links f = Array.init (n * n) (fun i -> f (i / n) (i mod n)) in
    t.rpc_sends <- links (fun src dst -> Trace.Rpc_send { src; dst });
    t.rpc_recvs <- links (fun src dst -> Trace.Rpc_recv { src; dst })
  end

let note t ~site kind =
  if Trace.enabled t.trace then ignore (Trace.emit t.trace ~site kind)

let crash t s =
  t.up.(s) <- false;
  note t ~site:s (Trace.Crash { site = s; amnesia = false })

let recover t s =
  t.up.(s) <- true;
  note t ~site:s (Trace.Recover { site = s; resynced = false });
  List.iter (fun f -> f s) t.recover_listeners

let stats t = t.stats
let note_rpc_timeout t = t.stats.rpc_timeouts <- t.stats.rpc_timeouts + 1

let set_router t r = t.router <- r

let router_allows t ~src ~dst =
  match t.router with None -> true | Some allows -> allows ~src ~dst

let on_rpc_result t f = t.rpc_result_listeners <- f :: t.rpc_result_listeners

let note_rpc_result t ~src ~dst ~ok ~elapsed =
  List.iter (fun f -> f ~src ~dst ~ok ~elapsed) t.rpc_result_listeners

let set_fail_slow t ~site mode =
  t.slow.(site) <- Some (mode, Engine.now t.engine);
  note t ~site (Trace.Slow_inject { site; mode = slow_mode_label mode })

let clear_fail_slow t ~site =
  if t.slow.(site) <> None then begin
    t.slow.(site) <- None;
    note t ~site (Trace.Slow_inject { site; mode = "healed" })
  end

let fail_slow t ~site = t.slow.(site) <> None

(* One leg's inflation factor. Draws from [rng] only while the site is
   actually slow (the heavy-tailed law flips a coin per message), so runs
   with no fail-slow faults consume exactly the historical random stream. *)
let slow_rate t rng ~site =
  match t.slow.(site) with
  | None -> 1.0
  | Some (Slow_constant f, _) -> f
  | Some (Slow_heavy { factor; p_tail; tail_factor }, _) ->
    if Rng.bernoulli rng p_tail then tail_factor else factor
  | Some (Slow_creeping { rate; cap }, since) ->
    Float.min cap (1.0 +. (rate *. (Engine.now t.engine -. since)))

let set_drop_probability t p = t.drop_probability <- p
let set_duplication t p = t.dup_probability <- p

let set_delay_spike t ~probability ~factor =
  t.spike_probability <- probability;
  t.spike_factor <- factor

(* The length test keeps the common no-failed-link case free of a tuple
   allocation and a hash. *)
let link_up t ~src ~dst =
  Hashtbl.length t.blocked = 0 || not (Hashtbl.mem t.blocked (src, dst))
let fail_link t ~src ~dst = Hashtbl.replace t.blocked (src, dst) ()
let heal_link t ~src ~dst = Hashtbl.remove t.blocked (src, dst)

let on_amnesia t f = t.amnesia_listeners <- f :: t.amnesia_listeners
let on_rejoin t f = t.rejoin_listeners <- f :: t.rejoin_listeners
let on_recover t f = t.recover_listeners <- f :: t.recover_listeners
let on_commit_window t f = t.commit_window_listeners <- f :: t.commit_window_listeners
let note_commit_window t ~site = List.iter (fun f -> f site) t.commit_window_listeners
let on_takeover t f = t.takeover_listeners <- f :: t.takeover_listeners
let note_takeover t ~site = List.iter (fun f -> f site) t.takeover_listeners
let on_storage_fault t f = t.storage_listeners <- f :: t.storage_listeners

let inject_storage_fault t ~site fault =
  t.stats.storage_faults <- t.stats.storage_faults + 1;
  note t ~site
    (Trace.Store_fault { site; fault = Atomrep_store.Wal.fault_label fault });
  List.iter (fun f -> f site fault) t.storage_listeners

let crash_with_amnesia t s =
  t.up.(s) <- false;
  note t ~site:s (Trace.Crash { site = s; amnesia = true });
  List.iter (fun f -> f s) t.amnesia_listeners

let set_resync_quorum t q = t.resync_quorum <- q

(* How many peers [s] could pull state from right now: up, same partition
   group, both link directions alive. [s] itself may still be down. *)
let resync_peers t s =
  let n = ref 0 in
  for peer = 0 to t.n_sites - 1 do
    if
      peer <> s && t.up.(peer)
      && t.groups.(peer) = t.groups.(s)
      && (not (Hashtbl.mem t.blocked (s, peer)))
      && not (Hashtbl.mem t.blocked (peer, s))
    then incr n
  done;
  !n

let recover_resync t s =
  if resync_peers t s >= t.resync_quorum then begin
    t.up.(s) <- true;
    note t ~site:s (Trace.Recover { site = s; resynced = true });
    List.iter (fun f -> f s) t.rejoin_listeners;
    List.iter (fun f -> f s) t.recover_listeners;
    true
  end
  else false

let set_skew_handler t f = t.skew_handler <- f
let inject_skew t ~site ~amount = t.skew_handler ~site ~amount

let partition t groups =
  note t ~site:(-1) (Trace.Partition { n_groups = List.length groups });
  let assignment = Array.make t.n_sites (-1) in
  List.iteri
    (fun g sites -> List.iter (fun s -> assignment.(s) <- g) sites)
    groups;
  (* Each unassigned site becomes its own singleton group: a site no group
     claims is isolated, not silently pooled with the other leftovers. *)
  let next = ref (List.length groups) in
  Array.iteri
    (fun s g ->
      if g = -1 then begin
        assignment.(s) <- !next;
        incr next
      end)
    assignment;
  t.groups <- assignment

let heal t =
  note t ~site:(-1) Trace.Heal;
  t.groups <- Array.make t.n_sites 0

let partitioned t =
  Hashtbl.length t.blocked > 0
  || (t.n_sites > 0 && Array.exists (fun g -> g <> t.groups.(0)) t.groups)

let reachable t a b =
  t.up.(a) && t.up.(b)
  && t.groups.(a) = t.groups.(b)
  && link_up t ~src:a ~dst:b
  && link_up t ~src:b ~dst:a

(* A copy of a message reaching [dst]. [deliver] queues it with one closure
   per copy. *)
let arrive t ~src ~dst ~sid thunk delay =
  if t.up.(dst) then begin
    if Trace.enabled t.trace then
      ignore
        (Trace.emit t.trace ~site:dst ~cause:sid
           t.rpc_recvs.((src * t.n_sites) + dst));
    thunk ()
  end
  else begin
    t.stats.dead_dest <- t.stats.dead_dest + 1;
    if Trace.enabled t.trace then
      ignore
        (Trace.emit t.trace ~site:dst ~cause:sid
           (Trace.Rpc_drop { src; dst; reason = "dead_dest"; elapsed = delay }))
  end

let deliver t ~src ~dst ~sid thunk delay =
  Engine.schedule t.engine ~delay (fun () -> arrive t ~src ~dst ~sid thunk delay)

let send_impl t ~src ~dst thunk =
  let rng = Engine.rng t.engine in
  t.stats.sent <- t.stats.sent + 1;
  let sid =
    if Trace.enabled t.trace then
      Trace.emit t.trace ~site:src t.rpc_sends.((src * t.n_sites) + dst)
    else -1
  in
  let latency = Rng.exponential rng t.latency_mean in
  let same_site = src = dst in
  let dropped =
    (not same_site)
    && (t.groups.(src) <> t.groups.(dst)
       || (not (link_up t ~src ~dst))
       || Rng.bernoulli rng t.drop_probability)
  in
  if dropped then begin
    t.stats.dropped <- t.stats.dropped + 1;
    if Trace.enabled t.trace then
      ignore
        (Trace.emit t.trace ~site:src ~cause:sid
           (Trace.Rpc_drop { src; dst; reason = "link"; elapsed = 0.0 }))
  end
  else begin
    (* A delay spike stretches one message's latency, letting later sends
       overtake it: latency spikes double as message reordering. *)
    let latency =
      if t.spike_probability > 0.0 && Rng.bernoulli rng t.spike_probability then
        latency *. t.spike_factor
      else latency
    in
    (* Fail-slow inflation: a gray site both serves and emits slowly, so
       either endpoint being slow stretches the message. The guard keeps
       the healthy path draw-free. *)
    let latency =
      match (t.slow.(src), t.slow.(dst)) with
      | None, None -> latency
      | _ ->
        let f = slow_rate t rng ~site:src in
        let f = if same_site then f else f *. slow_rate t rng ~site:dst in
        latency *. f
    in
    deliver t ~src ~dst ~sid thunk latency;
    if (not same_site) && t.dup_probability > 0.0 && Rng.bernoulli rng t.dup_probability
    then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      deliver t ~src ~dst ~sid thunk (Rng.exponential rng t.latency_mean)
    end
  end

let send_key = Atomrep_obs.Profile.key ~subsystem:"network" "send"

let send t ~src ~dst thunk =
  let p = Atomrep_obs.Profile.current () in
  if Atomrep_obs.Profile.enabled p then
    Atomrep_obs.Profile.time p send_key (fun () ->
        send_impl t ~src ~dst thunk)
  else send_impl t ~src ~dst thunk

let up_sites t =
  List.filter (fun s -> t.up.(s)) (List.init t.n_sites Fun.id)
