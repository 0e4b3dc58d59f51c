(* Admission control and graceful shedding (DESIGN §3i): the bounded
   in-flight window, the FIFO admission queue with deadline-aware dequeue,
   the queue-overflow shed policies, the per-site circuit breaker, and the
   release every started transaction frees its slot through. Without an
   [admission] config every arrival starts at once. *)

open Atomrep_sim
open Runtime_config
open Run_state

type pending = {
  p_index : int;
  p_arrival : float;
  p_class : [ `Read | `Write ];
}

(* [queue] is in arrival order, head oldest — small by construction,
   [queue_limit] entries at most, so list append is fine. *)
type t = {
  st : Run_state.t;
  gate : admission option;
  start : int -> arrival:float -> admitted:float -> release:(unit -> unit) -> unit;
  mutable in_flight : int;
  mutable queue : pending list;
}

(* Circuit breaker: a pure state machine fed from the RPC outcome
   listeners and consulted from the network router. It only gates
   [Rpc.call] — status broadcasts and gossip still use [Network.send], so
   abort records reach a tripped site and shed-safety holds. *)
let install_breaker st =
  let now () = Engine.now st.engine in
  (* {!Breaker.create}'s defaults: window 8, threshold 0.5, cooldown 400
     ms, 2 probes. *)
  let breaker = Breaker.create ~n_sites:st.cfg.n_sites () in
  Breaker.set_transition_hook breaker (fun ~site ~state ->
      if state = Breaker.Open then Metrics.incr st.counters.c_breaker_trips;
      note st ~site (Trace.Breaker { site; state = Breaker.state_label state }));
  Network.on_rpc_result st.net (fun ~src:_ ~dst ~ok ~elapsed:_ ->
      Breaker.record breaker ~site:dst ~now:(now ()) ~ok);
  Network.set_router st.net
    (Some (fun ~src:_ ~dst -> Breaker.allow breaker ~site:dst ~now:(now ())))

(* [start] runs an admitted transaction; it gets the slot's release. *)
let create st ~start =
  let gate = st.cfg.admission in
  Option.iter (fun a -> if a.adm_breaker then install_breaker st) gate;
  { st; gate; start; in_flight = 0; queue = [] }

(* Deadline-aware shedding mid-transaction: [admitted] is when the
   transaction left the queue. *)
let past_deadline st ~admitted =
  match st.cfg.admission with
  | None -> false
  | Some a -> Engine.now st.engine -. admitted > a.deadline

(* Shed a transaction that was never admitted (queue overflow, class
   eviction, or deadline expiry while queued): it touched nothing, so the
   Shed trace event plus the counters are the whole story — the
   shed-safety monitor sees no tentative entries to worry about. Its site
   is its planned home, or the system lane when the home is drawn at
   start. *)
let shed t p ~reason =
  let st = t.st in
  Metrics.incr st.counters.c_aborted;
  Metrics.incr st.counters.c_shed;
  Metrics.observe st.counters.c_sojourn (Engine.now st.engine -. p.p_arrival);
  note st
    ~site:(Option.value (planned_home st.cfg p.p_index) ~default:(-1))
    (Trace.Shed { txn = Printf.sprintf "T%d" p.p_index; reason })

(* Evict the newest queued read (shed-by-class: reads are sacrificed
   before writes). Returns the victim and the queue without it. *)
let evict_newest_read queue =
  let rec go acc = function
    | [] -> None
    | p :: older when p.p_class = `Read -> Some (p, List.rev_append older acc)
    | p :: older -> go (p :: acc) older
  in
  go [] (List.rev queue)

(* Take a slot and start [p]. Its release is shared by every terminal path
   of the transaction (commit, abort, strand, in-doubt give-up) and is
   idempotent — several paths can race to it under kills. It observes the
   admission→verdict sojourn, frees the slot, and pumps the queue so the
   next waiter starts inside the same event. *)
let rec admit t p ~admitted =
  if t.gate <> None then t.in_flight <- t.in_flight + 1;
  let released = ref false in
  let release () =
    if not !released then begin
      released := true;
      Metrics.observe t.st.counters.c_sojourn (Engine.now t.st.engine -. p.p_arrival);
      Option.iter
        (fun a ->
          t.in_flight <- t.in_flight - 1;
          pump t a)
        t.gate
    end
  in
  t.start p.p_index ~arrival:p.p_arrival ~admitted ~release

(* Drain the queue into free slots. Waiters whose deadline elapsed while
   queued are shed here rather than admitted dead. *)
and pump t a =
  if t.in_flight < a.max_in_flight then
    match t.queue with
    | [] -> ()
    | p :: rest ->
      t.queue <- rest;
      let now = Engine.now t.st.engine in
      if now -. p.p_arrival > a.deadline then begin
        shed t p ~reason:"deadline";
        pump t a
      end
      else admit t p ~admitted:now

(* Client arrival: the transaction passes the gate — run now if a slot is
   free, wait in the bounded queue otherwise, or be shed per policy when
   the queue is full. An arriving write under [Shed_reads_first] may evict
   the newest queued read instead. *)
let arrive t index ~arrival =
  let p_class =
    match t.st.cfg.load with Some l -> l.class_of index | None -> `Write
  in
  let p = { p_index = index; p_arrival = arrival; p_class } in
  match t.gate with
  | None -> admit t p ~admitted:arrival
  | Some a ->
    if t.in_flight < a.max_in_flight && t.queue = [] then
      admit t p ~admitted:arrival
    else if List.length t.queue < a.queue_limit then t.queue <- t.queue @ [ p ]
    else
      match (a.adm_shed_policy, p_class, evict_newest_read t.queue) with
      | Shed_reads_first, `Write, Some (victim, rest) ->
        shed t victim ~reason:"shed-by-class";
        t.queue <- rest @ [ p ]
      | _ -> shed t p ~reason:"queue full"

(* Feed the arrivals (times in order, transaction [i] at [times.(i)]) one
   at a time: each arrival event schedules the next before it handles its
   own, so the event heap holds one future arrival rather than all of
   them, and the next arrival still precedes every event its predecessor
   schedules at the same time. *)
let feed t times =
  let rec at i =
    if i < Array.length times then
      Engine.schedule_at t.st.engine ~time:times.(i) (fun () ->
          at (i + 1);
          arrive t i ~arrival:times.(i))
  in
  at 0
