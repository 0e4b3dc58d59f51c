open Atomrep_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_engine_orders_by_time () =
  let engine = Engine.create ~seed:1 in
  let order = ref [] in
  Engine.schedule engine ~delay:10.0 (fun () -> order := 2 :: !order);
  Engine.schedule engine ~delay:5.0 (fun () -> order := 1 :: !order);
  Engine.schedule engine ~delay:20.0 (fun () -> order := 3 :: !order);
  Engine.run engine;
  Alcotest.(check (list int)) "execution order" [ 1; 2; 3 ] (List.rev !order)

let test_engine_fifo_at_same_time () =
  let engine = Engine.create ~seed:1 in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule engine ~delay:1.0 (fun () -> order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_now_advances () =
  let engine = Engine.create ~seed:1 in
  let seen = ref 0.0 in
  Engine.schedule engine ~delay:7.5 (fun () -> seen := Engine.now engine);
  Engine.run engine;
  check_float "time at event" 7.5 !seen

let test_engine_nested_scheduling () =
  let engine = Engine.create ~seed:1 in
  let count = ref 0 in
  let rec tick n =
    if n > 0 then begin
      incr count;
      Engine.schedule engine ~delay:1.0 (fun () -> tick (n - 1))
    end
  in
  tick 5;
  Engine.run engine;
  check_int "all ticks ran" 5 !count

(* Past the heap's initial capacity (256 entries) the order still holds. *)
let test_engine_orders_past_capacity () =
  let engine = Engine.create ~seed:1 in
  let order = ref [] in
  let rng = Random.State.make [| 3 |] in
  for i = 1 to 1000 do
    let delay = float_of_int (Random.State.int rng 50) in
    Engine.schedule engine ~delay (fun () -> order := (delay, i) :: !order)
  done;
  Engine.run engine;
  let order = List.rev !order in
  Alcotest.(check (list (pair (float 0.0) int)))
    "(time, seq) order" (List.sort compare order) order

let test_engine_until_horizon () =
  let engine = Engine.create ~seed:1 in
  let ran = ref [] in
  Engine.schedule engine ~delay:5.0 (fun () -> ran := 5 :: !ran);
  Engine.schedule engine ~delay:50.0 (fun () -> ran := 50 :: !ran);
  Engine.run ~until:10.0 engine;
  Alcotest.(check (list int)) "only early event" [ 5 ] (List.rev !ran);
  check_int "late event still pending" 1 (Engine.pending engine)

(* Model-based check of the engine against a sorted-list reference. A
   program is a list of steps run at top level; an action may carry a body
   that runs when its event fires, so cancels and new events also happen
   from inside running thunks. Delays and times are small integers, so
   live and cancelled events often share a time. Daemon scopes and a work
   flag exercise the stop rule: every run stops once only daemon entries
   remain and the flag is down, and the log records each time the flag is
   consulted. *)
type action =
  | Schedule of float * action list
  | Schedule_at of float * action list
  | Timer of float * action list
  | Cancel of int (* the k-th armed timer, mod the number armed so far *)
  | Daemon of action list (* the actions, inside [Engine.daemon] *)
  | Set_work of bool

type step = Act of action | Run of float option

module type ENGINE = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val schedule_at : t -> time:float -> (unit -> unit) -> unit
  val timer : t -> delay:float -> (unit -> unit) -> timer
  val cancel : t -> timer -> unit
  val daemon : t -> (unit -> 'a) -> 'a
  val run : ?until:float -> ?work:(unit -> bool) -> t -> unit
  val pending : t -> int
end

module Reference : ENGINE = struct
  type ev = {
    time : float;
    seq : int;
    thunk : unit -> unit;
    daemon : bool;
    mutable cancelled : bool;
  }

  type timer = ev

  type t = {
    mutable clock : float;
    mutable seq : int;
    mutable queue : ev list;
    mutable daemon : bool;
  }

  let create () = { clock = 0.0; seq = 0; queue = []; daemon = false }
  let now t = t.clock

  let add t ~time thunk =
    t.seq <- t.seq + 1;
    let ev =
      { time = Float.max time t.clock; seq = t.seq; thunk; daemon = t.daemon; cancelled = false }
    in
    let before e = e.time < ev.time || (e.time = ev.time && e.seq < ev.seq) in
    let earlier, later = List.partition before t.queue in
    t.queue <- earlier @ (ev :: later);
    ev

  let schedule_at t ~time thunk = ignore (add t ~time thunk)
  let schedule t ~delay thunk = schedule_at t ~time:(t.clock +. Float.max delay 0.0) thunk
  let timer t ~delay thunk = add t ~time:(t.clock +. Float.max delay 0.0) thunk
  let cancel _ ev = ev.cancelled <- true

  let scoped t daemon f =
    let outer = t.daemon in
    t.daemon <- daemon;
    let r = f () in
    t.daemon <- outer;
    r

  let daemon t f = scoped t true f

  (* Cancelled entries stay in the queue, so a cancelled foreground entry
     still holds the run open. *)
  let rec run ?(until = infinity) ?(work = fun () -> false) t =
    match t.queue with
    | ev :: rest when ev.time <= until ->
      if List.for_all (fun (ev : ev) -> ev.daemon) t.queue && not (work ()) then ()
      else begin
        t.queue <- rest;
        t.clock <- ev.time;
        if not ev.cancelled then scoped t ev.daemon ev.thunk;
        run ~until ~work t
      end
    | _ -> ()

  let pending t = List.length (List.filter (fun ev -> not ev.cancelled) t.queue)
end

module Real : ENGINE = struct
  include Engine

  let create () = Engine.create ~seed:1
end

type log_entry =
  | Fired of int * float (* event id, time *)
  | Cancelled of int
  | Asked of float (* the work flag consulted, at this time *)
  | Ran of float * int (* now and pending after a run *)

(* Event ids count up in scheduling order, so they order events exactly as
   the engine's insertion sequence does. *)
module Interp (E : ENGINE) = struct
  let exec program =
    let e = E.create () in
    let log = ref [] and next_id = ref 0 and timers = ref [] and work = ref false in
    let fresh () =
      incr next_id;
      !next_id
    in
    let rec act = function
      | Schedule (delay, body) ->
        let id = fresh () in
        E.schedule e ~delay (fire id body)
      | Schedule_at (time, body) ->
        let id = fresh () in
        E.schedule_at e ~time (fire id body)
      | Timer (delay, body) ->
        let id = fresh () in
        timers := !timers @ [ (id, E.timer e ~delay (fire id body)) ]
      | Cancel k -> (
        match !timers with
        | [] -> ()
        | armed ->
          let id, h = List.nth armed (k mod List.length armed) in
          log := Cancelled id :: !log;
          E.cancel e h)
      | Daemon body -> E.daemon e (fun () -> List.iter act body)
      | Set_work b -> work := b
    and fire id body () =
      log := Fired (id, E.now e) :: !log;
      List.iter act body
    in
    List.iter
      (function
        | Act a -> act a
        | Run until ->
          E.run ?until
            ~work:(fun () ->
              log := Asked (E.now e) :: !log;
              !work)
            e;
          log := Ran (E.now e, E.pending e) :: !log)
      (program @ [ Run None ]);
    List.rev !log
end

module Run_real = Interp (Real)
module Run_reference = Interp (Reference)

let gen_program =
  let open QCheck2.Gen in
  let small = map float_of_int (int_bound 4) in
  let action =
    fix
      (fun self depth ->
        let body = if depth = 0 then pure [] else list_size (int_bound 2) (self (depth - 1)) in
        frequency
          [
            (3, map2 (fun d b -> Schedule (d, b)) small body);
            (2, map2 (fun t b -> Schedule_at (t, b)) (map float_of_int (int_bound 12)) body);
            (3, map2 (fun d b -> Timer (d, b)) small body);
            (3, map (fun k -> Cancel k) (int_bound 20));
            (2, map (fun b -> Daemon b) body);
            (1, map (fun b -> Set_work b) bool);
          ])
      2
  in
  let step =
    frequency
      [ (5, map (fun a -> Act a) action); (1, map (fun t -> Run (Some (float_of_int t))) (int_bound 15)) ]
  in
  list_size (int_range 1 30) step

let rec pp_action ppf = function
  | Schedule (d, b) -> Fmt.pf ppf "schedule %g %a" d pp_body b
  | Schedule_at (t, b) -> Fmt.pf ppf "schedule_at %g %a" t pp_body b
  | Timer (d, b) -> Fmt.pf ppf "timer %g %a" d pp_body b
  | Cancel k -> Fmt.pf ppf "cancel %d" k
  | Daemon b -> Fmt.pf ppf "daemon %a" pp_body b
  | Set_work b -> Fmt.pf ppf "work %b" b

and pp_body ppf b = Fmt.pf ppf "[%a]" Fmt.(list ~sep:semi pp_action) b

let pp_step ppf = function
  | Act a -> pp_action ppf a
  | Run u -> Fmt.pf ppf "run %a" Fmt.(option ~none:(any "-") float) u

(* Dispatch in (time, id) order, and no event fires after its cancel. *)
let well_ordered log =
  let rec go last cancelled = function
    | [] -> true
    | Fired (id, time) :: rest ->
      (match last with
       | Some (t0, id0) -> t0 < time || (t0 = time && id0 < id)
       | None -> true)
      && (not (List.mem id cancelled))
      && go (Some (time, id)) cancelled rest
    | Cancelled id :: rest -> go last (id :: cancelled) rest
    | (Asked _ | Ran _) :: rest -> go last cancelled rest
  in
  go None [] log

let test_engine_model =
  QCheck2.Test.make ~name:"engine: schedule/timer/cancel/run agree with a sorted-list model"
    ~count:500
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_step))
    gen_program
    (fun program ->
      let real = Run_real.exec program in
      real = Run_reference.exec program && well_ordered real)

(* A cancelled entry never runs and is not pending, but it keeps its slot:
   the clock still passes its deadline. *)
let test_engine_cancel_keeps_deadline () =
  let engine = Engine.create ~seed:1 in
  let ran = ref false in
  let h = Engine.timer engine ~delay:30.0 (fun () -> ran := true) in
  Engine.schedule engine ~delay:10.0 (fun () -> Engine.cancel engine h);
  Engine.run ~until:20.0 engine;
  check_int "cancelled timer not pending" 0 (Engine.pending engine);
  Engine.run engine;
  check_bool "never ran" false !ran;
  check_float "clock passed its deadline" 30.0 (Engine.now engine)

let test_network_delivery () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:3 ~latency_mean:2.0 () in
  let delivered = ref false in
  Network.send net ~src:0 ~dst:1 (fun () -> delivered := true);
  Engine.run engine;
  check_bool "delivered" true !delivered

let test_network_crash_blocks_delivery () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:3 () in
  Network.crash net 1;
  let delivered = ref false in
  Network.send net ~src:0 ~dst:1 (fun () -> delivered := true);
  Engine.run engine;
  check_bool "not delivered to crashed site" false !delivered;
  check_bool "site reported down" false (Network.site_up net 1)

let test_network_recover () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  Network.crash net 1;
  Network.recover net 1;
  check_bool "up again" true (Network.site_up net 1);
  Alcotest.(check (list int)) "all up" [ 0; 1 ] (Network.up_sites net)

let test_network_partition_blocks_cross_traffic () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:4 () in
  Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  let cross = ref false and intra = ref false in
  Network.send net ~src:0 ~dst:2 (fun () -> cross := true);
  Network.send net ~src:0 ~dst:1 (fun () -> intra := true);
  Engine.run engine;
  check_bool "cross-partition dropped" false !cross;
  check_bool "intra-partition delivered" true !intra;
  check_bool "reachable respects partition" false (Network.reachable net 0 2);
  Network.heal net;
  check_bool "healed" true (Network.reachable net 0 2)

(* Regression: sites left out of every group used to be lumped into one
   shared group, so two unlisted sites could still talk to each other. Each
   unlisted site must be isolated in its own singleton group. *)
let test_network_partition_unlisted_sites_isolated () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:4 () in
  Network.partition net [ [ 0; 1 ] ];
  check_bool "unlisted pair cannot talk" false (Network.reachable net 2 3);
  check_bool "unlisted cut from listed" false (Network.reachable net 0 2);
  check_bool "listed group intact" true (Network.reachable net 0 1);
  let cross = ref false in
  Network.send net ~src:2 ~dst:3 (fun () -> cross := true);
  Engine.run engine;
  check_bool "unlisted-to-unlisted dropped" false !cross;
  Network.heal net;
  check_bool "healed" true (Network.reachable net 2 3)

let test_network_drop_probability () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 ~drop_probability:1.0 () in
  let delivered = ref false in
  Network.send net ~src:0 ~dst:1 (fun () -> delivered := true);
  Engine.run engine;
  check_bool "always dropped" false !delivered

let test_self_send_never_drops () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 ~drop_probability:1.0 () in
  let delivered = ref false in
  Network.send net ~src:0 ~dst:0 (fun () -> delivered := true);
  Engine.run engine;
  check_bool "self delivery" true !delivered

let test_rpc_roundtrip () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  let result = ref None in
  Rpc.call net ~src:0 ~dst:1 ~timeout:100.0
    ~handler:(fun () -> 42)
    ~reply:(fun r -> result := r);
  Engine.run engine;
  Alcotest.(check (option int)) "roundtrip" (Some 42) !result

let test_rpc_timeout_on_crash () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  Network.crash net 1;
  let result = ref (Some 0) in
  Rpc.call net ~src:0 ~dst:1 ~timeout:30.0
    ~handler:(fun () -> 42)
    ~reply:(fun r -> result := r);
  Engine.run engine;
  Alcotest.(check (option int)) "timeout" None !result

let test_rpc_reply_exactly_once () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  let count = ref 0 in
  Rpc.call net ~src:0 ~dst:1 ~timeout:1000.0
    ~handler:(fun () -> ())
    ~reply:(fun _ -> incr count);
  Engine.run engine;
  check_int "exactly once" 1 !count

(* A settled call leaves no timer behind: the reply cancels the timeout,
   whose deadline the clock still passes. *)
let test_rpc_reply_cancels_timeout () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  let pending_at_reply = ref (-1) in
  Rpc.call net ~src:0 ~dst:1 ~timeout:100.0
    ~handler:(fun () -> ())
    ~reply:(fun r ->
      check_bool "replied" true (r <> None);
      pending_at_reply := Engine.pending engine);
  Engine.run engine;
  check_int "no timer pending after the reply" 0 !pending_at_reply;
  check_int "no timeout counted" 0 (Network.stats net).Network.rpc_timeouts;
  check_float "clock passed the cancelled deadline" 100.0 (Engine.now engine)

let test_rpc_late_reply_ignored () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  (* 1000x slower service at site 1: the reply lands long after the
     timeout. *)
  Network.set_fail_slow net ~site:1 (Network.Slow_constant 1000.0);
  let handled = ref 0 and replies = ref [] in
  Rpc.call net ~src:0 ~dst:1 ~timeout:10.0
    ~handler:(fun () -> incr handled)
    ~reply:(fun r -> replies := r :: !replies);
  Engine.run engine;
  let stats = Network.stats net in
  check_int "handler ran" 1 !handled;
  check_int "reply delivered" 2 stats.Network.sent;
  check_int "timed out" 1 stats.Network.rpc_timeouts;
  Alcotest.(check (list (option unit))) "reply ran once, with the timeout" [ None ] !replies

let test_multicast_hedge_cancelled () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:3 () in
  let hedged = ref 0 and pending_at_gather = ref (-1) in
  let hedge =
    {
      Rpc.h_delay = (fun () -> 1000.0);
      h_spares = [ 2 ];
      h_max = 2;
      h_on_hedge = (fun ~dst:_ -> incr hedged);
      h_on_win = (fun ~dst:_ -> ());
    }
  in
  Rpc.multicast ~hedge net ~src:0 ~dsts:[ 0; 1 ] ~timeout:2000.0
    ~handler:(fun site -> site)
    ~gather:(fun replies ->
      check_int "both replied" 2 (List.length replies);
      check_bool "before the hedge delay" true (Engine.now engine < 1000.0);
      pending_at_gather := Engine.pending engine);
  Engine.run engine;
  check_int "no hedge timer or timeout pending at gather" 0 !pending_at_gather;
  check_int "no hedge issued" 0 !hedged

let test_multicast_gathers_all_up () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:4 () in
  Network.crash net 3;
  let gathered = ref [] in
  Rpc.multicast net ~src:0 ~dsts:[ 0; 1; 2; 3 ] ~timeout:30.0
    ~handler:(fun site -> site * 10)
    ~gather:(fun replies -> gathered := replies);
  Engine.run engine;
  check_int "three replies" 3 (List.length !gathered);
  check_bool "crashed missing" true (not (List.mem_assoc 3 !gathered))

let test_multicast_empty () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  let called = ref false in
  Rpc.multicast net ~src:0 ~dsts:[] ~timeout:10.0
    ~handler:(fun _ -> ())
    ~gather:(fun replies -> called := replies = []);
  Engine.run engine;
  check_bool "gather called with empty" true !called

let test_fault_crash_recover_cycles () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:1 () in
  Fault.crash_recover net ~site:0 ~mtbf:10.0 ~mttr:5.0;
  Engine.run ~until:200.0 engine;
  (* The process keeps scheduling events forever; reaching the horizon with
     pending events proves it cycles. *)
  check_bool "cycle continues" true (Engine.pending engine > 0)

let test_periodic_partition_heals () =
  let engine = Engine.create ~seed:1 in
  let net = Network.create engine ~n_sites:2 () in
  Fault.periodic_partition net ~groups:[ [ 0 ]; [ 1 ] ] ~every:50.0 ~duration:10.0;
  let during = ref true and after = ref false in
  Engine.schedule engine ~delay:55.0 (fun () -> during := Network.reachable net 0 1);
  Engine.schedule engine ~delay:70.0 (fun () -> after := Network.reachable net 0 1);
  Engine.run ~until:80.0 engine;
  check_bool "partitioned during window" false !during;
  check_bool "healed after window" true !after

let suites =
  [
    ( "simulator",
      [
        Alcotest.test_case "events ordered by time" `Quick test_engine_orders_by_time;
        Alcotest.test_case "FIFO at equal times" `Quick test_engine_fifo_at_same_time;
        Alcotest.test_case "clock advances" `Quick test_engine_now_advances;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "order past the heap's capacity" `Quick
          test_engine_orders_past_capacity;
        Alcotest.test_case "horizon" `Quick test_engine_until_horizon;
        Alcotest.test_case "cancel keeps the deadline" `Quick
          test_engine_cancel_keeps_deadline;
        QCheck_alcotest.to_alcotest test_engine_model;
        Alcotest.test_case "network delivery" `Quick test_network_delivery;
        Alcotest.test_case "crash blocks delivery" `Quick test_network_crash_blocks_delivery;
        Alcotest.test_case "recovery" `Quick test_network_recover;
        Alcotest.test_case "partition semantics" `Quick test_network_partition_blocks_cross_traffic;
        Alcotest.test_case "partition isolates unlisted sites" `Quick
          test_network_partition_unlisted_sites_isolated;
        Alcotest.test_case "message loss" `Quick test_network_drop_probability;
        Alcotest.test_case "self-send reliable" `Quick test_self_send_never_drops;
        Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
        Alcotest.test_case "rpc timeout" `Quick test_rpc_timeout_on_crash;
        Alcotest.test_case "rpc replies exactly once" `Quick test_rpc_reply_exactly_once;
        Alcotest.test_case "rpc reply cancels its timeout" `Quick
          test_rpc_reply_cancels_timeout;
        Alcotest.test_case "rpc late reply ignored" `Quick test_rpc_late_reply_ignored;
        Alcotest.test_case "multicast cancels its hedge" `Quick
          test_multicast_hedge_cancelled;
        Alcotest.test_case "multicast gathers" `Quick test_multicast_gathers_all_up;
        Alcotest.test_case "multicast empty" `Quick test_multicast_empty;
        Alcotest.test_case "crash/recover cycles" `Quick test_fault_crash_recover_cycles;
        Alcotest.test_case "periodic partition" `Quick test_periodic_partition_heals;
      ] );
  ]
