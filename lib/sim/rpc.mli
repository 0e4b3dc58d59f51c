(** Request/response on top of {!Network} with timeouts.

    The absence of a response may mean the request was lost, the reply was
    lost, the recipient crashed, or the recipient is slow (paper, §3); the
    caller sees only a timeout. *)

type hedge = {
  h_delay : unit -> float;
      (** sim-time to wait before hedging, read when the round is issued —
          adaptive callers return a live latency percentile *)
  h_spares : int list;
      (** spare members outside the round to enlist as extra voters, in
          preference order, after the re-issues to unanswered destinations;
          spares already among the round's destinations are skipped *)
  h_max : int;  (** at most this many hedged requests per round *)
  h_on_hedge : dst:int -> unit;  (** a hedged request was issued *)
  h_on_win : dst:int -> unit;
      (** a hedged request's reply was the first its site delivered before
          the gather fired *)
}
(** Hedging policy for a {!multicast} round: if the round is still
    unsatisfied after [h_delay ()], issue up to [h_max] hedged requests —
    first re-issues to destinations still lacking a reply (a fresh send
    re-rolls a straggling link's latency draw), then to spare members
    outside the round. Handlers must be idempotent — a slow original's
    late reply and the hedge's reply may both be delivered (first reply
    per site wins; the duplicate is counted, never double-counted in the
    gather). Destinations the network router refuses (circuit breaker
    open) are skipped. *)

val call :
  Network.t ->
  src:int ->
  dst:int ->
  timeout:float ->
  handler:(unit -> 'resp) ->
  reply:('resp option -> unit) ->
  unit
(** Run [handler] at [dst]; deliver [Some response] back at [src], or [None]
    at [src] once [timeout] elapses without a response. [reply] runs exactly
    once; a reply that arrives after the timeout is ignored. A settled call
    leaves no timer behind: the reply cancels the timeout
    ({!Engine.cancel}), so it never runs and {!Engine.pending} no longer
    counts it. *)

val multicast :
  ?enough:((int * 'resp) list -> bool) ->
  ?hedge:hedge ->
  ?on_late:(dst:int -> ok:bool -> unit) ->
  ?on_issue:(dst:int -> unit) ->
  ?on_settle:(dst:int -> unit) ->
  Network.t ->
  src:int ->
  dsts:int list ->
  timeout:float ->
  handler:(int -> 'resp) ->
  gather:((int * 'resp) list -> unit) ->
  unit
(** Call every destination in parallel; pass the successful
    (site, response) pairs to [gather], which runs exactly once (or not at
    all if the simulation horizon arrives first).

    Without [enough], [gather] fires when every destination has replied or
    timed out — the historical all-or-timeout behaviour. With [enough],
    the predicate is evaluated on the successful replies so far after each
    arrival, and [gather] fires the moment it is satisfied: an
    early-quorum round proceeds at the speed of the fastest satisfying
    vote set, not the slowest member. Replies arriving after [gather]
    fired are stragglers: each still emits an [Rpc_outcome] trace event
    and is reported to [on_late], but never re-drives [gather].

    [hedge] issues hedged requests once the round lags [h_delay]; hedged
    calls join the all-settled completion rule, so a round never gives up
    while a hedge it fired is still in flight. A round whose gather fires
    first cancels its hedge timer.

    [on_issue] fires when a request (primary or hedged) is issued to a
    destination; [on_settle] fires exactly once per issued call when it
    settles — reply delivered or timeout expired — whether or not the
    gather already ran, and before any gather that settlement triggers. A
    destination that was hedged settles once per call, so callers should
    pair the two as a counter, not a flag. Together they let a caller
    sequence per-site follow-up traffic after the request's effect has
    landed at that site: an early-quorum gather runs while laggards'
    requests are still in flight, and simulated links reorder, so
    follow-ups broadcast at gather time could overtake the request they
    mean to undo. *)
