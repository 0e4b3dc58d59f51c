(** Open-loop traffic plans: precomputed arrival schedules with rate
    curves, Zipf object skew and per-session streams.

    The runtime's default workload is effectively closed-loop at the
    planning level: each Poisson inter-arrival is drawn from the engine
    RNG as the run executes, so schedules are entangled with everything
    else the engine draws. An open-loop plan is built entirely up front
    from its own seed — offered load never adapts to system state, which
    is the regime that exposes overload knees, goodput collapse and
    retry-amplification metastability (and makes A/B comparisons honest:
    admission on and off replay byte-identical arrival schedules and
    operation scripts).

    Determinism: {!plan} draws only from a private stream seeded by
    [seed]; the same arguments give the same plan regardless of scheme,
    admission settings, or how many domains a surrounding sweep uses.
    {!script} ignores its engine-RNG argument. *)

open Atomrep_stats
open Atomrep_replica

(** Offered-rate shape over the run, as a multiplier on the base rate. *)
type curve =
  | Constant
  | Ramp of float  (** linear from 1x at t=0 to the given multiple at horizon *)
  | Diurnal of { trough : float; period : float }
      (** sinusoid between [trough]x and 1x, starting at the peak *)
  | Flash_crowd of { at : float; duration : float; mult : float }
      (** 1x except a burst window \[at, at+duration) at [mult]x *)

val curve_name : curve -> string

val multiplier : curve -> horizon:float -> float -> float
(** Instantaneous rate multiplier at a time (exposed for tests). *)

type profile = Read_mostly | Write_heavy | Queue_fanout

val profile_name : profile -> string

val read_ratio : profile -> float
(** Fraction of transactions classed [`Read]: 0.9 / 0.1 / 0.5. *)

val zipf_cdf : n:int -> theta:float -> float array
(** Cumulative distribution of Zipf(theta) over ranks [0..n-1]
    (P(k) proportional to 1/(k+1)^theta; theta 0 is uniform). *)

val zipf_sample : Rng.t -> cdf:float array -> int
(** One rank, by binary search over the cumulative table (one draw). *)

type t
(** A finished plan: arrival times plus per-transaction home site,
    session, read/write class and Zipf-ranked object. *)

val plan :
  ?curve:curve ->
  ?profile:profile ->
  ?n_objects:int ->
  ?zipf_theta:float ->
  ?n_sites:int ->
  ?n_sessions:int ->
  seed:int ->
  rate:float ->
  horizon:float ->
  unit ->
  t
(** Build a plan: a Poisson process at base [rate] (arrivals per
    simulated ms) shaped by [curve] via Lewis–Shedler thinning, truncated
    at [horizon]. Sessions are assigned uniformly and pinned to home site
    [session mod n_sites], so one session's commit timestamps come from
    one Lamport clock (the invariant the per-session monotonicity monitor
    checks). Defaults: constant curve, [Queue_fanout], 1 object,
    theta 0.9, 3 sites, 6 sessions. *)

val n_txns : t -> int
val profile : t -> profile
val n_objects : t -> int

val target_name : int -> string
(** Object [i]'s name, ["o<i>"]. *)

val load : t -> Runtime.load
(** The plan as the runtime's open-loop arrival table. *)

val script : t -> Rng.t -> int -> Runtime.op_request list
(** Per-transaction operations: queue enq/deq ([Queue_fanout]) or counter
    read/inc/dec, chosen by the plan's class and object arrays — the
    engine RNG argument is ignored, so scripts are identical across
    schemes and admission settings. *)

val objects : t -> n_sites:int -> Runtime.object_config list
(** Majority-quorum object configs matching {!script}'s targets. *)

val apply : t -> Runtime.config -> Runtime.config
(** Overwrite a config's workload fields ([objects], [n_txns], [script],
    [load]) with the plan's; everything else is untouched. *)
