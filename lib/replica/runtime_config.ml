(* Static run configuration: every record the runtime is configured with,
   and the defaults. {!Runtime} re-exports these types; their fields are
   documented in runtime.mli. Mutable per-run state lives in
   {!Run_state}. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_sim
open Atomrep_stats
open Atomrep_txn

type object_config = {
  obj_name : string;
  obj_spec : Serial_spec.t;
  obj_relation : Relation.t;
  obj_assignment : Assignment.t;
  obj_members : int list option;
}

type op_request = { target : string; invocation : Event.Invocation.t }

type reconfig = {
  allow_barrier : bool;
  unsafe_no_barrier : bool;
  plan_override :
    (live:int list -> n_sites:int -> (int list * Assignment.t) option) option;
}

let default_reconfig =
  { allow_barrier = true; unsafe_no_barrier = false; plan_override = None }

type deadlock_mode = No_deadlock | Detect | Wound_wait

let deadlock_mode_name = function
  | No_deadlock -> "none"
  | Detect -> "detect"
  | Wound_wait -> "wound-wait"

let deadlock_mode_of_string = function
  | "none" -> Some No_deadlock
  | "detect" -> Some Detect
  | "wound-wait" -> Some Wound_wait
  | _ -> None

type shed_policy = Reject_newest | Shed_reads_first

let shed_policy_name = function
  | Reject_newest -> "reject-newest"
  | Shed_reads_first -> "shed-reads-first"

let shed_policy_of_string = function
  | "reject-newest" -> Some Reject_newest
  | "shed-reads-first" -> Some Shed_reads_first
  | _ -> None

type admission = {
  max_in_flight : int;
  queue_limit : int;
  deadline : float;
  adm_shed_policy : shed_policy;
  adm_breaker : bool;
}

let default_admission =
  {
    max_in_flight = 8;
    queue_limit = 16;
    deadline = Float.infinity;
    adm_shed_policy = Reject_newest;
    adm_breaker = false;
  }

type load = {
  arrivals : float array;
  home_of : int -> int;
  session_of : int -> int;
  class_of : int -> [ `Read | `Write ];
}

type gray = { hedge : bool; demote : bool }

type config = {
  seed : int;
  n_sites : int;
  scheme : Replicated.scheme;
  objects : object_config list;
  n_txns : int;
  arrival_mean : float;
  script : Rng.t -> int -> op_request list;
  max_retries : int;
  retry_delay : float;
  retry_delay_cap : float;
  install_faults : Network.t -> unit;
  horizon : float;
  anti_entropy_every : float option;
  reconfig : reconfig option;
  trace : Atomrep_obs.Trace.t option;
  ungated_rejoin : bool;
  durability : Repository.durability;
  termination : Termination.mode;
  deadlock : deadlock_mode;
  takeover : bool;
  admission : admission option;
  retry_budget : int;
  load : load option;
  timely_bound : float;
  gray : gray option;
  fail_slow : (int * float * Network.slow_mode) list;
  profile : Atomrep_obs.Profile.t;
  timeseries : Atomrep_obs.Timeseries.t;
}

let default_queue_assignment ~n_sites =
  let majority = (n_sites / 2) + 1 in
  Assignment.make ~n_sites
    [
      ("Enq", { Assignment.initial = majority; final = majority });
      ("Deq", { Assignment.initial = majority; final = majority });
    ]

let queue_objects ~n_sites =
  [
    {
      obj_name = "queue";
      obj_spec = Queue_type.spec;
      obj_relation = Static_dep.minimal Queue_type.spec ~max_len:4;
      obj_assignment = default_queue_assignment ~n_sites;
      obj_members = None;
    };
  ]

let default_gray = { hedge = true; demote = true }

(* Mean one-way message latency of every run's network, in ms. *)
let latency_mean = 2.0

let default_config =
  {
    seed = 42;
    n_sites = 3;
    scheme = Replicated.Hybrid;
    objects = queue_objects ~n_sites:3;
    n_txns = 20;
    arrival_mean = 30.0;
    script =
      (fun rng _ ->
        let op =
          if Rng.bool rng then { target = "queue"; invocation = Queue_type.enq_inv "x" }
          else { target = "queue"; invocation = Queue_type.deq_inv }
        in
        [ op ]);
    max_retries = 8;
    retry_delay = 25.0;
    retry_delay_cap = 400.0;
    install_faults = (fun _ -> ());
    horizon = 1_000_000.0;
    anti_entropy_every = None;
    reconfig = None;
    trace = None;
    ungated_rejoin = false;
    durability = Repository.Volatile;
    termination = Termination.Disabled;
    deadlock = No_deadlock;
    takeover = false;
    admission = None;
    retry_budget = max_int;
    load = None;
    timely_bound = infinity;
    gray = None;
    fail_slow = [];
    profile = Atomrep_obs.Profile.null;
    timeseries = Atomrep_obs.Timeseries.null;
  }

(* Capped exponential backoff with jitter: attempt 0 waits around the base
   delay, each further attempt doubles it up to the cap, and the uniform
   jitter in [0.5, 1.5) keeps two mutually-refused operations from
   retrying in lock-step. The cap clamps the jittered delay, not just the
   exponential part, so no delay ever exceeds [retry_delay_cap]. *)
let backoff_delay cfg rng ~attempt =
  let exp = cfg.retry_delay *. (2.0 ** float_of_int attempt) in
  Float.min (exp *. (0.5 +. Rng.float rng 1.0)) cfg.retry_delay_cap
