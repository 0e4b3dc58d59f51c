(* Open-loop traffic plans: arrival schedules precomputed from their own
   seed, independent of the simulation engine's RNG. A closed-loop
   workload (the runtime's default Poisson process) implicitly backs off
   when the system slows — each arrival is drawn relative to the last, so
   a congested run simply spreads its offered load. Open-loop plans fix
   the offered load up front: arrivals keep coming at the planned rate no
   matter how the system is doing, which is what exposes the overload
   knee and the metastable retry-amplification regime.

   Everything here is pure planning: the generator draws only from the
   plan's private SplitMix64 stream, so the same seed yields the same
   schedule byte for byte regardless of scheme, admission settings, or
   how many domains the surrounding sweep runs on. The per-transaction
   scripts below draw nothing from the engine RNG either, so two runs
   over one plan differ only in the mechanism under test. *)

open Atomrep_spec
open Atomrep_stats
open Atomrep_replica
open Atomrep_core
open Atomrep_quorum

type curve =
  | Constant
  | Ramp of float
  | Diurnal of { trough : float; period : float }
  | Flash_crowd of { at : float; duration : float; mult : float }

let curve_name = function
  | Constant -> "constant"
  | Ramp _ -> "ramp"
  | Diurnal _ -> "diurnal"
  | Flash_crowd _ -> "flash-crowd"

(* Instantaneous rate multiplier at time [t] (fraction of the horizon
   elapsed handles Ramp without carrying the horizon everywhere). *)
let multiplier curve ~horizon t =
  match curve with
  | Constant -> 1.0
  | Ramp m ->
    let frac = if horizon <= 0.0 then 1.0 else t /. horizon in
    1.0 +. ((m -. 1.0) *. frac)
  | Diurnal { trough; period } ->
    (* Sinusoid between [trough] and 1, starting at the peak. *)
    let phase = 2.0 *. Float.pi *. t /. period in
    let mid = (1.0 +. trough) /. 2.0 in
    let amp = (1.0 -. trough) /. 2.0 in
    mid +. (amp *. cos phase)
  | Flash_crowd { at; duration; mult } ->
    if t >= at && t < at +. duration then mult else 1.0

let peak_multiplier = function
  | Constant -> 1.0
  | Ramp m -> Float.max 1.0 m
  | Diurnal _ -> 1.0
  | Flash_crowd { mult; _ } -> Float.max 1.0 mult

type profile = Read_mostly | Write_heavy | Queue_fanout

let profile_name = function
  | Read_mostly -> "read-mostly"
  | Write_heavy -> "write-heavy"
  | Queue_fanout -> "queue-fanout"

let read_ratio = function
  | Read_mostly -> 0.9
  | Write_heavy -> 0.1
  | Queue_fanout -> 0.5

(* Zipf(theta) over ranks 0..n-1: P(k) proportional to 1/(k+1)^theta.
   The cumulative table is tiny (one cell per object) and sampling is a
   binary search over it — one uniform draw per sample. theta = 0 is
   uniform; theta around 1 gives the classic heavy skew. *)
let zipf_cdf ~n ~theta =
  let n = max 1 n in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !acc
  done;
  let total = cdf.(n - 1) in
  Array.map (fun c -> c /. total) cdf

let zipf_sample rng ~cdf =
  let u = Rng.float rng 1.0 in
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type t = {
  arrivals : float array;
  homes : int array;
  sessions : int array;
  classes : bool array; (* true = read *)
  objs : int array;
  pl_profile : profile;
  pl_n_objects : int;
}

let n_txns t = Array.length t.arrivals
let profile t = t.pl_profile
let n_objects t = t.pl_n_objects

let plan ?(curve = Constant) ?(profile = Queue_fanout) ?(n_objects = 1)
    ?(zipf_theta = 0.9) ?(n_sites = 3) ?(n_sessions = 6) ~seed ~rate ~horizon ()
    =
  let rng = Rng.create seed in
  let n_objects = max 1 n_objects
  and n_sessions = max 1 n_sessions
  and n_sites = max 1 n_sites in
  let cdf = zipf_cdf ~n:n_objects ~theta:zipf_theta in
  let peak = rate *. peak_multiplier curve in
  let r_read = read_ratio profile in
  (* Lewis–Shedler thinning: a homogeneous Poisson process at the peak
     rate, keeping each candidate with probability rate(t)/peak. The
     thinning draw happens even for Constant so switching curves at one
     seed reuses the same candidate skeleton. *)
  let arrivals = ref []
  and homes = ref []
  and sessions = ref []
  and classes = ref []
  and objs = ref []
  and count = ref 0 in
  let t = ref 0.0 in
  let continue = ref (peak > 0.0 && horizon > 0.0) in
  while !continue do
    t := !t +. Rng.exponential rng (1.0 /. peak);
    if !t >= horizon then continue := false
    else begin
      let keep = Rng.float rng 1.0 <= rate *. multiplier curve ~horizon !t /. peak in
      if keep then begin
        let session = Rng.int rng n_sessions in
        arrivals := !t :: !arrivals;
        sessions := session :: !sessions;
        homes := session mod n_sites :: !homes;
        objs := zipf_sample rng ~cdf :: !objs;
        classes := Rng.bernoulli rng r_read :: !classes;
        incr count
      end
    end
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    arrivals = arr !arrivals;
    homes = arr !homes;
    sessions = arr !sessions;
    classes = arr !classes;
    objs = arr !objs;
    pl_profile = profile;
    pl_n_objects = n_objects;
  }

let target_name i = Printf.sprintf "o%d" i

let load t =
  let n = n_txns t in
  let safe a i default = if i >= 0 && i < n then a.(i) else default in
  {
    Runtime.arrivals = t.arrivals;
    home_of = (fun i -> safe t.homes i 0);
    session_of = (fun i -> safe t.sessions i 0);
    class_of = (fun i -> if safe t.classes i false then `Read else `Write);
  }

(* Scripts draw nothing from the engine RNG: the operation for index [i]
   is a pure function of the plan, so admission on/off (or scheme A/B)
   runs over one plan execute identical operation sequences. *)
let script t _rng i =
  if i < 0 || i >= n_txns t then []
  else begin
    let target = target_name (t.objs.(i) mod t.pl_n_objects) in
    let read = t.classes.(i) in
    match t.pl_profile with
    | Queue_fanout ->
      if read then [ { Runtime.target; invocation = Queue_type.deq_inv } ]
      else
        [
          {
            Runtime.target;
            invocation = Queue_type.enq_inv (if i land 1 = 0 then "x" else "y");
          };
        ]
    | Read_mostly | Write_heavy ->
      if read then [ { Runtime.target; invocation = Counter.read_inv } ]
      else if i land 1 = 0 then
        [ { Runtime.target; invocation = Counter.inc_inv } ]
      else [ { Runtime.target; invocation = Counter.dec_inv } ]
  end

(* Every object of a plan shares one type, and the minimal dependency
   relation depends only on the type's serial spec (Theorem 6), so it is
   computed once per call and shared by all the plan's objects. *)
let objects t ~n_sites =
  let majority = (n_sites / 2) + 1 in
  let q = { Assignment.initial = majority; final = majority } in
  match t.pl_profile with
  | Queue_fanout ->
    let relation = Static_dep.minimal Queue_type.spec in
    List.init t.pl_n_objects (fun i ->
        {
          Runtime.obj_name = target_name i;
          obj_spec = Queue_type.spec;
          obj_relation = relation;
          obj_assignment = Assignment.make ~n_sites [ ("Enq", q); ("Deq", q) ];
          obj_members = None;
        })
  | Read_mostly | Write_heavy ->
    let relation = Static_dep.minimal Counter.spec in
    List.init t.pl_n_objects (fun i ->
        {
          Runtime.obj_name = target_name i;
          obj_spec = Counter.spec;
          obj_relation = relation;
          obj_assignment =
            Assignment.make ~n_sites [ ("Inc", q); ("Dec", q); ("Read", q) ];
          obj_members = None;
        })

(* One-call wiring: overwrite the config's workload fields with the
   plan's. Everything else (scheme, faults, timeouts, admission) stays
   the caller's choice. *)
let apply t (cfg : Runtime.config) =
  {
    cfg with
    Runtime.objects = objects t ~n_sites:cfg.Runtime.n_sites;
    n_txns = n_txns t;
    script = script t;
    load = Some (load t);
  }
