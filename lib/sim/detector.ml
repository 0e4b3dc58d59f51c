open Atomrep_stats
module Sitelat = Atomrep_obs.Sitelat

type slow_config = {
  sc_alpha : float;
  sc_window : int;
  sc_factor : float;
  sc_after : int;
  sc_clear : int;
  sc_min_samples : int;
}

let default_slow_config =
  {
    sc_alpha = 0.2;
    sc_window = 64;
    sc_factor = 3.0;
    sc_after = 5;
    sc_clear = 5;
    sc_min_samples = 8;
  }

(* Latency-aware suspicion state, present only when a [slow_config] was
   supplied: per-site EWMA + windowed-p99 books scored against the cluster
   median, with streak hysteresis on raise and clear. *)
type slow_state = {
  cfg : slow_config;
  book : Sitelat.t;
  hi_streak : int array; (* consecutive samples scoring over the factor *)
  lo_streak : int array; (* consecutive samples scoring under it *)
  is_slow : bool array;
  since : float array; (* sim-time the current suspicion was raised *)
  mutable slow_transitions : int;
}

type t = {
  net : Network.t;
  rng : Rng.t;
  probe_every : float;
  timeout : float;
  suspect_after : int;
  monitor : int;
  misses : int array;
  susp : bool array;
  mutable transitions : int;
  slow : slow_state option;
}

let monitor t = t.monitor
let suspected t site = t.susp.(site)

let live t =
  List.filter
    (fun site -> not t.susp.(site))
    (List.init (Network.n_sites t.net) Fun.id)

let transitions t = t.transitions

let set_suspected t site v =
  if t.susp.(site) <> v then begin
    t.susp.(site) <- v;
    t.transitions <- t.transitions + 1;
    let tr = Network.trace t.net in
    if Atomrep_obs.Trace.enabled tr then
      ignore
        (Atomrep_obs.Trace.emit tr ~site:t.monitor
           (if v then Atomrep_obs.Trace.Detector_suspect { site }
            else Atomrep_obs.Trace.Detector_trust { site }))
  end

let slow_suspected t site =
  match t.slow with None -> false | Some s -> s.is_slow.(site)

let slow_since t site =
  match t.slow with
  | Some s when s.is_slow.(site) -> Some s.since.(site)
  | _ -> None

let slow_transitions t =
  match t.slow with None -> 0 | Some s -> s.slow_transitions

let fast_sites t =
  List.filter (fun site -> not (slow_suspected t site)) (live t)

(* A site's latency score: how many times worse than the cluster median it
   currently runs, on whichever of the two signals (smoothed mean, windowed
   p99) looks worse. The median is taken over every site with samples, so a
   minority of gray sites cannot drag the baseline up with them; a healthy
   cluster scores everyone near 1.0. *)
let score_of s ~site =
  if Sitelat.samples s.book ~site < s.cfg.sc_min_samples then 1.0
  else begin
    let med_ewma = Sitelat.median_ewma s.book in
    let med_p99 = Sitelat.median_percentile s.book ~q:0.99 in
    let ratio v m = if m > 0.0 then v /. m else 1.0 in
    Float.max
      (ratio (Sitelat.ewma s.book ~site) med_ewma)
      (ratio (Sitelat.percentile s.book ~site ~q:0.99) med_p99)
  end

let slow_score t site =
  match t.slow with None -> 1.0 | Some s -> score_of s ~site

let latency_percentile t ~q =
  match t.slow with
  | None -> None
  | Some s ->
    let p =
      Sitelat.pooled_percentile ~exclude:(fun site -> s.is_slow.(site)) s.book ~q
    in
    if p > 0.0 then Some p else None

let set_slow t s site v =
  if s.is_slow.(site) <> v then begin
    s.is_slow.(site) <- v;
    s.slow_transitions <- s.slow_transitions + 1;
    if v then s.since.(site) <- Engine.now (Network.engine t.net);
    let tr = Network.trace t.net in
    if Atomrep_obs.Trace.enabled tr then
      ignore
        (Atomrep_obs.Trace.emit tr ~site:t.monitor
           (Atomrep_obs.Trace.Detector_slow
              { site; slow = v; score = score_of s ~site }))
  end

(* One RPC-outcome sample for [dst]: fold it into the site's book and step
   the hysteresis streaks. Timeouts arrive as censored samples at the full
   configured budget — exactly the signal that separates fail-slow from
   healthy, and it inflates the score without any special-casing. *)
let on_sample t ~dst ~elapsed =
  match t.slow with
  | None -> ()
  | Some s ->
    if dst >= 0 && dst < Sitelat.n_sites s.book then begin
      Sitelat.observe s.book ~site:dst elapsed;
      let score = score_of s ~site:dst in
      if score >= s.cfg.sc_factor then begin
        s.hi_streak.(dst) <- s.hi_streak.(dst) + 1;
        s.lo_streak.(dst) <- 0;
        if s.hi_streak.(dst) >= s.cfg.sc_after then set_slow t s dst true
      end
      else begin
        s.lo_streak.(dst) <- s.lo_streak.(dst) + 1;
        s.hi_streak.(dst) <- 0;
        if s.lo_streak.(dst) >= s.cfg.sc_clear then set_slow t s dst false
      end
    end

let start net ~rng ?(probe_every = 40.0) ?(timeout = 25.0) ?(suspect_after = 3)
    ?(monitor = 0) ?slow () =
  let n = Network.n_sites net in
  let slow =
    Option.map
      (fun cfg ->
        {
          cfg;
          book = Sitelat.create ~n_sites:n ~alpha:cfg.sc_alpha ~window:cfg.sc_window ();
          hi_streak = Array.make n 0;
          lo_streak = Array.make n 0;
          is_slow = Array.make n false;
          since = Array.make n 0.0;
          slow_transitions = 0;
        })
      slow
  in
  let t =
    {
      net;
      rng;
      probe_every;
      timeout;
      suspect_after;
      monitor;
      misses = Array.make n 0;
      susp = Array.make n false;
      transitions = 0;
      slow;
    }
  in
  if t.slow <> None then
    (* Latency books feed off every RPC outcome on the network — workload
       and probe traffic alike — so suspicion tracks what quorum rounds
       actually experience, not just what probes see. *)
    Network.on_rpc_result net (fun ~src:_ ~dst ~ok:_ ~elapsed -> on_sample t ~dst ~elapsed);
  let engine = Network.engine net in
  let rec probe ~first site =
    (* A seeded per-site phase offset spreads the first probes across the
       whole period — with one fixed start phase, fifty monitors (or fifty
       probed sites) would fire in lock-step and the probe storm itself
       would perturb the latencies being measured. Steady-state probes keep
       uniform jitter in [0.75, 1.25) of the period so trains never
       re-synchronize. *)
    let delay =
      if first then Rng.float t.rng t.probe_every
      else t.probe_every *. (0.75 +. Rng.float t.rng 0.5)
    in
    Engine.schedule engine ~delay (fun () ->
        if Network.site_up t.net t.monitor then
          Rpc.call t.net ~src:t.monitor ~dst:site ~timeout:t.timeout
            ~handler:(fun () -> ())
            ~reply:(function
              | Some () ->
                t.misses.(site) <- 0;
                set_suspected t site false
              | None ->
                (* A probe that dies while the monitor itself is down says
                   nothing about the target — don't count it. *)
                if Network.site_up t.net t.monitor then begin
                  t.misses.(site) <- t.misses.(site) + 1;
                  if t.misses.(site) >= t.suspect_after then
                    set_suspected t site true
                end);
        probe ~first:false site)
  in
  for site = 0 to n - 1 do
    if site <> t.monitor then probe ~first:true site
  done;
  t
