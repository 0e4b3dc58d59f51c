module Summary = Atomrep_stats.Summary

type t = {
  alpha : float;
  window : int;
  ewma : float array; (* negative = no samples yet *)
  rings : float array array; (* last [window] samples per site *)
  sorted : float array array;
      (* the same samples as the ring, ascending in its first [fill] slots *)
  fill : int array; (* samples currently held in the ring *)
  next : int array; (* ring write cursor *)
  seen : int array; (* lifetime sample count *)
  cursor : int array; (* per-site position of the pooled k-way walk *)
  scratch : float array; (* per-site statistics awaiting their median *)
}

let create ~n_sites ?(alpha = 0.2) ?(window = 64) () =
  if n_sites < 0 then invalid_arg "Sitelat.create: negative n_sites";
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Sitelat.create: alpha not in (0,1]";
  if window < 1 then invalid_arg "Sitelat.create: window < 1";
  {
    alpha;
    window;
    ewma = Array.make n_sites (-1.0);
    rings = Array.init n_sites (fun _ -> Array.make window 0.0);
    sorted = Array.init n_sites (fun _ -> Array.make window 0.0);
    fill = Array.make n_sites 0;
    next = Array.make n_sites 0;
    seen = Array.make n_sites 0;
    cursor = Array.make n_sites 0;
    scratch = Array.make n_sites 0.0;
  }

let n_sites t = Array.length t.ewma

(* First index in [a.(0..n-1)] holding a value not below [x]; [n] when
   there is none. Inlined so [x] stays unboxed. *)
let[@inline] search a x n =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Float.compare a.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Keep the sorted mirror equal to the ring as a multiset: a full ring
   evicts the sample about to be overwritten, then the new sample goes in.
   Among equal values any copy will do for either. *)
let observe t ~site sample =
  if site >= 0 && site < n_sites t then begin
    t.ewma.(site) <-
      (if t.ewma.(site) < 0.0 then sample
       else (t.alpha *. sample) +. ((1.0 -. t.alpha) *. t.ewma.(site)));
    let ring = t.rings.(site) and sorted = t.sorted.(site) in
    let n = t.fill.(site) in
    let n =
      if n < t.window then n
      else begin
        let i = search sorted ring.(t.next.(site)) n in
        Array.blit sorted (i + 1) sorted i (n - i - 1);
        n - 1
      end
    in
    let j = search sorted sample n in
    Array.blit sorted j sorted (j + 1) (n - j);
    sorted.(j) <- sample;
    ring.(t.next.(site)) <- sample;
    t.next.(site) <- (t.next.(site) + 1) mod t.window;
    t.fill.(site) <- n + 1;
    t.seen.(site) <- t.seen.(site) + 1
  end

let samples t ~site = if site >= 0 && site < n_sites t then t.seen.(site) else 0
let ewma t ~site =
  if site >= 0 && site < n_sites t && t.ewma.(site) >= 0.0 then t.ewma.(site)
  else 0.0

let percentile t ~site ~q =
  if site < 0 || site >= n_sites t || t.fill.(site) = 0 then 0.0
  else t.sorted.(site).(Summary.nearest_rank ~n:t.fill.(site) q)

(* The pooled windows are never merged: the nearest-rank value is reached
   by a k-way walk over the sorted mirrors, taking the smallest head from
   the bottom or the largest from the top, whichever end is nearer. Equal
   values are the same float whichever site supplies them, so the walk
   returns what sorting the pool would. *)
let pooled_percentile ?(exclude = fun _ -> false) t ~q =
  let total = ref 0 in
  for site = 0 to n_sites t - 1 do
    if exclude site then t.cursor.(site) <- -1
    else begin
      t.cursor.(site) <- 0;
      total := !total + t.fill.(site)
    end
  done;
  let total = !total in
  if total = 0 then 0.0
  else begin
    let k = Summary.nearest_rank ~n:total q in
    let from_top = total - 1 - k < k in
    (* An excluded site sits at -1, where a walk from either end also
       leaves a site it has exhausted (from the bottom, at [fill]). *)
    if from_top then
      for site = 0 to n_sites t - 1 do
        if t.cursor.(site) >= 0 then t.cursor.(site) <- t.fill.(site) - 1
      done;
    let steps = if from_top then total - k else k + 1 in
    let last = ref 0 in
    for _ = 1 to steps do
      let best = ref (-1) in
      for site = 0 to n_sites t - 1 do
        let c = t.cursor.(site) in
        if c >= 0 && c < t.fill.(site) then begin
          let x = t.sorted.(site).(c) in
          if
            !best < 0
            ||
            let y = t.sorted.(!best).(t.cursor.(!best)) in
            if from_top then Float.compare x y > 0 else Float.compare x y < 0
          then best := site
        end
      done;
      last := !best;
      t.cursor.(!last) <- t.cursor.(!last) + if from_top then -1 else 1
    done;
    t.sorted.(!last).(t.cursor.(!last) + if from_top then 1 else -1)
  end

(* Nearest-rank median of the first [m] scratch slots, sorted in place:
   [m] is at most [n_sites], so an insertion sort is all it takes. *)
let scratch_median t m =
  let a = t.scratch in
  for i = 1 to m - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Float.compare a.(!j) v > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  if m = 0 then 0.0 else a.(Summary.nearest_rank ~n:m 0.5)

(* Median across sites of a per-site statistic, skipping sample-less sites:
   the cluster-normal baseline the detector scores each site against. The
   statistics are read straight from the arrays, never through a
   float-returning call that would box them. *)
let median_ewma t =
  let m = ref 0 in
  for site = 0 to n_sites t - 1 do
    if t.fill.(site) > 0 then begin
      t.scratch.(!m) <- t.ewma.(site);
      incr m
    end
  done;
  scratch_median t !m

let median_percentile t ~q =
  let m = ref 0 in
  for site = 0 to n_sites t - 1 do
    let n = t.fill.(site) in
    if n > 0 then begin
      t.scratch.(!m) <- t.sorted.(site).(Summary.nearest_rank ~n q);
      incr m
    end
  done;
  scratch_median t !m
