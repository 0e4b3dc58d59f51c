type t = {
  mutable values : Float.Array.t;
      (* the first [n] slots hold the observations in insertion order; spare
         capacity is zero, so summaries fed the same samples are [=] *)
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable sorted : float array option;
}

let create () =
  { values = Float.Array.make 0 0.0; n = 0; sum = 0.0; sum_sq = 0.0;
    vmin = infinity; vmax = neg_infinity; sorted = None }

let add t x =
  let cap = Float.Array.length t.values in
  if t.n = cap then begin
    let values = Float.Array.make (max 8 (2 * cap)) 0.0 in
    Float.Array.blit t.values 0 values 0 cap;
    t.values <- values
  end;
  Float.Array.set t.values t.n x;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.vmin then t.vmin <- x;
  if x > t.vmax then t.vmax <- x;
  t.sorted <- None

let count t = t.n
let total t = t.sum
let observations t = List.init t.n (Float.Array.get t.values)
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else begin
    let n = float_of_int t.n in
    let m = t.sum /. n in
    let var = (t.sum_sq -. (n *. m *. m)) /. (n -. 1.0) in
    sqrt (max var 0.0)
  end

let min_value t = if t.n = 0 then 0.0 else t.vmin
let max_value t = if t.n = 0 then 0.0 else t.vmax

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.init t.n (Float.Array.get t.values) in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let nearest_rank ~n q =
  let q = Float.min 1.0 (Float.max 0.0 q) in
  (* Nearest rank is ceil(q*n); the epsilon guards against products like
     0.07 *. 100. = 7.000000000000001 ceiling one rank too high. *)
  let rank = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
  max 0 (min (n - 1) (rank - 1))

let percentile t q =
  let a = sorted t in
  if Array.length a = 0 then 0.0 else a.(nearest_rank ~n:(Array.length a) q)
