open Atomrep_stats

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check_bool "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  check_bool "split differs from parent" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_exponential_positive () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    check_bool "positive" true (Rng.exponential rng 3.0 >= 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 5.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 5" true (abs_float (mean -. 5.0) < 0.3)

let test_shuffle_is_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check_bool "same elements" true (sorted = Array.init 20 Fun.id)

let test_summary_basics () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Summary.count s);
  check_float "mean" 2.5 (Summary.mean s);
  check_float "total" 10.0 (Summary.total s);
  check_float "min" 1.0 (Summary.min_value s);
  check_float "max" 4.0 (Summary.max_value s)

let test_summary_stddev () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  (* Sample stddev of the classic example: sqrt(32/7). *)
  check_bool "stddev" true (abs_float (Summary.stddev s -. sqrt (32.0 /. 7.0)) < 1e-9)

let test_summary_percentile () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add s (float_of_int i)
  done;
  check_float "median" 50.0 (Summary.percentile s 0.5);
  check_float "p99" 99.0 (Summary.percentile s 0.99);
  check_float "p100" 100.0 (Summary.percentile s 1.0)

let test_summary_empty () =
  let s = Summary.create () in
  check_float "mean of empty" 0.0 (Summary.mean s);
  check_float "stddev of empty" 0.0 (Summary.stddev s);
  (* Percentiles and extrema of an empty summary are 0, not nan/inf — the
     JSON exporters rely on this. *)
  check_float "p50 of empty" 0.0 (Summary.percentile s 0.5);
  check_float "p99 of empty" 0.0 (Summary.percentile s 0.99);
  check_float "min of empty" 0.0 (Summary.min_value s);
  check_float "max of empty" 0.0 (Summary.max_value s)

let test_summary_single_sample () =
  let s = Summary.create () in
  Summary.add s 7.0;
  (* Every percentile of a single observation is that observation. *)
  List.iter
    (fun p -> check_float "single sample" 7.0 (Summary.percentile s p))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ]

let test_summary_percentile_ranks () =
  let s = Summary.create () in
  (* Insertion order must not matter: add 1..20 shuffled. *)
  List.iter
    (fun i -> Summary.add s (float_of_int i))
    [ 13; 2; 20; 7; 19; 1; 8; 14; 3; 16; 5; 10; 18; 4; 11; 6; 15; 9; 17; 12 ];
  (* Nearest-rank: p50 of 20 samples is the 10th, p95 the 19th, p99 the
     20th — the rank computation must not lose the boundary to float
     rounding (0.95 *. 20. is 18.999...). *)
  check_float "p50" 10.0 (Summary.percentile s 0.5);
  check_float "p95" 19.0 (Summary.percentile s 0.95);
  check_float "p99" 20.0 (Summary.percentile s 0.99)

let test_summary_observations_in_order () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 3.0; 1.0; 2.0 ];
  check_bool "insertion order preserved" true
    (Summary.observations s = [ 3.0; 1.0; 2.0 ])

(* The summary against a list-based reference, over sample counts that
   cross several capacity growths: the same observations, percentiles
   and moments, and two summaries fed the same samples are [=]. *)
module Reference = struct
  let percentile xs q =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    if Array.length a = 0 then 0.0 else a.(Summary.nearest_rank ~n:(Array.length a) q)

  let moments xs =
    let n = List.length xs in
    let sum = List.fold_left ( +. ) 0.0 xs in
    let sum_sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    let mean = if n = 0 then 0.0 else sum /. float_of_int n in
    let stddev =
      if n < 2 then 0.0
      else begin
        let n = float_of_int n in
        let m = sum /. n in
        sqrt (Float.max ((sum_sq -. (n *. m *. m)) /. (n -. 1.0)) 0.0)
      end
    in
    let extreme pick = match xs with [] -> 0.0 | x :: rest -> List.fold_left pick x rest in
    (mean, stddev, extreme Float.min, extreme Float.max)
end

let prop_summary_matches_reference =
  QCheck.Test.make ~name:"summary = list-based reference" ~count:200
    QCheck.(list_of_size Gen.(0 -- 1000) (float_range (-1000.) 1000.))
    (fun xs ->
      let fill () =
        let s = Summary.create () in
        List.iter (Summary.add s) xs;
        s
      in
      let s = fill () and twin = fill () in
      let quantiles = [ 0.0; 0.5; 0.95; 0.99; 1.0 ] in
      s = twin
      && Summary.observations s = xs
      && List.for_all (fun q -> Summary.percentile s q = Reference.percentile xs q) quantiles
      && (Summary.mean s, Summary.stddev s, Summary.min_value s, Summary.max_value s)
         = Reference.moments xs
      && (List.iter (fun q -> ignore (Summary.percentile twin q)) quantiles;
          s = twin))

let test_table_rendering () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let rendered = Table.render t in
  check_bool "has title" true
    (String.length rendered > 0
    && String.sub rendered 0 8 = "== demo ");
  (* Rows render in insertion order. *)
  let lines = String.split_on_char '\n' rendered in
  check_int "line count" 6 (List.length lines)

let test_table_wrong_arity () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only one" ])

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "rng int range" `Quick test_rng_int_range;
        Alcotest.test_case "rng float range" `Quick test_rng_float_range;
        Alcotest.test_case "rng bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "rng exponential positive" `Quick test_rng_exponential_positive;
        Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
        Alcotest.test_case "summary basics" `Quick test_summary_basics;
        Alcotest.test_case "summary stddev" `Quick test_summary_stddev;
        Alcotest.test_case "summary percentile" `Quick test_summary_percentile;
        Alcotest.test_case "summary empty" `Quick test_summary_empty;
        Alcotest.test_case "summary single sample" `Quick test_summary_single_sample;
        Alcotest.test_case "summary percentile ranks" `Quick
          test_summary_percentile_ranks;
        Alcotest.test_case "summary observations order" `Quick
          test_summary_observations_in_order;
        QCheck_alcotest.to_alcotest prop_summary_matches_reference;
        Alcotest.test_case "table rendering" `Quick test_table_rendering;
        Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
      ] );
  ]
