open Atomrep_history
open Atomrep_core
open Atomrep_spec
open Atomrep_atomicity

type verdict =
  | Equal
  | Left_strictly_contains
  | Right_strictly_contains
  | Incomparable

let pp_verdict ppf v =
  Format.pp_print_string ppf
    (match v with
     | Equal -> "equal (no separating witness found)"
     | Left_strictly_contains -> "left strictly contains right"
     | Right_strictly_contains -> "right strictly contains left"
     | Incomparable -> "incomparable")

let verdict_of ~left_only ~right_only =
  match left_only, right_only with
  | false, false -> Equal
  | true, false -> Left_strictly_contains
  | false, true -> Right_strictly_contains
  | true, true -> Incomparable

type concurrency_report = {
  samples : int;
  static_accepted : int;
  hybrid_accepted : int;
  dynamic_accepted : int;
  hybrid_not_static : int;
  static_not_hybrid : int;
  hybrid_not_dynamic : int;
  dynamic_not_hybrid : int;
  static_vs_hybrid : verdict;
  hybrid_vs_dynamic : verdict;
  static_vs_dynamic : verdict;
  witness_hybrid_not_static : Behavioral.t option;
  witness_static_not_hybrid : Behavioral.t option;
  witness_hybrid_not_dynamic : Behavioral.t option;
}

let concurrency ?(seed = 1985) ?(histories = 2000) ?(max_actions = 3) ?(max_events = 4)
    spec =
  let rng = Atomrep_stats.Rng.create seed in
  (* One tally per acceptance set or difference: how many sampled
     histories fall in it, and the first of them. *)
  let tally () = (ref 0, ref None) in
  let sta = tally () and hyb = tally () and dyn = tally () in
  let sta_not_hyb = tally () and hyb_not_sta = tally () in
  let hyb_not_dyn = tally () and dyn_not_hyb = tally () in
  let sta_not_dyn = tally () and dyn_not_sta = tally () in
  let count (n, witness) h holds =
    if holds then begin
      incr n;
      if Option.is_none !witness then witness := Some h
    end
  in
  for _ = 1 to histories do
    let h = Atomrep_workload.Histories.random rng spec ~max_actions ~max_events in
    let s = Atomicity.is_static_atomic spec h in
    let y = Atomicity.is_hybrid_atomic spec h in
    let d = Atomicity.is_dynamic_atomic spec h in
    count sta h s;
    count hyb h y;
    count dyn h d;
    count sta_not_hyb h (s && not y);
    count hyb_not_sta h (y && not s);
    count hyb_not_dyn h (y && not d);
    count dyn_not_hyb h (d && not y);
    count sta_not_dyn h (s && not d);
    count dyn_not_sta h (d && not s)
  done;
  let n (k, _) = !k and witness (_, w) = !w in
  let verdict left right = verdict_of ~left_only:(n left > 0) ~right_only:(n right > 0) in
  {
    samples = histories;
    static_accepted = n sta;
    hybrid_accepted = n hyb;
    dynamic_accepted = n dyn;
    hybrid_not_static = n hyb_not_sta;
    static_not_hybrid = n sta_not_hyb;
    hybrid_not_dynamic = n hyb_not_dyn;
    dynamic_not_hybrid = n dyn_not_hyb;
    static_vs_hybrid = verdict sta_not_hyb hyb_not_sta;
    hybrid_vs_dynamic = verdict hyb_not_dyn dyn_not_hyb;
    static_vs_dynamic = verdict sta_not_dyn dyn_not_sta;
    witness_hybrid_not_static = witness hyb_not_sta;
    witness_static_not_hybrid = witness sta_not_hyb;
    witness_hybrid_not_dynamic = witness hyb_not_dyn;
  }

type availability_report = {
  n_sites : int;
  static_count : int;
  hybrid_count : int;
  dynamic_count : int;
  static_vs_hybrid : verdict;
  hybrid_vs_dynamic : verdict;
}

let availability ?(max_len = Relation.default_max_len) ~hybrid_relations ~n_sites spec =
  let open Atomrep_quorum in
  let ops =
    List.sort_uniq String.compare
      (List.map
         (fun (inv : Event.Invocation.t) -> inv.op)
         spec.Serial_spec.invocations)
  in
  let static_cs = Op_constraint.of_relation (Static_dep.minimal spec ~max_len) in
  let dynamic_cs = Op_constraint.of_relation (Dynamic_dep.minimal spec ~max_len) in
  let hybrid_css = List.map Op_constraint.of_relation hybrid_relations in
  let everything = Assignment.enumerate ~n_sites ~ops [] in
  let static_valid = List.filter (fun a -> Assignment.satisfies a static_cs) everything in
  let hybrid_valid =
    List.filter (fun a -> List.exists (Assignment.satisfies a) hybrid_css) everything
  in
  let dynamic_valid =
    List.filter (fun a -> Assignment.satisfies a dynamic_cs) everything
  in
  let only xs ys = List.exists (fun x -> not (List.mem x ys)) xs in
  {
    n_sites;
    static_count = List.length static_valid;
    hybrid_count = List.length hybrid_valid;
    dynamic_count = List.length dynamic_valid;
    static_vs_hybrid =
      verdict_of
        ~left_only:(only static_valid hybrid_valid)
        ~right_only:(only hybrid_valid static_valid);
    hybrid_vs_dynamic =
      verdict_of
        ~left_only:(only hybrid_valid dynamic_valid)
        ~right_only:(only dynamic_valid hybrid_valid);
  }
