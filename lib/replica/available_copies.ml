open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_sim
open Atomrep_stats

type outcome = {
  history : Behavioral.t;
  committed : int;
  serializable : bool;
}

let register_spec = Register.spec

(* One read-modify-write transaction against the available copies: read
   from any reachable copy, write to all reachable copies. No intersection
   discipline — exactly the method's behaviour. *)
let rmw_txn net copies history index ~home ~value =
  let action = Action.of_string (Printf.sprintf "T%d" index) in
  let reachable =
    List.filter (fun s -> Network.reachable net home s)
      (List.init (Network.n_sites net) Fun.id)
  in
  match reachable with
  | [] -> () (* no available copy: the client gives up *)
  | first :: _ ->
    history := Behavioral.Begin action :: !history;
    let seen = copies.(first) in
    history :=
      Behavioral.Exec (Register.read seen, action) :: !history;
    List.iter (fun s -> copies.(s) <- value) reachable;
    history :=
      Behavioral.Exec (Register.write value, action) :: !history;
    history := Behavioral.Commit action :: !history

let run ~seed ~n_sites ~txns_per_side ~partition_at ~heal_at () =
  let engine = Engine.create ~seed in
  let net = Network.create engine ~n_sites ~latency_mean:1.0 () in
  let copies = Array.make n_sites "d" in
  let history = ref [] in
  let half = n_sites / 2 in
  let left = List.init half Fun.id in
  let right = List.init (n_sites - half) (fun i -> half + i) in
  Engine.schedule_at engine ~time:partition_at (fun () ->
      Network.partition net [ left; right ]);
  Engine.schedule_at engine ~time:heal_at (fun () -> Network.heal net);
  let index = ref 0 in
  let submit ~time ~home =
    let i = !index in
    incr index;
    Engine.schedule_at engine ~time (fun () ->
        rmw_txn net copies history i ~home ~value:(Printf.sprintf "v%d" i))
  in
  (* Before the partition: one warm-up transaction. *)
  submit ~time:(partition_at /. 2.0) ~home:0;
  (* During the partition: transactions on both sides. *)
  for j = 0 to txns_per_side - 1 do
    let t = partition_at +. 10.0 +. (10.0 *. float_of_int j) in
    submit ~time:t ~home:(List.nth left 0);
    submit ~time:(t +. 1.0) ~home:(List.nth right 0)
  done;
  (* After healing: one reader on each side's copies. *)
  submit ~time:(heal_at +. 10.0) ~home:0;
  Engine.run engine;
  let history = List.rev !history in
  {
    history;
    committed = List.length (Behavioral.committed history);
    serializable = Atomrep_atomicity.Atomicity.serializable register_spec history;
  }

let quorum_reference ~seed ~n_sites ~txns_per_side ~partition_at ~heal_at () =
  let majority = (n_sites / 2) + 1 in
  let relation = Static_dep.minimal register_spec in
  let assignment =
    Assignment.make ~n_sites
      [
        ("Read", { Assignment.initial = majority; final = majority });
        ("Write", { Assignment.initial = majority; final = majority });
      ]
  in
  let total = 2 + (2 * txns_per_side) in
  let values = [ "x"; "y" ] in
  let cfg =
    {
      Runtime.default_config with
      seed;
      n_sites;
      scheme = Replicated.Hybrid;
      objects =
        [
          {
            Runtime.obj_name = "file";
            obj_spec = register_spec;
            obj_relation = relation;
            obj_assignment = assignment;
            obj_members = None;
          };
        ];
      n_txns = total;
      arrival_mean = (heal_at +. 100.0) /. float_of_int total;
      script =
        (fun rng _ ->
          [
            { Runtime.target = "file"; invocation = Register.read_inv };
            {
              Runtime.target = "file";
              invocation = Register.write_inv (Rng.pick_list rng values);
            };
          ]);
      install_faults =
        (fun net ->
          let half = n_sites / 2 in
          let left = List.init half Fun.id in
          let right = List.init (n_sites - half) (fun i -> half + i) in
          let engine = Network.engine net in
          Engine.schedule_at engine ~time:partition_at (fun () ->
              Network.partition net [ left; right ]);
          Engine.schedule_at engine ~time:heal_at (fun () -> Network.heal net));
    }
  in
  let outcome = Runtime.run cfg in
  let failures = Runtime.check_common_order cfg outcome in
  ( outcome.Runtime.metrics.Runtime.committed,
    outcome.Runtime.metrics.Runtime.aborted,
    failures = [] )
