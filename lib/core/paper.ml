open Atomrep_history
open Atomrep_spec

let items = [ "x"; "y" ]

(* --- PROM --- *)

let prom_hybrid_relation =
  Relation.of_list
    (List.map (fun i -> (Prom.seal_inv, Prom.write i)) items
    @ [ (Prom.seal_inv, Prom.read_disabled); (Prom.read_inv, Prom.seal) ]
    @ List.map (fun i -> (Prom.write_inv i, Prom.seal)) items)

let prom_static_extras =
  List.map (fun i -> (Prom.read_inv, Prom.write i)) items
  @ List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if String.equal i j then None else Some (Prom.write_inv i, Prom.read_ok j))
          ("d" :: items))
      items

let theorem5_history =
  Behavioral.of_script
    [
      ("A", `Begin);
      ("B", `Begin);
      ("C", `Begin);
      ("D", `Begin);
      ("A", `Exec (Prom.write "x"));
      ("A", `Commit);
      ("C", `Exec Prom.seal);
      ("C", `Commit);
      ("D", `Exec (Prom.read_ok "x"));
    ]

let theorem5_appended = Prom.write "y"

(* --- Queue --- *)

let queue_static_relation =
  Relation.of_list
    (List.concat_map
       (fun i ->
         List.filter_map
           (fun j -> if String.equal i j then None else Some (Queue_type.enq_inv i, Queue_type.deq_ok j))
           items)
       items
    @ List.map (fun i -> (Queue_type.enq_inv i, Queue_type.deq_empty)) items
    @ List.map (fun i -> (Queue_type.deq_inv, Queue_type.enq i)) items
    @ List.map (fun i -> (Queue_type.deq_inv, Queue_type.deq_ok i)) items)

let queue_dynamic_extra =
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j ->
          if String.equal i j then None else Some (Queue_type.enq_inv i, Queue_type.enq j))
        items)
    items

(* --- FlagSet --- *)

let flagset_base_relation =
  Relation.of_list
    ([
       (Flag_set.open_inv, Flag_set.open_ok);
       (Flag_set.close_inv, Flag_set.open_ok);
       (Flag_set.shift_inv 3, Flag_set.shift_ok 2);
     ]
    @ List.concat_map
        (fun n ->
          [
            (Flag_set.open_inv, Flag_set.shift_disabled n);
            (Flag_set.close_inv, Flag_set.shift_ok n);
            (Flag_set.shift_inv n, Flag_set.open_ok);
            (Flag_set.shift_inv n, Flag_set.close false);
            (Flag_set.shift_inv n, Flag_set.close true);
          ])
        [ 1; 2; 3 ])

let flagset_alternative_31 =
  Relation.add (Flag_set.shift_inv 3, Flag_set.shift_ok 1) flagset_base_relation

let flagset_alternative_21 =
  Relation.add (Flag_set.shift_inv 2, Flag_set.shift_ok 1) flagset_base_relation

let flagset_core_universe =
  [
    Flag_set.open_ok;
    Flag_set.shift_ok 1;
    Flag_set.shift_ok 2;
    Flag_set.shift_ok 3;
    Flag_set.close false;
    Flag_set.close true;
  ]

(* --- DoubleBuffer --- *)

let doublebuffer_dynamic_relation =
  Relation.of_list
    (List.concat_map
       (fun i ->
         List.filter_map
           (fun j ->
             if String.equal i j then None
             else Some (Double_buffer.produce_inv i, Double_buffer.produce j))
           items)
       items
    @ List.map (fun i -> (Double_buffer.produce_inv i, Double_buffer.transfer)) items
    @ List.map (fun i -> (Double_buffer.transfer_inv, Double_buffer.produce i)) items
    @ [ (Double_buffer.consume_inv, Double_buffer.transfer) ]
    @ List.map
        (fun i -> (Double_buffer.transfer_inv, Double_buffer.consume i))
        ("d" :: items))

let theorem12_history =
  Behavioral.of_script
    [
      ("A", `Begin);
      ("B", `Begin);
      ("C", `Begin);
      ("A", `Exec (Double_buffer.produce "x"));
      ("A", `Exec Double_buffer.transfer);
      ("A", `Commit);
      ("C", `Exec Double_buffer.transfer);
      ("B", `Exec (Double_buffer.produce "y"));
    ]

let theorem12_appended = Double_buffer.consume "x"

(* --- Quorums --- *)

let prom_hybrid_quorums ~n =
  [ ("Read", (1, 1)); ("Seal", (n, n)); ("Write", (1, 1)) ]

let prom_static_quorums ~n =
  (* Write ≽s Read();Ok(y) forces Write's initial quorum to intersect
     Read's final quorums; keeping Read at one site therefore pushes
     Write's initial quorum to n as well — the "(1, n, n)" of §4. *)
  [ ("Read", (1, 1)); ("Seal", (n, n)); ("Write", (n, n)) ]
