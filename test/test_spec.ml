open Atomrep_history
open Atomrep_spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let legal spec events = Serial_spec.legal spec events

(* --- Queue --- *)

let test_queue_fifo () =
  check_bool "fifo legal" true
    (legal Queue_type.spec
       [ Queue_type.enq "x"; Queue_type.enq "y"; Queue_type.deq_ok "x"; Queue_type.deq_ok "y" ]);
  check_bool "lifo illegal" false
    (legal Queue_type.spec
       [ Queue_type.enq "x"; Queue_type.enq "y"; Queue_type.deq_ok "y" ])

let test_queue_empty () =
  check_bool "empty deq" true (legal Queue_type.spec [ Queue_type.deq_empty ]);
  check_bool "empty after drain" true
    (legal Queue_type.spec [ Queue_type.enq "x"; Queue_type.deq_ok "x"; Queue_type.deq_empty ]);
  check_bool "empty with item illegal" false
    (legal Queue_type.spec [ Queue_type.enq "x"; Queue_type.deq_empty ])

let test_queue_paper_history () =
  (* §3.1's example history reports Empty while y is still queued — the
     FIFO serial specification excludes it. *)
  check_bool "premature Empty is illegal" false
    (legal Queue_type.spec
       [ Queue_type.enq "x"; Queue_type.enq "y"; Queue_type.deq_ok "x"; Queue_type.deq_empty ]);
  check_bool "both dequeued then empty" true
    (legal Queue_type.spec
       [
         Queue_type.enq "x"; Queue_type.enq "y"; Queue_type.deq_ok "x";
         Queue_type.deq_ok "y"; Queue_type.deq_empty;
       ])

(* --- PROM --- *)

let test_prom_lifecycle () =
  check_bool "write then seal then read" true
    (legal Prom.spec [ Prom.write "x"; Prom.seal; Prom.read_ok "x" ]);
  check_bool "read before seal disabled" true (legal Prom.spec [ Prom.read_disabled ]);
  check_bool "read before seal cannot return" false
    (legal Prom.spec [ Prom.write "x"; Prom.read_ok "x" ])

let test_prom_write_after_seal () =
  check_bool "write after seal disabled" true
    (legal Prom.spec [ Prom.seal; Prom.write_disabled "x" ]);
  check_bool "write after seal cannot succeed" false
    (legal Prom.spec [ Prom.seal; Prom.write "x" ])

let test_prom_seal_idempotent () =
  check_bool "double seal" true
    (legal Prom.spec [ Prom.write "x"; Prom.seal; Prom.seal; Prom.read_ok "x" ])

let test_prom_last_write_wins () =
  check_bool "last write" true
    (legal Prom.spec [ Prom.write "x"; Prom.write "y"; Prom.seal; Prom.read_ok "y" ]);
  check_bool "overwritten value unreadable" false
    (legal Prom.spec [ Prom.write "x"; Prom.write "y"; Prom.seal; Prom.read_ok "x" ])

let test_prom_default_readable () =
  check_bool "default value" true (legal Prom.spec [ Prom.seal; Prom.read_ok "d" ])

(* --- FlagSet --- *)

let test_flagset_open_enables_shift () =
  check_bool "shift disabled before open" true
    (legal Flag_set.spec [ Flag_set.shift_disabled 1 ]);
  check_bool "shift after open" true
    (legal Flag_set.spec [ Flag_set.open_ok; Flag_set.shift_ok 1 ]);
  check_bool "open twice disabled" true
    (legal Flag_set.spec [ Flag_set.open_ok; Flag_set.open_disabled ])

let test_flagset_close_returns_flag4 () =
  check_bool "close false initially" true (legal Flag_set.spec [ Flag_set.close false ]);
  check_bool "full chain reaches true" true
    (legal Flag_set.spec
       [
         Flag_set.open_ok; Flag_set.shift_ok 1; Flag_set.shift_ok 2; Flag_set.shift_ok 3;
         Flag_set.close true;
       ]);
  check_bool "chain without shift1 stays false" true
    (legal Flag_set.spec
       [
         Flag_set.open_ok; Flag_set.shift_ok 2; Flag_set.shift_ok 3; Flag_set.close false;
       ]);
  check_bool "chain without shift1 cannot reach true" false
    (legal Flag_set.spec
       [ Flag_set.open_ok; Flag_set.shift_ok 2; Flag_set.shift_ok 3; Flag_set.close true ])

let test_flagset_close_disables_shift () =
  check_bool "shift after close disabled" true
    (legal Flag_set.spec [ Flag_set.open_ok; Flag_set.close false; Flag_set.shift_disabled 2 ]);
  check_bool "close before open leaves shifts disabled only by open" true
    (legal Flag_set.spec [ Flag_set.close false; Flag_set.open_ok; Flag_set.shift_ok 1 ])

(* --- DoubleBuffer --- *)

let test_doublebuffer () =
  check_bool "consume default" true (legal Double_buffer.spec [ Double_buffer.consume "d" ]);
  check_bool "produce transfer consume" true
    (legal Double_buffer.spec
       [ Double_buffer.produce "x"; Double_buffer.transfer; Double_buffer.consume "x" ]);
  check_bool "consume without transfer sees default" false
    (legal Double_buffer.spec [ Double_buffer.produce "x"; Double_buffer.consume "x" ]);
  check_bool "transfer overwrites consumer" true
    (legal Double_buffer.spec
       [
         Double_buffer.produce "x"; Double_buffer.transfer; Double_buffer.produce "y";
         Double_buffer.transfer; Double_buffer.consume "y";
       ])

(* --- Register / Counter / Bank / WSet / Directory / Semiqueue / Stack / Log --- *)

let test_register () =
  check_bool "read default" true (legal Register.spec [ Register.read "d" ]);
  check_bool "read last write" true
    (legal Register.spec [ Register.write "x"; Register.write "y"; Register.read "y" ]);
  check_bool "stale read illegal" false
    (legal Register.spec [ Register.write "x"; Register.write "y"; Register.read "x" ])

let test_counter () =
  check_bool "inc inc dec read 1" true
    (legal Counter.spec [ Counter.inc; Counter.inc; Counter.dec; Counter.read 1 ]);
  check_bool "read 0 initially" true (legal Counter.spec [ Counter.read 0 ]);
  check_bool "negative allowed" true (legal Counter.spec [ Counter.dec; Counter.read (-1) ]);
  check_bool "wrong read" false (legal Counter.spec [ Counter.inc; Counter.read 2 ])

let test_bank_account () =
  check_bool "overdraft refused" true
    (legal Bank_account.spec [ Bank_account.withdraw_overdraft 1 ]);
  check_bool "withdraw up to balance" true
    (legal Bank_account.spec
       [ Bank_account.deposit 2; Bank_account.withdraw_ok 2; Bank_account.balance 0 ]);
  check_bool "cannot overdraw" false
    (legal Bank_account.spec [ Bank_account.deposit 1; Bank_account.withdraw_ok 2 ])

let test_wset () =
  check_bool "member false initially" true (legal Wset.spec [ Wset.member "x" false ]);
  check_bool "insert then member" true
    (legal Wset.spec [ Wset.insert "x"; Wset.member "x" true ]);
  check_bool "insert idempotent" true
    (legal Wset.spec [ Wset.insert "x"; Wset.insert "x"; Wset.member "x" true ]);
  check_bool "other item unaffected" true
    (legal Wset.spec [ Wset.insert "x"; Wset.member "y" false ])

let test_directory () =
  check_bool "lookup missing" true (legal Directory.spec [ Directory.lookup_missing "k" ]);
  check_bool "insert lookup" true
    (legal Directory.spec [ Directory.insert_ok "k" "x"; Directory.lookup_ok "k" "x" ]);
  check_bool "double insert refused" true
    (legal Directory.spec [ Directory.insert_ok "k" "x"; Directory.insert_exists "k" "y" ]);
  check_bool "update changes binding" true
    (legal Directory.spec
       [ Directory.insert_ok "k" "x"; Directory.update_ok "k" "y"; Directory.lookup_ok "k" "y" ]);
  check_bool "delete removes binding" true
    (legal Directory.spec
       [ Directory.insert_ok "k" "x"; Directory.delete_ok "k"; Directory.lookup_missing "k" ]);
  check_bool "update missing refused" true
    (legal Directory.spec [ Directory.update_missing "k" "x" ])

let test_semiqueue_nondeterminism () =
  (* Any enqueued item may come out. *)
  check_bool "x out of {x,y}" true
    (legal Semiqueue.spec [ Semiqueue.enq "x"; Semiqueue.enq "y"; Semiqueue.deq_ok "x" ]);
  check_bool "y out of {x,y}" true
    (legal Semiqueue.spec [ Semiqueue.enq "x"; Semiqueue.enq "y"; Semiqueue.deq_ok "y" ]);
  check_bool "cannot deq absent item" false
    (legal Semiqueue.spec [ Semiqueue.enq "x"; Semiqueue.deq_ok "y" ]);
  check_bool "empty" true (legal Semiqueue.spec [ Semiqueue.deq_empty ])

let test_stack_lifo () =
  check_bool "lifo" true
    (legal Stack_type.spec
       [ Stack_type.push "x"; Stack_type.push "y"; Stack_type.pop_ok "y"; Stack_type.pop_ok "x" ]);
  check_bool "fifo illegal" false
    (legal Stack_type.spec [ Stack_type.push "x"; Stack_type.push "y"; Stack_type.pop_ok "x" ])

let test_append_log () =
  check_bool "size counts appends" true
    (legal Append_log.spec [ Append_log.append "x"; Append_log.append "y"; Append_log.size 2 ]);
  check_bool "wrong size" false (legal Append_log.spec [ Append_log.append "x"; Append_log.size 0 ])

(* --- Serial_spec machinery --- *)

let test_reachable_histories_legal () =
  List.iter
    (fun (h, state) ->
      check_bool "reachable history reaches its state" true
        (Option.equal Value.equal (Serial_spec.run Queue_type.spec h) (Some state)))
    (Serial_spec.reachable Queue_type.spec ~max_len:3);
  check_int "nothing below zero events" 0
    (List.length (Serial_spec.reachable Queue_type.spec ~max_len:(-1)))

let test_reachable_counts () =
  (* From the empty queue over {x,y}: Enq x and Enq y reach new states;
     Deq;Empty returns to the initial one, which is kept once. *)
  check_int "three states within one event" 3
    (List.length (Serial_spec.reachable Queue_type.spec ~max_len:1))

let test_event_universe () =
  let u = Serial_spec.event_universe Queue_type.spec ~max_len:3 in
  check_int "queue universe" 5 (List.length u);
  check_bool "contains Deq();Ok(y)" true (List.exists (Event.equal (Queue_type.deq_ok "y")) u)

let test_state_equiv_queue () =
  let s1 = Serial_spec.run Queue_type.spec [ Queue_type.enq "x" ] |> Option.get in
  let s2 = Serial_spec.run Queue_type.spec [ Queue_type.enq "y" ] |> Option.get in
  let s3 =
    Serial_spec.run Queue_type.spec [ Queue_type.enq "x"; Queue_type.deq_ok "x"; Queue_type.enq "x" ]
    |> Option.get
  in
  check_bool "different contents distinguishable" false
    (Serial_spec.state_equiv Queue_type.spec ~depth:3 s1 s2);
  check_bool "same contents equivalent" true
    (Serial_spec.state_equiv Queue_type.spec ~depth:3 s1 s3)

let test_state_equiv_flagset_hidden_flags () =
  (* After Close, shifts are disabled; states differing only in flags 2..3
     are observationally equivalent (flag 4 readable via Close). *)
  let run events = Serial_spec.run Flag_set.spec events |> Option.get in
  let s1 = run [ Flag_set.open_ok; Flag_set.close false ] in
  let s2 = run [ Flag_set.open_ok; Flag_set.shift_ok 1; Flag_set.close false ] in
  check_bool "dead flags invisible" true
    (Serial_spec.state_equiv Flag_set.spec ~depth:4 s1 s2)

let test_equivalent_histories () =
  check_bool "enq orders differ" false
    (Serial_spec.equivalent Queue_type.spec ~depth:4
       [ Queue_type.enq "x"; Queue_type.enq "y" ]
       [ Queue_type.enq "y"; Queue_type.enq "x" ]);
  check_bool "inc/dec orders agree" true
    (Serial_spec.equivalent Counter.spec ~depth:4 [ Counter.inc; Counter.dec ]
       [ Counter.dec; Counter.inc ])

let test_registry () =
  check_int "fourteen types" 14 (List.length Type_registry.all);
  check_bool "find queue" true (Option.is_some (Type_registry.find "queue"));
  check_bool "find QUEUE case-insensitive" true (Option.is_some (Type_registry.find "QUEUE"));
  check_bool "unknown type" true (Option.is_none (Type_registry.find "btree"))

let suites =
  [
    ( "serial specifications",
      [
        Alcotest.test_case "queue FIFO" `Quick test_queue_fifo;
        Alcotest.test_case "queue empty" `Quick test_queue_empty;
        Alcotest.test_case "queue drain" `Quick test_queue_paper_history;
        Alcotest.test_case "prom lifecycle" `Quick test_prom_lifecycle;
        Alcotest.test_case "prom write after seal" `Quick test_prom_write_after_seal;
        Alcotest.test_case "prom seal idempotent" `Quick test_prom_seal_idempotent;
        Alcotest.test_case "prom last write wins" `Quick test_prom_last_write_wins;
        Alcotest.test_case "prom default readable" `Quick test_prom_default_readable;
        Alcotest.test_case "flagset open/shift" `Quick test_flagset_open_enables_shift;
        Alcotest.test_case "flagset close returns flag4" `Quick test_flagset_close_returns_flag4;
        Alcotest.test_case "flagset close disables shift" `Quick test_flagset_close_disables_shift;
        Alcotest.test_case "doublebuffer" `Quick test_doublebuffer;
        Alcotest.test_case "register" `Quick test_register;
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "bank account" `Quick test_bank_account;
        Alcotest.test_case "wset" `Quick test_wset;
        Alcotest.test_case "directory" `Quick test_directory;
        Alcotest.test_case "semiqueue nondeterminism" `Quick test_semiqueue_nondeterminism;
        Alcotest.test_case "stack LIFO" `Quick test_stack_lifo;
        Alcotest.test_case "append log" `Quick test_append_log;
        Alcotest.test_case "reachable histories are legal" `Quick test_reachable_histories_legal;
        Alcotest.test_case "reachable counts states" `Quick test_reachable_counts;
        Alcotest.test_case "event universe" `Quick test_event_universe;
        Alcotest.test_case "state equivalence (queue)" `Quick test_state_equiv_queue;
        Alcotest.test_case "state equivalence (flagset)" `Quick test_state_equiv_flagset_hidden_flags;
        Alcotest.test_case "history equivalence" `Quick test_equivalent_histories;
        Alcotest.test_case "type registry" `Quick test_registry;
      ] );
  ]
