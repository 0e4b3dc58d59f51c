(* Incremental views. A list classification of a merged log and the scheme
   rule over its lists (the static rule enumerating every commit/abort
   outcome of the other tentative actions itself) are kept here as the
   reference: a cached view, however its logs grew or were rebuilt, must
   classify and decide exactly as they do on the merge of the same logs. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock
open Atomrep_replica
module Rng = Atomrep_stats.Rng
module Ts = Lamport.Timestamp

module Reference = struct
  type t = {
    committed : (Ts.t * Log.entry) list;
    tentative : Log.entry list;
  }

  let classify log =
    let entries = Log.entries log in
    let committed, tentative =
      List.fold_left
        (fun (committed, tentative) (e : Log.entry) ->
          if Log.is_aborted log e.action then (committed, tentative)
          else
            match Log.commit_ts log e.action with
            | Some cts -> ((cts, e) :: committed, tentative)
            | None -> (committed, e :: tentative))
        ([], []) entries
    in
    let committed =
      List.sort
        (fun (t1, e1) (t2, e2) ->
          let c = Ts.compare t1 t2 in
          if c <> 0 then c else Ts.compare e1.Log.ets e2.Log.ets)
        committed
    in
    let tentative = List.sort (fun e1 e2 -> Ts.compare e1.Log.ets e2.Log.ets) tentative in
    { committed; tentative }

  let committed_events t = List.map (fun (_, e) -> e.Log.event) t.committed

  let filter t keep =
    {
      committed = List.filter (fun (_, e) -> keep e) t.committed;
      tentative = List.filter keep t.tentative;
    }

  (* The static order of the committed entries and the tentative entries
     of the actions in [kept]. *)
  let static_timeline t ~kept =
    List.map snd t.committed
    @ List.filter (fun (e : Log.entry) -> List.exists (Action.equal e.action) kept) t.tentative
    |> List.sort (fun (e1 : Log.entry) e2 ->
           let c = Ts.compare e1.begin_ts e2.begin_ts in
           if c <> 0 then c else Int.compare e1.seq e2.seq)
    |> List.map (fun e -> e.Log.event)

  let tentative_actions t =
    List.sort_uniq Action.compare (List.map (fun (e : Log.entry) -> e.action) t.tentative)

  let rec power_set = function
    | [] -> [ [] ]
    | a :: rest -> List.concat_map (fun s -> [ s; a :: s ]) (power_set rest)

  let replay spec state events =
    List.fold_left
      (fun state ev ->
        match state with
        | None -> None
        | Some s -> Serial_spec.apply_event spec s ev)
      state events

  let decide ~spec ~scheme ~table ~action ~begin_ts ~own view inv =
    let view = filter view (fun e -> not (Action.equal e.Log.action action)) in
    let own_events =
      List.sort (fun e1 e2 -> Int.compare e1.Log.seq e2.Log.seq) own
      |> List.map (fun e -> e.Log.event)
    in
    let related e = Atomrep_cc.Conflict_table.related table inv e.Log.event in
    let initial = Some spec.Serial_spec.initial in
    match scheme with
    | Replicated.Hybrid | Replicated.Locking ->
      (match List.find_opt related view.tentative with
       | Some e -> Error (Replicated.Blocked_on e.Log.action)
       | None ->
         (match replay spec initial (committed_events view @ own_events) with
          | None -> Error (Replicated.Rejected "view reconstruction failed")
          | Some state ->
            (match Serial_spec.responses spec state inv with
             | [] -> Error (Replicated.Rejected "no legal response")
             | (res, _) :: _ -> Ok res)))
    | Replicated.Static ->
      let earlier e = Ts.compare e.Log.begin_ts begin_ts < 0 in
      (match List.find_opt (fun e -> earlier e && related e) view.tentative with
       | Some e -> Error (Replicated.Blocked_on e.Log.action)
       | None ->
         let before = filter view earlier in
         let after = filter view (fun e -> not (earlier e)) in
         (match replay spec initial (static_timeline before ~kept:[] @ own_events) with
          | None -> Error (Replicated.Rejected "inconsistent timeline")
          | Some state ->
            (* On-line static atomicity: legal under every commit/abort
               outcome of the other active actions. *)
            let viable (res, _) =
              List.for_all
                (fun kept ->
                  Option.is_some
                    (replay spec initial
                       (static_timeline before ~kept @ own_events
                       @ (Event.make inv res :: static_timeline after ~kept))))
                (power_set (tentative_actions view))
            in
            (match List.find_opt viable (Serial_spec.responses spec state inv) with
             | None -> Error (Replicated.Rejected "timestamp order violation")
             | Some (res, _) -> Ok res)))
end

let ts n = { Ts.counter = n; site = 0 }
let schemes = Replicated.[ Hybrid; Static; Locking ]

let show_decision = function
  | Ok res -> Format.asprintf "Ok %a" Event.Response.pp res
  | Error (Replicated.Blocked_on a) -> "Blocked_on " ^ Action.to_string a
  | Error (Replicated.Rejected why) -> "Rejected " ^ why
  | Error (Replicated.Unavailable why) -> "Unavailable " ^ why
  | Error (Replicated.Done _) -> "Done"

(* The types under test, each with its tables for the three schemes. *)
let cases =
  lazy
    (List.map
       (fun name ->
         let spec = Option.get (Type_registry.find name) in
         let configured = Static_dep.minimal spec in
         let table s =
           Atomrep_cc.Conflict_table.of_relation
             (Replicated.scheme_relation ~configured s spec)
         in
         (spec, List.map (fun s -> (s, table s)) schemes))
       [ "queue"; "counter"; "rset"; "flagset" ])

let n_actions = 12

(* One random case: 1-5 sources evolve by random steps (entries placed at
   a random subset of sources, now and then reusing the latest timestamp;
   commits, second and later commits; aborts; termination votes; ingest
   by record or by [Log.merge]; [gc]; [stable]; a rebuild from empty with
   a prefix of the records). About every other step gathers a random
   subset of sources through one cache, sometimes at an older version
   than the latest. Each gather's classification and, for random actions,
   Begin timestamps (ties included), own entries and invocations, the
   replay states and every scheme's decision must equal the reference's
   on the merge of the gathered logs. Histories run long enough to pass
   several replay checkpoints. *)
let differential seed =
  let rng = Rng.create seed in
  let int = Rng.int rng in
  let spec, tables = Rng.pick_list rng (Lazy.force cases) in
  (* Mostly events legal in every state, so that replays run long. *)
  let universe = Serial_spec.event_universe spec ~max_len:3 in
  let total =
    List.filter
      (fun ev ->
        List.for_all
          (fun (_, st) -> Option.is_some (Serial_spec.apply_event spec st ev))
          (Serial_spec.reachable spec ~max_len:3))
      universe
  in
  let event () = Rng.pick_list rng (if total <> [] && int 4 > 0 then total else universe) in
  let n_src = 1 + int 5 in
  let versions = Array.make n_src [ Log.empty ] in
  let current i = List.hd versions.(i) in
  let update i log =
    versions.(i) <- List.filteri (fun k _ -> k < 6) (log :: versions.(i))
  in
  let subset () =
    let s = List.filter (fun _ -> Rng.bool rng) (List.init n_src Fun.id) in
    if s = [] then [ int n_src ] else s
  in
  let actions = Array.init n_actions Action.of_int in
  let begins = Array.init n_actions (fun _ -> ts (1 + int 8)) in
  let made = Array.make n_actions [] in
  let clock = ref 10 in
  let tick () =
    incr clock;
    ts !clock
  in
  let place r = List.iter (fun i -> update i (Log.add (current i) r)) (subset ()) in
  let step () =
    let a = int n_actions in
    match int 40 with
    | n when n < 18 ->
      let e =
        {
          Log.ets = (if int 8 = 0 then ts !clock else tick ());
          action = actions.(a);
          begin_ts = begins.(a);
          seq = List.length made.(a);
          event = event ();
        }
      in
      made.(a) <- made.(a) @ [ e ];
      place (Log.Entry e)
    | n when n < 30 -> place (Log.Commit_record (actions.(a), tick ()))
    | 30 -> place (Log.Abort_record actions.(a))
    | 31 | 32 ->
      place
        (if Rng.bool rng then Log.Precommit (actions.(a), tick ()) else Log.Preabort actions.(a))
    | n when n < 38 ->
      let i = int n_src and j = int n_src in
      update i
        (if Rng.bool rng then Log.merge (current i) (current j)
         else List.fold_left Log.add (current i) (Log.records (current j)))
    | _ -> (
      let i = int n_src in
      match int 3 with
      | 0 -> update i (Log.gc (current i))
      | 1 -> update i (Log.stable (current i))
      | _ ->
        (* A crash recovery: the log is rebuilt from empty with a prefix
           of its records. *)
        let records = Log.records (current i) in
        let keep = int (List.length records + 1) in
        update i (List.fold_left Log.add Log.empty (List.filteri (fun k _ -> k < keep) records)))
  in
  let cache = View.cache spec in
  let gather () =
    let replies =
      List.map
        (fun i ->
          let vs = versions.(i) in
          (i, if int 4 = 0 then List.nth vs (int (List.length vs)) else List.hd vs))
        (subset ())
    in
    let view = View.gather cache replies in
    let reference =
      Reference.classify (List.fold_left Log.merge Log.empty (List.map snd replies))
    in
    if View.committed view <> reference.committed then
      QCheck2.Test.fail_report "committed entries differ";
    if View.tentative view <> reference.tentative then
      QCheck2.Test.fail_report "tentative entries differ";
    (* A repository's tentative scan reads the log's status index, not a
       view: the same entries. *)
    List.iter
      (fun (_, log) ->
        if
          List.sort compare (Log.tentative log)
          <> List.sort compare (View.tentative (View.of_log spec log))
        then QCheck2.Test.fail_report "Log.tentative differs from the view's")
      replies;
    let same_state what got want =
      if not (Option.equal Value.equal got want) then
        QCheck2.Test.fail_reportf "%s: view %s, reference %s" what
          (Option.fold ~none:"None" ~some:Value.to_string got)
          (Option.fold ~none:"None" ~some:Value.to_string want)
    in
    for _ = 1 to 3 do
      let a = int n_actions in
      let action = actions.(a) in
      let begin_ts = if int 3 = 0 then ts (1 + int 8) else begins.(a) in
      let others = Reference.filter reference (fun e -> not (Action.equal e.Log.action action)) in
      let earlier e = Ts.compare e.Log.begin_ts begin_ts < 0 in
      let replayed events = Reference.replay spec (Some spec.Serial_spec.initial) events in
      same_state "commit-order state"
        (View.commit_state view ~exclude:action)
        (replayed (Reference.committed_events others));
      (* Timelines in which none, all, or a random subset of the other
         active actions commit. *)
      let active = Reference.tentative_actions others in
      List.iter
        (fun (what, kept) ->
          let tentative a = List.exists (Action.equal a) kept in
          same_state
            (Printf.sprintf "static state (%s tentative)" what)
            (View.static_state view ~exclude:action ~before:begin_ts ~tentative)
            (replayed (Reference.static_timeline (Reference.filter others earlier) ~kept));
          if
            not
              (List.equal Event.equal
                 (View.static_later view ~exclude:action ~from:begin_ts ~tentative)
                 (Reference.static_timeline
                    (Reference.filter others (fun e -> not (earlier e)))
                    ~kept))
          then QCheck2.Test.fail_reportf "static later events differ (%s tentative)" what)
        [ ("no", []); ("all", active); ("some", List.filter (fun _ -> Rng.bool rng) active) ];
      let own = List.filteri (fun k _ -> k < int 3) made.(a) in
      let inv = Rng.pick_list rng spec.Serial_spec.invocations in
      List.iter
        (fun (scheme, table) ->
          let got =
            Replicated.decide ~spec ~scheme ~table ~action ~begin_ts ~own view inv
          in
          let want =
            Reference.decide ~spec ~scheme ~table ~action ~begin_ts ~own reference inv
          in
          if got <> want then
            QCheck2.Test.fail_reportf "%s %s, %s at %a, %a: view %s, reference %s"
              spec.Serial_spec.name (Replicated.scheme_name scheme)
              (Action.to_string action) Ts.pp begin_ts Event.Invocation.pp inv
              (show_decision got) (show_decision want))
        tables
    done
  in
  for _ = 1 to 200 do
    step ();
    if Rng.bool rng then gather ()
  done;
  true

let prop_differential =
  QCheck2.Test.make ~name:"cached views decide as the reference on the merged logs"
    ~count:60 QCheck2.Gen.nat differential

(* A gather witnesses no record timestamp itself: it relies on a
   repository's high watermark bounding every timestamp in the log it
   returns. Each step here (appends, refused and accepted votes, ingest,
   gc, checkpoints, and crash-recover, with torn tails for a durable
   repository) must keep that so. *)
let watermark_bounds_log seed =
  let rng = Rng.create seed in
  let int = Rng.int rng in
  let durable = Rng.bool rng in
  let r =
    Repository.create
      ?durability:
        (if durable then Some (Repository.durable ~segment_records:4 ~checkpoint_every:6 ())
         else None)
      ~site:0 ()
  in
  let action () = Action.of_int (int 4) in
  let stamp () = { Ts.counter = 1 + int 30; site = int 3 } in
  let record () =
    let a = action () in
    match int 5 with
    | 0 | 1 ->
      let ets = stamp () in
      Log.Entry { Log.ets; action = a; begin_ts = ets; seq = int 3; event = Queue_type.enq "x" }
    | 2 -> Log.Commit_record (a, stamp ())
    | 3 -> Log.Abort_record a
    | _ -> if Rng.bool rng then Log.Precommit (a, stamp ()) else Log.Preabort a
  in
  let bounded () =
    let high = Repository.high_ts r in
    List.for_all
      (fun rc ->
        match rc with
        | Log.Entry e -> Ts.compare e.Log.ets high <= 0
        | Log.Commit_record (_, t) | Log.Precommit (_, t) -> Ts.compare t high <= 0
        | Log.Abort_record _ | Log.Preabort _ -> true)
      (Log.records (Repository.read r))
  in
  let step () =
    match int 8 with
    | 0 | 1 -> Repository.append r (List.init (1 + int 3) (fun _ -> record ()))
    | 2 -> ignore (Repository.offer r (record ()))
    | 3 ->
      Repository.ingest r
        (List.fold_left Log.add Log.empty (List.init (int 5) (fun _ -> record ())))
    | 4 -> Repository.gc r
    | 5 ->
      Option.iter
        (fun w -> Atomrep_store.Wal.inject w Atomrep_store.Wal.Torn_write)
        (Repository.store r)
    | 6 -> Repository.checkpoint r
    | _ ->
      Repository.amnesia r;
      ignore (Repository.recover r)
  in
  let rec go n = n = 0 || (bounded () && (step (); go (n - 1))) in
  go 40 && bounded ()

let prop_watermark =
  QCheck2.Test.make ~name:"a repository's high watermark bounds its log" ~count:300
    QCheck2.Gen.nat watermark_bounds_log

(* Three logs grow for 1,000 steps, each step one entry at two of them and
   its action's commit at all three; a gather after every step folds at
   most 8 records however long the history. An older snapshot rebuilds
   without evicting the newer view. *)
let test_work_bound () =
  let cache = View.cache Queue_type.spec in
  let logs = Array.make 3 Log.empty in
  let gather () =
    let before = View.folded cache in
    ignore (View.gather cache (List.init 3 (fun i -> (i, logs.(i)))));
    View.folded cache - before
  in
  let step k =
    let a = Action.of_int k in
    let e =
      {
        Log.ets = ts ((2 * k) + 1);
        action = a;
        begin_ts = ts ((2 * k) + 1);
        seq = 0;
        event = Queue_type.enq "x";
      }
    in
    List.iter (fun i -> logs.(i) <- Log.add logs.(i) (Log.Entry e)) [ k mod 3; (k + 1) mod 3 ];
    Array.iteri (fun i l -> logs.(i) <- Log.add l (Log.Commit_record (a, ts ((2 * k) + 2)))) logs
  in
  let worst = ref 0 and snapshot = ref [||] in
  for k = 0 to 999 do
    step k;
    let n = gather () in
    if k > 0 then worst := max !worst n;
    if k = 499 then snapshot := Array.copy logs
  done;
  Alcotest.(check bool) (Printf.sprintf "at most 8 records per gather (worst %d)" !worst) true
    (!worst <= 8);
  let before = View.folded cache in
  let old = View.gather cache (List.init 3 (fun i -> (i, !snapshot.(i)))) in
  Alcotest.(check int) "the older snapshot is rebuilt"
    (Array.fold_left (fun acc l -> acc + Log.size l) 0 !snapshot)
    (View.folded cache - before);
  Alcotest.(check int) "its view holds the older history" 500 (List.length (View.committed old));
  Alcotest.(check int) "the newer view survives it" 0 (gather ());
  step 1000;
  Alcotest.(check bool) "and keeps folding increments" true (gather () <= 8)

(* Twenty committed Enq transactions replayed once leave a checkpoint at
   the sixteenth; aborting that one must stale the checkpoint in both
   orders, or the replay would resume from a state holding its Enq. *)
let test_memo_staling () =
  let cache = View.cache Queue_type.spec in
  let action k = Action.of_int (100 + k) in
  let log = ref Log.empty in
  for k = 1 to 20 do
    let e =
      { Log.ets = ts k; action = action k; begin_ts = ts k; seq = 0;
        event = Queue_type.enq (string_of_int k) }
    in
    log := Log.add (Log.add !log (Log.Entry e)) (Log.Commit_record (action k, ts (100 + k)))
  done;
  let nobody = Action.of_string "nobody" in
  let states view =
    ( View.commit_state view ~exclude:nobody,
      View.static_state view ~exclude:nobody ~before:(ts 1000) ~tentative:(fun _ -> false) )
  in
  ignore (states (View.gather cache [ (0, !log) ]));
  log := Log.add !log (Log.Abort_record (action 16));
  let want =
    Reference.replay Queue_type.spec (Some Queue_type.spec.Serial_spec.initial)
      (Reference.committed_events (Reference.classify !log))
  in
  let commit_order, static_order = states (View.gather cache [ (0, !log) ]) in
  let same = Option.equal Value.equal in
  Alcotest.(check bool) "commit order restaled" true (same commit_order want);
  Alcotest.(check bool) "static order restaled" true (same static_order want)

(* [Log.since] sees exactly the extension by [add]. *)
let test_log_since () =
  let e k = Log.Entry { Log.ets = ts k; action = Action.of_int k; begin_ts = ts k; seq = 0;
                        event = Queue_type.enq "x" } in
  let l1 = Log.add Log.empty (e 1) in
  let l2 = Log.add (Log.add l1 (e 2)) (e 3) in
  let since old l = Option.map List.length (Log.since (Log.mark old) (Log.mark l)) in
  Alcotest.(check (option int)) "two added" (Some 2) (since l1 l2);
  Alcotest.(check (option int)) "not backwards" None (since l2 l1);
  Alcotest.(check bool) "a present record leaves the log as it was" true (Log.add l2 (e 2) == l2);
  Alcotest.(check (option int)) "a branch is no extension" None
    (since (Log.add l1 (e 4)) (Log.add l1 (e 5)));
  Alcotest.(check (option int)) "merge starts a lineage" None (since l2 (Log.merge l2 l1));
  Alcotest.(check bool) "gc with nothing to drop keeps it" true (Log.gc l2 == l2);
  let aborted = Log.add l2 (Log.Abort_record (Action.of_int 1)) in
  Alcotest.(check (option int)) "gc that drops starts a lineage" None
    (since aborted (Log.gc aborted))

let suites =
  [
    ( "view",
      [
        Alcotest.test_case "log journal: since" `Quick test_log_since;
        Alcotest.test_case "gather work is bounded by the increment" `Quick test_work_bound;
        Alcotest.test_case "a removal stales the replay memo" `Quick test_memo_staling;
        QCheck_alcotest.to_alcotest prop_differential;
        QCheck_alcotest.to_alcotest prop_watermark;
      ] );
  ]
