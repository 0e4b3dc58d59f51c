open Atomrep_history
open Atomrep_clock

type action = {
  begin_ts : Lamport.Timestamp.t;
  mutable own : Log.entry list; (* sequence order *)
  mutable active : bool;
}

type t = {
  spec : Atomrep_spec.Serial_spec.t;
  scheme : Replicated.scheme;
  table : Atomrep_cc.Conflict_table.t;
  mutable log : Log.t;
  views : View.cache;
  mutable actions : action Action.Map.t;
  mutable clock : int; (* entry timestamps *)
  mutable history : Behavioral.entry list; (* reversed *)
}

let create scheme spec =
  {
    spec;
    scheme;
    table = Atomrep_cc.Conflict_table.of_relation (Replicated.scheme_relation scheme spec);
    log = Log.empty;
    views = View.cache spec;
    actions = Action.Map.empty;
    clock = 0;
    history = [];
  }

let observe t entry = t.history <- entry :: t.history

let begin_action t a ~ts =
  if Action.Map.mem a t.actions then
    invalid_arg ("Scheduler: duplicate Begin for " ^ Action.to_string a);
  t.actions <- Action.Map.add a { begin_ts = ts; own = []; active = true } t.actions;
  observe t (Behavioral.Begin a)

let active t a =
  match Action.Map.find_opt a t.actions with
  | None -> invalid_arg ("Scheduler: unknown action " ^ Action.to_string a)
  | Some st when st.active -> st
  | Some _ -> invalid_arg ("Scheduler: action not active: " ^ Action.to_string a)

let try_operation t a inv =
  let st = active t a in
  match
    Replicated.decide ~spec:t.spec ~scheme:t.scheme ~table:t.table ~action:a
      ~begin_ts:st.begin_ts ~own:st.own
      (View.gather t.views [ (0, t.log) ])
      inv
  with
  | Error outcome -> outcome
  | Ok res ->
    t.clock <- t.clock + 1;
    let entry =
      {
        Log.ets = { Lamport.Timestamp.counter = t.clock; site = 0 };
        action = a;
        begin_ts = st.begin_ts;
        seq = List.length st.own;
        event = Event.make inv res;
      }
    in
    st.own <- st.own @ [ entry ];
    t.log <- Log.add t.log (Log.Entry entry);
    observe t (Behavioral.Exec (entry.event, a));
    Replicated.Done res

let finish t a record entry =
  (active t a).active <- false;
  t.log <- Log.add t.log record;
  observe t entry

let commit t a ~ts = finish t a (Log.Commit_record (a, ts)) (Behavioral.Commit a)
let abort t a = finish t a (Log.Abort_record a) (Behavioral.Abort a)
let history t = List.rev t.history
