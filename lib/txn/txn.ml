open Atomrep_history
open Atomrep_clock

type status =
  | Running
  | Committing
  | Committed of Lamport.Timestamp.t
  | Aborted of string

type t = {
  action : Action.t;
  begin_ts : Lamport.Timestamp.t;
  home_site : int;
  mutable status : status;
  mutable touched : string list;
  mutable doomed : string option;
  mutable stranded : bool;
}

let create ~action ~begin_ts ~home_site =
  {
    action;
    begin_ts;
    home_site;
    status = Running;
    touched = [];
    doomed = None;
    stranded = false;
  }

let touch t name = if not (List.mem name t.touched) then t.touched <- t.touched @ [ name ]
