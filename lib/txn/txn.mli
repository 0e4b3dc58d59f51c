(** Transaction identities and lifecycle for the replicated runtime.

    Transactions are the paper's actions: they begin, execute operations
    against replicated objects through front-ends, and either commit —
    receiving a commit timestamp from a Lamport clock — or abort. *)

open Atomrep_history
open Atomrep_clock

type status =
  | Running
  | Committing
  | Committed of Lamport.Timestamp.t
  | Aborted of string (** reason *)

type t = {
  action : Action.t;
  begin_ts : Lamport.Timestamp.t;
  home_site : int; (** front-end site executing this transaction *)
  mutable status : status;
  mutable touched : string list; (** object names, in first-touch order *)
  mutable doomed : string option;
      (** deadlock victim sentence: the reason this transaction must abort
          at its next step (set by the detector, delivered by the runtime) *)
  mutable stranded : bool;
      (** the transaction's home site crashed mid-flight and its driver
          stopped; a recovery or termination protocol must resolve it *)
}

val create : action:Action.t -> begin_ts:Lamport.Timestamp.t -> home_site:int -> t
val touch : t -> string -> unit
