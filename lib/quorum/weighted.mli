(** Weighted voting (Gifford [11]) generalization of threshold quorums.

    Each site carries a vote weight; a quorum for an operation is any site
    set whose weights total at least the operation's vote threshold.
    Threshold assignments are the special case of unit weights. Weighted
    assignments can shift availability toward specific operations on
    heterogeneous sites — the refinement the paper's §2 credits to Gifford
    and that {!Assignment} flattens away for identical sites. *)

type t = {
  weights : int array; (** votes per site *)
  ops : (string * (int * int)) list;
      (** per operation: (initial votes, final votes) required *)
}

val make : weights:int array -> (string * (int * int)) list -> t

val total_votes : t -> int

val op_available : t -> live:Quorum.t -> string -> bool

val satisfies : t -> Op_constraint.t list -> bool
(** Every initial quorum of a dependent operation intersects every final
    quorum of its supplier: with weights totalling [W], votes [vi + vf > W]
    guarantee intersection (and this is tight for weighted families). *)

val availability : t -> p:float -> string -> float
(** Exact availability by enumeration over the [2^n] up-sets; sites fail
    independently with probability [1 - p]. Intended for the small
    replication degrees used in the experiments. *)

val availability_hetero : t -> p_up:float array -> string -> float
(** Exact availability with per-site up probabilities. *)

val enumerate :
  weights:int array -> ops:string list -> Op_constraint.t list -> t list
(** Every vote assignment (initial and final votes per operation, each in
    [0 .. total votes]) satisfying the constraints [vi + vf > total].
    Exhaustive; sized for small vote totals. *)

val best_for_mix :
  p_up:float array -> mix:(string * float) list -> t list -> t option
(** The assignment maximizing the mix-weighted availability under
    heterogeneous site reliabilities. *)
