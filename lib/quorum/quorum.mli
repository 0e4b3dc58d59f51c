(** Quorums as site sets (paper, §1, §3.2).

    A quorum for an operation is any set of sites whose cooperation suffices
    to execute that operation. Sites are numbered [0 .. n-1]; a quorum is a
    bitset over them. *)

type t
(** A set of sites. *)

val of_sites : int list -> t
val sites : t -> int list
val cardinal : t -> int
val intersects : t -> t -> bool
val subset : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val is_empty : t -> bool
val mem : int -> t -> bool
val equal : t -> t -> bool
val empty : t
val full : int -> t
(** [full n] contains sites [0 .. n-1]. *)

val pp : Format.formatter -> t -> unit

val all_of_size : n:int -> int -> t list
(** [all_of_size ~n k] enumerates every k-subset of [0 .. n-1] — the
    threshold quorum family of size [k]. *)
