(** Invocations, responses and events.

    An event is a pair consisting of an operation invocation and a response
    (paper, §3.1). An invocation names an operation and supplies arguments; a
    response carries a termination label — ["Ok"] for normal termination, or
    an exception name such as ["Empty"] or ["Disabled"] — and result values. *)

module Invocation : sig
  type t = { op : string; args : Value.t list }

  val make : string -> Value.t list -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Response : sig
  type t = { label : string; rets : Value.t list }

  val ok : Value.t list -> t
  (** Normal termination. *)

  val exn : string -> t
  (** Exceptional termination with no results. *)

  val make : string -> Value.t list -> t
  val is_ok : t -> bool
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

type t = { inv : Invocation.t; res : Response.t }

val make : Invocation.t -> Response.t -> t

val simple : string -> Value.t list -> Response.t -> t
(** [simple op args res] builds the event [op(args); res]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints in the paper's style, e.g. [Enq(x);Ok()] or [Deq();Empty()]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
