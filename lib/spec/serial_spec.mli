(** Serial specifications (paper, §3.1) as state machines.

    A serial specification is the set of legal serial histories of a data
    type. We represent it operationally: a (possibly nondeterministic) state
    machine over {!Atomrep_history.Value} whose transitions give, for each
    state and invocation, every legal (response, next-state) pair. A serial
    history is legal when it can be stepped from the initial state; this
    representation makes serial specifications prefix-closed by construction,
    as the paper assumes.

    Analyses over a specification are bounded: they quantify over the
    declared invocation universe and over the states reachable within a
    caller-chosen number of events. The paper's data types all have event
    universes of size 5–10, so exhaustive bounded analysis reproduces its
    results exactly. *)

open Atomrep_history

type t = {
  name : string;
  initial : Value.t;
  step : Value.t -> Event.Invocation.t -> (Event.Response.t * Value.t) list;
  (** All legal (response, next state) pairs; [[]] when no response to this
      invocation is legal in this state — which cannot happen for total
      types, where every invocation has at least an exceptional response. *)
  invocations : Event.Invocation.t list;
  (** The bounded invocation universe used by exhaustive analyses. *)
}

val apply_event : t -> Value.t -> Event.t -> Value.t option
(** [apply_event spec s e] is the state after event [e] from state [s], or
    [None] if [e]'s response is not legal in [s]. Nondeterministic specs may
    admit several next states for one response; the first is returned, and
    specs are required to make (state, event) -> next state deterministic. *)

val run : t -> Event.t list -> Value.t option
(** Fold [apply_event] from the initial state; [None] on the first illegal
    event. *)

val legal : t -> Event.t list -> bool
(** Is the serial history legal (included in the specification)? *)

val responses : t -> Value.t -> Event.Invocation.t -> (Event.Response.t * Value.t) list
(** Legal continuations of one invocation from a state. *)

val reachable : t -> max_len:int -> (Event.t list * Value.t) list
(** Every distinct state reachable from the initial state in at most
    [max_len] events, each paired with the first history that reaches it in
    breadth-first order — a shortest one. Histories are expanded over the
    invocation universe in declaration order, and the search stops as soon
    as a level adds no new state. Since specs are deterministic per
    (state, event), a history matters to the bounded analyses only through
    the state it reaches. Empty when [max_len < 0]. *)

val event_universe : t -> max_len:int -> Event.t list
(** Every event legal at some state reachable in at most [max_len - 1]
    events — equivalently, every event occurring in some legal history of
    length at most [max_len]. This is the bounded event universe used when
    computing dependency relations. Sorted and deduplicated. *)

val state_equiv : t -> depth:int -> Value.t -> Value.t -> bool
(** Observational equivalence of two states up to experiments of the given
    depth over the invocation universe: both states admit the same response
    multisets and their successors are equivalent at [depth - 1]. For the
    bounded analyses in this repository, [depth] is chosen at least as large
    as the history bound, which makes the approximation exact within the
    analyzed fragment. *)

val equivalent : t -> depth:int -> Event.t list -> Event.t list -> bool
(** Equivalence of two serial histories (paper, §5): they cannot be
    distinguished by any future computation — here, up to [depth]-bounded
    experiments. Both histories must be legal. *)
