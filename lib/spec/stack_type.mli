(** A LIFO stack.

    [Push] and [Pop] with an [Empty] exception. The stack's last-in-first-out
    discipline produces a different dependency structure from the queue's
    FIFO — in particular Push/Push pairs conflict even for the static
    property — making it a useful contrast case in the benchmarks. *)

open Atomrep_history

val spec : Serial_spec.t
(** Stack over items [x, y]. *)

val spec_with_items : string list -> Serial_spec.t

val push : string -> Event.t
val pop_ok : string -> Event.t

val push_inv : string -> Event.Invocation.t
val pop_inv : Event.Invocation.t
