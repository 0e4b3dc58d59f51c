(** Trace exporters: JSONL, Chrome [trace_event], and a text flame summary.

    The Chrome export opens in Perfetto / chrome://tracing: each site is a
    "thread" (tid = site + 1; tid 0 is the system lane), closed spans
    become complete ("X") duration events, open spans become "B" events,
    and every other trace event becomes a thread-scoped instant. Simulated
    milliseconds map to the format's microsecond [ts] field. *)

val event_json : Trace.event -> Json.t
(** One event as [{id,t,site,lamport,prev,cause,kind,args}]: [kind] is
    its {!Trace.kind_label}, [args] its {!Trace.fields} as an object. A
    Chrome instant carries the same [args]. *)

val jsonl : Trace.t -> string
(** One {!event_json} object per line, in emission order. *)

val chrome : Trace.t -> Json.t
(** The full [{"traceEvents": [...]}] document. *)

val chrome_string : Trace.t -> string

val expected_chrome_events : Trace.t -> int
(** How many entries {!chrome}'s [traceEvents] array must contain for this
    trace — the round-trip check the tests pin. *)

val flame : Trace.t -> string
(** Per-span-label duration table (count, total, mean, p95), widest total
    first — a quick "where did the time go" answer. *)

val write_file : string -> string -> unit
(** [write_file path contents] — plain overwrite helper shared by the CLI
    and the campaign. *)
