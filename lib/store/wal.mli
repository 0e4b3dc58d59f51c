(** Simulated per-site stable storage: a segmented, checksummed write-ahead
    log with an explicit volatile write buffer and [flush] (fsync) barriers.

    The model is deliberately storage-realistic but byte-free: records hold
    arbitrary OCaml payloads and "checksums" are structural hashes of the
    payload recorded alongside it.  What matters for the protocols built on
    top is the *shape* of failures, which is faithful:

    - [append] only buffers; nothing is durable until [flush] returns [Ok].
    - A [crash] discards the volatile buffer.  If a torn-write fault is
      armed, the first buffered record is additionally written to the tail
      of the durable log as a torn (checksum-invalid) record — modelling a
      partially persisted sector at the moment of the crash.
    - [recover] scans segments oldest-first, verifies each record's
      checksum, and truncates the durable log at the first invalid record.
      A single invalid record at the very tail is the expected torn-write
      case; an invalid record anywhere else is detected corruption
      (bit rot) and reported as such so callers can refuse to serve the
      log and take the resync path instead.
    - [checkpoint] atomically replaces all segments with a single snapshot
      record followed by a fresh tail segment, bounding both replay length
      and segment count.

    Injectable faults ({!fault}) cover torn tail writes, bit rot on durable
    records, flushes that report success but persist nothing (lost flush),
    and a full disk that rejects flushes/checkpoints until freed.

    The implementation is purely deterministic: no wall clock, no OS
    randomness.  Fault-site selection is the caller's job (the simulator
    draws from its seeded RNG). *)

type 'a t

(** Storage faults.  [inject] arms or applies them; see each constructor. *)
type fault =
  | Torn_write
      (** Arm: at the next [crash], the head of the volatile buffer is
          persisted as a torn (invalid-checksum) record at the tail. *)
  | Bit_rot of int
      (** Apply now: corrupt the checksum of durable record [i mod size]
          (no-op on an empty log).  Detection at [recover] is guaranteed. *)
  | Lost_flush
      (** Arm: the next [flush] returns [Ok] but persists nothing — the
          buffered records are silently dropped from durability. *)
  | Disk_full  (** Flushes and checkpoints fail with [`Disk_full]. *)
  | Disk_free  (** Clears [Disk_full]. *)

val fault_label : fault -> string

(** Result of [recover]. *)
type 'a recovery = {
  snapshot : 'a list;  (** payloads of the newest valid checkpoint, if any *)
  tail : 'a list;  (** valid data records after that checkpoint, in order *)
  replayed : int;  (** [List.length snapshot + List.length tail] *)
  truncated : int;  (** invalid/unreachable records physically dropped *)
  corrupt : bool;
      (** [true] iff an invalid record was found anywhere but the very
          tail — i.e. detected corruption rather than an expected torn
          tail write.  Callers must treat the site's suffix as lost and
          resync from peers. *)
  segments_scanned : int;
}

(** Cumulative counters (monotone over the life of the store). *)
type stats = {
  mutable flushes : int;  (** successful flush barriers *)
  mutable flushed_records : int;
  mutable lost_flushes : int;  (** flushes silently dropped by a fault *)
  mutable full_rejections : int;  (** flushes/checkpoints refused: disk full *)
  mutable torn_writes : int;  (** torn records persisted at crash *)
  mutable rotted : int;  (** bit-rot corruptions applied *)
  mutable checkpoints : int;
}

val create : ?segment_records:int -> unit -> 'a t
(** [segment_records] is the roll threshold per segment (default 32). *)

val append : 'a t -> 'a -> unit
(** Buffer a record.  Volatile until the next successful [flush]. *)

val flush : 'a t -> (int, [ `Disk_full ]) result
(** Persist the buffer to the tail segment.  Returns the number of records
    made durable ([Ok 0] on an empty buffer).  On [`Disk_full] the buffer
    is retained so a later flush can persist it. *)

val crash : 'a t -> unit
(** Lose the volatile buffer; persist a torn record first if armed. *)

val recover : 'a t -> 'a recovery
(** Scan, verify, truncate at the first invalid record, and return the
    valid prefix.  Physically truncates: a second crash+recover with no
    intervening writes returns exactly the same prefix (replay is a
    fixpoint).  Also clears any stale volatile buffer. *)

val checkpoint : 'a t -> 'a list -> (int, [ `Disk_full ]) result
(** [checkpoint t snapshot] atomically replaces every segment with a
    single checkpoint record holding [snapshot], dropping the volatile
    buffer (the snapshot must already cover it).  Returns the number of
    segments dropped. *)

val inject : 'a t -> fault -> unit
(** Arm or apply a fault; see {!fault}. *)

val records_since_checkpoint : 'a t -> int
(** Durable data records after the newest checkpoint (replay tail length —
    the quantity checkpointing exists to bound). *)

val durable_size : 'a t -> int
(** Total durable records (checkpoints included), for fault targeting. *)

val segments : 'a t -> int

val stats : 'a t -> stats

val zero_stats : unit -> stats
val add_stats : stats -> stats -> unit
(** [add_stats acc s] adds every counter of [s] into [acc]. *)

val recovery_cost_ms : 'a recovery -> float
(** Modeled (deterministic) recovery time: a per-segment seek cost plus a
    per-record replay cost.  Not wall clock. *)
