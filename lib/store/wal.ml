(* Simulated segmented WAL.  See wal.mli for the model. *)

type fault = Torn_write | Bit_rot of int | Lost_flush | Disk_full | Disk_free

let fault_label = function
  | Torn_write -> "torn_write"
  | Bit_rot _ -> "bit_rot"
  | Lost_flush -> "lost_flush"
  | Disk_full -> "disk_full"
  | Disk_free -> "disk_free"

(* A durable cell is a payload plus its stored checksum.  [Torn] cells have
   no payload at all (the write never completed); they can never validate. *)
type 'a stored = Data of 'a | Ckpt of 'a list | Torn

type 'a cell = { stored : 'a stored; mutable sum : int }

(* Structural hash of the payload, standing in for a CRC over the record
   bytes.  Deterministic for a given value; bit rot flips the stored sum so
   detection is guaranteed rather than probabilistic. *)
let checksum stored = Hashtbl.hash_param 1024 1024 stored

let valid cell =
  match cell.stored with Torn -> false | _ -> cell.sum = checksum cell.stored

let cell stored = { stored; sum = checksum stored }

type 'a segment = { mutable cells : 'a cell list (* newest first *); mutable n : int }

type 'a recovery = {
  snapshot : 'a list;
  tail : 'a list;
  replayed : int;
  truncated : int;
  corrupt : bool;
  segments_scanned : int;
}

type stats = {
  mutable flushes : int;
  mutable flushed_records : int;
  mutable lost_flushes : int;
  mutable full_rejections : int;
  mutable torn_writes : int;
  mutable rotted : int;
  mutable checkpoints : int;
}

type 'a t = {
  segment_records : int;
  mutable segs : 'a segment list; (* oldest first *)
  mutable buffer : 'a list; (* newest first; volatile *)
  mutable since_ckpt : int;
  mutable torn_armed : bool;
  mutable lost_armed : bool;
  mutable full : bool;
  st : stats;
}

let zero_stats () =
  {
    flushes = 0;
    flushed_records = 0;
    lost_flushes = 0;
    full_rejections = 0;
    torn_writes = 0;
    rotted = 0;
    checkpoints = 0;
  }

let add_stats acc s =
  acc.flushes <- acc.flushes + s.flushes;
  acc.flushed_records <- acc.flushed_records + s.flushed_records;
  acc.lost_flushes <- acc.lost_flushes + s.lost_flushes;
  acc.full_rejections <- acc.full_rejections + s.full_rejections;
  acc.torn_writes <- acc.torn_writes + s.torn_writes;
  acc.rotted <- acc.rotted + s.rotted;
  acc.checkpoints <- acc.checkpoints + s.checkpoints

let create ?(segment_records = 32) () =
  if segment_records < 1 then invalid_arg "Wal.create: segment_records < 1";
  {
    segment_records;
    segs = [];
    buffer = [];
    since_ckpt = 0;
    torn_armed = false;
    lost_armed = false;
    full = false;
    st = zero_stats ();
  }

let append t a = t.buffer <- a :: t.buffer

(* Tail segment with room, rolling a fresh one when needed. *)
let tail_segment t =
  match List.rev t.segs with
  | last :: _ when last.n < t.segment_records -> last
  | _ ->
      let s = { cells = []; n = 0 } in
      t.segs <- t.segs @ [ s ];
      s

let persist t stored =
  let s = tail_segment t in
  s.cells <- cell stored :: s.cells;
  s.n <- s.n + 1

let flush t =
  if t.buffer = [] then Ok 0
  else if t.full then begin
    t.st.full_rejections <- t.st.full_rejections + 1;
    Error `Disk_full
  end
  else begin
    let records = List.rev t.buffer in
    t.buffer <- [];
    if t.lost_armed then begin
      (* The device acknowledged the barrier but persisted nothing. *)
      t.lost_armed <- false;
      t.st.lost_flushes <- t.st.lost_flushes + 1;
      Ok (List.length records)
    end
    else begin
      List.iter (fun a -> persist t (Data a)) records;
      let k = List.length records in
      t.since_ckpt <- t.since_ckpt + k;
      t.st.flushes <- t.st.flushes + 1;
      t.st.flushed_records <- t.st.flushed_records + k;
      Ok k
    end
  end

let crash t =
  (match (t.torn_armed, t.buffer) with
  | true, _ :: _ when not t.full ->
      (* The head of the buffer was mid-write when power failed: its
         sector hit the platter but the record is incomplete. *)
      persist t Torn;
      t.since_ckpt <- t.since_ckpt + 1;
      t.st.torn_writes <- t.st.torn_writes + 1
  | _ -> ());
  t.torn_armed <- false;
  t.buffer <- []

let checkpoint t snapshot =
  if t.full then begin
    t.st.full_rejections <- t.st.full_rejections + 1;
    Error `Disk_full
  end
  else begin
    let dropped = List.length t.segs in
    let s = { cells = [ cell (Ckpt snapshot) ]; n = 1 } in
    t.segs <- [ s ];
    t.buffer <- [];
    t.since_ckpt <- 0;
    t.st.checkpoints <- t.st.checkpoints + 1;
    Ok dropped
  end

(* All durable cells oldest-first. *)
let all_cells t = List.concat_map (fun s -> List.rev s.cells) t.segs

let durable_size t = List.fold_left (fun n s -> n + s.n) 0 t.segs

let segments t = List.length t.segs

let records_since_checkpoint t = t.since_ckpt

let stats t = t.st

let inject t fault =
  match fault with
  | Torn_write -> t.torn_armed <- true
  | Lost_flush -> t.lost_armed <- true
  | Disk_full -> t.full <- true
  | Disk_free -> t.full <- false
  | Bit_rot i ->
      let size = durable_size t in
      if size > 0 then begin
        let victim = ((i mod size) + size) mod size in
        let c = List.nth (all_cells t) victim in
        c.sum <- c.sum lxor 1;
        t.st.rotted <- t.st.rotted + 1
      end

let recover t =
  t.buffer <- [];
  let segments_scanned = List.length t.segs in
  let cells = all_cells t in
  (* Valid prefix: everything before the first checksum failure. *)
  let rec split_valid acc = function
    | c :: rest when valid c -> split_valid (c :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let prefix, bad = split_valid [] cells in
  let truncated = List.length bad in
  let corrupt =
    match bad with
    | [] -> false
    | [ { stored = Torn; _ } ] -> false (* expected torn tail write *)
    | _ -> true
  in
  (* Physically truncate to the valid prefix so recovery is a fixpoint. *)
  if truncated > 0 then begin
    let rec rebuild segs = function
      | [] -> List.rev segs
      | cs ->
          let rec take k acc rest =
            if k = 0 then (List.rev acc, rest)
            else match rest with [] -> (List.rev acc, []) | c :: tl -> take (k - 1) (c :: acc) tl
          in
          let chunk, rest = take t.segment_records [] cs in
          rebuild ({ cells = List.rev chunk; n = List.length chunk } :: segs) rest
    in
    t.segs <- rebuild [] prefix
  end;
  (* Replay: newest valid checkpoint in the prefix restarts accumulation. *)
  let snapshot, rev_tail, tail_n =
    List.fold_left
      (fun (snap, tail, n) c ->
        match c.stored with
        | Ckpt s -> (s, [], 0)
        | Data a -> (snap, a :: tail, n + 1)
        | Torn -> (snap, tail, n))
      ([], [], 0) prefix
  in
  t.since_ckpt <- tail_n;
  {
    snapshot;
    tail = List.rev rev_tail;
    replayed = List.length snapshot + tail_n;
    truncated;
    corrupt;
    segments_scanned;
  }

(* Modeled recovery time: one seek per segment plus a per-record replay
   cost, in simulated milliseconds.  Deterministic by construction. *)
let seek_ms = 0.5
let replay_record_ms = 0.02

let recovery_cost_ms r =
  (seek_ms *. float_of_int r.segments_scanned)
  +. (replay_record_ms *. float_of_int r.replayed)
