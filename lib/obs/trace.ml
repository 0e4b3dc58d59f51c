type kind =
  | Rpc_send of { src : int; dst : int }
  | Rpc_recv of { src : int; dst : int }
  | Rpc_drop of { src : int; dst : int; reason : string; elapsed : float }
  | Rpc_timeout of { src : int; dst : int; timeout : float; elapsed : float }
  | Quorum_read of { txn : string; op : string; got : int; need : int }
  | Quorum_append of { txn : string; op : string; got : int; need : int }
  | Repo_append of { txn : string; op : string; tentative : bool }
  | Txn_begin of { txn : string }
  | Txn_commit of { txn : string }
  | Txn_abort of { txn : string; reason : string }
  | Lock_wait of { txn : string; blocker : string }
  | Lock_grant of { txn : string; op : string }
  | Epoch_seal of { epoch : int }
  | Epoch_transfer of { epoch : int }
  | Epoch_fence of { epoch : int; stale : int }
  | Crash of { site : int; amnesia : bool }
  | Recover of { site : int; resynced : bool }
  | Partition of { n_groups : int }
  | Heal
  | Detector_suspect of { site : int }
  | Detector_trust of { site : int }
  | Wal_flush of { site : int; records : int }
  | Wal_checkpoint of { site : int; kept : int; dropped_segments : int }
  | Wal_full of { site : int }
  | Wal_replay of { site : int; replayed : int; truncated : int; corrupt : bool }
  | Store_fault of { site : int; fault : string }
  | Commit_point of { txn : string }
  | Txn_redrive of { txn : string; outcome : string }
  | Coop_term of { txn : string; outcome : string }
  | Orphan_gc of { site : int; resolved : int }
  | Deadlock of { victim : string; cycle : string list }
  | Txn_decide of { txn : string; site : int; committed : bool }
  | Takeover_acquire of { txn : string; site : int; term : int }
  | Takeover_fence of { txn : string; site : int; term : int; granted : int }
  | Quiesce of { up : int; n_sites : int; partitioned : bool }
  | Span_begin of { span : int; parent : int option; label : string }
  | Span_end of { span : int; outcome : string }
  | Shed of { txn : string; reason : string }
  | Repo_resolve of { txn : string; committed : bool }
  | Session_commit of { session : int; txn : string; counter : int; site : int }
  | Breaker of { site : int; state : string }
  | Rpc_hedge of { src : int; dst : int; delay : float }
  | Rpc_outcome of { src : int; dst : int; ok : bool; elapsed : float }
  | Slow_inject of { site : int; mode : string }
  | Detector_slow of { site : int; slow : bool; score : float }

type event = {
  id : int;
  time : float;
  site : int;
  lamport : int;
  prev : int option;
  cause : int option;
  kind : kind;
}

(* Storage: events sit in fixed-size chunks of columns, slot [s] at
   offset [s land chunk_mask] of chunk [s lsr chunk_bits]. A full bus
   stores every event, so its slot is its id. A judge-only bus stores
   the events of the kinds in its [mask] and records each one's id in
   [c_id]. [c_prev] and [c_cause] hold -1 for none; records are built only
   when a reader asks for an event. Growing allocates one chunk and never
   copies a stored event. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  c_time : float array;
  c_site : int array;
  c_prev : int array;
  c_cause : int array;
  c_kind : kind array;
  c_id : int array; (* judge-only: the id of each slot; [||] on a full bus *)
}

type t = {
  on : bool;
  full : bool;
  mask : bool array; (* judge-only: stored kinds, indexed by kind tag *)
  mutable chunks : chunk array; (* [size] slots in use, in id order *)
  mutable size : int;
  mutable ids : int; (* ids issued, one per emit *)
  (* The Lamport stamp of every id, stored or not, in chunks of
     [chunk_size], so that a later [~cause] naming an unstored event
     still witnesses its clock. *)
  mutable lamports : int array array;
  mutable now : unit -> float;
  (* Per-site Lamport counter and last event id; index [site + 1] so the
     system lane (-1) shares the machinery. *)
  counters : int array;
  last : int array;
  mutable next_span : int;
}

(* The stable label of each kind constructor, indexed by its dense tag
   ({!kind_tag}). The tag indexes this table and the observed-kind
   masks. *)
let labels =
  [|
    "rpc_send"; "rpc_recv"; "rpc_drop"; "rpc_timeout"; "quorum_read";
    "quorum_append"; "repo_append"; "txn_begin"; "txn_commit"; "txn_abort";
    "lock_wait"; "lock_grant"; "epoch_seal"; "epoch_transfer"; "epoch_fence";
    "crash"; "recover"; "partition"; "heal"; "detector_suspect";
    "detector_trust"; "wal_flush"; "wal_checkpoint"; "wal_full"; "wal_replay";
    "store_fault"; "commit_point"; "txn_redrive"; "coop_term"; "orphan_gc";
    "deadlock"; "txn_decide"; "takeover_acquire"; "takeover_fence"; "quiesce";
    "span_begin"; "span_end"; "shed"; "repo_resolve"; "session_commit";
    "breaker"; "rpc_hedge"; "rpc_outcome"; "slow_inject"; "detector_slow";
  |]

let n_kind_tags = Array.length labels

let kind_tag = function
  | Rpc_send _ -> 0
  | Rpc_recv _ -> 1
  | Rpc_drop _ -> 2
  | Rpc_timeout _ -> 3
  | Quorum_read _ -> 4
  | Quorum_append _ -> 5
  | Repo_append _ -> 6
  | Txn_begin _ -> 7
  | Txn_commit _ -> 8
  | Txn_abort _ -> 9
  | Lock_wait _ -> 10
  | Lock_grant _ -> 11
  | Epoch_seal _ -> 12
  | Epoch_transfer _ -> 13
  | Epoch_fence _ -> 14
  | Crash _ -> 15
  | Recover _ -> 16
  | Partition _ -> 17
  | Heal -> 18
  | Detector_suspect _ -> 19
  | Detector_trust _ -> 20
  | Wal_flush _ -> 21
  | Wal_checkpoint _ -> 22
  | Wal_full _ -> 23
  | Wal_replay _ -> 24
  | Store_fault _ -> 25
  | Commit_point _ -> 26
  | Txn_redrive _ -> 27
  | Coop_term _ -> 28
  | Orphan_gc _ -> 29
  | Deadlock _ -> 30
  | Txn_decide _ -> 31
  | Takeover_acquire _ -> 32
  | Takeover_fence _ -> 33
  | Quiesce _ -> 34
  | Span_begin _ -> 35
  | Span_end _ -> 36
  | Shed _ -> 37
  | Repo_resolve _ -> 38
  | Session_commit _ -> 39
  | Breaker _ -> 40
  | Rpc_hedge _ -> 41
  | Rpc_outcome _ -> 42
  | Slow_inject _ -> 43
  | Detector_slow _ -> 44

let label_of_tag tag = labels.(tag)
let kind_label kind = labels.(kind_tag kind)

let tag_of_label label =
  let rec find tag =
    if tag >= n_kind_tags then None
    else if String.equal labels.(tag) label then Some tag
    else find (tag + 1)
  in
  find 0

let mask ~name labels =
  let mask = Array.make n_kind_tags false in
  List.iter
    (fun label ->
      match tag_of_label label with
      | Some tag -> mask.(tag) <- true
      | None ->
        invalid_arg (Printf.sprintf "%s: unknown trace kind label %S" name label))
    labels;
  mask

let create ?(enabled = true) ?observes ~n_sites () =
  {
    on = enabled;
    full = observes = None;
    (* Spans are always stored: the runtime turns closed spans into the
       registry's span.* histograms. *)
    mask =
      (match observes with
       | None -> [||]
       | Some labels -> mask ~name:"Trace.create" ("span_begin" :: "span_end" :: labels));
    chunks = [||];
    size = 0;
    ids = 0;
    lamports = [||];
    now = (fun () -> 0.0);
    counters = Array.make (n_sites + 1) 0;
    last = Array.make (n_sites + 1) (-1);
    next_span = 0;
  }

let null = create ~enabled:false ~n_sites:0 ()
let enabled t = t.on
let set_clock t f = t.now <- f
let length t = t.ids

(* [dir] with entry [n] set to [chunk]: a full directory doubles, which
   copies chunk pointers, never the chunks (the slots past [n] hold
   [chunk] until their own chunk replaces it). *)
let add_chunk dir n chunk =
  let dir =
    if n < Array.length dir then dir
    else begin
      let bigger = Array.make (Int.max 4 (2 * n)) chunk in
      Array.blit dir 0 bigger 0 n;
      bigger
    end
  in
  dir.(n) <- chunk;
  dir

let lamport_of t id = t.lamports.(id lsr chunk_bits).(id land chunk_mask)

let id_of t slot =
  if t.full then slot else t.chunks.(slot lsr chunk_bits).c_id.(slot land chunk_mask)

let kind_at t slot = t.chunks.(slot lsr chunk_bits).c_kind.(slot land chunk_mask)

let opt i = if i >= 0 then Some i else None

let event_at t slot =
  let c = t.chunks.(slot lsr chunk_bits) and o = slot land chunk_mask in
  let id = if t.full then slot else c.c_id.(o) in
  {
    id;
    time = c.c_time.(o);
    site = c.c_site.(o);
    lamport = lamport_of t id;
    prev = opt c.c_prev.(o);
    cause = opt c.c_cause.(o);
    kind = c.c_kind.(o);
  }

let get t id =
  if (not t.full) || id < 0 || id >= t.size then
    invalid_arg "Trace.get: bad event id, or a judge-only bus";
  event_at t id

(* The first slot whose id is at least [from_id]: the id itself on a full
   bus; a binary search over the ids on a judge-only bus, where ids
   increase with slots. *)
let first_slot t from_id =
  if from_id <= 0 then 0
  else if t.full then Int.min from_id t.size
  else begin
    let lo = ref 0 and hi = ref t.size in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if id_of t mid < from_id then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let iter ?(from_id = 0) ?kinds t f =
  let first = first_slot t from_id in
  match kinds with
  | None ->
    for slot = first to t.size - 1 do
      f (event_at t slot)
    done
  | Some kinds ->
    for slot = first to t.size - 1 do
      if kinds.(kind_tag (kind_at t slot)) then f (event_at t slot)
    done

let events t =
  let rec build slot acc =
    if slot < 0 then acc else build (slot - 1) (event_at t slot :: acc)
  in
  build (t.size - 1) []

let store t ~id ~site ~last ~cause kind =
  let slot = t.size in
  let o = slot land chunk_mask in
  if o = 0 then begin
    let col () = Array.make chunk_size (-1) in
    let chunk =
      {
        c_time = Array.make chunk_size 0.0;
        c_site = col ();
        c_prev = col ();
        c_cause = col ();
        c_kind = Array.make chunk_size Heal;
        c_id = (if t.full then [||] else col ());
      }
    in
    t.chunks <- add_chunk t.chunks (slot lsr chunk_bits) chunk
  end;
  let c = t.chunks.(slot lsr chunk_bits) in
  c.c_time.(o) <- t.now ();
  c.c_site.(o) <- site;
  c.c_prev.(o) <- last;
  c.c_cause.(o) <- cause;
  c.c_kind.(o) <- kind;
  if not t.full then c.c_id.(o) <- id;
  t.size <- slot + 1

(* Every emit takes the next id and advances its lane's Lamport counter
   and program order, whatever it stores, so a stored event is equal
   field for field to the event the same emit makes on a full bus. *)
let record t ~site ~cause kind =
  let lane = site + 1 in
  let cause = match cause with Some c when c >= 0 -> c | _ -> -1 in
  let counter = t.counters.(lane) in
  let witnessed = if cause >= 0 then lamport_of t cause else counter in
  let lamport = Int.max counter witnessed + 1 in
  t.counters.(lane) <- lamport;
  let last = t.last.(lane) in
  let id = t.ids in
  t.ids <- id + 1;
  t.last.(lane) <- id;
  let o = id land chunk_mask in
  if o = 0 then
    t.lamports <- add_chunk t.lamports (id lsr chunk_bits) (Array.make chunk_size 0);
  t.lamports.(id lsr chunk_bits).(o) <- lamport;
  if t.full || t.mask.(kind_tag kind) then store t ~id ~site ~last ~cause kind;
  id

let publish_key = Profile.key ~subsystem:"trace" "publish"

let emit t ~site ?cause kind =
  if not t.on then -1
  else begin
    let p = Profile.current () in
    if Profile.enabled p then
      Profile.time p publish_key (fun () ->
          record t ~site ~cause kind)
    else record t ~site ~cause kind
  end

let span_begin t ~site ?parent label =
  if not t.on then -1
  else begin
    let span = t.next_span in
    t.next_span <- span + 1;
    let parent = match parent with Some p when p >= 0 -> Some p | _ -> None in
    ignore (emit t ~site (Span_begin { span; parent; label }));
    span
  end

let span_end t ~site ~span ~outcome =
  if t.on && span >= 0 then ignore (emit t ~site (Span_end { span; outcome }))

type span = {
  span_id : int;
  label : string;
  span_parent : int option;
  span_site : int;
  t_begin : float;
  t_end : float option;
  span_outcome : string option;
}

let span_kinds = mask ~name:"Trace.spans" [ "span_begin"; "span_end" ]

let spans t =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  iter ~kinds:span_kinds t (fun e ->
    match e.kind with
    | Span_begin { span; parent; label } ->
      Hashtbl.replace tbl span
        {
          span_id = span;
          label;
          span_parent = parent;
          span_site = e.site;
          t_begin = e.time;
          t_end = None;
          span_outcome = None;
        };
      order := span :: !order
    | Span_end { span; outcome } ->
      (match Hashtbl.find_opt tbl span with
       | Some s ->
         Hashtbl.replace tbl span
           { s with t_end = Some e.time; span_outcome = Some outcome }
       | None -> ())
    | _ -> ());
  List.rev_map (fun id -> Hashtbl.find tbl id) !order

let span_durations t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.t_end with
      | None -> ()
      | Some te ->
        let summary =
          match Hashtbl.find_opt tbl s.label with
          | Some sum -> sum
          | None ->
            let sum = Atomrep_stats.Summary.create () in
            Hashtbl.add tbl s.label sum;
            sum
        in
        Atomrep_stats.Summary.add summary (te -. s.t_begin))
    (spans t);
  Hashtbl.fold (fun label sum acc -> (label, sum) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The one description of a kind: its named fields, in the order the
   exporters print them. Every view of an event (JSONL and Chrome args,
   the text line, postmortem targeting) reads it. *)
let fields kind =
  let int = Json.int and str s = Json.Str s and bool b = Json.Bool b
  and num f = Json.Num f in
  match kind with
  | Rpc_send { src; dst } | Rpc_recv { src; dst } -> [ ("src", int src); ("dst", int dst) ]
  | Rpc_timeout { src; dst; timeout; elapsed } ->
    [ ("src", int src); ("dst", int dst); ("timeout", num timeout);
      ("elapsed", num elapsed) ]
  | Rpc_drop { src; dst; reason; elapsed } ->
    [ ("src", int src); ("dst", int dst); ("reason", str reason);
      ("elapsed", num elapsed) ]
  | Rpc_hedge { src; dst; delay } ->
    [ ("src", int src); ("dst", int dst); ("delay", num delay) ]
  | Rpc_outcome { src; dst; ok; elapsed } ->
    [ ("src", int src); ("dst", int dst); ("ok", bool ok); ("elapsed", num elapsed) ]
  | Slow_inject { site; mode } -> [ ("site", int site); ("mode", str mode) ]
  | Detector_slow { site; slow; score } ->
    [ ("site", int site); ("slow", bool slow); ("score", num score) ]
  | Quorum_read { txn; op; got; need } | Quorum_append { txn; op; got; need } ->
    [ ("txn", str txn); ("op", str op); ("got", int got); ("need", int need) ]
  | Repo_append { txn; op; tentative } ->
    [ ("txn", str txn); ("op", str op); ("tentative", bool tentative) ]
  | Txn_begin { txn } | Txn_commit { txn } | Commit_point { txn } -> [ ("txn", str txn) ]
  | Txn_abort { txn; reason } | Shed { txn; reason } ->
    [ ("txn", str txn); ("reason", str reason) ]
  | Lock_wait { txn; blocker } -> [ ("txn", str txn); ("blocker", str blocker) ]
  | Lock_grant { txn; op } -> [ ("txn", str txn); ("op", str op) ]
  | Epoch_seal { epoch } | Epoch_transfer { epoch } -> [ ("epoch", int epoch) ]
  | Epoch_fence { epoch; stale } -> [ ("epoch", int epoch); ("stale", int stale) ]
  | Crash { site; amnesia } -> [ ("site", int site); ("amnesia", bool amnesia) ]
  | Recover { site; resynced } -> [ ("site", int site); ("resynced", bool resynced) ]
  | Partition { n_groups } -> [ ("n_groups", int n_groups) ]
  | Heal -> []
  | Detector_suspect { site } | Detector_trust { site } | Wal_full { site } ->
    [ ("site", int site) ]
  | Wal_flush { site; records } -> [ ("site", int site); ("records", int records) ]
  | Wal_checkpoint { site; kept; dropped_segments } ->
    [ ("site", int site); ("kept", int kept);
      ("dropped_segments", int dropped_segments) ]
  | Wal_replay { site; replayed; truncated; corrupt } ->
    [ ("site", int site); ("replayed", int replayed); ("truncated", int truncated);
      ("corrupt", bool corrupt) ]
  | Store_fault { site; fault } -> [ ("site", int site); ("fault", str fault) ]
  | Txn_redrive { txn; outcome } | Coop_term { txn; outcome } ->
    [ ("txn", str txn); ("outcome", str outcome) ]
  | Orphan_gc { site; resolved } -> [ ("site", int site); ("resolved", int resolved) ]
  | Txn_decide { txn; site; committed } ->
    [ ("txn", str txn); ("site", int site); ("committed", bool committed) ]
  | Takeover_acquire { txn; site; term } ->
    [ ("txn", str txn); ("site", int site); ("term", int term) ]
  | Takeover_fence { txn; site; term; granted } ->
    [ ("txn", str txn); ("site", int site); ("term", int term);
      ("granted", int granted) ]
  | Quiesce { up; n_sites; partitioned } ->
    [ ("up", int up); ("n_sites", int n_sites); ("partitioned", bool partitioned) ]
  | Deadlock { victim; cycle } ->
    [ ("victim", str victim); ("cycle", Json.List (List.map str cycle)) ]
  | Span_begin { span; parent; label } ->
    [ ("span", int span);
      ("parent", match parent with Some p -> int p | None -> Json.Null);
      ("label", str label) ]
  | Span_end { span; outcome } -> [ ("span", int span); ("outcome", str outcome) ]
  | Repo_resolve { txn; committed } -> [ ("txn", str txn); ("committed", bool committed) ]
  | Session_commit { session; txn; counter; site } ->
    [ ("session", int session); ("txn", str txn); ("counter", int counter);
      ("site", int site) ]
  | Breaker { site; state } -> [ ("site", int site); ("state", str state) ]

(* A field value on the text line: strings bare, lists of them bracketed,
   everything else as JSON prints it. *)
let rec value_text = function
  | Json.Str s -> s
  | Json.List vs -> "[" ^ String.concat "," (List.map value_text vs) ^ "]"
  | v -> Json.to_string v

let pp_kind ppf kind =
  Format.pp_print_string ppf (kind_label kind);
  List.iter
    (fun (name, v) -> Format.fprintf ppf " %s=%s" name (value_text v))
    (fields kind)

let pp_event ppf e =
  Format.fprintf ppf "[%8.1f] site=%-2d L=%-5d #%-5d %a" e.time e.site e.lamport
    e.id pp_kind e.kind
