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

let dummy_event =
  { id = -1; time = 0.0; site = -1; lamport = 0; prev = None; cause = None; kind = Heal }

type t = {
  on : bool;
  mutable data : event array; (* growable; [size] slots in use *)
  mutable size : int;
  mutable now : unit -> float;
  (* Per-site Lamport counter and last event id; index [site + 1] so the
     system lane (-1) shares the machinery. *)
  counters : int array;
  last : int array;
  mutable next_span : int;
  (* Per-kind sampling: keep 1 in [sample_every] events of each kind
     (deterministic per-kind counters, no RNG), except kinds the
     [sample_forced] predicate claims — those stay full fidelity. The
     counters and the forced-decision cache are dense arrays indexed by
     {!kind_tag}, so the sampled-out path costs two array reads — no
     hashing, no allocation — and thinning the bus actually saves the
     wall time the dropped events would have cost. *)
  mutable sample_every : int;
  mutable sample_forced : kind -> bool;
  sample_counts : int array;
  sample_forced_cache : int array; (* -1 unknown, 0 thinned, 1 forced *)
  mutable sampled_out : int;
}

(* The stable label of each kind constructor, indexed by its dense tag
   ({!kind_tag}). The tag indexes the sampling arrays, this table and the
   monitors' observed-kind masks. *)
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

let kind_label kind = labels.(kind_tag kind)

let tag_of_label label =
  let rec find tag =
    if tag >= n_kind_tags then None
    else if String.equal labels.(tag) label then Some tag
    else find (tag + 1)
  in
  find 0

let create ?(enabled = true) ~n_sites () =
  {
    on = enabled;
    data = Array.make 1024 dummy_event;
    size = 0;
    now = (fun () -> 0.0);
    counters = Array.make (n_sites + 1) 0;
    last = Array.make (n_sites + 1) (-1);
    next_span = 0;
    sample_every = 1;
    sample_forced = (fun _ -> false);
    sample_counts = Array.make n_kind_tags 0;
    sample_forced_cache = Array.make n_kind_tags (-1);
    sampled_out = 0;
  }

let null = create ~enabled:false ~n_sites:0 ()
let enabled t = t.on
let set_clock t f = t.now <- f
let length t = t.size

let get t id =
  if id < 0 || id >= t.size then invalid_arg "Trace.get: bad event id";
  t.data.(id)

let push t e =
  if t.size = Array.length t.data then begin
    let bigger = Array.make (2 * t.size) dummy_event in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end;
  t.data.(t.size) <- e;
  t.size <- t.size + 1

let set_sampling t ~every ?(forced = fun _ -> false) () =
  t.sample_every <- max 1 every;
  t.sample_forced <- forced;
  Array.fill t.sample_counts 0 n_kind_tags 0;
  Array.fill t.sample_forced_cache 0 n_kind_tags (-1)

let sampling t = t.sample_every
let sampled_out t = t.sampled_out

(* Structural kinds are never thinned: dropping a span half corrupts the
   span tree, and the final Quiesce is the fairness signal every liveness
   monitor folds. Everything else keeps 1 in [sample_every] per kind, on a
   deterministic per-kind counter — no RNG, so a sampled run draws exactly
   what the full-fidelity run draws. *)
let keep t kind =
  t.sample_every <= 1
  || (match kind with
      | Span_begin _ | Span_end _ | Quiesce _ -> true
      | _ ->
        (* The forced predicate is pure per kind constructor, so its
           verdict is cached per tag: steady state is two array reads. *)
        let tag = kind_tag kind in
        let forced =
          match t.sample_forced_cache.(tag) with
          | -1 ->
            let f = if t.sample_forced kind then 1 else 0 in
            t.sample_forced_cache.(tag) <- f;
            f = 1
          | f -> f = 1
        in
        forced
        ||
        let n = t.sample_counts.(tag) in
        t.sample_counts.(tag) <- n + 1;
        n mod t.sample_every = 0)

let emit_kept t ~site ~cause kind =
  let lane = site + 1 in
  let cause = match cause with Some c when c >= 0 -> Some c | _ -> None in
  let witnessed =
    match cause with Some c -> (get t c).lamport | None -> t.counters.(lane)
  in
  let lamport = max t.counters.(lane) witnessed + 1 in
  t.counters.(lane) <- lamport;
  let prev = if t.last.(lane) >= 0 then Some t.last.(lane) else None in
  let id = t.size in
  t.last.(lane) <- id;
  push t { id; time = t.now (); site; lamport; prev; cause; kind };
  id

let emit t ~site ?cause kind =
  if not t.on then -1
  else if not (keep t kind) then begin
    t.sampled_out <- t.sampled_out + 1;
    -1
  end
  else begin
    let p = Profile.current () in
    if Profile.enabled p then
      Profile.time p ~subsystem:"trace" "publish" (fun () ->
          emit_kept t ~site ~cause kind)
    else emit_kept t ~site ~cause kind
  end

let events t = Array.to_list (Array.sub t.data 0 t.size)

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

let spans t =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  for i = 0 to t.size - 1 do
    let e = t.data.(i) in
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
    | _ -> ()
  done;
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

let pp_kind ppf = function
  | Rpc_send { src; dst } -> Format.fprintf ppf "rpc_send %d->%d" src dst
  | Rpc_recv { src; dst } -> Format.fprintf ppf "rpc_recv %d->%d" src dst
  | Rpc_drop { src; dst; reason; elapsed } ->
    Format.fprintf ppf "rpc_drop %d->%d (%s, %.1f elapsed)" src dst reason elapsed
  | Rpc_timeout { src; dst; timeout; elapsed } ->
    Format.fprintf ppf "rpc_timeout %d->%d (%.1f configured, %.1f elapsed)" src
      dst timeout elapsed
  | Quorum_read { txn; op; got; need } ->
    Format.fprintf ppf "quorum_read %s.%s %d/%d" txn op got need
  | Quorum_append { txn; op; got; need } ->
    Format.fprintf ppf "quorum_append %s.%s %d/%d" txn op got need
  | Repo_append { txn; op; tentative } ->
    Format.fprintf ppf "repo_append %s.%s%s" txn op
      (if tentative then " (tentative)" else "")
  | Txn_begin { txn } -> Format.fprintf ppf "txn_begin %s" txn
  | Txn_commit { txn } -> Format.fprintf ppf "txn_commit %s" txn
  | Txn_abort { txn; reason } -> Format.fprintf ppf "txn_abort %s (%s)" txn reason
  | Lock_wait { txn; blocker } ->
    Format.fprintf ppf "lock_wait %s on %s" txn blocker
  | Lock_grant { txn; op } -> Format.fprintf ppf "lock_grant %s.%s" txn op
  | Epoch_seal { epoch } -> Format.fprintf ppf "epoch_seal ->%d" epoch
  | Epoch_transfer { epoch } -> Format.fprintf ppf "epoch_transfer ->%d" epoch
  | Epoch_fence { epoch; stale } ->
    Format.fprintf ppf "epoch_fence %d fences %d" epoch stale
  | Crash { site; amnesia } ->
    Format.fprintf ppf "crash site %d%s" site (if amnesia then " (amnesia)" else "")
  | Recover { site; resynced } ->
    Format.fprintf ppf "recover site %d%s" site (if resynced then " (resynced)" else "")
  | Partition { n_groups } -> Format.fprintf ppf "partition into %d groups" n_groups
  | Heal -> Format.pp_print_string ppf "heal"
  | Detector_suspect { site } -> Format.fprintf ppf "detector_suspect site %d" site
  | Detector_trust { site } -> Format.fprintf ppf "detector_trust site %d" site
  | Wal_flush { site; records } ->
    Format.fprintf ppf "wal_flush site %d (%d records)" site records
  | Wal_checkpoint { site; kept; dropped_segments } ->
    Format.fprintf ppf "wal_checkpoint site %d (kept %d, dropped %d segments)" site
      kept dropped_segments
  | Wal_full { site } -> Format.fprintf ppf "wal_full site %d" site
  | Wal_replay { site; replayed; truncated; corrupt } ->
    Format.fprintf ppf "wal_replay site %d (%d replayed, %d truncated%s)" site
      replayed truncated (if corrupt then ", CORRUPT" else "")
  | Store_fault { site; fault } -> Format.fprintf ppf "store_fault site %d (%s)" site fault
  | Commit_point { txn } -> Format.fprintf ppf "commit_point %s" txn
  | Txn_redrive { txn; outcome } ->
    Format.fprintf ppf "txn_redrive %s -> %s" txn outcome
  | Coop_term { txn; outcome } ->
    Format.fprintf ppf "coop_term %s -> %s" txn outcome
  | Orphan_gc { site; resolved } ->
    Format.fprintf ppf "orphan_gc site %d (%d resolved)" site resolved
  | Deadlock { victim; cycle } ->
    Format.fprintf ppf "deadlock victim %s (cycle %s)" victim
      (String.concat "->" cycle)
  | Txn_decide { txn; site; committed } ->
    Format.fprintf ppf "txn_decide %s -> %s (driver at site %d)" txn
      (if committed then "commit" else "abort")
      site
  | Takeover_acquire { txn; site; term } ->
    Format.fprintf ppf "takeover_acquire %s term %d (site %d)" txn term site
  | Takeover_fence { txn; site; term; granted } ->
    Format.fprintf ppf "takeover_fence %s: term %d fenced by %d (site %d)" txn
      term granted site
  | Quiesce { up; n_sites; partitioned } ->
    Format.fprintf ppf "quiesce %d/%d sites up%s" up n_sites
      (if partitioned then ", partitioned" else "")
  | Span_begin { span; parent; label } ->
    Format.fprintf ppf "span_begin #%d %s%s" span label
      (match parent with Some p -> Printf.sprintf " (in #%d)" p | None -> "")
  | Span_end { span; outcome } -> Format.fprintf ppf "span_end #%d %s" span outcome
  | Shed { txn; reason } -> Format.fprintf ppf "shed %s (%s)" txn reason
  | Repo_resolve { txn; committed } ->
    Format.fprintf ppf "repo_resolve %s -> %s" txn
      (if committed then "commit" else "abort")
  | Session_commit { session; txn; counter; site } ->
    Format.fprintf ppf "session_commit s%d %s @(%d,%d)" session txn counter site
  | Breaker { site; state } -> Format.fprintf ppf "breaker site %d -> %s" site state
  | Rpc_hedge { src; dst; delay } ->
    Format.fprintf ppf "rpc_hedge %d->%d (after %.1f)" src dst delay
  | Rpc_outcome { src; dst; ok; elapsed } ->
    Format.fprintf ppf "rpc_outcome %d->%d %s (%.1f elapsed)" src dst
      (if ok then "ok" else "fail")
      elapsed
  | Slow_inject { site; mode } ->
    Format.fprintf ppf "slow_inject site %d (%s)" site mode
  | Detector_slow { site; slow; score } ->
    Format.fprintf ppf "detector_%s site %d (score %.2f)"
      (if slow then "suspect_slow" else "trust_fast")
      site score

let pp_event ppf e =
  Format.fprintf ppf "[%8.1f] site=%-2d L=%-5d #%-5d %a" e.time e.site e.lamport
    e.id pp_kind e.kind
