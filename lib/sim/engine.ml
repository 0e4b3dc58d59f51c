(* An event's handle. [live] holds until the event runs or is cancelled.
   [time] is the boxed deadline the clock takes when the entry pops; the
   heap keeps a flat copy of the (time, seq) key beside the entry. *)
type entry = { time : float; mutable thunk : unit -> unit; mutable live : bool }
type timer = entry

let noop () = ()

module Heap = struct
  (* Binary min-heap on (time, seq), one column per field: comparisons read
     the flat time and seq arrays, and only the entry column holds
     pointers. Sifts carry the moving element in a hole and write it once,
     at its final slot. Indices stay below [size], so reads and writes skip
     the bounds check. *)
  type t = {
    mutable times : Float.Array.t;
    mutable seqs : int array;
    mutable ents : entry array;
    mutable size : int;
  }

  let dummy = { time = 0.0; thunk = noop; live = false }

  let create () =
    {
      times = Float.Array.make 256 0.0;
      seqs = Array.make 256 0;
      ents = Array.make 256 dummy;
      size = 0;
    }

  let grow h =
    let n = 2 * h.size in
    let times = Float.Array.make n 0.0 in
    let seqs = Array.make n 0 in
    let ents = Array.make n dummy in
    Float.Array.blit h.times 0 times 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.ents 0 ents 0 h.size;
    h.times <- times;
    h.seqs <- seqs;
    h.ents <- ents

  (* Slot [i] takes the element (time, seq, e). *)
  let[@inline] set h i time seq e =
    Float.Array.unsafe_set h.times i time;
    Array.unsafe_set h.seqs i seq;
    Array.unsafe_set h.ents i e

  (* Slot [i] takes the element at slot [j]. *)
  let[@inline] move h i j =
    set h i (Float.Array.unsafe_get h.times j) (Array.unsafe_get h.seqs j)
      (Array.unsafe_get h.ents j)

  (* Slot [i]'s key is less than (time, seq). *)
  let[@inline] before h i time seq =
    let ti = Float.Array.unsafe_get h.times i in
    ti < time || (ti = time && Array.unsafe_get h.seqs i < seq)

  let push h time seq e =
    if h.size = Array.length h.ents then grow h;
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if before h parent time seq then continue := false
      else begin
        move h !i parent;
        i := parent
      end
    done;
    set h !i time seq e

  (* The least key and its entry; only valid while [size > 0]. *)
  let[@inline] top_time h = Float.Array.unsafe_get h.times 0
  let[@inline] top_seq h = Array.unsafe_get h.seqs 0
  let top h = Array.unsafe_get h.ents 0

  let remove_top h =
    let n = h.size - 1 in
    h.size <- n;
    let time = Float.Array.unsafe_get h.times n in
    let seq = Array.unsafe_get h.seqs n in
    let e = Array.unsafe_get h.ents n in
    Array.unsafe_set h.ents n dummy;
    if n > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < n && before h r (Float.Array.unsafe_get h.times l) (Array.unsafe_get h.seqs l)
            then r
            else l
          in
          if before h c time seq then begin
            move h !i c;
            i := c
          end
          else continue := false
        end
      done;
      set h !i time seq e
    end
end

type t = {
  heap : Heap.t;
  rng : Atomrep_stats.Rng.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable n_cancelled : int; (* cancelled entries still in the heap *)
  mutable n_foreground : int; (* foreground entries in the heap, cancelled ones included *)
  mutable daemon : bool; (* events scheduled now are daemons *)
}

let create ~seed =
  {
    heap = Heap.create ();
    rng = Atomrep_stats.Rng.create seed;
    clock = 0.0;
    next_seq = 0;
    n_cancelled = 0;
    n_foreground = 0;
    daemon = false;
  }

let now t = t.clock
let rng t = t.rng

let add t ~time thunk =
  let time = if time < t.clock then t.clock else time in
  t.next_seq <- t.next_seq + 1;
  let e = { time; thunk; live = true } in
  (* The key's low bit marks a daemon; the rest is the insertion order. *)
  let seq = if t.daemon then (2 * t.next_seq) + 1 else 2 * t.next_seq in
  if not t.daemon then t.n_foreground <- t.n_foreground + 1;
  Heap.push t.heap time seq e;
  e

let clamp delay = if delay < 0.0 then 0.0 else delay
let schedule_at t ~time thunk = ignore (add t ~time thunk : entry)
let schedule t ~delay thunk = schedule_at t ~time:(t.clock +. clamp delay) thunk
let timer t ~delay thunk = add t ~time:(t.clock +. clamp delay) thunk

(* Swapping in the shared no-op frees the event's closure at once. *)
let cancel t e =
  if e.live then begin
    e.live <- false;
    e.thunk <- noop;
    t.n_cancelled <- t.n_cancelled + 1
  end

let daemon t f =
  let outer = t.daemon in
  t.daemon <- true;
  Fun.protect ~finally:(fun () -> t.daemon <- outer) f

let dispatch_key = Atomrep_obs.Profile.key ~subsystem:"engine" "dispatch"

let run ?until ?(work = fun () -> false) t =
  let limit = match until with Some l -> l | None -> infinity in
  (* The dispatch phase wraps every simulated thunk, so the hot-phase
     table's engine/dispatch row is the whole event loop; nested phases
     (network send, trace publish, WAL flush) break it down. The run's
     owner installs the profile before the loop starts. *)
  let p = Atomrep_obs.Profile.current () in
  let profiled = Atomrep_obs.Profile.enabled p in
  let h = t.heap in
  (* Past the horizon the next entry stays in the heap; so does every
     daemon once no foreground entry is left and [work] reports none. *)
  while
    h.Heap.size > 0 && (not (Heap.top_time h > limit)) && (t.n_foreground > 0 || work ())
  do
    let e = Heap.top h in
    let daemon = Heap.top_seq h land 1 = 1 in
    Heap.remove_top h;
    t.clock <- e.time;
    if not daemon then t.n_foreground <- t.n_foreground - 1;
    t.daemon <- daemon;
    (* A cancelled entry still moves the clock to its deadline, as the
       no-op it replaces did, but is neither dispatched nor profiled. *)
    if e.live then begin
      e.live <- false;
      if profiled then Atomrep_obs.Profile.time p dispatch_key e.thunk
      else e.thunk ()
    end
    else t.n_cancelled <- t.n_cancelled - 1
  done;
  t.daemon <- false

let pending t = t.heap.Heap.size - t.n_cancelled
