type phase = {
  p_subsystem : string;
  p_phase : string;
  p_count : int;
  p_wall : float;
  p_minor_words : float;
}

type cell = {
  c_subsystem : string;
  c_phase : string;
  mutable c_count : int;
  mutable c_wall : float;
  mutable c_minor : float;
}

type t = {
  on : bool;
  mutable clock : unit -> float;
  mutable slots : cell option array; (* indexed by key id *)
  mutable order : cell list; (* reversed registration order *)
}

(* A key is a declared phase: one dense id per distinct (subsystem, phase)
   pair, process-wide, so a profile finds the phase's cell by an array
   index instead of hashing the two names on every call. *)
type key = { k_id : int; k_subsystem : string; k_phase : string }

let keys : (string * string, key) Hashtbl.t = Hashtbl.create 16
let keys_lock = Mutex.create ()

let key ~subsystem phase =
  Mutex.protect keys_lock (fun () ->
      match Hashtbl.find_opt keys (subsystem, phase) with
      | Some k -> k
      | None ->
        let k =
          { k_id = Hashtbl.length keys; k_subsystem = subsystem; k_phase = phase }
        in
        Hashtbl.add keys (subsystem, phase) k;
        k)

let create ?(enabled = true) () =
  { on = enabled; clock = Sys.time; slots = [||]; order = [] }

let null = create ~enabled:false ()
let enabled t = t.on
let set_clock t f = t.clock <- f

(* A phase's cell is created on its first timing. *)
let register t k =
  let c =
    { c_subsystem = k.k_subsystem; c_phase = k.k_phase; c_count = 0; c_wall = 0.0;
      c_minor = 0.0 }
  in
  if k.k_id >= Array.length t.slots then begin
    let slots = Array.make (k.k_id + 8) None in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end;
  t.slots.(k.k_id) <- Some c;
  t.order <- c :: t.order;
  c

let cell t k =
  if k.k_id < Array.length t.slots then
    match Array.unsafe_get t.slots k.k_id with Some c -> c | None -> register t k
  else register t k

(* Gc.minor_words is a noalloc primitive (allocated-words-so-far), far
   cheaper than Gc.quick_stat; the delta is the same minor-words figure. *)
let finish t c w0 a0 =
  let w1 = t.clock () in
  let a1 = Gc.minor_words () in
  c.c_count <- c.c_count + 1;
  c.c_wall <- c.c_wall +. (w1 -. w0);
  c.c_minor <- c.c_minor +. (a1 -. a0)

let time t k f =
  if not t.on then f ()
  else begin
    let c = cell t k in
    let w0 = t.clock () in
    let a0 = Gc.minor_words () in
    match f () with
    | v ->
      finish t c w0 a0;
      v
    | exception e ->
      finish t c w0 a0;
      raise e
  end

(* Ambient profile, domain-local: instrumentation deep in the stack (the
   engine's dispatch loop, the trace bus's publish path, a WAL flush)
   records against whatever profile the current run installed, with no
   handle threading. Each domain starts with the disabled profile, so
   parallel explorer domains never share (or race on) one table. *)
let dls : t Domain.DLS.key = Domain.DLS.new_key (fun () -> null)
let current () = Domain.DLS.get dls
let set_current p = Domain.DLS.set dls p

let with_current p f =
  let prev = current () in
  set_current p;
  match f () with
  | v ->
    set_current prev;
    v
  | exception e ->
    set_current prev;
    raise e

let record k f =
  let p = current () in
  if p.on then time p k f else f ()

let phases t =
  let all =
    List.rev_map
      (fun c ->
        {
          p_subsystem = c.c_subsystem;
          p_phase = c.c_phase;
          p_count = c.c_count;
          p_wall = c.c_wall;
          p_minor_words = c.c_minor;
        })
      t.order
  in
  List.sort
    (fun a b ->
      match compare b.p_wall a.p_wall with
      | 0 -> compare (a.p_subsystem, a.p_phase) (b.p_subsystem, b.p_phase)
      | c -> c)
    all

let top t ~n =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take n (phases t)

let total_wall t = List.fold_left (fun acc c -> acc +. c.c_wall) 0.0 t.order

let pp_table ?(top = 10) ppf t =
  let rows = ref (phases t) in
  let shown = ref 0 in
  let total = total_wall t in
  Format.fprintf ppf "%-28s %10s %12s %7s %12s@." "PHASE" "CALLS" "WALL(s)" "WALL%"
    "MINOR(kw)";
  while !shown < top && !rows <> [] do
    (match !rows with
     | [] -> ()
     | p :: rest ->
       rows := rest;
       incr shown;
       let pct = if total > 0.0 then 100.0 *. p.p_wall /. total else 0.0 in
       Format.fprintf ppf "%-28s %10d %12.6f %6.1f%% %12.1f@."
         (p.p_subsystem ^ "/" ^ p.p_phase)
         p.p_count p.p_wall pct
         (p.p_minor_words /. 1000.0))
  done;
  if !rows <> [] then
    Format.fprintf ppf "(… %d more phases)@." (List.length !rows)

let to_json t =
  Json.Obj
    [
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("subsystem", Json.Str p.p_subsystem);
                   ("phase", Json.Str p.p_phase);
                   ("count", Json.int p.p_count);
                   ("wall_s", Json.Num p.p_wall);
                   ("minor_words", Json.Num p.p_minor_words);
                 ])
             (phases t)) );
    ]
