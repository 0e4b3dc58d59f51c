type agg = Last | Sum | Max

type series = { s_id : int; s_name : string; s_agg : agg }

type window = {
  w_index : int;
  w_start : float;
  w_until : float;
  w_complete : bool;
  w_values : float option array;
}

type t = {
  on : bool;
  width : float;
  capacity : int;
  mutable series : series list; (* reversed registration order *)
  mutable n_series : int;
  mutable started : bool; (* an observation happened: registration closed *)
  mutable cur : float option array;
  mutable cur_index : int; (* -1: no window open *)
  closed : window Queue.t;
  mutable dropped : int;
  mutable finished : bool;
}

let create ?(enabled = true) ?(capacity = 4096) ~width () =
  if width <= 0.0 then invalid_arg "Timeseries.create: width must be positive";
  if capacity < 1 then invalid_arg "Timeseries.create: capacity must be >= 1";
  {
    on = enabled;
    width;
    capacity;
    series = [];
    n_series = 0;
    started = false;
    cur = [||];
    cur_index = -1;
    closed = Queue.create ();
    dropped = 0;
    finished = false;
  }

let null = create ~enabled:false ~width:1.0 ()
let enabled t = t.on
let width t = t.width
let dropped t = t.dropped

let series t ?(agg = Last) name =
  if t.on && t.started then
    invalid_arg "Timeseries.series: registration after the first observation";
  let s = { s_id = t.n_series; s_name = name; s_agg = agg } in
  t.series <- s :: t.series;
  t.n_series <- t.n_series + 1;
  s

let series_names t = List.rev_map (fun s -> s.s_name) t.series

(* Half-open windows [k*width, (k+1)*width): an observation exactly on a
   boundary belongs to the later window. *)
let index_of t now = int_of_float (Float.floor (now /. t.width))

let push_closed t w =
  Queue.push w t.closed;
  if Queue.length t.closed > t.capacity then begin
    ignore (Queue.pop t.closed);
    t.dropped <- t.dropped + 1
  end

let close_current t ~complete =
  if t.cur_index >= 0 then begin
    push_closed t
      {
        w_index = t.cur_index;
        w_start = float_of_int t.cur_index *. t.width;
        w_until = float_of_int (t.cur_index + 1) *. t.width;
        w_complete = complete;
        w_values = t.cur;
      };
    t.cur_index <- -1;
    t.cur <- [||]
  end

let open_window t idx =
  t.cur_index <- idx;
  t.cur <- Array.make t.n_series None

(* Advance to the window holding [idx], closing the current window and
   materializing empty windows for any gap — a quiet stretch of the run is
   a row of empty windows, not a hole in the series. *)
let advance t idx =
  if t.cur_index < 0 then open_window t idx
  else if idx > t.cur_index then begin
    let from = t.cur_index + 1 in
    close_current t ~complete:true;
    for gap = from to idx - 1 do
      open_window t gap;
      close_current t ~complete:true
    done;
    open_window t idx
  end

let observe t s ~now v =
  if t.on && not t.finished then begin
    t.started <- true;
    (* Sim time is monotone; clamp a same-window straggler to the open
       window rather than failing. *)
    let idx = max (index_of t now) t.cur_index in
    advance t idx;
    let cell = t.cur.(s.s_id) in
    t.cur.(s.s_id) <-
      (match (cell, s.s_agg) with
       | None, _ | Some _, Last -> Some v
       | Some old, Sum -> Some (old +. v)
       | Some old, Max -> Some (Float.max old v))
  end

let finish t ~now =
  if t.on && not t.finished then begin
    t.finished <- true;
    if t.cur_index >= 0 then begin
      let complete = now >= float_of_int (t.cur_index + 1) *. t.width in
      close_current t ~complete
    end
  end

let windows t = List.of_seq (Queue.to_seq t.closed)

let value w s = w.w_values.(s.s_id)

let to_json t =
  let names = series_names t in
  Json.Obj
    [
      ("width", Json.Num t.width);
      ("dropped_windows", Json.int t.dropped);
      ("series", Json.List (List.map (fun n -> Json.Str n) names));
      ( "windows",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("index", Json.int w.w_index);
                   ("start", Json.Num w.w_start);
                   ("until", Json.Num w.w_until);
                   ("complete", Json.Bool w.w_complete);
                   ( "values",
                     Json.Obj
                       (List.mapi
                          (fun i n ->
                            ( n,
                              match w.w_values.(i) with
                              | Some v -> Json.Num v
                              | None -> Json.Null ))
                          names) );
                 ])
             (windows t)) );
    ]
