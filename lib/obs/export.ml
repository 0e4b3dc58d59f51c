open Atomrep_stats

let args_json kind = Json.Obj (Trace.fields kind)

let event_json (e : Trace.event) =
  Json.Obj
    [
      ("id", Json.int e.Trace.id);
      ("t", Json.Num e.Trace.time);
      ("site", Json.int e.Trace.site);
      ("lamport", Json.int e.Trace.lamport);
      ("prev", (match e.Trace.prev with Some p -> Json.int p | None -> Json.Null));
      ("cause", (match e.Trace.cause with Some c -> Json.int c | None -> Json.Null));
      ("kind", Json.Str (Trace.kind_label e.Trace.kind));
      ("args", args_json e.Trace.kind);
    ]

let jsonl t =
  let buf = Buffer.create 4096 in
  Trace.iter t (fun e ->
      Buffer.add_string buf (Json.to_string (event_json e));
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* tid 0 is the system lane (site -1); site s maps to tid s + 1. *)
let tid site = site + 1

let us time = time *. 1000.0

let is_span_event (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Span_begin _ | Trace.Span_end _ -> true
  | _ -> false

let lanes t =
  List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.Trace.site) (Trace.events t))

let chrome t =
  let meta =
    List.map
      (fun site ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.int 0);
            ("tid", Json.int (tid site));
            ( "args",
              Json.Obj
                [ ("name",
                   Json.Str (if site < 0 then "system" else Printf.sprintf "site %d" site))
                ] );
          ])
      (lanes t)
  in
  let spans =
    List.map
      (fun (s : Trace.span) ->
        let args =
          Json.Obj
            [
              ("span", Json.int s.Trace.span_id);
              ( "parent",
                match s.Trace.span_parent with
                | Some p -> Json.int p
                | None -> Json.Null );
              ( "outcome",
                match s.Trace.span_outcome with
                | Some o -> Json.Str o
                | None -> Json.Null );
            ]
        in
        match s.Trace.t_end with
        | Some t_end ->
          Json.Obj
            [
              ("name", Json.Str s.Trace.label);
              ("ph", Json.Str "X");
              ("ts", Json.Num (us s.Trace.t_begin));
              ("dur", Json.Num (us (t_end -. s.Trace.t_begin)));
              ("pid", Json.int 0);
              ("tid", Json.int (tid s.Trace.span_site));
              ("args", args);
            ]
        | None ->
          Json.Obj
            [
              ("name", Json.Str s.Trace.label);
              ("ph", Json.Str "B");
              ("ts", Json.Num (us s.Trace.t_begin));
              ("pid", Json.int 0);
              ("tid", Json.int (tid s.Trace.span_site));
              ("args", args);
            ])
      (Trace.spans t)
  in
  let instants =
    List.filter_map
      (fun (e : Trace.event) ->
        if is_span_event e then None
        else
          Some
            (Json.Obj
               [
                 ("name", Json.Str (Trace.kind_label e.Trace.kind));
                 ("ph", Json.Str "i");
                 ("ts", Json.Num (us e.Trace.time));
                 ("pid", Json.int 0);
                 ("tid", Json.int (tid e.Trace.site));
                 ("s", Json.Str "t");
                 ("args", args_json e.Trace.kind);
               ]))
      (Trace.events t)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ spans @ instants));
      ("displayTimeUnit", Json.Str "ms");
    ]

let chrome_string t = Json.to_string (chrome t)

let expected_chrome_events t =
  let n_lanes = List.length (lanes t) in
  let n_spans = List.length (Trace.spans t) in
  let n_instants =
    List.length (List.filter (fun e -> not (is_span_event e)) (Trace.events t))
  in
  n_lanes + n_spans + n_instants

let flame t =
  let buf = Buffer.create 1024 in
  let rows =
    List.map
      (fun (label, s) ->
        (label, Summary.count s, Summary.total s, Summary.mean s,
         Summary.percentile s 0.95))
      (Trace.span_durations t)
    |> List.sort (fun (_, _, t1, _, _) (_, _, t2, _, _) -> Float.compare t2 t1)
  in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %8s %12s %10s %10s\n" "span" "count" "total-ms" "mean-ms"
       "p95-ms");
  List.iter
    (fun (label, count, total, mean, p95) ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %8d %12.1f %10.2f %10.2f\n" label count total mean p95))
    rows;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
