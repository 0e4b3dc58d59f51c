open Atomrep_stats

type counter = { mutable c : int }
type gauge = { mutable g : float }
type histogram = Summary.t

type cell =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type key = string * (string * string) list

type t = {
  cells : (key, cell) Hashtbl.t;
  mutable order : key list; (* reversed registration order *)
}

let create () = { cells = Hashtbl.create 64; order = [] }

let key name labels : key =
  (name, List.sort (fun (a, _) (b, _) -> String.compare a b) labels)

let find_or_add t k mk =
  match Hashtbl.find_opt t.cells k with
  | Some cell -> cell
  | None ->
    let cell = mk () in
    Hashtbl.add t.cells k cell;
    t.order <- k :: t.order;
    cell

let counter t ?(labels = []) name =
  match find_or_add t (key name labels) (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is registered as another kind")

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let read c = c.c

let gauge t ?(labels = []) name =
  match find_or_add t (key name labels) (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is registered as another kind")

let set g v = g.g <- v

let histogram t ?(labels = []) name =
  match find_or_add t (key name labels) (fun () -> Histogram (Summary.create ())) with
  | Histogram h -> h
  | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is registered as another kind")

let observe h v = Summary.add h v

let counter_value t ?(labels = []) name =
  match Hashtbl.find_opt t.cells (key name labels) with
  | Some (Counter c) -> c.c
  | _ -> 0

let counter_sum t name =
  Hashtbl.fold
    (fun (n, _) cell acc ->
      match cell with
      | Counter c when String.equal n name -> acc + c.c
      | _ -> acc)
    t.cells 0

let histogram_summary t ?(labels = []) name =
  match Hashtbl.find_opt t.cells (key name labels) with
  | Some (Histogram h) -> h
  | _ -> Summary.create ()

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun ((name, labels) as k) ->
      match Hashtbl.find t.cells k with
      | Counter c ->
        counters :=
          Json.Obj
            [ ("name", Json.Str name); ("labels", labels_json labels);
              ("value", Json.int c.c) ]
          :: !counters
      | Gauge g ->
        gauges :=
          Json.Obj
            [ ("name", Json.Str name); ("labels", labels_json labels);
              ("value", Json.Num g.g) ]
          :: !gauges
      | Histogram h ->
        histograms :=
          Json.Obj
            [
              ("name", Json.Str name);
              ("labels", labels_json labels);
              ("count", Json.int (Summary.count h));
              ("mean", Json.Num (Summary.mean h));
              ("min", Json.Num (Summary.min_value h));
              ("max", Json.Num (Summary.max_value h));
              ("p50", Json.Num (Summary.percentile h 0.5));
              ("p95", Json.Num (Summary.percentile h 0.95));
              ("p99", Json.Num (Summary.percentile h 0.99));
            ]
          :: !histograms
      | exception Not_found -> ())
    (List.rev t.order);
  Json.Obj
    [
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !histograms));
    ]

let pp ppf t =
  List.iter
    (fun ((name, labels) as k) ->
      let pp_labels ppf = function
        | [] -> ()
        | labels ->
          Format.fprintf ppf "{%s}"
            (String.concat ","
               (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))
      in
      match Hashtbl.find_opt t.cells k with
      | Some (Counter c) ->
        Format.fprintf ppf "%s%a %d@." name pp_labels labels c.c
      | Some (Gauge g) ->
        Format.fprintf ppf "%s%a %g@." name pp_labels labels g.g
      | Some (Histogram h) ->
        Format.fprintf ppf "%s%a count=%d mean=%.2f p95=%.2f@." name pp_labels
          labels (Summary.count h) (Summary.mean h) (Summary.percentile h 0.95)
      | None -> ())
    (List.rev t.order)
