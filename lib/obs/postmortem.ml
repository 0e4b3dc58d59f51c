let causal_cone trace ~targets =
  let n = Trace.length trace in
  if n = 0 then []
  else begin
    let marked = Array.make n false in
    let stack = ref [] in
    List.iter
      (fun id ->
        if id >= 0 && id < n && not marked.(id) then begin
          marked.(id) <- true;
          stack := id :: !stack
        end)
      targets;
    let visit id =
      if id >= 0 && id < n && not marked.(id) then begin
        marked.(id) <- true;
        stack := id :: !stack
      end
    in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | id :: rest ->
        stack := rest;
        let e = Trace.get trace id in
        (match e.Trace.prev with Some p -> visit p | None -> ());
        (match e.Trace.cause with Some c -> visit c | None -> ())
    done;
    let out = ref [] in
    for id = n - 1 downto 0 do
      if marked.(id) then out := Trace.get trace id :: !out
    done;
    !out
  end

(* Does the field name one of [actions]? The fields that name a
   transaction are [txn], [blocker], [victim] and [cycle]. *)
let names_action actions (name, value) =
  let hit = function
    | Json.Str a -> List.exists (String.equal a) actions
    | _ -> false
  in
  match name, value with
  | ("txn" | "blocker" | "victim"), v -> hit v
  | "cycle", Json.List vs -> List.exists hit vs
  | _ -> false

let events_of_actions trace ~actions =
  List.filter_map
    (fun (e : Trace.event) ->
      if List.exists (names_action actions) (Trace.fields e.Trace.kind) then
        Some e.Trace.id
      else None)
    (Trace.events trace)

(* Transaction names are "T<index>" (see Runtime.run_txn); scanning the
   failure text for those tokens is what ties a pretty-printed oracle
   verdict back to trace events without a structured-failure channel. *)
let actions_of_failure text =
  let n = String.length text in
  let is_digit c = c >= '0' && c <= '9' in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if
      text.[!i] = 'T'
      && (!i = 0 || not (is_digit text.[!i - 1]))
      && (!i = 0
          || not
               ((text.[!i - 1] >= 'A' && text.[!i - 1] <= 'Z')
               || (text.[!i - 1] >= 'a' && text.[!i - 1] <= 'z')))
      && !i + 1 < n
      && is_digit text.[!i + 1]
    then begin
      let j = ref (!i + 1) in
      while !j < n && is_digit text.[!j] do
        incr j
      done;
      let tok = String.sub text !i (!j - !i) in
      if not (List.exists (String.equal tok) !out) then out := tok :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

type t = {
  header : (string * string) list;
  targets : int list;
  slice : Trace.event list;
  trace_length : int;
}

let build trace ~header ~failures =
  (* Scan both sides of each failure: history oracles put the object in
     the subject and name transactions in the description, while keyed
     spec monitors carry the transaction in the instance name itself
     ("no_divergence(T3)"). *)
  let actions =
    List.concat_map
      (fun (obj, why) -> actions_of_failure obj @ actions_of_failure why)
      failures
    |> List.sort_uniq String.compare
  in
  let targets = events_of_actions trace ~actions in
  let slice =
    match targets with
    | [] -> Trace.events trace
    | targets -> causal_cone trace ~targets
  in
  let header =
    header
    @ [ ("violating-actions", String.concat " " actions) ]
    @ List.map (fun (obj, why) -> ("failure:" ^ obj, why)) failures
  in
  { header; targets; slice; trace_length = Trace.length trace }

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "CAUSAL POSTMORTEM\n=================\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%-20s %s\n" k v))
    t.header;
  Buffer.add_string buf
    (Printf.sprintf "%-20s %d of %d events in the causal cone of %d targets\n\n"
       "slice" (List.length t.slice) t.trace_length (List.length t.targets));
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Trace.pp_event e))
    t.slice;
  Buffer.contents buf

let contains t pred = List.exists (fun (e : Trace.event) -> pred e.Trace.kind) t.slice
