open Atomrep_clock

type t = {
  committed : (Lamport.Timestamp.t * Log.entry) list;
  tentative : Log.entry list;
}

let classify log =
  let entries = Log.entries log in
  let committed, tentative =
    List.fold_left
      (fun (committed, tentative) (e : Log.entry) ->
        if Log.is_aborted log e.action then (committed, tentative)
        else
          match Log.commit_ts log e.action with
          | Some cts -> ((cts, e) :: committed, tentative)
          | None -> (committed, e :: tentative))
      ([], []) entries
  in
  let committed =
    List.sort
      (fun (t1, e1) (t2, e2) ->
        let c = Lamport.Timestamp.compare t1 t2 in
        if c <> 0 then c else Lamport.Timestamp.compare e1.Log.ets e2.Log.ets)
      committed
  in
  let tentative =
    List.sort (fun e1 e2 -> Lamport.Timestamp.compare e1.Log.ets e2.Log.ets) tentative
  in
  { committed; tentative }

let committed_events t = List.map (fun (_, e) -> e.Log.event) t.committed

let filter t keep =
  {
    committed = List.filter (fun (_, e) -> keep e) t.committed;
    tentative = List.filter keep t.tentative;
  }

let static_timeline t ~include_tentative =
  List.map snd t.committed @ (if include_tentative then t.tentative else [])
  |> List.sort (fun (e1 : Log.entry) e2 ->
         let c = Lamport.Timestamp.compare e1.begin_ts e2.begin_ts in
         if c <> 0 then c else Int.compare e1.seq e2.seq)
  |> List.map (fun e -> e.Log.event)
