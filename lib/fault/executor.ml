module C = Rtl.Circuit

type ('ctx, 'u) work = {
  units : 'u array;
  exec : 'ctx -> Obs.t -> 'u -> (int * Journal.run_result) list;
}

let check_shard ~who (i, n) =
  if n < 1 || i < 1 || i > n then
    invalid_arg (Printf.sprintf "%s: shard index out of range: %d/%d" who i n)

let shard_ids (i, n) ~tasks ~site =
  Array.of_list (List.filter (fun ti -> site ti mod n = i - 1) (List.init tasks Fun.id))

(* Returns the (optional) writer, a replay lookup keyed by (model,
   journal index), and an idempotent close. *)
let open_journal ~journal ~resume fp =
  match journal with
  | None -> (None, (fun _ -> None), fun () -> ())
  | Some path ->
      let w, entries =
        if resume then
          match Journal.open_resume path fp with
          | Ok (w, entries) -> (w, entries)
          | Error msg -> raise (Journal.Rejected msg)
        else (Journal.create path fp, [])
      in
      let tbl = Hashtbl.create ((2 * List.length entries) + 1) in
      List.iter
        (fun e ->
          Hashtbl.replace tbl (e.Journal.result.Journal.model, e.Journal.index) e.Journal.result)
        entries;
      (Some w, Hashtbl.find_opt tbl, fun () -> Journal.close w)

let run ~obs ~domains ~spawn ?on_progress ?journal ~resume ~fingerprint ~ntasks ~identity
    ~exec_ids ~plan main =
  let writer, lookup, close_journal = open_journal ~journal ~resume fingerprint in
  Fun.protect ~finally:close_journal @@ fun () ->
  let results = Array.make ntasks None in
  let total = Array.length exec_ids in
  let completed = Atomic.make 0 in
  let settle ti r =
    results.(ti) <- Some r;
    match on_progress with
    | Some f -> f ~done_:(Atomic.fetch_and_add completed 1 + 1) ~total
    | None -> ()
  in
  let emit (ti, r) =
    (match writer with
    | Some w ->
        let _, index, _ = identity ti in
        Journal.append w ~index r
    | None -> ());
    settle ti r
  in
  (* Journaled verdicts replay before any domain spawns, so their
     result slots are read-only by the time workers run. *)
  Array.iter
    (fun ti ->
      let model, index, site_name = identity ti in
      match lookup (model, index) with
      | Some r ->
          if r.Journal.site_name <> site_name then
            raise
              (Journal.Rejected
                 (Printf.sprintf "journal verdict at site %d names %S, campaign expects %S"
                    index r.Journal.site_name site_name));
          Obs.incr obs "journal.replayed";
          settle ti r
      | None -> ())
    exec_ids;
  let pending = List.filter (fun ti -> results.(ti) = None) (Array.to_list exec_ids) in
  if pending <> [] then begin
    let work = plan pending in
    let next = Atomic.make 0 in
    let aborted = Atomic.make false in
    let errors = Array.make domains None in
    (* A worker that raises records the exception and flips [aborted]
       so its peers stop at the next unit boundary instead of burning
       through the queue. *)
    let worker wi ctx o =
      try
        let ctx = ctx () in
        let rec go () =
          if not (Atomic.get aborted) then begin
            let k = Atomic.fetch_and_add next 1 in
            if k < Array.length work.units then begin
              List.iter emit (work.exec ctx o work.units.(k));
              go ()
            end
          end
        in
        go ()
      with e ->
        errors.(wi) <- Some (e, Printexc.get_raw_backtrace ());
        Atomic.set aborted true
    in
    (* Worker 0 runs on the caller's context and collector; every
       spawned worker aggregates into a private fork, merged in spawn
       order at join, so the hot path never contends and totals are
       the same for any domain count. *)
    let forks = Array.init (domains - 1) (fun _ -> Obs.fork obs) in
    let spawned =
      List.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> worker (i + 1) spawn forks.(i)))
    in
    worker 0 (fun () -> main) obs;
    List.iter Domain.join spawned;
    Array.iter (fun fork -> Obs.merge ~into:obs fork) forks;
    (* The original exception, with its backtrace, surfaces only after
       every domain has joined and its fork has been merged; verdicts
       classified before the abort are already journaled. *)
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors
  end;
  Array.to_list
    (Array.map
       (fun ti ->
         match results.(ti) with
         | Some r -> r
         | None ->
             let model, _, site_name = identity ti in
             failwith
               (Printf.sprintf "campaign: missing result for task %d (site %s, model %s)" ti
                  site_name (C.fault_model_name model)))
       exec_ids)
