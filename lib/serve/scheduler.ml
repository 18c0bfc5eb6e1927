(* Shard scheduler: a pool of forked worker processes executing
   campaign shards, with requeue-on-crash.

   Each shard of each job runs in its own forked child against the
   parent's prepared (cached) golden trace + static analysis — fork
   gives the child the preparation by copy-on-write, and gives the
   parent a kill-safe unit of work: a worker death (crash, OOM kill,
   kill -9) only ever loses the unsynced tail of that shard's journal,
   and the requeued shard resumes from the journal byte-identically
   ({!Fault_injection.Journal} fingerprints make replay exact).  A
   worker that exits with the journal-rejected code fails the whole
   job instead — its journal belongs to a different campaign, and
   retrying cannot fix that.

   The scheduler is single-threaded: {!pump} fills free worker slots,
   polls worker pipes for progress, reaps exited children and returns
   the resulting events.  On shard-cover completion it loads the shard
   journals, {!Fault_injection.Journal.merge}s them and renders the
   verdict table through {!Render} — the same code path as `ricv
   merge`, which is what makes the served table byte-identical to the
   direct run's. *)

module Json = Obs.Json
module Campaign = Fault_injection.Campaign
module Iss_campaign = Fault_injection.Iss_campaign
module Journal = Fault_injection.Journal
module Injection = Fault_injection.Injection

type engine_job =
  | Ej_rtl of {
      params : Leon3.Core.params;
      config : Campaign.config;  (* shard-normalised; per-child shard spliced in *)
      prog : Sparc.Asm.program;
      target : Injection.target;
      prepared : Campaign.prepared;
    }
  | Ej_iss of {
      config : Iss_campaign.config;
      prog : Sparc.Asm.program;
      prepared : Iss_campaign.prepared;
    }

type shard_state =
  | S_pending
  | S_running of { pid : int; pipe : Unix.file_descr; buf : Buffer.t }
  | S_done

type finished = F_running | F_done of string list | F_failed of string

type job = {
  id : int;
  spec : Protocol.spec;
  mutable ej : engine_job option;  (* None once terminal (frees the golden trace) *)
  shards : int;
  state : shard_state array;  (* index k-1 = shard k *)
  attempts : int array;
  done_ : int array;  (* last progress report per shard *)
  total : int array;
  mutable requeues : int;
  cache_hit : bool;
  mutable finished : finished;
}

type event =
  | Progress of { job : int; shard : int; done_ : int; total : int }
  | Requeued of { job : int; shard : int; attempt : int }
  | Job_done of { job : int; table : string list; requeues : int }
  | Job_failed of { job : int; reason : string }

type t = {
  queue : Jobqueue.t;
  cache : Cache.t;
  obs : Obs.t;
  workers : int;
  max_retries : int;
  on_fork_child : unit -> unit;
  jobs : (int, job) Hashtbl.t;
  mutable order : int list;  (* submission order, oldest first *)
  mutable pending : (int * int) list;  (* (job, shard) FIFO, oldest first *)
  events : event Queue.t;
}

(* ---- spec -> engine ---- *)

let build_program (spec : Protocol.spec) =
  match
    List.find_opt (fun e -> e.Workloads.Suite.name = spec.workload) Workloads.Suite.all
  with
  | None -> Error (Printf.sprintf "unknown workload %S" spec.workload)
  | Some e ->
      let iterations =
        match spec.iterations with
        | Some n -> n
        | None -> e.Workloads.Suite.default_iterations
      in
      Ok (e.Workloads.Suite.build ~iterations ~dataset:spec.dataset)

let rtl_config (spec : Protocol.spec) =
  { Campaign.default_config with
    Campaign.sample_size = Some spec.samples;
    hang_factor = spec.hang_factor;
    seed = spec.seed }

let iss_config (spec : Protocol.spec) =
  { Iss_campaign.default_config with
    Iss_campaign.samples_per_model = spec.samples;
    hang_factor = spec.hang_factor;
    seed = spec.seed }

let target_of_spec (spec : Protocol.spec) =
  match spec.target with "cmem" -> Injection.Cmem | _ -> Injection.Iu

(* Build (or fetch from the golden-trace cache) the engine job for a
   spec.  The preparation is the expensive part — golden simulation
   plus static analysis — and is exactly what the cache stores. *)
let build_engine t (spec : Protocol.spec) =
  match build_program spec with
  | Error _ as e -> e
  | Ok prog -> (
      let key = Cache.key ~prog_hash:(Journal.hash_program prog) spec in
      match spec.engine with
      | Protocol.Rtl ->
          let params =
            { Leon3.Core.default_params with Leon3.Core.gate_level = spec.gate }
          in
          let config = rtl_config spec in
          let target = target_of_spec spec in
          let v, hit =
            Cache.find_or_build t.cache ~key ~build:(fun () ->
                let sys = Leon3.System.create ~params () in
                Cache.Rtl_prepared (Campaign.prepare ~config ~obs:t.obs sys prog target))
          in
          let prepared =
            match v with
            | Cache.Rtl_prepared p -> p
            | Cache.Iss_prepared _ -> assert false  (* engine is part of the key *)
          in
          Ok (Ej_rtl { params; config; prog; target; prepared }, hit)
      | Protocol.Iss ->
          let config = iss_config spec in
          let v, hit =
            Cache.find_or_build t.cache ~key ~build:(fun () ->
                Cache.Iss_prepared (Iss_campaign.prepare ~config ~obs:t.obs prog))
          in
          let prepared =
            match v with
            | Cache.Iss_prepared p -> p
            | Cache.Rtl_prepared _ -> assert false
          in
          Ok (Ej_iss { config; prog; prepared }, hit))

(* ---- worker processes ---- *)

let write_line fd s =
  let s = s ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> ()  (* parent gone: keep working *)

let child_report pipe ~job ~shard ~done_ ~total =
  if done_ mod 25 = 0 || done_ = total then
    write_line pipe (Printf.sprintf "P %d %d %d %d" job shard done_ total)

(* The child's whole life.  Never returns: [Unix._exit] skips at_exit
   and buffered-channel flushing (the parent owns those).  Exit codes:
   0 = shard complete, 3 = journal rejected (fatal for the job), any
   other exit or a signal = crash, requeued by the parent. *)
let child_body t job k pipe =
  t.on_fork_child ();
  let journal = Jobqueue.shard_journal t.queue ~job:job.id ~shard:k in
  let on_progress ~done_ ~total =
    child_report pipe ~job:job.id ~shard:k ~done_ ~total
  in
  match
    match job.ej with
    | None -> Unix._exit 2
    | Some (Ej_rtl e) ->
        let sys = Leon3.System.create ~params:e.params () in
        let config = { e.config with Campaign.shard = (k, job.shards) } in
        ignore
          (Campaign.run ~config ~on_progress ~journal ~resume:true
             ~prepared:e.prepared sys e.prog e.target)
    | Some (Ej_iss e) ->
        let config = { e.config with Iss_campaign.shard = (k, job.shards) } in
        ignore
          (Iss_campaign.run ~config ~on_progress ~journal ~resume:true
             ~prepared:e.prepared e.prog)
  with
  | () -> Unix._exit 0
  | exception Journal.Rejected _ -> Unix._exit 3
  | exception _ -> Unix._exit 2

let spawn t job k =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      child_body t job k w
  | pid ->
      Unix.close w;
      job.state.(k - 1) <- S_running { pid; pipe = r; buf = Buffer.create 64 };
      Obs.incr t.obs "serve.shards_started"

let running_count t =
  Hashtbl.fold
    (fun _ job acc ->
      Array.fold_left
        (fun acc -> function S_running _ -> acc + 1 | _ -> acc)
        acc job.state)
    t.jobs 0

let fill_slots t =
  let rec go () =
    if running_count t < t.workers then
      match t.pending with
      | [] -> ()
      | (id, k) :: rest ->
          t.pending <- rest;
          (match Hashtbl.find_opt t.jobs id with
          | Some job when job.finished = F_running && job.state.(k - 1) = S_pending ->
              spawn t job k
          | _ -> ());
          go ()
  in
  go ()

(* ---- completion ---- *)

let kill_running t job =
  Array.iteri
    (fun i st ->
      match st with
      | S_running { pid; pipe; _ } ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          (try Unix.close pipe with Unix.Unix_error _ -> ());
          job.state.(i) <- S_pending
      | _ -> ())
    job.state;
  t.pending <- List.filter (fun (id, _) -> id <> job.id) t.pending

let fail_job t job reason =
  kill_running t job;
  job.ej <- None;
  job.finished <- F_failed reason;
  Jobqueue.mark_job_failed t.queue job.id ~reason;
  Obs.incr t.obs "serve.jobs_failed";
  Queue.add (Job_failed { job = job.id; reason }) t.events

(* the table must be durable before it is published: a power loss
   must not leave an empty summary that [recover] serves as the
   finished job's table *)
let write_summary t job lines =
  Fault_injection.Durable.write_file (Jobqueue.summary_path t.queue job.id) lines

let finalize t job =
  let rec load acc k =
    if k > job.shards then Ok (List.rev acc)
    else
      match Journal.load (Jobqueue.shard_journal t.queue ~job:job.id ~shard:k) with
      | Ok j -> load (j :: acc) (k + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" k e)
  in
  match
    match load [] 1 with
    | Error _ as e -> e
    | Ok journals -> (
        match Journal.merge journals with
        | Error _ as e -> e
        | Ok (fp, results) -> Render.merged_lines fp results)
  with
  | Error reason -> fail_job t job (Printf.sprintf "merge failed: %s" reason)
  | Ok lines ->
      write_summary t job lines;
      job.ej <- None;
      job.finished <- F_done lines;
      Jobqueue.mark_job_done t.queue job.id;
      Obs.incr t.obs "serve.jobs_done";
      Queue.add
        (Job_done { job = job.id; table = lines; requeues = job.requeues })
        t.events

let check_complete t job =
  if
    job.finished = F_running
    && Array.for_all (fun st -> st = S_done) job.state
  then finalize t job

(* ---- progress and reaping ---- *)

let handle_progress t job k line =
  match String.split_on_char ' ' line with
  | [ "P"; _; _; d; tot ] -> (
      match (int_of_string_opt d, int_of_string_opt tot) with
      | Some d, Some tot ->
          job.done_.(k - 1) <- d;
          job.total.(k - 1) <- tot;
          Queue.add (Progress { job = job.id; shard = k; done_ = d; total = tot })
            t.events
      | _ -> ())
  | _ -> ()

let drain_buffer t job k buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)
      |> List.iter (fun line -> if line <> "" then handle_progress t job k line)

let read_chunk fd buf =
  let bytes = Bytes.create 4096 in
  match Unix.read fd bytes 0 4096 with
  | 0 -> `Eof
  | n ->
      Buffer.add_subbytes buf bytes 0 n;
      `More
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More

let read_to_eof fd buf =
  let rec go () = match read_chunk fd buf with `Eof -> () | `More -> go () in
  go ()

let reap_shard t job k ~pid ~pipe ~buf status =
  read_to_eof pipe buf;
  drain_buffer t job k buf;
  (try Unix.close pipe with Unix.Unix_error _ -> ());
  ignore pid;
  (* drop the S_running entry first so a fail path cannot re-kill the
     already-reaped pid or re-close the pipe *)
  job.state.(k - 1) <- S_pending;
  match status with
  | Unix.WEXITED 0 ->
      job.state.(k - 1) <- S_done;
      Jobqueue.mark_shard_done t.queue ~job:job.id ~shard:k;
      check_complete t job
  | Unix.WEXITED 3 ->
      fail_job t job
        (Printf.sprintf "shard %d: journal rejected (stale journal on disk?)" k)
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      job.attempts.(k - 1) <- job.attempts.(k - 1) + 1;
      if job.attempts.(k - 1) > t.max_retries then
        fail_job t job
          (Printf.sprintf "shard %d crashed %d times" k job.attempts.(k - 1))
      else begin
        job.requeues <- job.requeues + 1;
        Obs.incr t.obs "serve.requeues";
        t.pending <- t.pending @ [ (job.id, k) ];
        Queue.add
          (Requeued { job = job.id; shard = k; attempt = job.attempts.(k - 1) })
          t.events
      end

let reap t =
  Hashtbl.iter
    (fun _ job ->
      Array.iteri
        (fun i st ->
          match st with
          | S_running { pid; pipe; buf } -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _, status -> reap_shard t job (i + 1) ~pid ~pipe ~buf status
              | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                  (* someone else reaped it: treat as a crash *)
                  reap_shard t job (i + 1) ~pid ~pipe ~buf (Unix.WEXITED 2))
          | _ -> ())
        job.state)
    (Hashtbl.copy t.jobs)

(* ---- public API ---- *)

let pipe_fds t =
  Hashtbl.fold
    (fun _ job acc ->
      Array.fold_left
        (fun acc -> function S_running { pipe; _ } -> pipe :: acc | _ -> acc)
        acc job.state)
    t.jobs []

let pump t ~timeout =
  fill_slots t;
  let fds = pipe_fds t in
  (if fds <> [] || timeout > 0. then
     match Unix.select fds [] [] timeout with
     | readable, _, _ ->
         List.iter
           (fun fd ->
             Hashtbl.iter
               (fun _ job ->
                 Array.iteri
                   (fun i st ->
                     match st with
                     | S_running { pipe; buf; _ } when pipe = fd -> (
                         match read_chunk fd buf with
                         | `More | `Eof -> drain_buffer t job (i + 1) buf)
                     | _ -> ())
                   job.state)
               t.jobs)
           readable
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  reap t;
  fill_slots t;
  let evs = List.of_seq (Queue.to_seq t.events) in
  Queue.clear t.events;
  evs

let enqueue_job t job =
  Hashtbl.replace t.jobs job.id job;
  t.order <- t.order @ [ job.id ];
  let todo = ref [] in
  Array.iteri
    (fun i st -> if st = S_pending then todo := (job.id, i + 1) :: !todo)
    job.state;
  t.pending <- t.pending @ List.rev !todo;
  check_complete t job

let submit t spec =
  match Protocol.validate_spec spec with
  | Error _ as e -> e
  | Ok () -> (
      match try build_engine t spec with e -> Error (Printexc.to_string e) with
      | Error _ as e -> e
      | Ok (ej, cache_hit) ->
          let id = Jobqueue.next_id t.queue in
          Jobqueue.append_job t.queue id spec;
          let shards = spec.Protocol.shards in
          enqueue_job t
            { id; spec; ej = Some ej; shards;
              state = Array.make shards S_pending;
              attempts = Array.make shards 0;
              done_ = Array.make shards 0;
              total = Array.make shards 0;
              requeues = 0; cache_hit; finished = F_running };
          Obs.incr t.obs "serve.submissions";
          Ok (id, cache_hit))

(* Recovery: re-enqueue every unfinished shard of every unfinished
   job.  The preparation is rebuilt (a restart empties the in-memory
   cache) but the shard journals on disk replay byte-identically, so
   no completed verdict is ever re-simulated. *)
let recover t (r : Jobqueue.job_record) =
  match r.finished with
  | `Done ->
      let lines =
        let path = Jobqueue.summary_path t.queue r.id in
        if Sys.file_exists path then
          String.split_on_char '\n'
            (In_channel.with_open_bin path In_channel.input_all)
          |> List.filter (fun l -> l <> "")
        else []
      in
      Hashtbl.replace t.jobs r.id
        { id = r.id; spec = r.spec; ej = None; shards = r.spec.Protocol.shards;
          state = Array.make r.spec.Protocol.shards S_done;
          attempts = Array.make r.spec.Protocol.shards 0;
          done_ = Array.make r.spec.Protocol.shards 0;
          total = Array.make r.spec.Protocol.shards 0;
          requeues = 0; cache_hit = false; finished = F_done lines };
      t.order <- t.order @ [ r.id ]
  | `Failed reason ->
      Hashtbl.replace t.jobs r.id
        { id = r.id; spec = r.spec; ej = None; shards = r.spec.Protocol.shards;
          state = Array.make r.spec.Protocol.shards S_done;
          attempts = Array.make r.spec.Protocol.shards 0;
          done_ = Array.make r.spec.Protocol.shards 0;
          total = Array.make r.spec.Protocol.shards 0;
          requeues = 0; cache_hit = false; finished = F_failed reason };
      t.order <- t.order @ [ r.id ]
  | `Open -> (
      match try build_engine t r.spec with e -> Error (Printexc.to_string e) with
      | Error reason ->
          let job =
            { id = r.id; spec = r.spec; ej = None; shards = r.spec.Protocol.shards;
              state = Array.make r.spec.Protocol.shards S_done;
              attempts = Array.make r.spec.Protocol.shards 0;
              done_ = Array.make r.spec.Protocol.shards 0;
              total = Array.make r.spec.Protocol.shards 0;
              requeues = 0; cache_hit = false; finished = F_running }
          in
          Hashtbl.replace t.jobs r.id job;
          t.order <- t.order @ [ r.id ];
          fail_job t job (Printf.sprintf "recovery: %s" reason)
      | Ok (ej, cache_hit) ->
          let shards = r.spec.Protocol.shards in
          let state =
            Array.init shards (fun i ->
                if List.mem (i + 1) r.done_shards then S_done else S_pending)
          in
          enqueue_job t
            { id = r.id; spec = r.spec; ej = Some ej; shards; state;
              attempts = Array.make shards 0;
              done_ = Array.make shards 0;
              total = Array.make shards 0;
              requeues = 0; cache_hit; finished = F_running })

let create ?(obs = Obs.null) ?(workers = 2) ?(max_retries = 2) ?cache_capacity
    ?(on_fork_child = fun () -> ()) ~dir () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be positive";
  (* the service always keeps a live collector so the golden-run count
     behind the cache-hit guarantee is observable even when the caller
     passed no obs *)
  let obs = if Obs.enabled obs then obs else Obs.create () in
  match Jobqueue.open_ dir with
  | Error _ as e -> e
  | Ok (queue, records) ->
      let t =
        { queue;
          cache = Cache.create ~obs ?capacity:cache_capacity ();
          obs; workers; max_retries; on_fork_child;
          jobs = Hashtbl.create 16;
          order = [];
          pending = [];
          events = Queue.create () }
      in
      List.iter (recover t) records;
      Ok t

let job_result t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> `Unknown
  | Some j -> (
      match j.finished with
      | F_running -> `Running
      | F_done table -> `Done (table, j.requeues)
      | F_failed reason -> `Failed reason)

let idle t =
  t.pending = []
  && Hashtbl.fold
       (fun _ job acc ->
         acc
         && Array.for_all (fun st -> match st with S_running _ -> false | _ -> true)
              job.state)
       t.jobs true

let golden_runs t = Obs.span_count t.obs "golden"

let cache_stats t = (Cache.hits t.cache, Cache.misses t.cache)

let obs t = t.obs

let status_json t =
  let job_json id =
    let j = Hashtbl.find t.jobs id in
    let state, extra =
      match j.finished with
      | F_done _ -> ("done", [])
      | F_failed reason -> ("failed", [ ("reason", Json.Str reason) ])
      | F_running ->
          ( (if Array.exists (function S_running _ -> true | _ -> false) j.state
             then "running"
             else "queued"),
            [] )
    in
    let shards_json =
      Array.to_list
        (Array.mapi
           (fun i st ->
             let base =
               [ ("shard", Json.Int (i + 1));
                 ("done", Json.Int j.done_.(i));
                 ("total", Json.Int j.total.(i)) ]
             in
             match st with
             | S_running { pid; _ } ->
                 Json.Obj (("state", Json.Str "running") :: ("pid", Json.Int pid) :: base)
             | S_done -> Json.Obj (("state", Json.Str "done") :: base)
             | S_pending -> Json.Obj (("state", Json.Str "pending") :: base))
           j.state)
    in
    Json.Obj
      ([ ("id", Json.Int j.id);
         ("workload", Json.Str j.spec.Protocol.workload);
         ("engine", Json.Str (Protocol.engine_name j.spec.Protocol.engine));
         ("state", Json.Str state);
         ("shards", Json.Int j.shards);
         ("requeues", Json.Int j.requeues);
         ("cache", Json.Str (if j.cache_hit then "hit" else "miss")) ]
      @ extra
      @ [ ("progress", Json.List shards_json) ])
  in
  let hits, misses = cache_stats t in
  Json.Obj
    [ ("ok", Json.Bool true);
      ("jobs", Json.List (List.map job_json t.order));
      ("cache_hits", Json.Int hits);
      ("cache_misses", Json.Int misses);
      ("golden_runs", Json.Int (golden_runs t));
      ("requeues", Json.Int (Obs.counter t.obs "serve.requeues")) ]

let shutdown t =
  Hashtbl.iter (fun _ job -> kill_running t job) (Hashtbl.copy t.jobs);
  t.pending <- [];
  Jobqueue.close t.queue
