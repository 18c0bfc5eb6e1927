(* Persistent on-disk job queue: one JSONL file under the service
   directory, a {!Fault_injection.Durable} file like the campaign
   journals — compacted whole on open, one fsync per appended record,
   torn-tail-tolerant load. *)

module Json = Obs.Json
module Durable = Fault_injection.Durable

type record =
  | R_job of int * Protocol.spec
  | R_shard_done of int * int
  | R_job_done of int
  | R_job_failed of int * string

type job_record = {
  id : int;
  spec : Protocol.spec;
  done_shards : int list;  (* ascending *)
  finished : [ `Open | `Done | `Failed of string ];
}

type t = { dir : string; log : Durable.appender; mutable next_id : int }

let header_line = {|{"type":"queue-header","version":1}|}

let record_to_json = function
  | R_job (id, spec) ->
      Json.Obj
        [ ("type", Json.Str "job"); ("id", Json.Int id);
          ("spec", Protocol.spec_to_json spec) ]
  | R_shard_done (job, shard) ->
      Json.Obj
        [ ("type", Json.Str "shard-done"); ("job", Json.Int job);
          ("shard", Json.Int shard) ]
  | R_job_done job -> Json.Obj [ ("type", Json.Str "job-done"); ("job", Json.Int job) ]
  | R_job_failed (job, reason) ->
      Json.Obj
        [ ("type", Json.Str "job-failed"); ("job", Json.Int job);
          ("reason", Json.Str reason) ]

let record_of_json j =
  let int_field name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing integer field %S" name)
  in
  let ( let* ) = Result.bind in
  match Option.bind (Json.member "type" j) Json.to_str with
  | Some "job" ->
      let* id = int_field "id" in
      let* spec =
        match Json.member "spec" j with
        | Some sj -> Protocol.spec_of_json sj
        | None -> Error "job record: missing field \"spec\""
      in
      Ok (R_job (id, spec))
  | Some "shard-done" ->
      let* job = int_field "job" in
      let* shard = int_field "shard" in
      Ok (R_shard_done (job, shard))
  | Some "job-done" ->
      let* job = int_field "job" in
      Ok (R_job_done job)
  | Some "job-failed" ->
      let* job = int_field "job" in
      let reason =
        match Option.bind (Json.member "reason" j) Json.to_str with
        | Some r -> r
        | None -> "unknown"
      in
      Ok (R_job_failed (job, reason))
  | Some other -> Error (Printf.sprintf "unknown queue record type %S" other)
  | None -> Error "queue record: missing field \"type\""

let fold_records records =
  (* job table in submission order *)
  let jobs = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (function
      | R_job (id, spec) ->
          if not (Hashtbl.mem jobs id) then begin
            Hashtbl.replace jobs id
              { id; spec; done_shards = []; finished = `Open };
            order := id :: !order
          end
      | R_shard_done (id, k) -> (
          match Hashtbl.find_opt jobs id with
          | Some r when not (List.mem k r.done_shards) ->
              Hashtbl.replace jobs id { r with done_shards = r.done_shards @ [ k ] }
          | _ -> ())
      | R_job_done id -> (
          match Hashtbl.find_opt jobs id with
          | Some r -> Hashtbl.replace jobs id { r with finished = `Done }
          | None -> ())
      | R_job_failed (id, reason) -> (
          match Hashtbl.find_opt jobs id with
          | Some r -> Hashtbl.replace jobs id { r with finished = `Failed reason }
          | None -> ()))
    records;
  List.rev_map (fun id -> Hashtbl.find jobs id) !order

(* ---- writing ---- *)

let record_line r = Json.to_string (record_to_json r)

let append t record = Durable.append t.log (record_line record)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let parse_header line =
  match Json.of_string line with
  | Ok j when Option.bind (Json.member "type" j) Json.to_str = Some "queue-header" -> Ok ()
  | _ -> Error "bad queue header"

let open_ dir =
  mkdir_p dir;
  let path = Filename.concat dir "queue.jsonl" in
  let loaded =
    if not (Sys.file_exists path) then Ok []
    else
      Result.map snd
        (Durable.load path ~header:parse_header ~record:(fun line ->
             Result.bind (Json.of_string line) record_of_json))
  in
  Result.map
    (fun records ->
      (* compacting rewrite: well-formed records only, torn tail dropped *)
      let log =
        Durable.start ~sync_every:1 path (header_line :: List.map record_line records)
      in
      let jobs = fold_records records in
      let next_id = List.fold_left (fun acc r -> max acc (r.id + 1)) 1 jobs in
      ({ dir; log; next_id }, jobs))
    loaded

let next_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let job_dir t id = Filename.concat t.dir (Printf.sprintf "job-%d" id)

let shard_journal t ~job ~shard =
  Filename.concat (job_dir t job) (Printf.sprintf "shard-%d.jsonl" shard)

let summary_path t id = Filename.concat (job_dir t id) "summary.txt"

let append_job t id spec =
  mkdir_p (job_dir t id);
  append t (R_job (id, spec))

let mark_shard_done t ~job ~shard = append t (R_shard_done (job, shard))

let mark_job_done t id = append t (R_job_done id)

let mark_job_failed t id ~reason = append t (R_job_failed (id, reason))

let close t = Durable.close t.log
