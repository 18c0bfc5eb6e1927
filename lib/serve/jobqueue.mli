(** Persistent on-disk job queue for the campaign service.

    One append-only JSONL file, [DIR/queue.jsonl], records the queue's
    history: a header, one [job] record per submission, one
    [shard-done] record per completed shard, and a terminal
    [job-done]/[job-failed] record per job.  It is a
    {!Fault_injection.Durable} file, like the campaign journals: every
    append is fsync'd, and a failed write or fsync raises, which stops
    the daemon; a restart recovers from disk.  Opening the queue
    replays the log under the journals' torn-tail rule, compacts it
    with a whole-file rewrite and returns every job with its
    completion state, so a daemon restart resumes exactly the
    unfinished shards.

    Shard verdicts themselves live in per-job campaign journals,
    [DIR/job-N/shard-K.jsonl]; the queue only tracks their
    completion. *)

type job_record = {
  id : int;
  spec : Protocol.spec;
  done_shards : int list;  (** ascending shard indices *)
  finished : [ `Open | `Done | `Failed of string ];
}

type t

val open_ : string -> (t * job_record list, string) result
(** Open (creating the directory and file if needed) and replay the
    queue at [DIR].  A torn final record is dropped; any other
    malformed record is an [Error].  Jobs are returned in submission
    order. *)

val next_id : t -> int
(** Allocate the next job id (monotonic across restarts). *)

val job_dir : t -> int -> string

val shard_journal : t -> job:int -> shard:int -> string

val summary_path : t -> int -> string

val append_job : t -> int -> Protocol.spec -> unit
(** Record a submission (creating its job directory) and fsync. *)

val mark_shard_done : t -> job:int -> shard:int -> unit

val mark_job_done : t -> int -> unit

val mark_job_failed : t -> int -> reason:string -> unit

val close : t -> unit
