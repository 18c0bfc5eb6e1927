(** The campaign executor shared by the RTL ({!Campaign}) and ISS
    ({!Iss_campaign}) engines.

    A campaign is a fixed global task list; one call executes one shard
    of it.  Journaled verdicts replay first.  The engine then plans the
    remaining tasks into work units, which [domains] workers claim from
    one atomic queue; the queue is the only pass, so every verdict
    comes from some unit.  With [domains = 1] nothing is spawned: the
    caller's context and collector do all the work. *)

type ('ctx, 'u) work = {
  units : 'u array;  (** one queue claim each *)
  exec : 'ctx -> Obs.t -> 'u -> (int * Journal.run_result) list;
      (** run one unit on a worker's context, reporting into that
          worker's collector; returns verdicts by global task index.
          Together the units must cover every planned task. *)
}

val check_shard : who:string -> int * int -> unit
(** Raises [Invalid_argument] unless [(i, n)] satisfies
    [1 <= i <= n]. *)

val shard_ids : int * int -> tasks:int -> site:(int -> int) -> int array
(** The global task indices of shard [(i, n)]: those whose [site]
    index is congruent to [i-1] mod [n], in task order. *)

val run :
  obs:Obs.t ->
  domains:int ->
  spawn:(unit -> 'ctx) ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  resume:bool ->
  fingerprint:Journal.fingerprint ->
  ntasks:int ->
  identity:(int -> Rtl.Circuit.fault_model * int * string) ->
  exec_ids:int array ->
  plan:(int list -> ('ctx, 'u) work) ->
  'ctx ->
  Journal.run_result list
(** [run ... main] executes the tasks [exec_ids] (global indices below
    [ntasks]) and returns their verdicts in [exec_ids] order.
    [identity ti] is the task's journal key and expected site name.

    [journal] appends every new verdict to a JSONL file bound to
    [fingerprint]; with [resume] the file's verdicts replay instead
    (counted as [journal.replayed] on [obs]), and a mismatching
    fingerprint or site name raises {!Journal.Rejected}.  [plan] is
    called once, on the calling domain, with the tasks left to run —
    not at all when the journal covers the shard.

    Worker 0 runs on [main] and reports into [obs]; each of the other
    [domains - 1] workers runs in its own domain on a [spawn ()]
    context and a private {!Obs.fork}, merged into [obs] in spawn order
    at join.  [on_progress] is called after every verdict, possibly
    concurrently, with an atomically increasing [done_].  A raising
    worker stops its peers at the next unit boundary; the first
    worker's exception is re-raised with its backtrace once every
    domain has joined. *)
