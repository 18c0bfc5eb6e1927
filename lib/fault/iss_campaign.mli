(** ISS-level fault-injection campaigns.

    The cheap half of the paper's 85x cost argument: instruction-grain
    fault models applied to the functional SPARC ISS ({!Iss.Emulator})
    instead of RTL signals.  A campaign samples dynamic instruction
    indices from a fault-free golden ISS run, corrupts one bit of
    architectural state at each, and classifies the outcome with the
    same light-lockstep observation and verdict taxonomy as the RTL
    engine ({!Journal.outcome}): the off-core write stream is compared
    write-for-write against the golden one, traps map to the Leon3 trap
    codes, and an instruction budget of [hang_factor] times the golden
    run is the watchdog.

    A campaign runs no fault-free prefix twice.  One golden pass,
    observed through {!Iss.Emulator.set_access_hook}, finds where each
    register or memory fault is first read: golden's first access to
    the flipped location at or after the injection.  Until then the
    faulty machine is golden with one bit flipped, so a site whose
    location golden next overwrites, or never accesses again, is
    Silent without a run ([Prefiltered]); every other site runs on a
    copy of golden ({!Iss.Emulator.copy}) taken at that read, opcode
    faults at their own instant.  {!run_one}, a fresh emulator that
    replays the prefix, is the reference the tests hold this to.

    Journaling, sharding and resume reuse {!Journal} unchanged: the
    task list is flat (the journal site index {e is} the task index),
    every verdict is recorded under the RTL [bit-flip] model, and the
    ISS model class is carried by the site-name prefix ([iss.reg[…]],
    [iss.mem[…]], [iss.op[…]]) — {!model_of_site_name} partitions
    merged or replayed verdicts back into per-model summaries.

    {b Units.}  The ISS has no cycle-accurate clock in campaign mode
    (caches are off; they never affect verdicts): [inject_cycle] and
    [detect_cycle] in results, and the latency fields of summaries, are
    measured in {e dynamic instructions}, not cycles. *)

(** Verdict types, re-exported from {!Journal} as in {!Campaign}. *)

type failure_kind = Journal.failure_kind =
  | Wrong_write of int  (** index of the first divergent write *)
  | Missing_writes of int  (** clean exit but only this many writes matched *)
  | Trap of int  (** trapped; payload is the Leon3 trap code *)
  | Hang  (** instruction budget exhausted *)

type outcome = Journal.outcome = Silent | Failure of failure_kind

type run_result = Journal.run_result = {
  site_name : string;
  model : Rtl.Circuit.fault_model;  (** always [Bit_flip] for ISS verdicts *)
  outcome : outcome;
  detect_cycle : int option;  (** dynamic instruction index of detection *)
  inject_cycle : int;  (** dynamic instruction index of injection *)
  sim : Journal.sim_status;
      (** [Prefiltered] when golden never reads the flipped bit after
          the injection, [Simulated] otherwise *)
}

(** {1 Fault models} *)

type model =
  | Reg_flip  (** invert one bit of one physical register-file slot *)
  | Mem_flip  (** invert one bit of one data-memory word *)
  | Op_flip
      (** invert one bit of the next fetched instruction word (one
          dynamic instruction, decode-cache-bypassing) *)

val all_models : model list

val model_name : model -> string

val model_of_name : string -> model option

type site = {
  smodel : model;
  index : int;  (** dynamic instruction index of the injection *)
  loc : int;  (** register-file slot / memory word address / unused *)
  bit : int;
  site_name : string;
}

val model_of_site_name : string -> model option
(** Recover the ISS model class from a verdict's site name ([None] for
    RTL site names — the test an ISS-aware [merge] uses). *)

val target_name : string
(** The {!Journal.fingerprint.target} of every ISS campaign journal:
    ["iss"]. *)

(** {1 Configuration} *)

type config = {
  models : model list;
  samples_per_model : int;
  hang_factor : int;  (** instruction-budget multiplier over the golden run *)
  seed : int;
  shard : int * int;  (** 1-based shard index, shard count — as {!Campaign} *)
}

val default_config : config
(** All three models, 400 sites per model, watchdog 4x, seed 7,
    shard 1/1. *)

(** {1 Golden run and sampling} *)

type golden = {
  writes : Sparc.Bus_event.t array;  (** off-core write stream, in order *)
  instructions : int;
  exit_code : int;
}

val golden_run : ?obs:Obs.t -> Sparc.Asm.program -> golden
(** Fault-free reference run (caches off, reads unrecorded).  Raises
    [Failure] if the workload itself traps or hits the instruction
    limit. *)

val sample_sites : config:config -> golden -> Sparc.Asm.program -> site array
(** Deterministic model-major site sample: injection instants uniform
    over the golden run's dynamic instructions; register faults uniform
    over the physical slot space; memory faults uniform over the data
    segments' words (the result region for data-less workloads); opcode
    faults uniform over the 32 instruction-word bits. *)

val fingerprint :
  config:config -> Sparc.Asm.program -> site array -> Journal.fingerprint
(** The identity an ISS journal is bound to ([target = "iss"]); the
    site-name hash pins seed, sample size, model list and golden
    length. *)

(** {1 Reusable preparation}

    The ISS analogue of {!Campaign.prepare}: the golden run and site
    sample bundled for reuse across shards and repeat submissions of
    the same campaign (the serve layer's golden-trace cache). *)

type prepared

val prepare : ?config:config -> ?obs:Obs.t -> Sparc.Asm.program -> prepared
(** Golden run + site sample, shard-normalised to 1/1.  Raises
    [Invalid_argument] on an out-of-range shard spec. *)

(** {1 Execution} *)

val run_one :
  ?obs:Obs.t -> Sparc.Asm.program -> golden -> hang_factor:int -> site -> run_result
(** The reference: one faulty run on a fresh emulator that replays the
    fault-free prefix up to the injection, classified by the same
    verdict function as the campaign's forked runs.  Its [sim] is
    always [Simulated]. *)

val run_sites :
  ?obs:Obs.t ->
  Sparc.Asm.program ->
  golden ->
  hang_factor:int ->
  site array ->
  run_result array
(** The campaign's engine on the given sites, in their order: one
    observed golden pass decides the never-read ones, the rest fork
    from golden where their fault is first read.  Each verdict equals
    {!run_one}'s apart from [sim]. *)

val summaries_by_model :
  model list -> run_result list -> (model * Campaign.summary) list
(** Partition verdicts by site-name prefix and summarise each model's
    share with {!Campaign.summarize} (latencies in instructions). *)

val run :
  ?config:config ->
  ?obs:Obs.t ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  ?prepared:prepared ->
  Sparc.Asm.program ->
  (model * Campaign.summary) list * run_result list
(** {!run_parallel} with one domain. *)

val run_parallel :
  ?config:config ->
  ?obs:Obs.t ->
  ?domains:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  ?prepared:prepared ->
  Sparc.Asm.program ->
  (model * Campaign.summary) list * run_result list
(** Full campaign: golden run, site sampling, then the sampled sites
    of [config.shard] as in {!run_sites}: the observed golden pass runs
    once per call, over the sites the journal does not cover, and the
    forked runs, in units of a fixed number of forks by fork instant,
    go through the same {!Executor} as {!Campaign.run_parallel}, over
    [domains] OCaml domains (default 4).  [journal] / [resume] behave
    exactly as in {!Campaign.run_parallel} — journaled verdicts replay
    byte-identically (counted as [journal.replayed] on [obs]), a stale
    journal raises {!Journal.Rejected}.  [prepared] skips the golden
    run and sampling, reusing a {!prepare} result; it must have been
    built from the same program and config (shard aside) or the call
    raises [Invalid_argument].  Returns per-model summaries plus every
    verdict in model-major site order — the same for any domain
    count. *)
