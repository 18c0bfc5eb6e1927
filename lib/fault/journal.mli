(** Persistent campaign journal (crash-safe verdict store).

    A journal is a JSONL file: a header record fingerprinting the
    campaign — workload name, program hash, hash of the sampled site
    names (which binds netlist, target, seed and sample size at once),
    the config flags that affect verdicts, and the shard spec —
    followed by one verdict record per classified fault site.  The
    file is a {!Durable} file: created whole with its header, verdict
    records appended as classification finishes and fsync'd every 64,
    so a crash, OOM or pre-empted machine loses at most the last
    unsynced batch, never finished work.  A failed write or fsync
    raises.

    {!Campaign.run}/{!Campaign.run_parallel} write and replay journals
    through this module; {!merge} combines the disjoint shard journals
    of one campaign into the verdict list the unsharded run would have
    produced, rejecting journals whose fingerprints disagree. *)

module C = Rtl.Circuit

exception Rejected of string
(** A journal exists but belongs to a different campaign (or is
    corrupt); raised by the campaign engine when [~resume] meets a
    stale journal.  Never merged silently. *)

(** {1 Verdict vocabulary}

    Defined here so verdicts can be serialised without depending on
    {!Campaign}; Campaign re-exports these types under the same
    names. *)

type failure_kind = Wrong_write of int | Missing_writes of int | Trap of int | Hang

type outcome = Silent | Failure of failure_kind

type sim_status =
  | Simulated
  | Prefiltered
  | Converged of int
  | Pruned
  | Collapsed of string

type run_result = {
  site_name : string;
  model : C.fault_model;
  outcome : outcome;
  detect_cycle : int option;
  inject_cycle : int;
  sim : sim_status;
}

val model_of_name : string -> C.fault_model option
(** Inverse of {!Rtl.Circuit.fault_model_name}. *)

(** {1 Fingerprints} *)

type fingerprint = {
  workload : string;  (** program name *)
  prog_hash : int;  (** {!hash_program} of the workload *)
  netlist_hash : int;
      (** {!hash_names} over the sampled site names — binds netlist,
          target, seed, sample size and cell inclusion *)
  target : string;  (** {!Injection.target_name} *)
  models : string list;  (** fault-model names, in campaign order *)
  sample_size : int option;
  include_cells : bool;
  inject_cycle : int;
  hang_factor : int;
  compare_reads : bool;
  seed : int;
  total_sites : int;  (** sampled sites across all shards *)
  shard : int * int;  (** 1-based shard index, shard count *)
}

val hash_program : Sparc.Asm.program -> int
(** FNV-1a over name, layout, code words and data segments. *)

val hash_names : string array -> int
(** FNV-1a over a name sequence (order-sensitive). *)

val base_mismatch : fingerprint -> fingerprint -> string option
(** First differing field, ignoring the shard spec — shards of one
    campaign are base-equal.  [None] = same campaign. *)

val full_mismatch : fingerprint -> fingerprint -> string option
(** Like {!base_mismatch} but also comparing the shard spec — resume
    requires an exact match. *)

(** {1 Writing} *)

type writer

val create : string -> fingerprint -> writer
(** Create or replace the journal whole with its header
    ({!Durable.start}).  The writer is domain-safe. *)

val append : writer -> index:int -> run_result -> unit
(** Append one verdict for the site at [index] in the campaign's
    sampled site list. *)

val close : writer -> unit
(** Flush, fsync and close.  Idempotent. *)

(** {1 Reading} *)

type entry = { index : int; result : run_result }

val load : string -> (fingerprint * entry list, string) result
(** Parse a journal under {!Durable.load}'s torn-tail rule: a torn
    final record (crash mid-append) is dropped; a malformed record
    anywhere else rejects the file. *)

val open_resume : string -> fingerprint -> (writer * entry list, string) result
(** Resume journaling at a path: absent file — fresh {!create}; an
    existing journal whose fingerprint matches exactly is rewritten
    whole without its torn tail (if any), with one fsync, and reopened
    for append, returning the verdicts already on disk; a fingerprint
    mismatch is an [Error] naming the differing field. *)

val merge :
  (fingerprint * entry list) list ->
  (fingerprint * run_result list, string) result
(** Combine shard journals: base fingerprints must agree, shard specs
    must cover [1..N] exactly once, and the union must contain every
    (model, site) verdict exactly once.  Returns the merged fingerprint
    (shard [1/1]) and the verdicts in the unsharded engine's order
    (model-major, then site index). *)
