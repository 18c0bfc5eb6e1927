(** Shared experiment context: one elaborated RTL system, one ISS
    configuration, campaign settings, and a memo of campaign results so
    experiments that need the same (program, block, fault model) — e.g.
    Fig. 5 and Fig. 7, or Fig. 3 and Fig. 7 — pay for it once. *)

module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection
module Iss_campaign = Fault_injection.Iss_campaign

type t

val parse_samples : string -> (int, string) result
(** The one parser of a sample-size setting: [Ok n] for a positive
    integer, otherwise [Error "sample size must be positive (got ...)"],
    the message [-s 0] gets on the command line. *)

val default_samples : unit -> (int, string) result
(** The front end's default sample size: the [RICV_SAMPLES]
    environment variable through {!parse_samples}, or 250 when it is
    unset.  A bad value is an [Error] prefixed with ["RICV_SAMPLES: "],
    never a silent fallback. *)

val parse_gate : string -> bool
(** The one parser of a gate-level setting: ["0"], ["false"], ["no"]
    and ["off"] select the behavioural elaboration, any other value
    the gate-level one. *)

val default_gate : unit -> bool
(** The front end's default elaboration: the [RICV_GATE] environment
    variable through {!parse_gate}, or behavioural when it is unset. *)

val create :
  samples:int ->
  ?seed:int ->
  gate:bool ->
  ?obs:Obs.t ->
  unit ->
  t
(** [samples] is the per-(workload, block) injection sample size; a
    non-positive value raises [Invalid_argument]
    (["Context.create: sample size must be positive (got N)"]).  The
    static layer (cone pruning and fault collapsing) is always on.
    [gate] selects the gate-level elaboration of the IU
    datapath ({!Leon3.Core.params.gate_level}) — verdicts at the
    observation boundary are identical, but the injection-site
    population grows by an order of magnitude, so sampled campaigns
    draw from a different pool.  [obs]
    is the telemetry collector every campaign reports into; the
    default is a fresh in-memory aggregator (pass one built with a
    sink to stream JSONL trace events). *)

val samples : t -> int

val gate : t -> bool

val obs : t -> Obs.t
(** The context's collector: per-phase span totals, injection/outcome
    counters and latency histograms accumulated across campaigns. *)

val system : t -> Leon3.System.t

val core : t -> Leon3.Core.t

val clock_mhz : int
(** Nominal Leon3 clock used to convert cycles to microseconds (50). *)

val us_of_cycles : int -> float

val campaign :
  t ->
  ?models:Rtl.Circuit.fault_model list ->
  Sparc.Asm.program ->
  Injection.target ->
  (Rtl.Circuit.fault_model * Campaign.summary) list
(** Memoised campaign run, one summary per model in [models] order.
    Results are cached per (program, target, model): the program is
    plain data, so two builds of the same workload variant share an
    entry whichever experiment built them.  A call runs one campaign
    over the models not cached yet, and none when all are.  This is
    exact: sites are sampled independently of the model list, and a
    model's verdicts — so its Pf, failure breakdown and latencies — do
    not depend on which models share its campaign (only its trim
    counts, such as [collapsed], may). *)

val iss_campaign :
  t -> Sparc.Asm.program -> (Iss_campaign.model * Campaign.summary) list
(** Memoised ISS-level campaign ({!Iss_campaign.run}) over every ISS
    model, with the context's sample size (per ISS model) and seed;
    cached per program. *)
