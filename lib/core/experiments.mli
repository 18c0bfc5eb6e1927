(** Reproduction of every table and figure of the paper's evaluation
    (DESIGN.md carries the per-experiment index).  Each function
    returns the measured data plus a printable table; absolute numbers
    differ from the paper (different RTL substrate, scaled-down
    workloads) but the shapes are the claims under test:

    - {!table1}: benchmark characterisation (counts and diversity);
    - {!figure3}: input-data variation on fixed-code excerpts is small;
    - {!figure4}: Pf flat across iteration counts, latency grows;
    - {!figure5}/{!figure6}: Pf per fault model at IU/CMEM nodes —
      automotive benchmarks cluster, synthetics sit lower;
    - {!figure7}: Pf correlates with diversity, log fit with high R²;
    - {!sim_time} and {!campaign_cost}: the ISS-vs-RTL simulation-cost
      gap, per instruction and per injection;
    - {!run}'s ["ablation"] id covers DESIGN.md §5: the observation
      point, sample size, ISS-side predictors, transient upsets and
      RTL vs gate-level adder injection. *)

module T = Report.Table
module Campaign = Fault_injection.Campaign

type table1_row = {
  t1_name : string;
  t1_kind : string;
  t1_total : int;
  t1_iu : int;
  t1_memory : int;
  t1_diversity : int;
}

val table1 : ?iterations_factor:int -> unit -> table1_row list * T.t
(** ISS characterisation of the six Table-1 benchmarks, at
    [iterations_factor] (default 20) times the campaign iteration
    count, as the paper characterises full runs. *)

type fig3_point = { f3_subset : string; f3_member : string; f3_pf : float }

val figure3 : Context.t -> fig3_point list * T.t
(** Stuck-at-1 @ IU on the two excerpt subsets x three datasets. *)

type fig4_row = {
  f4_iterations : int;
  f4_pf : float;
  f4_max_latency_cycles : int;
  f4_max_latency_us : float;
}

val figure4 : Context.t -> fig4_row list * T.t
(** rspeed with 2, 4 and 10 iterations, stuck-at-1 @ IU. *)

type fig56_row = { f5_name : string; f5_sa1 : float; f5_sa0 : float; f5_open : float }

val figure5 : Context.t -> fig56_row list * T.t
(** All six main benchmarks, three fault models, IU nodes. *)

val figure6 : Context.t -> fig56_row list * T.t
(** Same at CMEM nodes. *)

type fig7_result = {
  f7_points : (string * int * float) list;  (** workload, diversity, Pf% *)
  f7_fit : Stats.Regression.fit;  (** Pf% = slope*ln(D) + intercept *)
}

val figure7 : Context.t -> fig7_result * T.t
(** Diversity vs Pf (stuck-at-1 @ IU) over the ten workloads plus the
    two excerpt subsets, with the paper's logarithmic fit and R². *)

type correlate_row = {
  co_name : string;
  co_diversity : int;
  co_iss : Stats.Binomial.interval;
      (** ISS-measured Pf, reg/mem/op campaigns pooled *)
  co_rtl : Stats.Binomial.interval;  (** RTL-measured Pf, SA1 @ IU *)
  co_pred : Stats.Binomial.interval;
      (** leave-one-workload-out prediction from the ISS fit *)
  co_fit_break : bool;  (** measured and predicted CIs are disjoint *)
}

type correlate_result = {
  co_rows : correlate_row list;
  co_iss_analysis : Diversity.Correlate.analysis;
      (** RTL Pf against the ISS-measured Pf (linear) *)
  co_div_analysis : Diversity.Correlate.analysis;
      (** RTL Pf against ln(diversity) — the hardened figure-7 fit *)
}

val correlate : Context.t -> correlate_result * T.t list
(** End-to-end test of the paper's correlation claim: per workload, the
    cheap ISS campaign's pooled Pf predicts the RTL campaign's measured
    Pf; both carry Wilson CIs, predictions are leave-one-workload-out,
    and CI-disjoint residuals raise an explicit fit-break flag.  Two
    tables: the ISS↔RTL correlation and the hardened ln(D) fit. *)

type unit_row = {
  u_unit : Sparc.Units.t;
  u_alpha : float;  (** area weight from the netlist *)
  u_capacity : int;  (** instruction types that can exercise the unit *)
  u_rich_diversity : int;  (** D_m of the rich workload (ttsprk) *)
  u_rich_pf : float;  (** measured Pf_m, stuck-at-1, unit signals only *)
  u_narrow_diversity : int;  (** D_m of the narrow workload (membench) *)
  u_narrow_pf : float;
}

val units : Context.t -> unit_row list * T.t
(** Per-functional-unit decomposition of Pf, contrasting a rich and a
    narrow workload — the measured counterpart of every term in
    Eq. (1). *)

type sim_time_result = {
  st_iss_ips : float;  (** simulated instructions per wall second, ISS *)
  st_rtl_ips : float;
  st_speedup : float;
  st_paper_rtl_hours : float;
  st_extrapolated_iss_hours : float;
}

val sim_time : ?min_seconds:float -> unit -> sim_time_result * T.t
(** Measure both engines on the same workload and extrapolate the
    paper's 25,478-hour RTL campaign to ISS cost.  Each engine runs the
    ttsprk program repeatedly for at least [min_seconds] (default 1 s)
    and reports the median of its per-run rates. *)

type cost_row = {
  c_name : string;
  c_iss_injections : int;
  c_iss_seconds : float;  (** wall clock of the whole ISS campaign *)
  c_rtl_injections : int;
  c_rtl_seconds : float;  (** wall clock of the whole RTL campaign *)
}

val campaign_cost : Context.t -> cost_row list * T.t
(** The paper's ~85x cost argument, measured: every figure-5 workload
    runs an ISS campaign (all three ISS models) and an RTL campaign
    (the three permanent models at IU nodes) at the context's sample
    size per model, the RTL one on the context's system.  Campaigns
    are timed whole and never memoised.  The table adds a total row
    and the per-injection RTL/ISS ratio. *)

val all_ids : string list
(** Experiment selectors understood by {!run}: ["table1"; "figure3";
    ...; "simtime"; "ablation"]. *)

val run : Context.t -> string -> T.t list
(** Run one experiment by id and return its tables ([simtime] returns
    {!sim_time}'s and then {!campaign_cost}'s).  Raises
    [Invalid_argument] on an unknown id. *)
