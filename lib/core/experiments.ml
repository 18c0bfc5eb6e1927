module T = Report.Table
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection
module Iss_campaign = Fault_injection.Iss_campaign
module Suite = Workloads.Suite
module C = Rtl.Circuit

let prog_of (e : Suite.entry) ~iterations ~dataset =
  e.Suite.build ~iterations ~dataset

let pf_of model summaries = Campaign.pf_percent (List.assoc model summaries)

(* ---- Table 1 ---- *)

type table1_row = {
  t1_name : string;
  t1_kind : string;
  t1_total : int;
  t1_iu : int;
  t1_memory : int;
  t1_diversity : int;
}

let table1 ?(iterations_factor = 20) () =
  let rows =
    List.map
      (fun e ->
        let iterations = e.Suite.default_iterations * iterations_factor in
        let prog = prog_of e ~iterations ~dataset:0 in
        let info = Diversity.Metric.of_program prog in
        { t1_name = e.Suite.name;
          t1_kind = Suite.kind_name e.Suite.kind;
          t1_total = info.Diversity.Metric.instructions;
          t1_iu = info.Diversity.Metric.iu_instructions;
          t1_memory = info.Diversity.Metric.memory_instructions;
          t1_diversity = info.Diversity.Metric.diversity })
      Suite.table1_set
  in
  let table =
    T.make ~title:"Table 1: benchmarks characterization"
      ~header:[ "benchmark"; "kind"; "total"; "integer unit"; "memory"; "diversity" ]
      ~notes:
        [ "dynamic instruction counts from the ISS functional emulator";
          Printf.sprintf "characterisation runs use %dx the campaign iterations"
            iterations_factor ]
      (List.map
         (fun r ->
           [ r.t1_name; r.t1_kind; string_of_int r.t1_total; string_of_int r.t1_iu;
             string_of_int r.t1_memory; string_of_int r.t1_diversity ])
         rows)
  in
  (rows, table)

(* ---- Figure 3 ---- *)

type fig3_point = { f3_subset : string; f3_member : string; f3_pf : float }

let figure3 ctx =
  let run_subset subset_name build members =
    List.map
      (fun member ->
        let summaries =
          Context.campaign ctx ~models:[ C.Stuck_at_1 ] (build member) Injection.Iu
        in
        { f3_subset = subset_name; f3_member = member; f3_pf = pf_of C.Stuck_at_1 summaries })
      members
  in
  let points =
    run_subset "A(8 types)" Workloads.Excerpts.subset_a Workloads.Excerpts.subset_a_members
    @ run_subset "B(11 types)" Workloads.Excerpts.subset_b
        Workloads.Excerpts.subset_b_members
  in
  let table =
    T.make ~title:"Figure 3: input-data variation on benchmark excerpts (SA1 @ IU)"
      ~header:[ "subset"; "excerpt"; "% propagated faults" ]
      ~notes:
        [ "identical code within a subset; only the input dataset differs";
          "paper: spread within a subset stays within a few percentage points" ]
      (List.map (fun p -> [ p.f3_subset; p.f3_member; T.cell_pct p.f3_pf ]) points)
  in
  (points, table)

(* ---- Figure 4 ---- *)

type fig4_row = {
  f4_iterations : int;
  f4_pf : float;
  f4_max_latency_cycles : int;
  f4_max_latency_us : float;
}

let figure4 ctx =
  let e = Suite.find "rspeed" in
  let rows =
    List.map
      (fun iterations ->
        let prog = prog_of e ~iterations ~dataset:0 in
        let summaries = Context.campaign ctx ~models:[ C.Stuck_at_1 ] prog Injection.Iu in
        let s = List.assoc C.Stuck_at_1 summaries in
        { f4_iterations = iterations;
          f4_pf = Campaign.pf_percent s;
          f4_max_latency_cycles = s.Campaign.max_latency;
          f4_max_latency_us = Context.us_of_cycles s.Campaign.max_latency })
      [ 2; 4; 10 ]
  in
  let table =
    T.make ~title:"Figure 4: rspeed with 2/4/10 iterations (SA1 @ IU)"
      ~header:[ "run"; "% propagated faults"; "max latency (cycles)"; "max latency (us)" ]
      ~notes:
        [ "paper: Pf constant across iterations; max detection latency grows";
          Printf.sprintf "microseconds at the nominal %d MHz Leon3 clock" Context.clock_mhz ]
      (List.map
         (fun r ->
           [ Printf.sprintf "rspeed%d" r.f4_iterations; T.cell_pct r.f4_pf;
             string_of_int r.f4_max_latency_cycles; T.cell_float r.f4_max_latency_us ])
         rows)
  in
  (rows, table)

(* ---- Figures 5 and 6 ---- *)

type fig56_row = { f5_name : string; f5_sa1 : float; f5_sa0 : float; f5_open : float }

let figure56 ctx target =
  List.map
    (fun e ->
      let iterations = e.Suite.default_iterations in
      let prog = prog_of e ~iterations ~dataset:0 in
      let summaries = Context.campaign ctx prog target in
      { f5_name = e.Suite.name;
        f5_sa1 = pf_of C.Stuck_at_1 summaries;
        f5_sa0 = pf_of C.Stuck_at_0 summaries;
        f5_open = pf_of C.Open_line summaries })
    Suite.table1_set

let fig56_table ~title rows =
  T.make ~title ~header:[ "benchmark"; "stuck-at-1"; "stuck-at-0"; "open line" ]
    ~notes:
      [ "automotive benchmarks cluster; synthetics (membench/intbench) sit lower" ]
    (List.map
       (fun r ->
         [ r.f5_name; T.cell_pct r.f5_sa1; T.cell_pct r.f5_sa0; T.cell_pct r.f5_open ])
       rows)

let figure5 ctx =
  let rows = figure56 ctx Injection.Iu in
  (rows, fig56_table ~title:"Figure 5: fault injection at IU nodes" rows)

let figure6 ctx =
  let rows = figure56 ctx Injection.Cmem in
  (rows, fig56_table ~title:"Figure 6: fault injection at CMEM nodes" rows)

(* ---- Figure 7 ---- *)

type fig7_result = {
  f7_points : (string * int * float) list;
  f7_fit : Stats.Regression.fit;
}

let figure7 ctx =
  let workload_points =
    List.map
      (fun e ->
        let iterations = e.Suite.default_iterations in
        let prog = prog_of e ~iterations ~dataset:0 in
        let info = Diversity.Metric.of_program prog in
        let summaries = Context.campaign ctx ~models:[ C.Stuck_at_1 ] prog Injection.Iu in
        (e.Suite.name, info.Diversity.Metric.diversity, pf_of C.Stuck_at_1 summaries))
      Suite.all
  in
  (* Excerpt subsets contribute one point each, folding in the Pf of
     all three datasets as the paper does. *)
  let excerpt_point name build members =
    let pfs =
      List.map
        (fun member ->
          pf_of C.Stuck_at_1
            (Context.campaign ctx ~models:[ C.Stuck_at_1 ] (build member) Injection.Iu))
        members
    in
    let diversity =
      (Diversity.Metric.of_program (build (List.hd members))).Diversity.Metric.diversity
    in
    let mean = List.fold_left ( +. ) 0. pfs /. float_of_int (List.length pfs) in
    (name, diversity, mean)
  in
  let points =
    workload_points
    @ [ excerpt_point "excerpt-A" Workloads.Excerpts.subset_a
          Workloads.Excerpts.subset_a_members;
        excerpt_point "excerpt-B" Workloads.Excerpts.subset_b
          Workloads.Excerpts.subset_b_members ]
  in
  let fit =
    Stats.Regression.log_fit
      (List.map (fun (_, d, pf) -> (float_of_int d, pf)) points)
  in
  let table =
    T.make ~title:"Figure 7: propagated faults vs instruction diversity (SA1 @ IU)"
      ~header:[ "workload"; "diversity"; "% propagated faults" ]
      ~notes:
        [ Printf.sprintf "log fit: Pf%% = %.3f * ln(D) %+.3f, R^2 = %.4f"
            fit.Stats.Regression.slope fit.Stats.Regression.intercept
            fit.Stats.Regression.r_squared;
          "paper: Pf = 8.38*ln(x) - 1.91 (in %), R^2 = 0.9246" ]
      (List.map
         (fun (name, d, pf) -> [ name; string_of_int d; T.cell_pct pf ])
         points)
  in
  ({ f7_points = points; f7_fit = fit }, table)

(* ---- Correlate: ISS-predicted vs RTL-measured Pf (extended Fig. 7) ---- *)

type correlate_row = {
  co_name : string;
  co_diversity : int;
  co_iss : Stats.Binomial.interval;  (** ISS-measured Pf, all models pooled *)
  co_rtl : Stats.Binomial.interval;  (** RTL-measured Pf, SA1 @ IU *)
  co_pred : Stats.Binomial.interval;  (** LOWO prediction from the ISS fit *)
  co_fit_break : bool;
}

type correlate_result = {
  co_rows : correlate_row list;
  co_iss_analysis : Diversity.Correlate.analysis;
      (** RTL Pf against the ISS-measured Pf (linear) *)
  co_div_analysis : Diversity.Correlate.analysis;
      (** RTL Pf against ln(diversity) — the hardened figure-7 fit *)
}

let correlate ctx =
  let points =
    List.map
      (fun e ->
        let iterations = e.Suite.default_iterations in
        let prog = prog_of e ~iterations ~dataset:0 in
        let info = Diversity.Metric.of_program prog in
        let rtl =
          List.assoc C.Stuck_at_1
            (Context.campaign ctx ~models:[ C.Stuck_at_1 ] prog Injection.Iu)
        in
        let iss = Context.iss_campaign ctx prog in
        let iss_k =
          List.fold_left (fun a (_, s) -> a + s.Campaign.failures) 0 iss
        in
        let iss_n =
          List.fold_left (fun a (_, s) -> a + s.Campaign.injections) 0 iss
        in
        (e.Suite.name, info.Diversity.Metric.diversity, iss_k, iss_n, rtl))
      Suite.all
  in
  let rtl_sample ~x (name, _, _, _, (rtl : Campaign.summary)) =
    { Diversity.Correlate.label = name;
      x;
      k = rtl.Campaign.failures;
      n = rtl.Campaign.injections }
  in
  let iss_analysis =
    Diversity.Correlate.analyze
      (List.map
         (fun ((_, _, iss_k, iss_n, _) as p) ->
           rtl_sample ~x:(float_of_int iss_k /. float_of_int iss_n) p)
         points)
  in
  let div_analysis =
    Diversity.Correlate.analyze ~log:true
      (List.map
         (fun ((_, d, _, _, _) as p) -> rtl_sample ~x:(float_of_int d) p)
         points)
  in
  let iss_ci (_, _, iss_k, iss_n, _) = Stats.Binomial.wilson ~k:iss_k ~n:iss_n () in
  let rows =
    List.map2
      (fun ((name, d, _, _, _) as p) (row : Diversity.Correlate.row) ->
        { co_name = name;
          co_diversity = d;
          co_iss = iss_ci p;
          co_rtl = row.Diversity.Correlate.measured;
          co_pred = row.Diversity.Correlate.predicted;
          co_fit_break = row.Diversity.Correlate.fit_break })
      points iss_analysis.Diversity.Correlate.rows
  in
  let pct (i : Stats.Binomial.interval) =
    T.cell_ci ~lower:(100. *. i.Stats.Binomial.lower)
      ~upper:(100. *. i.Stats.Binomial.upper)
      (100. *. i.Stats.Binomial.p_hat)
  in
  let broken_note (a : Diversity.Correlate.analysis) =
    match a.Diversity.Correlate.broken with
    | [] -> "fit-break: none (every measured CI overlaps its LOWO prediction CI)"
    | names -> "fit-break: " ^ String.concat ", " names
  in
  let fit_note what (a : Diversity.Correlate.analysis) =
    Printf.sprintf
      "%s: slope %.3f, intercept %.3f, in-sample R^2 %.4f; LOWO R^2 %.4f, \
       held-out RMSE %.4f"
      what a.Diversity.Correlate.fit.Stats.Regression.slope
      a.Diversity.Correlate.fit.Stats.Regression.intercept
      a.Diversity.Correlate.fit.Stats.Regression.r_squared
      a.Diversity.Correlate.loo_r_squared a.Diversity.Correlate.rmse
  in
  let iss_table =
    T.make
      ~title:
        "Correlate: ISS-predicted vs RTL-measured Pf per workload (SA1 @ IU, \
         95% Wilson CIs)"
      ~header:
        [ "workload"; "D"; "ISS Pf (reg+mem+op)"; "RTL Pf (measured)";
          "LOWO prediction"; "fit-break" ]
      ~notes:
        [ fit_note "RTL Pf ~ ISS Pf (linear)" iss_analysis;
          broken_note iss_analysis;
          "ISS Pf pools the reg-flip/mem-flip/op-flip campaigns; predictions \
           are leave-one-workload-out, Wilson-banded at the RTL sample size" ]
      (List.map
         (fun r ->
           [ r.co_name; string_of_int r.co_diversity; pct r.co_iss; pct r.co_rtl;
             pct r.co_pred; (if r.co_fit_break then "BREAK" else "ok") ])
         rows)
  in
  let div_table =
    T.make
      ~title:"Correlate: hardened figure-7 ln(D) fit (LOWO cross-validation)"
      ~header:
        [ "workload"; "D"; "RTL Pf (measured)"; "LOWO ln-fit prediction";
          "fit-break" ]
      ~notes:
        [ fit_note "RTL Pf ~ ln(D)" div_analysis;
          broken_note div_analysis;
          "paper: Pf = 8.38*ln(x) - 1.91 (in %), in-sample R^2 = 0.9246" ]
      (List.map2
         (fun (name, d, _, _, _) (row : Diversity.Correlate.row) ->
           [ name; string_of_int d;
             pct row.Diversity.Correlate.measured;
             pct row.Diversity.Correlate.predicted;
             (if row.Diversity.Correlate.fit_break then "BREAK" else "ok") ])
         points div_analysis.Diversity.Correlate.rows)
  in
  ({ co_rows = rows; co_iss_analysis = iss_analysis; co_div_analysis = div_analysis },
   [ iss_table; div_table ])

(* ---- Simulation time ---- *)

type sim_time_result = {
  st_iss_ips : float;
  st_rtl_ips : float;
  st_speedup : float;
  st_paper_rtl_hours : float;
  st_extrapolated_iss_hours : float;
}

(* Each engine runs the program over and over for at least
   [min_seconds], and its rate is the median of the per-run rates: one
   short run per engine is at the mercy of whatever else the machine
   does during it. *)
let sim_time ?(min_seconds = 1.0) () =
  let e = Suite.find "ttsprk" in
  let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
  let rate f =
    let t_end = Unix.gettimeofday () +. min_seconds in
    let rec go acc =
      let t0 = Unix.gettimeofday () in
      let units = f () in
      let t1 = Unix.gettimeofday () in
      let acc = (float_of_int units /. (t1 -. t0)) :: acc in
      if t1 < t_end then go acc else acc
    in
    let rates = Array.of_list (go []) in
    (Stats.Summary.percentile rates 50., Array.length rates)
  in
  let iss_ips, iss_runs =
    rate (fun () ->
        let r = Iss.Emulator.execute prog in
        r.Iss.Emulator.instructions)
  in
  let sys = Leon3.System.create () in
  let rtl_ips, rtl_runs =
    rate (fun () ->
        Leon3.System.load sys prog;
        (match Leon3.System.run sys ~max_cycles:5_000_000 with
        | Leon3.System.Exited _ -> ()
        | Leon3.System.Trapped _ | Leon3.System.Cycle_limit | Leon3.System.Aborted ->
            failwith "sim_time: RTL run did not exit");
        Leon3.System.instructions sys)
  in
  let speedup = iss_ips /. rtl_ips in
  let paper_hours = 25_478. in
  let result =
    { st_iss_ips = iss_ips;
      st_rtl_ips = rtl_ips;
      st_speedup = speedup;
      st_paper_rtl_hours = paper_hours;
      st_extrapolated_iss_hours = paper_hours /. speedup }
  in
  let table =
    T.make ~title:"Simulation time: ISS vs RTL"
      ~header:[ "engine"; "simulated instr/s"; "relative" ]
      ~notes:
        [ Printf.sprintf
            "paper: 25,478 h of RTL campaigns vs <300 h on an ISS (~85x); \
             extrapolating our ratio, the same RTL campaign costs %.0f ISS-hours"
            result.st_extrapolated_iss_hours;
          Printf.sprintf
            "rates: median of %d ISS and %d RTL runs of ttsprk, each engine repeated \
             for at least %.1f s"
            iss_runs rtl_runs min_seconds ]
      [ [ "ISS (functional)"; Printf.sprintf "%.0f" iss_ips; T.cell_float speedup ];
        [ "RTL (netlist)"; Printf.sprintf "%.0f" rtl_ips; "1.00" ] ]
  in
  (result, table)

(* ---- Campaign cost: the paper's 85x, per injection ---- *)

type cost_row = {
  c_name : string;
  c_iss_injections : int;
  c_iss_seconds : float;
  c_rtl_injections : int;
  c_rtl_seconds : float;
}

let campaign_cost ctx =
  let obs = Context.obs ctx in
  let samples = Context.samples ctx in
  (* Timed and never memoised: a campaign the context already ran
     would cost nothing here. *)
  let timed run =
    let t0 = Unix.gettimeofday () in
    let summaries, _ = run () in
    ( List.fold_left (fun a (_, s) -> a + s.Campaign.injections) 0 summaries,
      Unix.gettimeofday () -. t0 )
  in
  let rows =
    List.map
      (fun e ->
        let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
        let iss_config =
          { Iss_campaign.default_config with Iss_campaign.samples_per_model = samples }
        in
        let iss_n, iss_s = timed (fun () -> Iss_campaign.run ~config:iss_config ~obs prog) in
        let rtl_config = { Campaign.default_config with Campaign.sample_size = Some samples } in
        let rtl_n, rtl_s =
          timed (fun () ->
              Campaign.run ~config:rtl_config ~obs (Context.system ctx) prog Injection.Iu)
        in
        { c_name = e.Suite.name;
          c_iss_injections = iss_n;
          c_iss_seconds = iss_s;
          c_rtl_injections = rtl_n;
          c_rtl_seconds = rtl_s })
      Suite.table1_set
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0. rows in
  let total =
    { c_name = "total";
      c_iss_injections = sum (fun r -> r.c_iss_injections);
      c_iss_seconds = sumf (fun r -> r.c_iss_seconds);
      c_rtl_injections = sum (fun r -> r.c_rtl_injections);
      c_rtl_seconds = sumf (fun r -> r.c_rtl_seconds) }
  in
  let ms_per seconds n = 1000. *. seconds /. float_of_int n in
  let line r =
    let iss = ms_per r.c_iss_seconds r.c_iss_injections in
    let rtl = ms_per r.c_rtl_seconds r.c_rtl_injections in
    [ r.c_name; string_of_int r.c_iss_injections; T.cell_float iss;
      string_of_int r.c_rtl_injections; T.cell_float rtl; Printf.sprintf "%.1fx" (rtl /. iss) ]
  in
  let table =
    T.make ~title:"Campaign cost: ISS vs RTL wall clock per injection (figure-5 suite)"
      ~header:[ "benchmark"; "ISS inj"; "ISS ms/inj"; "RTL inj"; "RTL ms/inj"; "RTL/ISS" ]
      ~notes:
        [ Printf.sprintf
            "%d sites per model: reg/mem/op bit flips on the ISS, stuck-at-0/1 and \
             open line at IU nodes on the RTL"
            samples;
          "each campaign is timed whole: golden run, site sampling and static \
           analysis included";
          "paper: 25,478 h of RTL campaigns vs <300 h on an ISS (~85x); the RTL side \
           keeps every acceleration layer on, so its ratio is a floor on the paper's" ]
      (List.map line (rows @ [ total ]))
  in
  (rows, table)

(* ---- Ablations (DESIGN.md section 5) ---- *)

let ablation_observation ctx =
  let e = Suite.find "ttsprk" in
  let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
  let run ~compare_reads =
    let config =
      { Campaign.default_config with
        Campaign.models = [ C.Stuck_at_1 ];
        sample_size = Some (Context.samples ctx);
        compare_reads }
    in
    let summaries, _ =
      Campaign.run ~config ~obs:(Context.obs ctx) (Context.system ctx) prog Injection.Iu
    in
    Campaign.pf_percent (List.assoc C.Stuck_at_1 summaries)
  in
  let writes_only = run ~compare_reads:false in
  let with_reads = run ~compare_reads:true in
  T.make ~title:"Ablation: failure-observation point (ttsprk, SA1 @ IU)"
    ~header:[ "observation"; "% propagated faults" ]
    ~notes:
      [ "the paper observes writes only (light-lockstep); comparing reads too \
         makes address-only corruptions count as failures" ]
    [ [ "off-core writes (paper)"; T.cell_pct writes_only ];
      [ "writes + reads"; T.cell_pct with_reads ] ]

let ablation_sampling ctx =
  let e = Suite.find "ttsprk" in
  let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
  let pf_at n seed =
    let config =
      { Campaign.default_config with
        Campaign.models = [ C.Stuck_at_1 ];
        sample_size = Some n;
        seed }
    in
    let summaries, _ =
      Campaign.run ~config ~obs:(Context.obs ctx) (Context.system ctx) prog Injection.Iu
    in
    Campaign.pf_percent (List.assoc C.Stuck_at_1 summaries)
  in
  let sizes = [ 50; 100; 200; 400 ] in
  let rows =
    List.map
      (fun n ->
        let pfs = List.map (pf_at n) [ 11; 23; 37 ] in
        let s = Stats.Summary.of_list pfs in
        [ string_of_int n; T.cell_pct s.Stats.Summary.mean;
          T.cell_float s.Stats.Summary.stddev ])
      sizes
  in
  T.make ~title:"Ablation: injection-site sampling (ttsprk, SA1 @ IU)"
    ~header:[ "sites sampled"; "mean Pf over 3 seeds"; "std dev (pp)" ]
    ~notes:[ "stratified-uniform sampling converges well before exhaustion" ]
    rows

let ablation_predictor ctx =
  let f7, _ = figure7 ctx in
  let predictor = Diversity.Predictor.of_core (Context.core ctx) in
  (* Excerpt subsets are left out: the predictor needs per-unit usage
     from a suite entry, and the suite points already span the range. *)
  let infos =
    List.filter_map
      (fun (name, _, pf) ->
        match List.find_opt (fun e -> e.Suite.name = name) Suite.all with
        | Some e ->
            let info =
              Diversity.Metric.of_program
                (prog_of e ~iterations:e.Suite.default_iterations ~dataset:0)
            in
            Some (info, pf)
        | None -> None)
      f7.f7_points
  in
  let score_points =
    List.map
      (fun (info, pf) -> (Diversity.Predictor.utilisation_score predictor info, pf))
      infos
  in
  let eq1_fit = Stats.Regression.linear score_points in
  (* AVF (Mukherjee et al.) needs the full def-use stream; include it
     as the related-work baseline predictor. *)
  let avf_points =
    List.filter_map
      (fun (name, _, pf) ->
        match List.find_opt (fun e -> e.Suite.name = name) Suite.all with
        | Some e ->
            let r =
              Diversity.Avf.of_program
                (prog_of e ~iterations:e.Suite.default_iterations ~dataset:0)
            in
            Some (r.Diversity.Avf.avf, pf)
        | None -> None)
      f7.f7_points
  in
  let avf_fit = Stats.Regression.linear avf_points in
  T.make ~title:"Ablation: ISS-side predictors of RTL Pf"
    ~header:[ "predictor"; "R^2" ]
    ~notes:
      [ "Eq.(1): Pf ~ sum_m alpha_m * (D_m / capacity_m), alpha from RTL node counts";
        "AVF needs the full def-use stream; diversity needs only the opcode set" ]
    [ [ "ln(diversity) (Fig. 7)";
        T.cell_float f7.f7_fit.Stats.Regression.r_squared ];
      [ "Eq.(1) utilisation score"; T.cell_float eq1_fit.Stats.Regression.r_squared ];
      [ "register-file AVF (related work)";
        T.cell_float avf_fit.Stats.Regression.r_squared ] ]

(* Per-unit failure probabilities: the decomposition behind Eq. (1).
   For one workload, inject into each functional unit's own nodes and
   put the measured Pf_m next to the unit's area weight alpha_m and
   per-unit diversity D_m. *)
type unit_row = {
  u_unit : Sparc.Units.t;
  u_alpha : float;
  u_capacity : int;
  u_rich_diversity : int;  (** D_m of the rich workload (ttsprk) *)
  u_rich_pf : float;
  u_narrow_diversity : int;  (** D_m of the narrow workload (membench) *)
  u_narrow_pf : float;
}

let units ctx =
  let measure name =
    let e = Suite.find name in
    let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
    let info = Diversity.Metric.of_program prog in
    let sample = min 100 (Context.samples ctx) in
    let pf u =
      let config =
        { Campaign.default_config with
          Campaign.models = [ C.Stuck_at_1 ];
          sample_size = Some sample }
      in
      let summaries, _ =
        Campaign.run ~config ~obs:(Context.obs ctx) (Context.system ctx) prog
          (Injection.Unit_of u)
      in
      Campaign.pf_percent (List.assoc C.Stuck_at_1 summaries)
    in
    (info, pf)
  in
  let rich_info, rich_pf = measure "ttsprk" in
  let narrow_info, narrow_pf = measure "membench" in
  let predictor = Diversity.Predictor.of_core (Context.core ctx) in
  let alphas = Diversity.Predictor.alpha predictor in
  let d_of (info : Diversity.Metric.info) u =
    Option.value ~default:0 (List.assoc_opt u info.Diversity.Metric.per_unit)
  in
  let rows =
    List.filter_map
      (fun u ->
        if Injection.sites (Context.core ctx) (Injection.Unit_of u) = [] then None
        else
          Some
            { u_unit = u;
              u_alpha = List.assoc u alphas;
              u_capacity = Diversity.Metric.unit_capacity u;
              u_rich_diversity = d_of rich_info u;
              u_rich_pf = rich_pf u;
              u_narrow_diversity = d_of narrow_info u;
              u_narrow_pf = narrow_pf u })
      Sparc.Units.all
  in
  let table =
    T.make
      ~title:"Per-unit decomposition (SA1): the pieces of Eq. (1), rich vs narrow workload"
      ~header:
        [ "unit"; "alpha"; "cap"; "ttsprk D_m"; "ttsprk Pf_m"; "membench D_m";
          "membench Pf_m" ]
      ~notes:
        [ "alpha_m from injectable-bit counts of the elaborated netlist";
          "unit node pools exclude memory cells here (signals only)";
          "units a workload never exercises collapse towards silent (membench \
           column: shifter/mul/div/branch-rich rows)" ]
      (List.map
         (fun r ->
           [ Sparc.Units.name r.u_unit;
             Printf.sprintf "%.3f" r.u_alpha;
             string_of_int r.u_capacity;
             string_of_int r.u_rich_diversity;
             T.cell_pct r.u_rich_pf;
             string_of_int r.u_narrow_diversity;
             T.cell_pct r.u_narrow_pf ])
         rows)
  in
  (rows, table)

let ablation_transient ctx =
  let e = Suite.find "ttsprk" in
  let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
  let permanent =
    pf_of C.Stuck_at_1 (Context.campaign ctx ~models:[ C.Stuck_at_1 ] prog Injection.Iu)
  in
  let transient =
    Campaign.pf_percent
      (Campaign.run_transient ~sample:(Context.samples ctx) ~obs:(Context.obs ctx)
         (Context.system ctx) prog Injection.Iu)
  in
  T.make ~title:"Extension: transient faults (ttsprk @ IU) — the paper's future work"
    ~header:[ "fault class"; "% propagated faults" ]
    ~notes:
      [ "single-event upsets: one-cycle bit inversions at random instants";
        "transients propagate far less often, which is why the paper argues \
         permanent models are the tractable choice for SBT-style campaigns" ]
    [ [ "permanent stuck-at-1"; T.cell_pct permanent ];
      [ "transient bit-flip (1 cycle)"; T.cell_pct transient ] ]

let ablation_gate_level ctx =
  (* The paper's opening contrast: gate-level injection is the more
     detailed and more expensive granularity RTL is traded against.
     Re-elaborate the machine as the gate-level netlist and compare
     adder-targeted campaigns at both granularities. *)
  let e = Suite.find "ttsprk" in
  let prog = prog_of e ~iterations:e.Suite.default_iterations ~dataset:0 in
  let sample = min 150 (Context.samples ctx) in
  let measure sys target_prefix =
    let config =
      { Campaign.default_config with
        Campaign.models = [ C.Stuck_at_1 ];
        sample_size = Some sample }
    in
    let summaries, _ =
      Campaign.run ~config ~obs:(Context.obs ctx) sys prog (Injection.Prefix target_prefix)
    in
    (* The simulation-cost axis: fault-free wall time per run (faulty
       runs abort early on mismatch, which would hide the gate tax). *)
    let t0 = Unix.gettimeofday () in
    let runs = 5 in
    for _ = 1 to runs do
      ignore (Campaign.golden_run sys prog ~max_cycles:5_000_000)
    done;
    let per_run = (Unix.gettimeofday () -. t0) /. float_of_int runs in
    let core = Leon3.System.core sys in
    let pool = List.length (Injection.sites core (Injection.Prefix target_prefix)) in
    (Campaign.pf_percent (List.assoc C.Stuck_at_1 summaries), pool, per_run)
  in
  let rtl_pf, rtl_pool, rtl_dt = measure (Context.system ctx) "iu.ex.adder." in
  let gate_sys =
    Leon3.System.create
      ~params:{ Leon3.Core.default_params with Leon3.Core.gate_level = true }
      ()
  in
  let gate_pf, gate_pool, gate_dt = measure gate_sys "iu.ex.adder." in
  T.make ~title:"Extension: RTL vs gate-level adder injection (ttsprk, SA1)"
    ~header:[ "granularity"; "adder sites"; "Pf"; "sim time / run" ]
    ~notes:
      [ "the gate netlist multiplies the injection surface and the per-cycle \
         simulation cost, for a Pf in the same band — the accuracy/cost \
         trade-off of the paper's section 2" ]
    [ [ "RTL (behavioural nodes)"; string_of_int rtl_pool; T.cell_pct rtl_pf;
        Printf.sprintf "%.0f ms" (1000. *. rtl_dt) ];
      [ "gate-level (IU netlist)"; string_of_int gate_pool; T.cell_pct gate_pf;
        Printf.sprintf "%.0f ms" (1000. *. gate_dt) ] ]

let experiments =
  [ ("table1", fun _ -> [ snd (table1 ()) ]);
    ("figure3", fun ctx -> [ snd (figure3 ctx) ]);
    ("figure4", fun ctx -> [ snd (figure4 ctx) ]);
    ("figure5", fun ctx -> [ snd (figure5 ctx) ]);
    ("figure6", fun ctx -> [ snd (figure6 ctx) ]);
    ("figure7", fun ctx -> [ snd (figure7 ctx) ]);
    ("correlate", fun ctx -> snd (correlate ctx));
    ("units", fun ctx -> [ snd (units ctx) ]);
    ( "simtime",
      fun ctx ->
        let _, rates = sim_time () in
        [ rates; snd (campaign_cost ctx) ] );
    ( "ablation",
      fun ctx ->
        [ ablation_observation ctx; ablation_sampling ctx; ablation_predictor ctx;
          ablation_transient ctx; ablation_gate_level ctx ] ) ]

let all_ids = List.map fst experiments

let run ctx id =
  match List.assoc_opt id experiments with
  | Some tables -> tables ctx
  | None -> invalid_arg ("Experiments.run: unknown experiment " ^ id)
