(* End-to-end tests of the experiment layer, run with small injection
   samples so the whole suite stays minutes-scale.  These assert the
   paper's *shapes*, which is exactly what the reproduction claims. *)

module X = Correlation.Experiments
module Ctx = Correlation.Context

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One small-sample context shared by all experiment tests; campaign
   results are memoised inside. *)
let ctx = lazy (Ctx.create ~samples:60 ~gate:false ())

let test_table1_shape () =
  let rows, table = X.table1 ~iterations_factor:5 () in
  check_int "six benchmarks" 6 (List.length rows);
  List.iter
    (fun r ->
      check_bool "iu ~ total" true (r.X.t1_iu = r.X.t1_total);
      check_bool "memory < total" true (r.X.t1_memory < r.X.t1_total);
      if r.X.t1_kind = "automotive" then
        check_bool (r.X.t1_name ^ " diversity high") true (r.X.t1_diversity >= 45)
      else check_bool (r.X.t1_name ^ " diversity low") true (r.X.t1_diversity <= 25))
    rows;
  check_bool "renders" true (String.length (Report.Table.to_string table) > 0)

let test_figure3_shape () =
  let points, _ = X.figure3 (Lazy.force ctx) in
  check_int "six excerpts" 6 (List.length points);
  List.iter
    (fun p -> check_bool "pf sane" true (p.X.f3_pf >= 0. && p.X.f3_pf <= 100.))
    points;
  (* within-subset spread stays within a few percentage points *)
  let spread subset =
    let pfs =
      List.filter_map
        (fun p -> if p.X.f3_subset = subset then Some p.X.f3_pf else None)
        points
    in
    List.fold_left max neg_infinity pfs -. List.fold_left min infinity pfs
  in
  check_bool "subset A tight" true (spread "A(8 types)" <= 8.);
  check_bool "subset B tight" true (spread "B(11 types)" <= 8.)

let test_figure4_shape () =
  let rows, _ = X.figure4 (Lazy.force ctx) in
  check_int "three runs" 3 (List.length rows);
  (match rows with
  | [ r2; r4; r10 ] ->
      (* Pf roughly flat across iterations (the paper's claim) *)
      let pfs = [ r2.X.f4_pf; r4.X.f4_pf; r10.X.f4_pf ] in
      let mx = List.fold_left max neg_infinity pfs
      and mn = List.fold_left min infinity pfs in
      check_bool "pf flat across iterations" true (mx -. mn <= 10.);
      (* max latency grows with iterations *)
      check_bool "latency grows 2->10" true
        (r10.X.f4_max_latency_cycles > r2.X.f4_max_latency_cycles)
  | _ -> Alcotest.fail "expected exactly 2/4/10")

let test_figure5_shape () =
  let rows, _ = X.figure5 (Lazy.force ctx) in
  check_int "six benchmarks" 6 (List.length rows);
  let auto = List.filter (fun r -> r.X.f5_name <> "membench" && r.X.f5_name <> "intbench") rows in
  let synth = List.filter (fun r -> r.X.f5_name = "membench" || r.X.f5_name = "intbench") rows in
  let mean sel xs = List.fold_left (fun a x -> a +. sel x) 0. xs /. float (List.length xs) in
  (* automotive cluster above the synthetics (stuck-at-1) *)
  check_bool "automotive > synthetic (SA1)" true
    (mean (fun r -> r.X.f5_sa1) auto > mean (fun r -> r.X.f5_sa1) synth);
  (* stuck-at-1 dominates stuck-at-0 on average at the IU *)
  check_bool "SA1 >= SA0 on average" true
    (mean (fun r -> r.X.f5_sa1) rows >= mean (fun r -> r.X.f5_sa0) rows)

let test_figure6_shape () =
  let rows, _ = X.figure6 (Lazy.force ctx) in
  check_int "six benchmarks" 6 (List.length rows);
  let synth = List.filter (fun r -> r.X.f5_name = "membench" || r.X.f5_name = "intbench") rows in
  List.iter
    (fun r -> check_bool "synthetic CMEM pf low" true (r.X.f5_sa0 <= 25.))
    synth

let test_figure7_shape () =
  let f7, _ = X.figure7 (Lazy.force ctx) in
  check_int "sixteen points" 16 (List.length f7.X.f7_points);
  (* Pf grows with diversity: positive log-fit slope, decent R^2 *)
  check_bool "positive slope" true (f7.X.f7_fit.Stats.Regression.slope > 0.);
  check_bool "correlates" true (f7.X.f7_fit.Stats.Regression.r_squared > 0.5)

let test_sim_time_shape () =
  let r, _ = X.sim_time ~min_seconds:0.2 () in
  check_bool "ISS much faster than RTL" true (r.X.st_speedup > 10.);
  check_bool "extrapolation positive" true (r.X.st_extrapolated_iss_hours > 0.)

let test_run_dispatch () =
  check_int "ten ids" 10 (List.length X.all_ids);
  (* cheap ones only; campaign-heavy ids are covered above *)
  check_bool "table1 produces one table" true
    (List.length (X.run (Lazy.force ctx) "table1") = 1);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Experiments.run: unknown experiment nope") (fun () ->
      ignore (X.run (Lazy.force ctx) "nope"))

let test_context_rejects_bad_samples () =
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "samples %d" n)
        (Invalid_argument
           (Printf.sprintf "Context.create: sample size must be positive (got %d)" n))
        (fun () -> ignore (Ctx.create ~samples:n ~gate:false ())))
    [ 0; -3 ];
  (* RICV_SAMPLES goes through the same parser: a bad value is an
     error, never a silent 250 *)
  List.iter
    (fun s ->
      match Ctx.parse_samples s with
      | Ok n -> Alcotest.failf "RICV_SAMPLES=%S accepted as %d" s n
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%S rejected: %s" s m)
            true
            (String.starts_with ~prefix:"sample size must be positive" m))
    [ "0"; "-3"; "abc"; "" ];
  Alcotest.(check (result int string)) "positive accepted" (Ok 12) (Ctx.parse_samples "12");
  (* RICV_GATE has one parser too: four spellings of "off", and any
     other value selects the gate-level elaboration *)
  List.iter
    (fun (s, want) -> check_bool (Printf.sprintf "RICV_GATE=%S" s) want (Ctx.parse_gate s))
    [ ("0", false); ("false", false); ("no", false); ("off", false); ("1", true);
      ("yes", true); ("on", true); ("", true) ]

let golden_runs ctx = Obs.span_count (Ctx.obs ctx) "golden"

let test_context_memoisation () =
  let ctx = Lazy.force ctx in
  let e = Workloads.Suite.find "intbench" in
  (* each call builds its own copy: the memo is keyed by the program's
     value, not by who built it *)
  let campaign models =
    Ctx.campaign ctx ~models (e.Workloads.Suite.build ~iterations:1 ~dataset:0)
      Fault_injection.Injection.Iu
  in
  let a = campaign [ Rtl.Circuit.Stuck_at_1 ] in
  let g = golden_runs ctx in
  let b = campaign [ Rtl.Circuit.Stuck_at_1 ] in
  check_bool "same result" true (a = b);
  check_int "a hit starts no golden run" g (golden_runs ctx);
  (* a wider request runs one campaign over the uncached model only *)
  let c = campaign [ Rtl.Circuit.Stuck_at_0; Rtl.Circuit.Stuck_at_1 ] in
  check_int "one golden run for the missing model" (g + 1) (golden_runs ctx);
  check_bool "cached model kept" true
    (List.assoc Rtl.Circuit.Stuck_at_1 c == List.assoc Rtl.Circuit.Stuck_at_1 a);
  check_bool "requested order" true
    (List.map fst c = [ Rtl.Circuit.Stuck_at_0; Rtl.Circuit.Stuck_at_1 ])

(* Figure 7 needs SA1 @ IU on every workload and excerpt; after figures
   3-5 only the eight workloads outside the figure-5 suite are new, and
   the shared entries change nothing in its table. *)
let test_figure7_reuses_campaigns () =
  let warm = Ctx.create ~samples:3 ~gate:false () in
  ignore (X.figure3 warm);
  ignore (X.figure4 warm);
  ignore (X.figure5 warm);
  let g = golden_runs warm in
  let _, table = X.figure7 warm in
  check_int "golden runs for figure 7" 8 (golden_runs warm - g);
  let _, fresh = X.figure7 (Ctx.create ~samples:3 ~gate:false ()) in
  Alcotest.(check string) "same table" (Report.Table.to_string fresh)
    (Report.Table.to_string table)

let test_units_report_to_context () =
  let ctx = Ctx.create ~samples:3 ~gate:false () in
  let rows, _ = X.units ctx in
  check_bool "rows" true (rows <> []);
  check_bool "injections counted" true (Obs.counter (Ctx.obs ctx) "injections" > 0);
  check_bool "golden runs recorded" true (golden_runs ctx > 0)

let test_campaign_cost_counts () =
  let ctx = Ctx.create ~samples:3 ~gate:false () in
  let rows, table = X.campaign_cost ctx in
  check_int "six workloads" 6 (List.length rows);
  List.iter
    (fun r ->
      check_int (r.X.c_name ^ " ISS injections") 9 r.X.c_iss_injections;
      check_int (r.X.c_name ^ " RTL injections") 9 r.X.c_rtl_injections)
    rows;
  (match List.rev table.Report.Table.rows with
  | ("total" :: "54" :: _ :: "54" :: _) :: _ -> ()
  | _ -> Alcotest.fail "expected a total row of 54 ISS and 54 RTL injections");
  (* timed, never memoised: every campaign reports to the collector *)
  check_int "injections counted" 108 (Obs.counter (Ctx.obs ctx) "injections")

let suite =
  ( "correlation",
    [ Alcotest.test_case "table1" `Quick test_table1_shape;
      Alcotest.test_case "figure3" `Slow test_figure3_shape;
      Alcotest.test_case "figure4" `Slow test_figure4_shape;
      Alcotest.test_case "figure5" `Slow test_figure5_shape;
      Alcotest.test_case "figure6" `Slow test_figure6_shape;
      Alcotest.test_case "figure7" `Slow test_figure7_shape;
      Alcotest.test_case "sim time" `Slow test_sim_time_shape;
      Alcotest.test_case "dispatch" `Quick test_run_dispatch;
      Alcotest.test_case "sample size validated" `Quick test_context_rejects_bad_samples;
      Alcotest.test_case "memoisation" `Quick test_context_memoisation;
      Alcotest.test_case "figure 7 reuses figures 3-5" `Slow test_figure7_reuses_campaigns;
      Alcotest.test_case "units report to the context" `Slow test_units_report_to_context;
      Alcotest.test_case "campaign cost counts" `Slow test_campaign_cost_counts ] )
