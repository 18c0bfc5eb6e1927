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
  let r, _ = X.sim_time ~repeats:1 () in
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

let test_context_memoisation () =
  let ctx = Lazy.force ctx in
  let e = Workloads.Suite.find "intbench" in
  let prog = e.Workloads.Suite.build ~iterations:2 ~dataset:0 in
  let t0 = Unix.gettimeofday () in
  let a =
    Ctx.campaign ctx ~key:"memo-test" ~models:[ Rtl.Circuit.Stuck_at_1 ] prog
      Fault_injection.Injection.Iu
  in
  let t_first = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let b =
    Ctx.campaign ctx ~key:"memo-test" ~models:[ Rtl.Circuit.Stuck_at_1 ] prog
      Fault_injection.Injection.Iu
  in
  let t_second = Unix.gettimeofday () -. t1 in
  check_bool "same result" true (a == b);
  check_bool "second call instant" true (t_second < t_first /. 10.)

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
      Alcotest.test_case "memoisation" `Quick test_context_memoisation ] )
