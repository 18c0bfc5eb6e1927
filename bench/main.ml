(* Benchmark harness: regenerates every table and figure of the paper
   (DESIGN.md section 4) and, under the [micro] selector, runs a
   Bechamel microbenchmark per experiment measuring its engine-side
   primitive.

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- figure5      -- one experiment
     dune exec bench/main.exe -- micro        -- Bechamel suite
     dune exec bench/main.exe -- iss          -- ISS vs RTL campaign cost ratio
   The RICV_SAMPLES environment variable scales campaign sample sizes
   (default 250); a value that is not a positive integer is a usage
   error. *)

module Experiments = Correlation.Experiments
module Context = Correlation.Context

let print_tables tables = List.iter (Report.Table.render Format.std_formatter) tables

let samples () =
  match Context.default_samples () with
  | Ok n -> n
  | Error m ->
      prerr_endline m;
      exit 2

let write_csv ~dir ~id tables =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iteri
    (fun i table ->
      let suffix = if i = 0 then "" else Printf.sprintf "-%d" i in
      let path = Filename.concat dir (id ^ suffix ^ ".csv") in
      let oc = open_out path in
      output_string oc (Report.Table.to_csv table);
      close_out oc)
    tables

let run_experiments ?csv_dir ids =
  (* One collector feeds every per-experiment span and every campaign
     counter; the end-of-run metrics (the BENCH_*.json numbers) are
     derived from it rather than from hand-rolled timers.  RICV_TRACE
     streams the same events as a JSONL file. *)
  let sink, close_sink =
    match Sys.getenv_opt "RICV_TRACE" with
    | Some path ->
        let sink, close = Obs.file_sink path in
        (Some sink, close)
    | None -> (None, fun () -> ())
  in
  let obs = match sink with Some sink -> Obs.create ~sink () | None -> Obs.create () in
  let ctx = Context.create ~samples:(samples ()) ~gate:(Context.default_gate ()) ~obs () in
  Format.printf "injection sample size per (workload, block): %d@."
    (Context.samples ctx);
  List.iter
    (fun id ->
      Format.printf "@.";
      let tables = Obs.span obs ("experiment." ^ id) (fun () -> Experiments.run ctx id) in
      print_tables tables;
      (match csv_dir with Some dir -> write_csv ~dir ~id tables | None -> ());
      Format.printf "  [%s took %.1fs]@." id (Obs.span_total obs ("experiment." ^ id)))
    ids;
  let st = Context.trim_stats ctx in
  if st.Context.injections > 0 then
    Format.printf
      "@.trim totals: %d injections, %d prefiltered (%.1f%%), %d cone-pruned, \
       %d collapsed, %d early-exited@."
      st.Context.injections st.Context.skipped
      (100. *. float_of_int st.Context.skipped /. float_of_int st.Context.injections)
      st.Context.pruned st.Context.collapsed st.Context.early_exits;
  let wall =
    List.fold_left (fun acc id -> acc +. Obs.span_total obs ("experiment." ^ id)) 0. ids
  in
  Format.printf "@.metrics: %s@."
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("injections_total", Obs.Json.Int st.Context.injections);
            ("prefiltered", Obs.Json.Int st.Context.skipped);
            ("early_exited", Obs.Json.Int st.Context.early_exits);
            ("cone_pruned", Obs.Json.Int st.Context.pruned);
            ("collapsed", Obs.Json.Int st.Context.collapsed);
            ("rtl_cycles", Obs.Json.Int (Obs.counter obs "rtl.cycles"));
            ("cycles_saved", Obs.Json.Int (Obs.counter obs "cycles.saved"));
            ("wall_seconds", Obs.Json.Float wall) ]));
  Obs.flush obs;
  close_sink ()

(* ---- ISS vs RTL campaign cost: the paper's 85x argument, measured.
   Runs the figure-5 suite through both engines at the same sample
   size — the instruction-grain ISS campaign (reg/mem/op bit flips)
   and the RTL stuck-at campaign at IU nodes — and emits
   BENCH_iss.json with per-injection wall clocks and their ratio.
   The RTL side runs with every acceleration layer, so the measured
   ratio is a conservative floor on the paper's ISS-vs-plain-RTL
   85x. ---- *)

let run_iss () =
  let module FC = Fault_injection.Campaign in
  let module IC = Fault_injection.Iss_campaign in
  let samples = samples () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sys = Leon3.System.create () in
  Format.printf "ISS vs RTL campaign cost: figure-5 suite, %d sites per model@.@." samples;
  let rows =
    List.map
      (fun e ->
        let prog =
          e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations
            ~dataset:0
        in
        let obs = Obs.create () in
        let iss_config = { IC.default_config with IC.samples_per_model = samples } in
        let (iss_summaries, _), iss_wall =
          time (fun () -> IC.run ~config:iss_config ~obs prog)
        in
        let iss_inj =
          List.fold_left (fun a (_, s) -> a + s.FC.injections) 0 iss_summaries
        in
        let iss_instructions = Obs.counter obs "iss.instructions" in
        let rtl_config = { FC.default_config with FC.sample_size = Some samples } in
        let (rtl_summaries, _), rtl_wall =
          time (fun () ->
              FC.run ~config:rtl_config ~obs sys prog Fault_injection.Injection.Iu)
        in
        let rtl_inj =
          List.fold_left (fun a (_, s) -> a + s.FC.injections) 0 rtl_summaries
        in
        let ratio =
          if iss_wall > 0. && iss_inj > 0 && rtl_inj > 0 then
            rtl_wall /. float_of_int rtl_inj /. (iss_wall /. float_of_int iss_inj)
          else 0.
        in
        Format.printf
          "%-10s iss %5d inj %6.2fs (%5.2f ms/inj)   rtl %5d inj %6.1fs \
           (%6.1f ms/inj)   ratio %5.1fx@."
          e.Workloads.Suite.name iss_inj iss_wall
          (if iss_inj = 0 then 0. else 1000. *. iss_wall /. float_of_int iss_inj)
          rtl_inj rtl_wall
          (if rtl_inj = 0 then 0. else 1000. *. rtl_wall /. float_of_int rtl_inj)
          ratio;
        (e.Workloads.Suite.name, iss_inj, iss_wall, iss_instructions, rtl_inj, rtl_wall))
      Workloads.Suite.table1_set
  in
  let iss_inj = List.fold_left (fun a (_, i, _, _, _, _) -> a + i) 0 rows in
  let iss_wall = List.fold_left (fun a (_, _, w, _, _, _) -> a +. w) 0. rows in
  let iss_instructions = List.fold_left (fun a (_, _, _, n, _, _) -> a + n) 0 rows in
  let rtl_inj = List.fold_left (fun a (_, _, _, _, i, _) -> a + i) 0 rows in
  let rtl_wall = List.fold_left (fun a (_, _, _, _, _, w) -> a +. w) 0. rows in
  let per_injection_ratio =
    if iss_wall > 0. && iss_inj > 0 && rtl_inj > 0 then
      rtl_wall /. float_of_int rtl_inj /. (iss_wall /. float_of_int iss_inj)
    else 0.
  in
  Format.printf "@.totals: iss %.2fs / %d inj, rtl %.1fs / %d inj, ratio %.1fx \
                 (paper: 85x vs plain RTL)@."
    iss_wall iss_inj rtl_wall rtl_inj per_injection_ratio;
  let open Obs.Json in
  Format.printf "@.BENCH_iss.json: %s@."
    (to_string
       (Obj
          [ ("experiment", Str "iss-vs-rtl");
            ("suite", Str "figure5");
            ("samples", Int samples);
            ( "workloads",
              List
                (List.map
                   (fun (name, ii, iw, _, ri, rw) ->
                     Obj
                       [ ("name", Str name);
                         ("iss_injections", Int ii);
                         ("iss_wall_seconds", Float iw);
                         ("rtl_injections", Int ri);
                         ("rtl_wall_seconds", Float rw) ])
                   rows) );
            ( "iss",
              Obj
                [ ("wall_seconds", Float iss_wall);
                  ("injections", Int iss_inj);
                  ("instructions", Int iss_instructions) ] );
            ("rtl", Obj [ ("wall_seconds", Float rtl_wall); ("injections", Int rtl_inj) ]);
            ("per_injection_ratio", Float per_injection_ratio);
            ("paper_ratio", Float 85.);
            ( "notes",
              Str
                "RTL side runs with every acceleration layer on; the ratio is a \
                 floor on the paper's ISS-vs-plain-RTL 85x" ) ]))

(* ---- Bechamel microbenchmarks: one per table/figure, measuring the
   dominant engine primitive behind that experiment. ---- *)

let micro_tests () =
  let open Bechamel in
  let entry name = Workloads.Suite.find name in
  let prog_of e =
    e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset:0
  in
  let ttsprk = prog_of (entry "ttsprk") in
  let rspeed = prog_of (entry "rspeed") in
  let sys = Leon3.System.create () in
  let golden = Fault_injection.Campaign.golden_run sys ttsprk ~max_cycles:5_000_000 in
  let sites =
    Array.of_list
      (Fault_injection.Injection.sites (Leon3.System.core sys)
         Fault_injection.Injection.Iu)
  in
  let rng = Stats.Rng.create 99 in
  let fault_run () =
    let site = sites.(Stats.Rng.int rng (Array.length sites)) in
    ignore
      (Fault_injection.Campaign.run_one sys ttsprk golden site Rtl.Circuit.Stuck_at_1)
  in
  let excerpt = Workloads.Excerpts.subset_a "a2time" in
  [ Test.make ~name:"table1/iss-characterisation" (Staged.stage (fun () ->
        ignore (Diversity.Metric.of_program ttsprk)));
    Test.make ~name:"figure3/excerpt-golden-rtl" (Staged.stage (fun () ->
        Leon3.System.load sys excerpt;
        ignore (Leon3.System.run sys ~max_cycles:1_000_000)));
    Test.make ~name:"figure4/rspeed-iss" (Staged.stage (fun () ->
        ignore (Iss.Emulator.execute rspeed)));
    Test.make ~name:"figure5/iu-fault-run" (Staged.stage fault_run);
    Test.make ~name:"figure6/cmem-golden-rtl" (Staged.stage (fun () ->
        Leon3.System.load sys ttsprk;
        ignore (Leon3.System.run sys ~max_cycles:5_000_000)));
    Test.make ~name:"figure7/log-fit" (Staged.stage (fun () ->
        ignore
          (Stats.Regression.log_fit
             [ (8., 10.); (11., 14.); (20., 16.); (47., 30.); (50., 31.); (54., 33.) ])));
    Test.make ~name:"simtime/iss-run" (Staged.stage (fun () ->
        ignore (Iss.Emulator.execute ttsprk))) ]

let run_micro () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) () in
  let suite =
    Test.make_grouped ~name:"experiments" ~fmt:"%s %s" (micro_tests ())
  in
  let raw = Benchmark.all cfg instances suite in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let analyzed = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Format.printf "%-34s %s: %.0f ns/run@." test name est
          | Some [] | None -> Format.printf "%-34s %s: (no estimate)@." test name)
        tbl)
    analyzed

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let csv_dir, args =
    match args with
    | "csv" :: rest -> (Some "results", rest)
    | _ -> (None, args)
  in
  match args with
  | [] -> run_experiments ?csv_dir Experiments.all_ids
  | [ "micro" ] -> run_micro ()
  | [ "iss" ] -> run_iss ()
  | ids when List.for_all (fun id -> List.mem id Experiments.all_ids) ids ->
      run_experiments ?csv_dir ids
  | _ ->
      prerr_endline
        ("usage: main.exe [csv] [micro | iss | "
        ^ String.concat " | " Experiments.all_ids ^ " ...]");
      exit 2
