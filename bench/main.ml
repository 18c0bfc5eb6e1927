(* Benchmark harness: regenerates every table and figure of the paper
   (DESIGN.md section 4) and, under the [micro] selector, runs a
   Bechamel microbenchmark per experiment measuring its engine-side
   primitive.

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- figure5      -- one experiment
     dune exec bench/main.exe -- micro        -- Bechamel suite
     dune exec bench/main.exe -- journal      -- direct vs resume vs 4-shard-merge A/B
     dune exec bench/main.exe -- iss          -- ISS vs RTL campaign cost ratio
     dune exec bench/main.exe -- serve        -- campaign-service golden-trace cache
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
  let ctx = Context.create ~samples:(samples ()) ~obs () in
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

(* ---- journal A/B: one campaign three ways — direct, killed-and-
   resumed, and 4-shard-merged — asserting all three verdict tables
   are byte-identical and emitting BENCH_journal.json with the wall
   clocks.  This is the durability counterpart of the paper's cost
   table: a 25,478-hour campaign is only realistic if partial work
   survives pre-emption and distributes over machines. ---- *)

let run_journal () =
  let module FC = Fault_injection.Campaign in
  let module FJ = Fault_injection.Journal in
  let samples = samples () in
  let entry = Workloads.Suite.find "rspeed" in
  let prog = entry.Workloads.Suite.build ~iterations:1 ~dataset:0 in
  let target = Fault_injection.Injection.Iu in
  let config shard = { FC.default_config with FC.sample_size = Some samples; shard } in
  let sys = Leon3.System.create () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let tmp () =
    let p = Filename.temp_file "ricv_bench_journal" ".jsonl" in
    Sys.remove p;
    p
  in
  Format.printf "journal A/B: rspeed, %d sites, target iu@." samples;
  let (_, results0), wall_direct = time (fun () -> FC.run ~config:(config (1, 1)) sys prog target) in
  Format.printf "direct:         %d verdicts in %.1fs@." (List.length results0) wall_direct;
  (* kill-and-resume: journal a full run, truncate it to half the
     verdicts plus a torn tail, resume from the stub *)
  let jpath = tmp () in
  let shard_paths = List.init 4 (fun _ -> tmp ()) in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) (jpath :: shard_paths))
  @@ fun () ->
  ignore (FC.run ~config:(config (1, 1)) ~journal:jpath sys prog target);
  let lines = In_channel.with_open_text jpath In_channel.input_lines in
  let keep = 1 + (List.length results0 / 2) in
  let oc = open_out jpath in
  List.iteri (fun i l -> if i < keep then (output_string oc l; output_char oc '\n')) lines;
  output_string oc {|{"type":"verdict","i":0,"site":"torn|};
  close_out oc;
  let obs = Obs.create () in
  let (_, resumed), wall_resume =
    time (fun () -> FC.run ~config:(config (1, 1)) ~obs ~journal:jpath ~resume:true sys prog target)
  in
  let replayed = Obs.counter obs "journal.replayed" in
  let resume_identical = resumed = results0 in
  Format.printf "kill-and-resume: %d replayed + %d resimulated in %.1fs (%s)@." replayed
    (List.length resumed - replayed) wall_resume
    (if resume_identical then "identical" else "DIFFERS");
  (* 4 shards, journaled, merged *)
  let wall_shards =
    List.fold_left ( +. ) 0.
      (List.mapi
         (fun k path ->
           let _, wall =
             time (fun () -> FC.run ~config:(config (k + 1, 4)) ~journal:path sys prog target)
           in
           wall)
         shard_paths)
  in
  let loaded =
    List.map
      (fun p ->
        match FJ.load p with
        | Ok j -> j
        | Error m -> prerr_endline m; exit 1)
      shard_paths
  in
  let merged =
    match FJ.merge loaded with
    | Ok (_, merged) -> merged
    | Error m -> prerr_endline m; exit 1
  in
  let merge_identical = merged = results0 in
  Format.printf "4-shard merge:  %d verdicts in %.1fs total (%s)@." (List.length merged)
    wall_shards
    (if merge_identical then "identical" else "DIFFERS");
  let open Obs.Json in
  Format.printf "@.BENCH_journal.json: %s@."
    (to_string
       (Obj
          [ ("workload", Str "rspeed");
            ("samples", Int samples);
            ("verdicts", Int (List.length results0));
            ("direct", Obj [ ("wall_seconds", Float wall_direct) ]);
            ( "resume",
              Obj
                [ ("wall_seconds", Float wall_resume);
                  ("replayed", Int replayed);
                  ("identical", Bool resume_identical) ] );
            ( "shards",
              Obj
                [ ("count", Int 4);
                  ("wall_seconds_total", Float wall_shards);
                  ("identical", Bool merge_identical) ] ) ]));
  if not (resume_identical && merge_identical) then begin
    prerr_endline "journaled/sharded verdict tables differ from the direct run";
    exit 1
  end

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

(* ---- Campaign service: golden-trace cache economics.  A repeat
   submission to `ricv serve` must pay a hash lookup instead of the
   golden RTL simulation + static analysis a cold preparation costs,
   and must run zero further golden cycles.  Measures both sides and
   the warm-vs-cold campaign wall clock, asserting the warm verdict
   table stays byte-identical. ---- *)

let run_serve () =
  let module P = Serve.Protocol in
  let module FC = Fault_injection.Campaign in
  let module Journal = Fault_injection.Journal in
  let samples = samples () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let spec =
    { (P.default_spec ~engine:P.Rtl ~workload:"rspeed") with
      P.iterations = Some 1;
      samples }
  in
  let prog =
    (Workloads.Suite.find "rspeed").Workloads.Suite.build ~iterations:1 ~dataset:0
  in
  let config = { FC.default_config with FC.sample_size = Some samples } in
  let target = Fault_injection.Injection.Iu in
  let sys = Leon3.System.create () in
  let obs = Obs.create () in
  let cache = Serve.Cache.create ~obs () in
  let key = Serve.Cache.key ~prog_hash:(Journal.hash_program prog) spec in
  let build () = Serve.Cache.Rtl_prepared (FC.prepare ~config ~obs sys prog target) in
  Format.printf "campaign service golden-trace cache: rspeed, %d sites@.@." samples;
  let (_, hit0), wall_miss = time (fun () -> Serve.Cache.find_or_build cache ~key ~build) in
  let golden_miss = Obs.span_count obs "golden" in
  (* one lookup is sub-microsecond: average over a batch *)
  let lookups = 1000 in
  let (v, hit1), wall_hits = time (fun () ->
      let r = ref (Serve.Cache.find_or_build cache ~key ~build) in
      for _ = 2 to lookups do
        r := Serve.Cache.find_or_build cache ~key ~build
      done;
      !r)
  in
  let wall_hit = wall_hits /. float_of_int lookups in
  let golden_hit = Obs.span_count obs "golden" - golden_miss in
  let prepared =
    match v with Serve.Cache.Rtl_prepared p -> p | Serve.Cache.Iss_prepared _ -> assert false
  in
  Format.printf
    "prepare (miss)  %8.3fs  (%d golden run%s)@.lookup  (hit)   %8.2fus per lookup \
     (%d golden runs over %d lookups)@."
    wall_miss golden_miss
    (if golden_miss = 1 then "" else "s")
    (1e6 *. wall_hit) golden_hit lookups;
  let (cold_summaries, _), wall_cold = time (fun () -> FC.run ~config sys prog target) in
  let (warm_summaries, _), wall_warm =
    time (fun () -> FC.run ~config ~prepared sys prog target)
  in
  let identical = cold_summaries = warm_summaries in
  Format.printf
    "campaign cold   %8.3fs@.campaign warm   %8.3fs  (prepared from cache, identical %b)@."
    wall_cold wall_warm identical;
  let open Obs.Json in
  Format.printf "@.BENCH_serve.json: %s@."
    (to_string
       (Obj
          [ ("experiment", Str "serve-cache");
            ("workload", Str "rspeed");
            ("samples", Int samples);
            ( "prepare",
              Obj
                [ ("wall_seconds", Float wall_miss);
                  ("golden_runs", Int golden_miss) ] );
            ( "cache_hit",
              Obj
                [ ("wall_seconds", Float wall_hit); ("golden_runs", Int golden_hit) ] );
            ( "campaign",
              Obj
                [ ("cold_wall_seconds", Float wall_cold);
                  ("warm_wall_seconds", Float wall_warm);
                  ("identical", Bool identical) ] );
            ( "prepare_speedup",
              Float (if wall_hit > 0. then wall_miss /. wall_hit else 0.) ) ]));
  if hit0 || not hit1 || golden_hit <> 0 || not identical then begin
    prerr_endline
      "serve cache invariants violated (miss/hit sequence, golden-run count or \
       warm-table identity)";
    exit 1
  end

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
  | [ "journal" ] -> run_journal ()
  | [ "iss" ] -> run_iss ()
  | [ "serve" ] -> run_serve ()
  | ids when List.for_all (fun id -> List.mem id Experiments.all_ids) ids ->
      run_experiments ?csv_dir ids
  | _ ->
      prerr_endline
        ("usage: main.exe [csv] [micro | journal | iss | serve | "
        ^ String.concat " | " Experiments.all_ids ^ " ...]");
      exit 2
