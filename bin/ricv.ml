(* ricv — RTL/ISS correlation for automotive microcontroller
   robustness verification: command-line front end. *)

open Cmdliner

let build_workload name iterations dataset =
  match List.find_opt (fun e -> e.Workloads.Suite.name = name) Workloads.Suite.all with
  | Some e ->
      let iterations =
        match iterations with Some n -> n | None -> e.Workloads.Suite.default_iterations
      in
      Ok (e.Workloads.Suite.build ~iterations ~dataset)
  | None -> Error (`Msg (Printf.sprintf "unknown workload %S (try `ricv list`)" name))

(* Plain [Arg.int] accepts 0 and negatives, which the engines turn
   into confusing failures ("0/0 injections", a divide, an empty
   sample); reject them at the command line instead. *)
let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be positive (got %d)" what n))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S: expected a positive integer" what s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name.")

let iterations_arg =
  Arg.(value & opt (some (positive_int "iteration count")) None
         & info [ "iterations"; "i" ] ~docv:"N"
             ~doc:"Kernel iterations (default: the workload's own).")

let dataset_arg =
  Arg.(value & opt int 0 & info [ "dataset"; "d" ] ~docv:"D" ~doc:"Input dataset index.")

let or_fail = function Ok v -> v | Error (`Msg m) -> prerr_endline m; exit 1

(* [-s N] when given, else RICV_SAMPLES, else the default: a bad
   RICV_SAMPLES is a usage error, exactly like a bad [-s]. *)
let samples_or_env = function
  | Some n -> n
  | None -> (
      match Correlation.Context.default_samples () with
      | Ok n -> n
      | Error m ->
          prerr_endline ("ricv: " ^ m);
          exit Cmd.Exit.cli_error)

let shard_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "invalid shard %S: expected I/N with 1 <= I <= N" s))
    in
    match String.index_opt s '/' with
    | None -> fail ()
    | Some k -> (
        let i = String.sub s 0 k in
        let n = String.sub s (k + 1) (String.length s - k - 1) in
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when n >= 1 && i >= 1 && i <= n -> Ok (i, n)
        | Some _, Some _ | _ -> fail ())
  in
  Arg.conv ~docv:"I/N" (parse, fun fmt (i, n) -> Format.fprintf fmt "%d/%d" i n)

(* ---- gate-level elaboration selection (shared) ---- *)

let gate_arg =
  Arg.(value & flag & info [ "gate-level" ]
         ~doc:"Elaborate the gate-level IU datapath (NAND/NOR/NOT/MUX lowering of \
               the ALU, barrel shifter, condition-code logic, decode PLA and mux \
               trees) instead of the behavioural one.  Verdicts at the observation \
               boundary are identical; the injection-site population is an order \
               of magnitude larger.  $(b,RICV_GATE=1) selects it without a flag.")

let gate_enabled flag = flag || Correlation.Context.default_gate ()

let system_params ~gate =
  { Leon3.Core.default_params with Leon3.Core.gate_level = gate }

(* ---- telemetry plumbing (shared by campaign/experiment) ---- *)

let trace_arg =
  Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~env:(Cmd.Env.info "RICV_TRACE")
             ~docv:"FILE"
             ~doc:"Write a JSONL telemetry trace (one JSON object per span and, at \
                   exit, per counter/histogram) to $(docv).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print aggregated telemetry (span totals, counters, histograms) on \
               stderr when done.")

(* Returns the collector plus a [finish] that flushes counter events
   to the trace, closes it and prints the [--metrics] report. *)
let make_obs ~trace ~metrics =
  if trace = None && not metrics then (Obs.null, fun () -> ())
  else begin
    let sink, close_sink =
      match trace with
      | Some path ->
          let sink, close = Obs.file_sink path in
          (Some sink, close)
      | None -> (None, fun () -> ())
    in
    let obs = match sink with Some sink -> Obs.create ~sink () | None -> Obs.create () in
    let finish () =
      Obs.flush obs;
      close_sink ();
      (match trace with
      | Some path -> Printf.eprintf "telemetry trace: %s\n%!" path
      | None -> ());
      if metrics then Obs.report Format.err_formatter obs
    in
    (obs, finish)
  end

(* ---- list ---- *)

let list_cmd =
  let run () =
    print_endline "workloads:";
    List.iter
      (fun e ->
        Printf.printf "  %-10s (%s, default %d iterations)\n" e.Workloads.Suite.name
          (Workloads.Suite.kind_name e.Workloads.Suite.kind)
          e.Workloads.Suite.default_iterations)
      Workloads.Suite.all;
    print_endline "experiments:";
    List.iter (fun id -> Printf.printf "  %s\n" id) Correlation.Experiments.all_ids
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and experiments.")
    Term.(const run $ const ())

(* ---- run-iss ---- *)

let run_iss_cmd =
  let run name iterations dataset =
    let prog = or_fail (build_workload name iterations dataset) in
    let r = Iss.Emulator.execute prog in
    Format.printf "stop        : %a@." Iss.Emulator.pp_stop r.Iss.Emulator.stop;
    Format.printf "instructions: %d (memory %d)@." r.Iss.Emulator.instructions
      r.Iss.Emulator.memory_instructions;
    Format.printf "cycles      : %d@." r.Iss.Emulator.cycles;
    Format.printf "diversity   : %d@." r.Iss.Emulator.diversity;
    Format.printf "writes      : %d@." (List.length r.Iss.Emulator.writes);
    Format.printf "opcode histogram:@.";
    List.iter
      (fun (op, c) -> Format.printf "  %-8s %d@." (Sparc.Isa.mnemonic op) c)
      r.Iss.Emulator.histogram
  in
  Cmd.v (Cmd.info "run-iss" ~doc:"Run a workload on the instruction set simulator.")
    Term.(const run $ workload_arg $ iterations_arg $ dataset_arg)

(* ---- run-rtl ---- *)

let run_rtl_cmd =
  let vcd_arg =
    Arg.(value & opt (some string) None
           & info [ "vcd" ] ~docv:"FILE"
               ~doc:"Dump a waveform trace of the integer unit (first 5000 cycles).")
  in
  let run name iterations dataset vcd gate =
    let prog = or_fail (build_workload name iterations dataset) in
    let sys = Leon3.System.create ~params:(system_params ~gate:(gate_enabled gate)) () in
    Leon3.System.load sys prog;
    let stop =
      match vcd with
      | None -> Leon3.System.run sys ~max_cycles:10_000_000
      | Some path ->
          let circuit = (Leon3.System.core sys).Leon3.Core.circuit in
          Rtl.Vcd.trace_run ~path ~prefix:"iu." circuit ~cycles:5000 ~step:(fun () ->
              if Leon3.System.stop sys = None then Leon3.System.step sys);
          (* finish the run untraced if it is still going *)
          Leon3.System.run sys ~max_cycles:10_000_000
    in
    Format.printf "stop        : %a@." Leon3.System.pp_stop stop;
    Format.printf "instructions: %d@." (Leon3.System.instructions sys);
    Format.printf "cycles      : %d@." (Leon3.System.cycles sys);
    Format.printf "writes      : %d@." (List.length (Leon3.System.writes sys));
    match vcd with
    | Some path -> Format.printf "vcd trace   : %s@." path
    | None -> ()
  in
  Cmd.v (Cmd.info "run-rtl" ~doc:"Run a workload on the Leon3-class RTL model.")
    Term.(const run $ workload_arg $ iterations_arg $ dataset_arg $ vcd_arg $ gate_arg)

(* ---- disasm ---- *)

let disasm_cmd =
  let run name iterations dataset =
    let prog = or_fail (build_workload name iterations dataset) in
    List.iter print_endline (Sparc.Asm.disassemble prog)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a workload's text section.")
    Term.(const run $ workload_arg $ iterations_arg $ dataset_arg)

(* ---- asm ---- *)

let asm_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source.")
  in
  let engine_arg =
    Arg.(value & opt (enum [ ("iss", `Iss); ("rtl", `Rtl); ("both", `Both) ]) `Both
           & info [ "engine"; "e" ] ~doc:"Engine to run on: iss, rtl or both.")
  in
  let run file engine =
    let source = In_channel.with_open_text file In_channel.input_all in
    let prog =
      try Sparc.Parser.parse_string ~name:(Filename.basename file) source with
      | Sparc.Parser.Parse_error { line; message } ->
          Printf.eprintf "%s:%d: %s\n" file line message;
          exit 1
      | Sparc.Asm.Unknown_label l ->
          Printf.eprintf "%s: unknown label %S\n" file l;
          exit 1
    in
    Printf.printf "assembled %d instructions\n" (Array.length prog.Sparc.Asm.instrs);
    let run_iss () =
      let r = Iss.Emulator.execute prog in
      Format.printf "iss: %a, %d instructions, %d writes@." Iss.Emulator.pp_stop
        r.Iss.Emulator.stop r.Iss.Emulator.instructions
        (List.length r.Iss.Emulator.writes)
    in
    let run_rtl () =
      let sys = Leon3.System.create () in
      Leon3.System.load sys prog;
      let stop = Leon3.System.run sys ~max_cycles:10_000_000 in
      Format.printf "rtl: %a, %d instructions, %d cycles@." Leon3.System.pp_stop stop
        (Leon3.System.instructions sys) (Leon3.System.cycles sys)
    in
    match engine with
    | `Iss -> run_iss ()
    | `Rtl -> run_rtl ()
    | `Both ->
        run_iss ();
        run_rtl ()
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a source file and run it.")
    Term.(const run $ file_arg $ engine_arg)

(* ---- campaign ---- *)

(* All verdict tables — `campaign`, `iss-campaign`, `merge` and the
   served daemon — render through [Serve.Render], so a sharded,
   merged, or served campaign prints line for line what the direct run
   prints by construction. *)
let print_model_summaries summaries =
  List.iter print_endline (Serve.Render.rtl_summary_lines summaries)

(* `campaign` and `iss-campaign` share one journal front: the
   parallelism, shard, journal and seed options, and what a run does
   with them. *)
type front = {
  domains : int;
  shard : int * int;
  journal : string option;
  resume : bool;
  seed : int;
}

let front_term =
  let domains =
    Arg.(value & opt (positive_int "domain count") 1 & info [ "domains"; "j" ] ~docv:"N"
           ~doc:"Parallelise the campaign over N OCaml domains.")
  in
  let shard =
    Arg.(value & opt shard_conv (1, 1) & info [ "shard" ] ~docv:"I/N"
           ~doc:"Execute only shard $(docv) of the campaign (1-based).  Shards of \
                 the same seeded campaign are disjoint and covering; journal each \
                 one and combine with `ricv merge`.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Append every classified verdict to a crash-safe JSONL journal at \
                 $(docv), bound to the campaign fingerprint.")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Replay the verdicts already in --journal instead of re-simulating \
                 them, then continue.  A journal from a different campaign \
                 (workload, config, seed, sampled sites or shard mismatch) is \
                 rejected.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Site-sampling seed.")
  in
  Term.(
    const (fun domains shard journal resume seed -> { domains; shard; journal; resume; seed })
    $ domains $ shard $ journal $ resume $ seed)

(* Runs [campaign ~obs ~on_progress] with progress on stderr, then
   [report summaries ~elapsed ~suffix], where [suffix] names the shard
   and the journal for the footer line.  A journal of another campaign
   exits 1. *)
let run_journaled front ~trace ~metrics campaign report =
  if front.resume && front.journal = None then begin
    prerr_endline "ricv: --resume requires --journal";
    exit 1
  end;
  let obs, finish_obs = make_obs ~trace ~metrics in
  let t0 = Unix.gettimeofday () in
  let on_progress ~done_ ~total =
    if done_ mod 100 = 0 || done_ = total then
      Printf.eprintf "\r%d/%d injections...%!" done_ total
  in
  let summaries =
    try Obs.span obs "campaign" (fun () -> campaign ~obs ~on_progress)
    with Fault_injection.Journal.Rejected msg ->
      Printf.eprintf "\nricv: journal rejected: %s\n" msg;
      exit 1
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  prerr_newline ();
  let suffix =
    (match front.shard with 1, 1 -> "" | i, n -> Printf.sprintf "  [shard %d/%d]" i n)
    ^
    match (front.journal, front.resume) with
    | Some path, false -> Printf.sprintf "  [journal %s]" path
    | Some path, true when Obs.enabled obs ->
        Printf.sprintf "  [journal %s, %d replayed]" path (Obs.counter obs "journal.replayed")
    | Some path, true -> Printf.sprintf "  [journal %s, resumed]" path
    | None, _ -> ""
  in
  report summaries ~elapsed ~suffix;
  finish_obs ()

let campaign_cmd =
  let target_conv =
    Arg.enum [ ("iu", Fault_injection.Injection.Iu); ("cmem", Fault_injection.Injection.Cmem) ]
  in
  let target_arg =
    Arg.(value & opt target_conv Fault_injection.Injection.Iu
           & info [ "target"; "t" ] ~docv:"BLOCK" ~doc:"Injection block: iu or cmem.")
  in
  let samples_arg =
    Arg.(value & opt (positive_int "sample size") 250 & info [ "samples"; "s" ] ~docv:"N"
           ~doc:"Number of injection sites to sample.")
  in
  let hang_arg =
    Arg.(value & opt (positive_int "hang factor") 4 & info [ "hang-factor" ] ~docv:"K"
           ~env:(Cmd.Env.info "RICV_HANG_FACTOR")
           ~doc:"Cycle-budget watchdog: a faulty run is classified as hung after K \
                 times the golden run's cycle count (plus a fixed floor).  Mirrors \
                 the ISS campaign's --hang-factor.")
  in
  let run name iterations dataset target samples front hang_factor gate trace metrics =
    let prog = or_fail (build_workload name iterations dataset) in
    let params = system_params ~gate:(gate_enabled gate) in
    let config =
      { Fault_injection.Campaign.default_config with
        Fault_injection.Campaign.sample_size = Some samples;
        hang_factor;
        seed = front.seed;
        shard = front.shard }
    in
    run_journaled front ~trace ~metrics
      (fun ~obs ~on_progress ->
        fst
          (Fault_injection.Campaign.run_parallel ~config ~obs ~domains:front.domains
             ~on_progress ?journal:front.journal ~resume:front.resume
             (fun () -> Leon3.System.create ~params ())
             prog target))
      (fun summaries ~elapsed ~suffix ->
        print_model_summaries summaries;
        let injections, skipped, early, pruned, collapsed =
          List.fold_left
            (fun (i, k, e, p, c) (_, s) ->
              ( i + s.Fault_injection.Campaign.injections,
                k + s.Fault_injection.Campaign.skipped,
                e + s.Fault_injection.Campaign.early_exits,
                p + s.Fault_injection.Campaign.pruned,
                c + s.Fault_injection.Campaign.collapsed ))
            (0, 0, 0, 0, 0) summaries
        in
        Printf.printf
          "%d injections in %.1fs: %d prefiltered (%.1f%%), %d cone-pruned, %d collapsed, \
           %d early-exited%s\n"
          injections elapsed skipped
          (if injections = 0 then 0.
           else 100. *. float_of_int skipped /. float_of_int injections)
          pruned collapsed early suffix)
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a fault-injection campaign on the RTL model.")
    Term.(const run $ workload_arg $ iterations_arg $ dataset_arg $ target_arg
          $ samples_arg $ front_term $ hang_arg $ gate_arg $ trace_arg $ metrics_arg)

(* ---- iss-campaign ---- *)

(* The latency unit differs from the RTL printer — the ISS counts
   dynamic instructions, not cycles (caches are off in campaign
   mode). *)
let print_iss_summaries summaries =
  List.iter print_endline (Serve.Render.iss_summary_lines summaries)

let iss_campaign_cmd =
  let samples_arg =
    Arg.(value & opt (positive_int "sample size") 400 & info [ "samples"; "s" ] ~docv:"N"
           ~doc:"Number of injection sites to sample per fault model.")
  in
  let hang_arg =
    Arg.(value & opt (positive_int "hang factor") 4 & info [ "hang-factor" ] ~docv:"K"
           ~doc:"Instruction-budget watchdog: K times the golden run's dynamic \
                 instruction count.")
  in
  let run name iterations dataset samples front hang_factor trace metrics =
    let prog = or_fail (build_workload name iterations dataset) in
    let config =
      { Fault_injection.Iss_campaign.default_config with
        Fault_injection.Iss_campaign.samples_per_model = samples;
        hang_factor;
        seed = front.seed;
        shard = front.shard }
    in
    run_journaled front ~trace ~metrics
      (fun ~obs ~on_progress ->
        fst
          (Fault_injection.Iss_campaign.run_parallel ~config ~obs ~domains:front.domains
             ~on_progress ?journal:front.journal ~resume:front.resume prog))
      (fun summaries ~elapsed ~suffix ->
        print_iss_summaries summaries;
        let injections =
          List.fold_left
            (fun acc (_, s) -> acc + s.Fault_injection.Campaign.injections)
            0 summaries
        in
        Printf.printf "%d ISS injections in %.1fs (latencies in instructions)%s\n"
          injections elapsed suffix)
  in
  Cmd.v
    (Cmd.info "iss-campaign"
       ~doc:"Run an instruction-grain fault-injection campaign on the ISS \
             (register-file, data-memory and opcode bit flips), with the same \
             verdict taxonomy, journaling and sharding as `ricv campaign`.")
    Term.(const run $ workload_arg $ iterations_arg $ dataset_arg $ samples_arg
          $ front_term $ hang_arg $ trace_arg $ metrics_arg)

(* ---- merge ---- *)

let merge_cmd =
  let journals_arg =
    Arg.(non_empty & pos_all file []
           & info [] ~docv:"JOURNAL" ~doc:"Shard journal files (one per shard).")
  in
  let run paths =
    let loaded =
      List.map
        (fun path ->
          match Fault_injection.Journal.load path with
          | Ok j -> j
          | Error msg ->
              Printf.eprintf "ricv: %s\n" msg;
              exit 1)
        paths
    in
    match Fault_injection.Journal.merge loaded with
    | Error msg ->
        Printf.eprintf "ricv: merge rejected: %s\n" msg;
        exit 1
    | Ok (fp, results) ->
        (* [Serve.Render.merged_lines] partitions ISS journals back
           into per-model rows by site-name prefix and takes RTL model
           lists from the fingerprint — the same code path the served
           daemon renders with. *)
        (match Serve.Render.merged_lines fp results with
        | Ok lines -> List.iter print_endline lines
        | Error msg ->
            Printf.eprintf "ricv: %s\n" msg;
            exit 1);
        Printf.printf "merged %d shard%s: %d verdicts (workload %s, target %s, seed %d)\n"
          (List.length paths)
          (if List.length paths = 1 then "" else "s")
          (List.length results) fp.Fault_injection.Journal.workload
          fp.Fault_injection.Journal.target fp.Fault_injection.Journal.seed
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge the shard journals of one campaign (see `campaign --shard`) and \
             print the combined per-model summaries — identical to the unsharded \
             run's.  Journals from different campaigns, overlapping shards or \
             incomplete shard sets are rejected with a non-zero exit.")
    Term.(const run $ journals_arg)

(* ---- lint ---- *)

let lint_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the report as one compact JSON object instead of text.")
  in
  let depth_arg =
    Arg.(value & opt int 32 & info [ "depth-limit" ] ~docv:"N"
           ~doc:"Combinational-depth threshold for the comb-depth rule.")
  in
  let run json gate_level depth_limit =
    let gate = gate_enabled gate_level in
    let core = Leon3.Core.build ~params:(system_params ~gate) () in
    let report =
      Analysis.Lint.run
        ~observed:(Leon3.Core.observation_points core)
        ~driven:(Leon3.Core.environment_inputs core)
        ~depth_limit core.Leon3.Core.circuit
    in
    (* the static fault-analysis pass over the same netlist: dominator
       tree and collapse classes (classic vs dominance share) *)
    let g = Analysis.Graph.build core.Leon3.Core.circuit in
    let obs_points = Leon3.Core.observation_points core in
    let keep =
      let set = Array.make (Analysis.Graph.signal_count g) false in
      List.iter
        (fun s -> set.((s : Rtl.Circuit.signal :> int)) <- true)
        obs_points;
      fun (s : Rtl.Circuit.signal) -> set.((s :> int))
    in
    let dom = Analysis.Dominator.build g ~exits:obs_points in
    let classic = Analysis.Collapse.mapped (Analysis.Collapse.build g ~keep) in
    let mapped = Analysis.Collapse.mapped (Analysis.Collapse.build ~dom g ~keep) in
    let elaboration = if gate then "gate-level" else "behavioural" in
    let reachable = Analysis.Dominator.tree_size dom in
    if json then begin
      (* splice the static section into the lint object so the output
         stays one JSON value with the established top-level keys *)
      let lint_json = Analysis.Lint.to_json report in
      Printf.printf
        "%s,\"static\":{\"elaboration\":%S,\"dominator_reachable\":%d,\
         \"collapse\":{\"mapped\":%d,\"classic\":%d,\"dominance\":%d}}}\n"
        (String.sub lint_json 0 (String.length lint_json - 1))
        elaboration reachable mapped classic (mapped - classic)
    end
    else begin
      Analysis.Lint.pp Format.std_formatter report;
      Printf.printf
        "static: %s elaboration, dominator over %d vertices, collapse mapped %d \
         pairs (%d classic + %d dominance)\n"
        elaboration reachable mapped classic (mapped - classic)
    end;
    if Analysis.Lint.errors report > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically lint the Leon3 netlist (dead/unobservable nodes, undriven \
             inputs, constant combs, width truncation, depth outliers) and \
             summarise the static fault-analysis pass: dominator tree and fault-\
             collapse classes.  Exits non-zero on any error-severity finding.")
    Term.(const run $ json_arg $ gate_arg $ depth_arg)

(* ---- experiment / correlate ---- *)

let experiment_samples_arg =
  Arg.(value & opt (some (positive_int "sample size")) None
         & info [ "samples"; "s" ] ~docv:"N"
         ~doc:"Injection sample size per (workload, block) and per ISS model \
               (default: $(b,RICV_SAMPLES), else 250).")

(* One context serves every id, so a campaign two experiments share
   (figure 5 and figure 7, say) runs once. *)
let run_experiments ids samples gate trace metrics =
  let obs, finish_obs = make_obs ~trace ~metrics in
  let ctx =
    Correlation.Context.create ~samples:(samples_or_env samples) ~gate:(gate_enabled gate)
      ~obs ()
  in
  List.iteri
    (fun i id ->
      if i > 0 then print_newline ();
      List.iter
        (Report.Table.render Format.std_formatter)
        (Obs.span obs ("experiment." ^ id) (fun () -> Correlation.Experiments.run ctx id)))
    ids;
  finish_obs ()

let experiment_cmd =
  let ids_arg =
    let ids = "all" :: Correlation.Experiments.all_ids in
    Arg.(non_empty & pos_all (enum (List.map (fun id -> (id, id)) ids)) []
           & info [] ~docv:"ID"
           ~doc:"Experiment ids (see `ricv list`), run in order on one context; \
                 $(b,all) runs every experiment.")
  in
  let run ids =
    run_experiments
      (List.concat_map
         (function "all" -> Correlation.Experiments.all_ids | id -> [ id ])
         ids)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce the paper's tables and figures: the one command that \
             regenerates every experiment.")
    Term.(const run $ ids_arg $ experiment_samples_arg $ gate_arg $ trace_arg
          $ metrics_arg)

let correlate_cmd =
  Cmd.v
    (Cmd.info "correlate"
       ~doc:"Correlate ISS-level campaign predictions against RTL-measured failure \
             probabilities: Wilson confidence intervals on every Pf, \
             leave-one-workload-out cross-validated fits, and an explicit fit-break \
             flag where the measured and predicted intervals are disjoint.  Alias \
             for `ricv experiment correlate`.")
    Term.(const (run_experiments [ "correlate" ]) $ experiment_samples_arg $ gate_arg
          $ trace_arg $ metrics_arg)

(* ---- serve / submit / status ---- *)

let default_dir = "ricv-serve"

let default_socket dir = Filename.concat dir "ricv.sock"

let dir_arg =
  Arg.(value & opt string default_dir & info [ "dir" ] ~docv:"DIR"
         ~doc:"Service directory: the persistent job queue, per-job shard journals \
               and summaries live here.  Restarting on the same $(docv) resumes \
               unfinished jobs.")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
         ~env:(Cmd.Env.info "RICV_SERVE")
         ~doc:"Daemon address: unix:PATH, tcp:HOST:PORT, or a bare socket path \
               (default: the default service directory's socket).")

let parse_addr = function
  | Some s -> Serve.Daemon.addr_of_string s
  | None -> Ok (Serve.Daemon.Unix_sock (default_socket default_dir))

let client_connect connect =
  match Result.bind (parse_addr connect) Serve.Client.connect with
  | Ok c -> c
  | Error e ->
      Printf.eprintf "ricv: %s\n" e;
      exit 1

let serve_cmd =
  let listen_arg =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Listen address: unix:PATH, tcp:HOST:PORT, or a bare socket path \
                 (default: DIR/ricv.sock).")
  in
  let workers_arg =
    Arg.(value & opt (positive_int "worker count") 2 & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Concurrent shard worker processes.")
  in
  let retries_arg =
    Arg.(value & opt int 2 & info [ "max-retries" ] ~docv:"N"
           ~doc:"Crash requeues per shard before the job is failed.")
  in
  let capacity_arg =
    Arg.(value & opt (positive_int "cache capacity") 8 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Golden-trace cache entries retained (LRU).")
  in
  let run dir listen workers max_retries capacity trace metrics =
    if max_retries < 0 then begin
      prerr_endline "ricv: --max-retries must be non-negative";
      exit 1
    end;
    let addr =
      match listen with
      | Some s -> or_fail (Result.map_error (fun e -> `Msg e) (Serve.Daemon.addr_of_string s))
      | None -> Serve.Daemon.Unix_sock (default_socket dir)
    in
    let obs, finish_obs = make_obs ~trace ~metrics in
    (match
       Serve.Daemon.serve ~obs ~workers ~max_retries ~cache_capacity:capacity ~dir addr
     with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "ricv: %s\n" e;
        exit 1);
    finish_obs ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the campaign service: accept campaign specs over a \
             newline-delimited-JSON socket, keep a persistent job queue, execute \
             shards in a crash-isolated worker pool (a killed worker's shard is \
             requeued and resumes from its journal byte-identically), cache golden \
             traces and static analysis across submissions, and merge shard \
             journals into the direct-run verdict table on completion.")
    Term.(const run $ dir_arg $ listen_arg $ workers_arg $ retries_arg $ capacity_arg
          $ trace_arg $ metrics_arg)

let submit_cmd =
  let engine_arg =
    Arg.(value & opt (enum [ ("rtl", Serve.Protocol.Rtl); ("iss", Serve.Protocol.Iss) ])
           Serve.Protocol.Rtl
         & info [ "engine"; "e" ] ~doc:"Campaign engine: rtl or iss.")
  in
  let target_arg =
    Arg.(value & opt string "iu" & info [ "target"; "t" ] ~docv:"BLOCK"
           ~doc:"RTL injection block: iu or cmem.")
  in
  let samples_arg =
    Arg.(value & opt (some (positive_int "sample size")) None
           & info [ "samples"; "s" ] ~docv:"N"
               ~doc:"Injection sites to sample (default: the direct command's — 250 \
                     rtl, 400 per model iss).")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Site-sampling seed.")
  in
  let hang_arg =
    Arg.(value & opt (positive_int "hang factor") 4 & info [ "hang-factor" ] ~docv:"K"
           ~doc:"Watchdog budget multiplier.")
  in
  let shards_arg =
    Arg.(value & opt (positive_int "shard count") 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Split the campaign into N disjoint shards scheduled independently \
                 (the merged table is byte-identical to an unsharded run).")
  in
  let no_wait_arg =
    Arg.(value & flag & info [ "no-wait" ]
           ~doc:"Enqueue and print the job id instead of streaming progress and the \
                 verdict table.")
  in
  let run name iterations dataset engine gate target samples seed hang_factor shards
      connect no_wait =
    let spec =
      let d = Serve.Protocol.default_spec ~engine ~workload:name in
      { d with
        Serve.Protocol.iterations;
        dataset;
        gate = gate_enabled gate;
        target;
        samples = (match samples with Some n -> n | None -> d.Serve.Protocol.samples);
        seed;
        hang_factor;
        shards }
    in
    let c = client_connect connect in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    match Serve.Client.submit c ~wait:(not no_wait) spec with
    | Error e ->
        Printf.eprintf "ricv: submit rejected: %s\n" e;
        exit 1
    | Ok (id, hit) ->
        Printf.eprintf "job %d accepted; golden cache: %s\n%!" id
          (if hit then "hit" else "miss");
        if no_wait then Printf.printf "job %d\n" id
        else begin
          (* aggregate per-shard progress into one campaign-style line *)
          let progress = Hashtbl.create 8 in
          let on_progress ~shard ~done_ ~total =
            Hashtbl.replace progress shard (done_, total);
            let d, t =
              Hashtbl.fold (fun _ (d, t) (ad, at) -> (ad + d, at + t)) progress (0, 0)
            in
            Printf.eprintf "\r%d/%d injections...%!" d t
          in
          let on_requeued ~shard ~attempt =
            Printf.eprintf "\nshard %d requeued after worker death (attempt %d)\n%!"
              shard attempt
          in
          match Serve.Client.wait_done ~on_progress ~on_requeued c with
          | Error e ->
              Printf.eprintf "\nricv: %s\n" e;
              exit 1
          | Ok (table, requeues) ->
              prerr_newline ();
              List.iter print_endline table;
              if requeues > 0 then
                Printf.eprintf "(%d shard requeue%s during execution)\n" requeues
                  (if requeues = 1 then "" else "s")
        end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a campaign to a running `ricv serve` daemon and (by default) \
             stream progress until its verdict table — byte-identical to the \
             direct `ricv campaign` / `ricv iss-campaign` run — comes back.")
    Term.(const run $ workload_arg $ iterations_arg $ dataset_arg $ engine_arg
          $ gate_arg $ target_arg $ samples_arg $ seed_arg $ hang_arg $ shards_arg
          $ connect_arg $ no_wait_arg)

let status_cmd =
  let job_arg =
    Arg.(value & pos 0 (some int) None & info [] ~docv:"JOB" ~doc:"Job id.")
  in
  let watch_arg =
    Arg.(value & flag & info [ "watch" ]
           ~doc:"Stream the job's events and print its verdict table when done \
                 (requires $(i,JOB)).")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Stop the daemon.")
  in
  let module Json = Obs.Json in
  let jint name j = match Option.bind (Json.member name j) Json.to_int with Some n -> n | None -> 0 in
  let jstr name j = match Option.bind (Json.member name j) Json.to_str with Some s -> s | None -> "" in
  let print_job j =
    Printf.printf "job %d: %s %s %s (%d shards, cache %s, requeues %d)%s\n"
      (jint "id" j) (jstr "engine" j) (jstr "workload" j) (jstr "state" j)
      (jint "shards" j) (jstr "cache" j) (jint "requeues" j)
      (match Option.bind (Json.member "reason" j) Json.to_str with
      | Some r -> Printf.sprintf " — %s" r
      | None -> "");
    match Json.member "progress" j with
    | Some (Json.List shards) ->
        List.iter
          (fun sj ->
            (* keep this line format stable: scripts extract worker
               pids from it to exercise requeue-on-crash *)
            if jstr "state" sj = "running" then
              Printf.printf "job %d shard %d running pid %d\n" (jint "id" j)
                (jint "shard" sj) (jint "pid" sj))
          shards
    | _ -> ()
  in
  let run job watch shutdown connect =
    let c = client_connect connect in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    if shutdown then (
      match Serve.Client.shutdown c with
      | Ok () -> prerr_endline "shutdown requested"
      | Error e ->
          Printf.eprintf "ricv: %s\n" e;
          exit 1)
    else if watch then (
      match job with
      | None ->
          prerr_endline "ricv: --watch requires a JOB argument";
          exit 1
      | Some id -> (
          match
            Result.bind (Serve.Client.watch c id) (fun () -> Serve.Client.wait_done c)
          with
          | Ok (table, _) -> List.iter print_endline table
          | Error e ->
              Printf.eprintf "ricv: %s\n" e;
              exit 1))
    else
      match Serve.Client.status ?job c with
      | Error e ->
          Printf.eprintf "ricv: %s\n" e;
          exit 1
      | Ok reply -> (
          match Json.member "job" reply with
          | Some j -> print_job j
          | None ->
              (match Json.member "jobs" reply with
              | Some (Json.List jobs) -> List.iter print_job jobs
              | _ -> ());
              Printf.printf
                "golden cache: %d hits, %d misses; golden runs %d; requeues %d\n"
                (jint "cache_hits" reply) (jint "cache_misses" reply)
                (jint "golden_runs" reply) (jint "requeues" reply))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Query a running `ricv serve` daemon: all jobs (with running worker \
             pids and cache counters), one job, or — with $(b,--watch) — stream a \
             job to completion.  $(b,--shutdown) stops the daemon.")
    Term.(const run $ job_arg $ watch_arg $ shutdown_arg $ connect_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ricv" ~version:"1.0.0"
      ~doc:"ISS/RTL fault-injection correlation for automotive microcontrollers"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ list_cmd; run_iss_cmd; run_rtl_cmd; disasm_cmd; asm_cmd; campaign_cmd;
            iss_campaign_cmd; correlate_cmd; merge_cmd; experiment_cmd; lint_cmd;
            serve_cmd; submit_cmd; status_cmd ]))
