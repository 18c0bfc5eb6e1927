(* The four workloads of the layer benchmark, the inputs of each round,
   one timed round, and the checks on its verdicts.

   A workload is measured in rounds.  One round is one complete
   campaign, from its spec to its verdict table: elaborate the Leon3
   system, prepare and run every program of the round, and digest the
   verdicts per (program, model) group.

   --seed seeds the inputs of every round: round k of seed s builds
   each program from a dataset of its own, drawn from a generator
   seeded with (s, k).  Rounds of one run therefore differ, and the
   median over a run's rounds averages over inputs as well as over
   host noise.  The fault sample is the library default's (seed 7):
   one round's cost moves by 5-10% between datasets, but by 30% and
   more between fault samples, since a sample with a few more hangs
   pays a few more watchdog budgets.

   The library is driven only through its public campaign entry
   points, with configs built from the library defaults plus sample
   size, seed and shard.  No acceleration toggle is ever set, so a
   change that retires a toggle cannot change what this benchmark
   measures. *)

module FC = Fault_injection.Campaign
module IC = Fault_injection.Iss_campaign
module J = Fault_injection.Journal
module Inj = Fault_injection.Injection
module C = Rtl.Circuit

type kind = Rtl_permanent of { gate : bool } | Transient | Iss_journal

(* [sites] is sites per fault model for permanent campaigns, injections
   per program for transient ones and sites per ISS model for ISS
   campaigns.  [checks] is how many verdicts of each round an oracle
   re-derives after the timed part. *)
type size = { programs : string list; sites : int; checks : int }

type t = { name : string; kind : kind; full : size; smoke : size }

let suite = [ "puwmod"; "canrdr"; "ttsprk"; "rspeed"; "membench"; "intbench" ]

(* Why each workload is here is recorded in the README: fig5-beh
   exercises batch lanes and the watchdog tail, fig5-gate the set-up
   (trace-recording golden run, static pass), seu-transient scalar
   replay and convergence with batching bypassed, and iss-journal the
   ISS engine and journal I/O with no RTL code at all.  fig5-gate
   runs the three programs whose gate-level cost holds steady across
   datasets: intbench's sampled faults include hangs that cost seconds
   each on 5,123 nodes, ttsprk's cost doubles on some datasets, and
   puwmod's set-up alone would take most of a round.  seu-transient
   takes 25 upsets per program: rounds half as long fit more datasets
   into a run, which narrowed the quartile spread of ten runs on a
   2-vCPU VM from 6-9% to 4-5%. *)
let all =
  [ { name = "fig5-beh";
      kind = Rtl_permanent { gate = false };
      full = { programs = suite; sites = 30; checks = 1 };
      smoke = { programs = [ "rspeed" ]; sites = 2; checks = 1 } };
    { name = "fig5-gate";
      kind = Rtl_permanent { gate = true };
      full = { programs = [ "rspeed"; "canrdr"; "membench" ]; sites = 10; checks = 1 };
      smoke = { programs = [ "rspeed" ]; sites = 1; checks = 1 } };
    { name = "seu-transient";
      kind = Transient;
      full = { programs = suite; sites = 25; checks = 1 };
      smoke = { programs = [ "rspeed" ]; sites = 3; checks = 1 } };
    { name = "iss-journal";
      kind = Iss_journal;
      full = { programs = suite; sites = 400; checks = 4 };
      smoke = { programs = [ "rspeed" ]; sites = 10; checks = 2 } } ]

let find name = List.find_opt (fun w -> w.name = name) all

let names = List.map (fun w -> w.name) all

let build_program ~dataset name =
  let e = Workloads.Suite.find name in
  e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset

let params ~gate = { Leon3.Core.default_params with Leon3.Core.gate_level = gate }

(* ---- round inputs ---- *)

(* Every program at its default iterations on a dataset of its own. *)
let inputs rng (size : size) =
  List.map
    (fun name -> (name, build_program ~dataset:(Stats.Rng.int rng 1_000_000) name))
    size.programs

(* ---- verdict digests ---- *)

type group = { program : string; model : string; count : int; digest : string }

let outcome_string = function
  | J.Silent -> "silent"
  | J.Failure (J.Wrong_write i) -> Printf.sprintf "wrong_write:%d" i
  | J.Failure (J.Missing_writes i) -> Printf.sprintf "missing_writes:%d" i
  | J.Failure (J.Trap c) -> Printf.sprintf "trap:%d" c
  | J.Failure J.Hang -> "hang"

(* Site, model, outcome, detection and injection cycle.  [sim] is left
   out: it records which layer decided the verdict, and an
   optimisation may legitimately change that. *)
let verdict_line (r : J.run_result) =
  Printf.sprintf "%s|%s|%s|%s|%d" r.J.site_name (C.fault_model_name r.J.model)
    (outcome_string r.J.outcome)
    (match r.J.detect_cycle with Some c -> string_of_int c | None -> "-")
    r.J.inject_cycle

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let verdict_group ~program ~model results =
  { program; model; count = List.length results;
    digest = digest (List.map verdict_line results) }

(* The transient campaign returns only its summary.  The digest covers
   the verdict fields; [skipped], [early_exits], [pruned] and
   [collapsed] are engine statistics an optimisation may change. *)
let transient_group ~program (s : FC.summary) =
  let fields =
    [ string_of_int s.FC.injections; string_of_int s.FC.failures; Printf.sprintf "%h" s.FC.pf;
      string_of_int s.FC.wrong_writes; string_of_int s.FC.missing_writes;
      string_of_int s.FC.traps; string_of_int s.FC.hangs; string_of_int s.FC.max_latency;
      Printf.sprintf "%h" s.FC.mean_latency ]
  in
  { program; model = C.fault_model_name C.Bit_flip; count = s.FC.injections;
    digest = digest fields }

(* ---- timing ---- *)

(* Library span aggregates that can nest inside one bench span, chosen
   so that none of them nests inside another: [tail.watchdog] and
   [tail.dense] sit inside [simulate]; [static.dominator] and
   [static.collapse] inside [static_analysis]. *)
let library_spans =
  [ "golden"; "static.graph"; "static_analysis"; "site_sampling"; "prefilter"; "simulate";
    "converge" ]

let attributed name = name ^ ".attributed"

(* The span aggregate every bench call adds to: the traced round's
   campaign time as its collector saw it. *)
let campaign_span = "bench.campaign"

type timer = {
  obs : Obs.t;
  mutable scaled : float;
  mutable scaled_setup : float;
  mutable raw : float;
}

let timer obs = { obs; scaled = 0.; scaled_setup = 0.; raw = 0. }

(* Run one public call: timed on the speed-scaled clock (and counted as
   set-up when [setup]), and, with a live collector, under a bench span
   [name] together with the part of it the library's own spans account
   for, under [attributed name]. *)
let call t ?(setup = false) name f =
  let traced () =
    if not (Obs.enabled t.obs) then f ()
    else begin
      let inside () =
        List.fold_left (fun a n -> a +. Obs.span_total t.obs n) 0. library_spans
      in
      let before = inside () and start = Obs.span_total t.obs name in
      let r = Obs.span t.obs name f in
      Obs.add_time t.obs (attributed name) (inside () -. before);
      Obs.add_time t.obs campaign_span (Obs.span_total t.obs name -. start);
      r
    end
  in
  let r, raw, scaled = Speed.timed traced in
  t.scaled <- t.scaled +. scaled;
  t.raw <- t.raw +. raw;
  if setup then t.scaled_setup <- t.scaled_setup +. scaled;
  r

(* ---- oracles ----

   Each returns how many verdicts it re-derived and the disagreements. *)

let max_cycles = 5_000_000

let disagreement ~program ~oracle ~got ~expected =
  if got = expected then None
  else Some (Printf.sprintf "%s: %s gives %s, campaign gave %s" program oracle got expected)

let pick rng count l =
  Array.to_list (Stats.Rng.sample_without_replacement rng count (Array.of_list l))

(* Permanent faults: verdicts drawn from the round are re-derived on
   the reference engine, a plain golden run (no coverage, trace or
   checkpoints) and a scalar faulty run without a replay plan, which
   every accelerated verdict must equal.  Hang verdicts are left out on
   the gate-level netlist, where one dense watchdog run costs seconds. *)
let check_permanent ~gate ~rng ~count programs per_program =
  let candidates =
    List.concat_map
      (fun (program, rs) ->
        List.filter_map
          (fun (r : J.run_result) ->
            if gate && r.J.outcome = J.Failure J.Hang then None else Some (program, r))
          rs)
      per_program
  in
  let sys = Leon3.System.create ~params:(params ~gate) () in
  let sites = Hashtbl.create 4096 in
  List.iter
    (fun s -> Hashtbl.replace sites s.Inj.site_name s)
    (Inj.sites (Leon3.System.core sys) Inj.Iu);
  let picks = pick rng count candidates in
  ( List.length picks,
    List.filter_map
      (fun (program, (expected : J.run_result)) ->
        let prog = List.assoc program programs in
        let got =
          FC.run_one sys prog (FC.golden_run sys prog ~max_cycles)
            ~inject_cycle:expected.J.inject_cycle
            (Hashtbl.find sites expected.J.site_name)
            expected.J.model
        in
        disagreement ~program ~oracle:"dense engine" ~got:(verdict_line got)
          ~expected:(verdict_line expected))
      picks )

(* One-cycle upsets.  The transient campaign reports only its summary,
   so upsets drawn from the round's programs are run twice: the way the
   campaign runs them (differential replay against a traced,
   checkpointed golden run) and on the reference engine. *)
let check_transient ~rng ~count programs =
  let sys = Leon3.System.create () in
  let plan = C.compiled_plan (Leon3.System.core sys).Leon3.Core.circuit in
  let pool = Array.of_list (Inj.sites (Leon3.System.core sys) Inj.Iu) in
  let programs = Array.of_list programs in
  let disagreements =
    List.init count (fun _ ->
        let program, prog = programs.(Stats.Rng.int rng (Array.length programs)) in
        let site = pool.(Stats.Rng.int rng (Array.length pool)) in
        let dense = FC.golden_run sys prog ~max_cycles in
        let replay = FC.golden_run ~trace:true ~checkpoint_every:512 sys prog ~max_cycles in
        let inject_cycle = Stats.Rng.int rng (max 1 dense.FC.cycles) in
        let verdict ?plan golden =
          verdict_line
            (FC.run_one ?plan sys prog golden ~inject_cycle ~duration:1 site C.Bit_flip)
        in
        disagreement ~program ~oracle:"dense engine" ~got:(verdict dense)
          ~expected:(verdict ~plan replay))
  in
  (count, List.filter_map Fun.id disagreements)

(* ISS verdicts: merged verdicts drawn from the round are re-run one by
   one on a fresh emulator, outside the journal, shard and merge path
   the campaign took. *)
let check_iss ~rng ~count ~config programs per_program =
  let picks =
    pick rng count
      (List.concat_map (fun (program, rs) -> List.map (fun r -> (program, r)) rs) per_program)
  in
  ( List.length picks,
    List.filter_map
      (fun (program, (expected : J.run_result)) ->
        let prog = List.assoc program programs in
        let golden = IC.golden_run prog in
        let site =
          Array.to_list (IC.sample_sites ~config golden prog)
          |> List.find (fun (s : IC.site) -> s.IC.site_name = expected.J.site_name)
        in
        let got = IC.run_one prog golden ~hang_factor:config.IC.hang_factor site in
        disagreement ~program ~oracle:"a lone ISS run" ~got:(verdict_line got)
          ~expected:(verdict_line expected))
      picks )

(* ---- rounds ---- *)

type round = {
  campaign_s : float;  (** spec to verdict table, at idle-host speed ({!Speed}) *)
  setup_s : float;  (** the part of [campaign_s] in System.create and the prepare calls *)
  wall_s : float;  (** [campaign_s] in plain wall seconds *)
  injections : int;
  peak_rss_mb : float;  (** the process's high-water mark when the campaign ended *)
  groups : group list;
  checked : int;  (** verdicts an oracle re-derived *)
  problems : string list;  (** checks that failed *)
}

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let count_problems ~expected ~what per_program =
  List.filter_map
    (fun (name, n) ->
      if n = expected then None
      else Some (Printf.sprintf "%s: %d %s, expected %d" name n what expected))
    per_program

(* Close the round: the memory high-water mark first, then the oracle,
   which runs outside the timing. *)
let finish t ~groups ~problems ~check =
  let peak = peak_rss_mb () in
  let checked, disagreements = check () in
  { campaign_s = t.scaled; setup_s = t.scaled_setup; wall_s = t.raw;
    injections = List.fold_left (fun a g -> a + g.count) 0 groups; peak_rss_mb = peak; groups;
    checked; problems = problems @ disagreements }

let rtl_round ~gate ~obs ~rng programs size =
  let t = timer obs in
  let sys =
    call t ~setup:true "leon3.elaborate" (fun () ->
        Leon3.System.create ~params:(params ~gate) ())
  in
  let config = { FC.default_config with FC.sample_size = Some size.sites } in
  let per_program =
    List.map
      (fun (name, prog) ->
        let prepared =
          call t ~setup:true "campaign.prepare" (fun () ->
              FC.prepare ~config ~obs sys prog Inj.Iu)
        in
        let _, results =
          call t "campaign.run" (fun () -> FC.run ~config ~obs ~prepared sys prog Inj.Iu)
        in
        (name, results))
      programs
  in
  let groups =
    List.concat_map
      (fun (program, results) ->
        List.map
          (fun m ->
            verdict_group ~program ~model:(C.fault_model_name m)
              (List.filter (fun r -> r.J.model = m) results))
          config.FC.models)
      per_program
  in
  finish t ~groups
    ~problems:
      (count_problems ~what:"verdicts"
         ~expected:(List.length config.FC.models * size.sites)
         (List.map (fun (n, rs) -> (n, List.length rs)) per_program))
    ~check:(fun () -> check_permanent ~gate ~rng ~count:size.checks programs per_program)

let summary_problems ~program (s : FC.summary) =
  let categories = s.FC.wrong_writes + s.FC.missing_writes + s.FC.traps + s.FC.hangs in
  if s.FC.failures = categories then []
  else [ Printf.sprintf "%s: %d failures, %d by category" program s.FC.failures categories ]

let transient_round ~obs ~rng programs size =
  let t = timer obs in
  let sys = call t ~setup:true "leon3.elaborate" (fun () -> Leon3.System.create ()) in
  let summaries =
    List.map
      (fun (name, prog) ->
        ( name,
          call t "campaign.run" (fun () ->
              FC.run_transient ~sample:size.sites ~obs sys prog Inj.Iu)
        ))
      programs
  in
  let groups = List.map (fun (program, s) -> transient_group ~program s) summaries in
  finish t ~groups
    ~problems:
      (List.concat_map (fun (program, s) -> summary_problems ~program s) summaries
      @ count_problems ~what:"injections" ~expected:size.sites
          (List.map (fun g -> (g.program, g.count)) groups))
    ~check:(fun () -> check_transient ~rng ~count:size.checks programs)

let file_size path = (Unix.stat path).Unix.st_size

(* Each program runs as two journaled shards (the write path), then
   the shard journals are loaded and merged and shard 1 is resumed
   from its complete journal (the read path).  The merged verdicts are
   the ones digested; the resumed shard must replay its verdicts
   byte-identically. *)
let iss_round ~obs ~rng ~dir programs size =
  let t = timer obs in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let config = { IC.default_config with IC.samples_per_model = size.sites } in
  let per_program =
    List.map
      (fun (name, prog) ->
        let prepared =
          call t ~setup:true "iss_campaign.prepare" (fun () -> IC.prepare ~config ~obs prog)
        in
        let shard i = { config with IC.shard = (i, 2) } in
        let path i = Filename.concat dir (Printf.sprintf "%s.shard%d.jsonl" name i) in
        let shard_results =
          List.map
            (fun i ->
              snd
                (call t "iss_campaign.run" (fun () ->
                     IC.run ~config:(shard i) ~obs ~prepared ~journal:(path i) prog)))
            [ 1; 2 ]
        in
        Obs.incr obs ~by:(file_size (path 1) + file_size (path 2)) "journal.bytes";
        let loaded =
          call t "journal.load" (fun () ->
              List.map
                (fun i ->
                  match J.load (path i) with
                  | Ok j -> j
                  | Error m -> failwith (Printf.sprintf "%s: %s" name m))
                [ 1; 2 ])
        in
        let merged =
          match call t "journal.merge" (fun () -> J.merge loaded) with
          | Ok (_, merged) -> merged
          | Error m ->
              problem "%s: merge failed: %s" name m;
              []
        in
        let _, resumed =
          call t "journal.resume" (fun () ->
              IC.run ~config:(shard 1) ~obs ~prepared ~journal:(path 1) ~resume:true prog)
        in
        if resumed <> List.hd shard_results then
          problem "%s: resumed shard 1 differs from its journaled run" name;
        (name, merged))
      programs
  in
  let groups =
    List.concat_map
      (fun (program, merged) ->
        List.map
          (fun m ->
            verdict_group ~program ~model:(IC.model_name m)
              (List.filter (fun r -> IC.model_of_site_name r.J.site_name = Some m) merged))
          config.IC.models)
      per_program
  in
  finish t ~groups
    ~problems:
      (List.rev !problems
      @ count_problems ~what:"merged verdicts"
          ~expected:(List.length config.IC.models * size.sites)
          (List.map (fun (n, rs) -> (n, List.length rs)) per_program))
    ~check:(fun () -> check_iss ~rng ~count:size.checks ~config programs per_program)

(* Round [round] of seed [seed], with [obs] as the library's collector
   and [dir] for journals.  The oracle draws from the round's generator
   after the inputs do, so its picks too are fixed by (seed, round). *)
let run w ~obs ~dir ~seed ~round size =
  let rng = Stats.Rng.create ((seed * 1_000_003) + round) in
  let programs = inputs rng size in
  match w.kind with
  | Rtl_permanent { gate } -> rtl_round ~gate ~obs ~rng programs size
  | Transient -> transient_round ~obs ~rng programs size
  | Iss_journal -> iss_round ~obs ~rng ~dir programs size
