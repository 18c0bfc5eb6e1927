(* Tests for injection-point enumeration and the campaign engine. *)

module A = Sparc.Asm
module I = Sparc.Isa
module C = Rtl.Circuit
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_sys = lazy (Leon3.System.create ())

let small_prog =
  lazy
    (let b = A.create ~name:"small" () in
     A.prologue b;
     A.mov b (Imm 0) I.o0;
     A.mov b (Imm 0) I.o1;
     A.label b "loop";
     A.op3 b I.Add I.o0 (Reg I.o1) I.o0;
     A.op3 b I.Add I.o1 (Imm 1) I.o1;
     A.cmp b I.o1 (Imm 8);
     A.branch b I.Bne "loop";
     A.set32 b Sparc.Layout.result_base I.o2;
     A.st b I.St I.o0 I.o2 (Imm 0);
     A.halt b I.o0;
     A.assemble b)

(* ---- site enumeration ---- *)

let test_pools_nonempty () =
  let core = Leon3.System.core (Lazy.force shared_sys) in
  let iu = Injection.sites core Injection.Iu in
  let cmem = Injection.sites core Injection.Cmem in
  check_bool "iu pool large" true (List.length iu > 1000);
  check_bool "cmem pool large" true (List.length cmem > 1000);
  let iu_sig = Injection.sites ~include_cells:false core Injection.Iu in
  check_bool "cells add sites" true (List.length iu > List.length iu_sig)

let test_unit_attribution_roundtrip () =
  (* Every enumerated site must attribute back to the unit whose pool
     it came from, for every unit — the prefix table and the site
     enumeration share one source of truth. *)
  let roundtrip core =
    List.iter
      (fun u ->
        let sites = Injection.sites core (Injection.Unit_of u) in
        check_bool (Sparc.Units.name u ^ " pool non-empty") true (sites <> []);
        List.iter
          (fun s ->
            match Injection.unit_of_site_name s.Injection.site_name with
            | Some u' when u' = u -> ()
            | Some u' ->
                Alcotest.failf "%s attributed to %s, expected %s"
                  s.Injection.site_name (Sparc.Units.name u') (Sparc.Units.name u)
            | None -> Alcotest.failf "%s attributed to no unit" s.Injection.site_name)
          sites)
      Sparc.Units.all
  in
  roundtrip (Leon3.System.core (Lazy.force shared_sys));
  (* the gate-level elaboration adds per-unit gates.* subtrees plus the
     cross-unit iu.gates.{operand,alu} scopes; every site must still
     attribute to its unit (iu.ex.adder.gates.* to the adder), and the
     cross-unit scopes must be enumerated with their owning unit's
     pool *)
  let full_gate_core =
    Leon3.Core.build
      ~params:{ Leon3.Core.default_params with Leon3.Core.gate_level = true }
      ()
  in
  roundtrip full_gate_core;
  let has prefix =
    List.exists (fun s -> String.starts_with ~prefix s.Injection.site_name)
  in
  let adder_sites =
    Injection.sites full_gate_core (Injection.Unit_of Sparc.Units.Adder)
  in
  check_bool "gate network enumerated" true (has "iu.ex.adder.gates." adder_sites);
  check_bool "alu cross-unit gates in adder pool" true
    (has "iu.gates.alu." adder_sites);
  let rf_sites =
    Injection.sites full_gate_core (Injection.Unit_of Sparc.Units.Regfile)
  in
  check_bool "operand fabric in regfile pool" true
    (has "iu.gates.operand." rf_sites);
  check_bool "alu tap attribution" true
    (Injection.unit_of_site_name "iu.gates.alu.op1b17[0]"
    = Some Sparc.Units.Adder);
  check_bool "operand mux attribution" true
    (Injection.unit_of_site_name "iu.gates.operand.op2m3[0]"
    = Some Sparc.Units.Regfile);
  check_bool "decode PLA term attribution" true
    (Injection.unit_of_site_name "iu.de.gates.t_a00[0]" = Some Sparc.Units.Decode);
  (* memory cells attribute through their array suffixes *)
  check_bool "regfile cell" true
    (Injection.unit_of_site_name "iu.regfile.regs[5][31]" = Some Sparc.Units.Regfile);
  (* names outside every registered prefix attribute to nothing *)
  check_bool "unknown prefix" true (Injection.unit_of_site_name "zz.mystery[0]" = None);
  check_bool "empty name" true (Injection.unit_of_site_name "" = None)

let test_pool_sizes_cover_everything () =
  let core = Leon3.System.core (Lazy.force shared_sys) in
  let sizes = Injection.pool_sizes core in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 sizes in
  let iu = List.length (Injection.sites core Injection.Iu) in
  let cmem = List.length (Injection.sites core Injection.Cmem) in
  check_int "per-unit sizes sum to the two blocks" (iu + cmem) total;
  (* the register file (with its cells) must dominate the IU, like a
     real windowed file dominates an integer unit's bit count *)
  check_bool "regfile biggest IU unit" true
    (List.assoc Sparc.Units.Regfile sizes > List.assoc Sparc.Units.Adder sizes)

(* A sample draws from the unnamed pool and names what it drew: the
   same sites, in the same order, as drawing from the named pool, and
   the generator is left where that draw leaves it (a transient
   campaign goes on to draw its upset cycles from it). *)
let test_sample_names_only_drawn () =
  let core = Leon3.System.core (Lazy.force shared_sys) in
  let key (s : Injection.site) = (s.Injection.fault_site, s.Injection.site_name) in
  List.iter
    (fun (target, include_cells) ->
      let pool = Array.of_list (Injection.sites ~include_cells core target) in
      let n = Array.length pool in
      List.iter
        (fun seed ->
          List.iter
            (fun k ->
              let label =
                Printf.sprintf "%s cells %b seed %d k %s" (Injection.target_name target)
                  include_cells seed
                  (match k with Some k -> string_of_int k | None -> "all")
              in
              let ra = Stats.Rng.create seed and rb = Stats.Rng.create seed in
              let drawn = Injection.sample ~include_cells core target ra k in
              let expected =
                match k with
                | Some k when k < n -> Stats.Rng.sample_without_replacement rb k pool
                | Some _ | None -> pool
              in
              check_bool (label ^ ": same sample") true
                (Array.map key drawn = Array.map key expected);
              check_int (label ^ ": same generator state") (Stats.Rng.int rb 1_000_000)
                (Stats.Rng.int ra 1_000_000))
            [ Some 1; Some 30; Some (n - 1); Some n; Some (n + 7); None ])
        [ 1; 7; 13 ])
    [ (Injection.Iu, true); (Injection.Iu, false); (Injection.Cmem, true);
      (Injection.Cmem, false); (Injection.Unit_of Sparc.Units.Adder, true);
      (Injection.Prefix "iu.ctrl.", false) ]

(* ---- golden runs ---- *)

let test_golden_run () =
  let sys = Lazy.force shared_sys in
  let golden = Campaign.golden_run sys (Lazy.force small_prog) ~max_cycles:100_000 in
  check_bool "has writes" true (Array.length golden.Campaign.writes >= 2);
  check_bool "cycles positive" true (golden.Campaign.cycles > 0);
  (* golden of a hanging program is a workload bug, not a result *)
  let b = A.create ~name:"hang" () in
  A.label b "spin";
  A.branch b I.Ba "spin";
  let hang = A.assemble b in
  Alcotest.check_raises "hanging golden rejected"
    (Failure "golden run hit the cycle limit") (fun () ->
      ignore (Campaign.golden_run sys hang ~max_cycles:2_000))

(* ---- single runs ---- *)

let find_site core name =
  let sites = Injection.sites core Injection.Iu in
  List.find (fun s -> s.Injection.site_name = name) sites

let test_fault_on_pc_fails () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden = Campaign.golden_run sys prog ~max_cycles:100_000 in
  let site = find_site (Leon3.System.core sys) "iu.fe.pc[2]" in
  let r = Campaign.run_one sys prog golden site C.Stuck_at_1 in
  check_bool "pc fault is a failure" true (r.Campaign.outcome <> Campaign.Silent)

let test_fault_on_divider_is_silent_without_div () =
  (* The small program never divides: faults inside the divider's
     quotient datapath cannot reach the outputs. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden = Campaign.golden_run sys prog ~max_cycles:100_000 in
  let core = Leon3.System.core sys in
  let sites = Injection.sites core (Injection.Unit_of Sparc.Units.Divider) in
  let quotient_sites =
    List.filter
      (fun s ->
        String.length s.Injection.site_name >= 19
        && String.sub s.Injection.site_name 0 19 = "iu.ex.div.quotient[")
      sites
  in
  check_bool "quotient bits exist" true (List.length quotient_sites = 32);
  List.iter
    (fun site ->
      let r = Campaign.run_one sys prog golden site C.Stuck_at_1 in
      check_bool ("silent: " ^ site.Injection.site_name) true
        (r.Campaign.outcome = Campaign.Silent))
    quotient_sites

let test_latency_measured_on_failures () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden = Campaign.golden_run sys prog ~max_cycles:100_000 in
  let site = find_site (Leon3.System.core sys) "iu.fe.pc[2]" in
  let r = Campaign.run_one sys prog golden site C.Stuck_at_1 in
  match (r.Campaign.outcome, r.Campaign.detect_cycle) with
  | Campaign.Failure _, Some cyc -> check_bool "latency positive" true (cyc > 0)
  | Campaign.Failure _, None -> Alcotest.fail "failure without detect cycle"
  | Campaign.Silent, _ -> Alcotest.fail "expected a failure"

let test_injection_instant_honoured () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden = Campaign.golden_run sys prog ~max_cycles:100_000 in
  (* injecting after the program finished is necessarily silent *)
  let site = find_site (Leon3.System.core sys) "iu.fe.pc[2]" in
  let r =
    Campaign.run_one sys prog golden ~inject_cycle:(golden.Campaign.cycles + 1000) site
      C.Stuck_at_1
  in
  check_bool "late injection silent" true (r.Campaign.outcome = Campaign.Silent)

(* ---- summaries and campaign ---- *)

let test_summarize () =
  let mk ?(sim = Campaign.Simulated) outcome detect_cycle =
    { Campaign.site_name = "s"; model = C.Stuck_at_1; outcome; detect_cycle;
      inject_cycle = 0; sim }
  in
  let results =
    [ mk Campaign.Silent None;
      mk ~sim:Campaign.Prefiltered Campaign.Silent None;
      mk ~sim:(Campaign.Converged 512) Campaign.Silent None;
      mk (Campaign.Failure (Campaign.Wrong_write 3)) (Some 100);
      mk (Campaign.Failure (Campaign.Trap 2)) (Some 50);
      mk (Campaign.Failure Campaign.Hang) (Some 9999) ]
  in
  let s = Campaign.summarize results in
  check_int "injections" 6 s.Campaign.injections;
  check_int "failures" 3 s.Campaign.failures;
  Alcotest.(check (float 1e-9)) "pf" 0.5 s.Campaign.pf;
  check_int "wrong writes" 1 s.Campaign.wrong_writes;
  check_int "traps" 1 s.Campaign.traps;
  check_int "hangs" 1 s.Campaign.hangs;
  check_int "skipped" 1 s.Campaign.skipped;
  check_int "early exits" 1 s.Campaign.early_exits;
  (* hang latency excluded: max over {100, 50} *)
  check_int "max latency" 100 s.Campaign.max_latency

let test_summarize_empty () =
  let s = Campaign.summarize [] in
  check_int "injections" 0 s.Campaign.injections;
  check_int "failures" 0 s.Campaign.failures;
  Alcotest.(check (float 1e-9)) "pf" 0. s.Campaign.pf;
  check_int "skipped" 0 s.Campaign.skipped;
  check_int "early exits" 0 s.Campaign.early_exits;
  check_int "max latency" 0 s.Campaign.max_latency;
  Alcotest.(check (float 1e-9)) "mean latency" 0. s.Campaign.mean_latency

let test_summarize_all_hangs () =
  (* Hang latencies are excluded from the latency statistics: a
     campaign of only hangs has failures but no measured latency. *)
  let mk i =
    { Campaign.site_name = Printf.sprintf "s%d" i; model = C.Stuck_at_1;
      outcome = Campaign.Failure Campaign.Hang; detect_cycle = Some 9999;
      inject_cycle = 0; sim = Campaign.Simulated }
  in
  let s = Campaign.summarize (List.init 5 mk) in
  check_int "injections" 5 s.Campaign.injections;
  check_int "failures" 5 s.Campaign.failures;
  check_int "hangs" 5 s.Campaign.hangs;
  Alcotest.(check (float 1e-9)) "pf" 1. s.Campaign.pf;
  check_int "max latency" 0 s.Campaign.max_latency;
  Alcotest.(check (float 1e-9)) "mean latency" 0. s.Campaign.mean_latency

let test_summarize_sim_status_counts () =
  let mk ~sim i =
    { Campaign.site_name = Printf.sprintf "s%d" i; model = C.Stuck_at_1;
      outcome = Campaign.Silent; detect_cycle = None; inject_cycle = 0; sim }
  in
  let results =
    List.init 3 (mk ~sim:Campaign.Prefiltered)
    @ List.init 2 (fun i -> mk ~sim:(Campaign.Converged (i * 100)) i)
    @ List.init 4 (mk ~sim:Campaign.Simulated)
  in
  let s = Campaign.summarize results in
  check_int "injections" 9 s.Campaign.injections;
  check_int "skipped counts prefiltered" 3 s.Campaign.skipped;
  check_int "early exits counts converged" 2 s.Campaign.early_exits;
  check_int "no failures" 0 s.Campaign.failures

let test_campaign_end_to_end () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_1; C.Stuck_at_0 ];
      sample_size = Some 40 }
  in
  let progress = ref 0 in
  let summaries, results =
    Campaign.run ~config ~on_progress:(fun ~done_:_ ~total:_ -> incr progress) sys prog
      Injection.Iu
  in
  check_int "two models" 2 (List.length summaries);
  check_int "results = 2 * sample" 80 (List.length results);
  check_int "progress calls" 80 !progress;
  List.iter
    (fun (_, s) ->
      check_int "per-model injections" 40 s.Campaign.injections;
      check_bool "pf in range" true (s.Campaign.pf >= 0. && s.Campaign.pf <= 1.))
    summaries;
  (* determinism: same config, same results *)
  let summaries', _ = Campaign.run ~config sys prog Injection.Iu in
  List.iter2
    (fun (m, s) (m', s') ->
      check_bool "model order" true (m = m');
      check_int "deterministic failures" s.Campaign.failures s'.Campaign.failures)
    summaries summaries'

let test_parallel_matches_sequential () =
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_1; C.Open_line ];
      sample_size = Some 30 }
  in
  let seq_summaries, seq_results =
    Campaign.run ~config (Lazy.force shared_sys) prog Injection.Iu
  in
  let par_summaries, par_results =
    Campaign.run_parallel ~config ~domains:2 (fun () -> Leon3.System.create ()) prog
      Injection.Iu
  in
  List.iter2
    (fun (m, s) (m', s') ->
      check_bool "model" true (m = m');
      check_int "failures equal" s.Campaign.failures s'.Campaign.failures;
      check_int "injections equal" s.Campaign.injections s'.Campaign.injections)
    seq_summaries par_summaries;
  (* per-run verdicts are identical, order included *)
  check_int "result count" (List.length seq_results) (List.length par_results);
  let key (r : Campaign.run_result) = (r.Campaign.site_name, r.Campaign.model, r.Campaign.outcome) in
  check_bool "verdicts identical" true
    (List.sort compare (List.map key seq_results)
    = List.sort compare (List.map key par_results))

let test_transient_campaign () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let s = Campaign.run_transient ~sample:60 ~seed:3 sys prog Injection.Iu in
  check_int "sampled" 60 s.Campaign.injections;
  check_bool "pf bounded" true (s.Campaign.pf >= 0. && s.Campaign.pf <= 1.);
  (* transients must propagate no more often than permanent SA1 *)
  let golden = Campaign.golden_run sys prog ~max_cycles:100_000 in
  let config =
    { Campaign.default_config with
      Campaign.models = [ Rtl.Circuit.Stuck_at_1 ];
      sample_size = Some 60;
      seed = 3 }
  in
  ignore golden;
  let summaries, _ = Campaign.run ~config sys prog Injection.Iu in
  let permanent = List.assoc Rtl.Circuit.Stuck_at_1 summaries in
  check_bool "transient <= permanent" true (s.Campaign.pf <= permanent.Campaign.pf)

let test_campaign_same_sites_across_models () =
  (* The same sampled sites are used for every model (paired design). *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_1; C.Open_line ];
      sample_size = Some 25 }
  in
  let _, results = Campaign.run ~config sys prog Injection.Iu in
  let names_of model =
    List.filter_map
      (fun (r : Campaign.run_result) ->
        if r.Campaign.model = model then Some r.Campaign.site_name else None)
      results
  in
  Alcotest.(check (list string))
    "paired sites"
    (names_of C.Stuck_at_1)
    (names_of C.Open_line)

(* ---- result projections ---- *)

(* Verdict-relevant projection of a result: everything except the
   [sim] status, which records which layer decided the verdict. *)
let verdict (r : Campaign.run_result) =
  (r.Campaign.site_name, r.Campaign.model, r.Campaign.outcome, r.Campaign.detect_cycle,
   r.Campaign.inject_cycle)

let core_summary (s : Campaign.summary) =
  (s.Campaign.injections, s.Campaign.failures, s.Campaign.pf, s.Campaign.wrong_writes,
   s.Campaign.missing_writes, s.Campaign.traps, s.Campaign.hangs,
   s.Campaign.max_latency, s.Campaign.mean_latency)

(* ---- reference equivalence ----

   Every acceleration layer of the campaign engine (activation
   prefilter, static pruning and collapsing, bit-parallel batching with
   its convergence exit and its trace-end hand-over) is always on, so
   its exactness is checked the way [bench/layers] checks it:
   each campaign verdict is re-derived on the dense reference oracle,
   [Campaign.run_one] without a replay plan against a golden run with
   no coverage or trace. *)

let rspeed =
  lazy ((Workloads.Suite.find "rspeed").Workloads.Suite.build ~iterations:1 ~dataset:0)

let dense_golden sys prog = Campaign.golden_run sys prog ~max_cycles:5_000_000

(* Re-derive each verdict of a campaign over [target] on the oracle,
   comparing reads when the campaign did; [skip] leaves verdicts out
   (hangs on the gate-level netlist, where one dense watchdog run costs
   seconds). *)
let check_against_oracle ?(skip = fun _ -> false) ?(compare_reads = false) ~label ~target sys
    prog results =
  let dense = dense_golden sys prog in
  let sites = Hashtbl.create 4096 in
  List.iter
    (fun s -> Hashtbl.replace sites s.Injection.site_name s)
    (Injection.sites (Leon3.System.core sys) target);
  let checked = ref 0 in
  List.iter
    (fun (r : Campaign.run_result) ->
      if not (skip r) then begin
        incr checked;
        let got =
          Campaign.run_one sys prog dense ~inject_cycle:r.Campaign.inject_cycle ~compare_reads
            (Hashtbl.find sites r.Campaign.site_name)
            r.Campaign.model
        in
        check_bool
          (Printf.sprintf "%s: %s %s = dense" label r.Campaign.site_name
             (C.fault_model_name r.Campaign.model))
          true
          (verdict got = verdict r)
      end)
    results;
  !checked

let reference_config ~sites =
  { Campaign.default_config with
    Campaign.models = [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line ];
    sample_size = Some sites }

let test_behavioural_matches_oracle () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  let config = reference_config ~sites:16 in
  let obs = Obs.create () in
  let summaries, seq = Campaign.run ~config ~obs sys prog Injection.Iu in
  let checked = check_against_oracle ~label:"run" ~target:Injection.Iu sys prog seq in
  check_int "every verdict checked" (List.length seq) checked;
  List.iter
    (fun (m, s) ->
      check_bool "summary = summary of the verdicts" true
        (core_summary s
        = core_summary
            (Campaign.summarize (List.filter (fun r -> r.Campaign.model = m) seq))))
    summaries;
  (* the parallel and sharded paths return the same verdicts, hence the
     oracle's too *)
  let _, par =
    Campaign.run_parallel ~config ~domains:3 (fun () -> Leon3.System.create ()) prog
      Injection.Iu
  in
  check_bool "run_parallel ~domains:3 = run" true
    (List.map verdict par = List.map verdict seq);
  let shard k =
    snd (Campaign.run ~config:{ config with Campaign.shard = (k, 2) } sys prog Injection.Iu)
  in
  let sharded = shard 1 @ shard 2 in
  check_bool "2-shard split = run" true
    (List.sort compare (List.map verdict sharded) = List.sort compare (List.map verdict seq));
  (* the layers did the work: the prefilter decided a fifth of the
     injections, batches ran, replays evaluated a fraction of the dense
     sweeps, and every lane the batch ejected was continued from its
     transplanted state — some of them dense lanes that left before
     trace end, so the oracle checked verdicts decided after a
     mid-trace hand-over *)
  let total = Obs.counter obs "injections" in
  let skipped = Obs.counter obs "prefiltered" in
  check_bool
    (Printf.sprintf "prefilter skips >= 20%% (%d/%d)" skipped total)
    true
    (skipped * 5 >= total);
  check_bool "batch passes ran" true (Obs.counter obs "batch.passes" > 0);
  check_bool "dirty cone much smaller than dense sweep" true
    (Obs.counter obs "diff.nodes_evaluated" * 2 < Obs.counter obs "diff.golden_evaluated");
  check_int "every ejected lane transplanted" (Obs.counter obs "batch.ejected")
    (Obs.counter obs "tail.transplants");
  check_bool "dense lanes left before trace end" true
    (Obs.counter obs "batch.ejected_dense" > 0)

(* Comparing reads is off in every benchmark workload, and its faults
   run as batch lanes like any other: a campaign with it on must still
   equal the oracle with it on, verdict by verdict. *)
let test_compare_reads_matches_oracle () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  let config = { (reference_config ~sites:12) with Campaign.compare_reads = true } in
  let obs = Obs.create () in
  let _, results = Campaign.run ~config ~obs sys prog Injection.Iu in
  let checked =
    check_against_oracle ~compare_reads:true ~label:"compare-reads" ~target:Injection.Iu sys
      prog results
  in
  check_int "every verdict checked" (List.length results) checked;
  check_bool "compare-reads faults ran as batch lanes" true
    (Obs.counter obs "batch.passes" > 0)

(* The cache block is where a lane's bus request logic and port
   drivers leave golden's: a cache-cell or tag fault changes which
   lines miss, so the lane's bus traffic differs and it runs outside
   the batch's follow set.  A CMEM campaign must equal the oracle
   verdict by verdict, comparing reads or not, and must drive some but
   not all of its lane-cycles per lane. *)
let test_cmem_matches_oracle () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  List.iter
    (fun compare_reads ->
      let config = { (reference_config ~sites:24) with Campaign.compare_reads } in
      let obs = Obs.create () in
      let _, results = Campaign.run ~config ~obs sys prog Injection.Cmem in
      let label = if compare_reads then "cmem compare-reads" else "cmem" in
      check_int (label ^ ": every verdict checked") (List.length results)
        (check_against_oracle ~compare_reads ~label ~target:Injection.Cmem sys prog results);
      let total = Obs.counter obs "batch.lane_cycles"
      and driven = Obs.counter obs "batch.driven_lane_cycles" in
      check_bool
        (Printf.sprintf "%s: 0 < driven lane-cycles (%d) < lane-cycles (%d)" label driven total)
        true
        (0 < driven && driven < total))
    [ false; true ]

(* ---- open lines ride their stuck-at lane ----

   A permanent open line holds the bit it captures when the fault first
   acts, so the campaign runs it as the stuck-at of golden's bit there:
   a node's at the first settle under the fault, cycle [max c 1] (the
   cycle-0 settle inside [load] runs before the fault is armed), a
   cell's at cycle [c], the content its first write under the fault
   keeps.  The dense oracle runs the native open-line rule, so these
   campaigns pin that capture point. *)

(* Golden's bit of every site of [target] at each of [cycles]. *)
let golden_bits sys prog target cycles =
  let sites = Injection.sites (Leon3.System.core sys) target in
  let capture =
    List.concat_map (fun k -> List.map (fun s -> (k, s.Injection.fault_site)) sites) cycles
  in
  let golden = Campaign.golden_run ~capture sys prog ~max_cycles:5_000_000 in
  fun k site -> Hashtbl.find golden.Campaign.captures (k, site)

let lane_leader (r : Campaign.run_result) =
  match r.Campaign.sim with
  | Campaign.Collapsed leader -> leader
  | Campaign.Simulated | Campaign.Prefiltered | Campaign.Converged _ | Campaign.Pruned ->
      r.Campaign.site_name

let sa = function 0 -> C.Stuck_at_0 | _ -> C.Stuck_at_1

(* Every open-line task of a campaign over [target] that reached
   simulation is a follower in the lane of its own site's stuck-at of
   the captured bit, with that task's verdict; no open line runs a lane
   of its own.  Returns the captured bits of the followers. *)
let check_open_lines_follow ~label ~target ~inject_cycle sys prog obs results =
  let at = max inject_cycle 1 in
  let bit = golden_bits sys prog target [ inject_cycle; at ] in
  let sites = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace sites s.Injection.site_name s.Injection.fault_site)
    (Injection.sites (Leon3.System.core sys) target);
  let find name model =
    List.find
      (fun (r : Campaign.run_result) ->
        r.Campaign.site_name = name && r.Campaign.model = model)
      results
  in
  let bits =
    List.filter_map
      (fun (r : Campaign.run_result) ->
        match (r.Campaign.model, r.Campaign.sim) with
        | C.Open_line, (Campaign.Prefiltered | Campaign.Pruned) -> None
        | C.Open_line, sim ->
            let name = r.Campaign.site_name in
            let v =
              match Hashtbl.find sites name with
              | C.Node _ as site -> bit at site
              | C.Cell _ as site -> bit inject_cycle site
            in
            let lead = find name (sa v) in
            check_bool (Printf.sprintf "%s: %s open line is a follower" label name) true
              (match sim with
              | Campaign.Collapsed _ -> true
              | Campaign.Simulated | Campaign.Prefiltered | Campaign.Converged _
              | Campaign.Pruned ->
                  false);
            check_bool
              (Printf.sprintf "%s: %s open line rides the stuck-at-%d lane" label name v)
              true
              (lane_leader r = lane_leader lead
              && r.Campaign.outcome = lead.Campaign.outcome
              && r.Campaign.detect_cycle = lead.Campaign.detect_cycle);
            Some v
        | (C.Stuck_at_0 | C.Stuck_at_1 | C.Bit_flip), _ -> None)
      results
  in
  check_int (label ^ ": one lane per simulated leader")
    (List.length
       (List.filter (fun (r : Campaign.run_result) -> r.Campaign.sim = Campaign.Simulated)
          results))
    (Obs.counter obs "batch.lanes");
  bits

(* The cache controller's state bits leave reset in the first cycle:
   [in_idle] falls and [in_fill] rises between cycles 0 and 1.  So at
   injection cycle 0 an open line there is the stuck-at of its cycle-1
   value, not of the value [load] settles to. *)
let test_open_line_capture_at_cycle_0 () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  let target = Injection.Prefix "cmem.icache.in_" in
  let config = { (reference_config ~sites:10) with Campaign.sample_size = None } in
  let obs = Obs.create () in
  let _, results = Campaign.run ~config ~obs sys prog target in
  check_int "every verdict checked" (List.length results)
    (check_against_oracle ~label:"cmem.icache.in_ @0" ~target sys prog results);
  let bits =
    check_open_lines_follow ~label:"cmem.icache.in_ @0" ~target ~inject_cycle:0 sys prog obs
      results
  in
  let bit = golden_bits sys prog target [ 0; 1 ] in
  let moves =
    List.filter
      (fun s -> bit 0 s.Injection.fault_site <> bit 1 s.Injection.fault_site)
      (Injection.sites (Leon3.System.core sys) target)
  in
  check_bool "sites move between cycles 0 and 1" true (List.length moves >= 2);
  check_bool "open lines collapsed onto both polarities" true
    (List.mem 0 bits && List.mem 1 bits)

(* Past cycle 0 both capture points are cycle [c]: IU and CMEM
   campaigns injecting at cycles 1 and 1000, cells included, equal the
   oracle verdict by verdict, and their open lines follow the stuck-at
   lanes of their captured bits. *)
let test_open_line_capture_after_cycle_0 () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  List.iter
    (fun (inject_cycle, target, label) ->
      let label = Printf.sprintf "%s @%d" label inject_cycle in
      let config = { (reference_config ~sites:10) with Campaign.inject_cycle; seed = 5 } in
      let obs = Obs.create () in
      let _, results = Campaign.run ~config ~obs sys prog target in
      check_int (label ^ ": every verdict checked") (List.length results)
        (check_against_oracle ~label ~target sys prog results);
      ignore (check_open_lines_follow ~label ~target ~inject_cycle sys prog obs results))
    [ (1, Injection.Iu, "iu");
      (1, Injection.Cmem, "cmem");
      (1000, Injection.Iu, "iu");
      (1000, Injection.Cmem, "cmem") ]

(* A cell captures its content at cycle [c], before the write of the
   clock c -> c+1.  The IU sample is redrawn here exactly as the
   campaign draws it, and the campaign injects at the first cycle whose
   clock rewrites a sampled register-file cell's bit, then one cycle
   later: reading the content one cycle late, then one cycle early,
   picks the other stuck-at. *)
let test_open_line_cell_capture () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  let core = Leon3.System.core sys in
  let config = reference_config ~sites:10 in
  let sample =
    Stats.Rng.sample_without_replacement
      (Stats.Rng.create config.Campaign.seed)
      10
      (Array.of_list (Injection.sites core Injection.Iu))
  in
  let cells =
    List.filter_map
      (fun s ->
        match s.Injection.fault_site with
        | C.Cell (m, idx, bit) -> Some (s.Injection.site_name, m, idx, bit)
        | C.Node _ -> None)
      (Array.to_list sample)
  in
  let circuit = core.Leon3.Core.circuit in
  let bits () =
    List.map (fun (_, m, idx, bit) -> (C.mem_read circuit m idx lsr bit) land 1) cells
  in
  Leon3.System.load sys prog;
  let rec first_write before =
    let c = Leon3.System.cycles sys in
    match Leon3.System.run_segment sys ~until_cycle:(c + 1) ~max_cycles:5_000_000 with
    | Some _ -> Alcotest.fail "no sampled cell bit is ever rewritten"
    | None ->
        let after = bits () in
        if after = before then first_write after
        else
          ( c,
            List.filter_map
              (fun ((name, _, _, _), (b0, b1)) -> if b0 <> b1 then Some name else None)
              (List.combine cells (List.combine before after)) )
  in
  let written, rewritten = first_write (bits ()) in
  check_bool "the write is past cycle 0" true (written > 0);
  List.iter
    (fun inject_cycle ->
      let label = Printf.sprintf "iu @%d" inject_cycle in
      let config = { config with Campaign.inject_cycle } in
      let obs = Obs.create () in
      let _, results = Campaign.run ~config ~obs sys prog Injection.Iu in
      check_int (label ^ ": every verdict checked") (List.length results)
        (check_against_oracle ~label ~target:Injection.Iu sys prog results);
      ignore
        (check_open_lines_follow ~label ~target:Injection.Iu ~inject_cycle sys prog obs
           results);
      List.iter
        (fun name ->
          check_bool (Printf.sprintf "%s: %s open line ran" label name) true
            (List.exists
               (fun (r : Campaign.run_result) ->
                 r.Campaign.site_name = name && r.Campaign.model = C.Open_line
                 && match r.Campaign.sim with
                    | Campaign.Collapsed _ -> true
                    | Campaign.Simulated | Campaign.Prefiltered | Campaign.Converged _
                    | Campaign.Pruned ->
                        false)
               results))
        rewritten)
    [ written; written + 1 ]

(* An open line and the stuck-at of the bit it captures share one
   lane: the open line follows as [Collapsed], and each verdict is its
   own dense run's.  The IU control state moves around cycle 1000, so
   the capture cycle decides which stuck-at is right, and it holds
   both polarities there. *)
let test_open_line_shares_stuck_at_lane () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  let inject_cycle = 1000 in
  let target = Injection.Prefix "iu.ctrl.state" in
  let config =
    { (reference_config ~sites:10) with Campaign.sample_size = None; inject_cycle }
  in
  let obs = Obs.create () in
  let _, results = Campaign.run ~config ~obs sys prog target in
  check_int "every verdict checked" (List.length results)
    (check_against_oracle ~label:"pair" ~target sys prog results);
  let bits =
    check_open_lines_follow ~label:"pair" ~target ~inject_cycle sys prog obs results
  in
  check_bool "a site holding 1 at capture" true (List.mem 1 bits);
  check_bool "a site holding 0 at capture" true (List.mem 0 bits);
  check_int "followers counted as collapsed" (List.length bits)
    (Obs.counter obs "static.collapsed");
  let c = inject_cycle in
  let bit = golden_bits sys prog target [ c - 1; c; c + 1 ] in
  check_bool "some site moves around the injection cycle" true
    (List.exists
       (fun s ->
         let at k = bit k s.Injection.fault_site in
         at (c - 1) <> at c || at c <> at (c + 1))
       (Injection.sites (Leon3.System.core sys) target))

(* Every scalar continuation lands in exactly one verdict class, and a
   hang stopped short of the watchdog budget is a cycle proof.
   tblook's IU campaign at 100 sites proves some of its hangs and runs
   others to the budget. *)
let test_watchdog_split_by_verdict_class () =
  let tblook = Workloads.Suite.find "tblook" in
  let prog = tblook.Workloads.Suite.build ~iterations:1 ~dataset:0 in
  let sys = Leon3.System.create () in
  let obs = Obs.create () in
  let config = { Campaign.default_config with Campaign.sample_size = Some 100 } in
  ignore (Campaign.run ~config ~obs sys prog Injection.Iu);
  let classes =
    [ "budget_hang"; "proved_hang"; "wrong_write"; "missing_writes"; "trap"; "silent" ]
  in
  let count cls = Obs.span_count obs ("tail.watchdog." ^ cls) in
  check_int "classes sum to the transplants"
    (Obs.counter obs "tail.transplants")
    (List.fold_left (fun a cls -> a + count cls) 0 classes);
  check_int "proved hangs = cycle proofs" (Obs.counter obs "tail.cycle_proofs")
    (count "proved_hang");
  check_bool "some hangs proved" true (count "proved_hang" > 0);
  check_bool "some hangs ran to the budget" true (count "budget_hang" > 0);
  (* the system simulates the golden run and the continuations *)
  let golden = Campaign.golden_run sys prog ~max_cycles:5_000_000 in
  check_int "class cycles = the continuations' cycles"
    (Obs.counter obs "rtl.cycles" - golden.Campaign.cycles)
    (List.fold_left (fun a cls -> a + Obs.counter obs ("tail.cycles." ^ cls)) 0 classes)

let test_gate_level_matches_oracle () =
  let prog = Lazy.force rspeed in
  let params = { Leon3.Core.default_params with Leon3.Core.gate_level = true } in
  let sys = Leon3.System.create ~params () in
  let obs = Obs.create () in
  let _, results =
    Campaign.run ~config:(reference_config ~sites:4) ~obs sys prog Injection.Iu
  in
  let checked =
    check_against_oracle ~label:"gate-level" ~target:Injection.Iu
      ~skip:(fun r -> r.Campaign.outcome = Campaign.Failure Campaign.Hang)
      sys prog results
  in
  check_bool "verdicts checked" true (checked > 0);
  check_bool "dense lanes left before trace end" true
    (Obs.counter obs "batch.ejected_dense" > 0)

(* [run_transient] reports only its summary, so its upsets are redrawn
   here exactly as it draws them — sites without replacement from the
   pool, then one instant per site — and every one is re-run dense. *)
let test_transient_matches_oracle () =
  let prog = Lazy.force rspeed in
  let sys = Leon3.System.create () in
  let sample = 30 and seed = 11 in
  let s =
    Campaign.run_transient ~sample ~seed ~checkpoint_every:64 sys prog Injection.Iu
  in
  let dense = dense_golden sys prog in
  let rng = Stats.Rng.create seed in
  let upsets =
    Array.map
      (fun site -> (site, Stats.Rng.int rng (max 1 dense.Campaign.cycles)))
      (Stats.Rng.sample_without_replacement rng sample
         (Array.of_list (Injection.sites (Leon3.System.core sys) Injection.Iu)))
  in
  let results =
    Array.to_list
      (Array.map
         (fun (site, inject_cycle) ->
           Campaign.run_one sys prog dense ~inject_cycle ~duration:1 site C.Bit_flip)
         upsets)
  in
  check_bool "summary = dense upsets' summary" true
    (core_summary s = core_summary (Campaign.summarize results));
  check_int "bit flips never prefiltered" 0 s.Campaign.skipped;
  check_bool "some runs early-exit on convergence" true (s.Campaign.early_exits > 0)

let test_parallel_domain_count_irrelevant () =
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_1; C.Open_line ];
      sample_size = Some 30 }
  in
  let sum1, res1 =
    Campaign.run_parallel ~config ~domains:1 (fun () -> Leon3.System.create ()) prog
      Injection.Iu
  in
  let sum4, res4 =
    Campaign.run_parallel ~config ~domains:4 (fun () -> Leon3.System.create ()) prog
      Injection.Iu
  in
  (* result-for-result, order included: sharding must not reorder *)
  check_int "result count" (List.length res1) (List.length res4);
  List.iter2
    (fun r1 r4 ->
      check_bool ("identical result: " ^ r1.Campaign.site_name) true
        (verdict r1 = verdict r4 && r1.Campaign.sim = r4.Campaign.sim))
    res1 res4;
  List.iter2
    (fun (m, s1) (m', s4) ->
      check_bool "model order" true (m = m');
      check_bool "summaries identical" true
        (core_summary s1 = core_summary s4
        && s1.Campaign.skipped = s4.Campaign.skipped
        && s1.Campaign.early_exits = s4.Campaign.early_exits))
    sum1 sum4

let test_parallel_progress_reporting () =
  (* run_parallel must report progress like run does: one callback per
     injection, reaching done_ = total exactly once at the end.
     Callbacks arrive concurrently, so record them atomically. *)
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_1 ];
      sample_size = Some 30 }
  in
  let seq_calls = ref 0 and seq_final = ref (-1) in
  ignore
    (Campaign.run ~config
       ~on_progress:(fun ~done_ ~total ->
         incr seq_calls;
         if done_ = total then seq_final := done_)
       (Lazy.force shared_sys) prog Injection.Iu);
  let par_calls = Atomic.make 0 and par_final = Atomic.make (-1) in
  ignore
    (Campaign.run_parallel ~config ~domains:3
       ~on_progress:(fun ~done_ ~total ->
         Atomic.incr par_calls;
         if done_ = total then Atomic.set par_final done_)
       (fun () -> Leon3.System.create ())
       prog Injection.Iu);
  check_int "sequential calls = injections" 30 !seq_calls;
  check_int "parallel calls = injections" 30 (Atomic.get par_calls);
  check_int "both reach the same final total" !seq_final (Atomic.get par_final)

let obs_counter_names =
  [ "injections"; "prefiltered"; "early_exits"; "simulated"; "rtl.cycles";
    "cycles.saved" ]

let snapshot obs = List.map (fun n -> (n, Obs.counter obs n)) obs_counter_names

let test_obs_counters_domain_invariant () =
  (* Telemetry counters are facts about the campaign, not about its
     schedule: sequential, domains=1 and domains=4 must agree on every
     counter. *)
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_1; C.Open_line ];
      sample_size = Some 30 }
  in
  let obs_seq = Obs.create () in
  ignore (Campaign.run ~config ~obs:obs_seq (Lazy.force shared_sys) prog Injection.Iu);
  let run_par domains =
    let obs = Obs.create () in
    ignore
      (Campaign.run_parallel ~config ~obs ~domains
         (fun () -> Leon3.System.create ())
         prog Injection.Iu);
    obs
  in
  let obs1 = run_par 1 and obs4 = run_par 4 in
  check_bool "injections recorded" true (Obs.counter obs_seq "injections" = 60);
  Alcotest.(check (list (pair string int)))
    "sequential = domains:1" (snapshot obs_seq) (snapshot obs1);
  Alcotest.(check (list (pair string int)))
    "domains:1 = domains:4" (snapshot obs1) (snapshot obs4);
  (* phase spans exist on every path *)
  check_bool "golden span" true (Obs.span_total obs4 "golden" >= 0.);
  check_int "one golden per parallel run" 1 (Obs.span_count obs4 "golden");
  check_int "one sampling pass" 1 (Obs.span_count obs4 "site_sampling")

(* ---- static netlist analysis: pruning + collapsing ----

   The static layer has no switch, so its classifications are checked
   against the dense oracle like every other layer's: a pruned or
   collapsed verdict must equal the verdict a dense run of that very
   fault reaches. *)

let test_static_matches_full_on_figure5_workloads () =
  let sys = Lazy.force shared_sys in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line ];
      sample_size = Some 10 }
  in
  List.iter
    (fun e ->
      let prog = e.Workloads.Suite.build ~iterations:1 ~dataset:0 in
      let _, results = Campaign.run ~config sys prog Injection.Iu in
      check_int
        (e.Workloads.Suite.name ^ ": every verdict checked")
        (List.length results)
        (check_against_oracle ~label:e.Workloads.Suite.name ~target:Injection.Iu sys prog
           results))
    Workloads.Suite.table1_set

(* The gate-level adder network is where collapsing fires: every NAND
   input pair is an equivalence class. *)
let adder_campaign () =
  let params = { Leon3.Core.default_params with Leon3.Core.gate_level = true } in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_0; C.Stuck_at_1 ];
      sample_size = Some 60 }
  in
  ( Leon3.System.create ~params (),
    Lazy.force small_prog,
    config,
    Injection.Unit_of Sparc.Units.Adder )

let is_collapsed (r : Campaign.run_result) =
  match r.Campaign.sim with
  | Campaign.Collapsed _ -> true
  | Campaign.Simulated | Campaign.Prefiltered | Campaign.Converged _ | Campaign.Pruned ->
      false

let test_gate_level_campaign_collapses () =
  (* On the gate-level adder network the collapser must actually take
     over work, and every verdict — collapsed ones included — must
     still equal the dense oracle's. *)
  let sys, prog, config, target = adder_campaign () in
  let summaries, results = Campaign.run ~config sys prog target in
  check_int "every verdict checked" (List.length results)
    (check_against_oracle ~label:"gate-level adder" ~target sys prog results);
  let collapsed = List.fold_left (fun a (_, s) -> a + s.Campaign.collapsed) 0 summaries in
  check_bool
    (Printf.sprintf "collapsing fired (%d)" collapsed)
    true (collapsed > 0);
  (* a follower result names its class leader *)
  check_bool "followers reference their leader" true (List.exists is_collapsed results)

let full_verdict (r : Campaign.run_result) = (verdict r, r.Campaign.sim)

let test_collapse_across_shards_and_resume () =
  (* Collapse leaders are chosen over the global task list, so a shard
     may hold followers whose leader sits in another shard.  Each shard
     must still return the unsharded verdicts and count each of its
     tasks once. *)
  let sys, prog, config, target = adder_campaign () in
  let obs = Obs.create () in
  let _, direct = Campaign.run ~config ~obs sys prog target in
  let shards =
    List.init 4 (fun k ->
        let obs = Obs.create () in
        let _, results =
          Campaign.run ~config:{ config with Campaign.shard = (k + 1, 4) } ~obs sys prog
            target
        in
        (obs, results))
  in
  let sorted l = List.sort compare (List.map full_verdict l) in
  check_bool "union of shards = direct run" true
    (sorted (List.concat_map snd shards) = sorted direct);
  check_bool "some follower's leader sits in another shard" true
    (List.exists
       (fun (_, results) ->
         List.exists
           (fun (r : Campaign.run_result) ->
             match r.Campaign.sim with
             | Campaign.Collapsed leader ->
                 not (List.exists (fun r' -> r'.Campaign.site_name = leader) results)
             | Campaign.Simulated | Campaign.Prefiltered | Campaign.Converged _
             | Campaign.Pruned ->
                 false)
           results)
       shards);
  check_int "static.collapsed summed over shards = direct"
    (Obs.counter obs "static.collapsed")
    (List.fold_left (fun a (o, _) -> a + Obs.counter o "static.collapsed") 0 shards);
  List.iteri
    (fun k (o, results) ->
      check_int
        (Printf.sprintf "shard %d/4: injections = its task count" (k + 1))
        (List.length results) (Obs.counter o "injections");
      (* every lane charges its time to a phase, also one whose leader
         is in another shard *)
      check_int
        (Printf.sprintf "shard %d/4: every lane timed" (k + 1))
        (Obs.counter o "batch.lanes")
        (Obs.span_count o "simulate" + Obs.span_count o "converge"))
    shards;
  (* resume with every follower's line dropped and the leaders kept:
     the followers re-run as groups whose leader is journaled *)
  let path = Filename.temp_file "ricv_collapse" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Campaign.run ~config ~journal:path sys prog target);
  let fp, entries =
    match Fault_injection.Journal.load path with
    | Ok j -> j
    | Error m -> Alcotest.fail m
  in
  let w = Fault_injection.Journal.create path fp in
  let kept =
    List.filter (fun e -> not (is_collapsed e.Fault_injection.Journal.result)) entries
  in
  List.iter
    (fun e ->
      Fault_injection.Journal.append w ~index:e.Fault_injection.Journal.index
        e.Fault_injection.Journal.result)
    kept;
  Fault_injection.Journal.close w;
  check_bool "followers dropped" true (List.length kept < List.length entries);
  let _, resumed = Campaign.run ~config ~journal:path ~resume:true sys prog target in
  check_bool "resumed = direct run" true
    (List.map full_verdict resumed = List.map full_verdict direct)

let test_cone_pruned_faults_are_silent () =
  (* Sites the cone analysis prunes are reported as their own class
     and are always Silent with no latency. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let config =
    { Campaign.default_config with
      Campaign.models = [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line ];
      sample_size = Some 300 }
  in
  let _, results = Campaign.run ~config sys prog Injection.Iu in
  let pruned =
    List.filter (fun r -> r.Campaign.sim = Campaign.Pruned) results
  in
  List.iter
    (fun r ->
      check_bool ("pruned is silent: " ^ r.Campaign.site_name) true
        (r.Campaign.outcome = Campaign.Silent && r.Campaign.detect_cycle = None))
    pruned

let suite =
  ( "fault_injection",
    [ Alcotest.test_case "pools non-empty" `Quick test_pools_nonempty;
      Alcotest.test_case "unit attribution" `Quick test_unit_attribution_roundtrip;
      Alcotest.test_case "pool sizes" `Quick test_pool_sizes_cover_everything;
      Alcotest.test_case "golden run" `Quick test_golden_run;
      Alcotest.test_case "pc fault fails" `Quick test_fault_on_pc_fails;
      Alcotest.test_case "unused divider silent" `Slow test_fault_on_divider_is_silent_without_div;
      Alcotest.test_case "latency measured" `Quick test_latency_measured_on_failures;
      Alcotest.test_case "injection instant" `Quick test_injection_instant_honoured;
      Alcotest.test_case "summarize" `Quick test_summarize;
      Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
      Alcotest.test_case "summarize all hangs" `Quick test_summarize_all_hangs;
      Alcotest.test_case "summarize sim statuses" `Quick test_summarize_sim_status_counts;
      Alcotest.test_case "campaign end-to-end" `Slow test_campaign_end_to_end;
      Alcotest.test_case "parallel = sequential" `Slow test_parallel_matches_sequential;
      Alcotest.test_case "transient campaign" `Slow test_transient_campaign;
      Alcotest.test_case "paired sites" `Quick test_campaign_same_sites_across_models;
      Alcotest.test_case "behavioural campaign = dense oracle" `Slow
        test_behavioural_matches_oracle;
      Alcotest.test_case "domains 1 = domains 4" `Slow test_parallel_domain_count_irrelevant;
      Alcotest.test_case "parallel progress reporting" `Slow test_parallel_progress_reporting;
      Alcotest.test_case "obs counters domain-invariant" `Slow test_obs_counters_domain_invariant;
      Alcotest.test_case "transient upsets = dense oracle" `Slow
        test_transient_matches_oracle;
      Alcotest.test_case "static = full on figure-5 workloads" `Slow
        test_static_matches_full_on_figure5_workloads;
      Alcotest.test_case "gate-level collapsing" `Slow test_gate_level_campaign_collapses;
      Alcotest.test_case "collapse across shards + resume" `Slow
        test_collapse_across_shards_and_resume;
      Alcotest.test_case "cone-pruned faults silent" `Slow
        test_cone_pruned_faults_are_silent;
      Alcotest.test_case "gate-level campaign = dense oracle" `Slow
        test_gate_level_matches_oracle;
      Alcotest.test_case "compare-reads campaign = dense oracle" `Slow
        test_compare_reads_matches_oracle;
      Alcotest.test_case "CMEM campaign = dense oracle" `Slow test_cmem_matches_oracle;
      Alcotest.test_case "open line captures at cycle 1 when injected at 0" `Slow
        test_open_line_capture_at_cycle_0;
      Alcotest.test_case "open line captures at its cycle past 0" `Slow
        test_open_line_capture_after_cycle_0;
      Alcotest.test_case "open line shares its stuck-at lane" `Slow
        test_open_line_shares_stuck_at_lane;
      Alcotest.test_case "open line on a cell captures before the write" `Slow
        test_open_line_cell_capture;
      Alcotest.test_case "watchdog split by verdict class" `Slow
        test_watchdog_split_by_verdict_class;
      Alcotest.test_case "sample names only the drawn sites" `Quick
        test_sample_names_only_drawn ] )
