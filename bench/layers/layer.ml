(* Per-layer metrics of a traced round, and the unit-cost probes.

   A traced round runs with a live collector: the bench spans
   {!Workload.call} records around each public call, plus the spans and
   counters the library already emits.  A bench call's self time is its
   span minus the library spans inside it.

   Layer times are reported as shares of the round's campaign time, as
   the collector saw it.  A share needs no host-speed correction, and
   it reads 0 rather than a time on the workloads that never enter the
   layer. *)

module FC = Fault_injection.Campaign
module J = Fault_injection.Journal
module Inj = Fault_injection.Injection
module C = Rtl.Circuit

type metric = { name : string; unit : string; value : float }

let ratio a b = if b = 0. then 0. else a /. b

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Bench calls that contain library spans; journal load, merge and
   resume are layers of their own. *)
let campaign_calls =
  [ "campaign.prepare"; "campaign.run"; "iss_campaign.prepare"; "iss_campaign.run" ]

let of_round obs (r : Workload.round) =
  let raw = Obs.span_total obs in
  let total = raw Workload.campaign_span in
  let frac name value = { name; unit = "ratio"; value } in
  let share name spans = frac name (ratio (List.fold_left (fun a n -> a +. raw n) 0. spans) total) in
  let self_share name call = frac name (ratio (raw call -. raw (Workload.attributed call)) total) in
  let count n = float_of_int (Obs.counter obs n) in
  let n name counter = { name; unit = "count"; value = count counter } in
  let mean h =
    match Obs.histogram obs h with
    | Some h when h.Obs.count > 0 -> h.Obs.sum /. float_of_int h.Obs.count
    | Some _ | None -> 0.
  in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0. l in
  [ { name = "trace.campaign_s"; unit = "s"; value = r.campaign_s };
    frac "trace.attributed_frac"
      (ratio (sum (fun c -> raw (Workload.attributed c)) campaign_calls) (sum raw campaign_calls));
    share "leon3.elaborate_share" [ "leon3.elaborate" ];
    share "campaign.prepare_share" [ "campaign.prepare" ];
    self_share "campaign.prepare_self_share" "campaign.prepare";
    share "campaign.run_share" [ "campaign.run" ];
    self_share "campaign.run_self_share" "campaign.run";
    share "campaign.golden_share" [ "golden" ];
    share "campaign.site_sampling_share" [ "site_sampling" ];
    share "analysis.static_share" [ "static.graph"; "static_analysis" ];
    share "analysis.graph_share" [ "static.graph" ];
    share "analysis.dominator_share" [ "static.dominator" ];
    share "analysis.collapse_share" [ "static.collapse" ];
    share "campaign.prefilter_share" [ "prefilter" ];
    share "campaign.simulate_share" [ "simulate" ];
    (* the scalar continuation of ejected lanes is timed inside
       [simulate] as well as under [tail.watchdog] *)
    frac "campaign.simulate_self_share" (ratio (raw "simulate" -. raw "tail.watchdog") total);
    share "campaign.converge_share" [ "converge" ];
    share "campaign.watchdog_share" [ "tail.watchdog"; "tail.dense" ];
    share "batch.tail_dense_share" [ "tail.dense" ];
    share "iss_campaign.prepare_share" [ "iss_campaign.prepare" ];
    share "iss_campaign.run_share" [ "iss_campaign.run" ];
    share "journal.merge_share" [ "journal.load"; "journal.merge" ];
    share "journal.resume_share" [ "journal.resume" ];
    n "rtl.nodes_evaluated" "diff.nodes_evaluated";
    n "rtl.dense_equiv_evaluated" "diff.golden_evaluated";
    frac "rtl.eval_ratio" (ratio (count "diff.nodes_evaluated") (count "diff.golden_evaluated"));
    n "batch.passes" "batch.passes";
    n "batch.lanes" "batch.lanes";
    n "batch.ejected" "batch.ejected";
    { name = "batch.occupancy_mean"; unit = "lanes"; value = mean "batch.occupancy" };
    frac "batch.occupancy_frac" (mean "batch.occupancy" /. float_of_int C.max_lanes);
    n "batch.tail_cycle_proofs" "tail.cycle_proofs";
    n "batch.tail_transplants" "tail.transplants";
    n "batch.tail_cycles_saved" "tail.cycles_saved";
    n "batch.tail_prefix_saved" "tail.prefix_saved";
    (* share of hang verdicts proven by a state cycle instead of
       running out the watchdog budget *)
    frac "batch.tail_proof_frac" (ratio (count "tail.cycle_proofs") (count "outcome.hang"));
    n "campaign.hangs" "outcome.hang";
    n "campaign.early_exits" "early_exits";
    n "campaign.injections" "injections";
    n "campaign.prefiltered" "prefiltered";
    n "campaign.simulated" "simulated";
    n "campaign.cycles_saved" "cycles.saved";
    frac "campaign.prefilter_frac" (ratio (count "prefiltered") (count "injections"));
    n "analysis.pruned" "static.pruned";
    n "analysis.collapsed" "static.collapsed";
    n "leon3.rtl_cycles" "rtl.cycles";
    n "leon3.rtl_instructions" "rtl.instructions";
    { name = "iss.instructions"; unit = "count";
      value = count "iss.instructions" +. count "iss.golden_instructions" };
    { name = "journal.bytes_written"; unit = "bytes"; value = count "journal.bytes" };
    n "journal.replayed" "journal.replayed" ]

(* ---- unit-cost probes ----

   Fixed inputs, independent of the workload's seed: ttsprk at dataset
   0 on the workload's netlist, a fixed chunk of 63 lanes, 50 fixed
   single-event upsets and 10,000 synthetic journal verdicts.  Each
   probe runs [reps] times and reports the median, in speed-scaled time
   ({!Speed}). *)

type probe_size = { reps : int; lanes : int; upsets : int; verdicts : int }

let full_probes = { reps = 3; lanes = C.max_lanes; upsets = 50; verdicts = 10_000 }

let smoke_probes = { reps = 1; lanes = 4; upsets = 3; verdicts = 200 }

(* median over [reps] runs of [f ()], which returns (work, seconds) *)
let per_unit reps ~scale f =
  median
    (List.init reps (fun _ ->
         let work, dt = f () in
         ratio (dt *. scale) (float_of_int work)))

let probe_fingerprint n =
  { J.workload = "probe"; prog_hash = 0; netlist_hash = 0; target = "iu";
    models = [ C.fault_model_name C.Stuck_at_1 ]; sample_size = Some n; include_cells = true;
    inject_cycle = 0; hang_factor = 4; compare_reads = false; seed = 0; total_sites = n;
    shard = (1, 1) }

let probe_verdict i =
  { J.site_name = Printf.sprintf "probe[%d]" i; model = C.Stuck_at_1;
    outcome = (if i mod 3 = 0 then J.Failure (J.Wrong_write (i mod 7)) else J.Silent);
    detect_cycle = (if i mod 3 = 0 then Some (1000 + i) else None); inject_cycle = 0;
    sim = J.Simulated }

let probes ~gate ~dir size =
  let time f =
    let r, _, scaled = Speed.timed f in
    (r, scaled)
  in
  let sys = Leon3.System.create ~params:(Workload.params ~gate) () in
  let circuit = (Leon3.System.core sys).Leon3.Core.circuit in
  let nodes = C.node_count circuit in
  let prog = Workload.build_program ~dataset:0 "ttsprk" in
  let max_cycles = Workload.max_cycles in
  let node_cycles (g : FC.golden) = nodes * g.FC.cycles in
  let dense =
    per_unit size.reps ~scale:1e9 (fun () ->
        let g, dt = time (fun () -> FC.golden_run sys prog ~max_cycles) in
        (node_cycles g, dt))
  in
  let recording =
    per_unit size.reps ~scale:1e9 (fun () ->
        let g, dt =
          time (fun () -> FC.golden_run ~coverage:true ~trace:true sys prog ~max_cycles)
        in
        (node_cycles g, dt))
  in
  let golden = FC.golden_run ~trace:true ~checkpoint_every:512 sys prog ~max_cycles in
  let trace = Option.get golden.FC.trace in
  let pool = Array.of_list (Inj.sites (Leon3.System.core sys) Inj.Iu) in
  let rng = Stats.Rng.create 99 in
  let models = [| C.Stuck_at_1; C.Stuck_at_0; C.Open_line |] in
  let specs =
    Array.mapi
      (fun i s ->
        { Batch.site = s.Inj.fault_site; model = models.(i mod 3); from_cycle = 0;
          duration = None })
      (Stats.Rng.sample_without_replacement rng size.lanes pool)
  in
  let lane_eval =
    per_unit size.reps ~scale:1e9 (fun () ->
        let (_, stats), dt =
          time (fun () ->
              Batch.run ~sys ~prog ~trace ~reference:golden.FC.writes
                ~max_cycles:((4 * golden.FC.cycles) + 2000)
                specs)
        in
        (stats.C.bs_evals, dt))
  in
  let upsets =
    Array.map
      (fun s -> (s, Stats.Rng.int rng golden.FC.cycles))
      (Stats.Rng.sample_without_replacement rng size.upsets pool)
  in
  let plan = C.compiled_plan circuit in
  let replay =
    per_unit size.reps ~scale:1e9 (fun () ->
        let obs = Obs.create () in
        let (), dt =
          time (fun () ->
              Array.iter
                (fun (site, inject_cycle) ->
                  ignore
                    (FC.run_one ~obs ~plan sys prog golden ~inject_cycle ~duration:1 site
                       C.Bit_flip))
                upsets)
        in
        (Obs.counter obs "diff.nodes_evaluated", dt))
  in
  let iss =
    per_unit size.reps ~scale:1e9 (fun () ->
        let r, dt = time (fun () -> Iss.Emulator.execute prog) in
        (r.Iss.Emulator.instructions, dt))
  in
  let path = Filename.concat dir "probe-journal.jsonl" in
  let append =
    per_unit size.reps ~scale:1e6 (fun () ->
        let (), dt =
          time (fun () ->
              let w = J.create path (probe_fingerprint size.verdicts) in
              for i = 0 to size.verdicts - 1 do
                J.append w ~index:i (probe_verdict i)
              done;
              J.close w)
        in
        (size.verdicts, dt))
  in
  let load =
    per_unit size.reps ~scale:1e6 (fun () ->
        let r, dt = time (fun () -> J.load path) in
        match r with
        | Ok (_, entries) -> (List.length entries, dt)
        | Error m -> failwith m)
  in
  Sys.remove path;
  [ { name = "rtl.dense_ns_per_node_cycle"; unit = "ns"; value = dense };
    { name = "rtl.golden_trace_ns_per_node_cycle"; unit = "ns"; value = recording };
    { name = "batch.ns_per_lane_eval"; unit = "ns"; value = lane_eval };
    { name = "rtl.replay_ns_per_node_eval"; unit = "ns"; value = replay };
    { name = "iss.ns_per_instruction"; unit = "ns"; value = iss };
    { name = "journal.append_us_per_verdict"; unit = "us"; value = append };
    { name = "journal.load_us_per_verdict"; unit = "us"; value = load } ]
