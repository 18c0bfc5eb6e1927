module C = Rtl.Circuit
module Bus_event = Sparc.Bus_event

type golden = {
  writes : Bus_event.t array;
  events : Bus_event.t array;
  cycles : int;
  instructions : int;
  stop : Leon3.System.stop_reason;
  coverage : C.coverage option;
  converge_every : int option;
  trace : C.trace option;
  captures : (int * C.fault_site, int) Hashtbl.t;
}

let default_checkpoint_interval = 512

let site_bit circuit = function
  | C.Node (s, bit) -> Bitops.bit bit (C.value circuit s)
  | C.Cell (m, idx, bit) -> Bitops.bit bit (C.mem_read circuit m idx)

let golden_run ?(obs = Obs.null) ?(coverage = false) ?(trace = false) ?checkpoint_every
    ?(capture = []) sys prog ~max_cycles =
  Obs.span obs "golden" @@ fun () ->
  let circuit = (Leon3.System.core sys).Leon3.Core.circuit in
  let work0 = C.settle_stats circuit in
  C.clear_fault circuit;
  if coverage then C.coverage_start circuit;
  (* Armed before [load], whose settle primes the trace with the
     cycle-0 state: the state the batch engine starts from, rebuilt by
     its own [load].  A trace is the largest allocation a campaign makes
     (18-35 MB per program at gate level) and the run allocates little
     else, so the trace alone paces the collector through it.  Starting
     the recording on a fresh collector cycle reclaims what died before
     it, such as the previous campaign's trace, within the first cycle
     the recording drives, whatever earlier allocations did to the
     collector's phase. *)
  if trace then begin
    Gc.major ();
    C.trace_start circuit
  end;
  Leon3.System.load sys prog;
  let captures = Hashtbl.create 16 in
  let take cycles =
    List.iter
      (fun (k, site) ->
        if List.mem k cycles then Hashtbl.replace captures (k, site) (site_bit circuit site))
      capture
  in
  (* The run pauses at every capture cycle, a settled state; a capture
     cycle the run does not reach takes its final state. *)
  let rec go pending =
    let due, pending = List.partition (fun k -> k <= Leon3.System.cycles sys) pending in
    take due;
    let until = match pending with k :: _ -> k | [] -> max_int in
    match Leon3.System.run_segment sys ~until_cycle:until ~max_cycles with
    | Some r ->
        take pending;
        r
    | None -> go pending
  in
  let stop = go (List.sort_uniq compare (List.map fst capture)) in
  let cov = if coverage then Some (C.coverage_stop circuit) else None in
  let tr = if trace then Some (C.trace_stop circuit) else None in
  (* the golden settles' work, next to the lane engine's
     [diff.nodes_evaluated]: a count that does not depend on host speed *)
  let work = C.settle_stats circuit in
  Obs.incr obs ~by:(work.C.ss_evals - work0.C.ss_evals) "golden.evaluated";
  Obs.incr obs ~by:(work.C.ss_dense_evals - work0.C.ss_dense_evals) "golden.dense_equiv";
  (match stop with
  | Leon3.System.Exited _ -> ()
  | Leon3.System.Trapped code ->
      failwith (Printf.sprintf "golden run trapped (code %d): broken workload" code)
  | Leon3.System.Cycle_limit -> failwith "golden run hit the cycle limit"
  | Leon3.System.Aborted -> failwith "golden run aborted");
  { writes = Array.of_list (Leon3.System.writes sys);
    events = Array.of_list (Leon3.System.events sys);
    cycles = Leon3.System.cycles sys;
    instructions = Leon3.System.instructions sys;
    stop;
    coverage = cov;
    converge_every = Option.map (max 1) checkpoint_every;
    trace = tr;
    captures }

(* The verdict vocabulary is owned by {!Journal} (which serialises it);
   re-exported here under its historical names. *)
type failure_kind = Journal.failure_kind =
  | Wrong_write of int
  | Missing_writes of int
  | Trap of int
  | Hang

type outcome = Journal.outcome = Silent | Failure of failure_kind

type sim_status = Journal.sim_status =
  | Simulated
  | Prefiltered
  | Converged of int
  | Pruned
  | Collapsed of string

type run_result = Journal.run_result = {
  site_name : string;
  model : C.fault_model;
  outcome : outcome;
  detect_cycle : int option;
  inject_cycle : int;
  sim : sim_status;
}

(* Telemetry epilogue for one faulty run: outcome/sim counters, the
   detection-latency histogram, time attribution per phase
   (prefilter / simulate / converge) and the cycles the trimming
   machinery avoided ([start_cycle] for a continuation transplanted at
   its ejection cycle, the remaining suffix for a convergence exit,
   the whole golden run for a prefiltered injection). *)
let record_run obs golden ~dt ~start_cycle r =
  Obs.incr obs "injections";
  (match r.outcome with
  | Silent -> Obs.incr obs "outcome.silent"
  | Failure (Wrong_write _) -> Obs.incr obs "outcome.wrong_write"
  | Failure (Missing_writes _) -> Obs.incr obs "outcome.missing_writes"
  | Failure (Trap _) -> Obs.incr obs "outcome.trap"
  | Failure Hang -> Obs.incr obs "outcome.hang");
  (match (r.outcome, r.detect_cycle) with
  | Failure (Wrong_write _ | Missing_writes _ | Trap _), Some cyc ->
      Obs.observe obs "detect_latency" (float_of_int (cyc - r.inject_cycle))
  | (Failure _ | Silent), _ -> ());
  match r.sim with
  | Prefiltered ->
      Obs.incr obs "prefiltered";
      Obs.add_time obs "prefilter" dt;
      Obs.incr obs ~by:golden.cycles "cycles.saved"
  | Converged cyc ->
      Obs.incr obs "early_exits";
      Obs.add_time obs "converge" dt;
      Obs.incr obs ~by:(max 0 (golden.cycles - cyc)) "cycles.saved"
  | Simulated ->
      Obs.incr obs "simulated";
      Obs.add_time obs "simulate" dt;
      Obs.incr obs ~by:start_cycle "cycles.saved"
  | Pruned ->
      Obs.incr obs "static.pruned";
      Obs.incr obs ~by:golden.cycles "cycles.saved"
  | Collapsed _ ->
      Obs.incr obs "static.collapsed";
      Obs.incr obs ~by:golden.cycles "cycles.saved"

(* Statically classified injections (cone-pruned, or copying their
   collapse leader's verdict) run no lane of their own; they still
   count as injections with a full verdict. *)
let record_static obs golden r =
  if Obs.enabled obs then record_run obs golden ~dt:0. ~start_cycle:0 r

(* Activation prefilter: a permanent fault whose forced value the golden
   run never contradicts can never activate. *)
let prefiltered golden (site : Injection.site) model =
  match golden.coverage with
  | Some cov -> C.never_activates cov site.Injection.fault_site model
  | None -> false

(* The one verdict rule: how a faulty run's stop reason reads against
   the lockstep comparator's progress ([matched] reference events, the
   first divergence at [mismatch]). *)
let verdict ~reference ~max_cycles ~matched ~mismatch ~stop_cycle = function
  | Leon3.System.Aborted -> (Failure (Wrong_write matched), mismatch)
  | Leon3.System.Trapped code -> (Failure (Trap code), Some stop_cycle)
  | Leon3.System.Cycle_limit -> (Failure Hang, Some max_cycles)
  | Leon3.System.Exited _ ->
      if matched = Array.length reference then (Silent, None)
      else (Failure (Missing_writes matched), Some stop_cycle)

(* Watchdog budget: cache-degrading faults can legitimately run slower
   than golden without failing. *)
let max_cycles_of ~hang_factor golden = (hang_factor * golden.cycles) + 2000

(* Run the loaded, fault-armed machine to its verdict under the lockstep
   comparator, which resumes at [matched] reference events (first
   divergence at [mismatch]). *)
let lockstep ?detect_loops sys golden ~compare_reads ~hang_factor ~matched ~mismatch =
  let reference = if compare_reads then golden.events else golden.writes in
  let matched = ref matched in
  let mismatch = ref mismatch in
  let on_event ev =
    if not (compare_reads || Bus_event.is_write ev) then true
    else if !matched < Array.length reference && Bus_event.equal ev reference.(!matched)
    then begin
      incr matched;
      true
    end
    else begin
      mismatch := Some (Leon3.System.cycles sys);
      false
    end
  in
  let max_cycles = max_cycles_of ~hang_factor golden in
  let stop = Leon3.System.run ~on_event ?detect_loops sys ~max_cycles in
  verdict ~reference ~max_cycles ~matched:!matched ~mismatch:!mismatch
    ~stop_cycle:(Leon3.System.cycles sys) stop

(* ---- the lane engine ----

   Every simulated fault runs as a lane of a bit-parallel batch
   ({!Batch.run}) from cycle 0 against the golden trace; verdicts are
   identical to the dense reference's.  A lane retires when its run
   stops, when it converges with the golden run at a boundary cycle, or
   when it is handed over to the scalar engine: at trace
   end, or earlier when its permanent fault makes it cost more in the
   pass than a scalar run would. *)

(* Continue an ejected lane from its transplanted state instead of
   re-running the whole prefix: the batch already carried the fault to
   the cycle it ejected the lane at (trace end, or a window boundary
   for a dense lane) and handed over the lane's complete state
   (circuit, memory image, bus drivers, comparator counters), so only
   the rest of the run — that cycle to verdict — is simulated.
   Verdicts match a from-zero run because the transplanted state is
   state-for-state equal to that run's state at the ejection cycle
   (qcheck-tested) and the comparator resumes at the same counters.
   [dt] is the lane's share of its batch pass. *)
let continue_ejected ~obs golden sys ~compare_reads ~hang_factor ~dt e (sp : Batch.spec)
    (site : Injection.site) model ~counted =
  let t_start = if Obs.enabled obs then Obs.now obs else 0. in
  let circuit = (Leon3.System.core sys).Leon3.Core.circuit in
  let work0 = C.settle_stats circuit in
  Leon3.System.transplant sys e.Batch.e_tp ~mem:e.Batch.e_mem ~iport:e.Batch.e_iport
    ~dport:e.Batch.e_dport ~events_rev:e.Batch.e_events_rev
    ~n_events:(List.length e.Batch.e_events_rev)
    ~n_writes:e.Batch.e_writes;
  let start_cycle = C.transplant_cycle e.Batch.e_tp in
  (* The cycle proof in [System.run_segment] holds only for a
     comparator blind to reads and a fault whose activity can no longer
     change: permanent and already active, or bounded and expired. *)
  let settled =
    match sp.Batch.duration with
    | None -> sp.Batch.from_cycle <= start_cycle
    | Some d -> sp.Batch.from_cycle + d <= start_cycle
  in
  let outcome, detect_cycle =
    lockstep ~detect_loops:(settled && not compare_reads) sys golden ~compare_reads
      ~hang_factor ~matched:e.Batch.e_matched ~mismatch:e.Batch.e_mismatch
  in
  C.clear_fault circuit;
  let r =
    { site_name = site.Injection.site_name; model; outcome; detect_cycle;
      inject_cycle = sp.Batch.from_cycle; sim = Simulated }
  in
  if Obs.enabled obs then begin
    let tail = Obs.now obs -. t_start in
    (* the continuation's settles, change-driven after the transplant's
       one sweep, against dense sweeps: counts that do not depend on
       host speed *)
    let work = C.settle_stats circuit in
    Obs.incr obs ~by:(work.C.ss_evals - work0.C.ss_evals) "tail.evaluated";
    Obs.incr obs ~by:(work.C.ss_dense_evals - work0.C.ss_dense_evals) "tail.dense_equiv";
    Obs.incr obs "tail.transplants";
    Obs.incr obs ~by:start_cycle "tail.prefix_saved";
    Obs.add_time obs "tail.watchdog" tail;
    (* ... split by verdict class: a hang stopped short of the budget
       was proved by a cycle proof *)
    let stop_cycle = Leon3.System.cycles sys in
    let verdict_class =
      match outcome with
      | Failure Hang ->
          if stop_cycle < max_cycles_of ~hang_factor golden then "proved_hang"
          else "budget_hang"
      | Failure (Wrong_write _) -> "wrong_write"
      | Failure (Missing_writes _) -> "missing_writes"
      | Failure (Trap _) -> "trap"
      | Silent -> "silent"
    in
    Obs.incr obs ~by:(stop_cycle - start_cycle) ("tail.cycles." ^ verdict_class);
    Obs.add_time obs ("tail.watchdog." ^ verdict_class) tail;
    if counted then record_run obs golden ~dt:(dt +. tail) ~start_cycle r
    else Obs.add_time obs "simulate" (dt +. tail)
  end;
  r

(* One batch pass over up to [C.max_lanes] faulty runs.  Each entry is
   the site and model its verdict is reported under, the fault its lane
   is armed with (a collapse-class representative stands in for the
   task's own), and whether the verdict counts as an injection of this
   run: a lane whose leader task is not pending here only lends its
   verdict to collapse followers, and still charges its time to the
   phase that decided it, so the phases keep adding up to the
   campaign's time.  Verdicts come back in entry order. *)
let run_lanes ~obs golden sys prog ~compare_reads ~hang_factor lanes =
  let t_start = if Obs.enabled obs then Obs.now obs else 0. in
  let reference = if compare_reads then golden.events else golden.writes in
  let max_cycles = max_cycles_of ~hang_factor golden in
  let outcomes, stats =
    Batch.run ~sys ~prog ~trace:(Option.get golden.trace) ~reference ~max_cycles
      ~compare_reads ?converge_every:golden.converge_every
      (Array.map (fun (_, _, sp, _) -> sp) lanes)
  in
  let n = Array.length lanes in
  let last = C.trace_cycles (Option.get golden.trace) - 1 in
  (* every lane is charged an equal share of the pass, under the phase
     that decided it *)
  let dt =
    if Obs.enabled obs then (Obs.now obs -. t_start) /. float_of_int (max 1 n) else 0.
  in
  if Obs.enabled obs then begin
    Obs.incr obs "batch.passes";
    Obs.incr obs ~by:n "batch.lanes";
    Obs.observe obs "batch.occupancy" (float_of_int n);
    (* lane evaluations actually performed vs what dense per-lane
       sweeps would cost *)
    Obs.incr obs ~by:stats.C.bs_evals "diff.nodes_evaluated";
    (* ... and how many node evaluations made them bit-sliced, for all
       of a one-bit node's lanes at once *)
    Obs.incr obs ~by:stats.C.bs_sliced_evals "batch.sliced_evals";
    Obs.incr obs ~by:stats.C.bs_dense_evals "diff.golden_evaluated";
    (* live lanes summed over clocked cycles, and those of them driven
       lane by lane (outside the follow set) *)
    Obs.incr obs ~by:stats.C.bs_lane_cycles "batch.lane_cycles";
    Obs.incr obs ~by:stats.C.bs_driven_lane_cycles "batch.driven_lane_cycles"
  end;
  Array.map2
    (fun ((site : Injection.site), model, (sp : Batch.spec), counted) outcome ->
      let decided outcome detect_cycle sim =
        Obs.incr obs "batch.lanes_retired";
        let r =
          { site_name = site.Injection.site_name; model; outcome; detect_cycle;
            inject_cycle = sp.Batch.from_cycle; sim }
        in
        if counted then record_run obs golden ~dt ~start_cycle:0 r
        else Obs.add_time obs (match sim with Converged _ -> "converge" | _ -> "simulate") dt;
        r
      in
      match outcome with
      | Batch.Done br ->
          let outcome, detect_cycle =
            verdict ~reference ~max_cycles ~matched:br.Batch.matched
              ~mismatch:br.Batch.mismatch_cycle ~stop_cycle:br.Batch.stop_cycle
              br.Batch.stop
          in
          decided outcome detect_cycle Simulated
      | Batch.Converged cyc -> decided Silent None (Converged cyc)
      | Batch.Ejected e ->
          Obs.incr obs "batch.ejected";
          (* ... before the trace's last cycle: a dense lane *)
          if C.transplant_cycle e.Batch.e_tp < last then Obs.incr obs "batch.ejected_dense";
          continue_ejected ~obs golden sys ~compare_reads ~hang_factor ~dt e sp site model
            ~counted)
    lanes outcomes

let run_one ?(obs = Obs.null) ?plan sys prog golden ?(inject_cycle = 0) ?duration
    ?(hang_factor = 4) ?(compare_reads = false) (site : Injection.site) model =
  let t_start = if Obs.enabled obs then Obs.now obs else 0. in
  let finish outcome detect_cycle sim =
    let r =
      { site_name = site.Injection.site_name; model; outcome; detect_cycle; inject_cycle;
        sim }
    in
    if Obs.enabled obs then
      record_run obs golden ~dt:(Obs.now obs -. t_start) ~start_cycle:0 r;
    r
  in
  if prefiltered golden site model then finish Silent None Prefiltered
  else
    match (plan, golden.trace) with
    | Some _, Some _ ->
        let sp =
          { Batch.site = site.Injection.fault_site; model; from_cycle = inject_cycle;
            duration }
        in
        (run_lanes ~obs golden sys prog ~compare_reads ~hang_factor
           [| (site, model, sp, true) |]).(0)
    | (Some _ | None), _ ->
        (* the dense reference: a plain cycle-by-cycle run from reset on
           the reference engine *)
        let circuit = (Leon3.System.core sys).Leon3.Core.circuit in
        let outcome, detect_cycle =
          C.reference circuit @@ fun () ->
          Leon3.System.load sys prog;
          C.inject circuit ~from_cycle:inject_cycle ?duration site.Injection.fault_site model;
          let v = lockstep sys golden ~compare_reads ~hang_factor ~matched:0 ~mismatch:None in
          C.clear_fault circuit;
          v
        in
        finish outcome detect_cycle Simulated

type summary = {
  injections : int;
  failures : int;
  pf : float;
  wrong_writes : int;
  missing_writes : int;
  traps : int;
  hangs : int;
  max_latency : int;
  mean_latency : float;
  skipped : int;
  early_exits : int;
  pruned : int;
  collapsed : int;
}

let summarize results =
  let injections = List.length results in
  let count f = List.length (List.filter f results) in
  let failures = count (fun r -> r.outcome <> Silent) in
  (* Hangs are detected by the watchdog, whose budget scales with the
     golden run; including them would measure the watchdog, not the
     fault.  Latency is therefore over write/trap detections only. *)
  let latencies =
    List.filter_map
      (fun r ->
        match (r.outcome, r.detect_cycle) with
        | Failure Hang, _ -> None
        | Failure (Wrong_write _ | Missing_writes _ | Trap _), Some cyc ->
            Some (cyc - r.inject_cycle)
        | Failure _, None | Silent, _ -> None)
      results
  in
  { injections;
    failures;
    pf = Stats.Summary.ratio ~num:failures ~den:injections;
    wrong_writes = count (fun r -> match r.outcome with Failure (Wrong_write _) -> true | Failure (Missing_writes _ | Trap _ | Hang) | Silent -> false);
    missing_writes = count (fun r -> match r.outcome with Failure (Missing_writes _) -> true | Failure (Wrong_write _ | Trap _ | Hang) | Silent -> false);
    traps = count (fun r -> match r.outcome with Failure (Trap _) -> true | Failure (Wrong_write _ | Missing_writes _ | Hang) | Silent -> false);
    hangs = count (fun r -> match r.outcome with Failure Hang -> true | Failure (Wrong_write _ | Missing_writes _ | Trap _) | Silent -> false);
    max_latency = List.fold_left max 0 latencies;
    mean_latency =
      (if latencies = [] then 0.
       else
         float_of_int (List.fold_left ( + ) 0 latencies)
         /. float_of_int (List.length latencies));
    skipped = count (fun r -> r.sim = Prefiltered);
    early_exits =
      count (fun r ->
          match r.sim with
          | Converged _ -> true
          | Simulated | Prefiltered | Pruned | Collapsed _ -> false);
    pruned = count (fun r -> r.sim = Pruned);
    collapsed =
      count (fun r ->
          match r.sim with
          | Collapsed _ -> true
          | Simulated | Prefiltered | Pruned | Converged _ -> false) }

type config = {
  models : C.fault_model list;
  sample_size : int option;
  include_cells : bool;
  inject_cycle : int;
  hang_factor : int;
  compare_reads : bool;
  seed : int;
  shard : int * int;
}

let default_config =
  { models = [ C.Stuck_at_1; C.Stuck_at_0; C.Open_line ];
    sample_size = Some 400;
    include_cells = true;
    inject_cycle = 0;
    hang_factor = 4;
    compare_reads = false;
    seed = 7;
    shard = (1, 1) }

(* Site enumeration and sampling, under its own span so campaign time
   decomposes into golden / site_sampling / prefilter / simulate /
   converge. *)
let sample_sites ~obs ~config core target =
  Obs.span obs "site_sampling" @@ fun () ->
  Injection.sample ~include_cells:config.include_cells core target
    (Stats.Rng.create config.seed) config.sample_size

(* ---- sharding and fingerprints ----

   A campaign is a fixed global task list: model-major over the full
   sampled site array.  Shard I/N executes the sites whose sample index
   is congruent to I-1 mod N — same seed therefore gives disjoint,
   covering shards — and a journal records each finished verdict under
   its global site index, so kill/resume and shard/merge both
   reassemble the unsharded run byte-identically. *)

let fingerprint ~config prog target sample =
  { Journal.workload = prog.Sparc.Asm.name;
    prog_hash = Journal.hash_program prog;
    netlist_hash =
      Journal.hash_names (Array.map (fun s -> s.Injection.site_name) sample);
    target = Injection.target_name target;
    models = List.map C.fault_model_name config.models;
    sample_size = config.sample_size;
    include_cells = config.include_cells;
    inject_cycle = config.inject_cycle;
    hang_factor = config.hang_factor;
    compare_reads = config.compare_reads;
    seed = config.seed;
    total_sites = Array.length sample;
    shard = config.shard }

let build_tasks config sample =
  Array.concat
    (List.map (fun model -> Array.map (fun site -> (model, site)) sample) config.models)

(* Per-task classification, made once over the global task list.  A
   task that reaches simulation runs its lane fault: its collapse-class
   representative, or its own fault when nothing collapses it; an open
   line first becomes the stuck-at of the bit it captures
   ([lane_model]), so it shares the lane of that stuck-at task.  Its
   leader is the first task in global order with the same lane fault,
   so every shard, every domain count and every resume agrees on it.
   The dynamic prefilter is consulted first, then the cone, then the
   collapse table. *)
type task_plan =
  | T_prefiltered
  | T_pruned
  | T_lane of { fault : C.fault_site * C.fault_model; leader : int }

(* Everything that only exists to classify and simulate: built only
   when something is left to run, so a resume whose journal already
   covers the whole shard skips the golden run and the static analysis
   entirely. *)
type machinery = { m_golden : golden; m_plans : task_plan array }

(* An open line is charge retention from the fault's first act: until
   then the faulty machine is golden, and from then on it holds the bit
   it captured there.  So it is the stuck-at of golden's bit at that
   point: a node's at the first settle under the fault, cycle
   [max c 1] (the cycle-0 settle inside [load] runs before the fault is
   armed), a cell's at cycle [c], the content its first write under the
   fault, the clock c -> c+1, keeps. *)
let capture_cycle ~inject_cycle = function
  | C.Node _ -> max inject_cycle 1
  | C.Cell _ -> inject_cycle

let lane_model golden ~inject_cycle site = function
  | C.Open_line ->
      if Hashtbl.find golden.captures (capture_cycle ~inject_cycle site, site) = 0 then
        C.Stuck_at_0
      else C.Stuck_at_1
  | (C.Stuck_at_0 | C.Stuck_at_1 | C.Bit_flip) as model -> model

let build_machinery ~obs ~config sys prog tasks =
  (* value coverage powers the permanent-fault prefilter (useless for
     bit-flips, which always activate); no convergence boundaries,
     since a fault without a duration never converges; the bits the open lines
     capture *)
  let coverage = List.exists (fun m -> m <> C.Bit_flip) config.models in
  let inject_cycle = config.inject_cycle in
  let capture =
    List.filter_map
      (fun (model, (site : Injection.site)) ->
        let fsite = site.Injection.fault_site in
        if model <> C.Open_line then None else Some (capture_cycle ~inject_cycle fsite, fsite))
      (Array.to_list tasks)
  in
  let golden =
    golden_run ~obs ~coverage ~trace:true ~capture sys prog ~max_cycles:5_000_000
  in
  (* static analysis of the netlist: the observation cone decides which
     sites are silent by construction, the collapse table which (site,
     model) pairs share a verdict with a representative fault *)
  let core = Leon3.System.core sys in
  let g =
    Obs.span obs "static.graph" (fun () -> Analysis.Graph.build core.Leon3.Core.circuit)
  in
  let cone, collapse =
    Obs.span obs "static_analysis" @@ fun () ->
    let obs_points = Leon3.Core.observation_points core in
    let keep =
      let set = Array.make (Analysis.Graph.signal_count g) false in
      List.iter (fun s -> set.((s : C.signal :> int)) <- true) obs_points;
      fun s -> set.((s : C.signal :> int))
    in
    let dom =
      Obs.span obs "static.dominator" @@ fun () ->
      Analysis.Dominator.build g ~exits:obs_points
    in
    ( Analysis.Graph.backward_cone g obs_points,
      Obs.span obs "static.collapse" @@ fun () -> Analysis.Collapse.build ~dom g ~keep )
  in
  let leaders = Hashtbl.create 1024 in
  let plans =
    Array.mapi
      (fun i (model, (site : Injection.site)) ->
        if prefiltered golden site model then T_prefiltered
        else if not (Analysis.Graph.cone_site cone site.Injection.fault_site) then
          T_pruned
        else
          let fsite = site.Injection.fault_site in
          let model = lane_model golden ~inject_cycle fsite model in
          let fault = Analysis.Collapse.resolve collapse fsite model in
          match Hashtbl.find_opt leaders fault with
          | Some leader -> T_lane { fault; leader }
          | None ->
              Hashtbl.add leaders fault i;
              T_lane { fault; leader = i })
      tasks
  in
  { m_golden = golden; m_plans = plans }

(* ---- reusable campaign preparation (the serve layer's golden-trace
   + static-analysis cache) ----

   Everything shard-independent and expensive — golden run, static
   analysis, per-task classification — packaged so repeat
   or concurrent campaigns over the same (program, netlist, config)
   never recompute it.  The fingerprint is shard-normalised to (1,1):
   any shard of the same campaign may consume the same preparation. *)
type prepared = {
  p_fingerprint : Journal.fingerprint;
  p_machinery : machinery;
}

let prepare ?(config = default_config) ?(obs = Obs.null) sys prog target =
  Executor.check_shard ~who:"Campaign" config.shard;
  Leon3.System.set_obs sys obs;
  let sample = sample_sites ~obs ~config (Leon3.System.core sys) target in
  let tasks = build_tasks config sample in
  let m = build_machinery ~obs ~config sys prog tasks in
  Leon3.System.set_obs sys Obs.null;
  { p_fingerprint =
      { (fingerprint ~config prog target sample) with Journal.shard = (1, 1) };
    p_machinery = m }

(* A consumer recomputes its own (cheap) sample and fingerprint, so a
   preparation from a different campaign — other netlist, seed, config
   or program — cannot be spliced in silently: the site-name hash and
   config fields are all compared.  The shard spec is exempt by
   construction. *)
let check_prepared fp = function
  | None -> None
  | Some p -> (
      match Journal.base_mismatch p.p_fingerprint fp with
      | Some f ->
          invalid_arg
            (Printf.sprintf "Campaign: prepared machinery mismatch: %s differs from this \
                             campaign" f)
      | None -> Some p.p_machinery)

(* A task decided without simulation: prefiltered or cone-pruned. *)
let run_decided ~obs ~config m sys prog tasks ti =
  let model, site = tasks.(ti) in
  match m.m_plans.(ti) with
  | T_prefiltered ->
      run_one ~obs sys prog m.m_golden ~inject_cycle:config.inject_cycle site model
  | T_pruned ->
      let r =
        { site_name = site.Injection.site_name; model; outcome = Silent; detect_cycle = None;
          inject_cycle = config.inject_cycle; sim = Pruned }
      in
      record_static obs m.m_golden r;
      r
  | T_lane _ -> failwith "Campaign: simulated task queued as decided (internal error)"

let chunk_list k l =
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | tl -> (List.rev acc, tl)
  in
  let rec go = function
    | [] -> []
    | l ->
        let c, rest = take k [] l in
        c :: go rest
  in
  go l

(* One batch pass over a chunk of collapse groups (≤ [C.max_lanes]):
   each group is a leader's global task index and the group's pending
   members in task order.  The lane runs the leader's lane fault under
   the leader's site and model; a pending leader takes its verdict, and
   every other member copies it as [Collapsed leader]. *)
let run_groups ~obs ~config m sys prog tasks groups =
  let lanes =
    Array.map
      (fun (leader, members) ->
        let model, site = tasks.(leader) in
        let fsite, fmodel =
          match m.m_plans.(leader) with
          | T_lane { fault; _ } -> fault
          | T_prefiltered | T_pruned -> assert false
        in
        ( site,
          model,
          { Batch.site = fsite; model = fmodel; from_cycle = config.inject_cycle;
            duration = None },
          List.hd members = leader ))
      groups
  in
  let leads =
    run_lanes ~obs m.m_golden sys prog ~compare_reads:config.compare_reads
      ~hang_factor:config.hang_factor lanes
  in
  let follow leader lead ti =
    if ti = leader then (ti, lead)
    else begin
      let model, site = tasks.(ti) in
      let r =
        { lead with site_name = site.Injection.site_name; model; sim = Collapsed lead.site_name }
      in
      record_static obs m.m_golden r;
      (ti, r)
    end
  in
  List.concat
    (Array.to_list
       (Array.map2 (fun (leader, members) lead -> List.map (follow leader lead) members)
          groups leads))

(* ---- the campaign driver ---- *)

(* Work units for the executor.  The pending tasks that share a lane
   fault form one group, which runs as one lane; groups enter the queue
   in the task order of their first pending member and fold into
   ≤ [C.max_lanes]-wide batch passes, and tasks decided without
   simulation stay single-task.  One unit is one queue claim, so a
   whole batch runs on one worker's system.  A group whose leader is
   not pending (another shard holds it, or the journal already does)
   still runs its lane, so every simulated fault runs in the queue and
   each task is recorded once. *)
let plan_work ~config m prog tasks pending =
  let members = Hashtbl.create 64 in
  let leaders, decided =
    List.fold_left
      (fun (leaders, decided) ti ->
        match m.m_plans.(ti) with
        | T_prefiltered | T_pruned -> (leaders, ti :: decided)
        | T_lane { leader; _ } -> (
            match Hashtbl.find_opt members leader with
            | Some tis ->
                Hashtbl.replace members leader (ti :: tis);
                (leaders, decided)
            | None ->
                Hashtbl.add members leader [ ti ];
                (leader :: leaders, decided)))
      ([], []) pending
  in
  let group leader = (leader, List.rev (Hashtbl.find members leader)) in
  { Executor.units =
      Array.of_list
        (List.map
           (fun c -> `Batch (Array.of_list (List.map group c)))
           (chunk_list C.max_lanes (List.rev leaders))
        @ List.rev_map (fun ti -> `One ti) decided);
    exec =
      (fun sys o u ->
        Leon3.System.set_obs sys o;
        match u with
        | `One ti -> [ (ti, run_decided ~obs:o ~config m sys prog tasks ti) ]
        | `Batch groups -> run_groups ~obs:o ~config m sys prog tasks groups) }

let shard_summaries config all =
  List.map
    (fun model -> (model, summarize (List.filter (fun r -> r.model = model) all)))
    config.models

(* The one campaign driver.  Injection sites carry node ids, which are
   valid across systems because circuit construction is deterministic
   (same build ⇒ same numbering) — the same property lets every worker
   share the golden coverage and trace captured on worker 0's system,
   both immutable after construction. *)
let run_parallel ?(config = default_config) ?(obs = Obs.null) ?(domains = 4)
    ?on_progress ?journal ?(resume = false) ?prepared sys_factory prog target =
  Executor.check_shard ~who:"Campaign" config.shard;
  let sys = sys_factory () in
  Leon3.System.set_obs sys obs;
  let sample = sample_sites ~obs ~config (Leon3.System.core sys) target in
  let fp = fingerprint ~config prog target sample in
  let supplied = check_prepared fp prepared in
  let nsites = Array.length sample in
  let tasks = build_tasks config sample in
  let plan pending =
    let m =
      match supplied with
      | Some m -> m
      | None -> build_machinery ~obs ~config sys prog tasks
    in
    plan_work ~config m prog tasks pending
  in
  let all =
    Executor.run ~obs ~domains:(max 1 domains) ~spawn:sys_factory ?on_progress ?journal
      ~resume ~fingerprint:fp ~ntasks:(Array.length tasks)
      ~identity:(fun ti ->
        let model, site = tasks.(ti) in
        (model, ti mod nsites, site.Injection.site_name))
      ~exec_ids:
        (Executor.shard_ids config.shard ~tasks:(Array.length tasks) ~site:(fun ti ->
             ti mod nsites))
      ~plan sys
  in
  Leon3.System.set_obs sys Obs.null;
  (shard_summaries config all, all)

let run ?config ?obs ?on_progress ?journal ?resume ?prepared sys prog target =
  run_parallel ?config ?obs ~domains:1 ?on_progress ?journal ?resume ?prepared
    (fun () -> sys)
    prog target

let pf_percent s = 100. *. s.pf

(* Transient study (the paper's stated future work): single-event
   upsets — one-cycle bit inversions at uniformly random instants of
   the run.  Unlike permanent faults the outcome depends on *when* the
   fault hits, so each sampled site gets its own random instant.  The
   upsets run as batch lanes from cycle 0; a lane costs next to nothing
   until its upset fires, and most retire at the first boundary cycle
   after it where their state has re-converged with the golden run. *)
let run_transient ?(sample = 400) ?(seed = 7)
    ?(checkpoint_every = default_checkpoint_interval) ?(obs = Obs.null) sys prog target =
  Leon3.System.set_obs sys obs;
  let core = Leon3.System.core sys in
  let golden =
    golden_run ~obs ~trace:true ~checkpoint_every sys prog ~max_cycles:5_000_000
  in
  let upsets =
    Obs.span obs "site_sampling" @@ fun () ->
    let rng = Stats.Rng.create seed in
    let chosen = Injection.sample core target rng (Some sample) in
    Array.map
      (fun (site : Injection.site) ->
        let inject_cycle = Stats.Rng.int rng (max 1 golden.cycles) in
        ( site,
          C.Bit_flip,
          { Batch.site = site.Injection.fault_site; model = C.Bit_flip;
            from_cycle = inject_cycle; duration = Some 1 },
          true ))
      chosen
  in
  let results =
    List.concat_map
      (fun chunk ->
        Array.to_list
          (run_lanes ~obs golden sys prog ~compare_reads:false
             ~hang_factor:default_config.hang_factor (Array.of_list chunk)))
      (chunk_list C.max_lanes (Array.to_list upsets))
  in
  Leon3.System.set_obs sys Obs.null;
  summarize results
