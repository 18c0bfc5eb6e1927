(* Tests for bit-parallel fault batching (PPSFP), the one accelerated
   faulty-run engine: the lowered levelized schedule must equal the
   one the dependency graph implies, a batch of lanes must track
   independent scalar runs observable-for-observable (event streams,
   stop reasons, stop and mismatch cycles) with writes or all events
   compared, a lane must converge exactly when its state equals the
   golden run's, a single fault run as a one-lane batch must get the
   dense reference's verdict, lane arming/retirement must behave per
   fault model, and a lanes pass must leave its circuit untouched.
   The batch and one-lane checks run on both elaborations: the
   gate-level netlist is where the lanes evaluate one-bit nodes
   bit-sliced. *)

module A = Sparc.Asm
module I = Sparc.Isa
module C = Rtl.Circuit
module G = Analysis.Graph
module Lanes = Rtl.Lanes
module Memory = Sparc.Memory
module Bus_event = Sparc.Bus_event
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_sys = lazy (Leon3.System.create ())

let gate_sys =
  lazy
    (Leon3.System.create
       ~params:{ Leon3.Core.default_params with Leon3.Core.gate_level = true }
       ())

let circuit sys = (Leon3.System.core sys).Leon3.Core.circuit

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

(* Like [small_prog], but summing a table it loads from memory and
   storing every partial sum: its data-cache line fills put reads on
   the bus, which the compare-reads checks below observe. *)
let reads_prog =
  lazy
    (let b = A.create ~name:"reads" () in
     A.prologue b;
     A.load_label b "table" I.o3;
     A.set32 b Sparc.Layout.result_base I.o2;
     A.mov b (Imm 0) I.o0;
     A.mov b (Imm 0) I.o1;
     A.label b "loop";
     A.ld b I.Ld I.o3 (Imm 0) I.o4;
     A.op3 b I.Add I.o0 (Reg I.o4) I.o0;
     A.st b I.St I.o0 I.o2 (Imm 0);
     A.op3 b I.Add I.o3 (Imm 4) I.o3;
     A.op3 b I.Add I.o2 (Imm 4) I.o2;
     A.op3 b I.Add I.o1 (Imm 1) I.o1;
     A.cmp b I.o1 (Imm 16);
     A.branch b I.Bne "loop";
     A.halt b I.o0;
     A.data_label b "table";
     A.words b (Array.init 16 (fun i -> (i * 0x01010101) + 7));
     A.assemble b)

let setup_of ?(sys = shared_sys) prog =
  lazy
    (let sys = Lazy.force sys in
     let golden =
       Campaign.golden_run ~coverage:true ~trace:true sys (Lazy.force prog)
         ~max_cycles:100_000
     in
     let trace = Option.get golden.Campaign.trace in
     let sites =
       Array.of_list (Injection.sites (Leon3.System.core sys) Injection.Iu)
     in
     (golden, trace, sites))

let golden_setup = setup_of small_prog

let reads_setup = setup_of reads_prog

let gate_setup = setup_of ~sys:gate_sys small_prog

(* ---- the lowered schedule is the graph's ---- *)

let test_compiled_plan_matches_graph () =
  let sys = Lazy.force shared_sys in
  let c = circuit sys in
  let low = C.compiled_plan c in
  let g = G.build c in
  (* a vertex's deduplicated signal successors over edges of [kind] *)
  let sinks kind v =
    Array.of_list
      (List.sort_uniq compare
         (List.filter_map
            (fun (w, k) ->
              match w with G.Sig s when k = kind -> Some (s :> int) | G.Sig _ | G.Mem _ -> None)
            (G.succs g v)))
  in
  let sigs = List.map (fun (_, s, _) -> s) (C.signals c) in
  let mems = List.map (fun (_, m, _, _) -> m) (C.memories c) in
  check_int "max level" (G.max_level g) low.C.max_level;
  check_bool "levels" true (List.map (G.level g) sigs = Array.to_list low.C.level);
  check_bool "fanout" true
    (List.map (fun s -> sinks G.Comb_dep (G.Sig s)) sigs = Array.to_list low.C.fanout);
  check_bool "mem readers" true
    (List.map (fun m -> sinks G.Mem_read (G.Mem m)) mems = Array.to_list low.C.mem_readers)

(* ---- batch runs track independent scalar runs ---- *)

(* Everything a verdict can depend on, per run. *)
type observed = {
  o_stop : Leon3.System.stop_reason;
  o_matched : int;
  o_stop_cycle : int;
  o_mismatch : int option;
  o_events : Bus_event.t list;
}

(* The lockstep comparator of the dense reference: each write — each
   data-side event with [compare_reads] — must equal the next golden
   one. *)
let comparator sys (golden : Campaign.golden) ~compare_reads ~matched ~mismatch =
  let reference =
    if compare_reads then golden.Campaign.events else golden.Campaign.writes
  in
  fun ev ->
    if not (compare_reads || Bus_event.is_write ev) then true
    else if
      !matched < Array.length reference && Bus_event.equal ev reference.(!matched)
    then begin
      incr matched;
      true
    end
    else begin
      mismatch := Some (Leon3.System.cycles sys);
      false
    end

(* Scalar reference: the dense [run_one] comparator on the reference
   engine, exposing the raw observables instead of a classified
   verdict. *)
let scalar_observe sys prog golden ~compare_reads ~max_cycles (sp : Batch.spec) =
  let c = circuit sys in
  let matched = ref 0 and mismatch = ref None in
  let stop =
    C.reference c @@ fun () ->
    Leon3.System.load sys prog;
    C.inject c ~from_cycle:sp.Batch.from_cycle ?duration:sp.Batch.duration
      sp.Batch.site sp.Batch.model;
    let on_event = comparator sys golden ~compare_reads ~matched ~mismatch in
    Leon3.System.run ~on_event sys ~max_cycles
  in
  C.clear_fault c;
  { o_stop = stop;
    o_matched = !matched;
    o_stop_cycle = Leon3.System.cycles sys;
    o_mismatch = !mismatch;
    o_events = Leon3.System.events sys }

let observed_of_result (r : Batch.result) =
  { o_stop = r.Batch.stop;
    o_matched = r.Batch.matched;
    o_stop_cycle = r.Batch.stop_cycle;
    o_mismatch = r.Batch.mismatch_cycle;
    o_events = r.Batch.events }

let pp_observed o =
  Format.asprintf "%a matched=%d stop=%d mismatch=%s events=%d"
    Leon3.System.pp_stop o.o_stop o.o_matched o.o_stop_cycle
    (match o.o_mismatch with None -> "-" | Some c -> string_of_int c)
    (List.length o.o_events)

(* Continue an ejected lane on the scalar engine from its transplanted
   trace-end state, change-driven as the watchdog continues it,
   exposing the same raw observables as [scalar_observe] — every field
   must then equal the from-zero reference run's, since the transplant
   hands over the exact state. *)
let continue_observe sys golden ~compare_reads ~max_cycles (e : Batch.ejected) =
  let c = circuit sys in
  Leon3.System.transplant sys e.Batch.e_tp ~mem:e.Batch.e_mem ~iport:e.Batch.e_iport
    ~dport:e.Batch.e_dport ~events_rev:e.Batch.e_events_rev
    ~n_events:(List.length e.Batch.e_events_rev)
    ~n_writes:e.Batch.e_writes;
  let matched = ref e.Batch.e_matched and mismatch = ref e.Batch.e_mismatch in
  let on_event = comparator sys golden ~compare_reads ~matched ~mismatch in
  let stop = Leon3.System.run ~on_event sys ~max_cycles in
  C.clear_fault c;
  { o_stop = stop;
    o_matched = !matched;
    o_stop_cycle = Leon3.System.cycles sys;
    o_mismatch = !mismatch;
    o_events = Leon3.System.events sys }

(* The evaluations a one-lane pass of [sp] makes through cycle [upto]:
   the pass runs on the golden trace cut at that cycle, so a lane still
   live there is ejected at the cut's end, having made exactly the
   evaluations it makes up to [upto] in any pass — a lane's evaluations
   depend on its own divergence alone. *)
let evals_through sys prog ~reference ~compare_reads ~max_cycles sp upto =
  let c = circuit sys in
  C.trace_start c;
  Leon3.System.load sys prog;
  ignore (Leon3.System.run_segment sys ~until_cycle:upto ~max_cycles);
  let cut = C.trace_stop c in
  let _, stats = Batch.run ~sys ~prog ~trace:cut ~reference ~max_cycles ~compare_reads [| sp |] in
  stats.C.bs_evals

(* The golden trace's deltas over cycles [from + 1 .. upto]. *)
let deltas_over trace ~from ~upto =
  let n = ref 0 in
  for k = from + 1 to upto do
    n := !n + Array.length (C.trace_deltas trace k)
  done;
  !n

(* [Batch.run]'s early-ejection window, in cycles. *)
let dense_window = 256

(* Every lane must equal its scalar run field for field — stop
   reason, stop cycle, matched count, mismatch cycle and the full event
   stream — directly when the batch decided it, through its
   transplanted continuation when it was ejected.  A lane whose run is
   still undecided at the last cycle the trace covers is ejected, at
   that cycle unless it left earlier; a lane that left earlier has a
   permanent fault, left at a [dense_window] boundary, and made more
   evaluations over the window that ended there than the golden trace
   has deltas.  With [compare_reads] the lanes and the scalar runs
   compare every data-side event against the golden event stream.  [on]
   is the program and its golden setup (default [small_prog]) on [sys]
   (default the behavioural system).  Returns the outcomes and the
   pass's work counters. *)
let batch_vs_scalar ?(sys = shared_sys) ?(on = (small_prog, golden_setup)) ~compare_reads
    specs =
  let sys = Lazy.force sys in
  let prog = Lazy.force (fst on) in
  let golden, trace, _ = Lazy.force (snd on) in
  let max_cycles = (4 * golden.Campaign.cycles) + 2000 in
  let last = C.trace_cycles trace - 1 in
  let reference =
    if compare_reads then golden.Campaign.events else golden.Campaign.writes
  in
  let outcomes, stats =
    Batch.run ~sys ~prog ~trace ~reference ~max_cycles ~compare_reads specs
  in
  let left_dense i sp cyc =
    let evals upto =
      if upto = 0 then 0
      else evals_through sys prog ~reference ~compare_reads ~max_cycles sp upto
    in
    let window = evals cyc - evals (cyc - dense_window) in
    let deltas = deltas_over trace ~from:(cyc - dense_window) ~upto:cyc in
    check_bool (Printf.sprintf "lane %d: left early with a permanent fault" i) true
      (sp.Batch.duration = None);
    check_int (Printf.sprintf "lane %d: left at a window boundary" i) 0 (cyc mod dense_window);
    check_bool
      (Printf.sprintf "lane %d: %d evaluations over the window > %d golden deltas" i window
         deltas)
      true (window > deltas)
  in
  Array.iteri
    (fun i outcome ->
      let scalar = scalar_observe sys prog golden ~compare_reads ~max_cycles specs.(i) in
      let b =
        match outcome with
        | Batch.Done r -> observed_of_result r
        | Batch.Converged cyc ->
            Alcotest.failf "lane %d: converged at %d with no boundaries" i cyc
        | Batch.Ejected e ->
            let cyc = C.transplant_cycle e.Batch.e_tp in
            if cyc < last then left_dense i specs.(i) cyc
            else check_int (Printf.sprintf "lane %d: ejected at the last trace cycle" i) last cyc;
            continue_observe sys golden ~compare_reads ~max_cycles e
      in
      if scalar.o_stop_cycle > last then
        check_bool (Printf.sprintf "lane %d: live at the last trace cycle, ejected" i) true
          (match outcome with
          | Batch.Ejected _ -> true
          | Batch.Done _ | Batch.Converged _ -> false);
      if b <> scalar then
        Alcotest.failf "lane %d: batch %s <> scalar %s" i (pp_observed b)
          (pp_observed scalar))
    outcomes;
  (outcomes, stats)

(* The cycle at which each lane of a pass was ejected, [None] for a
   lane the pass decided. *)
let ejection_cycles outcomes =
  Array.map
    (function
      | Batch.Ejected e -> Some (C.transplant_cycle e.Batch.e_tp)
      | Batch.Done _ | Batch.Converged _ -> None)
    outcomes

let spec ?duration ?(from_cycle = 0) site model =
  { Batch.site; model; from_cycle; duration }

let full_occupancy_specs setup =
  (* A mix of sites, models and injection cycles (many silent, some
     failing, some trapping, a few outliving the trace). *)
  let golden, _, sites = Lazy.force setup in
  let models = [| C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip |] in
  Array.init C.max_lanes (fun i ->
      let site = sites.(i * 131 mod Array.length sites) in
      let from_cycle =
        if i mod 3 = 0 then 0 else i * 17 mod (golden.Campaign.cycles + 10)
      in
      let duration = if i mod 5 = 4 then Some ((i mod 3) + 1) else None in
      spec ?duration ~from_cycle site.Injection.fault_site models.(i mod 4))

let test_batch_full_occupancy () =
  ignore (batch_vs_scalar ~compare_reads:false (full_occupancy_specs golden_setup));
  (* every data-side event compared, on a program that reads *)
  let golden, _, _ = Lazy.force reads_setup in
  check_bool "the program puts reads on the bus" true
    (Array.length golden.Campaign.events > Array.length golden.Campaign.writes);
  ignore
    (batch_vs_scalar ~on:(reads_prog, reads_setup) ~compare_reads:true
       (full_occupancy_specs reads_setup))

let test_batch_past_trace_end () =
  (* Campaign-shaped lanes — permanent faults armed at cycle 0 — are
     the ones that outlive the trace: every lane still live at the last
     trace cycle comes back as a transplant whose scalar continuation
     byte-matches the from-zero run. *)
  let _, _, sites = Lazy.force golden_setup in
  let models = [| C.Stuck_at_0; C.Stuck_at_1; C.Open_line |] in
  let outcomes, _ =
    batch_vs_scalar ~compare_reads:false
      (Array.init C.max_lanes (fun i ->
           let site = sites.(((i * 97) + 13) mod Array.length sites) in
           spec site.Injection.fault_site models.(i mod 3)))
  in
  check_bool "some lanes outlive the trace" true
    (Array.exists Option.is_some (ejection_cycles outcomes))

(* ---- dense lanes leave the pass early, quiet lanes stay ----

   One pass of three lanes on [small_prog]: a stuck-at-0 on a next-PC
   bit, which derails fetch for good and diverges almost everywhere; a
   stuck-at-1 on a register-file cell that no instruction reads; and a
   one-cycle flip of the same next-PC bit, which derails fetch as
   densely.  The stuck bit must leave at the first window boundary,
   long before the trace ends; the cell costs next to nothing and
   stays; the flip's fault is bounded, so it stays however dense it
   is, and its derailed run is still live at the last trace cycle. *)
let test_dense_lanes_leave () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden, trace, sites = Lazy.force golden_setup in
  let site name =
    match Array.find_opt (fun s -> s.Injection.site_name = name) sites with
    | Some s -> s.Injection.fault_site
    | None -> Alcotest.failf "no site %s" name
  in
  let next_pc = site "iu.ex.ex_next_pc_r[3]" in
  let specs =
    [| spec next_pc C.Stuck_at_0;
       spec (site "iu.regfile.regs[84][0]") C.Stuck_at_1;
       spec ~from_cycle:20 ~duration:1 next_pc C.Bit_flip |]
  in
  let last = C.trace_cycles trace - 1 in
  check_bool "the trace outlasts one window" true (last > dense_window);
  let outcomes, _ = batch_vs_scalar ~compare_reads:false specs in
  let at = ejection_cycles outcomes in
  check_bool "the stuck next-PC bit leaves at the first window boundary" true
    (at.(0) = Some dense_window);
  check_bool "the never-read cell stays, and is decided in the pass" true (at.(1) = None);
  check_bool "the one-cycle flip stays to the last trace cycle" true (at.(2) = Some last);
  (* the flip was as dense as a lane the rule ejects: only its bounded
     fault kept it in the pass *)
  let evals =
    evals_through sys prog ~reference:golden.Campaign.writes ~compare_reads:false
      ~max_cycles:((4 * golden.Campaign.cycles) + 2000)
      specs.(2) dense_window
  in
  check_bool "the flip out-evaluates golden over the first window" true
    (evals > deltas_over trace ~from:0 ~upto:dense_window)

let test_batch_cell_faults () =
  let _, _, sites = Lazy.force golden_setup in
  let cells =
    Array.of_list
      (List.filter
         (fun s ->
           match s.Injection.fault_site with C.Cell _ -> true | C.Node _ -> false)
         (Array.to_list sites))
  in
  check_bool "cell sites exist" true (Array.length cells > 8);
  let specs =
    Array.init
      (min 16 (Array.length cells))
      (fun i ->
        let site = cells.(i * 37 mod Array.length cells) in
        let model =
          [| C.Stuck_at_0; C.Stuck_at_1; C.Bit_flip; C.Open_line |].(i mod 4)
        in
        spec site.Injection.fault_site model)
  in
  ignore (batch_vs_scalar ~compare_reads:false specs)

(* The gate-level node classes a lane can sit on: the gate cells and
   taps the lanes evaluate bit-sliced, and the packers and registers
   they evaluate lane by lane. *)
let gate_classes =
  [ ("NOT", fun low id -> low.C.shape.(id) = C.shape_not);
    ("BUF", fun low id -> low.C.shape.(id) = C.shape_buf);
    ("NAND", fun low id -> low.C.shape.(id) = C.shape_nand);
    ("NOR", fun low id -> low.C.shape.(id) = C.shape_nor);
    ("MUX", fun low id -> low.C.shape.(id) = C.shape_mux);
    ( "tap",
      fun low id ->
        low.C.shape.(id) <> C.shape_none && low.C.masks.(low.C.deps.(id).(0)) > 1 );
    ( "packer",
      fun low id ->
        low.C.masks.(id) > 1
        && Array.length low.C.deps.(id) > 1
        && Array.for_all (fun d -> low.C.masks.(d) = 1) low.C.deps.(id) );
    ("register", fun low id -> Array.mem id low.C.regs) ]

let test_gate_level_batch () =
  (* 63 lanes on the gate-level netlist, each class above under
     stuck-at-0, stuck-at-1, open-line and a one-cycle bit flip, on
     sites whose bit the golden run toggles (so every fault
     activates): each lane must equal its dense scalar run. *)
  let sys = Lazy.force gate_sys in
  let golden, _, sites = Lazy.force gate_setup in
  let low = C.compiled_plan (circuit sys) in
  let cov = Option.get golden.Campaign.coverage in
  let toggled cls =
    Array.of_list
      (List.filter
         (fun s ->
           match s.Injection.fault_site with
           | C.Node (n, _) ->
               cls low (n :> int)
               && not (C.never_activates cov s.Injection.fault_site C.Open_line)
           | C.Cell _ -> false)
         (Array.to_list sites))
  in
  let pools =
    Array.of_list
      (List.map
         (fun (name, cls) ->
           let pool = toggled cls in
           check_bool (name ^ " sites toggle in the golden run") true
             (Array.length pool > 0);
           pool)
         gate_classes)
  in
  let models = [| C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip |] in
  let specs =
    Array.init C.max_lanes (fun i ->
        let pool = pools.(i mod Array.length pools) in
        let k = i / Array.length pools in
        let site = pool.(k * 53 mod Array.length pool) in
        match models.(k mod 4) with
        | C.Bit_flip ->
            spec ~duration:1
              ~from_cycle:(golden.Campaign.cycles * (1 + (k mod 7)) / 9)
              site.Injection.fault_site C.Bit_flip
        | model -> spec ~from_cycle:(k mod 3 * 20) site.Injection.fault_site model)
  in
  let _, stats =
    batch_vs_scalar ~sys:gate_sys ~on:(small_prog, gate_setup) ~compare_reads:false specs
  in
  check_bool "lanes evaluated bit-sliced" true (stats.C.bs_sliced_evals > 0)

(* qcheck: random small batches equal per-lane scalar runs. *)
let gen_specs =
  let open QCheck2.Gen in
  let one =
    map3
      (fun si model (pct, duration) -> (si, model, pct, duration))
      (int_bound 100_000)
      (oneofl [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip ])
      (pair (int_bound 99) (oneofl [ None; Some 1; Some 4 ]))
  in
  list_size (int_range 1 12) one

let print_specs l =
  String.concat "; "
    (List.map
       (fun (si, model, pct, duration) ->
         Printf.sprintf "site#%d %s at %d%% dur %s" si (C.fault_model_name model)
           pct
           (match duration with None -> "perm" | Some d -> string_of_int d))
       l)

let prop_batch_matches_scalar =
  QCheck2.Test.make ~name:"batch lanes = independent scalar runs" ~count:30
    ~print:print_specs gen_specs (fun l ->
      let golden, _, sites = Lazy.force golden_setup in
      let specs =
        Array.of_list
          (List.map
             (fun (si, model, pct, duration) ->
               let site = sites.(si mod Array.length sites) in
               spec ?duration
                 ~from_cycle:(golden.Campaign.cycles * pct / 100)
                 site.Injection.fault_site model)
             l)
      in
      ignore (batch_vs_scalar ~compare_reads:false specs);
      true)

(* ---- convergence is exactly state equality ---- *)

(* The golden run of [prog], stepped: its write count, both bus
   drivers and its full state at every settled cycle before it stops.
   [n] is its cycle count. *)
let golden_states sys prog ~n =
  let c = circuit sys in
  Leon3.System.load sys prog;
  let at = ref [] in
  let rec step_golden () =
    let cyc = Leon3.System.cycles sys in
    at :=
      ( (List.length (Leon3.System.writes sys), Leon3.System.ports sys),
        C.snapshot c,
        Memory.copy (Leon3.System.memory sys) )
      :: !at;
    match Leon3.System.run_segment sys ~until_cycle:(cyc + 1) ~max_cycles:(n + 1) with
    | Some _ -> ()
    | None -> step_golden ()
  in
  step_golden ();
  Array.of_list (List.rev !at)

(* The first cycle at or after the expiry of a one-cycle upset of
   [site] at [inject_cycle] at which its dense stepped run, past that
   cycle's terminal checks, equals the golden run [at] in full state —
   circuit, main memory, both bus drivers — and matched count; [None]
   when there is none. *)
let dense_convergence sys prog golden at ~inject_cycle site =
  let c = circuit sys in
  C.reference c @@ fun () ->
  Leon3.System.load sys prog;
  C.inject c ~from_cycle:inject_cycle ~duration:1 site C.Bit_flip;
  let matched = ref 0 and mismatch = ref None in
  let on_event = comparator sys golden ~compare_reads:false ~matched ~mismatch in
  let rec go () =
    let cyc = Leon3.System.cycles sys in
    if cyc >= Array.length at then None
    else
      let (writes, ports), snap, mem = at.(cyc) in
      if
        cyc > inject_cycle
        && !matched = writes
        && Leon3.System.ports sys = ports
        && C.state_equal c snap
        && Memory.equal (Leon3.System.memory sys) mem
      then Some cyc
      else
        match
          Leon3.System.run_segment ~on_event sys ~until_cycle:(cyc + 1)
            ~max_cycles:(Array.length at)
        with
        | Some _ -> None
        | None -> go ()
  in
  let r = go () in
  C.clear_fault c;
  r

let test_convergence_is_state_equality () =
  (* Eight one-cycle upsets at cycle 40, run as lanes with a boundary
     at every cycle.  A lane must converge at exactly the first
     boundary at or after its fault expires where a dense stepped run
     of the same upset equals the golden run in full state — circuit,
     main memory, both bus drivers — and matched count, and must not
     converge when there is none: the lane predicate and full state
     equality are the same predicate. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden, trace, sites = Lazy.force golden_setup in
  let n = golden.Campaign.cycles in
  check_bool "golden run long enough" true (n > 60);
  let at = golden_states sys prog ~n in
  let inject_cycle = 40 in
  let upsets =
    List.map
      (fun si -> sites.(si mod Array.length sites))
      [ 1; 57; 313; 1009; 2203; 3301; 4409; 5507 ]
  in
  let outcomes, _ =
    Batch.run ~sys ~prog ~trace ~reference:golden.Campaign.writes
      ~max_cycles:((4 * n) + 2000) ~converge_every:1
      (Array.of_list
         (List.map
            (fun s -> spec ~duration:1 ~from_cycle:inject_cycle s.Injection.fault_site C.Bit_flip)
            upsets))
  in
  let converged = ref 0 in
  List.iteri
    (fun i site ->
      let got =
        match outcomes.(i) with
        | Batch.Converged bc ->
            incr converged;
            Some bc
        | Batch.Done _ | Batch.Ejected _ -> None
      in
      Alcotest.(check (option int))
        (site.Injection.site_name ^ ": converged at the first state-equal boundary")
        (dense_convergence sys prog golden at ~inject_cycle site.Injection.fault_site)
        got)
    upsets;
  check_bool "at least one upset re-converged" true (!converged > 0)

let test_boundaries_never_thin () =
  (* A golden run with a boundary at every cycle keeps one at every
     cycle to its end: upsets past the 96th cycle, run one lane at a
     time through [Campaign.run_one], must retire at the first cycle
     where their dense stepped run equals golden in full state, as
     early ones do. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force reads_prog in
  let golden =
    Campaign.golden_run ~trace:true ~checkpoint_every:1 sys prog ~max_cycles:100_000
  in
  let n = golden.Campaign.cycles in
  check_bool (Printf.sprintf "golden run of %d cycles long enough" n) true (n > 300);
  let at = golden_states sys prog ~n in
  let sites = Array.of_list (Injection.sites (Leon3.System.core sys) Injection.Iu) in
  let plan = C.compiled_plan (circuit sys) in
  let converged = ref 0 in
  List.iter
    (fun (si, inject_cycle) ->
      let site = sites.(si mod Array.length sites) in
      let r =
        Campaign.run_one ~plan sys prog golden ~inject_cycle ~duration:1 site C.Bit_flip
      in
      let got =
        match r.Campaign.sim with
        | Campaign.Converged e ->
            incr converged;
            Some e
        | Campaign.Simulated | Campaign.Prefiltered | Campaign.Pruned
        | Campaign.Collapsed _ ->
            None
      in
      Alcotest.(check (option int))
        (Printf.sprintf "%s at %d: converged at the first state-equal cycle"
           site.Injection.site_name inject_cycle)
        (dense_convergence sys prog golden at ~inject_cycle site.Injection.fault_site)
        got)
    [ (1, 97); (57, 130); (313, 161); (1009, 199); (2203, 233); (3301, 251);
      (4409, 277); (5507, 290) ];
  check_bool "at least one upset re-converged" true (!converged > 0)

(* ---- a single fault is a one-lane batch ---- *)

(* On [reads_prog], so that comparing reads matters: a traced golden
   run with boundaries every 16 cycles, and the dense reference's
   golden run (no coverage or trace). *)
let goldens_of sys =
  lazy
    (let sys = Lazy.force sys in
     let prog = Lazy.force reads_prog in
     ( Campaign.golden_run ~trace:true ~checkpoint_every:16 sys prog ~max_cycles:100_000,
       Campaign.golden_run sys prog ~max_cycles:100_000 ))

let goldens = goldens_of shared_sys

let gate_goldens = goldens_of gate_sys

let gen_fault =
  let open QCheck2.Gen in
  let model = oneofl [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip ] in
  let duration = oneofl [ None; Some 1; Some 4 ] in
  map3
    (fun si model (pct, duration, compare_reads) -> (si, model, pct, duration, compare_reads))
    (int_bound 100_000) model
    (triple (int_bound 99) duration bool)

let print_fault setup (si, model, pct, duration, compare_reads) =
  let _, _, sites = Lazy.force setup in
  Printf.sprintf "%s %s at %d%% duration %s%s"
    sites.(si mod Array.length sites).Injection.site_name
    (C.fault_model_name model) pct
    (match duration with None -> "permanent" | Some d -> string_of_int d)
    (if compare_reads then " comparing reads" else "")

(* Everything a verdict holds but [sim], which records the layer that
   decided it. *)
let verdict (r : Campaign.run_result) =
  ( r.Campaign.site_name, r.Campaign.model, r.Campaign.outcome, r.Campaign.detect_cycle,
    r.Campaign.inject_cycle )

(* A fault on a site of [setup]'s pool, run on [sys] as a one-lane
   batch and densely, on [reads_prog]. *)
let one_lane_matches_dense ~name ~count sys setup goldens =
  QCheck2.Test.make ~name ~count ~print:(print_fault setup) gen_fault
    (fun (si, model, pct, duration, compare_reads) ->
      let sys = Lazy.force sys in
      let prog = Lazy.force reads_prog in
      let _, _, sites = Lazy.force setup in
      let traced, dense = Lazy.force goldens in
      let site = sites.(si mod Array.length sites) in
      let inject_cycle = dense.Campaign.cycles * pct / 100 in
      let run ?plan golden =
        verdict
          (Campaign.run_one ?plan sys prog golden ~inject_cycle ?duration ~compare_reads
             site model)
      in
      run ~plan:(C.compiled_plan (circuit sys)) traced = run dense)

let prop_one_lane_matches_dense =
  one_lane_matches_dense ~name:"one-lane run_one = dense run_one, verdict for verdict"
    ~count:50 shared_sys golden_setup goldens

let prop_one_lane_matches_dense_gate =
  one_lane_matches_dense ~name:"one-lane run_one = dense run_one at gate level" ~count:25
    gate_sys gate_setup gate_goldens

(* ---- lane arming and early retirement ---- *)

let rejected f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_lane_masks_and_retirement () =
  (* Stuck-at/open-line/bit-flip lanes armed on one node diverge (or
     not) exactly per model semantics, and retiring a lane clears its
     divergence without disturbing the others. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let _, trace, sites = Lazy.force golden_setup in
  let c = circuit sys in
  (* a node the program actually exercises: first IU node site *)
  let site =
    (Array.to_list sites
    |> List.find (fun s ->
           match s.Injection.fault_site with
           | C.Node _ -> true
           | C.Cell _ -> false))
      .Injection.fault_site
  in
  let node, bit = match site with C.Node (s, b) -> (s, b) | C.Cell _ -> assert false in
  Leon3.System.load sys prog;
  let pass = Lanes.start c trace in
  check_int "golden copied from the circuit" (C.value c node) (Lanes.golden pass node);
  Lanes.arm pass 0 site C.Stuck_at_0;
  Lanes.arm pass 1 site C.Stuck_at_1;
  Lanes.arm pass 2 site C.Open_line;
  Lanes.arm pass 3 site C.Bit_flip;
  check_bool "arming a live lane rejected" true
    (rejected (fun () -> Lanes.arm pass 3 site C.Bit_flip));
  Lanes.settle pass;
  let g = Lanes.golden pass node in
  check_int "stuck-at-0 lane view" (g land lnot (1 lsl bit)) (Lanes.value pass node 0);
  check_int "stuck-at-1 lane view" (g lor (1 lsl bit)) (Lanes.value pass node 1);
  check_int "open-line lane view" (g land lnot (1 lsl bit)) (Lanes.value pass node 2);
  check_int "bit-flip lane view" (g lxor (1 lsl bit)) (Lanes.value pass node 3);
  Lanes.retire pass 1;
  check_bool "retiring a retired lane rejected" true (rejected (fun () -> Lanes.retire pass 1));
  check_int "retired lane reads golden" g (Lanes.value pass node 1);
  check_int "lane 3 untouched by retirement" (g lxor (1 lsl bit)) (Lanes.value pass node 3);
  Lanes.retire pass 0;
  Lanes.retire pass 2;
  Lanes.retire pass 3;
  check_bool "some lane evaluations happened" true ((Lanes.stats pass).C.bs_evals > 0)

let test_lanes_leave_circuit_untouched () =
  (* A lanes pass runs on its own copy of the golden machine: a full
     [Batch.run] whose lanes diverge, retire and are ejected leaves the
     circuit in the state [load] left, and the scalar engine can settle
     it in the middle of a pass. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden, trace, sites = Lazy.force golden_setup in
  let c = circuit sys in
  Leon3.System.load sys prog;
  let loaded = C.snapshot c in
  let models = [| C.Stuck_at_0; C.Stuck_at_1; C.Open_line |] in
  let specs =
    Array.init C.max_lanes (fun i ->
        spec sites.(((i * 97) + 13) mod Array.length sites).Injection.fault_site
          models.(i mod 3))
  in
  let outcomes, _ =
    Batch.run ~sys ~prog ~trace ~reference:golden.Campaign.writes
      ~max_cycles:((4 * golden.Campaign.cycles) + 2000)
      specs
  in
  let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 outcomes in
  check_bool "some lanes retired" true
    (count (function Batch.Done _ -> true | Batch.Converged _ | Batch.Ejected _ -> false) > 0);
  check_bool "some lanes ejected" true
    (count (function Batch.Ejected _ -> true | Batch.Done _ | Batch.Converged _ -> false) > 0);
  check_bool "circuit in its loaded state after a pass" true (C.state_equal c loaded);
  (* in the middle of a pass *)
  let pass = Lanes.start c trace in
  Lanes.arm pass 0 specs.(0).Batch.site specs.(0).Batch.model;
  Lanes.settle pass;
  for _ = 1 to 20 do
    Lanes.clock pass;
    Lanes.settle pass
  done;
  C.settle c;
  check_bool "scalar settle mid-pass" true (C.state_equal c loaded);
  (* the lanes' clock stops where the trace does *)
  while Lanes.cycle pass < C.trace_cycles trace - 1 do
    Lanes.clock pass;
    Lanes.settle pass
  done;
  check_bool "clock past the trace rejected" true (rejected (fun () -> Lanes.clock pass));
  check_bool "circuit in its loaded state at trace end" true (C.state_equal c loaded)

(* ---- a never-read register-file cell costs no read-port work ----

   A lane's read port re-derives only when the lane's view of the
   array or the port's address moved for it, never because a cell
   fault is armed.  Stuck-at-1 lanes on register-file words that no
   read port addresses and no write port writes over the whole golden
   run force their cell once; that moves the lane's view, so each read
   port of the register file re-derives once per lane, and nothing else
   is ever evaluated. *)

let test_never_read_cells_cost_nothing () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let c = circuit sys in
  let low = C.compiled_plan c in
  let rf = (Leon3.System.core sys).Leon3.Core.regfile in
  let m = (rf :> int) in
  let words =
    List.find_map (fun (_, mm, words, _) -> if mm = rf then Some words else None) (C.memories c)
    |> Option.get
  in
  let signal = Hashtbl.create 1024 in
  List.iter (fun (_, (s : C.signal), _) -> Hashtbl.replace signal (s :> int) s) (C.signals c);
  let value id = C.value c (Hashtbl.find signal id) in
  (* the golden run, stepped: every word a read port addresses or a
     write port writes at some settled cycle *)
  let touched = Array.make words false in
  let touch a = if a < words then touched.(a) <- true in
  let observe () =
    Array.iter (fun rid -> touch (value low.C.deps.(rid).(0))) low.C.mem_readers.(m);
    Array.iter
      (fun wp -> if value wp.C.wp_we <> 0 then touch (value wp.C.wp_addr))
      low.C.mem_ports.(m)
  in
  Leon3.System.load sys prog;
  let rec step_golden () =
    observe ();
    let cyc = Leon3.System.cycles sys in
    match Leon3.System.run_segment sys ~until_cycle:(cyc + 1) ~max_cycles:100_000 with
    | Some _ -> observe ()
    | None -> step_golden ()
  in
  step_golden ();
  let never = Array.of_list (List.filter (fun i -> not touched.(i)) (List.init words Fun.id)) in
  check_bool "some register-file words are never read or written" true
    (Array.length never > 0);
  let specs =
    Array.init C.max_lanes (fun i ->
        spec (C.Cell (rf, never.(i mod Array.length never), i * 7 mod 32)) C.Stuck_at_1)
  in
  let _, stats = batch_vs_scalar ~compare_reads:false specs in
  let bound = Array.length low.C.mem_readers.(m) * Array.length specs in
  check_bool
    (Printf.sprintf "lane evaluations (%d) <= read ports x lanes (%d)" stats.C.bs_evals bound)
    true
    (stats.C.bs_evals <= bound)

(* ---- a lane is evaluated only where its own view of an input moved ----

   Node [n = a + b].  Golden drives [a] with a new value every cycle
   and holds [b], so golden moves [a] and [n] every cycle.  One lane
   holds a constant of its own on [a]: after the cycle it diverges,
   neither its view of [a] nor its view of [b] moves, so its value of
   [n] cannot change, and the lane costs one evaluation of [n] in all,
   however often golden moves [a] and [n].  The lane must still equal
   its scalar run on the reference engine at every cycle. *)

let test_lane_quiet_while_golden_moves () =
  let build () =
    let c = C.create "quiet" in
    let a = C.input c "a" 8 and b = C.input c "b" 8 in
    let n = C.comb2 c "n" 8 a b ( + ) in
    C.elaborate c;
    C.reset c;
    (c, a, b, n)
  in
  let cycles = 50 and own = 200 in
  let c, a, b, n = build () in
  let drive k =
    C.set_input c a k;
    C.set_input c b 3
  in
  drive 0;
  C.settle c;
  let start = C.snapshot c in
  C.trace_start c;
  C.settle c;
  for k = 1 to cycles do
    C.clock c;
    drive k;
    C.settle c
  done;
  let trace = C.trace_stop c in
  C.restore c start;
  let pass = Lanes.start c trace in
  (* a dormant fault makes the lane live; its inputs diverge as driven *)
  Lanes.arm pass 0 ~from_cycle:max_int (C.Node (b, 0)) C.Stuck_at_1;
  let tw, ta, tb, tn = build () in
  let step () =
    Lanes.set_input pass a 0 own;
    Lanes.set_input pass b 0 3;
    Lanes.settle pass;
    C.set_input tw ta own;
    C.set_input tw tb 3;
    C.settle tw;
    check_int
      (Printf.sprintf "cycle %d: lane = its scalar run" (Lanes.cycle pass))
      (C.value tw tn) (Lanes.value pass n 0);
    check_bool "golden moved away from the lane" true (Lanes.golden pass n <> C.value tw tn)
  in
  C.reference tw (fun () ->
      step ();
      for _ = 1 to cycles do
        Lanes.clock pass;
        C.clock tw;
        step ()
      done);
  let evals = (Lanes.stats pass).C.bs_evals in
  check_bool
    (Printf.sprintf "%d lane evaluations over %d cycles, at most 1" evals (cycles + 1))
    true (evals <= 1)

let suite =
  ( "batch",
    [ Alcotest.test_case "compiled plan = graph replay plan" `Quick
        test_compiled_plan_matches_graph;
      Alcotest.test_case "full 63-lane batch = scalar runs" `Slow
        test_batch_full_occupancy;
      Alcotest.test_case "full 63-lane batch past trace end = scalar runs" `Slow
        test_batch_past_trace_end;
      Alcotest.test_case "dense lanes leave, quiet lanes stay" `Quick test_dense_lanes_leave;
      Alcotest.test_case "cell-fault lanes = scalar runs" `Slow
        test_batch_cell_faults;
      Alcotest.test_case "gate-level 63-lane batch = scalar runs" `Slow
        test_gate_level_batch;
      Alcotest.test_case "convergence = state equality" `Quick
        test_convergence_is_state_equality;
      Alcotest.test_case "boundaries never thin" `Quick test_boundaries_never_thin;
      Alcotest.test_case "lane masks per model + retirement" `Quick
        test_lane_masks_and_retirement;
      Alcotest.test_case "lanes leave the circuit untouched" `Quick
        test_lanes_leave_circuit_untouched;
      Alcotest.test_case "never-read cells cost no read-port work" `Quick
        test_never_read_cells_cost_nothing;
      Alcotest.test_case "a lane whose inputs stay put costs nothing" `Quick
        test_lane_quiet_while_golden_moves ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_batch_matches_scalar; prop_one_lane_matches_dense;
          prop_one_lane_matches_dense_gate ] )
