(* Tests for the watchdog-tail machinery: the Brent cycle detector
   (exact period, hash-collision rejection), the observed-cone
   restriction of recurrence comparison, and the lane→scalar
   transplant (state-for-state equal to a from-zero re-simulation
   advanced to the ejection cycle, for lanes ejected at trace end and
   for dense lanes ejected before it). *)

module A = Sparc.Asm
module I = Sparc.Isa
module C = Rtl.Circuit
module Memory = Sparc.Memory
module Bus_event = Sparc.Bus_event
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- the cycle detector on hand-built trajectories ---- *)

(* An oscillating fixture: a counter that ramps for [preamble] steps,
   then loops with period [p].  Stride 1 and an anchor inside the loop
   give detection at exactly one period past the anchor. *)
let test_cycle_exact_period () =
  List.iter
    (fun (preamble, p) ->
      let state = ref 0 in
      let value t = if t < preamble then t else preamble + ((t - preamble) mod p) in
      let det =
        Rtl.Cycle.create ~first:0 ~stride:1
          ~hash:(fun () -> !state * 0x9E3779B9)
          ~capture:(fun () -> !state)
          ~confirm:(fun s -> s = !state)
          ()
      in
      let proven = ref None in
      let t = ref 0 in
      (* the doubling schedule lands an anchor inside the loop by
         cycle 2*(preamble+p); one period later the match is proven *)
      while !proven = None && !t < (4 * (preamble + p)) + 64 do
        state := value !t;
        (match Rtl.Cycle.observe det ~cycle:!t with
        | Some period -> proven := Some period
        | None -> ());
        incr t
      done;
      match !proven with
      | None ->
          Alcotest.failf "no cycle proven (preamble %d, period %d)" preamble p
      | Some period ->
          check_int
            (Printf.sprintf "period (preamble %d, p %d)" preamble p)
            0 (period mod p);
          (* with stride 1 the first confirmed match is one minimal
             period past an in-loop anchor *)
          check_int
            (Printf.sprintf "minimal period (preamble %d, p %d)" preamble p)
            p period)
    [ (0, 1); (0, 5); (3, 7); (300, 4); (17, 60) ]

(* A colliding fixture: the fingerprint is constant but the state
   never repeats — every candidate must be rejected by the exact
   confirmation and no cycle may ever be reported. *)
let test_cycle_collisions_rejected () =
  let state = ref 0 in
  let det =
    Rtl.Cycle.create ~first:0 ~stride:1
      ~hash:(fun () -> 42)
      ~capture:(fun () -> !state)
      ~confirm:(fun s -> s = !state)
      ()
  in
  for t = 0 to 4096 do
    state := t;
    match Rtl.Cycle.observe det ~cycle:t with
    | Some period -> Alcotest.failf "false cycle of period %d at step %d" period t
    | None -> ()
  done;
  check_bool "candidates were submitted" true (Rtl.Cycle.candidates det > 0);
  check_bool "all candidates rejected as collisions" true
    (Rtl.Cycle.collisions det = Rtl.Cycle.candidates det);
  check_bool "fingerprints were computed" true (Rtl.Cycle.checks det > 4000)

(* ---- transplant = from-zero re-simulation at the ejection cycle ---- *)

let shared_sys = lazy (Leon3.System.create ())

let circuit sys = (Leon3.System.core sys).Leon3.Core.circuit

let small_prog =
  lazy
    (let b = A.create ~name:"tail-small" () in
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

let golden_setup =
  lazy
    (let sys = Lazy.force shared_sys in
     let prog = Lazy.force small_prog in
     let golden = Campaign.golden_run ~trace:true sys prog ~max_cycles:100_000 in
     let trace = Option.get golden.Campaign.trace in
     let sites =
       Array.of_list (Injection.sites (Leon3.System.core sys) Injection.Iu)
     in
     (golden, trace, sites))

let spec site model = { Batch.site; model; from_cycle = 0; duration = None }

(* Permanent faults the batch hands over to the scalar engine,
   discovered by sweeping full batches over the site pool: [early] the
   dense lanes it ejected before the trace's last cycle, [at_end] the
   lanes still undecided there.  The sweep goes on until it has found
   both. *)
let ejecting_specs =
  lazy
    (let sys = Lazy.force shared_sys in
     let prog = Lazy.force small_prog in
     let golden, trace, sites = Lazy.force golden_setup in
     let max_cycles = (4 * golden.Campaign.cycles) + 2000 in
     let last = C.trace_cycles trace - 1 in
     let models = [| C.Stuck_at_0; C.Stuck_at_1; C.Open_line |] in
     let early = ref [] and at_end = ref [] in
     let stride = ref 0 in
     while (!early = [] || !at_end = []) && !stride < 8 do
       let specs =
         Array.init C.max_lanes (fun i ->
             let k = (i * 131) + (!stride * 977) in
             spec sites.(k mod Array.length sites).Injection.fault_site
               models.(i mod 3))
       in
       let outcomes, _ =
         Batch.run ~sys ~prog ~trace ~reference:golden.Campaign.writes ~max_cycles specs
       in
       Array.iteri
         (fun i o ->
           match o with
           | Batch.Ejected e when C.transplant_cycle e.Batch.e_tp < last ->
               early := specs.(i) :: !early
           | Batch.Ejected _ -> at_end := specs.(i) :: !at_end
           | Batch.Done _ | Batch.Converged _ -> ())
         outcomes;
       incr stride
     done;
     (Array.of_list (List.rev !early), Array.of_list (List.rev !at_end)))

(* Eject one spec: a single-lane batch hands its lane over as a
   transplant at the cycle the full batch did — a lane's evaluations,
   and so its early ejection, depend on its own divergence alone. *)
let eject_one sys prog golden trace ~max_cycles sp =
  let outcomes, _ =
    Batch.run ~sys ~prog ~trace ~reference:golden.Campaign.writes ~max_cycles [| sp |]
  in
  match outcomes.(0) with
  | Batch.Ejected e -> Some e
  | Batch.Done _ | Batch.Converged _ -> None

let check_transplant_matches_rerun sp =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden, trace, _ = Lazy.force golden_setup in
  let c = circuit sys in
  let max_cycles = (4 * golden.Campaign.cycles) + 2000 in
  match eject_one sys prog golden trace ~max_cycles sp with
  | None -> Alcotest.fail "an ejecting spec was decided in its one-lane pass"
  | Some e ->
      let tc = C.transplant_cycle e.Batch.e_tp in
      (* from-zero re-simulation on the reference engine, advanced to
         the transplant's cycle, then on to its verdict under the same
         fault, without loop detection, for the stop-reason
         comparison *)
      let snap, rerun_mem, rerun_events, rerun_stop =
        C.reference c @@ fun () ->
        Leon3.System.load sys prog;
        C.inject c ~from_cycle:sp.Batch.from_cycle ?duration:sp.Batch.duration
          sp.Batch.site sp.Batch.model;
        (match
           Leon3.System.run_segment sys ~until_cycle:tc ~max_cycles:(max_cycles * 2)
         with
        | None -> ()
        | Some r ->
            Alcotest.failf "from-zero rerun stopped (%s) before the ejection cycle %d"
              (Format.asprintf "%a" Leon3.System.pp_stop r)
              tc);
        let snap = C.snapshot c in
        let mem = Memory.copy (Leon3.System.memory sys) in
        let events = Leon3.System.events sys in
        let stop = Leon3.System.run sys ~max_cycles in
        (snap, mem, events, (stop, Leon3.System.cycles sys))
      in
      C.clear_fault c;
      (* the transplanted system must stand exactly where the re-run
         stood at the ejection cycle: registers, memories, cycle
         counter, main memory and the recorded event stream *)
      Leon3.System.transplant sys e.Batch.e_tp ~mem:e.Batch.e_mem
        ~iport:e.Batch.e_iport ~dport:e.Batch.e_dport
        ~events_rev:e.Batch.e_events_rev
        ~n_events:(List.length e.Batch.e_events_rev)
        ~n_writes:e.Batch.e_writes;
      check_bool "circuit state equal (registers + memories + cycle)" true
        (C.state_equal c snap);
      check_bool "main-memory image equal" true
        (Memory.equal (Leon3.System.memory sys) rerun_mem);
      check_bool "event stream equal" true
        (List.rev e.Batch.e_events_rev = rerun_events);
      check_int "write count equal" e.Batch.e_writes
        (List.length (List.filter Bus_event.is_write rerun_events));
      (* continuing the transplant reproduces the re-run's future *)
      let stop = Leon3.System.run sys ~max_cycles in
      let cyc = Leon3.System.cycles sys in
      C.clear_fault c;
      check_bool "stop reason equal" true ((stop, cyc) = rerun_stop)

let test_transplant_known_ejecting () =
  let early, at_end = Lazy.force ejecting_specs in
  check_bool "dense lanes ejected before trace end" true (Array.length early > 0);
  check_bool "lanes ejected at trace end" true (Array.length at_end > 0);
  Array.iter check_transplant_matches_rerun
    (Array.append
       (Array.sub early 0 (min 2 (Array.length early)))
       (Array.sub at_end 0 (min 2 (Array.length at_end))))

(* Each case checks one lane ejected before trace end and one ejected
   at it. *)
let prop_transplant_matches_rerun =
  QCheck2.Test.make ~name:"transplant = from-zero rerun at the ejection cycle" ~count:12
    ~print:string_of_int
    QCheck2.Gen.(int_bound 100_000)
    (fun k ->
      let early, at_end = Lazy.force ejecting_specs in
      if Array.length early = 0 then QCheck2.Test.fail_report "no spec ejected early";
      if Array.length at_end = 0 then QCheck2.Test.fail_report "no spec ejected at trace end";
      check_transplant_matches_rerun early.(k mod Array.length early);
      check_transplant_matches_rerun at_end.(k mod Array.length at_end);
      true)

(* ---- the observed cone: free-running accounting state outside the
   cone (the instret pattern) must not block a recurrence proof, while
   a circuit with no cone compares full state ---- *)
let test_observed_cone () =
  (* a 2-state oscillator drives the observable output; a free-running
     counter (never read by the output) accumulates forever *)
  let build ~cone =
    let c = C.create "cone" in
    let osc = C.reg c "osc" ~width:1 ~init:0 () in
    let ctr = C.reg c "ctr" ~width:16 ~init:0 () in
    let out = C.comb1 c "out" 1 osc (fun v -> v) in
    C.connect c osc ~d:(C.comb1 c "osc_n" 1 osc (fun v -> lnot v land 1)) ();
    C.connect c ctr ~d:(C.comb1 c "ctr_n" 16 ctr (fun v -> v + 1)) ();
    C.elaborate c;
    if cone then C.set_observed_cone c [ out ];
    C.settle c;
    c
  in
  let two_steps c =
    let snap = C.snapshot c in
    let h0 = C.content_hash c in
    for _ = 1 to 2 do
      C.clock c;
      C.settle c
    done;
    (snap, h0)
  in
  (* two steps later the oscillator has recurred but the counter has
     not: cone-restricted comparison proves the recurrence, full-state
     comparison must still see the counter move *)
  let coned = build ~cone:true in
  let snap, h0 = two_steps coned in
  check_bool "cone: recurrence proven" true (C.same_state coned snap);
  check_int "cone: hash recurs" h0 (C.content_hash coned);
  let plain = build ~cone:false in
  let snap, _ = two_steps plain in
  check_bool "no cone: counter blocks recurrence" false (C.same_state plain snap)

let suite =
  ( "tail",
    [ Alcotest.test_case "cycle detector: exact period" `Quick
        test_cycle_exact_period;
      Alcotest.test_case "observed cone: accounting state excluded" `Quick
        test_observed_cone;
      Alcotest.test_case "cycle detector: collisions rejected" `Quick
        test_cycle_collisions_rejected;
      Alcotest.test_case "transplant = from-zero rerun (known ejectors)" `Slow
        test_transplant_known_ejecting ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_transplant_matches_rerun ] )
