(* Tests for event-driven differential simulation: dirty-set replay
   must track a full re-simulation state-for-state, and an empty dirty
   set must mean exactly "state equals golden".  Campaign verdicts are
   checked against the dense reference in [Test_reference]. *)

module A = Sparc.Asm
module I = Sparc.Isa
module C = Rtl.Circuit
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_sys = lazy (Leon3.System.create ())

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

(* One golden trace + replay plan + site pool over the shared system,
   built once and reused by the replay tests below. *)
let golden_setup =
  lazy
    (let sys = Lazy.force shared_sys in
     let prog = Lazy.force small_prog in
     let golden = Campaign.golden_run ~trace:true sys prog ~max_cycles:100_000 in
     let graph = Analysis.Graph.build (circuit sys) in
     let plan = Analysis.Graph.replay_plan graph in
     let trace = Option.get golden.Campaign.trace in
     let sites =
       Array.of_list (Injection.sites (Leon3.System.core sys) Injection.Iu)
     in
     (golden, plan, trace, sites))

(* ---- dirty-set replay tracks full re-simulation exactly ---- *)

(* Step a faulty run one cycle at a time, hashing the settled state
   after every cycle, until it stops or [bound] cycles elapse.  Both
   engines run through this same harness so the per-cycle hash streams
   are directly comparable. *)
let stepped_run sys prog ~replay ~site ~model ~inject_cycle ~duration ~bound =
  let c = circuit sys in
  Leon3.System.load sys prog;
  C.inject c ~from_cycle:inject_cycle ?duration site model;
  (match replay with
  | Some (plan, trace) -> C.replay_start c plan trace
  | None -> ());
  let hashes = ref [ C.state_hash c ] in
  let stop = ref None in
  while !stop = None && Leon3.System.cycles sys < bound do
    (match
       Leon3.System.run_segment sys
         ~until_cycle:(Leon3.System.cycles sys + 1)
         ~max_cycles:(bound + 1)
     with
    | Some r -> stop := Some r
    | None -> ());
    hashes := C.state_hash c :: !hashes
  done;
  if replay <> None then ignore (C.replay_stop c);
  C.clear_fault c;
  (List.rev !hashes, Leon3.System.writes sys, !stop)

let gen_fault =
  let open QCheck2.Gen in
  let model = oneofl [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip ] in
  let duration = oneofl [ None; Some 1; Some 4 ] in
  map3
    (fun si model (pct, duration) -> (si, model, pct, duration))
    (int_bound 100_000) model
    (pair (int_bound 99) duration)

let print_fault (si, model, pct, duration) =
  let _, _, _, sites = Lazy.force golden_setup in
  Printf.sprintf "%s %s at %d%% duration %s"
    sites.(si mod Array.length sites).Injection.site_name
    (C.fault_model_name model) pct
    (match duration with None -> "permanent" | Some d -> string_of_int d)

let prop_replay_matches_dense =
  QCheck2.Test.make ~name:"dirty-set replay = full re-simulation, state for state"
    ~count:50 ~print:print_fault gen_fault (fun (si, model, pct, duration) ->
      let sys = Lazy.force shared_sys in
      let prog = Lazy.force small_prog in
      let golden, plan, trace, sites = Lazy.force golden_setup in
      let site = sites.(si mod Array.length sites).Injection.fault_site in
      let inject_cycle = golden.Campaign.cycles * pct / 100 in
      let bound = (golden.Campaign.cycles * 4) + 16 in
      let run replay =
        stepped_run sys prog ~replay ~site ~model ~inject_cycle ~duration ~bound
      in
      run (Some (plan, trace)) = run None)

(* ---- convergence is exactly state equality with golden ---- *)

let test_convergence_is_state_equality () =
  (* While a replay is armed, [replay_converged = Some true] must hold
     exactly when the live state hashes equal to the golden state at
     the same cycle — the O(dirty) convergence check and the O(n)
     state sweep are the same predicate. *)
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  let golden, plan, trace, sites = Lazy.force golden_setup in
  let c = circuit sys in
  let n = golden.Campaign.cycles in
  check_bool "golden run long enough" true (n > 60);
  (* golden per-cycle hashes, stepped exactly like the faulty runs *)
  Leon3.System.load sys prog;
  let gh = Array.make (n + 1) 0 in
  gh.(0) <- C.state_hash c;
  let stopped = ref false in
  while (not !stopped) && Leon3.System.cycles sys < n do
    (match
       Leon3.System.run_segment sys
         ~until_cycle:(Leon3.System.cycles sys + 1)
         ~max_cycles:(n + 1)
     with
    | Some _ -> stopped := true
    | None -> ());
    gh.(Leon3.System.cycles sys) <- C.state_hash c
  done;
  let last = Leon3.System.cycles sys in
  let converged_once = ref false in
  let checked = ref 0 in
  List.iter
    (fun si ->
      let site = sites.(si mod Array.length sites) in
      Leon3.System.load sys prog;
      C.inject c ~from_cycle:40 ~duration:1 site.Injection.fault_site C.Bit_flip;
      C.replay_start c plan trace;
      let stop = ref None in
      while !stop = None && Leon3.System.cycles sys < last do
        (match
           Leon3.System.run_segment sys
             ~until_cycle:(Leon3.System.cycles sys + 1)
             ~max_cycles:(last + 1)
         with
        | Some r -> stop := Some r
        | None -> ());
        match C.replay_converged c with
        | Some conv ->
            incr checked;
            let equal = C.state_hash c = gh.(Leon3.System.cycles sys) in
            check_bool
              (Printf.sprintf "%s cycle %d: converged <-> state-equal"
                 site.Injection.site_name (Leon3.System.cycles sys))
              true (conv = equal);
            if conv then converged_once := true
        | None -> ()
      done;
      ignore (C.replay_stop c);
      C.clear_fault c)
    [ 1; 57; 313; 1009; 2203; 3301; 4409; 5507 ];
  check_bool "convergence checks performed" true (!checked > 0);
  check_bool "at least one upset re-converged" true !converged_once

let suite =
  ( "event",
    [ Alcotest.test_case "convergence = state equality" `Quick
        test_convergence_is_state_equality ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_replay_matches_dense ] )
