(* Behavioural vs gate-level elaboration equivalence.

   The gate-level elaboration must be a pure refinement: every
   behavioural node name survives (as a packer or buffer over the gate
   bits) with the same width and, cycle for cycle, the same value — so
   workload runs, write streams, exit codes and name-addressed fault
   verdicts are byte-identical between the two elaborations. *)

module A = Sparc.Asm
module I = Sparc.Isa
module C = Rtl.Circuit
module G = Leon3.Gatelevel
module Ctl = Leon3.Ctl
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let gate_params = { Leon3.Core.default_params with Leon3.Core.gate_level = true }

let behav_sys = lazy (Leon3.System.create ())

let gate_sys = lazy (Leon3.System.create ~params:gate_params ())

(* ---- decode PLA exactness ---- *)

(* A bare rig: the PLA alone over an input word, outside the core. *)
let decode_rig =
  lazy
    (let c = C.create "rig" in
     let w = C.input c "w" 32 in
     let ctl, imm = G.decode c ~ir:w in
     C.elaborate c;
     (c, w, ctl, imm))

let check_decode_word word =
  let c, w, ctl, imm = Lazy.force decode_rig in
  C.set_input c w word;
  C.settle c;
  check_int (Printf.sprintf "ctl of %08x" word) (Ctl.decode word) (C.value c ctl);
  check_int (Printf.sprintf "imm of %08x" word) (Ctl.imm_of word) (C.value c imm)

let test_decode_pla_field_sweep () =
  (* Every format-3 row (valid and invalid op3 alike) with and without
     the immediate bit, with zero and non-zero ASI fields, and with
     operand-field patterns exercising every literal of the AND
     terms. *)
  List.iter
    (fun op ->
      for op3 = 0 to 63 do
        List.iter
          (fun low ->
            check_decode_word
              ((op lsl 30) lor (5 lsl 25) lor (op3 lsl 19) lor (3 lsl 14) lor low))
          [ 0; 7; (1 lsl 13) lor 0x1FFF; (1 lsl 13) lor 0x0AAA; 3 lsl 5 ]
      done)
    [ 2; 3 ];
  (* branches: every condition, both annul-bit values, and every op2f
     slot of format 0 (only 010 and 100 decode) *)
  for cond = 0 to 15 do
    List.iter
      (fun a ->
        check_decode_word ((a lsl 29) lor (cond lsl 25) lor (0b010 lsl 22) lor 0x155);
        check_decode_word
          ((a lsl 29) lor (cond lsl 25) lor (0b010 lsl 22) lor 0x3F_FC00))
      [ 0; 1 ]
  done;
  for op2f = 0 to 7 do
    check_decode_word ((9 lsl 25) lor (op2f lsl 22) lor 0x2A_AAAA)
  done;
  (* sethi and call payload patterns *)
  check_decode_word ((0b100 lsl 22) lor 0x3F_FFFF);
  check_decode_word ((31 lsl 25) lor (0b100 lsl 22));
  check_decode_word (1 lsl 30);
  check_decode_word ((1 lsl 30) lor 0x3FFF_FFFF);
  check_decode_word 0xFFFF_FFFF;
  check_decode_word 0

let prop_decode_pla_random_words =
  QCheck2.Test.make ~name:"decode PLA = Ctl.decode on random words" ~count:2000
    QCheck2.Gen.(map (fun x -> x land 0xFFFF_FFFF) (int_bound max_int))
    (fun word ->
      let c, w, ctl, imm = Lazy.force decode_rig in
      C.set_input c w word;
      C.settle c;
      Ctl.decode word = C.value c ctl && Ctl.imm_of word = C.value c imm)

(* ---- state-for-state workload equivalence ---- *)

let run_both prog =
  let run sys =
    Leon3.System.load sys prog;
    let stop = Leon3.System.run sys ~max_cycles:5_000_000 in
    (stop, sys)
  in
  let stop_b, sys_b = run (Lazy.force behav_sys) in
  let stop_g, sys_g = run (Lazy.force gate_sys) in
  ((stop_b, sys_b), (stop_g, sys_g))

let check_same_run name ((stop_b, sys_b), (stop_g, sys_g)) =
  check_bool (name ^ ": stop reason") true (stop_b = stop_g);
  check_int (name ^ ": cycles") (Leon3.System.cycles sys_b)
    (Leon3.System.cycles sys_g);
  check_int (name ^ ": instructions")
    (Leon3.System.instructions sys_b)
    (Leon3.System.instructions sys_g);
  check_bool (name ^ ": event stream") true
    (Leon3.System.events sys_b = Leon3.System.events sys_g);
  check_bool (name ^ ": write stream") true
    (Leon3.System.writes sys_b = Leon3.System.writes sys_g);
  let core_b = Leon3.System.core sys_b and core_g = Leon3.System.core sys_g in
  let v (core : Leon3.Core.t) s = C.value core.Leon3.Core.circuit s in
  check_int (name ^ ": pc") (v core_b core_b.pc) (v core_g core_g.pc);
  check_int (name ^ ": icc") (v core_b core_b.icc) (v core_g core_g.icc);
  check_int (name ^ ": cwp") (v core_b core_b.cwp) (v core_g core_g.cwp);
  for r = 0 to 31 do
    check_int
      (Printf.sprintf "%s: r%d" name r)
      (Leon3.System.reg sys_b r) (Leon3.System.reg sys_g r)
  done

let test_figure5_workloads_equivalent () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let prog = e.Workloads.Suite.build ~iterations:1 ~dataset:0 in
      check_same_run e.Workloads.Suite.name (run_both prog))
    Workloads.Suite.table1_set

(* ---- name-matched fault verdict equivalence ---- *)

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

let shared_site_names =
  (* behavioural nodes of every lowered network, by name — present in
     both pools, so the same fault can be armed in both elaborations *)
  [ "iu.de.ctl[0]"; "iu.de.ctl[11]"; "iu.de.imm[2]"; "iu.ra.op2_mux[0]";
    "iu.ex.adder.sum[0]"; "iu.ex.adder.sum[31]"; "iu.ex.adder.flag_c[0]";
    "iu.ex.logic.result[5]"; "iu.ex.shift.result[1]"; "iu.ex.result_mux[7]";
    "iu.ex.icc_next[2]"; "iu.ex.branch.next_pc[2]"; "iu.wb.wb_data[16]";
    "iu.fe.pc_inc[4]" ]

let test_verdicts_match_across_elaborations () =
  let prog = Lazy.force small_prog in
  let verdicts sys =
    let core = Leon3.System.core sys in
    let pool = Injection.sites ~include_cells:false core Injection.Iu in
    let golden = Campaign.golden_run sys prog ~max_cycles:200_000 in
    List.map
      (fun name ->
        let site =
          match
            List.find_opt (fun s -> s.Injection.site_name = name) pool
          with
          | Some s -> s
          | None -> Alcotest.failf "site %s missing from pool" name
        in
        List.map
          (fun model ->
            let r = Campaign.run_one sys prog golden site model in
            (name, model, r.Campaign.outcome))
          [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line ])
      shared_site_names
  in
  let vb = verdicts (Lazy.force behav_sys) in
  let vg = verdicts (Lazy.force gate_sys) in
  List.iter2
    (fun rb rg ->
      List.iter2
        (fun (name, model, ob) (name', _, og) ->
          check_bool (name ^ " name match") true (name = name');
          check_bool
            (Printf.sprintf "%s/%s verdict" name (C.fault_model_name model))
            true (ob = og))
        rb rg)
    vb vg

(* ---- the value prefilter on gate outputs ---- *)

let test_always_one_gates_silent () =
  (* Coverage records settled states only, so a comb bit that is 1 in
     every settled golden state is never seen 0 (its reset value is not
     a settled state): stuck-at-1 and open line on it are prefiltered.
     A spread of those verdicts, run on the dense engine, are silent. *)
  let sys = Lazy.force gate_sys in
  let prog = Lazy.force small_prog in
  let c = (Leon3.System.core sys).Leon3.Core.circuit in
  let cov =
    Option.get (Campaign.golden_run ~coverage:true sys prog ~max_cycles:200_000).Campaign.coverage
  in
  let dense = Campaign.golden_run sys prog ~max_cycles:200_000 in
  let always_one =
    Array.of_list
      (List.filter
         (fun s ->
           match s.Injection.fault_site with
           | C.Node (n, _) ->
               (match C.node_view c n with C.V_comb _ -> true | _ -> false)
               && C.never_activates cov s.Injection.fault_site C.Stuck_at_1
           | C.Cell _ -> false)
         (Injection.sites ~include_cells:false (Leon3.System.core sys) Injection.Iu))
  in
  let n = Array.length always_one in
  check_bool (Printf.sprintf "always-1 gate outputs exist (%d)" n) true (n >= 6);
  List.iter
    (fun i ->
      let site = always_one.(i * n / 6) in
      List.iter
        (fun model ->
          let r = Campaign.run_one sys prog dense site model in
          check_bool
            (Printf.sprintf "%s/%s silent" site.Injection.site_name (C.fault_model_name model))
            true
            (r.Campaign.outcome = Campaign.Silent))
        [ C.Stuck_at_1; C.Open_line ])
    [ 0; 1; 2; 3; 4; 5 ]

(* ---- injection-site population density ---- *)

let lowered_names =
  [ "iu.fe.pc_mis"; "iu.fe.pc_inc"; "iu.de.ctl"; "iu.de.imm"; "iu.ra.op2_mux";
    "iu.ex.adder.b_eff"; "iu.ex.adder.cin"; "iu.ex.adder.sum";
    "iu.ex.adder.carry"; "iu.ex.adder.flag_c"; "iu.ex.adder.flag_v";
    "iu.ex.logic.result"; "iu.ex.shift.result"; "iu.ex.result_mux";
    "iu.ex.icc_next"; "iu.ex.branch.cond_ok"; "iu.ex.branch.taken";
    "iu.ex.branch.br_target"; "iu.ex.branch.next_pc"; "iu.ex.jmpl_mis";
    "iu.wb.wb_data" ]

let stem name = match String.index_opt name '[' with
  | Some i -> String.sub name 0 i
  | None -> name

let test_population_density () =
  let pool sys =
    Injection.sites ~include_cells:false (Leon3.System.core sys) Injection.Iu
  in
  let behav = pool (Lazy.force behav_sys) in
  let gate = pool (Lazy.force gate_sys) in
  let nb = List.length behav and ng = List.length gate in
  (* name preservation: the behavioural pool embeds in the gate pool *)
  let gate_names = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace gate_names s.Injection.site_name ()) gate;
  List.iter
    (fun s ->
      check_bool (s.Injection.site_name ^ " preserved") true
        (Hashtbl.mem gate_names s.Injection.site_name))
    behav;
  (* the lowered datapath population grows >= 10x: all new gate sites
     belong to networks that replace the lowered behavioural nodes *)
  let lowered_bits =
    List.length
      (List.filter
         (fun s -> List.mem (stem s.Injection.site_name) lowered_names)
         behav)
  in
  let gate_lowered = lowered_bits + (ng - nb) in
  check_bool
    (Printf.sprintf "lowered datapath >= 10x (%d -> %d)" lowered_bits gate_lowered)
    true
    (gate_lowered >= 10 * lowered_bits);
  (* and the whole-IU pool grows several-fold *)
  check_bool (Printf.sprintf "iu pool >= 3x (%d -> %d)" nb ng) true (ng >= 3 * nb)

let suite =
  ( "gatelevel",
    [ Alcotest.test_case "decode PLA field sweep" `Quick test_decode_pla_field_sweep;
      QCheck_alcotest.to_alcotest prop_decode_pla_random_words;
      Alcotest.test_case "population density" `Quick test_population_density;
      Alcotest.test_case "always-1 gate outputs prefiltered exactly" `Quick
        test_always_one_gates_silent;
      Alcotest.test_case "figure-5 workloads state-for-state" `Slow
        test_figure5_workloads_equivalent;
      Alcotest.test_case "verdicts match across elaborations" `Slow
        test_verdicts_match_across_elaborations ] )
