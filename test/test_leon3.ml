(* Tests for the Leon3-class RTL model, centred on differential
   equivalence with the ISS: same programs, same architectural results,
   same off-core write streams. *)

module A = Sparc.Asm
module I = Sparc.Isa
module E = Iss.Emulator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One shared system: elaboration is expensive, reset is cheap. *)
let shared_sys = lazy (Leon3.System.create ())

let run_rtl prog =
  let sys = Lazy.force shared_sys in
  Leon3.System.load sys prog;
  let stop = Leon3.System.run sys ~max_cycles:5_000_000 in
  (sys, stop)

let assemble body =
  let b = A.create ~name:"t" () in
  A.prologue b;
  body b;
  A.halt b I.g0;
  A.assemble b

let differential prog =
  let iss = E.execute prog in
  let sys, stop = run_rtl prog in
  (match (iss.E.stop, stop) with
  | E.Exited a, Leon3.System.Exited b ->
      check_int ("exit code of " ^ prog.A.name) a b
  | E.Trapped _, Leon3.System.Trapped _ -> ()
  | _ ->
      Alcotest.failf "stop reasons differ on %s: iss=%a rtl=%a" prog.A.name E.pp_stop
        iss.E.stop Leon3.System.pp_stop stop);
  let ws_iss = iss.E.writes in
  let ws_rtl = Leon3.System.writes sys in
  check_int ("write count of " ^ prog.A.name) (List.length ws_iss) (List.length ws_rtl);
  List.iteri
    (fun i (a, b) ->
      if not (Sparc.Bus_event.equal a b) then
        Alcotest.failf "%s write %d differs: iss=%s rtl=%s" prog.A.name i
          (Sparc.Bus_event.to_string a) (Sparc.Bus_event.to_string b))
    (List.combine ws_iss ws_rtl)

let test_diff_registers () =
  (* After the same fragment, every architectural register of the
     current window must agree between the engines. *)
  let prog =
    assemble (fun b ->
        A.set32 b 0x1234_5678 I.o0;
        A.op3 b I.Umul I.o0 (Imm 97) I.o1;
        A.op3 b I.Sdiv I.o1 (Imm 13) I.o2;
        A.op3 b I.Sra I.o1 (Imm 7) I.o3;
        A.op3 b I.Subcc I.o2 (Reg I.o3) I.o4;
        A.op3 b I.Addx I.o4 (Imm 1) I.o5)
  in
  let iss = E.create prog in
  (match E.run iss with E.Exited _ -> () | s -> Alcotest.failf "iss: %a" E.pp_stop s);
  let sys, _ = run_rtl prog in
  for r = 0 to 31 do
    check_int (Printf.sprintf "reg %s" (I.reg_name r)) (E.reg iss r)
      (Leon3.System.reg sys r)
  done

let test_regfile_slot_matches_iss_window_map () =
  (* The RTL address mapping must be the same function the ISS uses:
     verified structurally for all windows and registers. *)
  let nwindows = 8 in
  for cwp = 0 to nwindows - 1 do
    (* outs of window w are ins of window (w-1+nw) mod nw *)
    for i = 0 to 7 do
      let out_slot = Leon3.Core.regfile_slot ~nwindows ~cwp (8 + i) in
      let ins_slot =
        Leon3.Core.regfile_slot ~nwindows ~cwp:((cwp + nwindows - 1) mod nwindows) (24 + i)
      in
      check_int "window overlap" out_slot ins_slot
    done;
    (* globals are shared *)
    for g = 0 to 7 do
      check_int "globals fixed" g (Leon3.Core.regfile_slot ~nwindows ~cwp g)
    done
  done

let test_trap_equivalence_misaligned () =
  let prog =
    assemble (fun b ->
        A.set32 b 0x0002_0002 I.o0;
        A.ld b I.Ld I.o0 (Imm 0) I.o1)
  in
  let iss = E.execute prog in
  let _, stop = run_rtl prog in
  (match (iss.E.stop, stop) with
  | E.Trapped (E.Misaligned_access _), Leon3.System.Trapped code ->
      check_int "trap code" Leon3.Core.trap_misaligned code
  | _ -> Alcotest.fail "expected misaligned traps on both engines")

let test_trap_equivalence_div0 () =
  let prog =
    assemble (fun b ->
        A.mov b (Imm 1) I.o0;
        A.op3 b I.Sdiv I.o0 (Imm 0) I.o1)
  in
  let iss = E.execute prog in
  let _, stop = run_rtl prog in
  match (iss.E.stop, stop) with
  | E.Trapped E.Division_by_zero, Leon3.System.Trapped code ->
      check_int "trap code" Leon3.Core.trap_div0 code
  | _ -> Alcotest.fail "expected zero-divide traps on both engines"

let test_trap_equivalence_illegal () =
  let prog =
    assemble (fun b ->
        A.data_label b "junk";
        A.word b 0xFFFF_FFFF;
        A.load_label b "junk" I.o0;
        A.emit b (I.Alu { op = I.Jmpl; rs1 = I.o0; op2 = I.Imm 0; rd = I.g0 }))
  in
  let iss = E.execute prog in
  let _, stop = run_rtl prog in
  match (iss.E.stop, stop) with
  | E.Trapped (E.Illegal_instruction _), Leon3.System.Trapped code ->
      check_int "trap code" Leon3.Core.trap_illegal code
  | _ -> Alcotest.fail "expected illegal-instruction traps on both engines"

let test_all_workloads_differential () =
  List.iter
    (fun e ->
      let prog =
        e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations
          ~dataset:1
      in
      differential prog)
    Workloads.Suite.all

let test_excerpts_differential () =
  List.iter
    (fun m -> differential (Workloads.Excerpts.subset_a m))
    Workloads.Excerpts.subset_a_members;
  List.iter
    (fun m -> differential (Workloads.Excerpts.subset_b m))
    Workloads.Excerpts.subset_b_members

let test_instret_counts_retired () =
  let prog = assemble (fun b -> A.nop b; A.nop b; A.nop b) in
  let iss = E.execute prog in
  let sys, _ = run_rtl prog in
  (* RTL does not retire the final (exit-store) instruction: the run
     stops when the write reaches the bus, one instruction earlier. *)
  check_int "instret" (iss.E.instructions - 1) (Leon3.System.instructions sys)

let test_cache_behaviour_visible () =
  (* A loop touching memory beyond the D-cache capacity must still
     produce the exact ISS write stream (write-through, no allocation
     subtleties leak into architecture). *)
  let prog =
    assemble (fun b ->
        A.set32 b 0x0002_0000 I.o0;
        A.set32 b 200 I.o1;
        (* > 64 lines * 16B of D-cache *)
        A.label b "wloop";
        A.st b I.St I.o1 I.o0 (Imm 0);
        A.ld b I.Ld I.o0 (Imm 0) I.o2;
        A.op3 b I.Add I.o0 (Imm 64) I.o0;
        A.op3 b I.Subcc I.o1 (Imm 1) I.o1;
        A.branch b I.Bne "wloop")
  in
  differential prog

(* Random straight-line differential programs: seed registers with
   random values, apply random ALU/memory instructions, publish
   everything. *)
let gen_program =
  let open QCheck2.Gen in
  let value = map (fun x -> x land Bitops.mask32) (int_bound max_int) in
  let reg = int_range 8 15 in
  (* %o0..%o7 *)
  let safe_alu_op =
    oneofl
      [ I.Add; I.Addcc; I.Addx; I.Addxcc; I.Sub; I.Subcc; I.Subx; I.Subxcc; I.And;
        I.Andcc; I.Andn; I.Or; I.Orcc; I.Orn; I.Xor; I.Xorcc; I.Xnor; I.Sll; I.Srl;
        I.Sra; I.Umul; I.Smul; I.Umulcc; I.Smulcc ]
  in
  let alu_instr =
    map3
      (fun op (rs1, rd) op2 -> `Alu (op, rs1, op2, rd))
      safe_alu_op (pair reg reg)
      (oneof [ map (fun r -> I.Reg r) reg; map (fun i -> I.Imm (i - 2048)) (int_bound 4095) ])
  in
  let mem_instr =
    (* word-aligned offsets within a private scratch area *)
    map3
      (fun st (slot, rd) ld_kind ->
        `Mem (st, slot * 4, rd, ld_kind))
      bool (pair (int_bound 31) reg) (int_bound 2)
  in
  let div_instr =
    map2 (fun (rs1, rd) signed -> `Div (rs1, rd, signed)) (pair reg reg) bool
  in
  pair (list_size (int_range 5 40) (oneof [ alu_instr; alu_instr; mem_instr; div_instr ]))
    (list_repeat 8 value)

let build_random (ops, seeds) =
  let b = A.create ~name:"random" () in
  A.prologue b;
  (* scratch area pointer in %l0, away from code/data *)
  A.set32 b 0x0002_8000 I.l0;
  List.iteri (fun i v -> A.set32 b v (8 + i)) seeds;
  List.iter
    (fun op ->
      match op with
      | `Alu (op, rs1, op2, rd) -> A.op3 b op rs1 op2 rd
      | `Mem (is_store, off, r, ld_kind) ->
          if is_store then A.st b I.St r I.l0 (Imm off)
          else
            let lop = match ld_kind with 0 -> I.Ld | 1 -> I.Ldub | _ -> I.Ldsh in
            let off = if lop = I.Ld then off else off land lnot 1 in
            A.ld b lop I.l0 (Imm off) r
      | `Div (rs1, rd, signed) ->
          (* force a non-zero divisor to stay trap-free *)
          A.op3 b I.Or rs1 (Imm 1) I.l1;
          A.op3 b (if signed then I.Sdiv else I.Udiv) rs1 (Reg I.l1) rd)
    ops;
  (* publish all eight %o registers *)
  A.set32 b Sparc.Layout.result_base I.l2;
  for i = 0 to 7 do
    A.st b I.St (8 + i) I.l2 (Imm (4 * i))
  done;
  A.halt b I.g0;
  A.assemble b

let prop_random_differential =
  QCheck2.Test.make ~name:"random straight-line programs agree" ~count:60 gen_program
    (fun case ->
      let prog = build_random case in
      let iss = E.execute prog in
      let sys = Lazy.force shared_sys in
      Leon3.System.load sys prog;
      let stop = Leon3.System.run sys ~max_cycles:2_000_000 in
      match (iss.E.stop, stop) with
      | E.Exited a, Leon3.System.Exited b ->
          a = b
          && List.length iss.E.writes = List.length (Leon3.System.writes sys)
          && List.for_all2 Sparc.Bus_event.equal iss.E.writes (Leon3.System.writes sys)
      | _ -> false)

let test_gate_level_equivalent () =
  (* The gate-level elaboration must be architecturally identical. *)
  let prog =
    assemble (fun b ->
        A.set32 b 0x89AB_CDEF I.o0;
        A.op3 b I.Addcc I.o0 (Reg I.o0) I.o1;
        A.op3 b I.Addx I.o1 (Imm 0) I.o2;
        A.op3 b I.Subcc I.o1 (Reg I.o0) I.o3;
        A.op3 b I.Subx I.o3 (Imm 5) I.o4;
        A.set32 b Sparc.Layout.result_base I.o5;
        A.st b I.St I.o1 I.o5 (Imm 0);
        A.st b I.St I.o2 I.o5 (Imm 4);
        A.st b I.St I.o3 I.o5 (Imm 8);
        A.st b I.St I.o4 I.o5 (Imm 12))
  in
  let gate_sys =
    Leon3.System.create
      ~params:{ Leon3.Core.default_params with Leon3.Core.gate_level = true }
      ()
  in
  Leon3.System.load gate_sys prog;
  (match Leon3.System.run gate_sys ~max_cycles:1_000_000 with
  | Leon3.System.Exited _ -> ()
  | s -> Alcotest.failf "gate-level run failed: %a" Leon3.System.pp_stop s);
  let iss = E.execute prog in
  check_bool "gate-level write stream matches the ISS" true
    (List.for_all2 Sparc.Bus_event.equal iss.E.writes (Leon3.System.writes gate_sys));
  (* and it really is a bigger netlist *)
  let plain = Leon3.Core.build () in
  let gate = Leon3.System.core gate_sys in
  check_bool "more nodes at gate level" true
    (Rtl.Circuit.node_count gate.Leon3.Core.circuit
    > Rtl.Circuit.node_count plain.Leon3.Core.circuit + 90)

let test_load_rejects_foreign_entry () =
  (* The core always fetches from its reset PC: a program linked at
     another address would run zeroed memory on the RTL while the ISS
     starts at its entry, so loading it must fail and name both. *)
  let b = A.create ~name:"elsewhere" ~text_base:0x2000 () in
  A.prologue b;
  A.halt b I.g0;
  let prog = A.assemble b in
  Alcotest.check_raises "entry off the reset PC"
    (Invalid_argument "System.load: program entry 0x00002000 is not the reset PC 0x00001000")
    (fun () -> Leon3.System.load (Lazy.force shared_sys) prog)

let test_cache_size_affects_timing_not_results () =
  (* Shrinking the caches must slow the machine down without changing
     anything architectural. *)
  let e = Workloads.Suite.find "tblook" in
  let prog = e.Workloads.Suite.build ~iterations:2 ~dataset:0 in
  let run params =
    let sys = Leon3.System.create ?params () in
    Leon3.System.load sys prog;
    match Leon3.System.run sys ~max_cycles:5_000_000 with
    | Leon3.System.Exited _ -> (Leon3.System.cycles sys, Leon3.System.writes sys)
    | s -> Alcotest.failf "run failed: %a" Leon3.System.pp_stop s
  in
  let big_cycles, big_writes = run None in
  let tiny =
    { Leon3.Core.default_params with
      Leon3.Core.icache_lines = 2;
      dcache_lines = 2 }
  in
  let tiny_cycles, tiny_writes = run (Some tiny) in
  check_bool "tiny caches are slower" true (tiny_cycles > big_cycles);
  check_bool "same write stream" true
    (List.for_all2 Sparc.Bus_event.equal big_writes tiny_writes)

(* The packed control word must agree with the ISA predicates for
   every instruction the encoder can produce. *)
let gen_word =
  QCheck2.Gen.map (fun x -> x land Bitops.mask32) (QCheck2.Gen.int_bound max_int)

let prop_ctl_consistent_with_isa =
  QCheck2.Test.make ~name:"control word agrees with ISA predicates" ~count:2000 gen_word
    (fun w ->
      let ctl = Leon3.Ctl.decode w in
      let flag b = (ctl lsr b) land 1 = 1 in
      match Sparc.Encode.decode w with
      | None -> ctl land 1 = 0 (* invalid => valid bit clear *)
      | Some instr ->
          let op = I.opcode_of_instr instr in
          flag Leon3.Ctl.b_valid
          && flag Leon3.Ctl.b_is_load = I.is_load op
          && flag Leon3.Ctl.b_is_store = I.is_store op
          && flag Leon3.Ctl.b_is_branch = I.is_branch op
          && flag Leon3.Ctl.b_cc_en = I.writes_icc op
          && flag Leon3.Ctl.b_is_call = (op = I.Call)
          && flag Leon3.Ctl.b_is_jmpl = (op = I.Jmpl)
          && flag Leon3.Ctl.b_is_save = (op = I.Save)
          && flag Leon3.Ctl.b_is_restore = (op = I.Restore)
          && flag Leon3.Ctl.b_is_sethi = (op = I.Sethi))

let prop_ctl_imm_matches_decode =
  QCheck2.Test.make ~name:"imm datapath value matches the instruction" ~count:2000
    gen_word (fun w ->
      match Sparc.Encode.decode w with
      | None -> Leon3.Ctl.imm_of w = 0
      | Some (I.Alu { op2 = I.Imm i; _ }) | Some (I.Mem { op2 = I.Imm i; _ }) ->
          Leon3.Ctl.imm_of w = Bitops.of_int i
      | Some (I.Sethi_i { imm22; _ }) -> Leon3.Ctl.imm_of w = imm22 lsl 10
      | Some (I.Branch_i { disp22; _ }) -> Leon3.Ctl.imm_of w = Bitops.of_int (disp22 * 4)
      | Some (I.Call_i { disp30 }) -> Leon3.Ctl.imm_of w = Bitops.of_int (disp30 * 4)
      | Some (I.Alu { op2 = I.Reg _; _ }) | Some (I.Mem { op2 = I.Reg _; _ }) ->
          Leon3.Ctl.imm_of w = 0)

let suite =
  ( "leon3",
    [ Alcotest.test_case "register-level equivalence" `Quick test_diff_registers;
      Alcotest.test_case "regfile window mapping" `Quick test_regfile_slot_matches_iss_window_map;
      Alcotest.test_case "trap: misaligned" `Quick test_trap_equivalence_misaligned;
      Alcotest.test_case "trap: zero divide" `Quick test_trap_equivalence_div0;
      Alcotest.test_case "trap: illegal" `Quick test_trap_equivalence_illegal;
      Alcotest.test_case "all workloads differential" `Slow test_all_workloads_differential;
      Alcotest.test_case "excerpts differential" `Slow test_excerpts_differential;
      Alcotest.test_case "instret" `Quick test_instret_counts_retired;
      Alcotest.test_case "cache thrashing stays exact" `Quick test_cache_behaviour_visible;
      Alcotest.test_case "cache size is timing-only" `Quick
        test_cache_size_affects_timing_not_results;
      Alcotest.test_case "gate-level adder equivalent" `Quick
        test_gate_level_equivalent;
      Alcotest.test_case "load rejects an entry off the reset PC" `Quick
        test_load_rejects_foreign_entry ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_random_differential; prop_ctl_consistent_with_isa;
          prop_ctl_imm_matches_decode ] )
