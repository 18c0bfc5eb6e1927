(* Semantic unit tests for the instruction set simulator: every opcode
   class, condition codes, register windows, traps and timing. *)

module A = Sparc.Asm
module I = Sparc.Isa
module E = Iss.Emulator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run a fragment: the body is emitted after a prologue, then halt. *)
let run_fragment body =
  let b = A.create ~name:"fragment" () in
  A.prologue b;
  body b;
  A.halt b I.g0;
  let t = E.create (A.assemble b) in
  match E.run t with
  | E.Exited _ -> t
  | s -> Alcotest.failf "fragment did not exit: %a" E.pp_stop s

let run_expect_trap body =
  let b = A.create ~name:"fragment" () in
  A.prologue b;
  body b;
  A.halt b I.g0;
  let t = E.create (A.assemble b) in
  match E.run t with
  | E.Trapped trap -> trap
  | s -> Alcotest.failf "expected a trap, got %a" E.pp_stop s

let reg = E.reg

(* ---- arithmetic ---- *)

let test_add_sub () =
  let t =
    run_fragment (fun b ->
        A.mov b (Imm 100) I.o0;
        A.op3 b I.Add I.o0 (Imm 23) I.o1;
        A.op3 b I.Sub I.o1 (Imm 200) I.o2;
        A.op3 b I.Add I.o1 (Reg I.o1) I.o3)
  in
  check_int "add" 123 (reg t I.o1);
  check_int "sub wraps" (Bitops.of_int (-77)) (reg t I.o2);
  check_int "reg operand" 246 (reg t I.o3)

let test_addx_subx_chain () =
  (* 64-bit add: 0xFFFFFFFF + 1 with carry into the high word *)
  let t =
    run_fragment (fun b ->
        A.set32 b 0xFFFF_FFFF I.o0;
        A.mov b (Imm 0) I.o1;
        A.op3 b I.Addcc I.o0 (Imm 1) I.o2;
        A.op3 b I.Addx I.o1 (Imm 0) I.o3)
  in
  check_int "low word" 0 (reg t I.o2);
  check_int "carry propagated" 1 (reg t I.o3)

let test_icc_flags () =
  let t =
    run_fragment (fun b ->
        A.op3 b I.Subcc I.g0 (Imm 1) I.g0)
  in
  let icc = E.icc t in
  check_bool "n" true icc.I.n;
  check_bool "z" false icc.I.z;
  check_bool "c (borrow)" true icc.I.c;
  let t = run_fragment (fun b -> A.op3 b I.Subcc I.g0 (Imm 0) I.g0) in
  check_bool "zero sets z" true (E.icc t).I.z

let test_logic_ops () =
  let t =
    run_fragment (fun b ->
        A.set32 b 0xFF00_FF00 I.o0;
        A.set32 b 0x0F0F_0F0F I.o1;
        A.op3 b I.And I.o0 (Reg I.o1) I.o2;
        A.op3 b I.Or I.o0 (Reg I.o1) I.o3;
        A.op3 b I.Xor I.o0 (Reg I.o1) I.o4;
        A.op3 b I.Andn I.o0 (Reg I.o1) I.o5;
        A.op3 b I.Xnor I.o0 (Reg I.o1) I.l0;
        A.op3 b I.Orn I.o0 (Reg I.o1) I.l1)
  in
  check_int "and" 0x0F000F00 (reg t I.o2);
  check_int "or" 0xFF0FFF0F (reg t I.o3);
  check_int "xor" 0xF00FF00F (reg t I.o4);
  check_int "andn" 0xF000F000 (reg t I.o5);
  check_int "xnor" 0x0FF00FF0 (reg t I.l0);
  check_int "orn" 0xFFF0FFF0 (reg t I.l1)

let test_shifts () =
  let t =
    run_fragment (fun b ->
        A.set32 b 0x8000_0001 I.o0;
        A.op3 b I.Sll I.o0 (Imm 4) I.o1;
        A.op3 b I.Srl I.o0 (Imm 4) I.o2;
        A.op3 b I.Sra I.o0 (Imm 4) I.o3;
        A.mov b (Imm 36) I.o4;
        (* shift count is mod 32 *)
        A.op3 b I.Sll I.o0 (Reg I.o4) I.o5)
  in
  check_int "sll" 0x0000_0010 (reg t I.o1);
  check_int "srl" 0x0800_0000 (reg t I.o2);
  check_int "sra" 0xF800_0000 (reg t I.o3);
  check_int "count mod 32" 0x0000_0010 (reg t I.o5)

let test_mul_div () =
  let t =
    run_fragment (fun b ->
        A.set32 b 100000 I.o0;
        A.op3 b I.Umul I.o0 (Reg I.o0) I.o1;
        (* 10^10 mod 2^32 *)
        A.mov b (Imm (-6)) I.o2;
        A.op3 b I.Smul I.o2 (Imm 7) I.o3;
        A.set32 b 1000 I.o4;
        A.op3 b I.Udiv I.o1 (Reg I.o4) I.o5;
        A.mov b (Imm (-100)) I.l0;
        A.op3 b I.Sdiv I.l0 (Imm 7) I.l1)
  in
  check_int "umul low" (10_000_000_000 land Bitops.mask32) (reg t I.o1);
  check_int "smul" (Bitops.of_int (-42)) (reg t I.o3);
  check_int "udiv" ((10_000_000_000 land Bitops.mask32) / 1000) (reg t I.o5);
  check_int "sdiv" (Bitops.of_int (-14)) (reg t I.l1)

(* ---- memory ---- *)

let test_loads_stores () =
  let t =
    run_fragment (fun b ->
        A.set32 b 0x0002_0000 I.o0;
        A.set32 b 0x1234_5678 I.o1;
        A.st b I.St I.o1 I.o0 (Imm 0);
        A.ld b I.Ld I.o0 (Imm 0) I.o2;
        A.ld b I.Ldub I.o0 (Imm 0) I.o3;
        A.ld b I.Ldsb I.o0 (Imm 0) I.o4;
        A.ld b I.Lduh I.o0 (Imm 2) I.o5;
        A.ld b I.Ldsh I.o0 (Imm 2) I.l0;
        A.set32 b 0xFFFF_89AB I.l1;
        A.st b I.Sth I.l1 I.o0 (Imm 0);
        A.ld b I.Lduh I.o0 (Imm 0) I.l2;
        A.ld b I.Ldsh I.o0 (Imm 0) I.l3;
        A.st b I.Stb I.l1 I.o0 (Imm 3);
        A.ld b I.Ldsb I.o0 (Imm 3) I.l4)
  in
  check_int "ld" 0x1234_5678 (reg t I.o2);
  check_int "ldub" 0x12 (reg t I.o3);
  check_int "ldsb positive" 0x12 (reg t I.o4);
  check_int "lduh" 0x5678 (reg t I.o5);
  check_int "ldsh positive" 0x5678 (reg t I.l0);
  check_int "sth + lduh" 0x89AB (reg t I.l2);
  check_int "ldsh negative" (Bitops.of_int (-0x7655)) (reg t I.l3);
  check_int "stb + ldsb negative" (Bitops.of_int (-0x55)) (reg t I.l4)

let test_g0_semantics () =
  let t =
    run_fragment (fun b ->
        A.op3 b I.Add I.g0 (Imm 99) I.g0;
        (* write discarded *)
        A.op3 b I.Add I.g0 (Imm 7) I.o0)
  in
  check_int "g0 reads zero" 7 (reg t I.o0);
  check_int "g0 stays zero" 0 (reg t I.g0)

(* ---- control flow ---- *)

let test_branches_taken_untaken () =
  let t =
    run_fragment (fun b ->
        A.mov b (Imm 0) I.o0;
        A.cmp b I.g0 (Imm 0);
        A.branch b I.Be "taken";
        A.op3 b I.Add I.o0 (Imm 100) I.o0;
        (* skipped *)
        A.label b "taken";
        A.op3 b I.Add I.o0 (Imm 1) I.o0;
        A.cmp b I.g0 (Imm 1);
        A.branch b I.Be "nottaken";
        A.op3 b I.Add I.o0 (Imm 10) I.o0;
        A.label b "nottaken")
  in
  check_int "paths" 11 (reg t I.o0)

let test_call_ret () =
  let t =
    run_fragment (fun b ->
        A.mov b (Imm 5) I.o0;
        A.call b "double";
        A.op3 b I.Add I.o0 (Imm 1) I.o1;
        A.branch b I.Ba "end";
        A.label b "double";
        A.op3 b I.Add I.o0 (Reg I.o0) I.o0;
        A.ret b;
        A.label b "end")
  in
  check_int "call/ret" 11 (reg t I.o1)

let test_register_windows () =
  let t =
    run_fragment (fun b ->
        A.mov b (Imm 41) I.o0;
        A.mov b (Imm 17) I.l0;
        A.call b "fn";
        A.branch b I.Ba "end";
        A.label b "fn";
        A.op3 b I.Save I.sp (Imm (-96)) I.sp;
        (* caller's %o0 is now %i0; locals are fresh *)
        A.op3 b I.Add I.i0 (Imm 1) I.i0;
        A.mov b (Imm 999) I.l0;
        A.op3 b I.Restore I.g0 (Imm 0) I.g0;
        A.ret b;
        A.label b "end")
  in
  check_int "out visible as in, modified" 42 (reg t I.o0);
  check_int "locals are per-window" 17 (reg t I.l0);
  check_int "cwp restored" 0 (E.cwp t)

let test_save_restore_sum () =
  let t =
    run_fragment (fun b ->
        A.mov b (Imm 1000) I.o1;
        A.op3 b I.Save I.sp (Imm (-96)) I.sp;
        (* save computes with the OLD window's %sp, writes NEW window *)
        A.op3 b I.Restore I.g0 (Imm 5) I.o2)
  in
  (* restore result lands in the restored (original) window *)
  check_int "restore writes old window" 5 (reg t I.o2)

let test_window_wraparound () =
  (* 8 nested saves wrap the 8-window file; the 9th would clobber, but
     8 saves + 8 restores must round-trip. *)
  let t =
    run_fragment (fun b ->
        A.mov b (Imm 123) I.l0;
        for _ = 1 to 8 do
          A.op3 b I.Save I.sp (Imm (-96)) I.sp
        done;
        for _ = 1 to 8 do
          A.op3 b I.Restore I.g0 (Imm 0) I.g0
        done)
  in
  check_int "locals survive full rotation" 123 (reg t I.l0)

(* ---- traps ---- *)

let test_trap_misaligned_load () =
  match
    run_expect_trap (fun b ->
        A.set32 b 0x0002_0001 I.o0;
        A.ld b I.Ld I.o0 (Imm 0) I.o1)
  with
  | E.Misaligned_access a -> check_int "address" 0x0002_0001 a
  | E.Division_by_zero | E.Illegal_instruction _ -> Alcotest.fail "wrong trap"

let test_trap_division_by_zero () =
  match
    run_expect_trap (fun b ->
        A.mov b (Imm 5) I.o0;
        A.op3 b I.Udiv I.o0 (Imm 0) I.o1)
  with
  | E.Division_by_zero -> ()
  | E.Misaligned_access _ | E.Illegal_instruction _ -> Alcotest.fail "wrong trap"

let test_trap_illegal_instruction () =
  (* jump into the data section *)
  match
    run_expect_trap (fun b ->
        A.data_label b "junk";
        A.word b 0xFFFF_FFFF;
        A.load_label b "junk" I.o0;
        A.emit b (I.Alu { op = I.Jmpl; rs1 = I.o0; op2 = I.Imm 0; rd = I.g0 }))
  with
  | E.Illegal_instruction w -> check_int "word" 0xFFFF_FFFF w
  | E.Misaligned_access _ | E.Division_by_zero -> Alcotest.fail "wrong trap"

let test_instruction_limit () =
  let b = A.create () in
  A.label b "spin";
  A.branch b I.Ba "spin";
  let config = { E.default_config with E.max_instructions = 100 } in
  let t = E.create ~config (A.assemble b) in
  (match E.run t with
  | E.Instruction_limit -> ()
  | s -> Alcotest.failf "expected limit, got %a" E.pp_stop s);
  check_int "stopped at limit" 100 (E.instructions t)

(* ---- accounting ---- *)

let test_histogram_and_diversity () =
  let t =
    run_fragment (fun b ->
        A.op3 b I.Add I.g0 (Imm 1) I.o0;
        A.op3 b I.Add I.o0 (Imm 1) I.o0;
        A.op3 b I.Umul I.o0 (Imm 3) I.o1)
  in
  let hist = E.opcode_histogram t in
  check_int "adds counted" 2 (List.assoc I.Add hist);
  check_int "umul counted" 1 (List.assoc I.Umul hist);
  (* prologue/halt add sethi, or, st *)
  check_bool "diversity counts types" true (E.diversity t >= 5)

let test_write_events () =
  let t =
    run_fragment (fun b ->
        A.set32 b 0x0002_0000 I.o0;
        A.mov b (Imm 7) I.o1;
        A.st b I.St I.o1 I.o0 (Imm 0);
        A.st b I.Stb I.o1 I.o0 (Imm 4))
  in
  let writes = List.filter Sparc.Bus_event.is_write (E.events t) in
  (* two explicit stores + the exit-port store *)
  check_int "three writes" 3 (List.length writes);
  match writes with
  | [ Sparc.Bus_event.Write w1; Sparc.Bus_event.Write w2; Sparc.Bus_event.Write w3 ] ->
      check_int "first addr" 0x0002_0000 w1.addr;
      check_bool "byte size" true (w2.size = Sparc.Bus_event.Byte);
      check_int "exit port" Sparc.Layout.exit_addr w3.addr
  | _ -> Alcotest.fail "unexpected event shapes"

let test_cycles_monotonic () =
  let t =
    run_fragment (fun b ->
        A.op3 b I.Udiv I.g0 (Imm 1) I.o0;
        A.op3 b I.Add I.g0 (Imm 1) I.o1)
  in
  check_bool "cycles > instructions (div is slow)" true (E.cycles t > E.instructions t)

let test_unit_accesses () =
  let t =
    run_fragment (fun b ->
        A.op3 b I.Umul I.g0 (Imm 3) I.o0)
  in
  let accesses = E.unit_accesses t in
  check_bool "multiplier accessed" true
    (List.mem_assoc Sparc.Units.Multiplier accesses);
  check_bool "divider untouched" false (List.mem_assoc Sparc.Units.Divider accesses);
  (* fetch access count equals instruction count *)
  check_int "fetch = instructions" (E.instructions t)
    (List.assoc Sparc.Units.Fetch accesses)

(* ---- forking and access observation ---- *)

let regs t = List.init 32 (fun r -> E.reg t r)

(* Everything a run can show from outside. *)
let check_same_state what a b =
  check_int (what ^ ": pc") (E.pc a) (E.pc b);
  check_int (what ^ ": instructions") (E.instructions a) (E.instructions b);
  check_int (what ^ ": cycles") (E.cycles a) (E.cycles b);
  check_int (what ^ ": cwp") (E.cwp a) (E.cwp b);
  check_bool (what ^ ": icc") true (E.icc a = E.icc b);
  Alcotest.(check (list int)) (what ^ ": registers") (regs a) (regs b);
  check_bool (what ^ ": memory") true (Sparc.Memory.equal (E.memory a) (E.memory b));
  check_bool (what ^ ": events") true
    (List.for_all2 Sparc.Bus_event.equal (E.events a) (E.events b));
  check_bool (what ^ ": histogram") true (E.opcode_histogram a = E.opcode_histogram b)

let test_copy_continues_identically () =
  (* caches on, reads recorded: every part of the state is live *)
  let e = Workloads.Suite.find "membench" in
  let prog =
    e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset:0
  in
  let reference = E.create prog in
  let stop = E.run reference in
  let half = E.instructions reference / 2 in
  let t = E.create prog in
  while E.instructions t < half do ignore (E.step t) done;
  let c = E.copy t in
  check_bool "copy runs to the same stop" true (E.run c = stop);
  check_same_state "copy" c reference;
  (* the original continues unaffected by its copy's run *)
  check_bool "original runs to the same stop" true (E.run t = stop);
  check_same_state "original" t reference;
  (* a corrupted copy leaves the original as it was *)
  let t = E.create prog in
  while E.instructions t < half do ignore (E.step t) done;
  let c = E.copy t in
  for slot = 1 to 135 do E.flip_regfile_bit c ~slot ~bit:3 done;
  E.corrupt_next_fetch c ~bit:30;
  ignore (E.run c);
  ignore (E.run t);
  check_same_state "original after a corrupted copy" t reference;
  (* a copy into a finished run's storage is the same fork *)
  let t = E.create prog in
  while E.instructions t < half do ignore (E.step t) done;
  let c = E.copy ~into:c t in
  ignore (E.run c);
  check_same_state "copy into used storage" c reference

let test_access_hook_sequence () =
  let b = A.create ~name:"observed" () in
  A.set32 b Sparc.Layout.exit_addr I.g7;
  A.mov b (Imm 0x20) I.g1;
  A.sethi b (Sparc.Layout.data_base lsr 10) I.g2;
  A.label b "loop";
  A.st b I.St I.g1 I.g2 (Imm 0);
  A.ld b I.Ldub I.g2 (Imm 1) I.o0;
  A.st b I.Sth I.o0 I.g2 (Imm 6);
  A.st b I.Stb I.g1 I.g2 (Imm 9);
  A.op3 b I.Save I.o0 (Imm 1) I.o1;
  A.op3 b I.Restore I.i1 (Imm 0) I.g0;
  A.op3 b I.Subcc I.g1 (Imm 0x10) I.g1;
  A.branch b I.Bne "loop";
  A.halt b I.g0;
  let prog = A.assemble b in
  let t = E.create prog in
  let seen = ref [] in
  E.set_access_hook t (Some (fun a loc kind -> seen := (a, loc, kind) :: !seen));
  check_bool "exits" true (E.run t = E.Exited 0);
  E.set_access_hook t None;
  let fetch k = E.Word (prog.A.text_base + (4 * k)) in
  let data = Sparc.Layout.data_base in
  let r a loc = (a, loc, E.Read) and w a loc = (a, loc, E.Write) in
  (* Slots: %g1 = 1, %g2 = 2, %g7 = 7 and window 0's %o0 = 8.  SAVE
     moves to window 7, whose %o1 is 8 + 16 * 7 + 1 = 121 and whose
     %i1 is window 0's %o1, slot 9.  The first pass through the loop
     fetches every instruction from memory; the second hits the decode
     cache. *)
  let iteration a =
    [ r a (E.Slot 2); r a (E.Slot 1); w a (E.Word data);
      r (a + 1) (E.Slot 2); r (a + 1) (E.Word data); w (a + 1) (E.Slot 8);
      r (a + 2) (E.Slot 2); r (a + 2) (E.Slot 8); r (a + 2) (E.Word (data + 4));
      r (a + 3) (E.Slot 2); r (a + 3) (E.Slot 1); r (a + 3) (E.Word (data + 8));
      r (a + 4) (E.Slot 8); w (a + 4) (E.Slot 121);
      r (a + 5) (E.Slot 9);
      r (a + 6) (E.Slot 1); w (a + 6) (E.Slot 1) ]
  in
  let with_fetches a accesses =
    List.concat_map
      (fun k ->
        r (a + k) (fetch (4 + k))
        :: List.filter (fun (i, _, _) -> i = a + k) accesses)
      (List.init 8 Fun.id)
  in
  let expected =
    [ r 0 (fetch 0); w 0 (E.Slot 7);
      r 1 (fetch 1); r 1 (E.Slot 7); w 1 (E.Slot 7);
      r 2 (fetch 2); w 2 (E.Slot 1);
      r 3 (fetch 3); w 3 (E.Slot 2) ]
    @ with_fetches 4 (iteration 4)
    @ iteration 12
    @ [ r 20 (fetch 12); r 20 (E.Slot 7) ]
  in
  let show (a, loc, kind) =
    Printf.sprintf "%d %s %s" a
      (match loc with
      | E.Slot s -> Printf.sprintf "slot %d" s
      | E.Word x -> Printf.sprintf "word 0x%x" x)
      (match kind with E.Read -> "read" | E.Write -> "write")
  in
  Alcotest.(check (list string))
    "accesses" (List.map show expected)
    (List.map show (List.rev !seen));
  check_int "instructions" 21 (E.instructions t)

let suite =
  ( "iss",
    [ Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "addx carry chain" `Quick test_addx_subx_chain;
      Alcotest.test_case "icc flags" `Quick test_icc_flags;
      Alcotest.test_case "logic ops" `Quick test_logic_ops;
      Alcotest.test_case "shifts" `Quick test_shifts;
      Alcotest.test_case "mul/div" `Quick test_mul_div;
      Alcotest.test_case "loads/stores" `Quick test_loads_stores;
      Alcotest.test_case "g0 semantics" `Quick test_g0_semantics;
      Alcotest.test_case "branches" `Quick test_branches_taken_untaken;
      Alcotest.test_case "call/ret" `Quick test_call_ret;
      Alcotest.test_case "register windows" `Quick test_register_windows;
      Alcotest.test_case "save/restore result" `Quick test_save_restore_sum;
      Alcotest.test_case "window wraparound" `Quick test_window_wraparound;
      Alcotest.test_case "trap: misaligned" `Quick test_trap_misaligned_load;
      Alcotest.test_case "trap: zero divide" `Quick test_trap_division_by_zero;
      Alcotest.test_case "trap: illegal" `Quick test_trap_illegal_instruction;
      Alcotest.test_case "instruction limit" `Quick test_instruction_limit;
      Alcotest.test_case "histogram" `Quick test_histogram_and_diversity;
      Alcotest.test_case "write events" `Quick test_write_events;
      Alcotest.test_case "cycle accounting" `Quick test_cycles_monotonic;
      Alcotest.test_case "unit accesses" `Quick test_unit_accesses;
      Alcotest.test_case "copy continues identically" `Quick
        test_copy_continues_identically;
      Alcotest.test_case "access hook sequence" `Quick test_access_hook_sequence ] )
