(* Tests for the ISA definition, encoder/decoder, assembler and memory. *)

module I = Sparc.Isa
module E = Sparc.Encode
module A = Sparc.Asm
module M = Sparc.Memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- ISA ---- *)

let test_opcode_tables () =
  check_int "58 opcodes" 58 I.num_opcodes;
  List.iteri
    (fun i op ->
      check_int "index roundtrip" i (I.opcode_index op);
      check_bool "of_index roundtrip" true (I.opcode_of_index i = op))
    I.all_opcodes;
  List.iter
    (fun op ->
      match I.opcode_of_mnemonic (I.mnemonic op) with
      | Some op' -> check_bool "mnemonic roundtrip" true (op = op')
      | None -> Alcotest.fail ("mnemonic not found: " ^ I.mnemonic op))
    I.all_opcodes

let test_classification () =
  check_bool "branch" true (I.is_branch I.Bne);
  check_bool "call not branch" false (I.is_branch I.Call);
  check_bool "load" true (I.is_load I.Ldsh);
  check_bool "store" true (I.is_store I.Stb);
  check_bool "mem" true (I.is_mem I.Ld && I.is_mem I.St);
  check_bool "addcc writes icc" true (I.writes_icc I.Addcc);
  check_bool "add does not" false (I.writes_icc I.Add);
  check_bool "sll does not" false (I.writes_icc I.Sll)

let icc ~n ~z ~v ~c = { I.n; z; v; c }

let test_cond_holds () =
  let f = false and t = true in
  let cases =
    [ (I.Ba, icc ~n:f ~z:f ~v:f ~c:f, true);
      (I.Bn, icc ~n:t ~z:t ~v:t ~c:t, false);
      (I.Be, icc ~n:f ~z:t ~v:f ~c:f, true);
      (I.Bne, icc ~n:f ~z:t ~v:f ~c:f, false);
      (I.Bg, icc ~n:f ~z:f ~v:f ~c:f, true);
      (I.Bg, icc ~n:t ~z:f ~v:f ~c:f, false);
      (I.Ble, icc ~n:f ~z:t ~v:f ~c:f, true);
      (I.Bge, icc ~n:t ~z:f ~v:t ~c:f, true);
      (I.Bl, icc ~n:t ~z:f ~v:f ~c:f, true);
      (I.Bgu, icc ~n:f ~z:f ~v:f ~c:f, true);
      (I.Bgu, icc ~n:f ~z:f ~v:f ~c:t, false);
      (I.Bleu, icc ~n:f ~z:t ~v:f ~c:f, true);
      (I.Bcc, icc ~n:f ~z:f ~v:f ~c:f, true);
      (I.Bcs, icc ~n:f ~z:f ~v:f ~c:t, true);
      (I.Bpos, icc ~n:f ~z:f ~v:f ~c:f, true);
      (I.Bneg, icc ~n:t ~z:f ~v:f ~c:f, true);
      (I.Bvc, icc ~n:f ~z:f ~v:f ~c:f, true);
      (I.Bvs, icc ~n:f ~z:f ~v:t ~c:f, true) ]
  in
  List.iter
    (fun (op, flags, expected) ->
      check_bool (I.mnemonic op) expected (I.cond_holds op flags))
    cases;
  Alcotest.check_raises "non-branch rejected"
    (Invalid_argument "Isa.cond_holds: not a branch opcode") (fun () ->
      ignore (I.cond_holds I.Add I.icc_zero))

let test_icc_packing () =
  for w = 0 to 15 do
    check_int "pack/unpack" w (I.icc_to_word (I.icc_of_word w))
  done

let test_reg_names () =
  Alcotest.(check string) "g0" "%g0" (I.reg_name 0);
  Alcotest.(check string) "sp" "%sp" (I.reg_name I.sp);
  Alcotest.(check string) "fp" "%fp" (I.reg_name I.fp);
  Alcotest.(check string) "i7" "%i7" (I.reg_name 31);
  Alcotest.(check string) "l3" "%l3" (I.reg_name 19)

(* ---- encoding ---- *)

let test_encode_known_words () =
  (* Cross-checked against the SPARC v8 manual encodings. *)
  check_int "nop (sethi 0, %g0)" 0x0100_0000 (E.encode I.nop);
  check_int "add %o0, %o1, %o2"
    0x9402_0009
    (E.encode (I.Alu { op = I.Add; rs1 = I.o0; op2 = I.Reg I.o1; rd = I.o2 }));
  check_int "sub %o0, 1, %o0"
    0x9022_2001
    (E.encode (I.Alu { op = I.Sub; rs1 = I.o0; op2 = I.Imm 1; rd = I.o0 }));
  check_int "ld [%o0+4], %o1"
    0xD202_2004
    (E.encode (I.Mem { op = I.Ld; rs1 = I.o0; op2 = I.Imm 4; rd = I.o1 }));
  check_int "call .+8" 0x4000_0002 (E.encode (I.Call_i { disp30 = 2 }));
  check_int "be .-4" 0x02BF_FFFF (E.encode (I.Branch_i { op = I.Be; disp22 = -1 }))

let test_encode_range_checks () =
  let bad_imm () =
    ignore (E.encode (I.Alu { op = I.Add; rs1 = 0; op2 = I.Imm 5000; rd = 0 }))
  in
  Alcotest.check_raises "simm13 overflow"
    (Invalid_argument "Encode: immediate beyond simm13") bad_imm;
  Alcotest.check_raises "imm22 overflow" (Invalid_argument "Encode: imm22 out of range")
    (fun () -> ignore (E.encode (I.Sethi_i { imm22 = 0x400_0000; rd = 1 })))

let test_decode_invalid () =
  (* op=00 with op2=111 is unimplemented in the subset *)
  check_bool "invalid format2" true (E.decode 0x01C0_0000 = None);
  (* op=10 with an FPU op3 *)
  check_bool "invalid op3" true (E.decode 0x81A0_0000 = None)

let gen_instr =
  let open QCheck2.Gen in
  let reg = int_bound 31 in
  let operand =
    oneof [ map (fun r -> I.Reg r) reg; map (fun i -> I.Imm (i - 4096)) (int_bound 8191) ]
  in
  let alu_ops =
    [ I.Add; I.Addcc; I.Addx; I.Addxcc; I.Sub; I.Subcc; I.Subx; I.Subxcc; I.And;
      I.Andcc; I.Andn; I.Andncc; I.Or; I.Orcc; I.Orn; I.Orncc; I.Xor; I.Xorcc; I.Xnor;
      I.Xnorcc; I.Sll; I.Srl; I.Sra; I.Umul; I.Umulcc; I.Smul; I.Smulcc; I.Udiv;
      I.Sdiv; I.Save; I.Restore; I.Jmpl ]
  in
  let mem_ops = [ I.Ld; I.Ldub; I.Ldsb; I.Lduh; I.Ldsh; I.St; I.Stb; I.Sth ] in
  let branch_ops =
    [ I.Ba; I.Bn; I.Bne; I.Be; I.Bg; I.Ble; I.Bge; I.Bl; I.Bgu; I.Bleu; I.Bcc; I.Bcs;
      I.Bpos; I.Bneg; I.Bvc; I.Bvs ]
  in
  oneof
    [ map3 (fun op rs1 (op2, rd) -> I.Alu { op; rs1; op2; rd })
        (oneofl alu_ops) reg (pair operand reg);
      map3 (fun op rs1 (op2, rd) -> I.Mem { op; rs1; op2; rd })
        (oneofl mem_ops) reg (pair operand reg);
      map2 (fun imm22 rd -> I.Sethi_i { imm22; rd }) (int_bound 0x3F_FFFF) reg;
      map2 (fun op disp -> I.Branch_i { op; disp22 = disp - (1 lsl 20) })
        (oneofl branch_ops) (int_bound ((1 lsl 21) - 1));
      map (fun disp -> I.Call_i { disp30 = disp - (1 lsl 28) }) (int_bound ((1 lsl 29) - 1)) ]

let prop_encode_decode_roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip" ~count:2000 gen_instr (fun instr ->
      match E.decode (E.encode instr) with
      | Some instr' -> instr = instr'
      | None -> false)

let prop_decode_total =
  QCheck2.Test.make ~name:"decode never raises on arbitrary words" ~count:2000
    QCheck2.Gen.(map (fun x -> x land Bitops.mask32) (int_bound max_int))
    (fun w ->
      match E.decode w with
      | Some i -> E.encode i = w
      | None -> true)

(* ---- assembler ---- *)

let test_asm_labels_and_branches () =
  let b = A.create ~name:"t" () in
  A.label b "start";
  A.nop b;
  A.branch b I.Ba "start";
  A.call b "start";
  let prog = A.assemble b in
  (match prog.A.instrs.(1) with
  | I.Branch_i { disp22; _ } -> check_int "backward branch" (-1) disp22
  | _ -> Alcotest.fail "expected branch");
  (match prog.A.instrs.(2) with
  | I.Call_i { disp30 } -> check_int "backward call" (-2) disp30
  | _ -> Alcotest.fail "expected call");
  check_int "symbol" prog.A.text_base (List.assoc "start" prog.A.symbols)

let test_asm_unknown_label () =
  let b = A.create () in
  A.branch b I.Ba "nowhere";
  Alcotest.check_raises "unknown label" (A.Unknown_label "nowhere") (fun () ->
      ignore (A.assemble b))

let test_asm_duplicate_label () =
  let b = A.create () in
  A.label b "x";
  Alcotest.check_raises "duplicate label" (A.Duplicate_label "x") (fun () -> A.label b "x")

let test_asm_set32 () =
  let b = A.create () in
  A.set32 b 0xDEAD_BEEF I.o0;
  let prog = A.assemble b in
  check_int "two instructions" 2 (Array.length prog.A.instrs);
  (* simulate them by hand *)
  let v =
    match (prog.A.instrs.(0), prog.A.instrs.(1)) with
    | I.Sethi_i { imm22; _ }, I.Alu { op = I.Or; op2 = I.Imm lo; _ } ->
        (imm22 lsl 10) lor lo
    | _ -> Alcotest.fail "unexpected expansion"
  in
  check_int "value reconstructed" 0xDEAD_BEEF v

let test_asm_data_section () =
  let b = A.create () in
  A.nop b;
  A.data_label b "tbl";
  A.words b [| 1; 2; 3 |];
  A.data_label b "after";
  let prog = A.assemble b in
  let tbl = List.assoc "tbl" prog.A.symbols in
  let after = List.assoc "after" prog.A.symbols in
  check_int "12 bytes apart" 12 (after - tbl);
  let mem = M.create () in
  A.load prog mem;
  check_int "data loaded" 2 (M.load_word mem (tbl + 4))

(* ---- text parser ---- *)

let test_parser_registers () =
  check_bool "o3" true (Sparc.Parser.register_of_string "%o3" = Some I.o3);
  check_bool "sp" true (Sparc.Parser.register_of_string "%sp" = Some I.sp);
  check_bool "fp" true (Sparc.Parser.register_of_string "%fp" = Some I.fp);
  check_bool "r17" true (Sparc.Parser.register_of_string "%r17" = Some 17);
  check_bool "bad group" true (Sparc.Parser.register_of_string "%q1" = None);
  check_bool "out of range" true (Sparc.Parser.register_of_string "%o9" = None);
  check_bool "no percent" true (Sparc.Parser.register_of_string "o3" = None)

let test_parser_end_to_end () =
  let source =
    {|! compute 6! and publish it
        .text
        prologue
        mov   1, %o0
        mov   6, %o1
fact:   umul  %o0, %o1, %o0
        subcc %o1, 1, %o1
        bne   fact
        set   out, %o2
        st    %o0, [%o2]
        ld    [%o2], %o3          ! read back
        halt  %o3
        .data
out:    .word 0
pad:    .space 2
|}
  in
  let prog = Sparc.Parser.parse_string ~name:"fact" source in
  let t = Iss.Emulator.create prog in
  (match Iss.Emulator.run t with
  | Iss.Emulator.Exited code -> check_int "6! = 720" 720 code
  | s -> Alcotest.failf "parser program failed: %a" Iss.Emulator.pp_stop s);
  check_bool "labels resolved" true (List.mem_assoc "out" prog.A.symbols)

let test_parser_addressing_forms () =
  let prog =
    Sparc.Parser.parse_string
      "        mov 8, %o0\n        ld [%o0], %o1\n        ld [%o0 + 4], %o2\n\
      \        ld [%o0 - 4], %o3\n        ld [%o0 + %o1], %o4\n        st %o1, [%o0+8]\n"
  in
  check_int "six instructions" 6 (Array.length prog.A.instrs)
  (* mov expands to one or *)

let test_parser_errors () =
  let expect_error ~line source =
    match Sparc.Parser.parse_string source with
    | _ -> Alcotest.failf "expected a parse error on %S" source
    | exception Sparc.Parser.Parse_error e ->
        check_int ("line of " ^ source) line e.line
  in
  expect_error ~line:1 "frobnicate %o0, %o1, %o2";
  expect_error ~line:1 "add %o0, %o1";
  expect_error ~line:2 "nop\nld %o0, %o1";
  expect_error ~line:1 ".word 1";
  (* .word outside .data *)
  expect_error ~line:1 "set 1";
  expect_error ~line:1 "add %oX, 1, %o0"

let test_parser_reparses_disassembly () =
  (* Non-control-flow disassembly lines round-trip through the parser. *)
  let b = A.create () in
  A.op3 b I.Add I.o0 (Imm 5) I.o1;
  A.op3 b I.Xorcc I.l2 (Reg I.g3) I.o2;
  A.ld b I.Ldsh I.o0 (Imm 6) I.o3;
  A.st b I.Stb I.o3 I.o0 (Imm 1);
  A.emit b (I.Branch_i { op = I.Bgu; disp22 = -3 });
  let prog = A.assemble b in
  let text =
    String.concat "\n"
      (List.map
         (fun line ->
           (* strip the "address: " prefix *)
           match String.index_opt line ':' with
           | Some i -> String.sub line (i + 1) (String.length line - i - 1)
           | None -> line)
         (A.disassemble prog))
  in
  let prog' = Sparc.Parser.parse_string text in
  check_bool "same machine code" true (prog.A.code = prog'.A.code)

(* ---- memory ---- *)

let test_memory_endianness () =
  let mem = M.create () in
  M.store_word mem 0x100 0x11223344;
  (* SPARC is big-endian: byte 0 is the most significant *)
  check_int "byte 0" 0x11 (M.load_byte mem 0x100);
  check_int "byte 3" 0x44 (M.load_byte mem 0x103);
  check_int "half 0" 0x1122 (M.load_half mem 0x100);
  check_int "half 2" 0x3344 (M.load_half mem 0x102);
  M.store_byte mem 0x101 0xAB;
  check_int "byte store merges" 0x11AB3344 (M.load_word mem 0x100);
  M.store_half mem 0x102 0xCDEF;
  check_int "half store merges" 0x11ABCDEF (M.load_word mem 0x100)

let test_memory_alignment () =
  let mem = M.create () in
  Alcotest.check_raises "misaligned word" (M.Misaligned 0x102) (fun () ->
      ignore (M.load_word mem 0x102));
  Alcotest.check_raises "misaligned half" (M.Misaligned 0x101) (fun () ->
      ignore (M.load_half mem 0x101))

let test_memory_copy_isolation () =
  let a = M.create () in
  M.store_word a 0x40 7;
  let b = M.copy a in
  M.store_word b 0x40 9;
  check_int "original untouched" 7 (M.load_word a 0x40);
  check_int "copy updated" 9 (M.load_word b 0x40)

let test_memory_sparse_default () =
  let mem = M.create () in
  check_int "unwritten reads zero" 0 (M.load_word mem 0xFFFF_0000);
  let count = ref 0 in
  M.iter_nonzero mem (fun _ _ -> incr count);
  check_int "nothing recorded" 0 !count;
  (* equality sees contents, not page allocation: neither the order
     pages were first touched in nor a page written then zeroed
     matters *)
  let a = M.create () and b = M.create () in
  let writes = [ (0x100, 7); (0x4_0000, 9); (0x10_0000, 3) ] in
  List.iter (fun (addr, v) -> M.store_word a addr v) writes;
  List.iter (fun (addr, v) -> M.store_word b addr v) (List.rev writes);
  check_bool "insertion order ignored" true (M.equal a b);
  M.store_word b 0x100 8;
  check_bool "contents distinguish" false (M.equal a b);
  M.store_word mem 0x8_0000 5;
  M.store_word mem 0x8_0000 0;
  check_bool "zeroed page = absent page" true (M.equal mem (M.create ()))

let prop_memory_byte_word_consistency =
  QCheck2.Test.make ~name:"word = concatenation of its four bytes" ~count:300
    QCheck2.Gen.(pair (map (fun a -> (a land 0xFFFF) * 4) (int_bound max_int))
                   (map (fun x -> x land Bitops.mask32) (int_bound max_int)))
    (fun (addr, w) ->
      let mem = M.create () in
      M.store_word mem addr w;
      let reassembled =
        (M.load_byte mem addr lsl 24)
        lor (M.load_byte mem (addr + 1) lsl 16)
        lor (M.load_byte mem (addr + 2) lsl 8)
        lor M.load_byte mem (addr + 3)
      in
      reassembled = w)

let suite =
  ( "sparc",
    [ Alcotest.test_case "opcode tables" `Quick test_opcode_tables;
      Alcotest.test_case "classification" `Quick test_classification;
      Alcotest.test_case "cond_holds" `Quick test_cond_holds;
      Alcotest.test_case "icc packing" `Quick test_icc_packing;
      Alcotest.test_case "register names" `Quick test_reg_names;
      Alcotest.test_case "known encodings" `Quick test_encode_known_words;
      Alcotest.test_case "encode range checks" `Quick test_encode_range_checks;
      Alcotest.test_case "decode invalid" `Quick test_decode_invalid;
      Alcotest.test_case "labels and branches" `Quick test_asm_labels_and_branches;
      Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
      Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
      Alcotest.test_case "set32 expansion" `Quick test_asm_set32;
      Alcotest.test_case "data section" `Quick test_asm_data_section;
      Alcotest.test_case "parser: registers" `Quick test_parser_registers;
      Alcotest.test_case "parser: end to end" `Quick test_parser_end_to_end;
      Alcotest.test_case "parser: addressing" `Quick test_parser_addressing_forms;
      Alcotest.test_case "parser: errors" `Quick test_parser_errors;
      Alcotest.test_case "parser: reparse disassembly" `Quick test_parser_reparses_disassembly;
      Alcotest.test_case "memory endianness" `Quick test_memory_endianness;
      Alcotest.test_case "memory alignment" `Quick test_memory_alignment;
      Alcotest.test_case "memory copy isolation" `Quick test_memory_copy_isolation;
      Alcotest.test_case "memory sparse default" `Quick test_memory_sparse_default ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_encode_decode_roundtrip; prop_decode_total;
          prop_memory_byte_word_consistency ] )
