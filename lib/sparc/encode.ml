let op3_of_opcode : Isa.opcode -> int = function
  | Add -> 0x00 | And -> 0x01 | Or -> 0x02 | Xor -> 0x03
  | Sub -> 0x04 | Andn -> 0x05 | Orn -> 0x06 | Xnor -> 0x07
  | Addx -> 0x08 | Umul -> 0x0A | Smul -> 0x0B | Subx -> 0x0C
  | Udiv -> 0x0E | Sdiv -> 0x0F
  | Addcc -> 0x10 | Andcc -> 0x11 | Orcc -> 0x12 | Xorcc -> 0x13
  | Subcc -> 0x14 | Andncc -> 0x15 | Orncc -> 0x16 | Xnorcc -> 0x17
  | Addxcc -> 0x18 | Umulcc -> 0x1A | Smulcc -> 0x1B | Subxcc -> 0x1C
  | Sll -> 0x25 | Srl -> 0x26 | Sra -> 0x27
  | Jmpl -> 0x38 | Save -> 0x3C | Restore -> 0x3D
  | Ld -> 0x00 | Ldub -> 0x01 | Lduh -> 0x02 | Ldsb -> 0x09 | Ldsh -> 0x0A
  | St -> 0x04 | Stb -> 0x05 | Sth -> 0x06
  | Sethi | Call
  | Ba | Bn | Bne | Be | Bg | Ble | Bge | Bl
  | Bgu | Bleu | Bcc | Bcs | Bpos | Bneg | Bvc | Bvs ->
      invalid_arg "Encode.op3_of_opcode: not a format-3 opcode"

let cond_code : Isa.opcode -> int = function
  | Bn -> 0x0 | Be -> 0x1 | Ble -> 0x2 | Bl -> 0x3
  | Bleu -> 0x4 | Bcs -> 0x5 | Bneg -> 0x6 | Bvs -> 0x7
  | Ba -> 0x8 | Bne -> 0x9 | Bg -> 0xA | Bge -> 0xB
  | Bgu -> 0xC | Bcc -> 0xD | Bpos -> 0xE | Bvc -> 0xF
  | Add | Addcc | Addx | Addxcc | Sub | Subcc | Subx | Subxcc
  | And | Andcc | Andn | Andncc | Or | Orcc | Orn | Orncc
  | Xor | Xorcc | Xnor | Xnorcc | Sll | Srl | Sra
  | Umul | Umulcc | Smul | Smulcc | Udiv | Sdiv
  | Save | Restore | Jmpl
  | Ld | Ldub | Ldsb | Lduh | Ldsh | St | Stb | Sth
  | Sethi | Call ->
      invalid_arg "Encode.cond_code: not a branch opcode"

let check_reg r = if r < 0 || r > 31 then invalid_arg "Encode: register out of range"

let encode_operand2 (op2 : Isa.operand) =
  match op2 with
  | Reg rs2 ->
      check_reg rs2;
      rs2
  | Imm imm ->
      if imm < -4096 || imm > 4095 then invalid_arg "Encode: immediate beyond simm13";
      (1 lsl 13) lor (imm land 0x1FFF)

let f3 ~op ~rd ~op3 ~rs1 ~op2 =
  check_reg rd;
  check_reg rs1;
  (op lsl 30) lor (rd lsl 25) lor (op3 lsl 19) lor (rs1 lsl 14) lor encode_operand2 op2

let encode (i : Isa.instr) =
  match i with
  | Alu { op; rs1; op2; rd } -> f3 ~op:0b10 ~rd ~op3:(op3_of_opcode op) ~rs1 ~op2
  | Mem { op; rs1; op2; rd } -> f3 ~op:0b11 ~rd ~op3:(op3_of_opcode op) ~rs1 ~op2
  | Sethi_i { imm22; rd } ->
      check_reg rd;
      if imm22 < 0 || imm22 > 0x3F_FFFF then invalid_arg "Encode: imm22 out of range";
      (rd lsl 25) lor (0b100 lsl 22) lor imm22
  | Branch_i { op; disp22 } ->
      if disp22 < -(1 lsl 21) || disp22 >= 1 lsl 21 then
        invalid_arg "Encode: disp22 out of range";
      (cond_code op lsl 25) lor (0b010 lsl 22) lor (disp22 land 0x3F_FFFF)
  | Call_i { disp30 } ->
      if disp30 < -(1 lsl 29) || disp30 >= 1 lsl 29 then
        invalid_arg "Encode: disp30 out of range";
      (0b01 lsl 30) lor (disp30 land 0x3FFF_FFFF)

let branch_of_cond = function
  | 0x0 -> Isa.Bn | 0x1 -> Isa.Be | 0x2 -> Isa.Ble | 0x3 -> Isa.Bl
  | 0x4 -> Isa.Bleu | 0x5 -> Isa.Bcs | 0x6 -> Isa.Bneg | 0x7 -> Isa.Bvs
  | 0x8 -> Isa.Ba | 0x9 -> Isa.Bne | 0xA -> Isa.Bg | 0xB -> Isa.Bge
  | 0xC -> Isa.Bgu | 0xD -> Isa.Bcc | 0xE -> Isa.Bpos | 0xF -> Isa.Bvc
  | _ -> assert false

let alu_of_op3 = function
  | 0x00 -> Some Isa.Add | 0x01 -> Some Isa.And | 0x02 -> Some Isa.Or
  | 0x03 -> Some Isa.Xor | 0x04 -> Some Isa.Sub | 0x05 -> Some Isa.Andn
  | 0x06 -> Some Isa.Orn | 0x07 -> Some Isa.Xnor | 0x08 -> Some Isa.Addx
  | 0x0A -> Some Isa.Umul | 0x0B -> Some Isa.Smul | 0x0C -> Some Isa.Subx
  | 0x0E -> Some Isa.Udiv | 0x0F -> Some Isa.Sdiv
  | 0x10 -> Some Isa.Addcc | 0x11 -> Some Isa.Andcc | 0x12 -> Some Isa.Orcc
  | 0x13 -> Some Isa.Xorcc | 0x14 -> Some Isa.Subcc | 0x15 -> Some Isa.Andncc
  | 0x16 -> Some Isa.Orncc | 0x17 -> Some Isa.Xnorcc | 0x18 -> Some Isa.Addxcc
  | 0x1A -> Some Isa.Umulcc | 0x1B -> Some Isa.Smulcc | 0x1C -> Some Isa.Subxcc
  | 0x25 -> Some Isa.Sll | 0x26 -> Some Isa.Srl | 0x27 -> Some Isa.Sra
  | 0x38 -> Some Isa.Jmpl | 0x3C -> Some Isa.Save | 0x3D -> Some Isa.Restore
  | _ -> None

let mem_of_op3 = function
  | 0x00 -> Some Isa.Ld | 0x01 -> Some Isa.Ldub | 0x02 -> Some Isa.Lduh
  | 0x09 -> Some Isa.Ldsb | 0x0A -> Some Isa.Ldsh
  | 0x04 -> Some Isa.St | 0x05 -> Some Isa.Stb | 0x06 -> Some Isa.Sth
  | _ -> None

(* Strict decoding: the subset never emits the annul bit or a non-zero
   ASI field, so words carrying them are rejected rather than silently
   normalised — keeping encode/decode a bijection on the subset. *)
let decode_operand2 w : Isa.operand option =
  if Bitops.bit 13 w = 1 then Some (Imm (Bitops.to_signed (Bitops.sext ~bits:13 w)))
  else if Bitops.bits ~hi:12 ~lo:5 w <> 0 then None
  else Some (Reg (Bitops.bits ~hi:4 ~lo:0 w))

let decode w =
  let w = Bitops.of_int w in
  match Bitops.bits ~hi:31 ~lo:30 w with
  | 0b01 ->
      let disp30 = Bitops.to_signed (Bitops.sext ~bits:30 w) in
      Some (Isa.Call_i { disp30 })
  | 0b00 -> (
      match Bitops.bits ~hi:24 ~lo:22 w with
      | 0b100 ->
          Some (Isa.Sethi_i { imm22 = Bitops.bits ~hi:21 ~lo:0 w; rd = Bitops.bits ~hi:29 ~lo:25 w })
      | 0b010 ->
          if Bitops.bit 29 w = 1 then None
            (* annul bit unsupported *)
          else
            let op = branch_of_cond (Bitops.bits ~hi:28 ~lo:25 w) in
            let disp22 = Bitops.to_signed (Bitops.sext ~bits:22 w) in
            Some (Isa.Branch_i { op; disp22 })
      | _ -> None)
  | 0b10 -> (
      match (alu_of_op3 (Bitops.bits ~hi:24 ~lo:19 w), decode_operand2 w) with
      | Some op, Some op2 ->
          Some
            (Isa.Alu
               { op;
                 rd = Bitops.bits ~hi:29 ~lo:25 w;
                 rs1 = Bitops.bits ~hi:18 ~lo:14 w;
                 op2 })
      | Some _, None | None, Some _ | None, None -> None)
  | 0b11 -> (
      match (mem_of_op3 (Bitops.bits ~hi:24 ~lo:19 w), decode_operand2 w) with
      | Some op, Some op2 ->
          Some
            (Isa.Mem
               { op;
                 rd = Bitops.bits ~hi:29 ~lo:25 w;
                 rs1 = Bitops.bits ~hi:18 ~lo:14 w;
                 op2 })
      | Some _, None | None, Some _ | None, None -> None)
  | _ -> assert false
