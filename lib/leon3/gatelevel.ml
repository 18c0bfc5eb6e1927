(* Gate-level lowering of the Leon3 IU datapath.

   Each function here rebuilds one behavioural comb node (or a group
   of them) as a NAND/NOR/NOT/MUX network over 1-bit wires — the
   substrate the paper's elaborated-VHDL injection population lives
   at.  The load-bearing invariant is *name preservation*: every
   behavioural node keeps its name, width and value function in the
   gate-level elaboration — rewired as a packer over the gate bits or
   as a buffer of a gate output — so the gate-level injection pool is
   a superset of the behavioural pool by site name, and a name-matched
   fault injected into either elaboration produces the same observable
   run.  Every lowered function is bit-exact against its behavioural
   evaluator over the full input space, including the behavioural
   quirks (undefined subops fall through exactly as the if-chains
   do). *)

module C = Rtl.Circuit

let sp = Printf.sprintf

(* ---- derived cells (NAND/NOR/NOT compositions) ----
   Each derived cell names its root node [name]; internal nodes get
   [name] plus a suffix, so a behavioural node name can be given to
   the root and survive into the gate-level pool. *)

let and2 c name a b = C.gate_not c name (C.gate_nand c (name ^ "_n") a b)

let or2 c name a b = C.gate_not c name (C.gate_nor c (name ^ "_n") a b)

(* XOR as the classic 4-NAND composition. *)
let xor2 c name a b =
  let nab = C.gate_nand c (name ^ "_g") a b in
  let x1 = C.gate_nand c (name ^ "_a") a nab in
  let x2 = C.gate_nand c (name ^ "_b") b nab in
  C.gate_nand c name x1 x2

(* Balanced binary reduction; the root carries [name]. *)
let tree op c name = function
  | [] -> invalid_arg "Gatelevel.tree: empty"
  | [ x ] -> C.gate_buf c name x
  | xs ->
      let level = ref 0 in
      let rec go = function
        | [ a; b ] -> op c name a b
        | xs ->
            let i = ref 0 in
            let rec pair = function
              | a :: b :: tl ->
                  let nm = sp "%s_t%d_%d" name !level !i in
                  incr i;
                  op c nm a b :: pair tl
              | tl -> tl
            in
            let next = pair xs in
            incr level;
            go next
      in
      go xs

let or_tree c name xs = tree or2 c name xs

let and_tree c name xs = tree and2 c name xs

(* Bit taps and packers: the word <-> wire boundary.  A tap extracts
   one bit of a word-level node; a packer is the behavioural-named
   word rebuilt from its gate bits. *)

let taps c base w s = Array.init w (fun i -> C.tap c (sp "%s%d" base i) s i)

let pack c name bits =
  C.combn c name (Array.length bits) bits (fun vs ->
      let v = ref 0 in
      for i = Array.length bits - 1 downto 0 do
        v := (!v lsl 1) lor (vs.(i) land 1)
      done;
      !v)

(* Ripple-carry adder over bit arrays: propagate/sum XORs plus the
   majority carry as NAND-NAND two-level logic, the way standard cells
   implement AND-OR (p%d / s%d / ng%d / np%d / c%d). *)
let ripple c ?(prefix = "") a b cin =
  let carry = ref cin in
  let sum =
    Array.init 32 (fun i ->
        let p = xor2 c (sp "%sp%d" prefix i) a.(i) b.(i) in
        let s = xor2 c (sp "%ss%d" prefix i) p !carry in
        let ng = C.gate_nand c (sp "%sng%d" prefix i) a.(i) b.(i) in
        let np = C.gate_nand c (sp "%snp%d" prefix i) p !carry in
        carry := C.gate_nand c (sp "%sc%d" prefix i) ng np;
        s)
  in
  (sum, !carry)

(* ---- shared operand fabric ----
   Bit taps of the EX operands and control fields, built once under
   "iu.gates.alu" and shared by every lowered unit. *)

type ops = {
  op1b : C.signal array;  (* ra_op1 bits *)
  op2b : C.signal array;  (* ra_op2 bits *)
  subb : C.signal array;  (* subop_s bits *)
  unitb : C.signal array; (* unit_s bits *)
  iccb : C.signal array;  (* icc bits, [c; v; z; n] LSB first *)
}

let operand_taps c ~ra_op1 ~ra_op2 ~subop_s ~unit_s ~icc =
  { op1b = taps c "op1b" 32 ra_op1;
    op2b = taps c "op2b" 32 ra_op2;
    subb = taps c "subb" 3 subop_s;
    unitb = taps c "unitb" 3 unit_s;
    iccb = taps c "iccb" 4 icc }

(* ---- fetch: pc_mis comparator and the pc+4 incrementer ----
   Called inside the "iu.fe" scope; returns (pc_mis, pc_inc, pc bit
   taps).  The taps are reused by the branch adder and the writeback
   mux. *)

let fetch c ~pc =
  let pcb, pm, inc_bits =
    C.scoped c "gates" (fun () ->
        let pcb = taps c "pcb" 32 pc in
        let pm = or2 c "pcmis" pcb.(0) pcb.(1) in
        (* pc + 4: bits 0..1 pass through, increment chain from bit 2
           (carry-in 1 realised as s2 = NOT pc2, carry2 = pc2). *)
        let bits = Array.make 32 pcb.(0) in
        bits.(1) <- pcb.(1);
        bits.(2) <- C.gate_not c "inc_s2" pcb.(2);
        let carry = ref pcb.(2) in
        for i = 3 to 31 do
          bits.(i) <- xor2 c (sp "inc_s%d" i) pcb.(i) !carry;
          if i < 31 then carry := and2 c (sp "inc_c%d" i) pcb.(i) !carry
        done;
        (pcb, pm, bits))
  in
  let pc_mis = C.gate_buf c "pc_mis" pm in
  let pc_inc = pack c "pc_inc" inc_bits in
  (pc_mis, pc_inc, pcb)

(* ---- decode: a PLA generated from the opcode table ----

   One AND term per valid opcode row — 33 format-3 ALU rows, 8
   format-3 memory rows, 16 branch conditions, SETHI and CALL — each
   probing [Ctl.decode] on a canonical instruction word for its output
   pattern, then one OR plane per ctl bit.  [Encode.decode] reads only
   op / op2f / bit 29 / cond / op3 / i / the asi-zero field, so terms
   over exactly those bits reproduce it over all 2^32 words; format-3
   terms share an [op2_ok = i OR (bits 12:5 = 0)] guard, and the
   use_imm plane gets the (term AND i) products since i is the only
   bit that distinguishes the register and immediate variants of a
   row. *)

type term = {
  t_name : string;
  t_bits : (int * int) list; (* (ir bit, required value) *)
  t_f3 : bool;               (* format 3: guarded by op2_ok *)
  t_ctl : int;               (* Ctl.decode of a canonical i=0 word *)
}

let bits_of v w lo = List.init w (fun k -> (lo + k, (v lsr k) land 1))

let opcode_terms () =
  let f3 pref op op3 =
    let w = (op lsl 30) lor (op3 lsl 19) in
    let ctl = Ctl.decode w in
    if ctl land (1 lsl Ctl.b_valid) = 0 then None
    else
      Some
        { t_name = sp "%s%02x" pref op3;
          t_bits = bits_of op 2 30 @ bits_of op3 6 19;
          t_f3 = true;
          t_ctl = ctl; }
  in
  let row pref op = List.filter_map (fun op3 -> f3 pref op op3) (List.init 64 Fun.id) in
  let alu = row "a" 2 and mem = row "m" 3 in
  let br =
    List.init 16 (fun cond ->
        let w = (cond lsl 25) lor (0b010 lsl 22) in
        { t_name = sp "b%x" cond;
          t_bits = bits_of 0 2 30 @ [ (29, 0) ] @ bits_of cond 4 25 @ bits_of 0b010 3 22;
          t_f3 = false;
          t_ctl = Ctl.decode w; })
  in
  let sethi =
    { t_name = "sethi";
      t_bits = bits_of 0 2 30 @ bits_of 0b100 3 22;
      t_f3 = false;
      t_ctl = Ctl.decode (0b100 lsl 22); }
  in
  let call =
    { t_name = "call";
      t_bits = bits_of 1 2 30;
      t_f3 = false;
      t_ctl = Ctl.decode (1 lsl 30); }
  in
  (alu, mem, br, sethi, call)

(* Called inside the "iu.de" scope; returns the (ctl, imm) packers
   with their behavioural names. *)
let decode c ~ir =
  let ctl_bits, imm_bits =
    C.scoped c "gates" (fun () ->
        let irb = taps c "irb" 32 ir in
        let irn = Array.make 32 None in
        let lit (bit, v) =
          if v = 1 then irb.(bit)
          else
            match irn.(bit) with
            | Some s -> s
            | None ->
                let s = C.gate_not c (sp "irn%d" bit) irb.(bit) in
                irn.(bit) <- Some s;
                s
        in
        let asi_any = or_tree c "asi_any" (List.init 8 (fun k -> irb.(5 + k))) in
        let asi_zero = C.gate_not c "asi_zero" asi_any in
        let op2_ok = or2 c "op2_ok" irb.(13) asi_zero in
        let term_out t =
          let lits = List.map lit t.t_bits in
          let lits = if t.t_f3 then op2_ok :: lits else lits in
          and_tree c (sp "t_%s" t.t_name) lits
        in
        let alu, mem, br, sethi, call = opcode_terms () in
        let outs_of = List.map (fun t -> (t, term_out t)) in
        let alu_o = outs_of alu and mem_o = outs_of mem and br_o = outs_of br in
        let sethi_o = term_out sethi and call_o = term_out call in
        let outs = alu_o @ mem_o @ br_o @ [ (sethi, sethi_o); (call, call_o) ] in
        let alu_any = or_tree c "alu_any" (List.map snd alu_o) in
        let mem_any = or_tree c "mem_any" (List.map snd mem_o) in
        let br_any = or_tree c "br_any" (List.map snd br_o) in
        let f3_any = or2 c "f3_any" alu_any mem_any in
        let sel_simm = and2 c "sel_simm" f3_any irb.(13) in
        let zero = C.const c "dzero" 1 0 in
        (* ctl OR planes *)
        let plane j =
          if j = Ctl.b_valid then
            or_tree c (sp "ctl%d" j) [ f3_any; br_any; sethi_o; call_o ]
          else
            let static =
              List.filter_map
                (fun (t, o) -> if t.t_ctl land (1 lsl j) <> 0 then Some o else None)
                outs
            in
            let extra =
              if j = Ctl.b_use_imm then
                List.filter_map
                  (fun (t, o) ->
                    if t.t_f3 then Some (and2 c (sp "ti_%s" t.t_name) o irb.(13))
                    else None)
                  outs
              else []
            in
            match static @ extra with
            | [] -> zero
            | xs -> or_tree c (sp "ctl%d" j) xs
        in
        let ctl_bits = Array.init Ctl.width plane in
        (* imm OR-of-AND planes, one per format, muxed by the shared
           format selects.  Exactly one select is high on a valid word
           (the terms are mutually exclusive), so OR-of-AND is exact;
           on an invalid word every select is 0 and imm = 0, matching
           the behavioural [Ctl.imm_of]. *)
        let imm_bit i =
          let parts = ref [] in
          let add tag sel src =
            parts := and2 c (sp "im%s%d" tag i) sel src :: !parts
          in
          if i >= 2 then add "c" call_o irb.(i - 2);       (* disp30 << 2 *)
          if i >= 10 then add "h" sethi_o irb.(i - 10);    (* imm22 << 10 *)
          if i >= 2 then add "b" br_any irb.(min (i - 2) 21); (* sext(disp22) << 2 *)
          add "s" sel_simm irb.(min i 12);                 (* sext13 *)
          match !parts with
          | [ x ] -> C.gate_buf c (sp "imm%d" i) x
          | xs -> or_tree c (sp "imm%d" i) xs
        in
        (ctl_bits, Array.init 32 imm_bit))
  in
  (pack c "ctl" ctl_bits, pack c "imm" imm_bits)

(* ---- operand select mux ----
   Called under "iu.gates.operand"; the "op2_mux" packer itself is
   created by the caller inside "iu.ra" to keep the behavioural name.
   Returns (de_imm bit taps, selected-operand bits). *)

let op2_mux c ~use_imm ~de_imm ~rdb =
  let immb = taps c "immb" 32 de_imm in
  let rdbb = taps c "rdbb" 32 rdb in
  let bits =
    Array.init 32 (fun i -> C.gate_mux c (sp "op2m%d" i) ~sel:use_imm immb.(i) rdbb.(i))
  in
  (immb, bits)

(* ---- EX adder: b_eff / cin / ripple sum / flags ----
   Called inside "iu.ex.adder".  The subtract mask is s0 AND NOT s2 —
   exactly the behavioural [s = sub || s = subx] over the 3-bit subop
   space (s = 5 or 7 must not invert, matching the if-chain). *)

(* Every behavioural-named boundary node (the [b_eff]/[cin]/[sum]/...
   packers and buffers) must stay {e in-path}: downstream gates consume
   bit taps of the packer, never the raw gate bits behind it —
   otherwise a fault armed on the behavioural name would be a dead end
   in the gate elaboration and verdict equivalence would break. *)
let adder c ops =
  let sub_mask, cin_g =
    C.scoped c "gates" (fun () ->
        let s0 = ops.subb.(0) and s1 = ops.subb.(1) and s2 = ops.subb.(2) in
        let ns2 = C.gate_not c "ns2" s2 in
        let sub_mask = and2 c "sub_mask" s0 ns2 in
        (* carry-in: sub -> 1, addx -> C, subx -> NOT C, else 0 *)
        let cx = xor2 c "cin_x" s0 ops.iccb.(0) in
        let cm = C.gate_mux c "cin_m" ~sel:s1 cx s0 in
        (sub_mask, and2 c "cin_g" cm ns2))
  in
  let cin = C.gate_buf c "cin" cin_g in
  let beff_bits =
    C.scoped c "gates" (fun () ->
        Array.init 32 (fun i -> xor2 c (sp "be%d" i) ops.op2b.(i) sub_mask))
  in
  let b_eff = pack c "b_eff" beff_bits in
  let beb, sum_bits, carry_g =
    C.scoped c "gates" (fun () ->
        let beb = taps c "beb" 32 b_eff in
        let sum_bits, carry_g = ripple c ops.op1b beb cin in
        (beb, sum_bits, carry_g))
  in
  let sum = pack c "sum" sum_bits in
  let carry = C.gate_buf c "carry" carry_g in
  let sumt, fc_g, fv_g =
    C.scoped c "gates" (fun () ->
        let sumt = taps c "sumt" 32 sum in
        let fc_g = xor2 c "flagc" carry sub_mask in
        let vab = xor2 c "v_ab" ops.op1b.(31) beb.(31) in
        let vnab = C.gate_not c "v_nab" vab in
        let var = xor2 c "v_ar" ops.op1b.(31) sumt.(31) in
        (sumt, fc_g, and2 c "flagv" vnab var))
  in
  let flag_c = C.gate_buf c "flag_c" fc_g in
  let flag_v = C.gate_buf c "flag_v" fv_g in
  (sum, sumt, flag_c, flag_v)

(* ---- EX logic unit ----  Called inside "iu.ex.logic". *)

let logic c ops =
  let bits =
    C.scoped c "gates" (fun () ->
        let s0 = ops.subb.(0) and s1 = ops.subb.(1) and s2 = ops.subb.(2) in
        (* within the s2 = 1 half: xor only for subop exactly 4; 5, 6
           and 7 all fall through to the behavioural else (xnor) *)
        let s01 = or2 c "s01" s0 s1 in
        Array.init 32 (fun i ->
            let a = ops.op1b.(i) and b = ops.op2b.(i) in
            let nb = C.gate_not c (sp "nb%d" i) b in
            let andv = and2 c (sp "and%d" i) a b in
            let andnv = and2 c (sp "andn%d" i) a nb in
            let orv = or2 c (sp "or%d" i) a b in
            let ornv = or2 c (sp "orn%d" i) a nb in
            let xorv = xor2 c (sp "xor%d" i) a b in
            let xnorv = C.gate_not c (sp "xnor%d" i) xorv in
            let lo_and = C.gate_mux c (sp "ml0_%d" i) ~sel:s0 andnv andv in
            let lo_or = C.gate_mux c (sp "ml1_%d" i) ~sel:s0 ornv orv in
            let lo = C.gate_mux c (sp "ml2_%d" i) ~sel:s1 lo_or lo_and in
            let hi = C.gate_mux c (sp "mh%d" i) ~sel:s01 xnorv xorv in
            C.gate_mux c (sp "mo%d" i) ~sel:s2 hi lo))
  in
  let res = pack c "result" bits in
  (res, C.scoped c "gates" (fun () -> taps c "lres" 32 res))

(* ---- EX barrel shifter ----
   Called inside "iu.ex.shift" after the behavioural shcnt slice.  A
   5-stage left barrel with the reverse-in/reverse-out trick for right
   shifts; fill = arith AND a31 (srl fills 0, sra fills the sign, sll
   fills 0 because arith is 0).  Subop decode matches the behavioural
   if-chain: 0 -> sll, 1 -> srl, everything else -> sra. *)

let shift c ops ~shcnt =
  let bits =
    C.scoped c "gates" (fun () ->
        let nb = taps c "n" 5 shcnt in
        let s0 = ops.subb.(0) and s1 = ops.subb.(1) and s2 = ops.subb.(2) in
        let n12 = C.gate_nor c "n12" s1 s2 in
        let ns0 = C.gate_not c "ns0" s0 in
        let left = and2 c "left" ns0 n12 in
        let srl = and2 c "srl" s0 n12 in
        let arith = C.gate_nor c "arith" left srl in
        let right = C.gate_not c "right" left in
        let fill = and2 c "fill" arith ops.op1b.(31) in
        let cur =
          ref
            (Array.init 32 (fun i ->
                 C.gate_mux c (sp "rin%d" i) ~sel:right ops.op1b.(31 - i) ops.op1b.(i)))
        in
        for k = 0 to 4 do
          let shn = 1 lsl k in
          cur :=
            Array.init 32 (fun i ->
                let shifted = if i >= shn then !cur.(i - shn) else fill in
                C.gate_mux c (sp "st%d_%d" k i) ~sel:nb.(k) shifted !cur.(i))
        done;
        Array.init 32 (fun i ->
            C.gate_mux c (sp "rout%d" i) ~sel:right !cur.(31 - i) !cur.(i)))
  in
  let res = pack c "result" bits in
  (res, C.scoped c "gates" (fun () -> taps c "sres" 32 res))

(* ---- result mux and condition codes ----
   Called under "iu.gates.alu" (after the unit results exist); the
   "result_mux" / "icc_next" packers are created by the caller inside
   "iu.ex".  One-hot unit decode plus a per-bit mux chain; unknown
   unit codes (5..7) fall through to the adder, as behaviourally. *)

let result_mux c ops ~sum_bits ~logic_bits ~shift_bits ~mul_res ~div_res =
  let mulb = taps c "mulb" 32 mul_res in
  let divb = taps c "divb" 32 div_res in
  let u0 = ops.unitb.(0) and u1 = ops.unitb.(1) and u2 = ops.unitb.(2) in
  let nu0 = C.gate_not c "nu0" u0 in
  let nu1 = C.gate_not c "nu1" u1 in
  let nu2 = C.gate_not c "nu2" u2 in
  let sel2 nm a b g = and2 c nm (and2 c (nm ^ "_a") a b) g in
  let sel_logic = sel2 "sel_logic" u0 nu1 nu2 in
  let sel_shift = sel2 "sel_shift" nu0 u1 nu2 in
  let sel_mul = sel2 "sel_mul" u0 u1 nu2 in
  let sel_div = sel2 "sel_div" nu0 nu1 u2 in
  Array.init 32 (fun i ->
      let m3 = C.gate_mux c (sp "rm3_%d" i) ~sel:sel_div divb.(i) sum_bits.(i) in
      let m2 = C.gate_mux c (sp "rm2_%d" i) ~sel:sel_mul mulb.(i) m3 in
      let m1 = C.gate_mux c (sp "rm1_%d" i) ~sel:sel_shift shift_bits.(i) m2 in
      C.gate_mux c (sp "rm0_%d" i) ~sel:sel_logic logic_bits.(i) m1)

(* icc_next bits [c; v; z; n] LSB first: Z is a NOR tree over the
   result bits, N is the sign bit, V/C gate through unit = adder.
   Consumes the packed ["result_mux"] word (via taps) so faults on it
   reach the condition codes, as they do behaviourally. *)
let icc_next c ops ~ex_result ~flag_c ~flag_v =
  let resb = taps c "resb" 32 ex_result in
  let zor = or_tree c "z_or" (Array.to_list resb) in
  let z = C.gate_not c "z_f" zor in
  let u01 = or2 c "u01" ops.unitb.(0) ops.unitb.(1) in
  let is_adder = C.gate_nor c "is_adder" u01 ops.unitb.(2) in
  let v = and2 c "v_sel" flag_v is_adder in
  let cf = and2 c "c_sel" flag_c is_adder in
  let n = C.gate_buf c "n_f" resb.(31) in
  [| cf; v; z; n |]

(* ---- branch unit ----
   Called inside "iu.ex.branch".  Returns (cond_ok, taken, next_pc,
   jmpl_mis gate) — the caller buffers jmpl_mis under its behavioural
   name in the "iu.ex" scope. *)

let branch c ops ~cond_s ~is_branch ~is_call ~is_jmpl ~pcb ~immb ~sum_bits ~pc_inc =
  let cond_g, bt_bits =
    C.scoped c "gates" (fun () ->
        let cb = taps c "condb" 4 cond_s in
        let n = ops.iccb.(3) and z = ops.iccb.(2) and v = ops.iccb.(1)
        and cfl = ops.iccb.(0) in
        let zero = C.const c "bzero" 1 0 in
        let nxv = xor2 c "nxv" n v in
        let zonv = or2 c "zonv" z nxv in
        let coz = or2 c "coz" cfl z in
        (* 8:1 mux over cond[2:0]: never/z/z|n^v/n^v/c|z/c/n/v *)
        let m00 = C.gate_mux c "cm00" ~sel:cb.(0) z zero in
        let m01 = C.gate_mux c "cm01" ~sel:cb.(0) nxv zonv in
        let m10 = C.gate_mux c "cm10" ~sel:cb.(0) cfl coz in
        let m11 = C.gate_mux c "cm11" ~sel:cb.(0) v n in
        let m0 = C.gate_mux c "cm0" ~sel:cb.(1) m01 m00 in
        let m1 = C.gate_mux c "cm1" ~sel:cb.(1) m11 m10 in
        let base = C.gate_mux c "cbase" ~sel:cb.(2) m1 m0 in
        let cond_g = xor2 c "condx" base cb.(3) in
        let bt_bits, _ = ripple c ~prefix:"bt_" pcb immb zero in
        (cond_g, bt_bits))
  in
  let cond_ok = C.gate_buf c "cond_ok" cond_g in
  let taken = and2 c "taken" is_branch cond_ok in
  let br_target = pack c "br_target" bt_bits in
  let np_bits, jm_g =
    C.scoped c "gates" (fun () ->
        let btb = taps c "btb" 32 br_target in
        let pib = taps c "pib" 32 pc_inc in
        let ct = or2 c "ct" is_call taken in
        let np_bits =
          Array.init 32 (fun i ->
              let m = C.gate_mux c (sp "np1_%d" i) ~sel:ct btb.(i) pib.(i) in
              C.gate_mux c (sp "np0_%d" i) ~sel:is_jmpl sum_bits.(i) m)
        in
        let jlow = or2 c "jm_low" sum_bits.(0) sum_bits.(1) in
        (np_bits, and2 c "jm_and" is_jmpl jlow))
  in
  let next_pc = pack c "next_pc" np_bits in
  (next_pc, jm_g)

(* ---- writeback data mux ----  Called inside "iu.wb". *)

let wb_data c ~is_load ~is_call ~is_jmpl ~is_sethi ~me_load ~pcb ~immb ~ex_result_r =
  let bits =
    C.scoped c "gates" (fun () ->
        let ldb = taps c "ldb" 32 me_load in
        let resb = taps c "resb" 32 ex_result_r in
        let cj = or2 c "cj" is_call is_jmpl in
        Array.init 32 (fun i ->
            let m2 = C.gate_mux c (sp "wbm2_%d" i) ~sel:is_sethi immb.(i) resb.(i) in
            let m1 = C.gate_mux c (sp "wbm1_%d" i) ~sel:cj pcb.(i) m2 in
            C.gate_mux c (sp "wbm0_%d" i) ~sel:is_load ldb.(i) m1))
  in
  pack c "wb_data" bits
