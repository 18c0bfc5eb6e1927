module C = Rtl.Circuit
module Layout = Sparc.Layout

let st_fe = 0
let st_de = 1
let st_ra = 2
let st_ex = 3
let st_me = 4
let st_xc = 5
let st_wb = 6
let st_halt = 7

let trap_none = 0
let trap_illegal = 1
let trap_misaligned = 2
let trap_div0 = 3

type t = {
  circuit : C.t;
  state : C.signal;
  pc : C.signal;
  ir : C.signal;
  halted : C.signal;
  trap_code : C.signal;
  instret : C.signal;
  icc : C.signal;
  cwp : C.signal;
  icache : Cache_block.ports;
  dcache : Cache_block.ports;
  regfile : C.memory;
}

type params = {
  icache_lines : int;
  dcache_lines : int;
  gate_level : bool;
      (** elaborate the full IU datapath — decode PLA, ALU, barrel
          shifter, condition codes, branch and mux trees — as a
          NAND/NOR/NOT/MUX netlist ({!Gatelevel}), with every
          behavioural node name preserved as a packer or buffer over
          the gate bits. *)
}

let default_params = { icache_lines = 64; dcache_lines = 64; gate_level = false }

let nwindows = 8

let words_per_line = 4

let reset_pc = Layout.text_base

let regfile_slot ~nwindows ~cwp r =
  if r < 8 then r
  else
    8
    +
    if r < 16 then (16 * cwp) + (r - 8)
    else if r < 24 then (16 * cwp) + 8 + (r - 16)
    else (16 * ((cwp + 1) mod nwindows)) + (r - 24)

let flag_of ctl b = (ctl lsr b) land 1

let field_of ctl (lo, w) = (ctl lsr lo) land ((1 lsl w) - 1)

(* SPARC Bicc condition evaluation from the 4-bit cond code and the
   packed icc [n z v c]. *)
let cond_eval cond icc =
  let n = (icc lsr 3) land 1 = 1
  and z = (icc lsr 2) land 1 = 1
  and v = (icc lsr 1) land 1 = 1
  and c = icc land 1 = 1 in
  let base =
    match cond land 7 with
    | 0 -> false (* never *)
    | 1 -> z
    | 2 -> z || n <> v
    | 3 -> n <> v
    | 4 -> c || z
    | 5 -> c
    | 6 -> n
    | _ -> v
  in
  Util.bit1 (if cond land 8 <> 0 then not base else base)

let build ?(params = default_params) () =
  let c = C.create "leon3" in
  let cwp_bits =
    let rec go b = if 1 lsl b >= nwindows then b else go (b + 1) in
    max 1 (go 1)
  in
  (* [iu name f] builds nodes under the scope ["iu.<name>"]. *)
  let iu name f = C.scoped c "iu" (fun () -> C.scoped c name f) in

  (* ---- registers on feedback paths ---- *)
  let state = iu "ctrl" (fun () -> C.reg c "state" ~width:3 ~init:st_fe ()) in
  let pc = iu "fe" (fun () -> C.reg c "pc" ~width:32 ~init:reset_pc ()) in
  let trap_pending, trap_code =
    iu "xc" (fun () ->
        (C.reg c "trap_pending" ~width:1 (), C.reg c "trap_code" ~width:2 ()))
  in
  let icc, cwp, ex_count =
    iu "ex" (fun () ->
        ( C.reg c "icc" ~width:4 (),
          C.reg c "cwp" ~width:cwp_bits (),
          C.reg c "ex_count" ~width:5 () ))
  in

  (* ---- sequencer stage decodes ---- *)
  let in_fe, in_de, in_ra, in_ex, in_me, in_wb =
    iu "ctrl" (fun () ->
        ( Util.eq_const c "in_fe" state st_fe,
          Util.eq_const c "in_de" state st_de,
          Util.eq_const c "in_ra" state st_ra,
          Util.eq_const c "in_ex" state st_ex,
          Util.eq_const c "in_me" state st_me,
          Util.eq_const c "in_wb" state st_wb ))
  in

  (* ---- fetch ---- *)
  let pc_mis, pc_inc, ireq, pcb =
    iu "fe" (fun () ->
        let pc_mis, pc_inc, pcb =
          if not params.gate_level then
            ( C.comb1 c "pc_mis" 1 pc (fun p -> Util.bit1 (p land 3 <> 0)),
              C.comb1 c "pc_inc" 32 pc (fun p -> p + 4),
              [||] )
          else Gatelevel.fetch c ~pc
        in
        let no_mis = Util.not1 c "no_mis" pc_mis in
        let ireq = Util.and2 c "ireq" in_fe no_mis in
        (pc_mis, pc_inc, ireq, pcb))
  in
  let zero1 = C.const c "zero1" 1 0 in
  let zero32 = C.const c "zero32" 32 0 in
  let size_word = C.const c "size_w" 2 2 in

  let icache =
    Cache_block.build c ~scope:"cmem.icache" ~lines:params.icache_lines
      ~words_per_line ~with_store:false ~req:ireq ~we:zero1 ~addr:pc
      ~wdata:zero32 ~size:size_word
  in

  (* ---- decode ---- *)
  let ( ir, dec_valid, de_imm, de_rd, de_rs1, de_rs2,
        is_load, is_store, is_branch, is_call, is_sethi, is_jmpl, is_save, is_restore,
        wreg, cc_en, use_imm, load_signed, is_mul_s, is_div_s, unit_s, subop_s, size_s,
        cond_s ) =
    iu "de" (fun () ->
        let ir = C.reg c "ir" ~width:32 () in
        let ir_en = Util.and2 c "ir_en" in_fe icache.ready in
        C.connect c ir ~en:ir_en ~d:icache.rdata ();
        let ctl, imm =
          if not params.gate_level then
            ( C.comb1 c "ctl" Ctl.width ir Ctl.decode,
              C.comb1 c "imm" 32 ir Ctl.imm_of )
          else Gatelevel.decode c ~ir
        in
        let rd_raw = Util.slice c "rd_raw" ir ~hi:29 ~lo:25 in
        (* CALL has no rd field; its link register is architecturally %o7. *)
        let rd =
          C.comb2 c "rd" 5 ir rd_raw (fun w r ->
              if (w lsr 30) land 3 = 1 then 15 else r)
        in
        let rs1 = Util.slice c "rs1" ir ~hi:18 ~lo:14 in
        let rs2 = Util.slice c "rs2" ir ~hi:4 ~lo:0 in
        let de_ctl = C.reg c "de_ctl" ~width:Ctl.width () in
        let de_imm = C.reg c "de_imm" ~width:32 () in
        let de_rd = C.reg c "de_rd" ~width:5 () in
        let de_rs1 = C.reg c "de_rs1" ~width:5 () in
        let de_rs2 = C.reg c "de_rs2" ~width:5 () in
        C.connect c de_ctl ~en:in_de ~d:ctl ();
        C.connect c de_imm ~en:in_de ~d:imm ();
        C.connect c de_rd ~en:in_de ~d:rd ();
        C.connect c de_rs1 ~en:in_de ~d:rs1 ();
        C.connect c de_rs2 ~en:in_de ~d:rs2 ();
        let dec_valid = C.comb1 c "dec_valid" 1 ctl (fun v -> flag_of v Ctl.b_valid) in
        let fl name b = C.comb1 c name 1 de_ctl (fun v -> flag_of v b) in
        let fd name f = C.comb1 c name (snd f) de_ctl (fun v -> field_of v f) in
        ( ir, dec_valid, de_imm, de_rd, de_rs1, de_rs2,
          fl "is_load" Ctl.b_is_load, fl "is_store" Ctl.b_is_store,
          fl "is_branch" Ctl.b_is_branch, fl "is_call" Ctl.b_is_call,
          fl "is_sethi" Ctl.b_is_sethi, fl "is_jmpl" Ctl.b_is_jmpl,
          fl "is_save" Ctl.b_is_save, fl "is_restore" Ctl.b_is_restore,
          fl "wreg" Ctl.b_wreg, fl "cc_en" Ctl.b_cc_en, fl "use_imm" Ctl.b_use_imm,
          fl "load_signed" Ctl.b_load_signed, fl "is_mul" Ctl.b_is_mul,
          fl "is_div" Ctl.b_is_div, fd "unit_sel" Ctl.f_unit, fd "subop" Ctl.f_subop,
          fd "size" Ctl.f_size, fd "cond" Ctl.f_cond ))
  in

  (* ---- register file ---- *)
  let regfile, rda, rdb, rdc =
    iu "regfile" (fun () ->
        let regfile = C.memory c "regs" ~words:(8 + (16 * nwindows)) ~width:32 in
        let map name ridx =
          C.comb2 c name 8 cwp ridx (fun w r -> regfile_slot ~nwindows ~cwp:w r)
        in
        let addr_a = map "addr_a" de_rs1 in
        let addr_b = map "addr_b" de_rs2 in
        let addr_c = map "addr_c" de_rd in
        let port_a = C.read_port c "port_a" regfile addr_a in
        let port_b = C.read_port c "port_b" regfile addr_b in
        let port_c = C.read_port c "port_c" regfile addr_c in
        let z name ridx port =
          C.comb2 c name 32 ridx port (fun r v -> if r = 0 then 0 else v)
        in
        (regfile, z "rda" de_rs1 port_a, z "rdb" de_rs2 port_b, z "rdc" de_rd port_c))
  in

  (* ---- operand latch (RA) ---- *)
  (* Gate mode: the operand-select fabric lives in its own cross-unit
     scope so its sites attribute to the register-file unit. *)
  let gl_operand =
    if not params.gate_level then None
    else
      Some
        (C.scoped c "iu" (fun () ->
             C.scoped c "gates" (fun () ->
                 C.scoped c "operand" (fun () ->
                     Gatelevel.op2_mux c ~use_imm ~de_imm ~rdb))))
  in
  let ra_op1, ra_op2, ra_st =
    iu "ra" (fun () ->
        let op2_mux =
          match gl_operand with
          | None -> Util.mux2 c "op2_mux" 32 ~sel:use_imm de_imm rdb
          | Some (_, bits) -> Gatelevel.pack c "op2_mux" bits
        in
        let ra_op1 = C.reg c "ra_op1" ~width:32 () in
        let ra_op2 = C.reg c "ra_op2" ~width:32 () in
        let ra_st = C.reg c "ra_st" ~width:32 () in
        C.connect c ra_op1 ~en:in_ra ~d:rda ();
        C.connect c ra_op2 ~en:in_ra ~d:op2_mux ();
        C.connect c ra_st ~en:in_ra ~d:rdc ();
        (ra_op1, ra_op2, ra_st))
  in

  (* ---- execute ---- *)
  (* Gate mode: shared bit taps of the EX operands and control fields,
     in a cross-unit scope attributed to the ALU. *)
  let gl_ops =
    if not params.gate_level then None
    else
      Some
        (C.scoped c "iu" (fun () ->
             C.scoped c "gates" (fun () ->
                 C.scoped c "alu" (fun () ->
                     Gatelevel.operand_taps c ~ra_op1 ~ra_op2 ~subop_s ~unit_s
                       ~icc))))
  in
  let sum, sum_bits, flag_c, flag_v =
    iu "ex" (fun () ->
        C.scoped c "adder" (fun () ->
            match gl_ops with
            | Some ops -> Gatelevel.adder c ops
            | None ->
              let b_eff =
                C.comb2 c "b_eff" 32 subop_s ra_op2 (fun s b ->
                    if s = Ctl.sub_sub || s = Ctl.sub_subx then b lxor 0xFFFF_FFFF else b)
              in
              let cin =
                C.comb2 c "cin" 1 subop_s icc (fun s ic ->
                    let cflag = ic land 1 in
                    if s = Ctl.sub_sub then 1
                    else if s = Ctl.sub_addx then cflag
                    else if s = Ctl.sub_subx then 1 - cflag
                    else 0)
              in
              (* carry is elaborated first: site enumeration follows
                 node order *)
              let carry =
                C.comb3 c "carry" 1 ra_op1 b_eff cin (fun a b ci ->
                    Util.bit1 (a + b + ci > 0xFFFF_FFFF))
              in
              let sum = C.comb3 c "sum" 32 ra_op1 b_eff cin (fun a b ci -> a + b + ci) in
              let flag_c =
                C.comb2 c "flag_c" 1 subop_s carry (fun s co ->
                    if s = Ctl.sub_sub || s = Ctl.sub_subx then 1 - co else co)
              in
              let flag_v =
                C.comb3 c "flag_v" 1 ra_op1 b_eff sum (fun a b r ->
                    Util.bit1 (lnot (a lxor b) land (a lxor r) land 0x8000_0000 <> 0))
              in
              (sum, [||], flag_c, flag_v)))
  in
  let logic_res, logic_bits =
    iu "ex" (fun () ->
        C.scoped c "logic" (fun () ->
            match gl_ops with
            | Some ops -> Gatelevel.logic c ops
            | None ->
                ( C.comb3 c "result" 32 subop_s ra_op1 ra_op2 (fun s a b ->
                      if s = Ctl.sub_and then a land b
                      else if s = Ctl.sub_andn then a land lnot b
                      else if s = Ctl.sub_or then a lor b
                      else if s = Ctl.sub_orn then a lor lnot b
                      else if s = Ctl.sub_xor then a lxor b
                      else lnot (a lxor b)),
                  [||] )))
  in
  let shift_res, shift_bits =
    iu "ex" (fun () ->
        C.scoped c "shift" (fun () ->
            let shcnt = Util.slice c "shcnt" ra_op2 ~hi:4 ~lo:0 in
            match gl_ops with
            | Some ops -> Gatelevel.shift c ops ~shcnt
            | None ->
                ( C.comb3 c "result" 32 subop_s ra_op1 shcnt (fun s a n ->
                      if s = Ctl.sub_sll then a lsl n
                      else if s = Ctl.sub_srl then a lsr n
                      else Bitops.sar a n),
                  [||] )))
  in
  let mul_res, mul_hi =
    iu "ex" (fun () ->
        C.scoped c "mul" (fun () ->
              let pp name b_lo =
                C.comb2 c name 32 ra_op1 ra_op2 (fun a b ->
                    ((a * ((b lsr b_lo) land 0xFF)) land 0xFFFF_FFFF) lsl b_lo)
              in
              let pp0 = pp "pp0" 0 in
              let pp1 = pp "pp1" 8 in
              let pp2 = pp "pp2" 16 in
              let pp3 = pp "pp3" 24 in
              let sum01 = C.comb2 c "sum01" 32 pp0 pp1 (fun a b -> a + b) in
              let sum23 = C.comb2 c "sum23" 32 pp2 pp3 (fun a b -> a + b) in
              let product = C.comb2 c "product" 32 sum01 sum23 (fun a b -> a + b) in
              (* High word, kept in the Y state register as on real SPARC. *)
              let hi =
                C.comb3 c "product_hi" 32 subop_s ra_op1 ra_op2 (fun s a b ->
                    let signed = s = Ctl.sub_smul in
                    fst (Bitops.mul_full ~signed a b))
              in
              (product, hi)))
  in
  let div_res, div_zero =
    iu "ex" (fun () ->
        C.scoped c "div" (fun () ->
              let div_zero =
                C.comb2 c "div_zero" 1 is_div_s ra_op2 (fun d b ->
                    Util.bit1 (d <> 0 && b = 0))
              in
              let q =
                C.comb3 c "quotient" 32 subop_s ra_op1 ra_op2 (fun s a b ->
                    if b = 0 then 0
                    else if s = Ctl.sub_sdiv then begin
                      let hi = if Bitops.is_negative a then 0xFFFF_FFFF else 0 in
                      match Bitops.div32 ~signed:true ~hi ~lo:a b with
                      | Some (v, _) -> v
                      | None -> 0
                    end
                    else
                      match Bitops.div32 ~signed:false ~hi:0 ~lo:a b with
                      | Some (v, _) -> v
                      | None -> 0)
              in
              (q, div_zero)))
  in
  (* Gate mode: result-select and condition-code gate networks, in the
     same cross-unit ALU scope as the operand taps. *)
  let gl_result =
    match gl_ops with
    | None -> None
    | Some ops ->
        Some
          (C.scoped c "iu" (fun () ->
               C.scoped c "gates" (fun () ->
                   C.scoped c "alu" (fun () ->
                       Gatelevel.result_mux c ops ~sum_bits ~logic_bits
                         ~shift_bits ~mul_res ~div_res))))
  in
  (* The packed result word is created under its behavioural name
     first, so the condition-code gates can consume taps of it — a
     fault on [result_mux] must reach the icc as it does
     behaviourally. *)
  let gl_ex_result =
    match gl_result with
    | None -> None
    | Some bits -> Some (iu "ex" (fun () -> Gatelevel.pack c "result_mux" bits))
  in
  let gl_icc =
    match (gl_ops, gl_ex_result) with
    | Some ops, Some res ->
        Some
          (C.scoped c "iu" (fun () ->
               C.scoped c "gates" (fun () ->
                   C.scoped c "alu" (fun () ->
                       Gatelevel.icc_next c ops ~ex_result:res ~flag_c ~flag_v))))
    | _ -> None
  in
  let ex_result_r, ex_next_pc_r, ex_adv, jmpl_mis =
    iu "ex" (fun () ->
        let ex_result =
          match gl_ex_result with
          | Some res -> res
          | None ->
              C.combn c "result_mux" 32
                [| unit_s; sum; logic_res; shift_res; mul_res; div_res |]
                (fun vs ->
                  let u = vs.(0) in
                  if u = Ctl.unit_logic then vs.(2)
                  else if u = Ctl.unit_shift then vs.(3)
                  else if u = Ctl.unit_mul then vs.(4)
                  else if u = Ctl.unit_div then vs.(5)
                  else vs.(1))
        in
        let icc_next =
          match gl_icc with
          | Some bits -> Gatelevel.pack c "icc_next" bits
          | None ->
              C.combn c "icc_next" 4
                [| unit_s; ex_result; flag_c; flag_v |]
                (fun vs ->
                  let r = vs.(1) in
                  let n = (r lsr 31) land 1 in
                  let z = Util.bit1 (r = 0) in
                  let v, cf =
                    if vs.(0) = Ctl.unit_adder then (vs.(3), vs.(2)) else (0, 0)
                  in
                  (n lsl 3) lor (z lsl 2) lor (v lsl 1) lor cf)
        in
        let next_pc, gl_jm =
          C.scoped c "branch" (fun () ->
              match gl_ops with
              | Some ops ->
                  let immb, _ = Option.get gl_operand in
                  let np, jm =
                    Gatelevel.branch c ops ~cond_s ~is_branch ~is_call ~is_jmpl
                      ~pcb ~immb ~sum_bits ~pc_inc
                  in
                  (np, Some jm)
              | None ->
                  let cond_ok = C.comb2 c "cond_ok" 1 cond_s icc cond_eval in
                  let taken = Util.and2 c "taken" is_branch cond_ok in
                  let br_target =
                    C.comb2 c "br_target" 32 pc de_imm (fun p d -> p + d)
                  in
                  ( C.combn c "next_pc" 32
                      [| is_jmpl; is_call; taken; sum; br_target; pc_inc |]
                      (fun vs ->
                        if vs.(0) <> 0 then vs.(3)
                        else if vs.(1) <> 0 || vs.(2) <> 0 then vs.(4)
                        else vs.(5)),
                    None ))
        in
        let jmpl_mis =
          match gl_jm with
          | Some g -> C.gate_buf c "jmpl_mis" g
          | None ->
              C.comb2 c "jmpl_mis" 1 is_jmpl sum (fun j s ->
                  j land Util.bit1 (s land 3 <> 0))
        in
        let latency =
          C.comb1 c "latency" 5 unit_s (fun u ->
              if u = Ctl.unit_mul then 3 else if u = Ctl.unit_div then 17 else 0)
        in
        let ex_count_next =
          C.comb4 c "ex_count_next" 5 in_ra in_ex ex_count latency (fun ra ex cnt lat ->
              if ra <> 0 then lat else if ex <> 0 && cnt > 0 then cnt - 1 else cnt)
        in
        C.connect c ex_count ~d:ex_count_next ();
        let ex_done = Util.eq_const c "ex_done" ex_count 0 in
        let ex_adv = Util.and2 c "ex_adv" in_ex ex_done in
        let ex_result_r = C.reg c "ex_result_r" ~width:32 () in
        let ex_next_pc_r = C.reg c "ex_next_pc_r" ~width:32 () in
        C.connect c ex_result_r ~en:ex_adv ~d:ex_result ();
        C.connect c ex_next_pc_r ~en:ex_adv ~d:next_pc ();
        let icc_en = Util.and2 c "icc_en" ex_adv cc_en in
        C.connect c icc ~en:icc_en ~d:icc_next ();
        let cwp_next =
          C.comb3 c "cwp_next" cwp_bits cwp is_save is_restore (fun w sv rs ->
              if sv <> 0 then (w + nwindows - 1) mod nwindows
              else if rs <> 0 then (w + 1) mod nwindows
              else w)
        in
        let win_op = Util.or2 c "win_op" is_save is_restore in
        let cwp_en = Util.and2 c "cwp_en" ex_adv win_op in
        C.connect c cwp ~en:cwp_en ~d:cwp_next ();
        (ex_result_r, ex_next_pc_r, ex_adv, jmpl_mis))
  in

  (* ---- memory stage (LSU side) ---- *)
  let mem_mis, st_value, dreq =
    iu "me" (fun () ->
        let is_mem = Util.or2 c "is_mem" is_load is_store in
        let mem_mis =
          C.comb3 c "mem_mis" 1 is_mem size_s ex_result_r (fun m sz ea ->
              if m = 0 then 0
              else if sz = 2 then Util.bit1 (ea land 3 <> 0)
              else if sz = 1 then Util.bit1 (ea land 1 <> 0)
              else 0)
        in
        let st_value =
          C.comb2 c "st_value" 32 size_s ra_st (fun sz v ->
              if sz = 0 then v land 0xFF else if sz = 1 then v land 0xFFFF else v)
        in
        let dreq =
          C.combn c "dreq" 1
            [| in_me; is_load; is_store; mem_mis; trap_pending |]
            (fun vs ->
              if vs.(0) = 0 || vs.(3) <> 0 then 0
              else if vs.(1) <> 0 then 1
              else if vs.(2) <> 0 && vs.(4) = 0 then 1
              else 0)
        in
        (mem_mis, st_value, dreq))
  in

  let dcache =
    Cache_block.build c ~scope:"cmem.dcache" ~lines:params.dcache_lines
      ~words_per_line ~with_store:true ~req:dreq ~we:is_store
      ~addr:ex_result_r ~wdata:st_value ~size:size_s
  in

  let me_load, me_done =
    iu "me" (fun () ->
        let ld_value =
          C.comb4 c "ld_value" 32 dcache.rdata ex_result_r size_s load_signed
            (fun w ea sz sg ->
              if sz = 2 then w
              else if sz = 1 then begin
                let v = (w lsr (8 * (2 - (ea land 2)))) land 0xFFFF in
                if sg <> 0 then Bitops.sext ~bits:16 v else v
              end
              else begin
                let v = (w lsr (8 * (3 - (ea land 3)))) land 0xFF in
                if sg <> 0 then Bitops.sext ~bits:8 v else v
              end)
        in
        let me_load = C.reg c "me_load" ~width:32 () in
        let ld_en =
          C.comb3 c "ld_en" 1 in_me dcache.ready is_load (fun a b d -> a land b land d)
        in
        C.connect c me_load ~en:ld_en ~d:ld_value ();
        let me_done =
          C.comb2 c "me_done" 1 dreq dcache.ready (fun r rdy -> if r = 0 then 1 else rdy)
        in
        (me_load, me_done))
  in

  (* ---- exception stage ---- *)
  let first_trap, trap_code_new =
    iu "xc" (fun () ->
      let trap_fe = Util.and2 c "trap_fe" in_fe pc_mis in
      let no_valid = Util.not1 c "no_valid" dec_valid in
      let trap_de = Util.and2 c "trap_de" in_de no_valid in
      let trap_ex =
        C.comb3 c "trap_ex" 1 ex_adv jmpl_mis div_zero (fun adv jm dz ->
            adv land (jm lor dz))
      in
      let trap_me = Util.and2 c "trap_me" in_me mem_mis in
      let trap_new =
        C.comb4 c "trap_new" 1 trap_fe trap_de trap_ex trap_me (fun a b cc d ->
            a lor b lor cc lor d)
      in
      let trap_code_new =
        C.combn c "trap_code_new" 2
          [| trap_de; trap_ex; div_zero |]
          (fun vs ->
            if vs.(0) <> 0 then trap_illegal
            else if vs.(1) <> 0 && vs.(2) <> 0 then trap_div0
            else trap_misaligned)
      in
      let pending_next =
        C.comb2 c "pending_next" 1 trap_pending trap_new (fun p n -> p lor n)
      in
      C.connect c trap_pending ~d:pending_next ();
      let first_trap =
        C.comb2 c "first_trap" 1 trap_new trap_pending (fun n p -> n land (p lxor 1))
      in
      C.connect c trap_code ~en:first_trap ~d:trap_code_new ();
      (first_trap, trap_code_new))
  in

  (* ---- supervisor state registers (State REGS of the paper's IU
     figure): mostly quiescent during benchmarks, like real silicon ---- *)
  iu "state" (fun () ->
      let y = C.reg c "y" ~width:32 () in
      let y_en = Util.and2 c "y_en" ex_adv is_mul_s in
      C.connect c y ~en:y_en ~d:mul_hi ();
      let wim = C.reg c "wim" ~width:8 ~init:1 () in
      C.connect c wim ~d:wim ();
      let tbr = C.reg c "tbr" ~width:32 () in
      let tbr_next =
        C.comb1 c "tbr_next" 32 trap_code_new (fun tc -> 0x40 lor (tc lsl 4))
      in
      C.connect c tbr ~en:first_trap ~d:tbr_next ();
      let psr_misc = C.reg c "psr_misc" ~width:12 ~init:0x0E0 () in
      C.connect c psr_misc ~d:psr_misc ());

  (* ---- writeback ---- *)
  let instret =
    iu "wb" (fun () ->
        let wb_data =
          match gl_operand with
          | Some (immb, _) ->
              Gatelevel.wb_data c ~is_load ~is_call ~is_jmpl ~is_sethi ~me_load
                ~pcb ~immb ~ex_result_r
          | None ->
              C.combn c "wb_data" 32
                [| is_load; is_call; is_jmpl; is_sethi; me_load; pc; de_imm;
                   ex_result_r |]
                (fun vs ->
                  if vs.(0) <> 0 then vs.(4)
                  else if vs.(1) <> 0 || vs.(2) <> 0 then vs.(5)
                  else if vs.(3) <> 0 then vs.(6)
                  else vs.(7))
        in
        let wb_we =
          C.comb3 c "wb_we" 1 in_wb wreg de_rd (fun w en rd ->
              w land en land Util.bit1 (rd <> 0))
        in
        let wb_addr =
          C.comb2 c "wb_addr" 8 cwp de_rd (fun w r -> regfile_slot ~nwindows ~cwp:w r)
        in
        C.write_port c regfile ~we:wb_we ~addr:wb_addr ~data:wb_data;
        C.connect c pc ~en:in_wb ~d:ex_next_pc_r ();
        let instret = C.reg c "instret" ~width:32 () in
        let instret_next = C.comb1 c "instret_next" 32 instret (fun v -> v + 1) in
        C.connect c instret ~en:in_wb ~d:instret_next ();
        instret)
  in

  (* ---- sequencer next-state ---- *)
  let halted =
    iu "ctrl" (fun () ->
        let state_next =
          C.combn c "state_next" 3
            [| state; pc_mis; icache.ready; dec_valid; ex_count; me_done; trap_pending |]
            (fun vs ->
              let st = vs.(0) in
              if st = st_fe then begin
                if vs.(1) <> 0 then st_xc else if vs.(2) <> 0 then st_de else st_fe
              end
              else if st = st_de then if vs.(3) = 0 then st_xc else st_ra
              else if st = st_ra then st_ex
              else if st = st_ex then if vs.(4) = 0 then st_me else st_ex
              else if st = st_me then if vs.(5) <> 0 then st_xc else st_me
              else if st = st_xc then if vs.(6) <> 0 then st_halt else st_wb
              else if st = st_wb then st_fe
              else st_halt)
        in
        C.connect c state ~d:state_next ();
        Util.eq_const c "halted" state st_halt)
  in

  C.elaborate c;
  (* Recurrence cone for cycle-proof hang detection: the failure
     boundary below minus [instret] — the retired-instruction counter
     keeps counting in a wedged core (the sequencer still walks its
     states), so including it would make the state aperiodic and mask
     every real hang loop.  It feeds nothing but itself, so excluding
     it is sound: a cone-state recurrence still fixes the observable
     future. *)
  C.set_observed_cone c
    (List.concat_map
       (fun (p : Cache_block.ports) ->
         [ p.bus_req; p.bus_we; p.bus_addr; p.bus_wdata; p.bus_size ])
       [ icache; dcache ]
    @ [ halted; trap_code ]);
  { circuit = c; state; pc; ir; halted; trap_code; instret; icc; cwp;
    icache; dcache; regfile }

(* The off-core failure boundary: exactly the signals the simulation
   loop reads each cycle — the bus request/command/payload of both
   cache ports (System.drive_port), the sequencer's halt flag and trap
   code (run loop), and the retired-instruction counter (accounting).
   The bus_ready/bus_rdata responses the environment drives back are a
   deterministic function of this history and the memory image, so a
   fault with no structural path to any of these signals cannot
   perturb the observable run. *)
let observation_points t =
  let cache (p : Cache_block.ports) =
    [ p.bus_req; p.bus_we; p.bus_addr; p.bus_wdata; p.bus_size ]
  in
  cache t.icache @ cache t.dcache @ [ t.halted; t.trap_code; t.instret ]

let environment_inputs t =
  [ t.icache.bus_ready; t.icache.bus_rdata; t.dcache.bus_ready; t.dcache.bus_rdata ]
