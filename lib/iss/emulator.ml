module Isa = Sparc.Isa
module Asm = Sparc.Asm
module Memory = Sparc.Memory
module Layout = Sparc.Layout
module Units = Sparc.Units
module Encode = Sparc.Encode
module Bus_event = Sparc.Bus_event

type trap =
  | Misaligned_access of int
  | Division_by_zero
  | Illegal_instruction of int

type stop_reason = Exited of int | Instruction_limit | Trapped of trap

type latencies = {
  alu : int;
  shift : int;
  mul : int;
  div : int;
  load : int;
  store : int;
  branch_taken : int;
  branch_untaken : int;
  call : int;
  jmpl : int;
  save_restore : int;
  sethi : int;
}

let default_latencies =
  { alu = 1; shift = 1; mul = 4; div = 18; load = 2; store = 2; branch_taken = 3;
    branch_untaken = 1; call = 2; jmpl = 3; save_restore = 1; sethi = 1 }

type config = {
  nwindows : int;
  latencies : latencies;
  icache : Cache.config option;
  dcache : Cache.config option;
  max_instructions : int;
  record_reads : bool;
}

let default_config =
  { nwindows = 8; latencies = default_latencies; icache = Some Cache.default_icache;
    dcache = Some Cache.default_dcache; max_instructions = 2_000_000; record_reads = true }

type outcome = Running | Stopped of stop_reason

type location = Slot of int | Word of int

type access = Read | Write

type t = {
  config : config;
  mem : Memory.t;
  globals : int array;  (* 8 entries *)
  windowed : int array;  (* 16 * nwindows: outs then locals per window *)
  mutable cwp : int;
  mutable iccs : Isa.icc;
  mutable pc_ : int;
  mutable cycles_ : int;
  mutable ninstr : int;
  mutable stopped : stop_reason option;
  counts : int array;  (* indexed by Isa.opcode_index *)
  mutable events_rev : Bus_event.t list;
  icache : Cache.t option;
  dcache : Cache.t option;
  decode_cache : (int, Isa.instr) Hashtbl.t;
  mutable fetch_xor : int;  (* one-shot XOR mask on the next fetched word *)
  mutable on_event : (Bus_event.t -> unit) option;
  mutable on_access : (int -> location -> access -> unit) option;
}

let create ?(config = default_config) prog =
  let mem = Memory.create () in
  Asm.load prog mem;
  { config;
    mem;
    globals = Array.make 8 0;
    windowed = Array.make (16 * config.nwindows) 0;
    cwp = 0;
    iccs = Isa.icc_zero;
    pc_ = prog.Asm.entry;
    cycles_ = 0;
    ninstr = 0;
    stopped = None;
    counts = Array.make Isa.num_opcodes 0;
    events_rev = [];
    icache = Option.map Cache.create config.icache;
    dcache = Option.map Cache.create config.dcache;
    decode_cache = Hashtbl.create 1024;
    fetch_xor = 0;
    on_event = None;
    on_access = None }

let copy ?into t =
  let mem =
    match into with
    | None -> Memory.copy t.mem
    | Some d ->
        Memory.blit ~src:t.mem d.mem;
        d.mem
  in
  { t with
    mem;
    globals = Array.copy t.globals;
    windowed = Array.copy t.windowed;
    counts = Array.copy t.counts;
    icache = Option.map Cache.copy t.icache;
    dcache = Option.map Cache.copy t.dcache;
    decode_cache = Hashtbl.copy t.decode_cache;
    on_event = None;
    on_access = None }

(* The access hook's instant is the instruction count before the
   accessing instruction runs: [step] counts an instruction after its
   fetch and before it executes. *)
let[@inline] note_word t ~instant addr kind =
  match t.on_access with None -> () | Some f -> f instant (Word (addr land lnot 3)) kind

(* Window mapping: register 8+i (out) of window w lives at slot w*16+i;
   register 16+i (local) at w*16+8+i; register 24+i (in) is the out of
   the adjacent window, slot ((w+1) mod nw)*16+i.  SAVE decrements CWP. *)
let slot t w r =
  if r < 16 then (16 * w) + (r - 8)
  else if r < 24 then (16 * w) + 8 + (r - 16)
  else (16 * ((w + 1) mod t.config.nwindows)) + (r - 24)

(* Hooked register accesses, by flat slot as in [flip_regfile_bit]
   (globals first, then the windowed file).  They are tail calls, so an
   unhooked access makes no call and needs no stack frame. *)
let read_noted t f s =
  f (t.ninstr - 1) (Slot s) Read;
  let regs, i = if s < 8 then (t.globals, s) else (t.windowed, s - 8) in
  regs.(i)

let write_noted t f s v =
  f (t.ninstr - 1) (Slot s) Write;
  let v = Bitops.of_int v in
  if s < 8 then t.globals.(s) <- v else t.windowed.(s - 8) <- v

let reg_in_window t w r =
  if r = 0 then 0
  else if r < 8 then
    match t.on_access with None -> t.globals.(r) | Some f -> read_noted t f r
  else
    let s = slot t w r in
    match t.on_access with None -> t.windowed.(s) | Some f -> read_noted t f (8 + s)

let set_reg_in_window t w r v =
  if r = 0 then ()
  else if r < 8 then
    match t.on_access with
    | None -> t.globals.(r) <- Bitops.of_int v
    | Some f -> write_noted t f r v
  else
    let s = slot t w r in
    match t.on_access with
    | None -> t.windowed.(s) <- Bitops.of_int v
    | Some f -> write_noted t f (8 + s) v

let reg t r = reg_in_window t t.cwp r

let set_reg t r v = set_reg_in_window t t.cwp r v

let operand_value t = function
  | Isa.Reg r -> reg t r
  | Isa.Imm i -> Bitops.of_int i

let pc t = t.pc_
let cycles t = t.cycles_
let instructions t = t.ninstr
let icc t = t.iccs
let cwp t = t.cwp
let memory t = t.mem
let events t = List.rev t.events_rev

let record t ev =
  t.events_rev <- ev :: t.events_rev;
  match t.on_event with Some f -> f ev | None -> ()

let set_event_hook t hook = t.on_event <- hook

let set_access_hook t hook = t.on_access <- hook

(* Architectural register file as one flat slot space: globals first
   (slot 0 is the hardwired g0 cell — corrupting it is architecturally
   masked, like flipping a tied-zero net), then the windowed file. *)
let flip_regfile_bit t ~slot ~bit =
  let mask = 1 lsl bit in
  if slot < 8 then t.globals.(slot) <- Bitops.of_int (t.globals.(slot) lxor mask)
  else
    let i = slot - 8 in
    t.windowed.(i) <- Bitops.of_int (t.windowed.(i) lxor mask)

let flip_memory_bit t ~addr ~bit =
  let addr = addr land lnot 3 in
  let v = Memory.load_word t.mem addr in
  Memory.store_word t.mem addr (Bitops.of_int (v lxor (1 lsl bit)))

let corrupt_next_fetch t ~bit = t.fetch_xor <- t.fetch_xor lor (1 lsl bit)

let opcode_histogram t =
  List.filter_map
    (fun op ->
      let c = t.counts.(Isa.opcode_index op) in
      if c > 0 then Some (op, c) else None)
    Isa.all_opcodes

let diversity t = List.length (opcode_histogram t)

let unit_accesses t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (op, c) ->
      List.iter
        (fun u ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt acc u) in
          Hashtbl.replace acc u (prev + c))
        (Units.used_by op))
    (opcode_histogram t);
  List.filter_map
    (fun u -> Option.map (fun c -> (u, c)) (Hashtbl.find_opt acc u))
    Units.all

let set_icc_logic t result =
  t.iccs <-
    { n = Bitops.is_negative result; z = result = 0; v = false; c = false }

let set_icc_arith t result ~c ~v =
  t.iccs <- { n = Bitops.is_negative result; z = result = 0; v; c }

let charge t n = t.cycles_ <- t.cycles_ + n

let charge_cache cache_opt t addr ~write =
  match cache_opt with
  | Some cache -> charge t (Cache.access cache addr ~write)
  | None -> ()

exception Trap of trap

let exec_alu t op rs1 op2 rd =
  let lat = t.config.latencies in
  let a = reg t rs1 in
  let b = operand_value t op2 in
  match op with
  | Isa.Add ->
      set_reg t rd (Bitops.add a b);
      charge t lat.alu
  | Isa.Addcc ->
      let r, c, v = Bitops.add_full a b 0 in
      set_reg t rd r;
      set_icc_arith t r ~c ~v;
      charge t lat.alu
  | Isa.Addx ->
      let cin = if t.iccs.c then 1 else 0 in
      let r, _, _ = Bitops.add_full a b cin in
      set_reg t rd r;
      charge t lat.alu
  | Isa.Addxcc ->
      let cin = if t.iccs.c then 1 else 0 in
      let r, c, v = Bitops.add_full a b cin in
      set_reg t rd r;
      set_icc_arith t r ~c ~v;
      charge t lat.alu
  | Isa.Sub ->
      set_reg t rd (Bitops.sub a b);
      charge t lat.alu
  | Isa.Subcc ->
      let r, c, v = Bitops.sub_full a b 0 in
      set_reg t rd r;
      set_icc_arith t r ~c ~v;
      charge t lat.alu
  | Isa.Subx ->
      let bin = if t.iccs.c then 1 else 0 in
      let r, _, _ = Bitops.sub_full a b bin in
      set_reg t rd r;
      charge t lat.alu
  | Isa.Subxcc ->
      let bin = if t.iccs.c then 1 else 0 in
      let r, c, v = Bitops.sub_full a b bin in
      set_reg t rd r;
      set_icc_arith t r ~c ~v;
      charge t lat.alu
  | Isa.And | Isa.Andcc ->
      let r = a land b in
      set_reg t rd r;
      if Isa.writes_icc op then set_icc_logic t r;
      charge t lat.alu
  | Isa.Andn | Isa.Andncc ->
      let r = a land Bitops.of_int (lnot b) in
      set_reg t rd r;
      if Isa.writes_icc op then set_icc_logic t r;
      charge t lat.alu
  | Isa.Or | Isa.Orcc ->
      let r = a lor b in
      set_reg t rd r;
      if Isa.writes_icc op then set_icc_logic t r;
      charge t lat.alu
  | Isa.Orn | Isa.Orncc ->
      let r = a lor Bitops.of_int (lnot b) in
      set_reg t rd r;
      if Isa.writes_icc op then set_icc_logic t r;
      charge t lat.alu
  | Isa.Xor | Isa.Xorcc ->
      let r = a lxor b in
      set_reg t rd r;
      if Isa.writes_icc op then set_icc_logic t r;
      charge t lat.alu
  | Isa.Xnor | Isa.Xnorcc ->
      let r = Bitops.of_int (lnot (a lxor b)) in
      set_reg t rd r;
      if Isa.writes_icc op then set_icc_logic t r;
      charge t lat.alu
  | Isa.Sll ->
      set_reg t rd (Bitops.shl a b);
      charge t lat.shift
  | Isa.Srl ->
      set_reg t rd (Bitops.shr a b);
      charge t lat.shift
  | Isa.Sra ->
      set_reg t rd (Bitops.sar a b);
      charge t lat.shift
  | Isa.Umul | Isa.Umulcc ->
      let _, lo = Bitops.mul_full ~signed:false a b in
      set_reg t rd lo;
      if Isa.writes_icc op then set_icc_logic t lo;
      charge t lat.mul
  | Isa.Smul | Isa.Smulcc ->
      let _, lo = Bitops.mul_full ~signed:true a b in
      set_reg t rd lo;
      if Isa.writes_icc op then set_icc_logic t lo;
      charge t lat.mul
  | Isa.Udiv -> (
      (* 32/32 division: the Y register is not modelled (DESIGN.md). *)
      match Bitops.div32 ~signed:false ~hi:0 ~lo:a b with
      | None -> raise (Trap Division_by_zero)
      | Some (q, _) ->
          set_reg t rd q;
          charge t lat.div)
  | Isa.Sdiv -> (
      let hi = if Bitops.is_negative a then 0xFFFF_FFFF else 0 in
      match Bitops.div32 ~signed:true ~hi ~lo:a b with
      | None -> raise (Trap Division_by_zero)
      | Some (q, _) ->
          set_reg t rd q;
          charge t lat.div)
  | Isa.Save ->
      let sum = Bitops.add a b in
      t.cwp <- (t.cwp + t.config.nwindows - 1) mod t.config.nwindows;
      set_reg t rd sum;
      charge t lat.save_restore
  | Isa.Restore ->
      let sum = Bitops.add a b in
      t.cwp <- (t.cwp + 1) mod t.config.nwindows;
      set_reg t rd sum;
      charge t lat.save_restore
  | Isa.Jmpl ->
      let target = Bitops.add a b in
      if target land 3 <> 0 then raise (Trap (Misaligned_access target));
      set_reg t rd t.pc_;
      t.pc_ <- target;
      charge t lat.jmpl
  | Isa.Ld | Isa.Ldub | Isa.Ldsb | Isa.Lduh | Isa.Ldsh | Isa.St | Isa.Stb | Isa.Sth
  | Isa.Sethi | Isa.Call
  | Isa.Ba | Isa.Bn | Isa.Bne | Isa.Be | Isa.Bg | Isa.Ble | Isa.Bge | Isa.Bl
  | Isa.Bgu | Isa.Bleu | Isa.Bcc | Isa.Bcs | Isa.Bpos | Isa.Bneg | Isa.Bvc | Isa.Bvs ->
      assert false

(* A partial store reads the word it merges into, so the hook reports
   it as a read; only a full-word store overwrites its word. *)
let exec_mem t op rs1 op2 rd =
  let lat = t.config.latencies in
  let ea = Bitops.add (reg t rs1) (operand_value t op2) in
  let mis addr = raise (Trap (Misaligned_access addr)) in
  let instant = t.ninstr - 1 in
  charge_cache t.dcache t ea ~write:(Isa.is_store op);
  match op with
  | Isa.Ld ->
      if ea land 3 <> 0 then mis ea;
      if t.config.record_reads then record t (Bus_event.Read { addr = ea; size = Word });
      note_word t ~instant ea Read;
      set_reg t rd (Memory.load_word t.mem ea);
      charge t lat.load
  | Isa.Ldub ->
      if t.config.record_reads then record t (Bus_event.Read { addr = ea; size = Byte });
      note_word t ~instant ea Read;
      set_reg t rd (Memory.load_byte t.mem ea);
      charge t lat.load
  | Isa.Ldsb ->
      if t.config.record_reads then record t (Bus_event.Read { addr = ea; size = Byte });
      note_word t ~instant ea Read;
      set_reg t rd (Bitops.sext ~bits:8 (Memory.load_byte t.mem ea));
      charge t lat.load
  | Isa.Lduh ->
      if ea land 1 <> 0 then mis ea;
      if t.config.record_reads then record t (Bus_event.Read { addr = ea; size = Half });
      note_word t ~instant ea Read;
      set_reg t rd (Memory.load_half t.mem ea);
      charge t lat.load
  | Isa.Ldsh ->
      if ea land 1 <> 0 then mis ea;
      if t.config.record_reads then record t (Bus_event.Read { addr = ea; size = Half });
      note_word t ~instant ea Read;
      set_reg t rd (Bitops.sext ~bits:16 (Memory.load_half t.mem ea));
      charge t lat.load
  | Isa.St ->
      if ea land 3 <> 0 then mis ea;
      let v = reg t rd in
      record t (Bus_event.Write { addr = ea; size = Word; value = v });
      if Layout.is_exit_store ea then t.stopped <- Some (Exited v)
      else begin
        note_word t ~instant ea Write;
        Memory.store_word t.mem ea v
      end;
      charge t lat.store
  | Isa.Stb ->
      let v = reg t rd land 0xFF in
      record t (Bus_event.Write { addr = ea; size = Byte; value = v });
      note_word t ~instant ea Read;
      Memory.store_byte t.mem ea v;
      charge t lat.store
  | Isa.Sth ->
      if ea land 1 <> 0 then mis ea;
      let v = reg t rd land 0xFFFF in
      record t (Bus_event.Write { addr = ea; size = Half; value = v });
      note_word t ~instant ea Read;
      Memory.store_half t.mem ea v;
      charge t lat.store
  | Isa.Add | Isa.Addcc | Isa.Addx | Isa.Addxcc | Isa.Sub | Isa.Subcc | Isa.Subx
  | Isa.Subxcc | Isa.And | Isa.Andcc | Isa.Andn | Isa.Andncc | Isa.Or | Isa.Orcc
  | Isa.Orn | Isa.Orncc | Isa.Xor | Isa.Xorcc | Isa.Xnor | Isa.Xnorcc
  | Isa.Sll | Isa.Srl | Isa.Sra | Isa.Umul | Isa.Umulcc | Isa.Smul | Isa.Smulcc
  | Isa.Udiv | Isa.Sdiv | Isa.Save | Isa.Restore | Isa.Jmpl | Isa.Sethi | Isa.Call
  | Isa.Ba | Isa.Bn | Isa.Bne | Isa.Be | Isa.Bg | Isa.Ble | Isa.Bge | Isa.Bl
  | Isa.Bgu | Isa.Bleu | Isa.Bcc | Isa.Bcs | Isa.Bpos | Isa.Bneg | Isa.Bvc | Isa.Bvs ->
      assert false

let fetch_decode t =
  let addr = t.pc_ in
  if addr land 3 <> 0 then raise (Trap (Misaligned_access addr));
  charge_cache t.icache t addr ~write:false;
  if t.fetch_xor <> 0 then begin
    (* Corrupted fetch: bypass the decode cache entirely (read and
       insert), decode the XORed word, and clear the one-shot mask. *)
    note_word t ~instant:t.ninstr addr Read;
    let w = Memory.load_word t.mem addr lxor t.fetch_xor in
    t.fetch_xor <- 0;
    match Encode.decode w with
    | Some i -> i
    | None -> raise (Trap (Illegal_instruction w))
  end
  else
    match Hashtbl.find_opt t.decode_cache addr with
    | Some i -> i
    | None -> (
        note_word t ~instant:t.ninstr addr Read;
        let w = Memory.load_word t.mem addr in
        match Encode.decode w with
        | Some i ->
            Hashtbl.add t.decode_cache addr i;
            i
        | None -> raise (Trap (Illegal_instruction w)))

let step t =
  match t.stopped with
  | Some r -> Stopped r
  | None -> (
      if t.ninstr >= t.config.max_instructions then begin
        t.stopped <- Some Instruction_limit;
        Stopped Instruction_limit
      end
      else
        try
          let instr = fetch_decode t in
          let lat = t.config.latencies in
          t.counts.(Isa.opcode_index (Isa.opcode_of_instr instr)) <-
            t.counts.(Isa.opcode_index (Isa.opcode_of_instr instr)) + 1;
          t.ninstr <- t.ninstr + 1;
          let next_pc = Bitops.add t.pc_ 4 in
          (match instr with
          | Isa.Alu { op = Isa.Jmpl; rs1; op2; rd } ->
              (* Jmpl sets the PC itself. *)
              exec_alu t Isa.Jmpl rs1 op2 rd
          | Isa.Alu { op; rs1; op2; rd } ->
              exec_alu t op rs1 op2 rd;
              t.pc_ <- next_pc
          | Isa.Mem { op; rs1; op2; rd } ->
              exec_mem t op rs1 op2 rd;
              t.pc_ <- next_pc
          | Isa.Sethi_i { imm22; rd } ->
              set_reg t rd (Bitops.of_int (imm22 lsl 10));
              charge t lat.sethi;
              t.pc_ <- next_pc
          | Isa.Branch_i { op; disp22 } ->
              if Isa.cond_holds op t.iccs then begin
                t.pc_ <- Bitops.add t.pc_ (4 * disp22);
                charge t lat.branch_taken
              end
              else begin
                t.pc_ <- next_pc;
                charge t lat.branch_untaken
              end
          | Isa.Call_i { disp30 } ->
              set_reg t Isa.o7 t.pc_;
              t.pc_ <- Bitops.add t.pc_ (4 * disp30);
              charge t lat.call);
          match t.stopped with Some r -> Stopped r | None -> Running
        with
        | Trap tr ->
            t.stopped <- Some (Trapped tr);
            Stopped (Trapped tr)
        | Memory.Misaligned addr ->
            t.stopped <- Some (Trapped (Misaligned_access addr));
            Stopped (Trapped (Misaligned_access addr)))

let run t =
  let rec go () = match step t with Running -> go () | Stopped r -> r in
  go ()

type result = {
  stop : stop_reason;
  cycles : int;
  instructions : int;
  histogram : (Isa.opcode * int) list;
  diversity : int;
  unit_accesses : (Units.t * int) list;
  writes : Bus_event.t list;
  events : Bus_event.t list;
  memory_instructions : int;
}

let execute ?config prog =
  let t = create ?config prog in
  let stop = run t in
  let histogram = opcode_histogram t in
  let memory_instructions =
    List.fold_left
      (fun acc (op, c) -> if Isa.is_mem op then acc + c else acc)
      0 histogram
  in
  let evs = events t in
  { stop;
    cycles = t.cycles_;
    instructions = t.ninstr;
    histogram;
    diversity = List.length histogram;
    unit_accesses = unit_accesses t;
    writes = List.filter Bus_event.is_write evs;
    events = evs;
    memory_instructions }

let pp_stop fmt = function
  | Exited code -> Format.fprintf fmt "exited(%d)" code
  | Instruction_limit -> Format.fprintf fmt "instruction-limit"
  | Trapped (Misaligned_access a) -> Format.fprintf fmt "trap:misaligned(0x%08x)" a
  | Trapped Division_by_zero -> Format.fprintf fmt "trap:zero-divide"
  | Trapped (Illegal_instruction w) -> Format.fprintf fmt "trap:illegal(0x%08x)" w
