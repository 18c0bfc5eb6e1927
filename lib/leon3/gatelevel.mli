(** Gate-level lowering of the Leon3 IU datapath.

    Rebuilds the EX-stage functional units, the decode PLA, the fetch
    incrementer and the operand / result / writeback mux trees as
    NAND/NOR/NOT/MUX networks over 1-bit wires, multiplying the
    injection-site population toward the elaborated-netlist density
    the paper's campaigns run at.

    The invariant every function here maintains is {e name
    preservation}: each behavioural node keeps its name, width and
    value function in the gate-level elaboration — rebuilt as a packer
    over the gate bits or as a buffer of a gate output — so the
    gate-level pool is a superset of the behavioural pool by site
    name, and a fault injected by name into either elaboration
    perturbs the same function. *)

module C = Rtl.Circuit

(** {1 Generic gate combinators} *)

val and2 : C.t -> string -> C.signal -> C.signal -> C.signal

val or2 : C.t -> string -> C.signal -> C.signal -> C.signal

val xor2 : C.t -> string -> C.signal -> C.signal -> C.signal
(** Four-NAND composition; the root node carries the given name. *)

val or_tree : C.t -> string -> C.signal list -> C.signal

val and_tree : C.t -> string -> C.signal list -> C.signal

val taps : C.t -> string -> int -> C.signal -> C.signal array
(** [taps c base w s] extracts bits [base0 .. base{w-1}] of [s]. *)

val pack : C.t -> string -> C.signal array -> C.signal
(** Rebuild a word from its bits, LSB first — the behavioural-named
    boundary node of each lowered network. *)

val ripple :
  C.t -> ?prefix:string -> C.signal array -> C.signal array -> C.signal ->
  C.signal array * C.signal
(** 32-bit ripple-carry adder over bit arrays; returns (sum bits,
    carry out).  Per bit [i]: propagate [p<i>], sum [s<i>], the
    generate and propagate NANDs [ng<i>] and [np<i>] and the carry
    [c<i>], each name with [prefix] prepended. *)

(** {1 Shared EX operand taps} *)

type ops = {
  op1b : C.signal array;
  op2b : C.signal array;
  subb : C.signal array;
  unitb : C.signal array;
  iccb : C.signal array;  (** [c; v; z; n], LSB first *)
}

val operand_taps :
  C.t -> ra_op1:C.signal -> ra_op2:C.signal -> subop_s:C.signal ->
  unit_s:C.signal -> icc:C.signal -> ops

(** {1 Lowered units}

    Each is called inside the scope its behavioural counterpart lives
    in; gate innards go into a nested ["gates"] scope. *)

val fetch : C.t -> pc:C.signal -> C.signal * C.signal * C.signal array
(** [(pc_mis, pc_inc, pc bit taps)] — misalignment comparator and the
    pc+4 incrementer. *)

val decode : C.t -> ir:C.signal -> C.signal * C.signal
(** [(ctl, imm)] — a PLA with one AND term per valid opcode row
    (probed from {!Ctl.decode} on canonical words) and one OR plane
    per control bit, exact against the behavioural decoder over all
    2{^32} instruction words. *)

val op2_mux :
  C.t -> use_imm:C.signal -> de_imm:C.signal -> rdb:C.signal ->
  C.signal array * C.signal array
(** [(de_imm bit taps, selected-operand bits)]; the caller packs the
    behavioural ["op2_mux"] name. *)

val adder :
  C.t -> ops -> C.signal * C.signal array * C.signal * C.signal
(** [(sum, sum bits, flag_c, flag_v)] — subtract mask, carry-in
    select, ripple core and overflow/carry flag gates. *)

val logic : C.t -> ops -> C.signal * C.signal array

val shift : C.t -> ops -> shcnt:C.signal -> C.signal * C.signal array
(** Five-stage left barrel shifter with reverse-in/reverse-out for
    right shifts and an arithmetic fill gate. *)

val result_mux :
  C.t -> ops -> sum_bits:C.signal array -> logic_bits:C.signal array ->
  shift_bits:C.signal array -> mul_res:C.signal -> div_res:C.signal ->
  C.signal array
(** One-hot unit decode plus a per-bit mux chain; unknown unit codes
    fall through to the adder, as behaviourally. *)

val icc_next :
  C.t -> ops -> ex_result:C.signal -> flag_c:C.signal ->
  flag_v:C.signal -> C.signal array
(** Condition-code bits [c; v; z; n] LSB first: Z as a NOR tree over
    taps of the packed result word, V/C gated by unit = adder. *)

val branch :
  C.t -> ops -> cond_s:C.signal -> is_branch:C.signal -> is_call:C.signal ->
  is_jmpl:C.signal -> pcb:C.signal array -> immb:C.signal array ->
  sum_bits:C.signal array -> pc_inc:C.signal -> C.signal * C.signal
(** [(next_pc, jmpl_mis gate)] — condition mux tree, branch-target
    ripple adder and the next-pc select chain.  The caller buffers the
    jmpl_mis gate under its behavioural name. *)

val wb_data :
  C.t -> is_load:C.signal -> is_call:C.signal -> is_jmpl:C.signal ->
  is_sethi:C.signal -> me_load:C.signal -> pcb:C.signal array ->
  immb:C.signal array -> ex_result_r:C.signal -> C.signal
