(** Binary encoding of the instruction subset, following the SPARC v8
    instruction formats (the annul bit and ASI field are always zero).

    Both simulation engines fetch 32-bit words from memory and decode
    them with {!decode}, so the encoding is the single source of truth
    for what a program is. *)

val encode : Isa.instr -> int
(** [encode i] is the 32-bit machine word for [i].  Raises
    [Invalid_argument] when a field is out of range (e.g. an immediate
    beyond simm13). *)

val decode : int -> Isa.instr option
(** [decode w] decodes a machine word, or [None] if the word is not a
    valid instruction of the subset. *)

val op3_of_opcode : Isa.opcode -> int
(** The 6-bit [op3] field for format-3 opcodes; raises
    [Invalid_argument] for format-1/2 opcodes. *)

val cond_code : Isa.opcode -> int
(** The 4-bit condition field of a [Bicc] opcode. *)
