(** Functional-unit taxonomy of the modelled microcontroller.

    The diversity metric of the paper is computed per functional unit
    ([D_m]): from the ISS instruction stream we count, for each unit,
    how many distinct instruction types exercise it.  The same taxonomy
    names the hierarchical groups of the RTL model, which is how the
    area weights [alpha_m] of Eq. (1) are derived from real node
    counts. *)

type t =
  | Fetch        (** PC generation and instruction fetch datapath *)
  | Decode       (** instruction register and decode logic *)
  | Regfile      (** windowed register file, ports and address logic *)
  | Adder        (** ALU add/subtract datapath incl. condition codes *)
  | Logic_unit   (** ALU bitwise datapath *)
  | Shifter      (** barrel shifter *)
  | Multiplier
  | Divider
  | Branch_unit  (** condition evaluation and branch target adder *)
  | Load_store   (** memory-stage address/data path *)
  | Writeback    (** result mux and write-port path *)
  | Exception_unit  (** XC-stage trap detection *)
  | Icache       (** CMEM: instruction cache tag/data/control *)
  | Dcache       (** CMEM: data cache tag/data/control *)

val all : t list

val name : t -> string

val used_by : Isa.opcode -> t list
(** [used_by op] is the set of units instruction type [op] exercises
    when it flows down the pipeline.  Every opcode uses [Fetch],
    [Decode], [Icache] and [Writeback]; the rest depends on the type. *)

val pp : Format.formatter -> t -> unit
