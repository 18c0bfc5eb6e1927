type t =
  | Fetch
  | Decode
  | Regfile
  | Adder
  | Logic_unit
  | Shifter
  | Multiplier
  | Divider
  | Branch_unit
  | Load_store
  | Writeback
  | Exception_unit
  | Icache
  | Dcache

let all =
  [ Fetch; Decode; Regfile; Adder; Logic_unit; Shifter; Multiplier; Divider;
    Branch_unit; Load_store; Writeback; Exception_unit; Icache; Dcache ]

let name = function
  | Fetch -> "fetch"
  | Decode -> "decode"
  | Regfile -> "regfile"
  | Adder -> "adder"
  | Logic_unit -> "logic"
  | Shifter -> "shifter"
  | Multiplier -> "mul"
  | Divider -> "div"
  | Branch_unit -> "branch"
  | Load_store -> "lsu"
  | Writeback -> "writeback"
  | Exception_unit -> "exception"
  | Icache -> "icache"
  | Dcache -> "dcache"

(* Every instruction flows through fetch, decode and the I-cache; the
   writeback mux is likewise always clocked.  The rest follows the
   datapath each instruction class actually steers. *)
let used_by (op : Isa.opcode) =
  let common = [ Fetch; Decode; Icache; Writeback ] in
  let specific =
    match op with
    | Add | Addcc | Addx | Addxcc | Sub | Subcc | Subx | Subxcc ->
        [ Regfile; Adder; Exception_unit ]
    | And | Andcc | Andn | Andncc | Or | Orcc | Orn | Orncc
    | Xor | Xorcc | Xnor | Xnorcc ->
        [ Regfile; Logic_unit; Exception_unit ]
    | Sll | Srl | Sra -> [ Regfile; Shifter; Exception_unit ]
    | Umul | Umulcc | Smul | Smulcc -> [ Regfile; Multiplier; Exception_unit ]
    | Udiv | Sdiv -> [ Regfile; Divider; Exception_unit ]
    | Save | Restore -> [ Regfile; Adder; Exception_unit ]
    | Jmpl -> [ Regfile; Adder; Branch_unit; Exception_unit ]
    | Ld | Ldub | Ldsb | Lduh | Ldsh ->
        [ Regfile; Adder; Load_store; Dcache; Exception_unit ]
    | St | Stb | Sth -> [ Regfile; Adder; Load_store; Dcache; Exception_unit ]
    | Sethi -> [ Regfile ]
    | Ba | Bn | Bne | Be | Bg | Ble | Bge | Bl
    | Bgu | Bleu | Bcc | Bcs | Bpos | Bneg | Bvc | Bvs ->
        [ Branch_unit ]
    | Call -> [ Regfile; Branch_unit ]
  in
  common @ specific

let pp fmt u = Format.pp_print_string fmt (name u)
