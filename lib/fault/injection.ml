module C = Rtl.Circuit
module Units = Sparc.Units

type site = { fault_site : C.fault_site; site_name : string }

type target = Iu | Cmem | Unit_of of Units.t | Prefix of string

let target_name = function
  | Iu -> "iu"
  | Cmem -> "cmem"
  | Unit_of u -> "unit:" ^ Units.name u
  | Prefix p -> "prefix:" ^ p

let prefix_of_unit : Units.t -> string = function
  | Fetch -> "iu.fe."
  | Decode -> "iu.de."
  | Regfile -> "iu.regfile."
  | Adder -> "iu.ex.adder."
  | Logic_unit -> "iu.ex.logic."
  | Shifter -> "iu.ex.shift."
  | Multiplier -> "iu.ex.mul."
  | Divider -> "iu.ex.div."
  | Branch_unit -> "iu.ex.branch."
  | Load_store -> "iu.me."
  | Writeback -> "iu.wb."
  | Exception_unit -> "iu.xc."
  | Icache -> "cmem.icache."
  | Dcache -> "cmem.dcache."

(* Netlist scopes that have no unit of their own are attributed to the
   nearest architectural unit: the sequencer and supervisor state to
   Decode (control), the EX top-level muxes to Writeback's result
   path... keep it simple and explicit. *)
let extra_prefixes : (string * Units.t) list =
  [ ("iu.ctrl.", Units.Decode);
    ("iu.state.", Units.Decode);
    ("iu.ra.", Units.Regfile);
    ("iu.ex.", Units.Adder);
    (* cross-unit scopes of the gate-level elaboration: the operand
       select fabric belongs to the register-file read path, the
       shared ALU taps / result muxes / condition-code gates to the
       adder, like their behavioural counterparts *)
    ("iu.gates.operand.", Units.Regfile);
    ("iu.gates.alu.", Units.Adder) ]

(* All registered scope prefixes, most specific (longest) first, so a
   nested scope like "iu.ex.adder.gates." attributes to the adder and
   not to the EX catch-all. *)
let prefix_table : (string * Units.t) list =
  List.sort
    (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
    (List.map (fun u -> (prefix_of_unit u, u)) Units.all @ extra_prefixes)

let unit_of_site_name name =
  (* Normalise "scope.sig[4]" and "mem[word][bit]" to the dotted scope
     path, so a site named exactly like a registered scope (a memory
     cell, say "iu.regfile.regs[5][31]") still attributes. *)
  let stem =
    match String.index_opt name '[' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let path = stem ^ "." in
  Option.map snd
    (List.find_opt (fun (p, _) -> String.starts_with ~prefix:p path) prefix_table)

let signal_sites (core : Leon3.Core.t) ~prefix =
  C.injection_bits core.Leon3.Core.circuit ~prefix

(* Every (word, bit) cell of a memory, word-major. *)
let cell_sites (core : Leon3.Core.t) mem =
  let _, _, words, width =
    List.find (fun (_, m, _, _) -> m = mem) (C.memories core.Leon3.Core.circuit)
  in
  List.init (words * width) (fun i -> C.Cell (mem, i / width, i mod width))

(* The cross-unit gate scopes a unit owns besides its own subtree —
   enumerable per unit because no other unit's scope nests inside
   them (unlike the "iu.ex." catch-all). *)
let gate_prefixes_of_unit u =
  List.filter_map
    (fun (p, u') ->
      if u' = u && String.starts_with ~prefix:"iu.gates." p then Some p else None)
    extra_prefixes

(* The pool of a target, unnamed: a name costs a sprintf, so a sampler
   names only the sites it draws. *)
let fault_sites ?(include_cells = true) (core : Leon3.Core.t) target =
  Array.of_list
    (match target with
    | Prefix prefix -> signal_sites core ~prefix
    | Unit_of u ->
        signal_sites core ~prefix:(prefix_of_unit u)
        @ List.concat_map
            (fun prefix -> signal_sites core ~prefix)
            (gate_prefixes_of_unit u)
    | Iu ->
        let signals = signal_sites core ~prefix:"iu." in
        if include_cells then signals @ cell_sites core core.Leon3.Core.regfile else signals
    | Cmem ->
        let signals = signal_sites core ~prefix:"cmem." in
        if include_cells then
          signals
          @ cell_sites core core.Leon3.Core.icache.tag_mem
          @ cell_sites core core.Leon3.Core.icache.data_mem
          @ cell_sites core core.Leon3.Core.dcache.tag_mem
          @ cell_sites core core.Leon3.Core.dcache.data_mem
        else signals)

let named (core : Leon3.Core.t) fault_site =
  { fault_site; site_name = C.site_name core.Leon3.Core.circuit fault_site }

let sites ?include_cells core target =
  Array.to_list (Array.map (named core) (fault_sites ?include_cells core target))

let sample ?include_cells core target rng k =
  let pool = fault_sites ?include_cells core target in
  let drawn =
    match k with
    | Some k when k < Array.length pool -> Stats.Rng.sample_without_replacement rng k pool
    | Some _ | None -> pool
  in
  Array.map (named core) drawn

let pool_sizes core =
  let tally = Hashtbl.create 16 in
  let add site =
    match unit_of_site_name site.site_name with
    | Some u ->
        Hashtbl.replace tally u (1 + Option.value ~default:0 (Hashtbl.find_opt tally u))
    | None -> ()
  in
  List.iter add (sites core Iu);
  List.iter add (sites core Cmem);
  List.map (fun u -> (u, Option.value ~default:0 (Hashtbl.find_opt tally u))) Units.all
