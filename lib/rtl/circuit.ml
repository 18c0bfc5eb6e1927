open Machine

type signal = int

type memory = int

exception Combinational_cycle of string
exception Not_elaborated
exception Already_elaborated

type fault_model = Machine.fault_model = Stuck_at_0 | Stuck_at_1 | Open_line | Bit_flip

type fault_site = Machine.fault_site = Node of signal * int | Cell of memory * int * int

type reg_info = { init : int; mutable d : int; mutable en : int }

type kind =
  | Input
  | Const of int
  | Comb of { deps : int array; eval : int array -> int }
  | Register of reg_info

type node = { nm : string; width : int; kind : kind }

type write_port = { wp_we : int; wp_addr : int; wp_data : int }

type mem_info = {
  m_name : string;
  words : int;
  m_width : int;
  data : int array;
  mutable write_ports : write_port list;  (* reversed during construction *)
}

(* Value coverage of one run: for every node (and memory cell) a mask
   of bits observed at 0 and a mask of bits observed at 1, sampled at
   every settled state (nodes) / content change (cells).  A stuck-at
   fault on a bit whose "wrong" value was never observed is provably
   inactive for the whole run — the campaign prefilter builds on this. *)
type coverage = {
  cov_seen0 : int array;  (* per node *)
  cov_seen1 : int array;
  cov_cell_seen0 : int array array;  (* per memory, per word *)
  cov_cell_seen1 : int array array;
}

(* Growable array: the construction-side store (so [connect] and
   [mem_info] are O(1) instead of List.nth over a reversed list), the
   settle loops' seed lists and a trace's per-cycle offsets. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 16 dummy; n = 0; dummy }

  let length v = v.n

  let get v i = v.a.(i)

  let set v i x = v.a.(i) <- x

  let push v x =
    if v.n = Array.length v.a then begin
      let a' = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 a' 0 v.n;
      v.a <- a'
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let clear v = v.n <- 0

  let to_array v = Array.sub v.a 0 v.n
end

(* Append-only buffer for the deltas of a trace being recorded, in
   fixed-size chunks: growing never copies, and the finished trace
   keeps the chunks, so a recording leaves no doubled or flattened
   arrays behind for the collector.  A trace is a campaign's largest
   allocation, recorded once per program; once the golden run
   allocates little else, a second copy of it is what sets a
   campaign's peak memory. *)
module Chunks = struct
  let size = trace_chunk

  type t = { mutable full : int array list; mutable cur : int array; mutable len : int }

  let create () = { full = []; cur = [||]; len = 0 }

  let length c = c.len

  let push c x =
    let k = c.len land (size - 1) in
    if k = 0 then begin
      if c.len > 0 then c.full <- c.cur :: c.full;
      c.cur <- Array.make size 0
    end;
    Array.unsafe_set c.cur k x;
    c.len <- c.len + 1

  (* The last chunk is handed over as allocated: its entries past
     [len] are never read. *)
  let chunks c = Array.of_list (List.rev (if c.len > 0 then c.cur :: c.full else c.full))
end

type trace = Machine.trace

let pack_delta id v = (id lsl 32) lor v

let delta_id p = p lsr 32

let delta_val p = p land 0xFFFFFFFF

type trace_builder = {
  tb_prev : int array;  (* last recorded value per node, once primed *)
  tb_delta : Chunks.t;
  tb_dend : int Vec.t;
  mutable tb_upto : int;  (* highest cycle recorded, -1 before the first settle *)
}

(* --- the lowered netlist --- *)

(* Everything the evaluators sweep, lowered once at elaboration into
   dense per-node arrays: the dense sweep's schedule, per-node
   evaluators and dependencies, combinational fanout and levels (the
   levelized schedule of the change-driven settle and of the lanes),
   registers and memory write ports.  Both engines read this one
   record. *)
type lowering = {
  masks : int array;
  order : int array;
  order_eval : (int array -> int) array;
  eval : (int array -> int) array;
  deps : int array array;
  max_deps : int;
  shape : int array;
  input : bool array;
  rport_of : int array;
  fanout : int array array;
  level : int array;
  max_level : int;
  mem_readers : int array array;
  regs : int array;
  reg_d : int array;
  reg_en : int array;
  mem_masks : int array;
  mem_ports : write_port array array;
}

let unlowered =
  { masks = [||]; order = [||]; order_eval = [||]; eval = [||]; deps = [||]; max_deps = 1;
    shape = [||]; input = [||]; rport_of = [||]; fanout = [||]; level = [||]; max_level = 0;
    mem_readers = [||]; regs = [||]; reg_d = [||]; reg_en = [||]; mem_masks = [||];
    mem_ports = [||] }

let dummy_node = { nm = ""; width = 1; kind = Input }

let dummy_mem = { m_name = ""; words = 0; m_width = 1; data = [||]; write_ports = [] }

(* 63: a native int keeps 63 usable lane bits next to the implicit
   golden machine; lanes 0..62 are faulty. *)
let max_lanes = 63

type batch_stats = {
  bs_evals : int;  (* per-lane comb evaluations performed *)
  bs_sliced_evals : int;  (* node evaluations made for all their lanes at once *)
  bs_dense_evals : int;  (* evaluations [lanes] dense sweeps would have cost *)
  bs_lane_cycles : int;  (* live lanes summed over clocked cycles *)
  bs_driven_lane_cycles : int;  (* ... of them with a per-lane off-core drive *)
}

type settle_stats = {
  ss_evals : int;  (* comb evaluations scalar settles performed *)
  ss_dense_evals : int;  (* comb nodes x scalar settles *)
}

type t = {
  c_name : string;
  building : node Vec.t;
  mutable scopes : string list;
  mems : mem_info Vec.t;
  mutable rports : (int * int) list;  (* read-port node id -> memory id *)
  mutable taps : (int * int) list;  (* tap node id -> bit index *)
  mutable node_cnt : int;
  mutable mem_cnt : int;
  (* elaboration products *)
  mutable nodes : node array;
  mutable mem_arr : mem_info array;
  mutable low : lowering;
  mutable values : int array;
  mutable reg_next : int array;
  mutable wl : Worklist.t;  (* the change-driven settle's *)
  mutable elaborated : bool;
  mutable cyc : int;
  mutable fault : fault option;
  mutable recording : coverage option;
  mutable tracing : trace_builder option;
  (* The change-driven settle's seeds, cleared by every settle: source
     nodes whose value changed since the last settle (an input set, a
     register committed to a new value or a faulted source transformed;
     a node can appear twice, and never a comb node), and memories
     whose content changed (a write, or a forced cell fault).
     [full_sweep] makes the next settle the dense sweep, after a bulk
     state change the seeds do not describe; [reference] makes every
     settle the dense sweep, for the duration of a {!reference} run. *)
  moved : int Vec.t;
  marked : int Vec.t;
  mutable mem_marked : bool array;
  mutable full_sweep : bool;
  mutable reference : bool;
  mutable settle_evals : int;  (* comb evaluations scalar settles made *)
  mutable settle_dense : int;  (* comb nodes x scalar settles *)
  (* observed-cone restriction for recurrence comparison: [||] = no
     cone set, every node and memory compared *)
  mutable cone : bool array;
  mutable cone_mems : bool array;
}

let create c_name =
  { c_name; building = Vec.create dummy_node; scopes = []; mems = Vec.create dummy_mem;
    rports = []; taps = []; node_cnt = 0; mem_cnt = 0; nodes = [||]; mem_arr = [||];
    low = unlowered; values = [||]; reg_next = [||];
    wl = Worklist.create ~level:[||] ~max_level:0;
    elaborated = false; cyc = 0; fault = None; recording = None; tracing = None;
    moved = Vec.create 0; marked = Vec.create 0; mem_marked = [||]; full_sweep = true;
    reference = false; settle_evals = 0; settle_dense = 0; cone = [||]; cone_mems = [||] }

let name t = t.c_name

let scoped t scope f =
  t.scopes <- scope :: t.scopes;
  let finish () = t.scopes <- List.tl t.scopes in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let full_name t nm = String.concat "." (List.rev (nm :: t.scopes))

let add_node t nm width kind =
  if t.elaborated then raise Already_elaborated;
  if width < 1 || width > 32 then invalid_arg "Circuit: width must be 1..32";
  let id = t.node_cnt in
  Vec.push t.building { nm = full_name t nm; width; kind };
  t.node_cnt <- t.node_cnt + 1;
  id

let input t nm width = add_node t nm width Input

let const t nm width v = add_node t nm width (Const (v land ((1 lsl width) - 1)))

(* [combn] presents dependency values positionally; the scratch buffer
   is reused across evaluations to keep the hot loop allocation-free. *)
let combn t nm width deps f =
  let n = Array.length deps in
  let scratch = Array.make (max n 1) 0 in
  let eval values =
    for i = 0 to n - 1 do
      Array.unsafe_set scratch i (Array.unsafe_get values (Array.unsafe_get deps i))
    done;
    f scratch
  in
  add_node t nm width (Comb { deps; eval })

let comb1 t nm width a f =
  add_node t nm width (Comb { deps = [| a |]; eval = (fun vs -> f vs.(a)) })

let comb2 t nm width a b f =
  add_node t nm width (Comb { deps = [| a; b |]; eval = (fun vs -> f vs.(a) vs.(b)) })

let comb3 t nm width a b c f =
  add_node t nm width
    (Comb { deps = [| a; b; c |]; eval = (fun vs -> f vs.(a) vs.(b) vs.(c)) })

let comb4 t nm width a b c d f =
  add_node t nm width
    (Comb { deps = [| a; b; c; d |]; eval = (fun vs -> f vs.(a) vs.(b) vs.(c) vs.(d)) })

(* ---- gate primitives ----
   One-bit NAND/NOR/NOT/MUX (plus an identity buffer), the cell
   library of the gate-level elaboration.  Each is an ordinary comb
   node, so the full fault machinery (stuck-at, open-line, bit-flip,
   probing, batching) applies per gate output with no special cases. *)

let check_bit t nm s =
  if (Vec.get t.building s).width <> 1 then
    invalid_arg (Printf.sprintf "Circuit.gate %s: dependency %s is not 1 bit wide"
                   nm (Vec.get t.building s).nm)

let gate_not t nm a =
  check_bit t nm a;
  comb1 t nm 1 a (fun x -> x lxor 1)

let gate_buf t nm a =
  check_bit t nm a;
  comb1 t nm 1 a (fun x -> x)

let gate_nand t nm a b =
  check_bit t nm a;
  check_bit t nm b;
  comb2 t nm 1 a b (fun x y -> x land y lxor 1)

let gate_nor t nm a b =
  check_bit t nm a;
  check_bit t nm b;
  comb2 t nm 1 a b (fun x y -> x lor y lxor 1)

let gate_mux t nm ~sel a b =
  check_bit t nm sel;
  check_bit t nm a;
  check_bit t nm b;
  comb3 t nm 1 sel a b (fun s x y -> if s <> 0 then x else y)

(* A tap is an ordinary comb node; the recorded bit index is what lets
   the lanes evaluate it bit-sliced, which probing a 32-bit dependency
   cannot establish. *)
let tap t nm word i =
  if i < 0 || i >= (Vec.get t.building word).width then
    invalid_arg (Printf.sprintf "Circuit.tap %s: bit %d outside the word" nm i);
  let id = comb1 t nm 1 word (fun v -> (v lsr i) land 1) in
  t.taps <- (id, i) :: t.taps;
  id

let reg t nm ~width ?(init = 0) () =
  add_node t nm width (Register { init; d = -1; en = -1 })

let connect t r ?en ~d () =
  let node = Vec.get t.building r in
  match node.kind with
  | Register info ->
      if info.d >= 0 then invalid_arg ("Circuit.connect: already connected: " ^ node.nm);
      info.d <- d;
      (match en with Some e -> info.en <- e | None -> ())
  | Input | Const _ | Comb _ ->
      invalid_arg ("Circuit.connect: not a register: " ^ node.nm)

let memory t nm ~words ~width =
  if t.elaborated then raise Already_elaborated;
  if words < 1 || words > 1 lsl 20 then invalid_arg "Circuit.memory: words must be 1..2^20";
  let id = t.mem_cnt in
  Vec.push t.mems
    { m_name = full_name t nm; words; m_width = width; data = Array.make words 0;
      write_ports = [] };
  t.mem_cnt <- t.mem_cnt + 1;
  id

let mem_info t m = if t.elaborated then t.mem_arr.(m) else Vec.get t.mems m

let read_port t nm m addr =
  let info = mem_info t m in
  let data = info.data in
  let words = info.words in
  let id =
    combn t nm info.m_width [| addr |] (fun vs ->
        let a = vs.(0) in
        if a < words then data.(a) else 0)
  in
  t.rports <- (id, m) :: t.rports;
  id

let write_port t m ~we ~addr ~data =
  let info = mem_info t m in
  info.write_ports <- { wp_we = we; wp_addr = addr; wp_data = data } :: info.write_ports

(* --- elaboration --- *)

let elaborate t =
  if t.elaborated then raise Already_elaborated;
  let nodes = Vec.to_array t.building in
  let n = Array.length nodes in
  (* check registers are connected *)
  Array.iter
    (fun nd ->
      match nd.kind with
      | Register info when info.d < 0 ->
          invalid_arg ("Circuit.elaborate: unconnected register: " ^ nd.nm)
      | Register _ | Input | Const _ | Comb _ -> ())
    nodes;
  (* topological order over combinational dependencies *)
  let color = Array.make n 0 in
  (* 0 unvisited, 1 in progress, 2 done *)
  let order = ref [] in
  let rec visit id =
    match color.(id) with
    | 2 -> ()
    | 1 -> raise (Combinational_cycle nodes.(id).nm)
    | _ -> (
        color.(id) <- 1;
        (match nodes.(id).kind with
        | Comb { deps; _ } ->
            Array.iter visit deps;
            order := id :: !order
        | Input | Const _ | Register _ -> ());
        color.(id) <- 2)
  in
  for id = 0 to n - 1 do
    visit id
  done;
  let order = Array.of_list (List.rev !order) in
  let eval =
    Array.map
      (fun nd ->
        match nd.kind with Comb { eval; _ } -> eval | Input | Const _ | Register _ -> (fun _ -> 0))
      nodes
  in
  let deps =
    Array.map
      (fun nd ->
        match nd.kind with Comb { deps; _ } -> deps | Input | Const _ | Register _ -> [||])
      nodes
  in
  let regs =
    Array.of_seq
      (Seq.filter_map
         (fun id ->
           match nodes.(id).kind with
           | Register info -> Some (id, info)
           | Input | Const _ | Comb _ -> None)
         (Seq.init n Fun.id))
  in
  let mem_arr = Vec.to_array t.mems in
  let rport_of = Array.make n (-1) in
  List.iter (fun (id, m) -> rport_of.(id) <- m) t.rports;
  (* deduplicated combinational fanout, comb levels (sources are 0) and
     per-memory reader lists: the levelized schedule *)
  let sinks = Array.make n [] in
  Array.iteri (fun id ds -> Array.iter (fun d -> sinks.(d) <- id :: sinks.(d)) ds) deps;
  let level = Array.make n 0 in
  let max_level = ref 0 in
  Array.iteri
    (fun id ds ->
      match nodes.(id).kind with
      | Comb _ ->
          let deepest = Array.fold_left (fun acc d -> max acc level.(d)) 0 ds in
          level.(id) <- deepest + 1;
          if level.(id) > !max_level then max_level := level.(id)
      | Input | Const _ | Register _ -> ())
    deps;
  let readers = Array.make (Array.length mem_arr) [] in
  List.iter (fun (id, m) -> readers.(m) <- id :: readers.(m)) t.rports;
  (* Shapes: a tap of a wider word by its recorded bit; a one-bit node
     over 1..3 distinct one-bit dependencies by the truth table its
     evaluator yields on every input, exact by the purity rule.  An
     evaluator that raises on some probe stays unshaped. *)
  let shape = Array.make n shape_none in
  List.iter
    (fun (id, i) -> if nodes.(deps.(id).(0)).width > 1 then shape.(id) <- shape_tap_of i)
    t.taps;
  let probe = Array.make n 0 in
  for id = 0 to n - 1 do
    let ds = deps.(id) in
    let k = Array.length ds in
    match nodes.(id).kind with
    | Comb { eval; _ }
      when nodes.(id).width = 1 && rport_of.(id) < 0 && k >= 1 && k <= 3
           && Array.for_all (fun d -> nodes.(d).width = 1) ds
           && (k < 2 || ds.(0) <> ds.(1))
           && (k < 3 || (ds.(2) <> ds.(0) && ds.(2) <> ds.(1))) -> (
        let tt = ref 0 in
        match
          for ix = 0 to (1 lsl k) - 1 do
            for j = 0 to k - 1 do
              probe.(ds.(j)) <- (ix lsr j) land 1
            done;
            tt := !tt lor ((eval probe land 1) lsl ix)
          done
        with
        | () -> shape.(id) <- shape_table k !tt
        | exception _ -> ())
    | Comb _ | Input | Const _ | Register _ -> ()
  done;
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  t.low <-
    { masks = Array.map (fun nd -> (1 lsl nd.width) - 1) nodes;
      order;
      order_eval = Array.map (fun id -> eval.(id)) order;
      eval;
      deps;
      max_deps = Array.fold_left (fun acc ds -> max acc (Array.length ds)) 1 deps;
      shape;
      input =
        Array.map
          (fun nd -> match nd.kind with Input -> true | Const _ | Comb _ | Register _ -> false)
          nodes;
      rport_of;
      fanout = Array.map sorted sinks;
      level;
      max_level = !max_level;
      mem_readers = Array.map sorted readers;
      regs = Array.map fst regs;
      reg_d = Array.map (fun (_, info) -> info.d) regs;
      reg_en = Array.map (fun (_, info) -> info.en) regs;
      mem_masks = Array.map (fun info -> (1 lsl info.m_width) - 1) mem_arr;
      (* creation order, frozen: the per-cycle commit loop must not
         re-reverse a list per memory *)
      mem_ports = Array.map (fun info -> Array.of_list (List.rev info.write_ports)) mem_arr };
  t.nodes <- nodes;
  t.mem_arr <- mem_arr;
  t.values <- Array.make n 0;
  t.reg_next <- Array.make (Array.length regs) 0;
  t.wl <- Worklist.create ~level ~max_level:!max_level;
  t.mem_marked <- Array.make (Array.length mem_arr) false;
  t.full_sweep <- true;
  t.elaborated <- true

let check_elab t = if not t.elaborated then raise Not_elaborated

(* --- value-coverage recording --- *)

let record_nodes t cov =
  let n = Array.length t.values in
  let masks = t.low.masks in
  for id = 0 to n - 1 do
    let v = Array.unsafe_get t.values id in
    Array.unsafe_set cov.cov_seen1 id (Array.unsafe_get cov.cov_seen1 id lor v);
    Array.unsafe_set cov.cov_seen0 id
      (Array.unsafe_get cov.cov_seen0 id lor (Array.unsafe_get masks id land lnot v))
  done

(* One node's share of [record_nodes], for the change-driven settle. *)
let record_node cov masks id v =
  Array.unsafe_set cov.cov_seen1 id (Array.unsafe_get cov.cov_seen1 id lor v);
  Array.unsafe_set cov.cov_seen0 id
    (Array.unsafe_get cov.cov_seen0 id lor (Array.unsafe_get masks id land lnot v))
[@@inline]

let record_cell cov m idx ~mask v =
  cov.cov_cell_seen1.(m).(idx) <- cov.cov_cell_seen1.(m).(idx) lor v;
  cov.cov_cell_seen0.(m).(idx) <- cov.cov_cell_seen0.(m).(idx) lor (mask land lnot v)

(* The change-driven settle records only the nodes that moved, so the
   recording of an unchanged node relies on the settle where it last
   changed: a recording starts with a sweep that records every node. *)
let coverage_start t =
  check_elab t;
  let n = Array.length t.values in
  let cov =
    { cov_seen0 = Array.make n 0;
      cov_seen1 = Array.make n 0;
      cov_cell_seen0 = Array.map (fun m -> Array.make m.words 0) t.mem_arr;
      cov_cell_seen1 = Array.map (fun m -> Array.make m.words 0) t.mem_arr }
  in
  t.recording <- Some cov;
  t.full_sweep <- true

let coverage_stop t =
  check_elab t;
  match t.recording with
  | Some cov ->
      t.recording <- None;
      cov
  | None -> invalid_arg "Circuit.coverage_stop: not recording"

let never_activates cov site model =
  let seen0, seen1 =
    match site with
    | Node (s, bit) ->
        (Bitops.bit bit cov.cov_seen0.(s) <> 0, Bitops.bit bit cov.cov_seen1.(s) <> 0)
    | Cell (m, idx, bit) ->
        ( Bitops.bit bit cov.cov_cell_seen0.(m).(idx) <> 0,
          Bitops.bit bit cov.cov_cell_seen1.(m).(idx) <> 0 )
  in
  match model with
  | Stuck_at_0 -> not seen1  (* forcing 0 onto a bit that is always 0 *)
  | Stuck_at_1 -> not seen0
  | Open_line -> not (seen0 && seen1)  (* bit never changes: frozen = current *)
  | Bit_flip -> false  (* an inversion always perturbs the value *)

(* Comb nodes are recorded by the dense sweep that follows: their reset
   value of 0 is not a settled state.  Cleared memory is real content. *)
let reset t =
  check_elab t;
  Array.iteri
    (fun id nd ->
      t.values.(id) <-
        (match nd.kind with
        | Const v -> v
        | Register { init; _ } -> init land t.low.masks.(id)
        | Input | Comb _ -> 0))
    t.nodes;
  Array.iter (fun m -> Array.fill m.data 0 m.words 0) t.mem_arr;
  t.cyc <- 0;
  t.full_sweep <- true;
  (match t.fault with Some f -> f.frozen <- None | None -> ());
  match t.recording with
  | Some cov ->
      Array.iteri
        (fun m info ->
          let mask = t.low.mem_masks.(m) in
          for idx = 0 to info.words - 1 do
            record_cell cov m idx ~mask 0
          done)
        t.mem_arr
  | None -> ()

let set_input t s v =
  check_elab t;
  if not t.low.input.(s) then invalid_arg "Circuit.set_input: not an input";
  let v = v land t.low.masks.(s) in
  if v <> t.values.(s) then begin
    t.values.(s) <- v;
    Vec.push t.moved s
  end

(* --- fault machinery --- *)

(* Memory [m]'s content moved: its read ports are seeds of the next
   change-driven settle. *)
let mark_mem t m =
  if not t.mem_marked.(m) then begin
    t.mem_marked.(m) <- true;
    Vec.push t.marked m
  end

let write_cell t m idx v =
  let info = t.mem_arr.(m) in
  let v =
    (* the golden run's writes skip the call into [Machine] *)
    match t.fault with
    | None -> v
    | Some _ -> cell_write ~cyc:t.cyc t.fault m idx ~cur:info.data.(idx) v
  in
  let mask = t.low.mem_masks.(m) in
  let v = v land mask in
  if v <> info.data.(idx) then begin
    info.data.(idx) <- v;
    mark_mem t m
  end;
  match t.recording with
  | Some cov -> record_cell cov m idx ~mask v
  | None -> ()

(* Arming, replacing or clearing a fault changes the rules every node
   is computed by, and a comb node the old fault sat on still holds its
   faulted value: the next settle sweeps. *)
let inject t ?(from_cycle = 0) ?duration site model =
  t.fault <- Some { site; model; from_cycle; duration; frozen = None };
  t.full_sweep <- true

let clear_fault t =
  t.fault <- None;
  t.full_sweep <- true

let fault_model_name = function
  | Stuck_at_0 -> "stuck-at-0"
  | Stuck_at_1 -> "stuck-at-1"
  | Open_line -> "open-line"
  | Bit_flip -> "bit-flip"

(* --- golden trace recording --- *)

let trace_start t =
  check_elab t;
  t.tracing <-
    Some
      { tb_prev = Array.make (Array.length t.values) 0;
        tb_delta = Chunks.create ();
        tb_dend = Vec.create 0;
        tb_upto = -1 }

(* Open the current cycle's delta run.  The first recorded settle only
   primes the previous state from the settled values: it emits no
   deltas, whatever the circuit held before. *)
let trace_open t tb =
  let c = t.cyc in
  if c < tb.tb_upto then
    invalid_arg "Circuit.trace: cycle counter went backwards while recording";
  if tb.tb_upto < 0 then Array.blit t.values 0 tb.tb_prev 0 (Array.length t.values);
  if c > tb.tb_upto then begin
    for _ = tb.tb_upto + 1 to c do
      Vec.push tb.tb_dend (Chunks.length tb.tb_delta)
    done;
    tb.tb_upto <- c
  end

(* The reference recording: compare every node with its last recorded
   value. *)
let trace_record t tb =
  trace_open t tb;
  let c = t.cyc in
  let values = t.values and prev = tb.tb_prev in
  for id = 0 to Array.length values - 1 do
    let v = Array.unsafe_get values id in
    if v <> Array.unsafe_get prev id then begin
      Chunks.push tb.tb_delta (pack_delta id v);
      Array.unsafe_set prev id v
    end
  done;
  Vec.set tb.tb_dend c (Chunks.length tb.tb_delta)

let trace_stop t =
  check_elab t;
  match t.tracing with
  | None -> invalid_arg "Circuit.trace_stop: not recording"
  | Some tb ->
      t.tracing <- None;
      { tr_len = tb.tb_upto + 1;
        tr_delta = Chunks.chunks tb.tb_delta;
        tr_dend = Vec.to_array tb.tb_dend }

let trace_cycles tr = tr.tr_len

let trace_deltas tr c =
  if c < 0 || c >= tr.tr_len then invalid_arg "Circuit.trace_deltas: cycle out of range";
  let lo = if c = 0 then 0 else tr.tr_dend.(c - 1) in
  Array.init (tr.tr_dend.(c) - lo) (fun i ->
      let i = lo + i in
      let p = tr.tr_delta.(i lsr trace_chunk_bits).(i land (trace_chunk - 1)) in
      (delta_id p, delta_val p))

(* --- simulation --- *)

(* The armed fault's rules ahead of a settle, the same for both settle
   loops: a cell fault forces its cell's content (marking the memory
   when the content moves), and a fault on a source node (input, const,
   register) transforms its stored value (a seed when the value moves).
   Returns the faulted comb node, which the settle evaluates through
   [node_fault], or -1. *)
let apply_fault t =
  let cyc = t.cyc in
  match t.fault with
  | None -> -1
  | Some ({ site = Cell (m, idx, bit); _ } as f) ->
      let data = t.mem_arr.(m).data in
      (if fault_active ~cyc f && idx < Array.length data then
         match cell_force f ~bit data.(idx) with
         | Some v when v <> data.(idx) ->
             data.(idx) <- v;
             mark_mem t m
         | Some _ | None -> ());
      -1
  | Some ({ site = Node (s, bit); _ } as f) ->
      if t.low.level.(s) > 0 then s
      else begin
        (if fault_active ~cyc f then
           let v = transform_bit f ~bit t.values.(s) in
           if v <> t.values.(s) then begin
             t.values.(s) <- v;
             Vec.push t.moved s
           end);
        -1
      end

let dense_settle t =
  let cyc = t.cyc in
  let fnode = apply_fault t in
  let order = t.low.order in
  let evals = t.low.order_eval in
  let values = t.values in
  let masks = t.low.masks in
  (* single compare per node in the hot loop *)
  if fnode < 0 then
    for k = 0 to Array.length order - 1 do
      let id = Array.unsafe_get order k in
      Array.unsafe_set values id
        ((Array.unsafe_get evals k) values land Array.unsafe_get masks id)
    done
  else
    for k = 0 to Array.length order - 1 do
      let id = Array.unsafe_get order k in
      let v = (Array.unsafe_get evals k) values land Array.unsafe_get masks id in
      Array.unsafe_set values id (if id = fnode then node_fault ~cyc t.fault id v else v)
    done;
  (match t.tracing with Some tb -> trace_record t tb | None -> ());
  match t.recording with Some cov -> record_nodes t cov | None -> ()

(* Queue node [id]: the worklist's steps inlined over its fields, as
   is the bucket walk below (a call into another module is indirect in
   a build without cross-module optimisation). *)
let push wl id =
  if Array.unsafe_get wl.Worklist.stamp id <> wl.Worklist.epoch then begin
    Array.unsafe_set wl.Worklist.stamp id wl.Worklist.epoch;
    let l = Array.unsafe_get wl.Worklist.level id in
    let k = Array.unsafe_get wl.Worklist.fill l in
    Array.unsafe_set (Array.unsafe_get wl.Worklist.bucket l) k id;
    Array.unsafe_set wl.Worklist.fill l (k + 1)
  end

let queue_fanout wl fanout id =
  let fo = Array.unsafe_get fanout id in
  for j = 0 to Array.length fo - 1 do
    push wl (Array.unsafe_get fo j)
  done

(* A shaped node's value, read off its shape instead of calling its
   evaluator: the tapped bit of its word, or its truth table's entry
   for its dependencies' values. *)
let eval_shaped values ds sh =
  let x = Array.unsafe_get values (Array.unsafe_get ds 0) in
  if sh >= shape_tap then (x lsr (sh land shape_tap_bits)) land 1
  else
    let ix =
      match Array.length ds with
      | 1 -> x
      | 2 -> x lor (Array.unsafe_get values (Array.unsafe_get ds 1) lsl 1)
      | _ ->
          x
          lor (Array.unsafe_get values (Array.unsafe_get ds 1) lsl 1)
          lor (Array.unsafe_get values (Array.unsafe_get ds 2) lsl 2)
    in
    (sh lsr ix) land 1

(* The change-driven settle, for a circuit whose comb values are
   settled except for the seeds: evaluate, in level order, only the
   comb nodes with a dependency that moved (a seed, or a node this
   settle changed) and the read ports of memories whose content changed.
   Exact because evaluators are pure functions of their dependency
   values (and, for a read port, of its memory's content), which is
   also what lets a shaped node skip its evaluator.  An armed fault
   adds the seeds [apply_fault] leaves, and its comb node is evaluated
   at every settle: the fault's window opens and closes on the cycle
   counter, not on the node's inputs, and a closed window heals the
   residue at the next evaluation.

   Recording costs per changed node, written where the value changes:
   an unchanged node's value was recorded at the settle where it last
   changed, or at the full sweep that started the recording.  A seed is
   compared with its last recorded value, since a source can move and
   move back between two settles.  A comb node is evaluated at most
   once per settle and held its recorded value before it, so a change
   is a delta without a compare; its [tb_prev] entry is still kept for
   the dense sweep's compare after a bulk change. *)
let event_settle t =
  let low = t.low in
  let wl = t.wl and fanout = low.fanout and moved = t.moved in
  let values = t.values and masks = low.masks and evals = low.eval in
  let shape = low.shape and deps = low.deps in
  let cyc = t.cyc in
  Worklist.start wl;
  let fnode = apply_fault t in
  if fnode >= 0 then push wl fnode;
  (* The first recorded settle only primes, after the loop.  The
     recording case reuses [t.tracing]'s own option: the settle
     allocates nothing. *)
  let trace =
    match t.tracing with
    | Some tb when tb.tb_upto >= 0 ->
        trace_open t tb;
        t.tracing
    | Some _ | None -> None
  in
  let cov = t.recording in
  for i = 0 to Vec.length moved - 1 do
    let id = Vec.get moved i in
    let v = Array.unsafe_get values id in
    (match trace with
    | Some tb ->
        if v <> Array.unsafe_get tb.tb_prev id then begin
          Chunks.push tb.tb_delta (pack_delta id v);
          Array.unsafe_set tb.tb_prev id v
        end
    | None -> ());
    (match cov with Some cov -> record_node cov masks id v | None -> ());
    queue_fanout wl fanout id
  done;
  for i = 0 to Vec.length t.marked - 1 do
    let rd = low.mem_readers.(Vec.get t.marked i) in
    for j = 0 to Array.length rd - 1 do
      push wl (Array.unsafe_get rd j)
    done
  done;
  let nev = ref 0 in
  for lvl = 1 to Array.length wl.Worklist.fill - 1 do
    let b = Array.unsafe_get wl.Worklist.bucket lvl in
    let n = Array.unsafe_get wl.Worklist.fill lvl in
    for i = 0 to n - 1 do
      let id = Array.unsafe_get b i in
      let sh = Array.unsafe_get shape id in
      let v =
        if sh <> shape_none then eval_shaped values (Array.unsafe_get deps id) sh
        else (Array.unsafe_get evals id) values land Array.unsafe_get masks id
      in
      let v = if id = fnode then node_fault ~cyc t.fault id v else v in
      if v <> Array.unsafe_get values id then begin
        Array.unsafe_set values id v;
        (match trace with
        | Some tb ->
            Chunks.push tb.tb_delta (pack_delta id v);
            Array.unsafe_set tb.tb_prev id v
        | None -> ());
        (match cov with Some cov -> record_node cov masks id v | None -> ());
        queue_fanout wl fanout id
      end
    done;
    nev := !nev + n
  done;
  t.settle_evals <- t.settle_evals + !nev;
  match t.tracing with
  | Some tb ->
      (match trace with None -> trace_open t tb | Some _ -> ());
      Vec.set tb.tb_dend cyc (Chunks.length tb.tb_delta)
  | None -> ()

(* Dense on the reference engine and after a bulk state change;
   change-driven otherwise, with or without a fault armed. *)
let settle t =
  check_elab t;
  let ncomb = Array.length t.low.order in
  if t.reference || t.full_sweep then begin
    dense_settle t;
    t.settle_evals <- t.settle_evals + ncomb;
    t.full_sweep <- false
  end
  else event_settle t;
  t.settle_dense <- t.settle_dense + ncomb;
  Vec.clear t.moved;
  for i = 0 to Vec.length t.marked - 1 do
    t.mem_marked.(Vec.get t.marked i) <- false
  done;
  Vec.clear t.marked

(* A dense sweep leaves every value settled and the seeds empty, so the
   change-driven settle can take over wherever a reference run ends. *)
let reference t f =
  let outer = t.reference in
  t.reference <- true;
  Fun.protect ~finally:(fun () -> t.reference <- outer) f

let clock t =
  check_elab t;
  let low = t.low in
  let values = t.values and masks = low.masks in
  let regs = low.regs and reg_next = t.reg_next in
  (* Phase 1: sample every register input and write port (data/enable
     ids were lowered into flat arrays at elaboration, so the per-cycle
     sweep has no per-node tag dispatch). *)
  for k = 0 to Array.length regs - 1 do
    let id = regs.(k) and en = low.reg_en.(k) in
    reg_next.(k) <-
      (if en >= 0 && values.(en) = 0 then values.(id)
       else values.(low.reg_d.(k)) land masks.(id))
  done;
  for m = 0 to Array.length t.mem_arr - 1 do
    let words = t.mem_arr.(m).words in
    let wps = low.mem_ports.(m) in
    for i = 0 to Array.length wps - 1 do
      let { wp_we; wp_addr; wp_data } = wps.(i) in
      if values.(wp_we) <> 0 then begin
        let idx = values.(wp_addr) in
        if idx < words then write_cell t m idx values.(wp_data)
      end
    done
  done;
  (* Phase 2: commit; a register that takes a new value seeds the next
     change-driven settle. *)
  for k = 0 to Array.length regs - 1 do
    let id = regs.(k) and v = reg_next.(k) in
    if v <> values.(id) then begin
      values.(id) <- v;
      Vec.push t.moved id
    end
  done;
  t.cyc <- t.cyc + 1

let settle_stats t = { ss_evals = t.settle_evals; ss_dense_evals = t.settle_dense }

let value t s =
  check_elab t;
  t.values.(s)

let cycle t = t.cyc

let mem_read t m idx =
  check_elab t;
  let info = t.mem_arr.(m) in
  if idx < info.words then info.data.(idx) else 0

let mem_write t m idx v =
  check_elab t;
  let info = t.mem_arr.(m) in
  if idx < info.words then write_cell t m idx v

let compiled_plan t =
  check_elab t;
  t.low

let shape_none = shape_none

let shape_not = shape_not

let shape_buf = shape_buf

let shape_nand = shape_nand

let shape_nor = shape_nor

let shape_mux = shape_mux

(* --- state snapshots --- *)

type snapshot = Machine.snapshot

let snapshot t =
  check_elab t;
  { snap_values = Array.copy t.values;
    snap_mems = Array.map (fun m -> Array.copy m.data) t.mem_arr;
    snap_cycle = t.cyc }

let restore t snap =
  check_elab t;
  Array.blit snap.snap_values 0 t.values 0 (Array.length t.values);
  Array.iteri
    (fun m info -> Array.blit snap.snap_mems.(m) 0 info.data 0 info.words)
    t.mem_arr;
  t.cyc <- snap.snap_cycle;
  t.full_sweep <- true

let int_arrays_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
  go 0

(* Backward closure of the signals the environment reads: a node is in
   the cone if some observed root depends on it (combinationally or
   through registers), a memory if one of its read ports is — and then
   its write-port drivers are too.  State outside the cone (pure
   accounting such as a retired-instruction counter) can keep evolving
   without ever influencing an observable, so recurrence comparison
   ({!same_state}/{!content_hash}) restricts itself to the cone once
   one is set.  Exact-state equality
   ({!state_equal}), snapshots and restores stay full-state. *)
let set_observed_cone t roots =
  check_elab t;
  let n = Array.length t.nodes in
  let inc = Array.make n false in
  let incm = Array.make (Array.length t.mem_arr) false in
  let regk = Array.make n (-1) in
  Array.iteri (fun k id -> regk.(id) <- k) t.low.regs;
  let stack = ref [] in
  let add id =
    if id >= 0 && not inc.(id) then begin
      inc.(id) <- true;
      stack := id :: !stack
    end
  in
  let add_mem m =
    if not incm.(m) then begin
      incm.(m) <- true;
      Array.iter
        (fun { wp_we; wp_addr; wp_data } ->
          add wp_we;
          add wp_addr;
          add wp_data)
        t.low.mem_ports.(m)
    end
  in
  List.iter add roots;
  while !stack <> [] do
    let id = List.hd !stack in
    stack := List.tl !stack;
    (match t.nodes.(id).kind with
    | Comb _ ->
        Array.iter add t.low.deps.(id);
        let m = t.low.rport_of.(id) in
        if m >= 0 then add_mem m
    | Register _ ->
        let k = regk.(id) in
        add t.low.reg_d.(k);
        if t.low.reg_en.(k) >= 0 then add t.low.reg_en.(k)
    | Input | Const _ -> ())
  done;
  (* Comparisons restrict to the closure's sequential elements:
     between clock cycles every comb value is a pure function of
     registers, memories and primary inputs, and the hang detector
     mixes the inputs' driver state (bus countdowns, ready flags, write
     counts) into its fingerprint separately — so register+memory
     recurrence already implies recurrence of every node in the
     closure, at a fraction of the per-observation cost. *)
  Array.iteri
    (fun id nd ->
      match nd.kind with
      | Register _ -> ()
      | Input | Const _ | Comb _ -> inc.(id) <- false)
    t.nodes;
  t.cone <- inc;
  t.cone_mems <- incm

let coned t = Array.length t.cone > 0

let same_state t snap =
  check_elab t;
  if not (coned t) then
    int_arrays_equal t.values snap.snap_values
    && Array.for_all Fun.id
         (Array.mapi (fun m info -> int_arrays_equal info.data snap.snap_mems.(m)) t.mem_arr)
  else
    (* the cone holds registers only, so walking [regs] visits every
       compared node without scanning the full node table *)
    Array.for_all
      (fun id ->
        (not (Array.unsafe_get t.cone id))
        || Array.unsafe_get t.values id = Array.unsafe_get snap.snap_values id)
      t.low.regs
    && Array.for_all Fun.id
         (Array.mapi
            (fun m info ->
              (not t.cone_mems.(m)) || int_arrays_equal info.data snap.snap_mems.(m))
            t.mem_arr)

let state_equal t snap =
  t.cyc = snap.snap_cycle
  && int_arrays_equal t.values snap.snap_values
  && Array.for_all Fun.id
       (Array.mapi (fun m info -> int_arrays_equal info.data snap.snap_mems.(m)) t.mem_arr)

let mix h x =
  let h = (h lxor x) * 0x100000001B3 in
  h lxor (h lsr 31)

(* A fingerprint of the machine's state that ignores the cycle counter
   and pairs with [same_state]: cycle-proof hang detection compares
   states at different cycles, so the counter must stay out of the
   mix. *)
let content_hash t =
  check_elab t;
  let h = ref 0x27D4EB2F165667C5 in
  if not (coned t) then begin
    Array.iter (fun v -> h := mix !h v) t.values;
    Array.iter (fun info -> Array.iter (fun v -> h := mix !h v) info.data) t.mem_arr
  end
  else
    (* Cone registers only — memories stay out of the fingerprint.  The
       hash is a candidate filter, never a proof: every match is
       confirmed by exact comparison ([same_state]) which does include
       the cone memories, so skipping them here can only produce extra
       rejected candidates (counted as collisions), never a wrong or a
       missed proof.  It cuts the per-observation cost from the full
       cache/regfile image (~800 words) to the cone's registers (23 of
       the 28 registers on both Leon3 netlists), which is what the
       watchdog continuation pays every stride. *)
    Array.iter
      (fun id ->
        if Array.unsafe_get t.cone id then h := mix !h (Array.unsafe_get t.values id))
      t.low.regs;
  !h

(* --- lane -> scalar transplant --- *)

type transplant = Machine.transplant

let transplant t tp =
  restore t tp.tp_snap;
  (* the fault is copied again so a transplant value stays reusable;
     the open-line frozen bit (and the SEU applied marker) carry over —
     re-capturing them on the scalar engine would fork the trajectory *)
  t.fault <- Option.map copy_fault tp.tp_fault

let transplant_cycle tp = tp.tp_snap.snap_cycle

(* --- introspection --- *)

let all_nodes t = if t.elaborated then t.nodes else Vec.to_array t.building

let signals t =
  Array.to_list (Array.mapi (fun id nd -> (nd.nm, id, nd.width)) (all_nodes t))

let memories t =
  let arr = if t.elaborated then t.mem_arr else Vec.to_array t.mems in
  Array.to_list (Array.mapi (fun m info -> (info.m_name, m, info.words, info.m_width)) arr)

let signal_width t s = (all_nodes t).(s).width

let signal_name t s = (all_nodes t).(s).nm

let node_count t = if t.elaborated then Array.length t.nodes else t.node_cnt

let injection_bits t ~prefix =
  let sites = ref [] in
  Array.iteri
    (fun id nd ->
      if String.starts_with ~prefix nd.nm then
        for bit = nd.width - 1 downto 0 do
          sites := Node (id, bit) :: !sites
        done)
    (all_nodes t);
  !sites

let site_name t = function
  | Node (s, bit) -> Printf.sprintf "%s[%d]" (all_nodes t).(s).nm bit
  | Cell (m, idx, bit) -> Printf.sprintf "%s[%d][%d]" (mem_info t m).m_name idx bit

(* Structural views *)

type node_view =
  | V_input
  | V_const of int
  | V_comb of signal array
  | V_register of { d : signal; en : signal option; init : int }

let node_view t s =
  check_elab t;
  match t.nodes.(s).kind with
  | Input -> V_input
  | Const v -> V_const v
  | Comb { deps; _ } -> V_comb (Array.copy deps)
  | Register { d; en; init } ->
      V_register { d; en = (if en >= 0 then Some en else None); init }

let read_port_memory t s =
  check_elab t;
  let m = t.low.rport_of.(s) in
  if m >= 0 then Some m else None

let write_ports t m =
  check_elab t;
  Array.to_list
    (Array.map
       (fun { wp_we; wp_addr; wp_data } -> (wp_we, wp_addr, wp_data))
       t.low.mem_ports.(m))

let probe_comb t s args =
  check_elab t;
  if t.low.rport_of.(s) >= 0 then invalid_arg "Circuit.probe_comb: read port";
  match t.nodes.(s).kind with
  | Comb { eval; _ } -> eval args
  | Input | Const _ | Register _ -> invalid_arg "Circuit.probe_comb: not combinational"
