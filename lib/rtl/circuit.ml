type signal = int

type memory = int

exception Combinational_cycle of string
exception Not_elaborated
exception Already_elaborated

type fault_model = Stuck_at_0 | Stuck_at_1 | Open_line | Bit_flip

type fault_site = Node of signal * int | Cell of memory * int * int

type reg_info = { init : int; mutable d : int; mutable en : int }

type kind =
  | Input
  | Const of int
  | Comb of { deps : int array; eval : int array -> int }
  | Register of reg_info

type node = { nm : string; width : int; kind : kind }

type write_port_info = { wp_we : int; wp_addr : int; wp_data : int }

type mem_info = {
  m_name : string;
  words : int;
  m_width : int;
  data : int array;
  mutable write_ports : write_port_info list;  (* reversed during construction *)
  mutable wp_arr : write_port_info array;  (* frozen at elaboration, creation order *)
}

type fault = {
  site : fault_site;
  model : fault_model;
  from_cycle : int;
  duration : int option;  (** [None] = permanent *)
  mutable frozen : int option;
      (** open-line: captured bit value; bit-flip cells: applied marker *)
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

  (* Remove element [i] by swapping the last element into its place. *)
  let swap_pop v i =
    v.n <- v.n - 1;
    v.a.(i) <- v.a.(v.n)

  let to_array v = Array.sub v.a 0 v.n
end

(* Append-only buffer for the deltas of a trace being recorded, in
   fixed-size chunks: growing never copies, so a recording leaves no
   doubled arrays behind for the collector.  A trace is a campaign's
   largest allocation, recorded once per program; once the golden run
   allocates little else, the garbage of a doubling buffer is what
   sets a campaign's peak memory. *)
module Chunks = struct
  let size = 1 lsl 16

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

  let to_array c =
    let fill = c.len - (size * List.length c.full) in
    Array.concat (List.rev (Array.sub c.cur 0 fill :: c.full))
end

(* --- golden value trace --- *)

(* A trace is the golden run's complete per-cycle settled state,
   delta-compressed: for every cycle the set of nodes whose value
   changed (packed [(id << 32) | value]).  The batch engine starts from
   the cycle-0 state a fresh [load] settles into, advances its golden
   machine by these deltas and commits golden memory writes itself, so
   the deltas are all it needs.  The first recorded settle only primes
   the previous state, so cycle 0 holds no deltas and a recording does
   not depend on what the circuit ran before. *)
type trace = {
  tr_len : int;  (* settled cycles recorded: 0 .. tr_len-1 *)
  tr_delta : int array;
  tr_dend : int array;  (* per cycle: end offset of its delta run *)
}

type trace_builder = {
  tb_prev : int array;  (* last recorded value per node, once primed *)
  tb_delta : Chunks.t;
  tb_dend : int Vec.t;
  mutable tb_upto : int;  (* highest cycle recorded, -1 before the first settle *)
}

let pack_delta id v = (id lsl 32) lor v

let delta_id p = p lsr 32

let delta_val p = p land 0xFFFFFFFF


(* --- levelized schedule --- *)

(* The levelized evaluation schedule the lane engine sweeps: per-node
   combinational fanout (deduplicated comb sink ids), per-node comb
   level, and each memory's read-port nodes.  Lowered once at
   elaboration; [Analysis.Graph.replay_plan] derives the same record
   from the structural views. *)
type replay_plan = {
  rp_fanout : int array array;
  rp_level : int array;
  rp_max_level : int;
  rp_mem_readers : int array array;
}

let dummy_node = { nm = ""; width = 1; kind = Input }

let dummy_mem =
  { m_name = ""; words = 0; m_width = 1; data = [||]; write_ports = []; wp_arr = [||] }

(* --- bit-parallel fault batching (PPSFP) --- *)

(* One native int per node packs up to 63 faulty machines: bit [l] of
   [bt_diff.(id)] says lane [l]'s value of node [id] differs from the
   golden machine (whose values live in [t.values], advanced from the
   golden trace).  Lane values are stored densely at
   [(id lsl lane_shift) lor l] and are only meaningful where the diff
   bit is set, so a batch settle propagates "needs evaluation" lane
   sets with bitwise ORs and every clean (node, lane) pair costs
   nothing. *)

let lane_shift = 6

let max_lanes = 63  (* a native int keeps 63 usable bits: the golden
                       machine is implicit, lanes 0..62 are faulty *)

type batch_stats = {
  bs_evals : int;  (* per-lane comb evaluations performed *)
  bs_dense_evals : int;  (* evaluations [lanes] dense sweeps would have cost *)
}

type settle_stats = {
  ss_evals : int;  (* comb evaluations scalar settles performed *)
  ss_dense_evals : int;  (* comb nodes x scalar settles *)
}

(* Sparse per-memory lane overlay: a cell has an entry only while some
   lane's content differs from the golden (base) content. *)
type batch = {
  bt_tr : trace;
  mutable bt_active : int;  (* mask of live lanes *)
  bt_diff : int array;  (* per node: diverged-lane mask *)
  bt_lane : int array;  (* (id lsl lane_shift) lor lane -> lane value *)
  bt_faults : fault option array;  (* per lane *)
  bt_fnode : int array;  (* per lane: faulted node id (Node sites), -1 *)
  bt_fsrc : bool array;  (* per lane: faulted node is a source (non-comb) *)
  bt_ov : int array array;  (* per memory: lane values, [(idx lsl lane_shift) lor l] *)
  bt_ovl : int array array;  (* per memory: per-cell diverged-lane mask *)
  bt_mem_lanes : int array;  (* per memory: lanes with >= 1 overlay entry *)
  bt_mem_cnt : int array array;  (* per memory, per lane: entry count *)
  bt_cellf : int array;  (* per memory: lanes with an armed cell fault *)
  bt_pend : int array;  (* per node: lanes awaiting evaluation this settle *)
  bt_stamped : int Vec.t;
      (* nodes whose effective value moved since the last settle: trace
         deltas, clock-committed lane registers and lane input changes.
         This is the entire seed set — a divergence cone none of whose
         members moved contributes nothing to the next settle. *)
  bt_mem_dirty : int array;
      (* per memory: lanes whose view of some cell moved since the last
         settle (overlay set/drop, golden base write, forced cell
         fault) — the only lanes whose read ports must re-derive when
         their address input is quiet *)
  bt_views : int array;  (* write-commit scratch, per lane *)
  bt_regnext : int array;  (* (k lsl lane_shift) lor lane *)
  bt_regpend : int array;  (* per register slot: lanes sampled this clock *)
  bt_ov_ids : int array;  (* eval scratch: overridden dependency ids *)
  bt_ov_vals : int array;  (* eval scratch: saved golden values *)
  bt_sc_fire : int array;  (* write-commit scratch, per lane *)
  bt_sc_idx : int array;
  bt_sc_val : int array;
  bt_nstamp : int array;
      (* per node: cycle of the last effective-value change (a golden
         trace delta, or a lane value / diff-bit change).  A pending
         node none of whose dependencies carry the current cycle's
         stamp would recompute exactly what it computed last settle, so
         the evaluator skips it — the change-driven pruning that makes
         a quiescent divergence cone cost nothing per cycle. *)
  bt_fsite : int array;
      (* per node: lanes with a combinational fault site here — exempt
         from stamp skipping (the fault window opens and closes on the
         cycle counter, not on any dependency) *)
  bt_regof : int array array;
      (* per node: register slots watching it as q, d or enable *)
  bt_regset : int Vec.t;  (* slots with any divergence on q/d/en *)
  bt_regmem : bool array;  (* per slot: member of [bt_regset] *)
  bt_regactive : int Vec.t;  (* slots sampled by this clock's phase 1 *)
  mutable bt_evals : int;
  mutable bt_dense : int;
}

type t = {
  c_name : string;
  building : node Vec.t;
  mutable scopes : string list;
  mems : mem_info Vec.t;
  mutable rports : (int * int) list;  (* read-port node id -> memory id *)
  mutable node_cnt : int;
  mutable mem_cnt : int;
  (* elaboration products *)
  mutable nodes : node array;
  mutable mem_arr : mem_info array;
  mutable values : int array;
  mutable masks : int array;
  mutable order : int array;  (* comb schedule *)
  mutable evals : (int array -> int) array;  (* parallel to order *)
  mutable eval_by_id : (int array -> int) array;  (* indexed by node id *)
  mutable deps_by_id : int array array;  (* comb dependencies, [||] otherwise *)
  mutable rport_of : int array;  (* node id -> memory id for read ports, -1 *)
  mutable max_deps : int;
  mutable reg_ids : int array;
  mutable reg_next : int array;
  mutable reg_d : int array;  (* parallel to reg_ids: data input id *)
  mutable reg_en : int array;  (* parallel to reg_ids: enable id or -1 *)
  mutable input_ids : int array;
  mutable compiled : replay_plan option;  (* levelized schedule, per elaboration *)
  mutable wl : Worklist.t;  (* shared by the change-driven settle and batch_settle *)
  mutable by_name : (string, int) Hashtbl.t;
  mutable elaborated : bool;
  mutable cyc : int;
  mutable fault : fault option;
  mutable recording : coverage option;
  mutable tracing : trace_builder option;
  mutable batch : batch option;
  (* The change-driven settle's seeds, cleared by every settle: source
     nodes whose value changed since the last settle (an input set or a
     register committed to a new value; a change-driven settle appends
     the comb nodes it changes, then records from the list), and
     memories whose content changed.  [full_sweep] makes the next
     settle the dense sweep, after a bulk state change the seeds do not
     describe. *)
  moved : int Vec.t;
  marked : int Vec.t;
  mutable mem_marked : bool array;
  mutable full_sweep : bool;
  mutable settle_evals : int;  (* comb evaluations scalar settles made *)
  mutable settle_dense : int;  (* comb nodes x scalar settles *)
  (* observed-cone restriction for recurrence comparison: [||] = no
     cone set, every node and memory compared *)
  mutable cone : bool array;
  mutable cone_mems : bool array;
}

let create c_name =
  { c_name; building = Vec.create dummy_node; scopes = []; mems = Vec.create dummy_mem;
    rports = []; node_cnt = 0; mem_cnt = 0; nodes = [||]; mem_arr = [||]; values = [||];
    masks = [||]; order = [||]; evals = [||]; eval_by_id = [||]; deps_by_id = [||];
    rport_of = [||]; max_deps = 0; reg_ids = [||]; reg_next = [||]; reg_d = [||];
    reg_en = [||]; input_ids = [||]; compiled = None;
    wl = Worklist.create ~level:[||] ~max_level:0; by_name = Hashtbl.create 16;
    elaborated = false; cyc = 0; fault = None; recording = None; tracing = None;
    batch = None; moved = Vec.create 0; marked = Vec.create 0; mem_marked = [||];
    full_sweep = true; settle_evals = 0; settle_dense = 0; cone = [||]; cone_mems = [||] }

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
      write_ports = []; wp_arr = [||] };
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
  let masks = Array.map (fun nd -> (1 lsl nd.width) - 1) nodes in
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
  let reg_ids =
    Array.of_seq
      (Seq.filter_map
         (fun id ->
           match nodes.(id).kind with
           | Register _ -> Some id
           | Input | Const _ | Comb _ -> None)
         (Seq.init n Fun.id))
  in
  t.nodes <- nodes;
  t.mem_arr <- Vec.to_array t.mems;
  (* freeze write ports into creation-order arrays: the per-cycle
     commit loop must not re-reverse a list per memory *)
  Array.iter
    (fun info -> info.wp_arr <- Array.of_list (List.rev info.write_ports))
    t.mem_arr;
  t.values <- Array.make n 0;
  t.masks <- masks;
  t.order <- Array.of_list (List.rev !order);
  t.evals <-
    Array.map
      (fun id ->
        match nodes.(id).kind with
        | Comb { eval; _ } -> eval
        | Input | Const _ | Register _ -> assert false)
      t.order;
  t.eval_by_id <-
    Array.map
      (fun nd ->
        match nd.kind with Comb { eval; _ } -> eval | Input | Const _ | Register _ -> (fun _ -> 0))
      nodes;
  t.reg_ids <- reg_ids;
  t.reg_next <- Array.make (Array.length reg_ids) 0;
  t.reg_d <-
    Array.map
      (fun id ->
        match nodes.(id).kind with
        | Register { d; _ } -> d
        | Input | Const _ | Comb _ -> assert false)
      reg_ids;
  t.reg_en <-
    Array.map
      (fun id ->
        match nodes.(id).kind with
        | Register { en; _ } -> en
        | Input | Const _ | Comb _ -> assert false)
      reg_ids;
  t.input_ids <-
    Array.of_seq
      (Seq.filter_map
         (fun id ->
           match nodes.(id).kind with
           | Input -> Some id
           | Register _ | Const _ | Comb _ -> None)
         (Seq.init n Fun.id));
  let by_name = Hashtbl.create (2 * n) in
  Array.iteri (fun id nd -> if not (Hashtbl.mem by_name nd.nm) then Hashtbl.add by_name nd.nm id) nodes;
  t.by_name <- by_name;
  (* Compiled levelized evaluator: lower the netlist once, at
     elaboration, into the dense per-node arrays the batch settle
     wants — positional dependency arrays, read-port memory ids,
     deduplicated combinational fanout, comb levels and per-memory
     reader lists.  [compiled_plan] exposes the result in the same
     shape (and with the same field semantics) as
     [Analysis.Graph.replay_plan]. *)
  t.deps_by_id <-
    Array.map
      (fun nd ->
        match nd.kind with Comb { deps; _ } -> deps | Input | Const _ | Register _ -> [||])
      nodes;
  t.max_deps <-
    Array.fold_left (fun acc deps -> max acc (Array.length deps)) 1 t.deps_by_id;
  t.rport_of <- Array.make n (-1);
  List.iter (fun (id, m) -> t.rport_of.(id) <- m) t.rports;
  let sinks = Array.make n [] in
  Array.iteri
    (fun id deps -> Array.iter (fun d -> sinks.(d) <- id :: sinks.(d)) deps)
    t.deps_by_id;
  let fanout = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) sinks in
  let levels = Array.make n 0 in
  let max_level = ref 0 in
  Array.iteri
    (fun id deps ->
      match nodes.(id).kind with
      | Comb _ ->
          let deepest = Array.fold_left (fun acc d -> max acc levels.(d)) 0 deps in
          levels.(id) <- deepest + 1;
          if levels.(id) > !max_level then max_level := levels.(id)
      | Input | Const _ | Register _ -> ())
    t.deps_by_id;
  let readers = Array.make (Array.length t.mem_arr) [] in
  List.iter (fun (id, m) -> readers.(m) <- id :: readers.(m)) t.rports;
  t.compiled <-
    Some
      { rp_fanout = fanout;
        rp_level = levels;
        rp_max_level = !max_level;
        rp_mem_readers =
          Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) readers };
  t.wl <- Worklist.create ~level:levels ~max_level:!max_level;
  t.mem_marked <- Array.make (Array.length t.mem_arr) false;
  t.full_sweep <- true;
  t.elaborated <- true

let check_elab t = if not t.elaborated then raise Not_elaborated

(* --- value-coverage recording --- *)

let record_nodes t cov =
  let n = Array.length t.values in
  for id = 0 to n - 1 do
    let v = Array.unsafe_get t.values id in
    Array.unsafe_set cov.cov_seen1 id (Array.unsafe_get cov.cov_seen1 id lor v);
    Array.unsafe_set cov.cov_seen0 id
      (Array.unsafe_get cov.cov_seen0 id lor (Array.unsafe_get t.masks id land lnot v))
  done

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

let reset t =
  check_elab t;
  if t.batch <> None then invalid_arg "Circuit.reset: batch armed";
  Array.iteri
    (fun id nd ->
      t.values.(id) <-
        (match nd.kind with
        | Const v -> v
        | Register { init; _ } -> init land t.masks.(id)
        | Input | Comb _ -> 0))
    t.nodes;
  Array.iter (fun m -> Array.fill m.data 0 m.words 0) t.mem_arr;
  t.cyc <- 0;
  t.full_sweep <- true;
  (match t.fault with Some f -> f.frozen <- None | None -> ());
  match t.recording with
  | Some cov ->
      record_nodes t cov;
      Array.iteri
        (fun m info ->
          let mask = (1 lsl info.m_width) - 1 in
          for idx = 0 to info.words - 1 do
            record_cell cov m idx ~mask 0
          done)
        t.mem_arr
  | None -> ()

let set_input t s v =
  check_elab t;
  if t.batch <> None then invalid_arg "Circuit.set_input: batch armed";
  (match t.nodes.(s).kind with
  | Input -> ()
  | Const _ | Comb _ | Register _ -> invalid_arg "Circuit.set_input: not an input");
  let v = v land t.masks.(s) in
  if v <> t.values.(s) then begin
    t.values.(s) <- v;
    Vec.push t.moved s
  end

(* --- fault machinery --- *)

let fault_active t f =
  t.cyc >= f.from_cycle
  && match f.duration with None -> true | Some d -> t.cyc < f.from_cycle + d

let transform_bit f ~bit v =
  match f.model with
  | Stuck_at_0 -> Bitops.clear_bit bit v
  | Stuck_at_1 -> Bitops.set_bit bit v
  | Bit_flip -> v lxor (1 lsl bit)
  | Open_line -> (
      match f.frozen with
      | Some frozen -> Bitops.update_bit bit (frozen <> 0) v
      | None ->
          (* Capture the floating value at activation. *)
          let b = Bitops.bit bit v in
          f.frozen <- Some b;
          v)

(* The fault rules below are defined once and called by every engine —
   the scalar ones through [t.fault], the lane engine through each
   lane's own fault — so the dense oracle and the batch agree on fault
   semantics by construction. *)

(* A freshly evaluated value of node [id] under [fault]. *)
let node_fault t fault id v =
  match fault with
  | Some ({ site = Node (s, bit); _ } as f) when s = id && fault_active t f ->
      transform_bit f ~bit v
  | Some _ | None -> v

(* The value a write of [v] to cell [(m, idx)] stores under [fault],
   given the cell's pre-write content [cur]. *)
let cell_write t fault m idx ~cur v =
  match fault with
  | Some ({ site = Cell (fm, fidx, bit); _ } as f)
    when fm = m && fidx = idx && fault_active t f -> (
      match f.model with
      | Stuck_at_0 -> Bitops.clear_bit bit v
      | Stuck_at_1 -> Bitops.set_bit bit v
      | Bit_flip -> v
      (* an SEU corrupts content once, not the write path *)
      | Open_line ->
          (* The cell bit is disconnected: the write does not change it. *)
          Bitops.update_bit bit (Bitops.bit bit cur <> 0) v)
  | Some _ | None -> v

(* The content an active cell fault [f] forces into its cell at a
   settle, given the current content [cur], or [None] when it forces
   nothing: stuck-at bits are forced so reads observe them even without
   an intervening write; a single-event upset inverts the content
   exactly once (the fault's [frozen] marker records that it has); an
   open line acts on writes only. *)
let cell_force f ~bit cur =
  match f.model with
  | Stuck_at_0 -> Some (Bitops.clear_bit bit cur)
  | Stuck_at_1 -> Some (Bitops.set_bit bit cur)
  | Bit_flip when f.frozen = None ->
      f.frozen <- Some 1;
      Some (cur lxor (1 lsl bit))
  | Bit_flip | Open_line -> None

let write_cell t m idx v =
  let info = t.mem_arr.(m) in
  let v = cell_write t t.fault m idx ~cur:info.data.(idx) v in
  let mask = (1 lsl info.m_width) - 1 in
  let v = v land mask in
  if v <> info.data.(idx) then begin
    info.data.(idx) <- v;
    if not t.mem_marked.(m) then begin
      t.mem_marked.(m) <- true;
      Vec.push t.marked m
    end
  end;
  match t.recording with
  | Some cov -> record_cell cov m idx ~mask v
  | None -> ()

let refresh_cell_fault t =
  match t.fault with
  | Some ({ site = Cell (m, idx, bit); _ } as f) when fault_active t f -> (
      let info = t.mem_arr.(m) in
      if idx < info.words then
        match cell_force f ~bit info.data.(idx) with
        | Some v -> info.data.(idx) <- v
        | None -> ())
  | Some _ | None -> ()

let inject t ?(from_cycle = 0) ?duration site model =
  if t.batch <> None then invalid_arg "Circuit.inject: batch armed (use batch_arm)";
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
  if t.batch <> None then invalid_arg "Circuit.trace_start: batch armed";
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
        tr_delta = Chunks.to_array tb.tb_delta;
        tr_dend = Vec.to_array tb.tb_dend }

let trace_cycles tr = tr.tr_len

let trace_deltas tr c =
  if c < 0 || c >= tr.tr_len then invalid_arg "Circuit.trace_deltas: cycle out of range";
  let lo = if c = 0 then 0 else tr.tr_dend.(c - 1) in
  Array.init (tr.tr_dend.(c) - lo) (fun i ->
      let p = tr.tr_delta.(lo + i) in
      (delta_id p, delta_val p))

(* --- simulation --- *)

let dense_settle t =
  refresh_cell_fault t;
  (* A fault on a source node (input/const/register) is applied to its
     stored value before combinational propagation. *)
  (match t.fault with
  | Some ({ site = Node (s, bit); _ } as f) when fault_active t f -> (
      match t.nodes.(s).kind with
      | Input | Const _ | Register _ -> t.values.(s) <- transform_bit f ~bit t.values.(s)
      | Comb _ -> ())
  | Some _ | None -> ());
  let order = t.order in
  let evals = t.evals in
  let values = t.values in
  let masks = t.masks in
  (* Single compare per node in the hot loop: the armed comb fault id,
     or -1 when no comb-node fault is active this cycle. *)
  let fnode =
    match t.fault with
    | Some ({ site = Node (s, _); _ } as f) when fault_active t f -> (
        match t.nodes.(s).kind with Comb _ -> s | Input | Const _ | Register _ -> -1)
    | Some _ | None -> -1
  in
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
      Array.unsafe_set values id (if id = fnode then node_fault t t.fault id v else v)
    done;
  (match t.tracing with Some tb -> trace_record t tb | None -> ());
  match t.recording with Some cov -> record_nodes t cov | None -> ()

let queue_fanout wl fanout id =
  let fo = Array.unsafe_get fanout id in
  for j = 0 to Array.length fo - 1 do
    ignore (Worklist.push wl (Array.unsafe_get fo j))
  done

(* The change-driven settle, for a fault-free circuit whose comb values
   are settled except for the seeds: evaluate, in level order, only the
   comb nodes with a dependency that moved (a seed, or a node this
   settle changed) and the read ports of memories whose content changed.
   Exact because evaluators are pure functions of their dependency
   values (and, for a read port, of its memory's content).  Each node
   that moved is appended to [t.moved], so recording afterwards costs
   per changed node: an unchanged node's value was recorded at the
   settle where it last changed, or at the full sweep that started the
   recording. *)
let event_settle t =
  let rp = match t.compiled with Some p -> p | None -> raise Not_elaborated in
  let wl = t.wl and fanout = rp.rp_fanout and moved = t.moved in
  let values = t.values and masks = t.masks and evals = t.eval_by_id in
  Worklist.start wl;
  for i = 0 to Vec.length moved - 1 do
    queue_fanout wl fanout (Vec.get moved i)
  done;
  for i = 0 to Vec.length t.marked - 1 do
    let rd = rp.rp_mem_readers.(Vec.get t.marked i) in
    for j = 0 to Array.length rd - 1 do
      ignore (Worklist.push wl (Array.unsafe_get rd j))
    done
  done;
  let nev = ref 0 in
  for lvl = 1 to Worklist.max_level wl do
    let b = Worklist.bucket wl lvl and n = Worklist.length wl lvl in
    for i = 0 to n - 1 do
      let id = Array.unsafe_get b i in
      let v = (Array.unsafe_get evals id) values land Array.unsafe_get masks id in
      if v <> Array.unsafe_get values id then begin
        Array.unsafe_set values id v;
        Vec.push moved id;
        queue_fanout wl fanout id
      end
    done;
    nev := !nev + n
  done;
  t.settle_evals <- t.settle_evals + !nev;
  (match t.tracing with
  | Some tb ->
      trace_open t tb;
      let prev = tb.tb_prev in
      for i = 0 to Vec.length moved - 1 do
        let id = Vec.get moved i in
        let v = Array.unsafe_get values id in
        if v <> Array.unsafe_get prev id then begin
          Chunks.push tb.tb_delta (pack_delta id v);
          Array.unsafe_set prev id v
        end
      done;
      Vec.set tb.tb_dend t.cyc (Chunks.length tb.tb_delta)
  | None -> ());
  match t.recording with
  | Some cov ->
      for i = 0 to Vec.length moved - 1 do
        let id = Vec.get moved i in
        let v = Array.unsafe_get values id in
        Array.unsafe_set cov.cov_seen1 id (Array.unsafe_get cov.cov_seen1 id lor v);
        Array.unsafe_set cov.cov_seen0 id
          (Array.unsafe_get cov.cov_seen0 id lor (Array.unsafe_get masks id land lnot v))
      done
  | None -> ()

(* Dense while a fault is armed (the fault rules live in the dense
   sweep, and it is the oracle the lanes are checked against) and after
   a bulk state change; change-driven otherwise. *)
let settle t =
  check_elab t;
  if t.batch <> None then invalid_arg "Circuit.settle: batch armed (use batch_settle)";
  (match t.fault with
  | None when not t.full_sweep -> event_settle t
  | None | Some _ ->
      dense_settle t;
      t.settle_evals <- t.settle_evals + Array.length t.order;
      t.full_sweep <- false);
  t.settle_dense <- t.settle_dense + Array.length t.order;
  Vec.clear t.moved;
  for i = 0 to Vec.length t.marked - 1 do
    t.mem_marked.(Vec.get t.marked i) <- false
  done;
  Vec.clear t.marked

let clock t =
  check_elab t;
  if t.batch <> None then invalid_arg "Circuit.clock: batch armed (use batch_clock)";
  let values = t.values and masks = t.masks in
  let reg_ids = t.reg_ids and reg_next = t.reg_next in
  (* Phase 1: sample every register input and write port (data/enable
     ids were lowered into flat arrays at elaboration, so the per-cycle
     sweep has no per-node tag dispatch). *)
  for k = 0 to Array.length reg_ids - 1 do
    let id = reg_ids.(k) and en = t.reg_en.(k) in
    reg_next.(k) <-
      (if en >= 0 && values.(en) = 0 then values.(id)
       else values.(t.reg_d.(k)) land masks.(id))
  done;
  for m = 0 to Array.length t.mem_arr - 1 do
    let info = t.mem_arr.(m) in
    let wps = info.wp_arr in
    for i = 0 to Array.length wps - 1 do
      let { wp_we; wp_addr; wp_data } = wps.(i) in
      if values.(wp_we) <> 0 then begin
        let idx = values.(wp_addr) in
        if idx < info.words then write_cell t m idx values.(wp_data)
      end
    done
  done;
  (* Phase 2: commit; a register that takes a new value seeds the next
     change-driven settle. *)
  for k = 0 to Array.length reg_ids - 1 do
    let id = reg_ids.(k) and v = reg_next.(k) in
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
  if t.batch <> None then invalid_arg "Circuit.mem_write: batch armed";
  let info = t.mem_arr.(m) in
  if idx < info.words then write_cell t m idx v

let compiled_plan t =
  check_elab t;
  match t.compiled with Some p -> p | None -> raise Not_elaborated

(* --- bit-parallel batch control --- *)

let lane_popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + 1) (m land (m - 1)) in
  go 0 m

(* Call [f] on every set lane index of [lanes], lowest first.  Lane
   masks are up to 63 bits, so [Bitops] (32-bit) helpers do not apply. *)
let iter_lanes lanes f =
  let m = ref lanes in
  let l = ref 0 in
  while !m <> 0 do
    if !m land 0xFF = 0 then begin
      m := !m lsr 8;
      l := !l + 8
    end
    else begin
      if !m land 1 <> 0 then f !l;
      m := !m lsr 1;
      incr l
    end
  done

let get_batch t op =
  match t.batch with
  | Some bt -> bt
  | None -> invalid_arg ("Circuit." ^ op ^ ": no batch armed")

let lane_view t bt id l =
  if bt.bt_diff.(id) land (1 lsl l) <> 0 then bt.bt_lane.((id lsl lane_shift) lor l)
  else t.values.(id)

let set_lane t bt id l v =
  let bit = 1 lsl l in
  let d0 = bt.bt_diff.(id) in
  let old = if d0 land bit <> 0 then bt.bt_lane.((id lsl lane_shift) lor l) else t.values.(id) in
  if v = t.values.(id) then bt.bt_diff.(id) <- d0 land lnot bit
  else begin
    bt.bt_diff.(id) <- d0 lor bit;
    bt.bt_lane.((id lsl lane_shift) lor l) <- v;
    if d0 = 0 then begin
      (* first divergence on this node: wake the register slots that
         sample it, so the clock's phase 1 starts visiting them *)
      let ws = bt.bt_regof.(id) in
      for i = 0 to Array.length ws - 1 do
        let k = Array.unsafe_get ws i in
        if not bt.bt_regmem.(k) then begin
          bt.bt_regmem.(k) <- true;
          Vec.push bt.bt_regset k
        end
      done
    end
  end;
  let changed = old <> v in
  if changed then begin
    bt.bt_nstamp.(id) <- t.cyc;
    Vec.push bt.bt_stamped id
  end;
  changed

(* Lane [l]'s view of memory cell [(m, idx)]: its overlay entry while
   the content diverges from the golden (base) array, the base content
   otherwise. *)
let ov_get t bt m idx l =
  if Array.unsafe_get bt.bt_ovl.(m) idx land (1 lsl l) <> 0 then
    Array.unsafe_get bt.bt_ov.(m) ((idx lsl lane_shift) lor l)
  else Array.unsafe_get t.mem_arr.(m).data idx

let ov_drop_bit bt m idx l =
  bt.bt_mem_dirty.(m) <- bt.bt_mem_dirty.(m) lor (1 lsl l);
  bt.bt_ovl.(m).(idx) <- bt.bt_ovl.(m).(idx) land lnot (1 lsl l);
  let c = bt.bt_mem_cnt.(m).(l) - 1 in
  bt.bt_mem_cnt.(m).(l) <- c;
  if c = 0 then bt.bt_mem_lanes.(m) <- bt.bt_mem_lanes.(m) land lnot (1 lsl l)

let ov_set t bt m idx l v =
  let lm = bt.bt_ovl.(m).(idx) in
  if v = t.mem_arr.(m).data.(idx) then begin
    if lm land (1 lsl l) <> 0 then ov_drop_bit bt m idx l
  end
  else begin
    if lm land (1 lsl l) = 0 then begin
      bt.bt_ovl.(m).(idx) <- lm lor (1 lsl l);
      bt.bt_mem_cnt.(m).(l) <- bt.bt_mem_cnt.(m).(l) + 1;
      bt.bt_mem_lanes.(m) <- bt.bt_mem_lanes.(m) lor (1 lsl l);
      bt.bt_mem_dirty.(m) <- bt.bt_mem_dirty.(m) lor (1 lsl l)
    end
    else if bt.bt_ov.(m).((idx lsl lane_shift) lor l) <> v then
      bt.bt_mem_dirty.(m) <- bt.bt_mem_dirty.(m) lor (1 lsl l);
    bt.bt_ov.(m).((idx lsl lane_shift) lor l) <- v
  end

let batch_start t tr =
  check_elab t;
  if t.batch <> None then invalid_arg "Circuit.batch_start: already batching";
  if t.tracing <> None then invalid_arg "Circuit.batch_start: recording a trace";
  if t.fault <> None then invalid_arg "Circuit.batch_start: scalar fault armed";
  if t.cyc <> 0 then invalid_arg "Circuit.batch_start: not at cycle 0";
  if tr.tr_len = 0 then invalid_arg "Circuit.batch_start: empty trace";
  let n = Array.length t.values in
  let nmems = Array.length t.mem_arr in
  let nregs = Array.length t.reg_ids in
  let regof =
    let ls = Array.make n [] in
    let watch id k = if id >= 0 then ls.(id) <- k :: ls.(id) in
    for k = 0 to nregs - 1 do
      watch t.reg_ids.(k) k;
      watch t.reg_d.(k) k;
      watch t.reg_en.(k) k
    done;
    let empty = [||] in
    Array.map (function [] -> empty | l -> Array.of_list l) ls
  in
  t.batch <-
    Some
      { bt_tr = tr;
        bt_active = 0;
        bt_diff = Array.make n 0;
        bt_lane = Array.make (n lsl lane_shift) 0;
        bt_faults = Array.make max_lanes None;
        bt_fnode = Array.make max_lanes (-1);
        bt_fsrc = Array.make max_lanes false;
        bt_ov =
          Array.init nmems (fun m -> Array.make (t.mem_arr.(m).words lsl lane_shift) 0);
        bt_ovl = Array.init nmems (fun m -> Array.make t.mem_arr.(m).words 0);
        bt_mem_lanes = Array.make nmems 0;
        bt_mem_cnt = Array.init nmems (fun _ -> Array.make max_lanes 0);
        bt_cellf = Array.make nmems 0;
        bt_pend = Array.make n 0;
        bt_stamped = Vec.create 0;
        bt_mem_dirty = Array.make nmems 0;
        bt_views = Array.make max_lanes 0;
        bt_regnext = Array.make (max nregs 1 lsl lane_shift) 0;
        bt_regpend = Array.make (max nregs 1) 0;
        bt_ov_ids = Array.make t.max_deps 0;
        bt_ov_vals = Array.make t.max_deps 0;
        bt_sc_fire = Array.make max_lanes 0;
        bt_sc_idx = Array.make max_lanes 0;
        bt_sc_val = Array.make max_lanes 0;
        bt_nstamp = Array.make n 0;
        bt_fsite = Array.make n 0;
        bt_regof = regof;
        bt_regset = Vec.create 0;
        bt_regmem = Array.make (max nregs 1) false;
        bt_regactive = Vec.create 0;
        bt_evals = 0;
        bt_dense = 0 }

let batch_arm t lane ?(from_cycle = 0) ?duration site model =
  let bt = get_batch t "batch_arm" in
  if lane < 0 || lane >= max_lanes then invalid_arg "Circuit.batch_arm: bad lane";
  if bt.bt_active land (1 lsl lane) <> 0 then invalid_arg "Circuit.batch_arm: lane in use";
  bt.bt_faults.(lane) <- Some { site; model; from_cycle; duration; frozen = None };
  bt.bt_active <- bt.bt_active lor (1 lsl lane);
  match site with
  | Node (s, _) ->
      bt.bt_fnode.(lane) <- s;
      let src =
        match t.nodes.(s).kind with
        | Comb _ -> false
        | Input | Const _ | Register _ -> true
      in
      bt.bt_fsrc.(lane) <- src;
      if not src then bt.bt_fsite.(s) <- bt.bt_fsite.(s) lor (1 lsl lane)
  | Cell (m, _, _) ->
      bt.bt_fnode.(lane) <- -1;
      bt.bt_fsrc.(lane) <- false;
      bt.bt_cellf.(m) <- bt.bt_cellf.(m) lor (1 lsl lane)

let batch_retire t lane =
  let bt = get_batch t "batch_retire" in
  let bit = 1 lsl lane in
  if bt.bt_active land bit = 0 then invalid_arg "Circuit.batch_retire: lane not active";
  bt.bt_active <- bt.bt_active land lnot bit;
  bt.bt_faults.(lane) <- None;
  (if bt.bt_fnode.(lane) >= 0 && not bt.bt_fsrc.(lane) then
     let s = bt.bt_fnode.(lane) in
     bt.bt_fsite.(s) <- bt.bt_fsite.(s) land lnot bit);
  bt.bt_fnode.(lane) <- -1;
  bt.bt_fsrc.(lane) <- false;
  let diff = bt.bt_diff in
  for id = 0 to Array.length diff - 1 do
    diff.(id) <- diff.(id) land lnot bit
  done;
  Array.iteri
    (fun m _ ->
      bt.bt_cellf.(m) <- bt.bt_cellf.(m) land lnot bit;
      if bt.bt_mem_cnt.(m).(lane) > 0 then begin
        let ovl = bt.bt_ovl.(m) in
        for idx = 0 to Array.length ovl - 1 do
          if ovl.(idx) land bit <> 0 then ov_drop_bit bt m idx lane
        done
      end)
    t.mem_arr

let batch_set_input t s lane v =
  let bt = get_batch t "batch_set_input" in
  (match t.nodes.(s).kind with
  | Input -> ()
  | Const _ | Comb _ | Register _ -> invalid_arg "Circuit.batch_set_input: not an input");
  ignore (set_lane t bt s lane (v land t.masks.(s)))

let batch_value t s lane =
  let bt = get_batch t "batch_value" in
  lane_view t bt s lane

let batch_settle t =
  check_elab t;
  let bt = get_batch t "batch_settle" in
  let rp = match t.compiled with Some p -> p | None -> assert false in
  let active = bt.bt_active in
  if active <> 0 then begin
    bt.bt_dense <- bt.bt_dense + (lane_popcount active * Array.length t.order);
    (* forced cell faults, per lane, as [refresh_cell_fault] *)
    iter_lanes active (fun l ->
        match bt.bt_faults.(l) with
        | Some ({ site = Cell (m, idx, bit); _ } as f)
          when fault_active t f && idx < t.mem_arr.(m).words -> (
            match cell_force f ~bit (ov_get t bt m idx l) with
            | Some v -> ov_set t bt m idx l v
            | None -> ())
        | Some _ | None -> ());
    (* transform faulted sources before seeding: the resulting value
       changes (divergence, toggle or heal) land in [bt_stamped] and
       seed the sweep exactly like any other change *)
    iter_lanes active (fun l ->
        match bt.bt_faults.(l) with
        | Some ({ site = Node (s, bit); _ } as f) when bt.bt_fsrc.(l) ->
            if fault_active t f then
              ignore (set_lane t bt s l (transform_bit f ~bit (lane_view t bt s l)))
        | Some _ | None -> ());
    (* seed the levelized worklist with per-node lane masks *)
    let wl = t.wl in
    Worklist.start wl;
    let push_node id lanes =
      if lanes <> 0 then
        if Worklist.push wl id then bt.bt_pend.(id) <- lanes
        else bt.bt_pend.(id) <- bt.bt_pend.(id) lor lanes
    in
    let push_fanout id lanes =
      if lanes <> 0 then Array.iter (fun s -> push_node s lanes) rp.rp_fanout.(id)
    in
    let cyc = t.cyc in
    let nstamp = bt.bt_nstamp in
    (* Change-driven seeding: between two settles a lane's view of a
       node can only move through a node in [bt_stamped] (a golden
       trace delta, a clock-committed lane register, a lane input
       change) or through memory content, tracked per memory in
       [bt_mem_dirty].  A divergence cone none of whose members moved
       seeds nothing and costs nothing this cycle. *)
    let nseed = Vec.length bt.bt_stamped in
    for i = 0 to nseed - 1 do
      let id = Vec.get bt.bt_stamped i in
      if Array.unsafe_get nstamp id = cyc then push_fanout id active
    done;
    (* combinational fault sites evaluate every settle while armed —
       the injection window tracks the cycle counter, not the inputs,
       and a closed window heals its residual on the next evaluation *)
    iter_lanes active (fun l ->
        match bt.bt_faults.(l) with
        | Some { site = Node (s, _); _ } when not bt.bt_fsrc.(l) ->
            push_node s (1 lsl l)
        | Some _ | None -> ());
    Array.iteri
      (fun m _ ->
        let lanes = (bt.bt_mem_dirty.(m) lor bt.bt_cellf.(m)) land active in
        if lanes <> 0 then Array.iter (fun id -> push_node id lanes) rp.rp_mem_readers.(m))
      t.mem_arr;
    (* evaluate the affected (node, lane) pairs in level order: an
       evaluation can only push strictly deeper nodes *)
    let nev = ref 0 in
    let diff = bt.bt_diff in
    for lvl = 1 to rp.rp_max_level do
      let b = Worklist.bucket wl lvl in
      for i = 0 to Worklist.length wl lvl - 1 do
        let id = Array.unsafe_get b i in
        let need =
          let rm = t.rport_of.(id) in
          if rm >= 0 then begin
            (* a read port re-derives when its address input moved
               (golden delta or lane change) or when some lane's view
               of the array content did; a port with a diverged but
               quiet address over quiet content is exact as stored *)
            let dirty = bt.bt_mem_dirty.(rm) lor bt.bt_cellf.(rm) in
            let addr = t.deps_by_id.(id).(0) in
            (if Array.unsafe_get nstamp addr = cyc then
               bt.bt_pend.(id)
               land (diff.(id) lor diff.(addr) lor bt.bt_mem_lanes.(rm) lor dirty)
             else bt.bt_pend.(id) land dirty)
            (* a faulted read port transforms on the cycle counter, not
               on its inputs: evaluate its lane unconditionally *)
            lor (bt.bt_pend.(id) land bt.bt_fsite.(id))
          end
          else begin
            (* change-driven pruning: with no dependency stamped this
               cycle the node would recompute last settle's values;
               the relevance mask restricts evaluation to lanes that
               diverge somewhere across the node's cut (clean lanes
               track the golden trace for free) *)
            let deps = t.deps_by_id.(id) in
            let fresh = ref false in
            let rel = ref (Array.unsafe_get diff id) in
            for j = 0 to Array.length deps - 1 do
              let d = Array.unsafe_get deps j in
              if Array.unsafe_get nstamp d = cyc then fresh := true;
              rel := !rel lor Array.unsafe_get diff d
            done;
            (if !fresh then bt.bt_pend.(id) land !rel else 0)
            lor (bt.bt_pend.(id) land bt.bt_fsite.(id))
          end
        in
        let need = need land active in
        if need <> 0 then begin
          let rm = t.rport_of.(id) in
          let values = t.values in
          let deps = t.deps_by_id.(id) in
          (* group the lanes of one node: deps diverged in any needed
             lane are saved once, written per lane, restored once *)
          let nov = ref 0 in
          if rm < 0 then
            for i = 0 to Array.length deps - 1 do
              let d = Array.unsafe_get deps i in
              if Array.unsafe_get diff d land need <> 0 then begin
                bt.bt_ov_ids.(!nov) <- d;
                bt.bt_ov_vals.(!nov) <- Array.unsafe_get values d;
                incr nov
              end
            done;
          let m = ref need in
          let l = ref 0 in
          while !m <> 0 do
            if !m land 0xFF = 0 then begin
              m := !m lsr 8;
              l := !l + 8
            end
            else begin
              (if !m land 1 <> 0 then begin
                 let l = !l in
                 let v0 =
                   if rm >= 0 then begin
                     let a = lane_view t bt (Array.unsafe_get deps 0) l in
                     (if a < t.mem_arr.(rm).words then ov_get t bt rm a l else 0)
                     land t.masks.(id)
                   end
                   else begin
                     let bitl = 1 lsl l in
                     for j = 0 to !nov - 1 do
                       let d = Array.unsafe_get bt.bt_ov_ids j in
                       Array.unsafe_set values d
                         (if Array.unsafe_get diff d land bitl <> 0 then
                            Array.unsafe_get bt.bt_lane ((d lsl lane_shift) lor l)
                          else Array.unsafe_get bt.bt_ov_vals j)
                     done;
                     t.eval_by_id.(id) values land t.masks.(id)
                   end
                 in
                 let v =
                   if bt.bt_fnode.(l) = id then node_fault t bt.bt_faults.(l) id v0 else v0
                 in
                 incr nev;
                 if set_lane t bt id l v then push_fanout id (1 lsl l)
               end);
              m := !m lsr 1;
              incr l
            end
          done;
          for j = !nov - 1 downto 0 do
            Array.unsafe_set values bt.bt_ov_ids.(j) bt.bt_ov_vals.(j)
          done
        end
      done
    done;
    bt.bt_evals <- bt.bt_evals + !nev;
    Array.iteri (fun m _ -> bt.bt_mem_dirty.(m) <- 0) t.mem_arr
  end

let batch_clock t =
  check_elab t;
  let bt = get_batch t "batch_clock" in
  if t.cyc + 1 >= bt.bt_tr.tr_len then
    invalid_arg "Circuit.batch_clock: clock past the end of the trace";
  let active = bt.bt_active in
  let values = t.values in
  (* Phase 1: sample lane register inputs.  Lanes clean on d/en/q
     follow the golden commit for free via the trace delta.  Only the
     slots in [bt_regset] — woken by [set_lane] on a node's first
     divergence — can have work; slots whose divergence has fully
     healed are pruned on the way. *)
  Vec.clear bt.bt_regactive;
  let i = ref 0 in
  while !i < Vec.length bt.bt_regset do
    let k = Vec.get bt.bt_regset !i in
    let id = t.reg_ids.(k) in
    let d = t.reg_d.(k) and en = t.reg_en.(k) in
    let union =
      bt.bt_diff.(id) lor bt.bt_diff.(d) lor if en >= 0 then bt.bt_diff.(en) else 0
    in
    if union = 0 then begin
      bt.bt_regmem.(k) <- false;
      Vec.swap_pop bt.bt_regset !i
    end
    else begin
      let lanes = union land active in
      if lanes <> 0 then begin
        bt.bt_regpend.(k) <- lanes;
        Vec.push bt.bt_regactive k;
        iter_lanes lanes (fun l ->
            bt.bt_regnext.((k lsl lane_shift) lor l) <-
              (if en >= 0 && lane_view t bt en l = 0 then lane_view t bt id l
               else lane_view t bt d l land t.masks.(id)))
      end;
      incr i
    end
  done;
  (* Phase 2: commit memory writes — the golden action goes to the
     base arrays, diverged-lane actions go to the overlays, processed
     in write-port order exactly like [clock]. *)
  Array.iteri
    (fun m info ->
      let mask = (1 lsl info.m_width) - 1 in
      let wps = info.wp_arr in
      for p = 0 to Array.length wps - 1 do
        let { wp_we; wp_addr; wp_data } = wps.(p) in
        let special =
          (bt.bt_diff.(wp_we) lor bt.bt_diff.(wp_addr) lor bt.bt_diff.(wp_data)
          lor bt.bt_cellf.(m))
          land active
        in
        (* lane write actions; value transforms (cell faults on the
           write path) read the pre-write view, like [write_cell] *)
        let wrl = ref 0 in
        iter_lanes special (fun l ->
            bt.bt_sc_fire.(l) <- 0;
            if lane_view t bt wp_we l <> 0 then begin
              let idx = lane_view t bt wp_addr l in
              if idx < info.words then begin
                let v =
                  cell_write t bt.bt_faults.(l) m idx ~cur:(ov_get t bt m idx l)
                    (lane_view t bt wp_data l)
                in
                bt.bt_sc_fire.(l) <- 1;
                bt.bt_sc_idx.(l) <- idx;
                bt.bt_sc_val.(l) <- v land mask;
                wrl := !wrl lor (1 lsl l)
              end
            end);
        if values.(wp_we) <> 0 then begin
          let gidx = values.(wp_addr) in
          if gidx < info.words then begin
            let gv = values.(wp_data) land mask in
            (* diverged lanes not writing this cell keep their view
               across the base change; clean lanes wrote [gv] to it
               themselves, so any stale overlay they held here heals *)
            let preserve = ref 0 in
            let views = bt.bt_views in
            iter_lanes special (fun l ->
                if not (bt.bt_sc_fire.(l) = 1 && bt.bt_sc_idx.(l) = gidx) then begin
                  views.(l) <- ov_get t bt m gidx l;
                  preserve := !preserve lor (1 lsl l)
                end);
            (if info.data.(gidx) <> gv then begin
               (* base content moved: lanes that bypass the golden
                  read-port value — overlay holders and lanes reading
                  through a diverged address — must re-derive *)
               let d = ref bt.bt_mem_lanes.(m) in
               (match t.compiled with
               | Some rp ->
                   Array.iter
                     (fun rid -> d := !d lor bt.bt_diff.(t.deps_by_id.(rid).(0)))
                     rp.rp_mem_readers.(m)
               | None -> ());
               bt.bt_mem_dirty.(m) <- bt.bt_mem_dirty.(m) lor !d
             end);
            info.data.(gidx) <- gv;
            (let drop = bt.bt_ovl.(m).(gidx) land active land lnot special in
             if drop <> 0 then iter_lanes drop (fun l -> ov_drop_bit bt m gidx l));
            iter_lanes !preserve (fun l -> ov_set t bt m gidx l views.(l))
          end
        end;
        iter_lanes !wrl (fun l -> ov_set t bt m bt.bt_sc_idx.(l) l bt.bt_sc_val.(l))
      done)
    t.mem_arr;
  (* Phase 3: advance the golden machine wholesale from the trace *)
  t.cyc <- t.cyc + 1;
  let c = t.cyc in
  let dend = bt.bt_tr.tr_dend and delta = bt.bt_tr.tr_delta in
  let nstamp = bt.bt_nstamp in
  (* the seed set restarts here: stale entries from the settle that
     just ran describe changes its sweep already propagated *)
  Vec.clear bt.bt_stamped;
  for i = dend.(c - 1) to dend.(c) - 1 do
    let p = Array.unsafe_get delta i in
    let id = delta_id p in
    Array.unsafe_set values id (delta_val p);
    (* a delta is by definition an effective-value change for every
       lane that is clean on this node *)
    Array.unsafe_set nstamp id c;
    Vec.push bt.bt_stamped id
  done;
  (* Phase 4: commit sampled lane registers against the new golden *)
  for i = 0 to Vec.length bt.bt_regactive - 1 do
    let k = Vec.get bt.bt_regactive i in
    let id = t.reg_ids.(k) in
    iter_lanes bt.bt_regpend.(k) (fun l ->
        ignore (set_lane t bt id l bt.bt_regnext.((k lsl lane_shift) lor l)))
  done

let batch_stop t =
  match t.batch with
  | None -> invalid_arg "Circuit.batch_stop: no batch armed"
  | Some bt ->
      t.batch <- None;
      t.full_sweep <- true;
      { bs_evals = bt.bt_evals; bs_dense_evals = bt.bt_dense }

let batch_armed t = t.batch <> None

(* Values are compared, not diff bits: a lane's diff bit can outlive
   its divergence when the golden machine moves onto the lane's value. *)
let batch_lane_golden t lane =
  let bt = get_batch t "batch_lane_golden" in
  if bt.bt_active land (1 lsl lane) = 0 then
    invalid_arg "Circuit.batch_lane_golden: lane not active";
  let rec nodes id = id < 0 || (lane_view t bt id lane = t.values.(id) && nodes (id - 1)) in
  let rec cells m idx =
    idx < 0 || (ov_get t bt m idx lane = t.mem_arr.(m).data.(idx) && cells m (idx - 1))
  in
  let rec mems m =
    m < 0
    || (bt.bt_mem_lanes.(m) land (1 lsl lane) = 0 || cells m (t.mem_arr.(m).words - 1))
       && mems (m - 1)
  in
  nodes (Array.length t.values - 1) && mems (Array.length t.mem_arr - 1)

let batch_active t = match t.batch with Some bt -> bt.bt_active | None -> 0

(* --- state snapshots (campaign checkpointing) --- *)

type snapshot = {
  snap_values : int array;
  snap_mems : int array array;
  snap_cycle : int;
}

let snapshot t =
  check_elab t;
  { snap_values = Array.copy t.values;
    snap_mems = Array.map (fun m -> Array.copy m.data) t.mem_arr;
    snap_cycle = t.cyc }

let restore t snap =
  check_elab t;
  if t.batch <> None then invalid_arg "Circuit.restore: batch armed";
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
  Array.iteri (fun k id -> regk.(id) <- k) t.reg_ids;
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
        t.mem_arr.(m).wp_arr
    end
  in
  List.iter add roots;
  while !stack <> [] do
    let id = List.hd !stack in
    stack := List.tl !stack;
    (match t.nodes.(id).kind with
    | Comb _ ->
        Array.iter add t.deps_by_id.(id);
        let m = t.rport_of.(id) in
        if m >= 0 then add_mem m
    | Register _ ->
        let k = regk.(id) in
        add t.reg_d.(k);
        if t.reg_en.(k) >= 0 then add t.reg_en.(k)
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
    (* the cone holds registers only, so walking [reg_ids] visits every
       compared node without scanning the full node table *)
    Array.for_all
      (fun id ->
        (not (Array.unsafe_get t.cone id))
        || Array.unsafe_get t.values id = Array.unsafe_get snap.snap_values id)
      t.reg_ids
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
       cache/regfile image (~800 words) to the register file of the
       cone (~a few hundred), which is what the watchdog continuation
       pays every stride. *)
    Array.iter
      (fun id ->
        if Array.unsafe_get t.cone id then h := mix !h (Array.unsafe_get t.values id))
      t.reg_ids;
  !h

(* --- lane -> scalar transplant --- *)

type transplant = { tp_snap : snapshot; tp_fault : fault option }

let copy_fault f = { f with frozen = f.frozen }

let batch_eject t lane =
  let bt = get_batch t "batch_eject" in
  if bt.bt_active land (1 lsl lane) = 0 then
    invalid_arg "Circuit.batch_eject: lane not active";
  { tp_snap =
      { snap_values = Array.init (Array.length t.values) (fun id -> lane_view t bt id lane);
        snap_mems =
          Array.init (Array.length t.mem_arr) (fun m ->
              Array.init t.mem_arr.(m).words (fun idx -> ov_get t bt m idx lane));
        snap_cycle = t.cyc };
    tp_fault = Option.map copy_fault bt.bt_faults.(lane) }

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

let find_signal t nm =
  if t.elaborated then Hashtbl.find_opt t.by_name nm
  else
    (* pre-elaboration fallback: first match in creation order *)
    let rec go id =
      if id >= t.node_cnt then None
      else if (Vec.get t.building id).nm = nm then Some id
      else go (id + 1)
    in
    go 0

let node_count t = if t.elaborated then Array.length t.nodes else t.node_cnt

let injection_bits t ~prefix =
  let sites = ref [] in
  Array.iteri
    (fun id nd ->
      if String.starts_with ~prefix nd.nm then
        for bit = nd.width - 1 downto 0 do
          sites := (Node (id, bit), Printf.sprintf "%s[%d]" nd.nm bit) :: !sites
        done)
    (all_nodes t);
  !sites

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
  List.assoc_opt s t.rports

let write_ports t m =
  check_elab t;
  Array.to_list
    (Array.map
       (fun { wp_we; wp_addr; wp_data } -> (wp_we, wp_addr, wp_data))
       t.mem_arr.(m).wp_arr)

let probe_comb t s args =
  check_elab t;
  if List.mem_assoc s t.rports then invalid_arg "Circuit.probe_comb: read port";
  match t.nodes.(s).kind with
  | Comb { eval; _ } -> eval args
  | Input | Const _ | Register _ -> invalid_arg "Circuit.probe_comb: not combinational"
