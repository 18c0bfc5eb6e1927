open Machine
module C = Circuit

(* One native int per node packs up to 63 faulty machines: bit [l] of
   [diff.(id)] says lane [l]'s value of node [id] differs from the
   golden machine (whose values live in [values], advanced from the
   golden trace).  A one-bit node keeps its lane values in one word,
   [bits.(id)], bit [l] for lane [l]; a wider node stores them densely
   in its own row of [lane], at [(row.(id) lsl lane_shift) lor l].
   Either is only meaningful where the diff bit is set, so a settle
   propagates "needs evaluation" lane sets with bitwise ORs and every
   clean (node, lane) pair costs nothing; a shaped node
   ([C.lowering.shape]) is evaluated for all of its needed lanes in a
   few bitwise operations on such words.

   A settle is change-driven per lane: [moved.(id)] holds the lanes
   whose view of node [id] moved this cycle (valid while [nstamp.(id)]
   is the current cycle).  A golden trace delta moves the lanes clean
   on the node — a diverged lane holds its own value — and a lane's own
   value change moves that lane.  A comb node is evaluated for a lane
   only where the lane's view of one of its inputs moved (or of the
   node itself: golden moved it, and a lane diverged on an input must
   keep its own value) and the lane diverges somewhere across the
   node's cut; every other (node, lane) pair would recompute the value
   it holds.  Memory divergence is a sparse per-memory overlay: a cell
   has an entry only while some lane's content differs from the golden
   (base) content. *)

let lane_shift = 6

(* The growable array and the trace's delta decoding ([Machine.trace]),
   defined here as in [Circuit] because they run once per node change
   and per golden delta: in a build without cross-module optimisation
   (dune's default profile passes [-opaque]), another module's helper
   is an indirect call. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 16 dummy; n = 0; dummy }

  let length v = v.n

  let get v i = v.a.(i)

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
end

let delta_id p = p lsr 32

let delta_val p = p land 0xFFFFFFFF

type t = {
  (* the golden machine, copied from the circuit at cycle 0 *)
  values : int array;
  base : int array array;  (* per memory: golden content *)
  mutable cyc : int;
  (* the circuit's lowering the lanes are evaluated on, the golden
     trace the golden machine advances by, and the settle's worklist
     over the lowering's levels *)
  low : C.lowering;
  tr : trace;
  wl : Worklist.t;
  mutable active : int;  (* mask of live lanes *)
  diff : int array;  (* per node: diverged-lane mask *)
  bits : int array;  (* per one-bit node: bit l = lane l's value *)
  row : int array;  (* per node: its row in [lane], -1 for a one-bit node *)
  lane : int array;  (* (row lsl lane_shift) lor lane -> lane value, wider nodes *)
  cut : int array;
      (* per node: how many of the node and its dependencies have a
         nonzero [diff] — the divergence frontier.  A golden move of a
         dependency can change a lane's value of the node only where
         this is nonzero (or, for a read port, where its memory holds
         an overlay), so the settle seeds nothing else. *)
  faults : fault option array;  (* per lane *)
  fnode : int array;  (* per lane: faulted node id (Node sites), -1 *)
  mutable srcm : int;  (* lanes armed with a fault on a source (non-comb) node *)
  mutable combm : int;  (* ... with a fault on a comb node *)
  mutable cellpend : int;
      (* lanes armed with a memory-cell fault whose cell content may
         have moved since the fault last forced it (or whose window has
         not opened yet): the only cell lanes a settle visits *)
  ov : int array array;  (* per memory: lane values, [(idx lsl lane_shift) lor l] *)
  ovl : int array array;  (* per memory: per-cell diverged-lane mask *)
  mem_lanes : int array;  (* per memory: lanes with >= 1 overlay entry *)
  mem_cnt : int array array;  (* per memory, per lane: entry count *)
  cellw : int array array;
      (* per memory, per word: lanes with a cell fault armed on it —
         a golden write of the word takes their per-lane write path,
         and their force is due again when their view of it moves *)
  pend : int array;  (* per node: lanes awaiting evaluation this settle *)
  stamped : int Vec.t;
      (* nodes whose effective value moved since the last settle: trace
         deltas, clock-committed lane registers and lane input changes.
         This is the entire seed set — a divergence cone none of whose
         members moved contributes nothing to the next settle. *)
  mem_dirty : int array;
      (* per memory: lanes whose view of some cell moved since the last
         settle — every overlay set or drop ([ov_set], [ov_drop_bit]:
         lane writes, forced cell faults, preserves) and, on a golden
         base write, the written cell's overlay holders and the
         diverged-address readers — the only lanes whose read ports
         must re-derive when their address input is quiet *)
  views : int array;  (* write-commit scratch, per lane *)
  regnext : int array;  (* (k lsl lane_shift) lor lane *)
  regpend : int array;  (* per register slot: lanes sampled this clock *)
  ov_ids : int array;  (* eval scratch: overridden dependency ids *)
  ov_vals : int array;  (* eval scratch: saved golden values *)
  sc_fire : int array;  (* write-commit scratch, per lane *)
  sc_idx : int array;
  sc_val : int array;
  nstamp : int array;
      (* per node: cycle of the last effective-value change (a golden
         trace delta, or a lane's own value change), -1 before the
         first *)
  gstamp : int array;
      (* per node: cycle of the last golden trace delta, -1 before the
         first *)
  moved : int array;
      (* per node: the lanes whose view of the node moved in cycle
         [nstamp] — clean lanes on a golden delta, a lane on its own
         value change.  The settle seeds from these masks alone, so a
         lane none of whose inputs moved costs nothing, and a quiescent
         divergence cone nothing per cycle. *)
  fsite : int array;
      (* per node: lanes with a combinational fault site here —
         evaluated at every settle, whatever moved (the fault window
         opens and closes on the cycle counter, not on any
         dependency) *)
  regof : int array array;  (* per node: register slots watching it as q, d or enable *)
  regset : int Vec.t;  (* slots with any divergence on q/d/en *)
  regmem : bool array;  (* per slot: member of [regset] *)
  regactive : int Vec.t;  (* slots sampled by this clock's phase 1 *)
  lane_evals : int array;
      (* per-lane-slot evaluation counts, bit-sliced like the lane
         words: bit [l] of [lane_evals.(k)] is bit [k] of slot [l]'s
         count, so one evaluation's needed lanes are counted by a ripple
         add of the [need] mask, whatever their number; the pass's
         total is their sum *)
  mutable sliced : int;
  mutable dense : int;
  mutable lane_cycles : int;
}

let lane_popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + 1) (m land (m - 1)) in
  go 0 m

(* Index of the lowest set lane of a nonzero lane mask, in six steps
   whatever the lane.  Loops over a mask clear that lane with
   [m land (m - 1)] and need no closure.  Lane masks are up to 63 bits,
   so [Bitops] (32-bit) helpers do not apply. *)
let lowest_lane m =
  let b = ref (m land -m) and n = ref 0 in
  if !b land 0xFFFF_FFFF = 0 then begin n := 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then !n + 1 else !n

let start c tr =
  if C.cycle c <> 0 then invalid_arg "Lanes.start: not at cycle 0";
  if tr.tr_len = 0 then invalid_arg "Lanes.start: empty trace";
  let low = C.compiled_plan c in
  let golden = C.snapshot c in
  let n = Array.length golden.snap_values in
  let nmems = Array.length golden.snap_mems in
  let nregs = Array.length low.C.regs in
  let regof =
    let ls = Array.make n [] in
    let watch id k = if id >= 0 then ls.(id) <- k :: ls.(id) in
    for k = 0 to nregs - 1 do
      watch low.C.regs.(k) k;
      watch low.C.reg_d.(k) k;
      watch low.C.reg_en.(k) k
    done;
    let empty = [||] in
    Array.map (function [] -> empty | l -> Array.of_list l) ls
  in
  let words m = Array.length golden.snap_mems.(m) in
  let row = Array.make n (-1) and rows = ref 0 in
  for id = 0 to n - 1 do
    if low.C.masks.(id) <> 1 then begin
      row.(id) <- !rows;
      incr rows
    end
  done;
  { values = golden.snap_values;
    base = golden.snap_mems;
    cyc = 0;
    low;
    tr;
    wl = Worklist.create ~level:low.C.level ~max_level:low.C.max_level;
    active = 0;
    diff = Array.make n 0;
    bits = Array.make n 0;
    row;
    lane = Array.make (!rows lsl lane_shift) 0;
    cut = Array.make n 0;
    faults = Array.make C.max_lanes None;
    fnode = Array.make C.max_lanes (-1);
    srcm = 0;
    combm = 0;
    cellpend = 0;
    ov = Array.init nmems (fun m -> Array.make (words m lsl lane_shift) 0);
    ovl = Array.init nmems (fun m -> Array.make (words m) 0);
    mem_lanes = Array.make nmems 0;
    mem_cnt = Array.init nmems (fun _ -> Array.make C.max_lanes 0);
    cellw = Array.init nmems (fun m -> Array.make (words m) 0);
    pend = Array.make n 0;
    stamped = Vec.create 0;
    mem_dirty = Array.make nmems 0;
    views = Array.make C.max_lanes 0;
    regnext = Array.make (max nregs 1 lsl lane_shift) 0;
    regpend = Array.make (max nregs 1) 0;
    ov_ids = Array.make low.C.max_deps 0;
    ov_vals = Array.make low.C.max_deps 0;
    sc_fire = Array.make C.max_lanes 0;
    sc_idx = Array.make C.max_lanes 0;
    sc_val = Array.make C.max_lanes 0;
    nstamp = Array.make n (-1);
    gstamp = Array.make n (-1);
    moved = Array.make n 0;
    fsite = Array.make n 0;
    regof;
    regset = Vec.create 0;
    regmem = Array.make (max nregs 1) false;
    regactive = Vec.create 0;
    lane_evals = Array.make Sys.int_size 0;
    sliced = 0;
    dense = 0;
    lane_cycles = 0 }

let lane_view t id l =
  if t.diff.(id) land (1 lsl l) = 0 then t.values.(id)
  else
    let r = t.row.(id) in
    if r < 0 then (t.bits.(id) lsr l) land 1 else t.lane.((r lsl lane_shift) lor l)

(* Node [id]'s diff mask goes from [d0] to [d1] (they differ).  A first
   divergence wakes the register slots that sample the node, so the
   clock's phase 1 starts visiting them; a mask that turns nonzero or
   zero moves the cut counts of the node and of its comb sinks. *)
let set_diff t id d0 d1 =
  t.diff.(id) <- d1;
  if d0 = 0 || d1 = 0 then begin
    let delta = if d0 = 0 then 1 else -1 in
    t.cut.(id) <- t.cut.(id) + delta;
    let fo = t.low.C.fanout.(id) in
    for j = 0 to Array.length fo - 1 do
      let s = Array.unsafe_get fo j in
      t.cut.(s) <- t.cut.(s) + delta
    done
  end;
  if d0 = 0 then begin
    let ws = t.regof.(id) in
    for i = 0 to Array.length ws - 1 do
      let k = Array.unsafe_get ws i in
      if not t.regmem.(k) then begin
        t.regmem.(k) <- true;
        Vec.push t.regset k
      end
    done
  end

(* Lanes [lanes]'s views of node [id] moved this cycle. *)
let stamp t id lanes =
  if t.nstamp.(id) = t.cyc then t.moved.(id) <- t.moved.(id) lor lanes
  else begin
    t.nstamp.(id) <- t.cyc;
    t.moved.(id) <- lanes
  end

(* Store lane [l]'s new value [v] of node [id]; true when the lane's
   view moved, which stamps the node with the lane for the current
   cycle. *)
let store_lane t id l v =
  let bit = 1 lsl l in
  let d0 = t.diff.(id) and g = t.values.(id) and r = t.row.(id) in
  let old =
    if d0 land bit = 0 then g
    else if r < 0 then (t.bits.(id) lsr l) land 1
    else t.lane.((r lsl lane_shift) lor l)
  in
  let d1 =
    if v = g then d0 land lnot bit
    else begin
      if r < 0 then t.bits.(id) <- (t.bits.(id) land lnot bit) lor (v lsl l)
      else t.lane.((r lsl lane_shift) lor l) <- v;
      d0 lor bit
    end
  in
  if d1 <> d0 then set_diff t id d0 d1;
  let changed = old <> v in
  if changed then stamp t id bit;
  changed

(* [store_lane] for a change the next settle must seed from — a lane
   register commit, a lane input, a faulted source: the node enters
   [stamped] on its first change of the cycle. *)
let set_lane t id l v =
  let first = t.nstamp.(id) <> t.cyc in
  let changed = store_lane t id l v in
  if changed && first then Vec.push t.stamped id;
  changed

(* Lane [l]'s view of memory cell [(m, idx)]: its overlay entry while
   the content diverges from the golden (base) array, the base content
   otherwise. *)
let ov_get t m idx l =
  if Array.unsafe_get t.ovl.(m) idx land (1 lsl l) <> 0 then
    Array.unsafe_get t.ov.(m) ((idx lsl lane_shift) lor l)
  else Array.unsafe_get t.base.(m) idx

(* Lane [l]'s view of cell [(m, idx)] moved: its read ports re-derive
   at the next settle, and a cell fault armed on the cell forces it
   again. *)
let view_moved t m idx l =
  let bit = 1 lsl l in
  t.mem_dirty.(m) <- t.mem_dirty.(m) lor bit;
  t.cellpend <- t.cellpend lor (t.cellw.(m).(idx) land bit)

let ov_drop_bit t m idx l =
  view_moved t m idx l;
  t.ovl.(m).(idx) <- t.ovl.(m).(idx) land lnot (1 lsl l);
  let c = t.mem_cnt.(m).(l) - 1 in
  t.mem_cnt.(m).(l) <- c;
  if c = 0 then t.mem_lanes.(m) <- t.mem_lanes.(m) land lnot (1 lsl l)

let ov_set t m idx l v =
  let lm = t.ovl.(m).(idx) in
  if v = t.base.(m).(idx) then begin
    if lm land (1 lsl l) <> 0 then ov_drop_bit t m idx l
  end
  else begin
    if lm land (1 lsl l) = 0 then begin
      t.ovl.(m).(idx) <- lm lor (1 lsl l);
      t.mem_cnt.(m).(l) <- t.mem_cnt.(m).(l) + 1;
      t.mem_lanes.(m) <- t.mem_lanes.(m) lor (1 lsl l);
      view_moved t m idx l
    end
    else if t.ov.(m).((idx lsl lane_shift) lor l) <> v then view_moved t m idx l;
    t.ov.(m).((idx lsl lane_shift) lor l) <- v
  end

let arm t lane ?(from_cycle = 0) ?duration site model =
  if lane < 0 || lane >= C.max_lanes then invalid_arg "Lanes.arm: bad lane";
  if t.active land (1 lsl lane) <> 0 then invalid_arg "Lanes.arm: lane in use";
  let site =
    match site with
    | C.Node (s, bit) -> Node ((s :> int), bit)
    | C.Cell (m, idx, bit) -> Cell ((m :> int), idx, bit)
  and model =
    match model with
    | C.Stuck_at_0 -> Stuck_at_0
    | C.Stuck_at_1 -> Stuck_at_1
    | C.Open_line -> Open_line
    | C.Bit_flip -> Bit_flip
  in
  t.faults.(lane) <- Some { site; model; from_cycle; duration; frozen = None };
  let bit = 1 lsl lane in
  t.active <- t.active lor bit;
  match site with
  | Node (s, _) ->
      t.fnode.(lane) <- s;
      if t.low.C.level.(s) = 0 then t.srcm <- t.srcm lor bit
      else begin
        t.combm <- t.combm lor bit;
        t.fsite.(s) <- t.fsite.(s) lor bit
      end
  | Cell (m, idx, _) ->
      t.fnode.(lane) <- -1;
      t.cellpend <- t.cellpend lor bit;
      if idx < Array.length t.cellw.(m) then t.cellw.(m).(idx) <- t.cellw.(m).(idx) lor bit

let retire t lane =
  let bit = 1 lsl lane in
  if t.active land bit = 0 then invalid_arg "Lanes.retire: lane not active";
  t.active <- t.active land lnot bit;
  (match t.faults.(lane) with
  | Some { site = Node (s, _); _ } -> t.fsite.(s) <- t.fsite.(s) land lnot bit
  | Some { site = Cell (m, idx, _); _ } when idx < Array.length t.cellw.(m) ->
      t.cellw.(m).(idx) <- t.cellw.(m).(idx) land lnot bit
  | Some _ | None -> ());
  t.faults.(lane) <- None;
  t.fnode.(lane) <- -1;
  t.srcm <- t.srcm land lnot bit;
  t.combm <- t.combm land lnot bit;
  t.cellpend <- t.cellpend land lnot bit;
  let diff = t.diff in
  for id = 0 to Array.length diff - 1 do
    let d0 = diff.(id) in
    if d0 land bit <> 0 then set_diff t id d0 (d0 land lnot bit)
  done;
  Array.iteri
    (fun m ovl ->
      if t.mem_cnt.(m).(lane) > 0 then
        for idx = 0 to Array.length ovl - 1 do
          if ovl.(idx) land bit <> 0 then ov_drop_bit t m idx lane
        done)
    t.ovl

let set_input t s lane v =
  let s = (s : C.signal :> int) in
  if not t.low.C.input.(s) then invalid_arg "Lanes.set_input: not an input";
  ignore (set_lane t s lane (v land t.low.C.masks.(s)))

let value t s lane = lane_view t (s : C.signal :> int) lane

let diverged t s = t.diff.((s : C.signal :> int)) land t.active

let golden t s = t.values.((s : C.signal :> int))

let cycle t = t.cyc

(* Queue node [id] for [lanes] this settle, merged into the node's
   pending lane mask: the queueing steps worklist.mli describes,
   inlined over the worklist's fields (a call into another module is
   indirect in a build without cross-module optimisation). *)
let push t id lanes =
  let wl = t.wl in
  if Array.unsafe_get wl.Worklist.stamp id = wl.Worklist.epoch then
    Array.unsafe_set t.pend id (Array.unsafe_get t.pend id lor lanes)
  else begin
    Array.unsafe_set wl.Worklist.stamp id wl.Worklist.epoch;
    let lv = Array.unsafe_get wl.Worklist.level id in
    let k = Array.unsafe_get wl.Worklist.fill lv in
    Array.unsafe_set (Array.unsafe_get wl.Worklist.bucket lv) k id;
    Array.unsafe_set wl.Worklist.fill lv (k + 1);
    Array.unsafe_set t.pend id lanes
  end

let push_fanout t id lanes =
  let fo = Array.unsafe_get t.low.C.fanout id in
  for j = 0 to Array.length fo - 1 do
    push t (Array.unsafe_get fo j) lanes
  done

(* The lane word of one-bit node [d]: bit [l] is lane [l]'s value, its
   stored bit where it diverges and golden's elsewhere. *)
let input_word t d =
  let dd = Array.unsafe_get t.diff d in
  (-Array.unsafe_get t.values d land lnot dd) lor (Array.unsafe_get t.bits d land dd)

(* Per bit, [a] where [s] is set and [b] elsewhere. *)
let sel s a b = b lxor ((a lxor b) land s)

(* A truth table of 1..3 inputs applied bitwise to lane words, by
   Shannon expansion on the last input: bit [i] of [tt] is the output
   for input index [i = x + 2 y + 4 z].  A table shape can be passed
   as is: only its low [2^k] bits are read. *)
let lut1 tt x = sel x (-((tt lsr 1) land 1)) (-(tt land 1))

let lut2 tt x y = sel y (lut1 (tt lsr 2) x) (lut1 tt x)

let lut3 tt x y z = sel z (lut2 (tt lsr 4) x y) (lut2 tt x y)

(* Evaluate shaped node [id] (shape [sh]) for the lanes of [need] at
   once: a truth table through [lut1]..[lut3] (its arity is the number
   of dependencies), a tap by collecting its bit from each lane
   diverged on its word.  A lane with a fault on the node is fixed up
   bit by bit through the one fault rule.  Commits the needed lanes'
   values and queues the fanout for the lanes whose value changed. *)
let eval_sliced t id deps sh need =
  t.sliced <- t.sliced + 1;
  let r =
    if sh >= shape_tap then begin
      let w = Array.unsafe_get deps 0 and i = sh land shape_tap_bits in
      let dw = Array.unsafe_get t.diff w land need in
      let x = ref (-((Array.unsafe_get t.values w lsr i) land 1) land lnot dw) in
      let wr = Array.unsafe_get t.row w lsl lane_shift in
      let m = ref dw in
      while !m <> 0 do
        let l = lowest_lane !m in
        m := !m land (!m - 1);
        let v = Array.unsafe_get t.lane (wr lor l) in
        x := !x lor (((v lsr i) land 1) lsl l)
      done;
      !x
    end
    else begin
      let x = input_word t (Array.unsafe_get deps 0) in
      match Array.length deps with
      | 1 -> lut1 sh x
      | 2 -> lut2 sh x (input_word t (Array.unsafe_get deps 1))
      | _ ->
          lut3 sh x
            (input_word t (Array.unsafe_get deps 1))
            (input_word t (Array.unsafe_get deps 2))
    end
  in
  let r = ref r in
  let m = ref (need land Array.unsafe_get t.fsite id) in
  while !m <> 0 do
    let l = lowest_lane !m in
    m := !m land (!m - 1);
    let v = node_fault ~cyc:t.cyc t.faults.(l) id ((!r lsr l) land 1) in
    r := (!r land lnot (1 lsl l)) lor ((v land 1) lsl l)
  done;
  let r = !r in
  let g = -Array.unsafe_get t.values id and d0 = Array.unsafe_get t.diff id in
  let b = Array.unsafe_get t.bits id in
  let old = (g land lnot d0) lor (b land d0) in
  Array.unsafe_set t.bits id ((b land lnot need) lor (r land need));
  let d1 = (d0 land lnot need) lor ((r lxor g) land need) in
  if d1 <> d0 then set_diff t id d0 d1;
  let changed = (old lxor r) land need in
  if changed <> 0 then begin
    stamp t id changed;
    push_fanout t id changed
  end

let settle t =
  let low = t.low in
  let active = t.active in
  if active <> 0 then begin
    let cyc = t.cyc in
    t.dense <- t.dense + (lane_popcount active * Array.length low.C.order);
    (* forced cell faults, as the scalar dense sweep forces them at
       every settle while active.  Forcing is idempotent until the
       cell's content moves, so only lanes in [cellpend] force; a
       forced value that moves the lane's content lands in [mem_dirty]
       through [ov_set]. *)
    let m = ref t.cellpend in
    while !m <> 0 do
      let l = lowest_lane !m in
      m := !m land (!m - 1);
      match t.faults.(l) with
      | Some ({ site = Cell (mi, idx, bit); _ } as f) when cyc >= f.from_cycle ->
          (if fault_active ~cyc f && idx < Array.length t.base.(mi) then
             match cell_force f ~bit (ov_get t mi idx l) with
             | Some v -> ov_set t mi idx l v
             | None -> ());
          t.cellpend <- t.cellpend land lnot (1 lsl l)
      | Some _ | None -> ()
    done;
    (* transform faulted sources before seeding: the resulting value
       changes (divergence, toggle or heal) land in [stamped] and seed
       the sweep exactly like any other change *)
    let m = ref t.srcm in
    while !m <> 0 do
      let l = lowest_lane !m in
      m := !m land (!m - 1);
      match t.faults.(l) with
      | Some ({ site = Node (s, bit); _ } as f) when fault_active ~cyc f ->
          ignore (set_lane t s l (transform_bit f ~bit (lane_view t s l)))
      | Some _ | None -> ()
    done;
    (* seed the levelized worklist with per-node lane masks *)
    let wl = t.wl in
    wl.Worklist.epoch <- wl.Worklist.epoch + 1;
    Array.fill wl.Worklist.fill 0 (Array.length wl.Worklist.fill) 0;
    let nstamp = t.nstamp and cut = t.cut and rport_of = low.C.rport_of in
    (* Change-driven seeding at the divergence frontier, per lane:
       between two settles a lane's view of a node can only move
       through a node in [stamped] (a golden trace delta, a
       clock-committed lane register, a lane input change), for the
       lanes of its [moved] mask, or through memory content, tracked
       per memory in [mem_dirty].  A node none of whose cut diverges in
       any lane computes golden's value in every lane whatever moved,
       so a move queues, for the lanes it moved, only the sinks with a
       nonzero cut count; a read port, whose rule below re-derives its
       own lanes, is queued for every lane when its cut is nonzero or
       its memory holds an overlay (a lane reading golden's address may
       read its own cell).  A comb node golden moved queues itself for
       the lanes it moved: a lane clean on it but diverged on an input
       whose view did not move keeps its own value, which no longer
       equals golden's.  Lanes that change during the settle queue
       their own fanout. *)
    let moved = t.moved and level = low.C.level in
    for i = 0 to Vec.length t.stamped - 1 do
      let id = Vec.get t.stamped i in
      if Array.unsafe_get nstamp id = cyc then begin
        let mv = Array.unsafe_get moved id land active in
        if mv <> 0 && Array.unsafe_get level id > 0 && Array.unsafe_get cut id > 0 then
          push t id mv;
        let fo = Array.unsafe_get low.C.fanout id in
        for j = 0 to Array.length fo - 1 do
          let s = Array.unsafe_get fo j in
          let rm = Array.unsafe_get rport_of s in
          if rm >= 0 then begin
            if Array.unsafe_get cut s > 0 || t.mem_lanes.(rm) <> 0 then push t s active
          end
          else if mv <> 0 && Array.unsafe_get cut s > 0 then push t s mv
        done
      end
    done;
    (* combinational fault sites evaluate every settle while armed —
       the injection window tracks the cycle counter, not the inputs,
       and a closed window heals its residual on the next evaluation *)
    let m = ref t.combm in
    while !m <> 0 do
      let l = lowest_lane !m in
      m := !m land (!m - 1);
      push t t.fnode.(l) (1 lsl l)
    done;
    let mem_dirty = t.mem_dirty in
    for mi = 0 to Array.length mem_dirty - 1 do
      let lanes = mem_dirty.(mi) land active in
      if lanes <> 0 then begin
        let readers = low.C.mem_readers.(mi) in
        for j = 0 to Array.length readers - 1 do
          push t readers.(j) lanes
        done
      end
    done;
    (* evaluate the affected (node, lane) pairs in level order: an
       evaluation can only push strictly deeper nodes, and pushes the
       node's fanout once, for the lanes whose value it changed *)
    let diff = t.diff and values = t.values and pend = t.pend and fsite = t.fsite in
    let masks = low.C.masks and shape = low.C.shape and row = t.row in
    for lvl = 1 to low.C.max_level do
      let b = Array.unsafe_get wl.Worklist.bucket lvl in
      for i = 0 to Array.unsafe_get wl.Worklist.fill lvl - 1 do
        let id = Array.unsafe_get b i in
        let rm = Array.unsafe_get rport_of id in
        let deps = low.C.deps.(id) in
        let need =
          if rm >= 0 then begin
            (* A read port re-derives a lane whose view of the array
               moved, and, when golden moved the address or the lane's
               own address moved, a lane that diverges on the address
               or the port or holds an overlay entry at the golden
               address.  Any other lane reads the golden cell through
               the golden address: its value is the golden trace's.
               Another lane's move of the address re-derives nothing, so
               a lane's work does not depend on the other lanes of its
               pass.  An armed cell fault re-derives nothing by itself
               — a forced or written value that moves the lane's
               content marks [mem_dirty]. *)
            let addr = Array.unsafe_get deps 0 in
            let am =
              if Array.unsafe_get t.gstamp addr = cyc then -1
              else if Array.unsafe_get nstamp addr = cyc then Array.unsafe_get moved addr
              else 0
            in
            let lanes =
              if am <> 0 then begin
                let ga = Array.unsafe_get values addr and ovl = t.ovl.(rm) in
                am
                land (Array.unsafe_get diff id
                     lor Array.unsafe_get diff addr
                     lor if ga < Array.length ovl then Array.unsafe_get ovl ga else 0)
                lor mem_dirty.(rm)
              end
              else mem_dirty.(rm)
            in
            (* a faulted read port transforms on the cycle counter, not
               on its inputs: evaluate its lane unconditionally *)
            Array.unsafe_get pend id land (lanes lor Array.unsafe_get fsite id)
          end
          else begin
            (* the pending lanes are those whose view of an input (or
               of the node) moved; the relevance mask restricts
               evaluation to the ones that diverge somewhere across the
               node's cut (clean lanes track the golden trace for
               free) *)
            let rel = ref (Array.unsafe_get diff id) in
            for j = 0 to Array.length deps - 1 do
              rel := !rel lor Array.unsafe_get diff (Array.unsafe_get deps j)
            done;
            Array.unsafe_get pend id land (!rel lor Array.unsafe_get fsite id)
          end
        in
        let need = need land active in
        if need <> 0 then begin
          let carry = ref need and k = ref 0 in
          while !carry <> 0 do
            let w = Array.unsafe_get t.lane_evals !k in
            Array.unsafe_set t.lane_evals !k (w lxor !carry);
            carry := w land !carry;
            incr k
          done;
          let sh = Array.unsafe_get shape id in
          if sh <> shape_none then eval_sliced t id deps sh need
          else begin
            (* group the lanes of one node: deps diverged in any needed
               lane are saved once, written per lane, restored once *)
            let nov = ref 0 in
            if rm < 0 then
              for j = 0 to Array.length deps - 1 do
                let d = Array.unsafe_get deps j in
                if Array.unsafe_get diff d land need <> 0 then begin
                  t.ov_ids.(!nov) <- d;
                  t.ov_vals.(!nov) <- Array.unsafe_get values d;
                  incr nov
                end
              done;
            let changed = ref 0 in
            let m = ref need in
            while !m <> 0 do
              let l = lowest_lane !m in
              m := !m land (!m - 1);
              let v0 =
                if rm >= 0 then begin
                  let a = lane_view t (Array.unsafe_get deps 0) l in
                  (if a < Array.length t.base.(rm) then ov_get t rm a l else 0)
                  land Array.unsafe_get masks id
                end
                else begin
                  let bitl = 1 lsl l in
                  for j = 0 to !nov - 1 do
                    let d = Array.unsafe_get t.ov_ids j in
                    Array.unsafe_set values d
                      (if Array.unsafe_get diff d land bitl = 0 then
                         Array.unsafe_get t.ov_vals j
                       else
                         let r = Array.unsafe_get row d in
                         if r < 0 then (Array.unsafe_get t.bits d lsr l) land 1
                         else Array.unsafe_get t.lane ((r lsl lane_shift) lor l))
                  done;
                  low.C.eval.(id) values land Array.unsafe_get masks id
                end
              in
              let v = if t.fnode.(l) = id then node_fault ~cyc t.faults.(l) id v0 else v0 in
              if store_lane t id l v then changed := !changed lor (1 lsl l)
            done;
            for j = !nov - 1 downto 0 do
              Array.unsafe_set values t.ov_ids.(j) t.ov_vals.(j)
            done;
            if !changed <> 0 then push_fanout t id !changed
          end
        end
      done
    done;
    Array.fill mem_dirty 0 (Array.length mem_dirty) 0
  end

let clock t =
  if t.cyc + 1 >= t.tr.tr_len then invalid_arg "Lanes.clock: clock past the end of the trace";
  let low = t.low in
  let active = t.active in
  let values = t.values in
  (* Phase 1: sample lane register inputs.  Lanes clean on d/en/q
     follow the golden commit for free via the trace delta.  Only the
     slots in [regset] — woken by [set_lane] on a node's first
     divergence — can have work; slots whose divergence has fully
     healed are pruned on the way. *)
  Vec.clear t.regactive;
  let i = ref 0 in
  while !i < Vec.length t.regset do
    let k = Vec.get t.regset !i in
    let id = low.C.regs.(k) in
    let d = low.C.reg_d.(k) and en = low.C.reg_en.(k) in
    let union = t.diff.(id) lor t.diff.(d) lor if en >= 0 then t.diff.(en) else 0 in
    if union = 0 then begin
      t.regmem.(k) <- false;
      Vec.swap_pop t.regset !i
    end
    else begin
      let lanes = union land active in
      if lanes <> 0 then begin
        t.regpend.(k) <- lanes;
        Vec.push t.regactive k;
        let m = ref lanes in
        while !m <> 0 do
          let l = lowest_lane !m in
          m := !m land (!m - 1);
          t.regnext.((k lsl lane_shift) lor l) <-
            (if en >= 0 && lane_view t en l = 0 then lane_view t id l
             else lane_view t d l land low.C.masks.(id))
        done
      end;
      incr i
    end
  done;
  (* Phase 2: commit memory writes — the golden action goes to the
     base arrays, diverged-lane actions go to the overlays, processed
     in write-port order exactly like the scalar clock. *)
  for m = 0 to Array.length low.C.mem_ports - 1 do
    let wps = low.C.mem_ports.(m) in
    let mask = low.C.mem_masks.(m) and base = t.base.(m) in
    let words = Array.length base in
    for p = 0 to Array.length wps - 1 do
      let { C.wp_we; wp_addr; wp_data } = wps.(p) in
      let gidx = if values.(wp_we) <> 0 then values.(wp_addr) else words in
      (* lanes whose write action may differ from golden's: diverged
         on the port, or with a cell fault on the word golden writes
         (a lane clean on the port writes golden's word, and a cell
         fault elsewhere does not transform that write) *)
      let special =
        (t.diff.(wp_we) lor t.diff.(wp_addr) lor t.diff.(wp_data)
        lor if gidx < words then t.cellw.(m).(gidx) else 0)
        land active
      in
      (* lane write actions; value transforms (cell faults on the
         write path) read the pre-write view, like the scalar clock *)
      let wrl = ref 0 in
      let sm = ref special in
      while !sm <> 0 do
        let l = lowest_lane !sm in
        sm := !sm land (!sm - 1);
        t.sc_fire.(l) <- 0;
        if lane_view t wp_we l <> 0 then begin
          let idx = lane_view t wp_addr l in
          if idx < words then begin
            let v =
              cell_write ~cyc:t.cyc t.faults.(l) m idx ~cur:(ov_get t m idx l)
                (lane_view t wp_data l)
            in
            t.sc_fire.(l) <- 1;
            t.sc_idx.(l) <- idx;
            t.sc_val.(l) <- v land mask;
            wrl := !wrl lor (1 lsl l)
          end
        end
      done;
      if gidx < words then begin
        let gv = values.(wp_data) land mask in
        (* diverged lanes not writing this cell keep their view
           across the base change; clean lanes wrote [gv] to it
           themselves, so any stale overlay they held here heals *)
        let preserve = ref 0 in
        let views = t.views in
        let sm = ref special in
        while !sm <> 0 do
          let l = lowest_lane !sm in
          sm := !sm land (!sm - 1);
          if not (t.sc_fire.(l) = 1 && t.sc_idx.(l) = gidx) then begin
            views.(l) <- ov_get t m gidx l;
            preserve := !preserve lor (1 lsl l)
          end
        done;
        (if base.(gidx) <> gv then begin
           (* base content moved: lanes that bypass the golden read-port
              value on this cell — its overlay holders and lanes reading
              through a diverged address — must re-derive *)
           let d = ref t.ovl.(m).(gidx) in
           let readers = low.C.mem_readers.(m) in
           for j = 0 to Array.length readers - 1 do
             d := !d lor t.diff.(low.C.deps.(readers.(j)).(0))
           done;
           t.mem_dirty.(m) <- t.mem_dirty.(m) lor !d
         end);
        base.(gidx) <- gv;
        let sm = ref (t.ovl.(m).(gidx) land active land lnot special) in
        while !sm <> 0 do
          let l = lowest_lane !sm in
          sm := !sm land (!sm - 1);
          ov_drop_bit t m gidx l
        done;
        let sm = ref !preserve in
        while !sm <> 0 do
          let l = lowest_lane !sm in
          sm := !sm land (!sm - 1);
          ov_set t m gidx l views.(l)
        done
      end;
      let sm = ref !wrl in
      while !sm <> 0 do
        let l = lowest_lane !sm in
        sm := !sm land (!sm - 1);
        ov_set t m t.sc_idx.(l) l t.sc_val.(l)
      done
    done
  done;
  (* Phase 3: advance the golden machine wholesale from the trace *)
  t.lane_cycles <- t.lane_cycles + lane_popcount active;
  t.cyc <- t.cyc + 1;
  let c = t.cyc in
  let dend = t.tr.tr_dend and delta = t.tr.tr_delta in
  let cbits = trace_chunk_bits and cmask = trace_chunk - 1 in
  let nstamp = t.nstamp and moved = t.moved and diff = t.diff in
  (* the seed set restarts here: stale entries from the settle that
     just ran describe changes its sweep already propagated *)
  Vec.clear t.stamped;
  for i = dend.(c - 1) to dend.(c) - 1 do
    let p = Array.unsafe_get (Array.unsafe_get delta (i lsr cbits)) (i land cmask) in
    let id = delta_id p in
    Array.unsafe_set values id (delta_val p);
    (* a delta is by definition an effective-value change for every
       lane that is clean on this node, and for no other: a diverged
       lane holds its own value.  The first stamp of the cycle. *)
    Array.unsafe_set nstamp id c;
    Array.unsafe_set t.gstamp id c;
    Array.unsafe_set moved id (lnot (Array.unsafe_get diff id));
    Vec.push t.stamped id
  done;
  (* Phase 4: commit sampled lane registers against the new golden *)
  for i = 0 to Vec.length t.regactive - 1 do
    let k = Vec.get t.regactive i in
    let id = low.C.regs.(k) in
    let m = ref t.regpend.(k) in
    while !m <> 0 do
      let l = lowest_lane !m in
      m := !m land (!m - 1);
      ignore (set_lane t id l t.regnext.((k lsl lane_shift) lor l))
    done
  done

(* Values are compared, not diff bits: a lane's diff bit can outlive
   its divergence when the golden machine moves onto the lane's value. *)
let lane_golden t lane =
  if t.active land (1 lsl lane) = 0 then invalid_arg "Lanes.lane_golden: lane not active";
  let rec nodes id = id < 0 || (lane_view t id lane = t.values.(id) && nodes (id - 1)) in
  let rec cells m idx = idx < 0 || (ov_get t m idx lane = t.base.(m).(idx) && cells m (idx - 1)) in
  let rec mems m =
    m < 0
    || (t.mem_lanes.(m) land (1 lsl lane) = 0 || cells m (Array.length t.base.(m) - 1))
       && mems (m - 1)
  in
  nodes (Array.length t.values - 1) && mems (Array.length t.base - 1)

let eject t lane =
  if t.active land (1 lsl lane) = 0 then invalid_arg "Lanes.eject: lane not active";
  { tp_snap =
      { snap_values = Array.init (Array.length t.values) (fun id -> lane_view t id lane);
        snap_mems =
          Array.mapi (fun m base -> Array.init (Array.length base) (fun idx -> ov_get t m idx lane))
            t.base;
        snap_cycle = t.cyc };
    tp_fault = Option.map copy_fault t.faults.(lane) }

let cut_exact t =
  let nz id = if t.diff.(id) <> 0 then 1 else 0 in
  let count id =
    List.fold_left (fun acc d -> acc + nz d) (nz id)
      (List.sort_uniq compare (Array.to_list t.low.C.deps.(id)))
  in
  let rec go id = id < 0 || (t.cut.(id) = count id && go (id - 1)) in
  go (Array.length t.cut - 1)

let lane_evals t lane =
  let n = ref 0 in
  Array.iteri (fun k w -> n := !n lor (((w lsr lane) land 1) lsl k)) t.lane_evals;
  !n

let golden_deltas t = t.tr.tr_dend.(t.cyc)

let stats t =
  let total = ref 0 in
  Array.iteri (fun k w -> total := !total + (lane_popcount w lsl k)) t.lane_evals;
  { C.bs_evals = !total;
    bs_sliced_evals = t.sliced;
    bs_dense_evals = t.dense;
    bs_lane_cycles = t.lane_cycles;
    bs_driven_lane_cycles = t.lane_cycles }
