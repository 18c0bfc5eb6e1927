open Machine
module C = Circuit

(* One native int per node packs up to 63 faulty machines: bit [l] of
   [diff.(id)] says lane [l]'s value of node [id] differs from the
   golden machine (whose values live in [values], advanced from the
   golden trace).  Lane values are stored densely at
   [(id lsl lane_shift) lor l] and are only meaningful where the diff
   bit is set, so a settle propagates "needs evaluation" lane sets with
   bitwise ORs and every clean (node, lane) pair costs nothing.  Memory
   divergence is a sparse per-memory overlay: a cell has an entry only
   while some lane's content differs from the golden (base) content. *)

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
  lane : int array;  (* (id lsl lane_shift) lor lane -> lane value *)
  faults : fault option array;  (* per lane *)
  fnode : int array;  (* per lane: faulted node id (Node sites), -1 *)
  fsrc : bool array;  (* per lane: faulted node is a source (non-comb) *)
  ov : int array array;  (* per memory: lane values, [(idx lsl lane_shift) lor l] *)
  ovl : int array array;  (* per memory: per-cell diverged-lane mask *)
  mem_lanes : int array;  (* per memory: lanes with >= 1 overlay entry *)
  mem_cnt : int array array;  (* per memory, per lane: entry count *)
  cellf : int array;  (* per memory: lanes with an armed cell fault *)
  pend : int array;  (* per node: lanes awaiting evaluation this settle *)
  stamped : int Vec.t;
      (* nodes whose effective value moved since the last settle: trace
         deltas, clock-committed lane registers and lane input changes.
         This is the entire seed set — a divergence cone none of whose
         members moved contributes nothing to the next settle. *)
  mem_dirty : int array;
      (* per memory: lanes whose view of some cell moved since the last
         settle (overlay set/drop, golden base write, forced cell
         fault) — the only lanes whose read ports must re-derive when
         their address input is quiet *)
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
         trace delta, or a lane value / diff-bit change).  A pending
         node none of whose dependencies carry the current cycle's
         stamp would recompute exactly what it computed last settle, so
         the evaluator skips it — the change-driven pruning that makes
         a quiescent divergence cone cost nothing per cycle. *)
  fsite : int array;
      (* per node: lanes with a combinational fault site here — exempt
         from stamp skipping (the fault window opens and closes on the
         cycle counter, not on any dependency) *)
  regof : int array array;  (* per node: register slots watching it as q, d or enable *)
  regset : int Vec.t;  (* slots with any divergence on q/d/en *)
  regmem : bool array;  (* per slot: member of [regset] *)
  regactive : int Vec.t;  (* slots sampled by this clock's phase 1 *)
  mutable evals : int;
  mutable dense : int;
}

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
  { values = golden.snap_values;
    base = golden.snap_mems;
    cyc = 0;
    low;
    tr;
    wl = Worklist.create ~level:low.C.level ~max_level:low.C.max_level;
    active = 0;
    diff = Array.make n 0;
    lane = Array.make (n lsl lane_shift) 0;
    faults = Array.make C.max_lanes None;
    fnode = Array.make C.max_lanes (-1);
    fsrc = Array.make C.max_lanes false;
    ov = Array.init nmems (fun m -> Array.make (words m lsl lane_shift) 0);
    ovl = Array.init nmems (fun m -> Array.make (words m) 0);
    mem_lanes = Array.make nmems 0;
    mem_cnt = Array.init nmems (fun _ -> Array.make C.max_lanes 0);
    cellf = Array.make nmems 0;
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
    nstamp = Array.make n 0;
    fsite = Array.make n 0;
    regof;
    regset = Vec.create 0;
    regmem = Array.make (max nregs 1) false;
    regactive = Vec.create 0;
    evals = 0;
    dense = 0 }

let lane_view t id l =
  if t.diff.(id) land (1 lsl l) <> 0 then t.lane.((id lsl lane_shift) lor l) else t.values.(id)

let set_lane t id l v =
  let bit = 1 lsl l in
  let d0 = t.diff.(id) in
  let old = if d0 land bit <> 0 then t.lane.((id lsl lane_shift) lor l) else t.values.(id) in
  if v = t.values.(id) then t.diff.(id) <- d0 land lnot bit
  else begin
    t.diff.(id) <- d0 lor bit;
    t.lane.((id lsl lane_shift) lor l) <- v;
    if d0 = 0 then begin
      (* first divergence on this node: wake the register slots that
         sample it, so the clock's phase 1 starts visiting them *)
      let ws = t.regof.(id) in
      for i = 0 to Array.length ws - 1 do
        let k = Array.unsafe_get ws i in
        if not t.regmem.(k) then begin
          t.regmem.(k) <- true;
          Vec.push t.regset k
        end
      done
    end
  end;
  let changed = old <> v in
  if changed then begin
    t.nstamp.(id) <- t.cyc;
    Vec.push t.stamped id
  end;
  changed

(* Lane [l]'s view of memory cell [(m, idx)]: its overlay entry while
   the content diverges from the golden (base) array, the base content
   otherwise. *)
let ov_get t m idx l =
  if Array.unsafe_get t.ovl.(m) idx land (1 lsl l) <> 0 then
    Array.unsafe_get t.ov.(m) ((idx lsl lane_shift) lor l)
  else Array.unsafe_get t.base.(m) idx

let ov_drop_bit t m idx l =
  t.mem_dirty.(m) <- t.mem_dirty.(m) lor (1 lsl l);
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
      t.mem_dirty.(m) <- t.mem_dirty.(m) lor (1 lsl l)
    end
    else if t.ov.(m).((idx lsl lane_shift) lor l) <> v then
      t.mem_dirty.(m) <- t.mem_dirty.(m) lor (1 lsl l);
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
  t.active <- t.active lor (1 lsl lane);
  match site with
  | Node (s, _) ->
      t.fnode.(lane) <- s;
      let src = t.low.C.level.(s) = 0 in
      t.fsrc.(lane) <- src;
      if not src then t.fsite.(s) <- t.fsite.(s) lor (1 lsl lane)
  | Cell (m, _, _) ->
      t.fnode.(lane) <- -1;
      t.fsrc.(lane) <- false;
      t.cellf.(m) <- t.cellf.(m) lor (1 lsl lane)

let retire t lane =
  let bit = 1 lsl lane in
  if t.active land bit = 0 then invalid_arg "Lanes.retire: lane not active";
  t.active <- t.active land lnot bit;
  t.faults.(lane) <- None;
  (if t.fnode.(lane) >= 0 && not t.fsrc.(lane) then
     let s = t.fnode.(lane) in
     t.fsite.(s) <- t.fsite.(s) land lnot bit);
  t.fnode.(lane) <- -1;
  t.fsrc.(lane) <- false;
  let diff = t.diff in
  for id = 0 to Array.length diff - 1 do
    diff.(id) <- diff.(id) land lnot bit
  done;
  Array.iteri
    (fun m ovl ->
      t.cellf.(m) <- t.cellf.(m) land lnot bit;
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

let golden t s = t.values.((s : C.signal :> int))

let cycle t = t.cyc

let settle t =
  let low = t.low in
  let active = t.active in
  if active <> 0 then begin
    let cyc = t.cyc in
    t.dense <- t.dense + (lane_popcount active * Array.length low.C.order);
    (* forced cell faults, per lane, as the scalar dense sweep forces them *)
    iter_lanes active (fun l ->
        match t.faults.(l) with
        | Some ({ site = Cell (m, idx, bit); _ } as f)
          when fault_active ~cyc f && idx < Array.length t.base.(m) -> (
            match cell_force f ~bit (ov_get t m idx l) with
            | Some v -> ov_set t m idx l v
            | None -> ())
        | Some _ | None -> ());
    (* transform faulted sources before seeding: the resulting value
       changes (divergence, toggle or heal) land in [stamped] and seed
       the sweep exactly like any other change *)
    iter_lanes active (fun l ->
        match t.faults.(l) with
        | Some ({ site = Node (s, bit); _ } as f) when t.fsrc.(l) ->
            if fault_active ~cyc f then
              ignore (set_lane t s l (transform_bit f ~bit (lane_view t s l)))
        | Some _ | None -> ());
    (* seed the levelized worklist with per-node lane masks *)
    let wl = t.wl in
    Worklist.start wl;
    let push_node id lanes =
      if lanes <> 0 then
        if Worklist.push wl id then t.pend.(id) <- lanes
        else t.pend.(id) <- t.pend.(id) lor lanes
    in
    let push_fanout id lanes =
      if lanes <> 0 then Array.iter (fun s -> push_node s lanes) low.C.fanout.(id)
    in
    let nstamp = t.nstamp in
    (* Change-driven seeding: between two settles a lane's view of a
       node can only move through a node in [stamped] (a golden trace
       delta, a clock-committed lane register, a lane input change) or
       through memory content, tracked per memory in [mem_dirty].  A
       divergence cone none of whose members moved seeds nothing and
       costs nothing this cycle. *)
    let nseed = Vec.length t.stamped in
    for i = 0 to nseed - 1 do
      let id = Vec.get t.stamped i in
      if Array.unsafe_get nstamp id = cyc then push_fanout id active
    done;
    (* combinational fault sites evaluate every settle while armed —
       the injection window tracks the cycle counter, not the inputs,
       and a closed window heals its residual on the next evaluation *)
    iter_lanes active (fun l ->
        match t.faults.(l) with
        | Some { site = Node (s, _); _ } when not t.fsrc.(l) -> push_node s (1 lsl l)
        | Some _ | None -> ());
    Array.iteri
      (fun m readers ->
        let lanes = (t.mem_dirty.(m) lor t.cellf.(m)) land active in
        if lanes <> 0 then Array.iter (fun id -> push_node id lanes) readers)
      low.C.mem_readers;
    (* evaluate the affected (node, lane) pairs in level order: an
       evaluation can only push strictly deeper nodes *)
    let nev = ref 0 in
    let diff = t.diff in
    for lvl = 1 to low.C.max_level do
      let b = Worklist.bucket wl lvl in
      for i = 0 to Worklist.length wl lvl - 1 do
        let id = Array.unsafe_get b i in
        let need =
          let rm = low.C.rport_of.(id) in
          if rm >= 0 then begin
            (* a read port re-derives when its address input moved
               (golden delta or lane change) or when some lane's view
               of the array content did; a port with a diverged but
               quiet address over quiet content is exact as stored *)
            let dirty = t.mem_dirty.(rm) lor t.cellf.(rm) in
            let addr = low.C.deps.(id).(0) in
            (if Array.unsafe_get nstamp addr = cyc then
               t.pend.(id) land (diff.(id) lor diff.(addr) lor t.mem_lanes.(rm) lor dirty)
             else t.pend.(id) land dirty)
            (* a faulted read port transforms on the cycle counter, not
               on its inputs: evaluate its lane unconditionally *)
            lor (t.pend.(id) land t.fsite.(id))
          end
          else begin
            (* change-driven pruning: with no dependency stamped this
               cycle the node would recompute last settle's values;
               the relevance mask restricts evaluation to lanes that
               diverge somewhere across the node's cut (clean lanes
               track the golden trace for free) *)
            let deps = low.C.deps.(id) in
            let fresh = ref false in
            let rel = ref (Array.unsafe_get diff id) in
            for j = 0 to Array.length deps - 1 do
              let d = Array.unsafe_get deps j in
              if Array.unsafe_get nstamp d = cyc then fresh := true;
              rel := !rel lor Array.unsafe_get diff d
            done;
            (if !fresh then t.pend.(id) land !rel else 0) lor (t.pend.(id) land t.fsite.(id))
          end
        in
        let need = need land active in
        if need <> 0 then begin
          let rm = low.C.rport_of.(id) in
          let values = t.values in
          let deps = low.C.deps.(id) in
          (* group the lanes of one node: deps diverged in any needed
             lane are saved once, written per lane, restored once *)
          let nov = ref 0 in
          if rm < 0 then
            for i = 0 to Array.length deps - 1 do
              let d = Array.unsafe_get deps i in
              if Array.unsafe_get diff d land need <> 0 then begin
                t.ov_ids.(!nov) <- d;
                t.ov_vals.(!nov) <- Array.unsafe_get values d;
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
                     let a = lane_view t (Array.unsafe_get deps 0) l in
                     (if a < Array.length t.base.(rm) then ov_get t rm a l else 0)
                     land low.C.masks.(id)
                   end
                   else begin
                     let bitl = 1 lsl l in
                     for j = 0 to !nov - 1 do
                       let d = Array.unsafe_get t.ov_ids j in
                       Array.unsafe_set values d
                         (if Array.unsafe_get diff d land bitl <> 0 then
                            Array.unsafe_get t.lane ((d lsl lane_shift) lor l)
                          else Array.unsafe_get t.ov_vals j)
                     done;
                     low.C.eval.(id) values land low.C.masks.(id)
                   end
                 in
                 let v = if t.fnode.(l) = id then node_fault ~cyc t.faults.(l) id v0 else v0 in
                 incr nev;
                 if set_lane t id l v then push_fanout id (1 lsl l)
               end);
              m := !m lsr 1;
              incr l
            end
          done;
          for j = !nov - 1 downto 0 do
            Array.unsafe_set values t.ov_ids.(j) t.ov_vals.(j)
          done
        end
      done
    done;
    t.evals <- t.evals + !nev;
    Array.fill t.mem_dirty 0 (Array.length t.mem_dirty) 0
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
        iter_lanes lanes (fun l ->
            t.regnext.((k lsl lane_shift) lor l) <-
              (if en >= 0 && lane_view t en l = 0 then lane_view t id l
               else lane_view t d l land low.C.masks.(id)))
      end;
      incr i
    end
  done;
  (* Phase 2: commit memory writes — the golden action goes to the
     base arrays, diverged-lane actions go to the overlays, processed
     in write-port order exactly like the scalar clock. *)
  Array.iteri
    (fun m wps ->
      let mask = low.C.mem_masks.(m) and base = t.base.(m) in
      let words = Array.length base in
      for p = 0 to Array.length wps - 1 do
        let { C.wp_we; wp_addr; wp_data } = wps.(p) in
        let special =
          (t.diff.(wp_we) lor t.diff.(wp_addr) lor t.diff.(wp_data) lor t.cellf.(m)) land active
        in
        (* lane write actions; value transforms (cell faults on the
           write path) read the pre-write view, like the scalar clock *)
        let wrl = ref 0 in
        iter_lanes special (fun l ->
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
            end);
        if values.(wp_we) <> 0 then begin
          let gidx = values.(wp_addr) in
          if gidx < words then begin
            let gv = values.(wp_data) land mask in
            (* diverged lanes not writing this cell keep their view
               across the base change; clean lanes wrote [gv] to it
               themselves, so any stale overlay they held here heals *)
            let preserve = ref 0 in
            let views = t.views in
            iter_lanes special (fun l ->
                if not (t.sc_fire.(l) = 1 && t.sc_idx.(l) = gidx) then begin
                  views.(l) <- ov_get t m gidx l;
                  preserve := !preserve lor (1 lsl l)
                end);
            (if base.(gidx) <> gv then begin
               (* base content moved: lanes that bypass the golden
                  read-port value — overlay holders and lanes reading
                  through a diverged address — must re-derive *)
               let d = ref t.mem_lanes.(m) in
               Array.iter
                 (fun rid -> d := !d lor t.diff.(low.C.deps.(rid).(0)))
                 low.C.mem_readers.(m);
               t.mem_dirty.(m) <- t.mem_dirty.(m) lor !d
             end);
            base.(gidx) <- gv;
            (let drop = t.ovl.(m).(gidx) land active land lnot special in
             if drop <> 0 then iter_lanes drop (fun l -> ov_drop_bit t m gidx l));
            iter_lanes !preserve (fun l -> ov_set t m gidx l views.(l))
          end
        end;
        iter_lanes !wrl (fun l -> ov_set t m t.sc_idx.(l) l t.sc_val.(l))
      done)
    low.C.mem_ports;
  (* Phase 3: advance the golden machine wholesale from the trace *)
  t.cyc <- t.cyc + 1;
  let c = t.cyc in
  let dend = t.tr.tr_dend and delta = t.tr.tr_delta in
  let nstamp = t.nstamp in
  (* the seed set restarts here: stale entries from the settle that
     just ran describe changes its sweep already propagated *)
  Vec.clear t.stamped;
  for i = dend.(c - 1) to dend.(c) - 1 do
    let p = Array.unsafe_get delta i in
    let id = delta_id p in
    Array.unsafe_set values id (delta_val p);
    (* a delta is by definition an effective-value change for every
       lane that is clean on this node *)
    Array.unsafe_set nstamp id c;
    Vec.push t.stamped id
  done;
  (* Phase 4: commit sampled lane registers against the new golden *)
  for i = 0 to Vec.length t.regactive - 1 do
    let k = Vec.get t.regactive i in
    let id = low.C.regs.(k) in
    iter_lanes t.regpend.(k) (fun l ->
        ignore (set_lane t id l t.regnext.((k lsl lane_shift) lor l)))
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

let stats t = { C.bs_evals = t.evals; bs_dense_evals = t.dense }
