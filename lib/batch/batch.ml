module C = Rtl.Circuit
module Lanes = Rtl.Lanes
module System = Leon3.System
module Core = Leon3.Core
module Cache_block = Leon3.Cache_block
module Memory = Sparc.Memory
module Layout = Sparc.Layout
module Bus_event = Sparc.Bus_event

type spec = {
  site : C.fault_site;
  model : C.fault_model;
  from_cycle : int;
  duration : int option;
}

type result = {
  stop : System.stop_reason;
  matched : int;
  stop_cycle : int;
  mismatch_cycle : int option;
  events : Bus_event.t list;
}

(* A lane handed over at the trace's last cycle, or at a window
   boundary before it when it is dense, extracted for scalar
   continuation: circuit state + fault (the transplant), the
   lane's main-memory image (golden base + overlay, materialised),
   bus-driver states, and the comparator/event bookkeeping a resumed
   run needs. *)
type ejected = {
  e_tp : C.transplant;
  e_mem : Memory.t;
  e_iport : int * bool;  (* countdown, ready_out *)
  e_dport : int * bool;
  e_matched : int;
  e_mismatch : int option;
  e_events_rev : Bus_event.t list;
  e_writes : int;
}

type outcome = Done of result | Converged of int | Ejected of ejected

(* Per-lane off-core state.  The main-memory image is the golden base
   plus a sparse word-addressed overlay; each bus port has its own
   driver, stepped by [Leon3.Bus_port.step].  While the lane is in the
   pass's follow set, [port] is stale: the lane's drivers are the
   golden ones. *)
type lane = {
  idx : int;
  port : Leon3.Bus_port.t array;  (* [|iport; dport|] *)
  mem : (int, int) Hashtbl.t;  (* aligned word addr -> lane's word *)
  mutable matched : int;
  mutable mismatch : int option;
  mutable stopped : System.stop_reason option;
  mutable abort : bool;
  mutable events_rev : Bus_event.t list;
  mutable nw : int;  (* write events among events_rev *)
  mutable pw : int;  (* this cycle's pending dport write: word addr, -1 none *)
  mutable pwv : int;  (* ... and the lane's merged word value *)
  mutable sv : int;  (* preserve scratch around a golden base write *)
  mutable sv_set : bool;
  mutable in_ir : int;  (* next-cycle bus inputs: iport/dport ready/rdata *)
  mutable in_ird : int;
  mutable in_dr : int;
  mutable in_drd : int;
}

let mk_lane idx =
  { idx;
    port = [| Leon3.Bus_port.idle (); Leon3.Bus_port.idle () |];
    mem = Hashtbl.create 16;
    matched = 0;
    mismatch = None;
    stopped = None;
    abort = false;
    events_rev = [];
    nw = 0;
    pw = -1;
    pwv = 0;
    sv = 0;
    sv_set = false;
    in_ir = 0;
    in_ird = 0;
    in_dr = 0;
    in_drd = 0 }

(* Lane view of a main-memory word ([wa] pre-aligned). *)
let lv_load base ln wa =
  match Hashtbl.find_opt ln.mem wa with
  | Some v -> v
  | None -> Memory.load_word base wa

(* Set a lane's word, healing the overlay when it re-converges with the
   (current) base image. *)
let lv_set base ln wa v =
  if Memory.load_word base wa = v then Hashtbl.remove ln.mem wa
  else Hashtbl.replace ln.mem wa v

let size_of_code = function 0 -> Bus_event.Byte | 1 -> Bus_event.Half | _ -> Bus_event.Word

(* [f] on the lane of every set bit of [mask], lowest first. *)
let iter_mask lanes mask f =
  let m = ref mask and l = ref 0 in
  while !m <> 0 do
    if !m land 0xFF = 0 then begin
      m := !m lsr 8;
      l := !l + 8
    end
    else begin
      if !m land 1 <> 0 then f lanes.(!l);
      m := !m lsr 1;
      incr l
    end
  done

let same_port (a : Leon3.Bus_port.t) (b : Leon3.Bus_port.t) =
  a.countdown = b.countdown && a.ready_out = b.ready_out

let run ~sys ~prog ~trace ~reference ~max_cycles ?(compare_reads = false) ?converge_every
    specs =
  let n = Array.length specs in
  if n > C.max_lanes then invalid_arg "Batch.run: more specs than lanes";
  let core = System.core sys in
  let circuit = core.Core.circuit in
  let ic = core.Core.icache and dc = core.Core.dcache in
  let nref = Array.length reference in
  System.load sys prog;
  let base = System.memory sys in
  let pass = Lanes.start circuit trace in
  Array.iteri
    (fun i sp ->
      Lanes.arm pass i ~from_cycle:sp.from_cycle ?duration:sp.duration sp.site sp.model)
    specs;
  let lanes = Array.init n mk_lane in
  let outcomes = Array.make n None in
  (* Lane masks: [alive] the undecided lanes; [follow] the lanes whose
     off-core state — both ports' bus request and answer signals, both
     port drivers, main memory — equals golden's, so that they take
     the golden bus step instead of one of their own; [flagged] the
     lanes with a stop or a comparator mismatch recorded. *)
  let alive = ref 0 in
  for i = 0 to n - 1 do
    alive := !alive lor (1 lsl i)
  done;
  let follow = ref !alive and flagged = ref 0 in
  let driven_cycles = ref 0 in
  let record ln ev =
    ln.events_rev <- ev :: ln.events_rev;
    let write = Bus_event.is_write ev in
    if write then ln.nw <- ln.nw + 1;
    if write || compare_reads then
      if ln.matched < nref && Bus_event.equal ev reference.(ln.matched) then
        ln.matched <- ln.matched + 1
      else begin
        (match ln.mismatch with
        | None -> ln.mismatch <- Some (Lanes.cycle pass)
        | Some _ -> ());
        ln.abort <- true;
        flagged := !flagged lor (1 lsl ln.idx)
      end
  in
  let stop ln r =
    ln.stopped <- Some r;
    flagged := !flagged lor (1 lsl ln.idx)
  in
  (* The golden machine's bus drivers, replicated: the data port's so
     that base-memory writes land on the cycles the golden run produced
     them, both so that followers can take the golden bus step and
     convergence can compare a lane's drivers with golden's.  The golden
     request signals are the lanes' golden machine's settled values;
     the (ready, rdata) answers are not needed — golden inputs arrive
     via the trace deltas.  [g_ref] counts golden's reference events so
     far: its writes, and its reads too with [compare_reads]. *)
  let g = [| Leon3.Bus_port.idle (); Leon3.Bus_port.idle () |] and g_ref = ref 0 in
  let golden = Lanes.golden pass in
  (* A lane's driver on port [pi]: its own, or golden's while it follows. *)
  let port ln pi = if !follow land (1 lsl ln.idx) <> 0 then g.(pi) else ln.port.(pi) in
  let retire ln outcome =
    let bit = 1 lsl ln.idx in
    outcomes.(ln.idx) <- Some outcome;
    Lanes.retire pass ln.idx;
    alive := !alive land lnot bit;
    follow := !follow land lnot bit
  in
  let finish ln stop =
    retire ln
      (Done
         { stop;
           matched = ln.matched;
           stop_cycle = Lanes.cycle pass;
           mismatch_cycle = ln.mismatch;
           events = List.rev ln.events_rev })
  in
  (* Materialise a lane's full state for scalar continuation; the lane
     stands at a settled loop top, where [System.run_segment] resumes. *)
  let eject ln =
    let mem = Memory.copy base in
    Hashtbl.iter (fun wa v -> Memory.store_word mem wa v) ln.mem;
    let ip = port ln 0 and dp = port ln 1 in
    retire ln
      (Ejected
         { e_tp = Lanes.eject pass ln.idx;
           e_mem = mem;
           e_iport = (ip.countdown, ip.ready_out);
           e_dport = (dp.countdown, dp.ready_out);
           e_matched = ln.matched;
           e_mismatch = ln.mismatch;
           e_events_rev = ln.events_rev;
           e_writes = ln.nw })
  in
  (* One bus-port driver step for one lane, against the lane's settled
     view of the request signals, as [System.step] drives a port.
     Writes are not applied here — the merged word is parked in
     [ln.pw]/[pwv] (computed from the lane's pre-write view) and
     committed after the golden base write so the preserve step can see
     who writes what. *)
  let drive_lane ln pi =
    let ports = if pi = 0 then ic else dc in
    let read_only = pi = 0 in
    let get s = Lanes.value pass s ln.idx in
    if not (Leon3.Bus_port.step ln.port.(pi) ~req:(get ports.Cache_block.bus_req <> 0)) then (0, 0)
    else begin
      let addr = get ports.Cache_block.bus_addr in
      if get ports.Cache_block.bus_we <> 0 && not read_only then begin
        let size = size_of_code (get ports.Cache_block.bus_size) in
        let value = get ports.Cache_block.bus_wdata in
        record ln (Bus_event.Write { addr; size; value });
        if Layout.is_exit_store addr then stop ln (System.Exited value)
        else begin
          (* Merge into the lane's current word now (read-modify-write
             against the pre-write view), apply after the golden
             commit.  Misaligned addresses truncate like the scalar
             memory controller. *)
          let a = addr land 0xFFFF_FFFF in
          let wa = a land lnot 3 in
          let old = lv_load base ln wa in
          let wv =
            match size with
            | Bus_event.Byte ->
                let sh = 8 * (3 - (a land 3)) in
                (old land lnot (0xFF lsl sh)) lor ((value land 0xFF) lsl sh)
            | Bus_event.Half ->
                let a = a land lnot 1 in
                let sh = 8 * (2 - (a land 2)) in
                (old land lnot (0xFFFF lsl sh)) lor ((value land 0xFFFF) lsl sh)
            | Bus_event.Word -> value
          in
          ln.pw <- wa;
          ln.pwv <- wv land 0xFFFF_FFFF
        end;
        (1, 0)
      end
      else begin
        let word = lv_load base ln ((addr land 0xFFFF_FFFF) land lnot 3) in
        if not read_only then record ln (Bus_event.Read { addr; size = Bus_event.Word });
        (1, word)
      end
    end
  in
  (* Golden's step on both ports.  Every follower takes golden's
     data-port event through its own comparator, exactly as its own
     drive would have produced it. *)
  let golden_drive driven =
    ignore (Leon3.Bus_port.step g.(0) ~req:(golden ic.Cache_block.bus_req <> 0));
    if Leon3.Bus_port.step g.(1) ~req:(golden dc.Cache_block.bus_req <> 0) then begin
      let addr = golden dc.Cache_block.bus_addr in
      if golden dc.Cache_block.bus_we <> 0 then begin
        let size = size_of_code (golden dc.Cache_block.bus_size) in
        let value = golden dc.Cache_block.bus_wdata in
        let ev = Bus_event.Write { addr; size; value } in
        incr g_ref;
        iter_mask lanes !follow (fun ln -> record ln ev);
        if Layout.is_exit_store addr then
          iter_mask lanes !follow (fun ln -> stop ln (System.Exited value))
        else begin
          let wa = (addr land 0xFFFF_FFFF) land lnot 3 in
          (* Preserve each driven lane's view of the word the golden
             write is about to change — except lanes overwriting that
             same word themselves this cycle.  A follower wrote the
             golden word itself and holds no overlay. *)
          iter_mask lanes driven (fun ln ->
              ln.sv_set <- ln.pw <> wa;
              if ln.sv_set then ln.sv <- lv_load base ln wa);
          (match size with
          | Bus_event.Byte -> Memory.store_byte base addr value
          | Bus_event.Half -> Memory.store_half base (addr land lnot 1) value
          | Bus_event.Word -> Memory.store_word base (addr land lnot 3) value);
          iter_mask lanes driven (fun ln -> if ln.sv_set then lv_set base ln wa ln.sv)
        end
      end
      else begin
        let ev = Bus_event.Read { addr; size = Bus_event.Word } in
        if compare_reads then incr g_ref;
        iter_mask lanes !follow (fun ln -> record ln ev)
      end
    end
  in
  (* The bus signals a follower shares with golden: a lane marked
     diverged on any of them is driven on its own. *)
  let bus_signals =
    Array.concat
      (List.map
         (fun (p : Cache_block.ports) ->
           [| p.bus_req; p.bus_we; p.bus_addr; p.bus_wdata; p.bus_size; p.bus_ready; p.bus_rdata |])
         [ ic; dc ])
  in
  (* Update the follow set at a settled loop top.  A lane leaves when a
     bus signal diverges, taking over golden's driver states; a driven
     lane rejoins once its bus signals, both drivers and its main
     memory equal golden's again.  Returns the driven lanes. *)
  let leave ln =
    for pi = 0 to 1 do
      ln.port.(pi).countdown <- g.(pi).countdown;
      ln.port.(pi).ready_out <- g.(pi).ready_out
    done
  in
  let rejoin ln =
    if same_port ln.port.(0) g.(0) && same_port ln.port.(1) g.(1) && Hashtbl.length ln.mem = 0
    then follow := !follow lor (1 lsl ln.idx)
  in
  let refollow () =
    let div = ref 0 in
    for i = 0 to Array.length bus_signals - 1 do
      div := !div lor Lanes.diverged pass bus_signals.(i)
    done;
    let div = !div land !alive in
    iter_mask lanes (!follow land div) leave;
    follow := !follow land lnot div;
    iter_mask lanes (!alive land lnot !follow land lnot div) rejoin;
    !alive land lnot !follow
  in
  (* One cycle, in [System.step]'s order: port drives read the settled
     state (lane writes are parked), the golden drivers commit the
     golden base write, parked lane writes land over it, then the batch
     clocks and the driven lanes' bus answers settle in as next-cycle
     inputs.  A follower's answers are golden's: the trace brings
     them. *)
  let drive ln =
    incr driven_cycles;
    ln.pw <- -1;
    let ir, ird = drive_lane ln 0 in
    let dr, drd = drive_lane ln 1 in
    ln.in_ir <- ir;
    ln.in_ird <- ird;
    ln.in_dr <- dr;
    ln.in_drd <- drd
  in
  let land_write ln = if ln.pw >= 0 then lv_set base ln ln.pw ln.pwv in
  let answer ln =
    Lanes.set_input pass ic.Cache_block.bus_ready ln.idx ln.in_ir;
    Lanes.set_input pass ic.Cache_block.bus_rdata ln.idx ln.in_ird;
    Lanes.set_input pass dc.Cache_block.bus_ready ln.idx ln.in_dr;
    Lanes.set_input pass dc.Cache_block.bus_rdata ln.idx ln.in_drd
  in
  let step () =
    let driven = refollow () in
    iter_mask lanes driven drive;
    golden_drive driven;
    iter_mask lanes driven land_write;
    Lanes.clock pass;
    iter_mask lanes driven answer;
    Lanes.settle pass
  in
  (* Convergence against the golden machine: a lane whose fault window
     has closed and whose complete state — circuit, main memory, both
     bus drivers, comparator progress — equals golden's has a golden
     future, so its verdict is silent. *)
  let converged ln =
    let sp = specs.(ln.idx) in
    (match sp.duration with
    | Some d -> sp.from_cycle + d <= Lanes.cycle pass
    | None -> false)
    && Hashtbl.length ln.mem = 0
    && same_port (port ln 0) g.(0)
    && same_port (port ln 1) g.(1)
    && ln.matched = !g_ref
    && Lanes.lane_golden pass ln.idx
  in
  let terminal ln =
    match ln.stopped with
    | Some r -> finish ln r
    | None ->
        if ln.abort then finish ln System.Aborted
        else if Lanes.value pass core.Core.halted ln.idx <> 0 then
          finish ln (System.Trapped (Lanes.value pass core.Core.trap_code ln.idx))
        else if Lanes.cycle pass >= max_cycles then finish ln System.Cycle_limit
  in
  let last = C.trace_cycles trace - 1 in
  (* Dense lanes leave early.  A lane with a permanent fault never
     retires by convergence, and once it diverges almost everywhere it
     costs more per cycle here than the change-driven scalar engine
     that continues it from a transplant: that engine's work scales
     with the nodes that move, and golden's trace deltas count those.
     Every [dense_window] cycles, a live permanent-fault lane whose
     evaluations over the window exceed [dense_ratio] times golden's
     deltas over it is ejected, as at trace end.  Both constants come
     from a sweep on figure 5's behavioural and gate-level workloads
     (EXPERIMENTS.md, "Dense lanes leave the pass early"): ratio 1 and
     a 256-cycle window sit on both workloads' flat floors; a ratio of
     1/8, which ejects lanes that are cheap here, is slower than
     ejecting none, and ratios from 2 up keep most dense lanes. *)
  let dense_window = 256 and dense_ratio = 1 in
  let window_evals = Array.make n 0 and window_deltas = ref 0 in
  let leave_if_dense () =
    let deltas = Lanes.golden_deltas pass in
    let budget = dense_ratio * (deltas - !window_deltas) in
    window_deltas := deltas;
    iter_mask lanes !alive (fun ln ->
        if specs.(ln.idx).duration = None then begin
          let evals = Lanes.lane_evals pass ln.idx in
          if evals - window_evals.(ln.idx) > budget then eject ln
          else window_evals.(ln.idx) <- evals
        end)
  in
  let rec loop () =
    (* Terminal checks in the scalar run loop's order.  Only a lane
       with a stop or mismatch recorded, or one diverged on [halted],
       can end here — unless golden itself has halted or the cycle
       limit is reached, when every lane is checked. *)
    iter_mask lanes
      (if Lanes.cycle pass >= max_cycles || golden core.Core.halted <> 0 then !alive
       else (!flagged lor Lanes.diverged pass core.Core.halted) land !alive)
      terminal;
    (match converge_every with
    | Some every when Lanes.cycle pass > 0 && Lanes.cycle pass mod every = 0 ->
        iter_mask lanes !alive (fun ln ->
            if converged ln then retire ln (Converged (Lanes.cycle pass)))
    | Some _ | None -> ());
    if Lanes.cycle pass mod dense_window = 0 && Lanes.cycle pass < last then leave_if_dense ();
    if !alive <> 0 then
      if Lanes.cycle pass < last then begin
        step ();
        loop ()
      end
      else
        (* The trace ends here: there is no golden state to clock
           towards, and the scalar engine, with its cycle-proof
           detector, decides the survivors from this settled state. *)
        iter_mask lanes !alive eject
  in
  loop ();
  ( Array.map Option.get outcomes,
    { (Lanes.stats pass) with C.bs_driven_lane_cycles = !driven_cycles } )
