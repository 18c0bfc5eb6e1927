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

(* A lane still undecided at the trace's last cycle, extracted for
   scalar continuation: circuit state + fault (the transplant), the
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
   plus a sparse word-addressed overlay; bus-port drivers mirror
   [System.drive_port]'s countdown/ready machine per lane. *)
type lane = {
  idx : int;
  cd : int array;  (* countdown per port: [|iport; dport|] *)
  rdy : bool array;  (* ready_out per port *)
  mem : (int, int) Hashtbl.t;  (* aligned word addr -> lane's word *)
  mutable matched : int;
  mutable mismatch : int option;
  mutable stopped : System.stop_reason option;
  mutable abort : bool;
  mutable events_rev : Bus_event.t list;
  mutable nw : int;  (* write events among events_rev *)
  mutable finished : bool;
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
    cd = [| -1; -1 |];
    rdy = [| false; false |];
    mem = Hashtbl.create 16;
    matched = 0;
    mismatch = None;
    stopped = None;
    abort = false;
    events_rev = [];
    nw = 0;
    finished = false;
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

let run ~sys ~prog ~trace ~reference ~max_cycles ?(compare_reads = false)
    ?(boundaries = [||]) specs =
  let n = Array.length specs in
  if n > C.max_lanes then invalid_arg "Batch.run: more specs than lanes";
  let core = System.core sys in
  let circuit = core.Core.circuit in
  let ic = core.Core.icache and dc = core.Core.dcache in
  let latency = System.mem_latency sys in
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
  let live = ref n in
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
        ln.abort <- true
      end
  in
  let retire ln outcome =
    outcomes.(ln.idx) <- Some outcome;
    Lanes.retire pass ln.idx;
    ln.finished <- true;
    decr live
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
    retire ln
      (Ejected
         { e_tp = Lanes.eject pass ln.idx;
           e_mem = mem;
           e_iport = (ln.cd.(0), ln.rdy.(0));
           e_dport = (ln.cd.(1), ln.rdy.(1));
           e_matched = ln.matched;
           e_mismatch = ln.mismatch;
           e_events_rev = ln.events_rev;
           e_writes = ln.nw })
  in
  (* One bus-port driver step for one lane, against the lane's settled
     view of the request signals; mirrors [System.drive_port].  Writes
     are not applied here — the merged word is parked in [ln.pw]/[pwv]
     (computed from the lane's pre-write view) and committed after the
     golden base write so the preserve step can see who writes what. *)
  let drive_lane ln pi =
    let ports = if pi = 0 then ic else dc in
    let read_only = pi = 0 in
    let get s = Lanes.value pass s ln.idx in
    if ln.rdy.(pi) then begin
      ln.rdy.(pi) <- false;
      ln.cd.(pi) <- -1;
      (0, 0)
    end
    else if get ports.Cache_block.bus_req = 0 then begin
      ln.cd.(pi) <- -1;
      (0, 0)
    end
    else begin
      if ln.cd.(pi) < 0 then ln.cd.(pi) <- latency;
      ln.cd.(pi) <- ln.cd.(pi) - 1;
      if ln.cd.(pi) > 0 then (0, 0)
      else begin
        let addr = get ports.Cache_block.bus_addr in
        let we = get ports.Cache_block.bus_we in
        ln.rdy.(pi) <- true;
        if we <> 0 && not read_only then begin
          let size = size_of_code (get ports.Cache_block.bus_size) in
          let value = get ports.Cache_block.bus_wdata in
          record ln (Bus_event.Write { addr; size; value });
          if Layout.is_exit_store addr then ln.stopped <- Some (System.Exited value)
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
    end
  in
  (* The golden machine's data-port driver, replicated so base-memory
     writes land on the same cycles the golden run produced them.  The
     golden request signals are the lanes' golden machine's settled
     values; the (ready, rdata) answers are not needed — golden inputs
     arrive via the trace deltas. *)
  let g_cd = ref (-1) and g_rdy = ref false in
  let golden = Lanes.golden pass in
  let golden_drive () =
    if !g_rdy then begin
      g_rdy := false;
      g_cd := -1
    end
    else if golden dc.Cache_block.bus_req = 0 then g_cd := -1
    else begin
      if !g_cd < 0 then g_cd := latency;
      decr g_cd;
      if !g_cd <= 0 then begin
        g_rdy := true;
        let we = golden dc.Cache_block.bus_we in
        if we <> 0 then begin
          let addr = golden dc.Cache_block.bus_addr in
          if not (Layout.is_exit_store addr) then begin
            let size = size_of_code (golden dc.Cache_block.bus_size) in
            let value = golden dc.Cache_block.bus_wdata in
            let wa = (addr land 0xFFFF_FFFF) land lnot 3 in
            (* Preserve each live lane's view of the word the golden
               write is about to change — except lanes overwriting that
               same word themselves this cycle. *)
            Array.iter
              (fun ln ->
                if (not ln.finished) && ln.pw <> wa then begin
                  ln.sv <- lv_load base ln wa;
                  ln.sv_set <- true
                end
                else ln.sv_set <- false)
              lanes;
            (match size with
            | Bus_event.Byte -> Memory.store_byte base addr value
            | Bus_event.Half -> Memory.store_half base (addr land lnot 1) value
            | Bus_event.Word -> Memory.store_word base (addr land lnot 3) value);
            Array.iter
              (fun ln -> if ln.sv_set then lv_set base ln wa ln.sv)
              lanes
          end
        end
      end
    end
  in
  (* One cycle, in [System.step]'s order: port drives read the settled
     state (lane writes are parked), the golden driver commits its base
     write, parked lane writes land over it, then the batch clocks and
     the bus answers settle in as next-cycle inputs. *)
  let step () =
    Array.iter
      (fun ln ->
        if not ln.finished then begin
          ln.pw <- -1;
          let ir, ird = drive_lane ln 0 in
          let dr, drd = drive_lane ln 1 in
          ln.in_ir <- ir;
          ln.in_ird <- ird;
          ln.in_dr <- dr;
          ln.in_drd <- drd
        end)
      lanes;
    golden_drive ();
    Array.iter
      (fun ln -> if (not ln.finished) && ln.pw >= 0 then lv_set base ln ln.pw ln.pwv)
      lanes;
    Lanes.clock pass;
    Array.iter
      (fun ln ->
        if not ln.finished then begin
          Lanes.set_input pass ic.Cache_block.bus_ready ln.idx ln.in_ir;
          Lanes.set_input pass ic.Cache_block.bus_rdata ln.idx ln.in_ird;
          Lanes.set_input pass dc.Cache_block.bus_ready ln.idx ln.in_dr;
          Lanes.set_input pass dc.Cache_block.bus_rdata ln.idx ln.in_drd
        end)
      lanes;
    Lanes.settle pass
  in
  (* Convergence at a golden boundary: a lane whose fault window has
     closed and whose complete state — circuit, main memory, both bus
     drivers, comparator progress — equals the golden run's there has a
     golden future, so its verdict is silent. *)
  let converged ln ck =
    let sp = specs.(ln.idx) in
    (match sp.duration with
    | Some d -> sp.from_cycle + d <= System.checkpoint_cycle ck
    | None -> false)
    && Hashtbl.length ln.mem = 0
    && (ln.cd.(0), ln.rdy.(0)) = System.checkpoint_iport ck
    && (ln.cd.(1), ln.rdy.(1)) = System.checkpoint_dport ck
    && ln.matched
       = (if compare_reads then System.checkpoint_events ck else System.checkpoint_writes ck)
    && Lanes.lane_golden pass ln.idx
  in
  let next_boundary = ref 0 in
  let boundary_at cyc =
    let nb = Array.length boundaries in
    while !next_boundary < nb && System.checkpoint_cycle boundaries.(!next_boundary) < cyc do
      incr next_boundary
    done;
    if !next_boundary < nb && System.checkpoint_cycle boundaries.(!next_boundary) = cyc then
      Some boundaries.(!next_boundary)
    else None
  in
  let last = C.trace_cycles trace - 1 in
  let rec loop () =
    (* Terminal checks in the scalar run loop's order. *)
    Array.iter
      (fun ln ->
        if not ln.finished then
          match ln.stopped with
          | Some r -> finish ln r
          | None ->
              if ln.abort then finish ln System.Aborted
              else if Lanes.value pass core.Core.halted ln.idx <> 0 then
                finish ln (System.Trapped (Lanes.value pass core.Core.trap_code ln.idx))
              else if Lanes.cycle pass >= max_cycles then finish ln System.Cycle_limit)
      lanes;
    (match boundary_at (Lanes.cycle pass) with
    | Some ck ->
        Array.iter
          (fun ln ->
            if (not ln.finished) && converged ln ck then
              retire ln (Converged (Lanes.cycle pass)))
          lanes
    | None -> ());
    if !live > 0 then
      if Lanes.cycle pass < last then begin
        step ();
        loop ()
      end
      else
        (* The trace ends here: there is no golden state to clock
           towards, and the scalar engine, with its cycle-proof
           detector, decides the survivors from this settled state. *)
        Array.iter (fun ln -> if not ln.finished then eject ln) lanes
  in
  loop ();
  (Array.map Option.get outcomes, Lanes.stats pass)
