module C = Rtl.Circuit
module Asm = Sparc.Asm
module Memory = Sparc.Memory
module Layout = Sparc.Layout
module Bus_event = Sparc.Bus_event

type stop_reason = Exited of int | Trapped of int | Cycle_limit | Aborted

type t = {
  core : Core.t;
  iport : Bus_port.t;
  dport : Bus_port.t;
  mutable mem : Memory.t;
  mutable events_rev : Bus_event.t list;
  mutable n_events : int;  (* length of events_rev *)
  mutable n_writes : int;  (* write events among them *)
  mutable stopped : stop_reason option;
  mutable abort : bool;
  mutable obs : Obs.t;
}

let create ?params () =
  { core = Core.build ?params ();
    iport = Bus_port.idle ();
    dport = Bus_port.idle ();
    mem = Memory.create ();
    events_rev = [];
    n_events = 0;
    n_writes = 0;
    stopped = None;
    abort = false;
    obs = Obs.null }

let core t = t.core

let set_obs t obs = t.obs <- obs

let obs t = t.obs

let circuit t = t.core.Core.circuit

let load t prog =
  if prog.Asm.entry <> Core.reset_pc then
    invalid_arg
      (Printf.sprintf "System.load: program entry 0x%08x is not the reset PC 0x%08x"
         prog.Asm.entry Core.reset_pc);
  C.reset (circuit t);
  t.mem <- Memory.create ();
  Asm.load prog t.mem;
  t.events_rev <- [];
  t.n_events <- 0;
  t.n_writes <- 0;
  t.stopped <- None;
  t.abort <- false;
  let reset (p : Bus_port.t) =
    p.countdown <- -1;
    p.ready_out <- false
  in
  reset t.iport;
  reset t.dport;
  C.set_input (circuit t) t.core.Core.icache.bus_ready 0;
  C.set_input (circuit t) t.core.Core.dcache.bus_ready 0;
  C.settle (circuit t)

let record t ev on_event =
  t.events_rev <- ev :: t.events_rev;
  t.n_events <- t.n_events + 1;
  if Bus_event.is_write ev then t.n_writes <- t.n_writes + 1;
  match on_event with
  | Some f -> if not (f ev) then t.abort <- true
  | None -> ()

let size_of_code = function 0 -> Bus_event.Byte | 1 -> Bus_event.Half | _ -> Bus_event.Word

(* Step a port's driver against its settled request and return the
   (ready, rdata) pair to present next cycle. *)
let drive_port t (ports : Cache_block.ports) p ~read_only on_event =
  let c = circuit t in
  if not (Bus_port.step p ~req:(C.value c ports.bus_req <> 0)) then (0, 0)
  else begin
    let addr = C.value c ports.bus_addr in
    if C.value c ports.bus_we <> 0 && not read_only then begin
      let size = size_of_code (C.value c ports.bus_size) in
      let value = C.value c ports.bus_wdata in
      record t (Bus_event.Write { addr; size; value }) on_event;
      if Layout.is_exit_store addr then t.stopped <- Some (Exited value)
      else begin
        (* A fault inside the core can defeat its own alignment check
           and push a misaligned address onto the bus; the memory
           controller truncates like real hardware would (the raw
           address is already recorded, so lockstep still sees the
           divergence). *)
        match size with
        | Bus_event.Byte -> Memory.store_byte t.mem addr value
        | Bus_event.Half -> Memory.store_half t.mem (addr land lnot 1) value
        | Bus_event.Word -> Memory.store_word t.mem (addr land lnot 3) value
      end;
      (1, 0)
    end
    else begin
      let word = Memory.load_word t.mem (addr land lnot 3) in
      if not read_only then record t (Bus_event.Read { addr; size = Bus_event.Word }) on_event;
      (1, word)
    end
  end

let step_with t on_event =
  let c = circuit t in
  let i_ready, i_rdata = drive_port t t.core.Core.icache t.iport ~read_only:true on_event in
  let d_ready, d_rdata = drive_port t t.core.Core.dcache t.dport ~read_only:false on_event in
  C.clock c;
  C.set_input c t.core.Core.icache.bus_ready i_ready;
  C.set_input c t.core.Core.icache.bus_rdata i_rdata;
  C.set_input c t.core.Core.dcache.bus_ready d_ready;
  C.set_input c t.core.Core.dcache.bus_rdata d_rdata;
  C.settle c

let step t = step_with t None

let port_state (p : Bus_port.t) = (p.countdown, p.ready_out)

let ports t = (port_state t.iport, port_state t.dport)

(* [run_segment] pauses (returns [None]) once the cycle counter
   reaches [until_cycle]; terminal conditions return [Some reason] and
   latch as before.  The pause point is between steps, i.e. at a
   settled state.

   [detect_loops] arms cycle-proof hang detection: a run that is going
   to exhaust its cycle budget almost always spins in a short state
   loop (the core wedged, or bouncing between a handful of stall
   states).  A {!Rtl.Cycle} Brent detector fingerprints the complete
   machine state — circuit nodes, memories, write count and both
   bus-driver states — every 4th cycle against an anchor refreshed on
   a doubling schedule, and confirms every fingerprint match with an
   exact [same_state] comparison before reporting (a hash collision is
   never a proof).  A confirmed match with no bus WRITE recorded in
   between is a proof of periodicity: main memory only changes through
   writes, reads are pure (a spin-wait hang keeps reading, so
   requiring an event-free window would miss it), the port drivers are
   part of the compared state, and an armed permanent fault is a pure
   function of the circuit state — so the machine will replay the same
   write-free window forever and can never exit, trap or write again.
   The early [Cycle_limit] is therefore exactly the verdict a full run
   to [max_cycles] would return.  Caveat: [on_event] must be
   insensitive to reads (the campaign only arms [detect_loops] with
   its write-only lockstep comparison) — a read-comparing observer
   consumes its reference stream, which is not part of the compared
   state. *)
let run_segment_raw ?on_event ?(detect_loops = false) t ~until_cycle ~max_cycles =
  let c = circuit t in
  let det =
    if not detect_loops then None
    else
      let mix h x = ((h lxor x) * 0x100000001B3) lxor (h lsr 17) in
      Some
        (Rtl.Cycle.create ~first:256 ~stride:4
           ~hash:(fun () ->
             mix
               (mix
                  (mix
                     (mix (mix (C.content_hash c) t.n_writes) t.iport.countdown)
                     (Bool.to_int t.iport.ready_out))
                  t.dport.countdown)
               (Bool.to_int t.dport.ready_out))
           ~capture:(fun () -> (C.snapshot c, t.n_writes, ports t))
           ~confirm:(fun (s, wr, p) ->
             t.n_writes = wr && ports t = p && C.same_state c s)
           ())
  in
  let loop_check () =
    match det with
    | None -> false
    | Some d -> (
        match Rtl.Cycle.observe d ~cycle:(C.cycle c) with
        | Some period ->
            if Obs.enabled t.obs then begin
              Obs.incr t.obs "tail.cycle_proofs";
              Obs.observe t.obs "tail.cycle_length" (float_of_int period);
              Obs.incr t.obs ~by:(max_cycles - C.cycle c) "tail.cycles_saved"
            end;
            true
        | None -> false)
  in
  let rec go () =
    match t.stopped with
    | Some r -> Some r
    | None ->
        if t.abort then begin
          t.stopped <- Some Aborted;
          Some Aborted
        end
        else if C.value c t.core.Core.halted <> 0 then begin
          let r = Trapped (C.value c t.core.Core.trap_code) in
          t.stopped <- Some r;
          Some r
        end
        else if C.cycle c >= max_cycles || (detect_loops && loop_check ()) then begin
          t.stopped <- Some Cycle_limit;
          Some Cycle_limit
        end
        else if C.cycle c >= until_cycle then None
        else begin
          step_with t on_event;
          go ()
        end
  in
  go ()

let run_segment ?on_event ?detect_loops t ~until_cycle ~max_cycles =
  if not (Obs.enabled t.obs) then
    run_segment_raw ?on_event ?detect_loops t ~until_cycle ~max_cycles
  else begin
    let c = circuit t in
    let c0 = C.cycle c and i0 = C.value c t.core.Core.instret in
    let r = run_segment_raw ?on_event ?detect_loops t ~until_cycle ~max_cycles in
    Obs.incr t.obs ~by:(C.cycle c - c0) "rtl.cycles";
    Obs.incr t.obs ~by:(C.value c t.core.Core.instret - i0) "rtl.instructions";
    r
  end

let run ?on_event ?detect_loops t ~max_cycles =
  match run_segment ?on_event ?detect_loops t ~until_cycle:max_int ~max_cycles with
  | Some r -> r
  | None -> assert false (* until_cycle = max_int never pauses first *)

(* --- lane -> scalar transplant (batch tail hand-off) --- *)

let transplant t tp ~mem ~iport:(icd, iro) ~dport:(dcd, dro) ~events_rev ~n_events
    ~n_writes =
  C.transplant (circuit t) tp;
  t.mem <- mem;
  t.events_rev <- events_rev;
  t.n_events <- n_events;
  t.n_writes <- n_writes;
  t.stopped <- None;
  t.abort <- false;
  t.iport.countdown <- icd;
  t.iport.ready_out <- iro;
  t.dport.countdown <- dcd;
  t.dport.ready_out <- dro

let stop t = t.stopped

let cycles t = C.cycle (circuit t)

let instructions t = C.value (circuit t) t.core.Core.instret

let events t = List.rev t.events_rev

let writes t = List.filter Bus_event.is_write (events t)

let memory t = t.mem

let reg t r =
  let c = circuit t in
  if r = 0 then 0
  else
    let cwp = C.value c t.core.Core.cwp in
    C.mem_read c t.core.Core.regfile
      (Core.regfile_slot ~nwindows:Core.nwindows ~cwp r)

let pp_stop fmt = function
  | Exited code -> Format.fprintf fmt "exited(%d)" code
  | Trapped code -> Format.fprintf fmt "trap(%d)" code
  | Cycle_limit -> Format.fprintf fmt "cycle-limit"
  | Aborted -> Format.fprintf fmt "aborted"
