(* Tests for the change-driven settle.  [settle] evaluates only the
   comb fanout of what changed since the last settle, with or without a
   fault armed, and records traces and coverage from the changes; the
   dense sweep runs at every settle of a [Circuit.reference] run, the
   oracle.  Each check below runs a circuit next to a dense twin on the
   reference engine: the real Leon3 netlists for recording, small random
   netlists for values and recording, with faults of every model armed
   on source, comb and cell sites.  The random netlists mix word-level operators
   with gate cells, one-bit tables and taps — the nodes both
   change-driven loops evaluate from their shape instead of their
   evaluator — and also run as lanes ({!Rtl.Lanes}) next to one dense
   faulty twin per lane.  A watchdog continuation, the scalar engine's
   faulty run after a lane's transplant, is change-driven too; the
   dense reference [Campaign.run_one] without a plan sweeps at every
   settle. *)

module C = Rtl.Circuit
module Lanes = Rtl.Lanes
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection
module Suite = Workloads.Suite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let circuit sys = (Leon3.System.core sys).Leon3.Core.circuit

let behav_sys = lazy (Leon3.System.create ())

let gate_sys =
  lazy
    (Leon3.System.create
       ~params:{ Leon3.Core.default_params with Leon3.Core.gate_level = true }
       ())

let max_cycles = 5_000_000

let program ?iterations name =
  let e = Suite.find name in
  let iterations = Option.value iterations ~default:e.Suite.default_iterations in
  e.Suite.build ~iterations ~dataset:0

(* ---- recording on the real netlists ---- *)

type recording = {
  cycles : int;
  writes : Sparc.Bus_event.t list;
  cov : C.coverage;
  tr : C.trace;
  evaluated : int;
  dense_equiv : int;
}

(* The way [golden_run ~coverage ~trace] records: change-driven. *)
let record_golden sys prog =
  let obs = Obs.create () in
  let g = Campaign.golden_run ~obs ~coverage:true ~trace:true sys prog ~max_cycles in
  { cycles = g.Campaign.cycles;
    writes = Array.to_list g.Campaign.writes;
    cov = Option.get g.Campaign.coverage;
    tr = Option.get g.Campaign.trace;
    evaluated = Obs.counter obs "golden.evaluated";
    dense_equiv = Obs.counter obs "golden.dense_equiv" }

(* The same run on the reference engine: every settle sweeps. *)
let record_dense sys prog =
  let c = circuit sys in
  let w0 = C.settle_stats c in
  C.clear_fault c;
  C.coverage_start c;
  C.trace_start c;
  let stop =
    C.reference c (fun () ->
        Leon3.System.load sys prog;
        Leon3.System.run sys ~max_cycles)
  in
  let cov = C.coverage_stop c and tr = C.trace_stop c in
  (match stop with
  | Leon3.System.Exited _ -> ()
  | Leon3.System.Trapped _ | Leon3.System.Cycle_limit | Leon3.System.Aborted ->
      Alcotest.fail "dense recording did not exit");
  let w1 = C.settle_stats c in
  { cycles = Leon3.System.cycles sys;
    writes = Leon3.System.writes sys;
    cov;
    tr;
    evaluated = w1.C.ss_evals - w0.C.ss_evals;
    dense_equiv = w1.C.ss_dense_evals - w0.C.ss_dense_evals }

let check_same_recording label sys ~golden:g ~dense:d =
  check_int (label ^ ": cycles") d.cycles g.cycles;
  check_bool (label ^ ": bus writes") true (d.writes = g.writes);
  check_int (label ^ ": traced cycles") (C.trace_cycles d.tr) (C.trace_cycles g.tr);
  (* per cycle, the same set of (node, value) deltas: scatter the dense
     ones, then look each change-driven one up *)
  let n = C.node_count (circuit sys) in
  let at = Array.make n (-1) and value = Array.make n 0 in
  for cyc = 0 to C.trace_cycles d.tr - 1 do
    let dd = C.trace_deltas d.tr cyc and gd = C.trace_deltas g.tr cyc in
    Array.iter
      (fun ((s : C.signal), v) ->
        at.((s :> int)) <- cyc;
        value.((s :> int)) <- v)
      dd;
    let recorded ((s : C.signal), v) = at.((s :> int)) = cyc && value.((s :> int)) = v in
    if Array.length gd <> Array.length dd || not (Array.for_all recorded gd) then
      Alcotest.failf "%s: deltas of cycle %d differ" label cyc
  done;
  let core = Leon3.System.core sys in
  List.iter
    (fun target ->
      List.iter
        (fun (site : Injection.site) ->
          List.iter
            (fun model ->
              let f = site.Injection.fault_site in
              if C.never_activates d.cov f model <> C.never_activates g.cov f model then
                Alcotest.failf "%s: coverage of %s under %s differs" label
                  site.Injection.site_name (C.fault_model_name model))
            [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line ])
        (Injection.sites core target))
    [ Injection.Iu; Injection.Cmem ];
  check_int (label ^ ": dense sweep evaluated every comb node") d.dense_equiv d.evaluated;
  check_int (label ^ ": same settle count") d.dense_equiv g.dense_equiv;
  check_bool (label ^ ": change-driven evaluated fewer") true (g.evaluated < g.dense_equiv)

let test_recording_matches_dense () =
  List.iter
    (fun (elab, sys, iterations) ->
      let sys = Lazy.force sys in
      List.iter
        (fun (e : Suite.entry) ->
          let prog = program ?iterations e.Suite.name in
          let label = e.Suite.name ^ "/" ^ elab in
          check_same_recording label sys ~golden:(record_golden sys prog)
            ~dense:(record_dense sys prog))
        Suite.table1_set)
    [ ("behavioural", behav_sys, None); ("gate-level", gate_sys, Some 1) ]

(* ---- a trace does not depend on what ran before it ---- *)

let test_trace_ignores_earlier_runs () =
  let sys = Lazy.force behav_sys in
  let prog = program ~iterations:1 "rspeed" in
  let trace_after earlier =
    ignore (Campaign.golden_run sys (program ~iterations:1 earlier) ~max_cycles);
    Option.get (Campaign.golden_run ~trace:true sys prog ~max_cycles).Campaign.trace
  in
  let a = trace_after "canrdr" and b = trace_after "membench" in
  check_int "cycle 0 holds no deltas" 0 (Array.length (C.trace_deltas a 0));
  check_int "traced cycles" (C.trace_cycles a) (C.trace_cycles b);
  for cyc = 0 to C.trace_cycles a - 1 do
    if C.trace_deltas a cyc <> C.trace_deltas b cyc then
      Alcotest.failf "deltas of cycle %d depend on the earlier run" cyc
  done

(* ---- random netlists against a dense twin ---- *)

(* Every field is raw: node references are taken modulo the nodes
   built so far, so any value (and any shrink of it) is a netlist. *)
type netlist = {
  inputs : int list;  (* widths *)
  consts : (int * int) list;  (* width, value *)
  regs : (int * int * int * int option) list;  (* width, init, d, enable *)
  words : int;
  mem_width : int;
  combs : (int * int list * int) list;
      (* op, dependencies, width; an op past the named ones is a
         three-input one-bit table *)
  reads : (int * int) list;  (* read ports: position among the combs, address *)
  write : int * int * int;  (* write port: we, addr, data *)
}

type action =
  | Set_input of int * int
  | Mem_write of int * int
  | Settle
  | Step  (** clock, then settle *)
  | Snapshot
  | Restore
  | Reset
  | Inject of int * int * C.fault_model * int * int option
      (** site, bit, model, cycles from now, duration *)
  | Clear_fault

let op_names =
  [| "add"; "sub"; "xor"; "and"; "or"; "not"; "mux"; "shl"; "eq"; "gate_not"; "gate_buf";
     "gate_nand"; "gate_nor"; "gate_mux"; "tap" |]

let op_name op =
  if op < Array.length op_names then op_names.(op)
  else Printf.sprintf "table %#x" ((op - Array.length op_names) land 0xFF)

(* Pure evaluators only: the settle relies on it.  A gate cell or table
   reads one bit of each wider dependency through a tap, which [tap]
   adds to the netlist (so faults can land on it too). *)
let add_comb ~tap c name width op deps =
  let a = deps.(0) and b = deps.(1 mod Array.length deps) in
  let d = deps.(2 mod Array.length deps) in
  let bit1 j s =
    if C.signal_width c s = 1 then s else tap (Printf.sprintf "%s_b%d" name j) s
  in
  match op with
  | 9 -> C.gate_not c name (bit1 0 a)
  | 10 -> C.gate_buf c name (bit1 0 a)
  | 11 -> C.gate_nand c name (bit1 0 a) (bit1 1 b)
  | 12 -> C.gate_nor c name (bit1 0 a) (bit1 1 b)
  | 13 -> C.gate_mux c name ~sel:(bit1 0 a) (bit1 1 b) (bit1 2 d)
  | 14 -> C.tap c name a ((width - 1) mod C.signal_width c a)
  | op when op > 14 ->
      let tt = (op - 15) land 0xFF in
      C.comb3 c name 1 (bit1 0 a) (bit1 1 b) (bit1 2 d) (fun x y z ->
          (tt lsr (x + (2 * y) + (4 * z))) land 1)
  | 0 -> C.comb2 c name width a b ( + )
  | 1 -> C.comb2 c name width a b ( - )
  | 2 -> C.comb2 c name width a b ( lxor )
  | 3 -> C.comb2 c name width a b ( land )
  | 4 -> C.comb2 c name width a b ( lor )
  | 5 -> C.comb1 c name width a lnot
  | 6 ->
      C.combn c name width [| a; b; d |] (fun vs -> if vs.(0) <> 0 then vs.(1) else vs.(2))
  | 7 -> C.comb2 c name width a b (fun x y -> (x lsl 1) lor (y land 1))
  | _ -> C.comb2 c name width a b (fun x y -> if x = y then 1 else 0)

type rig = { c : C.t; ins : C.signal array; nodes : C.signal array; mem : C.memory }

let build nl =
  let c = C.create "random" in
  let nodes = ref [||] in
  let add s = nodes := Array.append !nodes [| s |] in
  let pick raw = !nodes.(raw mod Array.length !nodes) in
  let ins =
    Array.of_list (List.mapi (fun i w -> C.input c (Printf.sprintf "in%d" i) w) nl.inputs)
  in
  Array.iter add ins;
  List.iteri (fun i (w, v) -> add (C.const c (Printf.sprintf "k%d" i) w v)) nl.consts;
  let regs =
    List.mapi
      (fun i (w, init, _, _) ->
        let r = C.reg c (Printf.sprintf "r%d" i) ~width:w ~init () in
        add r;
        r)
      nl.regs
  in
  let mem = C.memory c "mem" ~words:nl.words ~width:nl.mem_width in
  let ncomb = List.length nl.combs in
  let read_ports_at k =
    List.iteri
      (fun i (pos, addr) ->
        if pos mod (ncomb + 1) = k then
          add (C.read_port c (Printf.sprintf "rd%d" i) mem (pick addr)))
      nl.reads
  in
  let tap name s =
    let t = C.tap c name s (C.signal_width c s - 1) in
    add t;
    t
  in
  List.iteri
    (fun k (op, deps, w) ->
      read_ports_at k;
      let deps = Array.of_list (List.map pick deps) in
      add (add_comb ~tap c (Printf.sprintf "n%d" k) w op deps))
    nl.combs;
  read_ports_at ncomb;
  List.iter2
    (fun r (_, _, d, en) -> C.connect c r ?en:(Option.map pick en) ~d:(pick d) ())
    regs nl.regs;
  let we, addr, data = nl.write in
  C.write_port c mem ~we:(pick we) ~addr:(pick addr) ~data:(pick data);
  C.elaborate c;
  { c; ins; nodes = !nodes; mem }

let same_state ~words a b =
  Array.for_all (fun s -> C.value a.c s = C.value b.c s) a.nodes
  && List.for_all
       (fun i -> C.mem_read a.c a.mem i = C.mem_read b.c b.mem i)
       (List.init words Fun.id)

let same_coverage a ca cb =
  Array.for_all
    (fun s ->
      List.for_all
        (fun bit ->
          List.for_all
            (fun model ->
              C.never_activates ca (C.Node (s, bit)) model
              = C.never_activates cb (C.Node (s, bit)) model)
            [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line ])
        (List.init (C.signal_width a.c s) Fun.id))
    a.nodes

(* Per cycle, the same deltas: the same nodes, each with the same
   values in the same order (a node that moves and moves back between
   two settles of one cycle records both moves). *)
let same_trace ta tb =
  let by_node tr cyc =
    List.stable_sort
      (fun ((x : C.signal), _) ((y : C.signal), _) -> compare (x :> int) (y :> int))
      (Array.to_list (C.trace_deltas tr cyc))
  in
  C.trace_cycles ta = C.trace_cycles tb
  && List.for_all
       (fun cyc -> by_node ta cyc = by_node tb cyc)
       (List.init (C.trace_cycles ta) Fun.id)

(* A settle of a dense twin, on the reference engine. *)
let dense_settle rig = C.reference rig.c (fun () -> C.settle rig.c)

(* Run [actions] on a circuit and on its dense twin, comparing every
   node value and memory word after each settle and the coverage at
   the end.  Both arm the same faults: the circuit settles
   change-driven under them, the twin sweeps.  Both also record a
   trace until the first action that can move the cycle counter back
   (a restore or a reset), and the traces must agree: an inject or a
   clear_fault on the way makes the circuit's next settle a dense
   sweep, which compares every node with its last recorded value. *)
let agrees (nl, actions) =
  let a = build nl and b = build nl in
  C.reset a.c;
  C.reset b.c;
  C.coverage_start a.c;
  C.coverage_start b.c;
  C.trace_start a.c;
  C.trace_start b.c;
  let tracing = ref true in
  let traces_agree () =
    (not !tracing)
    ||
    (tracing := false;
     same_trace (C.trace_stop a.c) (C.trace_stop b.c))
  in
  let snaps = ref None in
  let settle () =
    C.settle a.c;
    dense_settle b;
    same_state ~words:nl.words a b
  in
  let step ok act =
    ok
    &&
    match act with
    | Set_input (i, v) ->
        C.set_input a.c a.ins.(i mod Array.length a.ins) v;
        C.set_input b.c b.ins.(i mod Array.length b.ins) v;
        true
    | Mem_write (i, v) ->
        C.mem_write a.c a.mem (i mod nl.words) v;
        C.mem_write b.c b.mem (i mod nl.words) v;
        true
    | Settle -> settle ()
    | Step ->
        C.clock a.c;
        C.clock b.c;
        settle ()
    | Snapshot ->
        snaps := Some (C.snapshot a.c, C.snapshot b.c);
        true
    | Restore ->
        traces_agree ()
        && begin
             (match !snaps with
             | Some (sa, sb) ->
                 C.restore a.c sa;
                 C.restore b.c sb
             | None -> ());
             true
           end
    | Reset ->
        traces_agree ()
        && begin
             C.reset a.c;
             C.reset b.c;
             true
           end
    | Inject (s, bit, model, after, duration) ->
        let site rig =
          if s mod 4 = 0 then C.Cell (rig.mem, s / 4 mod nl.words, bit mod nl.mem_width)
          else
            let n = rig.nodes.(s mod Array.length rig.nodes) in
            C.Node (n, bit mod C.signal_width rig.c n)
        in
        let from_cycle = C.cycle a.c + after in
        C.inject a.c ~from_cycle ?duration (site a) model;
        C.inject b.c ~from_cycle ?duration (site b) model;
        true
    | Clear_fault ->
        C.clear_fault a.c;
        C.clear_fault b.c;
        true
  in
  let ok = List.fold_left step true actions && settle () && traces_agree () in
  let stats = C.settle_stats b.c in
  ok
  && same_coverage a (C.coverage_stop a.c) (C.coverage_stop b.c)
  && stats.C.ss_evals = stats.C.ss_dense_evals

let raw = QCheck2.Gen.int_bound 1000

(* Mostly bytes, sometimes any 32-bit word. *)
let byte = QCheck2.Gen.(frequency [ (3, int_bound 255); (1, int_bound 0xFFFF_FFFF) ])

let model = QCheck2.Gen.oneofl [ C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip ]

(* Random netlists where about half of the comb nodes are one-bit
   nodes with a shape: gate cells, taps and tables.  Most words are
   narrow, some full width, so taps read high bits too. *)
let gen_netlist =
  let open QCheck2.Gen in
  let width = frequency [ (4, int_range 1 8); (1, int_range 9 32) ] in
  let op =
    frequency
      [ (9, int_bound 8);
        (6, int_range 9 14);
        (3, map (fun tt -> Array.length op_names + tt) (int_bound 255)) ]
  in
  let* inputs = list_size (int_range 1 3) width in
  let* consts = list_size (int_range 0 2) (pair width byte) in
  let* regs = list_size (int_range 1 4) (quad width byte raw (opt raw)) in
  let* words = int_range 2 8 in
  let* mem_width = width in
  let* combs =
    list_size (int_range 1 12) (triple op (list_size (int_range 1 3) raw) width)
  in
  let* reads = list_repeat 2 (pair raw raw) in
  let+ write = triple raw raw raw in
  { inputs; consts; regs; words; mem_width; combs; reads; write }

let gen_case =
  let open QCheck2.Gen in
  let gen_action =
    frequency
      [ (4, map2 (fun i v -> Set_input (i, v)) raw byte);
        (2, map2 (fun i v -> Mem_write (i, v)) raw byte);
        (3, pure Settle);
        (6, pure Step);
        (1, pure Snapshot);
        (1, pure Restore);
        (1, pure Reset);
        (* permanent and bounded faults alike, on any node (source,
           comb, read port, tap) or memory cell *)
        ( 2,
          map3
            (fun (s, bit) model (after, duration) ->
              Inject (s, bit, model, after, duration))
            (pair raw (int_bound 31)) model
            (pair (int_bound 3)
               (frequency [ (1, pure None); (1, map Option.some (int_range 1 3)) ])) );
        (1, pure Clear_fault) ]
  in
  pair gen_netlist (list_size (int_range 1 40) gen_action)

let print_netlist b nl =
  let ints l = String.concat "," (List.map string_of_int l) in
  let p fmt = Printf.bprintf b fmt in
  p "inputs [%s] consts [%s]\n" (ints nl.inputs)
    (String.concat "; " (List.map (fun (w, v) -> Printf.sprintf "%d'%d" w v) nl.consts));
  List.iteri
    (fun i (w, init, d, en) ->
      p "r%d: width %d init %d d %d%s\n" i w init d
        (match en with Some e -> Printf.sprintf " en %d" e | None -> ""))
    nl.regs;
  p "mem %d x %d bits\n" nl.words nl.mem_width;
  List.iteri
    (fun k (op, deps, w) -> p "n%d: %s [%s] width %d\n" k (op_name op) (ints deps) w)
    nl.combs;
  List.iteri (fun i (pos, addr) -> p "rd%d: at %d addr %d\n" i pos addr) nl.reads;
  let we, addr, data = nl.write in
  p "write: we %d addr %d data %d\n" we addr data

let print_case (nl, actions) =
  let b = Buffer.create 256 in
  let p fmt = Printf.bprintf b fmt in
  print_netlist b nl;
  List.iter
    (fun act ->
      p "%s\n"
        (match act with
        | Set_input (i, v) -> Printf.sprintf "set_input %d %d" i v
        | Mem_write (i, v) -> Printf.sprintf "mem_write %d %d" i v
        | Settle -> "settle"
        | Step -> "clock; settle"
        | Snapshot -> "snapshot"
        | Restore -> "restore"
        | Reset -> "reset"
        | Inject (s, bit, model, after, duration) ->
            Printf.sprintf "inject %d bit %d %s from +%d for %s" s bit
              (C.fault_model_name model) after
              (match duration with Some d -> string_of_int d | None -> "ever")
        | Clear_fault -> "clear_fault"))
    actions;
  Buffer.contents b

let prop_random_netlists =
  QCheck2.Test.make ~name:"change-driven settle = dense twin on random netlists" ~count:200
    ~print:print_case gen_case agrees

(* ---- lanes against dense twins on random netlists ---- *)

(* One lane's fault, with the cycle it is retired at, if any. *)
type lane_fault = {
  site : int;
  bit : int;
  lmodel : C.fault_model;
  from : int;
  dur : int option;
  retire : int option;
}

let fault_site rig ~words ~mem_width f =
  if f.site mod 4 = 0 then C.Cell (rig.mem, f.site / 4 mod words, f.bit mod mem_width)
  else
    let n = rig.nodes.(f.site mod Array.length rig.nodes) in
    C.Node (n, f.bit mod C.signal_width rig.c n)

(* Record a golden trace over [cycles] (per cycle, the inputs that
   change), then run one lane per fault against it next to a dense
   faulty twin per lane.  Every input is driven in every live lane and
   every twin each cycle, as [Batch.run] drives a lane that left the
   golden bus.  Every node of every live lane must equal its twin's
   after each settle, and at the end each lane's ejected state must
   equal its twin's full state; a retired lane drops out, and the
   others must not notice.  The lanes' divergence-frontier counts must
   stay exact throughout.  A lane's evaluation count must equal that
   of a pass running its fault alone: a lane's work depends on its own
   divergence, not on the other lanes of its pass. *)
let lanes_agree (nl, cycles, faults) =
  let g = build nl in
  let nin = Array.length g.ins in
  let current = Array.make nin 0 in
  let inputs =
    List.map
      (fun ch ->
        List.iter (fun (i, v) -> current.(i mod nin) <- v) ch;
        Array.copy current)
      cycles
  in
  let drive rig v = Array.iteri (fun i s -> C.set_input rig.c s v.(i)) rig.ins in
  let first = List.hd inputs and rest = List.tl inputs in
  C.reset g.c;
  drive g first;
  C.settle g.c;
  let start = C.snapshot g.c in
  C.trace_start g.c;
  C.settle g.c;
  List.iter
    (fun v ->
      C.clock g.c;
      drive g v;
      C.settle g.c)
    rest;
  let tr = C.trace_stop g.c in
  C.restore g.c start;
  let pass = Lanes.start g.c tr in
  let site = fault_site ~words:nl.words ~mem_width:nl.mem_width in
  let twins =
    Array.of_list
      (List.mapi
         (fun l f ->
           let tw = build nl in
           C.reset tw.c;
           drive tw first;
           C.inject tw.c ~from_cycle:f.from ?duration:f.dur (site tw f) f.lmodel;
           dense_settle tw;
           Lanes.arm pass l ~from_cycle:f.from ?duration:f.dur (site g f) f.lmodel;
           tw)
         faults)
  in
  let faults = Array.of_list faults in
  let live = Array.make (Array.length faults) true in
  let agree () =
    Lanes.cut_exact pass
    && Array.for_all Fun.id
         (Array.mapi
            (fun l tw ->
              (not live.(l))
              || Array.for_all (fun s -> Lanes.value pass s l = C.value tw.c s) g.nodes)
            twins)
  in
  Lanes.settle pass;
  let ok =
    List.fold_left
      (fun ok v ->
        ok
        &&
        let cyc = Lanes.cycle pass + 1 in
        Lanes.clock pass;
        Array.iteri
          (fun l f ->
            if live.(l) && f.retire = Some cyc then begin
              Lanes.retire pass l;
              live.(l) <- false
            end;
            if live.(l) then Array.iteri (fun i s -> Lanes.set_input pass s l v.(i)) g.ins)
          faults;
        Lanes.settle pass;
        Array.iter
          (fun tw ->
            C.clock tw.c;
            drive tw v;
            dense_settle tw)
          twins;
        agree ())
      (agree ()) rest
  in
  let alone l f =
    let solo = Lanes.start g.c tr in
    Lanes.arm solo 0 ~from_cycle:f.from ?duration:f.dur (site g f) f.lmodel;
    Lanes.settle solo;
    let live = ref true in
    List.iter
      (fun v ->
        let cyc = Lanes.cycle solo + 1 in
        Lanes.clock solo;
        if !live && f.retire = Some cyc then begin
          Lanes.retire solo 0;
          live := false
        end;
        if !live then Array.iteri (fun i s -> Lanes.set_input solo s 0 v.(i)) g.ins;
        Lanes.settle solo)
      rest;
    Lanes.lane_evals solo 0 = Lanes.lane_evals pass l
  in
  ok
  && Array.for_all Fun.id (Array.mapi alone faults)
  && Array.for_all Fun.id
       (Array.mapi
          (fun l tw ->
            (not live.(l))
            ||
            let x = build nl in
            C.transplant x.c (Lanes.eject pass l);
            C.state_equal x.c (C.snapshot tw.c))
          twins)

let gen_lanes_case =
  let open QCheck2.Gen in
  let fault =
    map
      (fun (site, bit, lmodel, from, dur, retire) ->
        { site; bit; lmodel; from; dur; retire })
      (tup6 raw (int_bound 31) model (int_bound 12)
         (opt (int_range 1 3))
         (opt (int_range 1 30)))
  in
  triple gen_netlist
    (list_size (int_range 2 30) (list_size (int_range 0 2) (pair raw byte)))
    (list_size (int_range 1 12) fault)

let print_lanes_case (nl, cycles, faults) =
  let b = Buffer.create 256 in
  let p fmt = Printf.bprintf b fmt in
  print_netlist b nl;
  List.iteri
    (fun c ch ->
      p "cycle %d: %s\n" c
        (String.concat ", " (List.map (fun (i, v) -> Printf.sprintf "in %d = %d" i v) ch)))
    cycles;
  List.iteri
    (fun l f ->
      p "lane %d: site %d bit %d %s from %d for %s%s\n" l f.site f.bit
        (C.fault_model_name f.lmodel) f.from
        (match f.dur with Some d -> string_of_int d | None -> "ever")
        (match f.retire with Some c -> Printf.sprintf ", retired at %d" c | None -> ""))
    faults;
  Buffer.contents b

let prop_lanes_random_netlists =
  QCheck2.Test.make ~name:"lanes = dense twins on random netlists" ~count:200
    ~print:print_lanes_case gen_lanes_case lanes_agree

(* ---- the change-driven settle allocates nothing ---- *)

let test_settle_allocates_nothing () =
  let c = C.create "alloc" in
  let inp = C.input c "in" 8 in
  let r = C.reg c "r" ~width:8 () in
  let sum = C.comb2 c "sum" 8 inp r ( + ) in
  let mem = C.memory c "mem" ~words:4 ~width:8 in
  let rd = C.read_port c "rd" mem (C.comb1 c "addr" 2 r Fun.id) in
  let out = C.combn c "out" 8 [| sum; rd |] (fun vs -> vs.(0) lxor vs.(1)) in
  C.connect c r ~d:out ();
  let one = C.const c "one" 1 1 in
  C.write_port c mem ~we:one ~addr:inp ~data:sum;
  C.elaborate c;
  C.reset c;
  C.coverage_start c;
  let run n =
    for i = 1 to n do
      C.set_input c inp (i land 3);
      C.clock c;
      C.settle c
    done
  in
  run 100;
  let w0 = Gc.minor_words () in
  run 1000;
  let w1 = Gc.minor_words () in
  let stats = C.settle_stats c in
  check_bool "some settles were change-driven" true
    (stats.C.ss_evals < stats.C.ss_dense_evals);
  check_bool
    (Printf.sprintf "1000 cycles allocated %.0f words" (w1 -. w0))
    true
    (w1 -. w0 < 100.)

(* ---- the watchdog continuation is change-driven, the reference dense ---- *)

(* A permanent fault whose lane outlives the golden trace is handed to
   the scalar engine at trace end, and the continuation settles
   change-driven under the armed fault: fewer comb evaluations than
   comb nodes x settles, and the dense reference's verdict.  The
   reference run ([run_one] without a plan) sweeps at every settle. *)
let test_watchdog_change_driven () =
  let sys = Lazy.force behav_sys in
  let c = circuit sys in
  let prog = program ~iterations:1 "rspeed" in
  let traced = Campaign.golden_run ~trace:true sys prog ~max_cycles in
  let dense = Campaign.golden_run sys prog ~max_cycles in
  let plan = C.compiled_plan c in
  let sites = Array.of_list (Injection.sites (Leon3.System.core sys) Injection.Iu) in
  let rec transplanted i =
    if i >= Array.length sites then Alcotest.fail "no lane outlived the trace"
    else
      let site = sites.(i * 7919 mod Array.length sites) in
      let obs = Obs.create () in
      let r = Campaign.run_one ~obs ~plan sys prog traced site C.Stuck_at_1 in
      if Obs.counter obs "tail.transplants" = 1 then (site, r, obs) else transplanted (i + 1)
  in
  let site, r, obs = transplanted 0 in
  let evaluated = Obs.counter obs "tail.evaluated"
  and dense_equiv = Obs.counter obs "tail.dense_equiv" in
  check_bool
    (Printf.sprintf "continuation evaluated %d of %d" evaluated dense_equiv)
    true
    (0 < evaluated && evaluated < dense_equiv);
  let w0 = C.settle_stats c in
  let d = Campaign.run_one sys prog dense site C.Stuck_at_1 in
  let w1 = C.settle_stats c in
  check_bool "continuation verdict = dense verdict" true
    ((r.Campaign.outcome, r.Campaign.detect_cycle) = (d.Campaign.outcome, d.Campaign.detect_cycle));
  check_bool "the reference settled" true (w1.C.ss_dense_evals > w0.C.ss_dense_evals);
  check_int "the reference swept every comb node at every settle"
    (w1.C.ss_dense_evals - w0.C.ss_dense_evals)
    (w1.C.ss_evals - w0.C.ss_evals)

let suite =
  ( "settle",
    [ Alcotest.test_case "change-driven recording = dense recording" `Slow
        test_recording_matches_dense;
      Alcotest.test_case "watchdog change-driven, reference dense" `Quick
        test_watchdog_change_driven;
      Alcotest.test_case "trace independent of earlier runs" `Quick
        test_trace_ignores_earlier_runs;
      Alcotest.test_case "change-driven settle allocates nothing" `Quick
        test_settle_allocates_nothing ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_random_netlists; prop_lanes_random_netlists ] )
