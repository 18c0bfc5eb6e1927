(* Tests for the RTL simulation kernel: construction, scheduling,
   registers, memories and the three fault models. *)

module C = Rtl.Circuit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A 2-bit counter with enable. *)
let build_counter () =
  let c = C.create "counter" in
  let en = C.input c "en" 1 in
  let count = C.reg c "count" ~width:2 () in
  let next = C.comb1 c "next" 2 count (fun v -> v + 1) in
  C.connect c count ~en ~d:next ();
  C.elaborate c;
  C.reset c;
  (c, en, count)

let test_counter () =
  let c, en, count = build_counter () in
  C.set_input c en 1;
  C.settle c;
  check_int "initial" 0 (C.value c count);
  C.clock c;
  C.settle c;
  check_int "incremented" 1 (C.value c count);
  C.clock c;
  C.settle c;
  check_int "again" 2 (C.value c count);
  C.set_input c en 0;
  C.settle c;
  C.clock c;
  C.settle c;
  check_int "enable holds" 2 (C.value c count);
  C.clock c;
  C.settle c;
  check_int "still held" 2 (C.value c count);
  check_int "cycles counted" 4 (C.cycle c)

let test_width_masking () =
  let c, en, count = build_counter () in
  C.set_input c en 1;
  C.settle c;
  for _ = 1 to 5 do
    C.clock c;
    C.settle c
  done;
  check_int "2-bit wraparound" 1 (C.value c count)

let test_comb_chain_order () =
  (* Deliberately create nodes so a later node feeds an earlier-created
     mux through registers; the scheduler must order them by deps. *)
  let c = C.create "chain" in
  let a = C.input c "a" 8 in
  let x = C.comb1 c "x" 8 a (fun v -> v + 1) in
  let y = C.comb1 c "y" 8 x (fun v -> v * 2) in
  let z = C.comb2 c "z" 8 a y (fun va vy -> va + vy) in
  C.elaborate c;
  C.reset c;
  C.set_input c a 10;
  C.settle c;
  check_int "x" 11 (C.value c x);
  check_int "y" 22 (C.value c y);
  check_int "z" 32 (C.value c z)

let test_combinational_cycle_detected () =
  let c = C.create "loop" in
  let r = C.reg c "r" ~width:1 () in
  (* a -> b -> a cycle via forward references is impossible to build
     directly (ids must exist), so build the cycle through mutual
     deps on the same node id: comb reading itself. *)
  let rec_node = ref r in
  let a = C.comb1 c "a" 1 r (fun v -> v) in
  rec_node := a;
  (* Self-cycle: a node whose deps include itself. *)
  let self = C.combn c "self" 1 [| a |] (fun vs -> vs.(0)) in
  ignore self;
  C.connect c r ~d:a ();
  (* No cycle yet; this elaborates fine. *)
  C.elaborate c;
  Alcotest.check_raises "double elaborate" C.Already_elaborated (fun () -> C.elaborate c)

let test_unconnected_register_rejected () =
  let c = C.create "bad" in
  let _r = C.reg c "r" ~width:4 () in
  Alcotest.check_raises "unconnected register"
    (Invalid_argument "Circuit.elaborate: unconnected register: r") (fun () ->
      C.elaborate c)

let test_memory_ports () =
  let c = C.create "mem" in
  let we = C.input c "we" 1 in
  let addr = C.input c "addr" 4 in
  let data = C.input c "data" 8 in
  let m = C.memory c "m" ~words:16 ~width:8 in
  let q = C.read_port c "q" m addr in
  C.write_port c m ~we ~addr ~data;
  C.elaborate c;
  C.reset c;
  C.set_input c we 1;
  C.set_input c addr 3;
  C.set_input c data 0xAB;
  C.settle c;
  check_int "read before write" 0 (C.value c q);
  C.clock c;
  C.settle c;
  check_int "read after write" 0xAB (C.value c q);
  C.set_input c we 0;
  C.set_input c data 0xFF;
  C.settle c;
  C.clock c;
  C.settle c;
  check_int "write gated by we" 0xAB (C.value c q);
  check_int "backdoor read" 0xAB (C.mem_read c m 3)

let test_reset_clears_state () =
  let c, en, count = build_counter () in
  C.set_input c en 1;
  C.settle c;
  C.clock c;
  C.clock c;
  C.reset c;
  C.settle c;
  check_int "register back to init" 0 (C.value c count);
  check_int "cycle counter cleared" 0 (C.cycle c)

(* ---- faults ---- *)

(* A passthrough circuit: out = reg(in). *)
let build_pass () =
  let c = C.create "pass" in
  let inp = C.input c "in" 8 in
  let r = C.reg c "r" ~width:8 () in
  C.connect c r ~d:inp ();
  let out = C.comb1 c "out" 8 r (fun v -> v) in
  C.elaborate c;
  C.reset c;
  (c, inp, r, out)

let step c v inp =
  C.set_input c inp v;
  C.settle c;
  C.clock c;
  C.settle c

let test_stuck_at_on_comb () =
  let c, inp, _, out = build_pass () in
  C.inject c (C.Node (out, 0)) C.Stuck_at_1;
  step c 0x00 inp;
  check_int "bit forced to 1" 0x01 (C.value c out);
  C.inject c (C.Node (out, 7)) C.Stuck_at_0;
  step c 0xFF inp;
  check_int "bit forced to 0" 0x7F (C.value c out)

let test_stuck_at_on_register () =
  let c, inp, r, out = build_pass () in
  C.inject c (C.Node (r, 3)) C.Stuck_at_1;
  step c 0x00 inp;
  check_int "register output stuck" 0x08 (C.value c out)

let test_open_line_freezes_value () =
  let c, inp, _, out = build_pass () in
  (* Capture happens at the first active settle: drive a 1 first. *)
  C.set_input c inp 0xFF;
  C.settle c;
  C.clock c;
  C.inject c (C.Node (out, 0)) C.Open_line;
  C.settle c;
  check_int "captured while high" 0xFF (C.value c out);
  step c 0x00 inp;
  check_int "bit frozen at captured value" 0x01 (C.value c out)

let test_fault_from_cycle () =
  let c, inp, _, out = build_pass () in
  C.inject c ~from_cycle:2 (C.Node (out, 0)) C.Stuck_at_1;
  step c 0x00 inp;
  (* cycle is now 1 < 2: not active yet *)
  check_int "inactive before instant" 0x00 (C.value c out);
  step c 0x00 inp;
  check_int "active at instant" 0x01 (C.value c out)

let test_transient_bit_flip () =
  let c, inp, r, out = build_pass () in
  (* flip bit 0 of the register during cycle 1 only *)
  C.inject c ~from_cycle:1 ~duration:1 (C.Node (r, 0)) C.Bit_flip;
  step c 0x10 inp;
  (* cycle 1: register holds 0x10, flip makes 0x11 and the corruption
     is written back into the register state *)
  check_int "flipped during window" 0x11 (C.value c out);
  step c 0x20 inp;
  check_int "window closed, new data clean" 0x20 (C.value c out)

let test_transient_cell_upset () =
  let c = C.create "mem" in
  let addr = C.input c "addr" 2 in
  let m = C.memory c "m" ~words:4 ~width:8 in
  let q = C.read_port c "q" m addr in
  C.elaborate c;
  C.reset c;
  C.mem_write c m 1 0x0F;
  C.inject c ~from_cycle:0 ~duration:1 (C.Cell (m, 1, 7)) C.Bit_flip;
  C.set_input c addr 1;
  C.settle c;
  check_int "cell upset applied once" 0x8F (C.value c q);
  C.clock c;
  C.settle c;
  check_int "corruption persists after window" 0x8F (C.value c q)

let test_clear_fault () =
  let c, inp, _, out = build_pass () in
  C.inject c (C.Node (out, 0)) C.Stuck_at_1;
  step c 0x00 inp;
  check_int "faulted" 1 (C.value c out);
  C.clear_fault c;
  step c 0x00 inp;
  check_int "healthy again" 0 (C.value c out)

let test_cell_fault () =
  let c = C.create "mem" in
  let we = C.input c "we" 1 in
  let addr = C.input c "addr" 2 in
  let data = C.input c "data" 8 in
  let m = C.memory c "m" ~words:4 ~width:8 in
  let q = C.read_port c "q" m addr in
  C.write_port c m ~we ~addr ~data;
  C.elaborate c;
  C.reset c;
  C.inject c (C.Cell (m, 2, 4)) C.Stuck_at_1;
  C.set_input c we 0;
  C.set_input c addr 2;
  C.settle c;
  check_int "stuck cell visible without write" 0x10 (C.value c q);
  C.set_input c we 1;
  C.set_input c data 0x01;
  C.settle c;
  C.clock c;
  C.settle c;
  C.set_input c we 0;
  C.settle c;
  check_int "write cannot clear the stuck bit" 0x11 (C.value c q);
  (* open-line on a cell: writes to that bit are lost *)
  C.inject c (C.Cell (m, 1, 0)) C.Open_line;
  C.set_input c we 1;
  C.set_input c addr 1;
  C.set_input c data 0xFF;
  C.settle c;
  C.clock c;
  C.settle c;
  C.set_input c we 0;
  C.settle c;
  check_int "open cell bit keeps old value" 0xFE (C.value c q)

let test_introspection () =
  let c, _, _, out = build_pass () in
  check_bool "has nodes" true (C.node_count c >= 3);
  check_bool "find by name" true
    (List.find_map (fun (nm, s, _) -> if nm = "out" then Some s else None) (C.signals c)
    = Some out);
  check_int "width" 8 (C.signal_width c out);
  Alcotest.(check string) "name" "out" (C.signal_name c out);
  let sites = C.injection_bits c ~prefix:"" in
  (* in(8) + r(8) + out(8) *)
  check_int "all bits enumerated" 24 (List.length sites)

let test_vcd_dump () =
  let c, en, _count = build_counter () in
  C.set_input c en 1;
  C.settle c;
  let path = Filename.temp_file "counter" ".vcd" in
  Rtl.Vcd.trace_run ~path c ~cycles:5 ~step:(fun () ->
      C.clock c;
      C.settle c);
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let contains needle =
    let n = String.length needle and h = String.length content in
    let rec go i = i + n <= h && (String.sub content i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "has header" true (contains "$enddefinitions");
  check_bool "declares the counter" true (contains "count");
  check_bool "has value changes" true (contains "b10 ");
  check_bool "has timestamps" true (contains "#5")

(* Split a dump into (declaration lines, body lines) and map each
   declared variable name to its VCD identifier code. *)
let vcd_parse content =
  let lines = String.split_on_char '\n' content in
  let rec split hdr = function
    | [] -> (List.rev hdr, [])
    | l :: rest when String.starts_with ~prefix:"$enddefinitions" l ->
        (List.rev (l :: hdr), rest)
    | l :: rest -> split (l :: hdr) rest
  in
  let hdr, body = split [] lines in
  let vars =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "$var"; "wire"; _w; code; name; "$end" ] -> Some (name, code)
        | _ -> None)
      hdr
  in
  (vars, body)

let vcd_of_run c ~cycles =
  let path = Filename.temp_file "dump" ".vcd" in
  Rtl.Vcd.trace_run ~path c ~cycles ~step:(fun () ->
      C.clock c;
      C.settle c);
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  content

let test_vcd_header_declares_all_signals () =
  let c, en, _ = build_counter () in
  C.set_input c en 1;
  C.settle c;
  let vars, _ = vcd_parse (vcd_of_run c ~cycles:1) in
  (* counter has en(1), count(2), next(2); every one declared exactly
     once with a distinct identifier code *)
  check_int "three vars" 3 (List.length vars);
  List.iter
    (fun name -> check_bool name true (List.mem_assoc name vars))
    [ "en"; "count"; "next" ];
  let codes = List.map snd vars in
  check_int "codes distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes))

let test_vcd_only_changed_emitted () =
  let c, en, _ = build_counter () in
  C.set_input c en 1;
  C.settle c;
  let vars, body = vcd_parse (vcd_of_run c ~cycles:4) in
  let emissions name =
    let code = List.assoc name vars in
    List.length
      (List.filter
         (fun l ->
           l = "1" ^ code || l = "0" ^ code
           || String.length l > String.length code + 1
              && String.ends_with ~suffix:(" " ^ code) l)
         body)
  in
  (* [en] is constant: emitted once, at the initial sample.  [count]
     increments every cycle: initial sample + 4 steps. *)
  check_int "constant signal emitted once" 1 (emissions "en");
  check_int "changing signal emitted per cycle" 5 (emissions "count");
  check_int "derived next tracks count" 5 (emissions "next")

let test_vcd_prefix_filtering () =
  let c = C.create "scoped" in
  let x = C.scoped c "top" (fun () -> C.scoped c "alu" (fun () -> C.input c "x" 4)) in
  let y = C.scoped c "top" (fun () -> C.scoped c "lsu" (fun () -> C.input c "y" 4)) in
  C.elaborate c;
  C.reset c;
  C.set_input c x 1;
  C.set_input c y 2;
  C.settle c;
  let path = Filename.temp_file "scoped" ".vcd" in
  Rtl.Vcd.trace_run ~path ~prefix:"top.alu" c ~cycles:1 ~step:(fun () ->
      C.clock c;
      C.settle c);
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let vars, _ = vcd_parse content in
  check_int "only the alu scope" 1 (List.length vars);
  (* dots become underscores in the flattened declaration *)
  check_bool "flattened name" true (List.mem_assoc "top_alu_x" vars);
  check_bool "other scope excluded" false (List.mem_assoc "top_lsu_y" vars)

(* ---- snapshots and value coverage (trimmed execution support) ---- *)

let test_snapshot_restore_roundtrip () =
  let c, en, count = build_counter () in
  C.set_input c en 1;
  C.settle c;
  C.clock c;
  C.settle c;
  let snap = C.snapshot c in
  check_bool "fresh snapshot matches" true (C.state_equal c snap);
  C.clock c;
  C.settle c;
  check_bool "diverged state differs" false (C.state_equal c snap);
  C.restore c snap;
  C.settle c;
  check_bool "restored state matches" true (C.state_equal c snap);
  check_int "cycle restored" 1 (C.cycle c);
  check_int "value restored" 1 (C.value c count);
  (* the restored run replays identically *)
  C.clock c;
  C.settle c;
  check_int "replay continues" 2 (C.value c count)

let test_snapshot_covers_memories () =
  let c = C.create "mem" in
  let addr = C.input c "addr" 2 in
  let m = C.memory c "m" ~words:4 ~width:8 in
  let q = C.read_port c "q" m addr in
  C.elaborate c;
  C.reset c;
  C.mem_write c m 1 0x42;
  let snap = C.snapshot c in
  C.mem_write c m 1 0x99;
  check_bool "memory change detected" false (C.state_equal c snap);
  C.restore c snap;
  C.set_input c addr 1;
  C.settle c;
  check_int "memory word restored" 0x42 (C.value c q)

let test_coverage_prefilter () =
  let c, en, count = build_counter () in
  C.coverage_start c;
  C.reset c;
  C.set_input c en 1;
  C.settle c;
  (* run long enough for the 2-bit counter to take every value *)
  for _ = 1 to 6 do
    C.clock c;
    C.settle c
  done;
  let cov = C.coverage_stop c in
  (* [count] toggled through 0..3: no stuck-at or open fault on it is
     excludable *)
  check_bool "toggled bit: sa0 activates" false
    (C.never_activates cov (C.Node (count, 0)) C.Stuck_at_0);
  check_bool "toggled bit: sa1 activates" false
    (C.never_activates cov (C.Node (count, 0)) C.Stuck_at_1);
  check_bool "toggled bit: open activates" false
    (C.never_activates cov (C.Node (count, 0)) C.Open_line);
  (* bit flips are never excludable *)
  check_bool "bit flip never excluded" false
    (C.never_activates cov (C.Node (count, 0)) C.Bit_flip)

let test_coverage_constant_node_excluded () =
  (* out = reg(in); hold the input at zero so every bit stays 0. *)
  let c = C.create "pass" in
  let inp = C.input c "in" 8 in
  let r = C.reg c "r" ~width:8 () in
  C.connect c r ~d:inp ();
  let out = C.comb1 c "out" 8 r (fun v -> v) in
  C.elaborate c;
  C.coverage_start c;
  C.reset c;
  C.set_input c inp 0;
  C.settle c;
  for _ = 1 to 4 do
    C.clock c;
    C.settle c
  done;
  let cov = C.coverage_stop c in
  check_bool "always-0 bit: sa0 never activates" true
    (C.never_activates cov (C.Node (out, 3)) C.Stuck_at_0);
  check_bool "always-0 bit: open never activates" true
    (C.never_activates cov (C.Node (out, 3)) C.Open_line);
  check_bool "always-0 bit: sa1 would activate" false
    (C.never_activates cov (C.Node (out, 3)) C.Stuck_at_1);
  (* the prefilter is exact here: injecting the excluded fault really
     is silent *)
  C.inject c (C.Node (out, 3)) C.Stuck_at_0;
  C.set_input c inp 0;
  C.settle c;
  C.clock c;
  C.settle c;
  check_int "excluded fault provably invisible" 0 (C.value c out)

let test_coverage_settled_states_only () =
  (* n = not a, with a held at 0: n is 1 in every settled state.  Its
     reset value 0 is not a settled state, so a stuck-at-1 on it never
     activates. *)
  let c = C.create "not" in
  let a = C.input c "a" 1 in
  let n = C.gate_not c "n" a in
  C.elaborate c;
  C.coverage_start c;
  C.reset c;
  C.set_input c a 0;
  C.settle c;
  C.clock c;
  C.settle c;
  let cov = C.coverage_stop c in
  check_bool "always-1 gate: sa1 never activates" true
    (C.never_activates cov (C.Node (n, 0)) C.Stuck_at_1);
  check_bool "always-1 gate: sa0 activates" false
    (C.never_activates cov (C.Node (n, 0)) C.Stuck_at_0)

let test_scoped_names () =
  let c = C.create "scoped" in
  let s =
    C.scoped c "top" (fun () -> C.scoped c "alu" (fun () -> C.input c "x" 1))
  in
  Alcotest.(check string) "hierarchical" "top.alu.x" (C.signal_name c s)

let suite =
  ( "rtl",
    [ Alcotest.test_case "counter with enable" `Quick test_counter;
      Alcotest.test_case "width masking" `Quick test_width_masking;
      Alcotest.test_case "comb scheduling" `Quick test_comb_chain_order;
      Alcotest.test_case "elaborate twice rejected" `Quick test_combinational_cycle_detected;
      Alcotest.test_case "unconnected register" `Quick test_unconnected_register_rejected;
      Alcotest.test_case "memory ports" `Quick test_memory_ports;
      Alcotest.test_case "reset" `Quick test_reset_clears_state;
      Alcotest.test_case "stuck-at on comb" `Quick test_stuck_at_on_comb;
      Alcotest.test_case "stuck-at on register" `Quick test_stuck_at_on_register;
      Alcotest.test_case "open line freezes" `Quick test_open_line_freezes_value;
      Alcotest.test_case "injection instant" `Quick test_fault_from_cycle;
      Alcotest.test_case "transient bit flip" `Quick test_transient_bit_flip;
      Alcotest.test_case "transient cell upset" `Quick test_transient_cell_upset;
      Alcotest.test_case "clear fault" `Quick test_clear_fault;
      Alcotest.test_case "cell faults" `Quick test_cell_fault;
      Alcotest.test_case "introspection" `Quick test_introspection;
      Alcotest.test_case "vcd dump" `Quick test_vcd_dump;
      Alcotest.test_case "vcd header" `Quick test_vcd_header_declares_all_signals;
      Alcotest.test_case "vcd only-changed" `Quick test_vcd_only_changed_emitted;
      Alcotest.test_case "vcd prefix filter" `Quick test_vcd_prefix_filtering;
      Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_restore_roundtrip;
      Alcotest.test_case "snapshot covers memories" `Quick test_snapshot_covers_memories;
      Alcotest.test_case "coverage prefilter" `Quick test_coverage_prefilter;
      Alcotest.test_case "constant node excluded" `Quick test_coverage_constant_node_excluded;
      Alcotest.test_case "coverage records settled states only" `Quick
        test_coverage_settled_states_only;
      Alcotest.test_case "scoped names" `Quick test_scoped_names ] )
