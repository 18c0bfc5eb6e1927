(* Tests for the static netlist analysis layer: dependency-graph
   extraction, cone-of-influence pruning, structural fault collapsing
   and the lint rules — including a deliberately broken circuit that
   fires every rule, and the Leon3 netlists that must stay clean. *)

module C = Rtl.Circuit
module Graph = Analysis.Graph
module Collapse = Analysis.Collapse
module Lint = Analysis.Lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- graph extraction ---- *)

(* a, b -> sum -> r -> out; [dead] reads a but nothing reads it. *)
let build_small () =
  let c = C.create "g" in
  let a = C.input c "a" 4 in
  let b = C.input c "b" 4 in
  let sum = C.comb2 c "sum" 4 a b (fun x y -> x + y) in
  let r = C.reg c "r" ~width:4 () in
  C.connect c r ~d:sum ();
  let out = C.comb1 c "out" 4 r (fun v -> v) in
  let dead = C.comb1 c "dead" 4 a (fun v -> v) in
  C.elaborate c;
  (c, a, b, sum, r, out, dead)

let test_graph_structure () =
  let c, a, b, sum, r, out, dead = build_small () in
  let g = Graph.build c in
  check_int "every node a vertex" (C.node_count c) (Graph.signal_count g);
  check_int "no memories" 0 (Graph.memory_count g);
  (* a->sum, b->sum, sum->r, r->out, a->dead *)
  check_int "edges" 5 (Graph.edge_count g);
  let deps =
    List.sort compare
      (List.map
         (fun (v, k) -> match v with Graph.Sig s -> ((s :> int), k) | Graph.Mem _ -> (-1, k))
         (Graph.preds g (Graph.Sig sum)))
  in
  Alcotest.(check (list (pair int bool)))
    "sum reads a and b as comb deps"
    [ ((a :> int), true); ((b :> int), true) ]
    (List.map (fun (i, k) -> (i, k = Graph.Comb_dep)) deps);
  (match Graph.preds g (Graph.Sig r) with
  | [ (Graph.Sig d, Graph.Reg_d) ] -> check_int "register d edge" (sum :> int) (d :> int)
  | _ -> Alcotest.fail "register should have exactly its d edge");
  check_int "a feeds two sinks" 2 (Graph.fanout g a);
  check_int "sum feeds one sink" 1 (Graph.fanout g sum);
  check_int "dead has no successors" 0 (List.length (Graph.succs g (Graph.Sig dead)));
  (* topological levels: sequential elements restart at 0 *)
  check_int "input level" 0 (Graph.level g a);
  check_int "comb level" 1 (Graph.level g sum);
  check_int "register level" 0 (Graph.level g r);
  check_int "out level" 1 (Graph.level g out);
  check_int "max level" 1 (Graph.max_level g)

let test_cone_basic () =
  let c, a, b, sum, r, out, dead = build_small () in
  let g = Graph.build c in
  let cone = Graph.backward_cone g [ out ] in
  List.iter
    (fun (nm, s) -> check_bool ("in cone: " ^ nm) true (Graph.cone_signal cone s))
    [ ("a", a); ("b", b); ("sum", sum); ("r", r); ("out", out) ];
  check_bool "dead outside cone" false (Graph.cone_signal cone dead);
  check_bool "site on dead is prunable" false (Graph.cone_site cone (C.Node (dead, 0)));
  check_bool "site on r is kept" true (Graph.cone_site cone (C.Node (r, 1)));
  check_int "cone size" 5 (Graph.cone_size cone)

let test_cone_through_memory () =
  (* Reachability must cross memories via their ports: the write-port
     inputs influence what a read port later observes. *)
  let c = C.create "m" in
  let we = C.input c "we" 1 in
  let addr = C.input c "addr" 2 in
  let data = C.input c "data" 8 in
  let other = C.input c "other" 8 in
  let m = C.memory c "m" ~words:4 ~width:8 in
  let q = C.read_port c "q" m addr in
  C.write_port c m ~we ~addr ~data;
  let out = C.comb1 c "out" 8 q (fun v -> v) in
  C.elaborate c;
  let g = Graph.build c in
  check_int "one memory vertex" 1 (Graph.memory_count g);
  let cone = Graph.backward_cone g [ out ] in
  check_bool "memory in cone" true (Graph.cone_memory cone m);
  List.iter
    (fun (nm, s) -> check_bool ("write side in cone: " ^ nm) true (Graph.cone_signal cone s))
    [ ("we", we); ("addr", addr); ("data", data) ];
  check_bool "unrelated input outside" false (Graph.cone_signal cone other);
  check_bool "cell site inside cone" true (Graph.cone_site cone (C.Cell (m, 2, 3)));
  check_bool "node site outside cone" false (Graph.cone_site cone (C.Node (other, 0)))

(* ---- structural fault collapsing ---- *)

(* inp -> r -> buf1 -> buf2 (identity chain, all fan-out-free). *)
let build_chain () =
  let c = C.create "chain" in
  let inp = C.input c "inp" 8 in
  let r = C.reg c "r" ~width:8 () in
  C.connect c r ~d:inp ();
  let buf1 = C.comb1 c "buf1" 8 r (fun v -> v) in
  let buf2 = C.comb1 c "buf2" 8 buf1 (fun v -> v) in
  C.elaborate c;
  (c, inp, r, buf1, buf2)

let test_collapse_forward_chain () =
  let c, _, r, buf1, buf2 = build_chain () in
  let g = Graph.build c in
  let col = Collapse.build g ~keep:(fun _ -> false) in
  check_bool "equivalences found" true (Collapse.mapped col > 0);
  (* the chain resolves transitively to its last buffer, same bit *)
  List.iter
    (fun model ->
      let site, model' = Collapse.resolve col (C.Node (r, 3)) model in
      check_bool "chain resolves to buf2" true (site = C.Node (buf2, 3));
      check_bool "model preserved through buffers" true (model' = model))
    [ C.Stuck_at_0; C.Stuck_at_1 ];
  (* an open line reaches the table only as the stuck-at of the bit it
     captures; asked as itself it is unmapped *)
  check_bool "open line unmapped" true
    (Collapse.resolve col (C.Node (r, 3)) C.Open_line = (C.Node (r, 3), C.Open_line));
  (* intermediate node also collapses forward *)
  let site, _ = Collapse.resolve col (C.Node (buf1, 0)) C.Stuck_at_1 in
  check_bool "buf1 resolves to buf2" true (site = C.Node (buf2, 0));
  (* bit flips are never collapsed *)
  let site, model = Collapse.resolve col (C.Node (r, 3)) C.Bit_flip in
  check_bool "bit flip unmapped" true (site = C.Node (r, 3) && model = C.Bit_flip)

let test_collapse_respects_keep () =
  let c, _, r, buf1, _ = build_chain () in
  let g = Graph.build c in
  (* buf1 is an observation point: faults on it must survive as-is,
     so the chain from r stops there. *)
  let col = Collapse.build g ~keep:(fun s -> s = buf1) in
  let site, _ = Collapse.resolve col (C.Node (r, 5)) C.Stuck_at_0 in
  check_bool "chain stops at kept node" true (site = C.Node (buf1, 5));
  let site, _ = Collapse.resolve col (C.Node (buf1, 5)) C.Stuck_at_0 in
  check_bool "kept node not collapsed away" true (site = C.Node (buf1, 5))

let test_collapse_complement () =
  let c = C.create "inv" in
  let a = C.input c "a" 4 in
  let x = C.comb1 c "x" 4 a (fun v -> v) in
  let inv = C.comb1 c "inv" 4 x (fun v -> lnot v) in
  C.elaborate c;
  let g = Graph.build c in
  let col = Collapse.build g ~keep:(fun _ -> false) in
  (* stuck-at polarity swaps through an inverter; an open line is
     never mapped (a campaign collapses it as the stuck-at of the bit
     it captures) *)
  check_bool "sa0 becomes sa1" true
    (Collapse.resolve col (C.Node (x, 2)) C.Stuck_at_0 = (C.Node (inv, 2), C.Stuck_at_1));
  check_bool "sa1 becomes sa0" true
    (Collapse.resolve col (C.Node (x, 2)) C.Stuck_at_1 = (C.Node (inv, 2), C.Stuck_at_0));
  check_bool "open line returned unchanged" true
    (Collapse.resolve col (C.Node (x, 2)) C.Open_line = (C.Node (x, 2), C.Open_line))

let test_collapse_controlling_value () =
  let c = C.create "gates" in
  let a = C.input c "a" 1 in
  let b = C.input c "b" 1 in
  let x = C.comb1 c "x" 1 a (fun v -> v) in
  let y = C.comb1 c "y" 1 b (fun v -> v) in
  let and_out = C.comb2 c "and" 1 x y (fun p q -> p land q) in
  let p = C.comb1 c "p" 1 and_out (fun v -> v) in
  let q = C.comb1 c "q" 1 and_out (fun v -> v) in
  (* join p and q so neither is dead, and and_out has fan-out 2 *)
  let _join = C.comb2 c "join" 1 p q (fun u v -> u lor v) in
  C.elaborate c;
  let g = Graph.build c in
  let col = Collapse.build g ~keep:(fun _ -> false) in
  (* 0 is the controlling value of AND: sa0 on an input pins the output *)
  check_bool "and: input sa0 collapses to output sa0" true
    (Collapse.resolve col (C.Node (x, 0)) C.Stuck_at_0 = (C.Node (and_out, 0), C.Stuck_at_0));
  (* 1 is not controlling for AND: sa1 on x leaves the output dependent
     on y, so no equivalence may be recorded *)
  check_bool "and: input sa1 not collapsed" true
    (Collapse.resolve col (C.Node (x, 0)) C.Stuck_at_1 = (C.Node (x, 0), C.Stuck_at_1));
  (* and_out has two readers: faults on it must not collapse onward *)
  check_bool "fan-out blocks collapsing" true
    (fst (Collapse.resolve col (C.Node (and_out, 0)) C.Stuck_at_0) = C.Node (and_out, 0))

let test_collapse_is_behaviourally_exact () =
  (* The collapsing proof obligation, checked dynamically: injecting
     the source fault and its resolved representative produces the
     same observed output trace. *)
  let run_faulted site model =
    let c, inp, _, _, buf2 = build_chain () in
    C.reset c;
    C.inject c site model;
    let trace = ref [] in
    List.iter
      (fun v ->
        C.set_input c inp v;
        C.settle c;
        trace := C.value c buf2 :: !trace;
        C.clock c)
      [ 0x00; 0xFF; 0xA5; 0x5A; 0x13; 0xEC ];
    !trace
  in
  let c, _, r, _, _ = build_chain () in
  let g = Graph.build c in
  let col = Collapse.build g ~keep:(fun _ -> false) in
  List.iter
    (fun model ->
      let source = C.Node (r, 4) in
      let rep_site, rep_model = Collapse.resolve col source model in
      check_bool "source actually collapsed" true (rep_site <> source);
      Alcotest.(check (list int))
        "identical observed trace" (run_faulted source model)
        (run_faulted rep_site rep_model))
    [ C.Stuck_at_0; C.Stuck_at_1 ]

let test_collapse_fires_on_gate_level_leon3 () =
  (* The ripple-carry adder network is the collapsing target the
     paper's gate-level granularity implies: buffer/inverter/gate
     chains must yield a non-trivial number of equivalences. *)
  let core =
    Leon3.Core.build ~params:{ Leon3.Core.default_params with gate_level = true } ()
  in
  let g = Graph.build core.Leon3.Core.circuit in
  let keep =
    let pts = Leon3.Core.observation_points core in
    fun s -> List.mem s pts
  in
  let col = Collapse.build g ~keep in
  check_bool "gate-level netlist collapses" true (Collapse.mapped col > 0)

(* ---- post-dominator tree ---- *)

(* a -> s -> {p, q} -> z -> t, plus a dead node off [a]:
   every path from s to the exit [t] reconverges at z. *)
let build_diamond () =
  let c = C.create "diamond" in
  let a = C.input c "a" 1 in
  let s = C.comb1 c "s" 1 a (fun v -> v) in
  let p = C.comb1 c "p" 1 s (fun v -> v) in
  let q = C.comb1 c "q" 1 s (fun v -> lnot v land 1) in
  let z = C.comb2 c "z" 1 p q (fun u v -> u lor v) in
  let t = C.comb1 c "t" 1 z (fun v -> v) in
  let dead = C.comb1 c "dead" 1 a (fun v -> v) in
  C.elaborate c;
  (c, a, s, p, q, z, t, dead)

let test_dominator_diamond () =
  let c, a, s, p, q, z, t, dead = build_diamond () in
  let g = Graph.build c in
  let dom = Analysis.Dominator.build g ~exits:[ t ] in
  let ipdom x = Analysis.Dominator.ipdom dom (Graph.Sig x) in
  let expect name x want =
    match (ipdom x, want) with
    | Some (Graph.Sig got), Some w ->
        check_int ("ipdom " ^ name) ((w : C.signal :> int)) ((got :> int))
    | None, None -> ()
    | _ -> Alcotest.fail ("ipdom " ^ name ^ ": wrong shape")
  in
  (* both diamond arms and the split point postdominate at z *)
  expect "p" p (Some z);
  expect "q" q (Some z);
  expect "s" s (Some z);
  expect "z" z (Some t);
  expect "a" a (Some s);
  (* the exit itself has no proper postdominator *)
  expect "t" t None;
  check_bool "exit reachable" true (Analysis.Dominator.reachable dom (Graph.Sig t));
  (* the dead node cannot reach the exit at all *)
  check_bool "dead unreachable" false (Analysis.Dominator.reachable dom (Graph.Sig dead));
  expect "dead" dead None;
  check_int "tree covers the live cone" 6 (Analysis.Dominator.tree_size dom)

(* ---- dominance collapsing ---- *)

(* XOR from four NANDs: the inner node x fans out to both second-level
   gates, so the classic fan-out-free rules can never touch it — but
   forcing x to 0 drives both y1 and y2 to 1 and hence z to 0, for
   every value of a and b.  Forcing x to 1 leaves z = a|b, so only the
   stuck-at-0 polarity may collapse. *)
let build_nand_xor () =
  let c = C.create "nxor" in
  let a = C.input c "a" 1 in
  let b = C.input c "b" 1 in
  let nand u v = lnot (u land v) land 1 in
  let x = C.comb2 c "x" 1 a b nand in
  let y1 = C.comb2 c "y1" 1 a x nand in
  let y2 = C.comb2 c "y2" 1 x b nand in
  let z = C.comb2 c "z" 1 y1 y2 nand in
  let t = C.comb1 c "t" 1 z (fun v -> v) in
  C.elaborate c;
  (c, a, b, x, z, t)

let test_collapse_dominance_rule () =
  let c, _, _, x, z, t = build_nand_xor () in
  let g = Graph.build c in
  let keep (s : C.signal) = s = t in
  (* without the dominator tree the fanned-out x must stay unmapped *)
  let classic = Collapse.build g ~keep in
  check_bool "classic rules cannot collapse a fanned-out node" true
    (Collapse.resolve classic (C.Node (x, 0)) C.Stuck_at_0 = (C.Node (x, 0), C.Stuck_at_0));
  let dom = Analysis.Dominator.build g ~exits:[ t ] in
  let col = Collapse.build ~dom g ~keep in
  (* dominance maps x to its reconvergence point z, and the classic
     forward rule chains z on to the observed buffer t — resolution is
     transitive *)
  check_bool "dominance collapses sa0 through the reconvergence point" true
    (Collapse.resolve col (C.Node (x, 0)) C.Stuck_at_0 = (C.Node (t, 0), C.Stuck_at_0));
  ignore z;
  (* forcing x=1 leaves z dependent on a and b: no equivalence *)
  check_bool "non-constant polarity survives" true
    (Collapse.resolve col (C.Node (x, 0)) C.Stuck_at_1 = (C.Node (x, 0), C.Stuck_at_1))

let test_collapse_dominance_is_behaviourally_exact () =
  (* The dominance rule's proof obligation, checked dynamically: the
     source fault and its representative produce the same observed
     value for every input combination. *)
  let run_faulted site model =
    let c, a, b, _, _, t = build_nand_xor () in
    C.reset c;
    C.inject c site model;
    List.map
      (fun (va, vb) ->
        C.set_input c a va;
        C.set_input c b vb;
        C.settle c;
        C.value c t)
      [ (0, 0); (0, 1); (1, 0); (1, 1) ]
  in
  let c, _, _, x, z, t = build_nand_xor () in
  let g = Graph.build c in
  let dom = Analysis.Dominator.build g ~exits:[ t ] in
  let col = Collapse.build ~dom g ~keep:(fun s -> s = t) in
  let rep_site, rep_model = Collapse.resolve col (C.Node (x, 0)) C.Stuck_at_0 in
  check_bool "x collapsed" true (rep_site <> C.Node (x, 0));
  ignore z;
  Alcotest.(check (list int))
    "identical observed behaviour"
    (run_faulted (C.Node (x, 0)) C.Stuck_at_0)
    (run_faulted rep_site rep_model)

(* ---- each static rule pays ---- *)

(* The campaign's classification over the full gate-level IU task list
   of rspeed: value prefilter first, then the cone, then the distinct
   lane faults left after collapsing.  Each rule must remove work the
   rules before it left, or it does not earn its place in the static
   layer. *)
let test_static_rules_pay_on_gate_level () =
  let module Campaign = Fault_injection.Campaign in
  let module Injection = Fault_injection.Injection in
  let params = { Leon3.Core.default_params with Leon3.Core.gate_level = true } in
  let sys = Leon3.System.create ~params () in
  let core = Leon3.System.core sys in
  let prog = (Workloads.Suite.find "rspeed").Workloads.Suite.build ~iterations:1 ~dataset:0 in
  let golden = Campaign.golden_run ~coverage:true sys prog ~max_cycles:5_000_000 in
  let cov = Option.get golden.Campaign.coverage in
  let g = Graph.build core.Leon3.Core.circuit in
  let obs_points = Leon3.Core.observation_points core in
  let keep s = List.mem s obs_points in
  let cone = Graph.backward_cone g obs_points in
  let classic = Collapse.build g ~keep in
  let dominance =
    Collapse.build ~dom:(Analysis.Dominator.build g ~exits:obs_points) g ~keep
  in
  let pruned = ref 0 and tasks = ref [] in
  List.iter
    (fun model ->
      List.iter
        (fun (site : Injection.site) ->
          let f = site.Injection.fault_site in
          if not (C.never_activates cov f model) then
            if Graph.cone_site cone f then tasks := (f, model) :: !tasks else incr pruned)
        (Injection.sites core Injection.Iu))
    Campaign.default_config.Campaign.models;
  let lanes col =
    List.length
      (List.sort_uniq compare (List.map (fun (f, m) -> Collapse.resolve col f m) !tasks))
  in
  let classic_lanes = lanes classic in
  check_bool "the cone prunes an unprefiltered task" true (!pruned > 0);
  check_bool "classic collapsing merges lanes" true (classic_lanes < List.length !tasks);
  check_bool "dominance collapsing merges more" true (lanes dominance < classic_lanes)

(* ---- lint ---- *)

let find_rule report rule =
  List.filter (fun f -> f.Lint.rule = rule) report.Lint.findings

(* One circuit that trips every rule at least once. *)
let build_broken () =
  let c = C.create "broken" in
  let undriven = C.input c "undriven" 4 in
  let driven = C.input c "driven" 4 in
  let mix = C.comb2 c "mix" 4 undriven driven (fun a b -> a lor b) in
  (* depth chain under a tiny depth limit *)
  let c1 = C.comb1 c "c1" 4 mix (fun v -> v) in
  let c2 = C.comb1 c "c2" 4 c1 (fun v -> v) in
  let c3 = C.comb1 c "c3" 4 c2 (fun v -> v) in
  let out = C.comb1 c "out" 4 c3 (fun v -> v) in
  (* dead: no reader, not observed *)
  let _dead = C.comb1 c "dead" 4 driven (fun v -> v) in
  (* unobservable: read by a (dead) sink but no path to [out] *)
  let unobs = C.comb1 c "unobs" 4 driven (fun v -> v) in
  let _unobs_sink = C.comb1 c "unobs_sink" 4 unobs (fun v -> v) in
  (* constant comb: all sources are constants *)
  let k = C.const c "k" 4 5 in
  let _konst = C.comb1 c "konst" 4 k (fun v -> v + 1) in
  (* truncation: evaluator overflows the declared 2-bit width *)
  let _trunc = C.comb1 c "trunc" 2 driven (fun v -> v + 1) in
  C.elaborate c;
  (c, out, driven)

let test_lint_broken_circuit_fires_every_rule () =
  let c, out, driven = build_broken () in
  let report = Lint.run ~observed:[ out ] ~driven:[ driven ] ~depth_limit:3 c in
  let expect rule severity =
    match find_rule report rule with
    | [] -> Alcotest.fail ("rule did not fire: " ^ rule)
    | f :: _ ->
        Alcotest.(check string)
          ("severity of " ^ rule) (Lint.severity_name severity)
          (Lint.severity_name f.Lint.severity)
  in
  expect "undriven-input" Lint.Error;
  expect "dead-node" Lint.Warning;
  expect "unobservable-node" Lint.Warning;
  expect "constant-comb" Lint.Warning;
  expect "width-truncation" Lint.Info;
  expect "comb-depth" Lint.Info;
  check_int "exactly the one undriven input" 1 (Lint.errors report);
  (* findings are ordered most severe first *)
  (match report.Lint.findings with
  | first :: _ -> check_bool "errors lead the report" true (first.Lint.severity = Lint.Error)
  | [] -> Alcotest.fail "no findings");
  (* the undriven-but-unobservable case must NOT be an error: an input
     outside the cone cannot corrupt anything the environment reads *)
  let report' = Lint.run ~observed:[ driven ] ~driven:[ driven ] c in
  check_int "undriven outside cone is not an error" 0 (Lint.errors report')

let test_lint_json_shape () =
  let c, out, driven = build_broken () in
  let report = Lint.run ~observed:[ out ] ~driven:[ driven ] ~depth_limit:3 c in
  let json = Lint.to_json report in
  List.iter
    (fun needle ->
      let n = String.length needle and h = String.length json in
      let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
      check_bool ("json has " ^ needle) true (go 0))
    [ "\"errors\":1"; "\"findings\":"; "\"undriven-input\""; "\"cone_size\":" ]

let lint_core params =
  let core = Leon3.Core.build ~params () in
  Lint.run
    ~observed:(Leon3.Core.observation_points core)
    ~driven:(Leon3.Core.environment_inputs core)
    core.Leon3.Core.circuit

let test_lint_leon3_clean () =
  (* The CI gate: both Leon3 elaborations must be free of error-level
     findings. *)
  let behavioural = lint_core Leon3.Core.default_params in
  check_int "behavioural: no errors" 0 (Lint.errors behavioural);
  check_bool "cone computed" true (behavioural.Lint.cone_size <> None);
  check_bool "cone covers most of the netlist" true
    (match behavioural.Lint.cone_size with
    | Some n -> n * 10 >= behavioural.Lint.signals * 9
    | None -> false);
  check_bool "behavioural settle chain under the limit" true
    (find_rule behavioural "comb-depth" = []);
  let gate = lint_core { Leon3.Core.default_params with gate_level = true } in
  check_int "gate-level: no errors" 0 (Lint.errors gate);
  check_bool "gate-level netlist is bigger" true (gate.Lint.signals > behavioural.Lint.signals);
  (* the ripple-carry chain exceeds the default depth limit: the rule
     must flag it, and only as an informational finding *)
  check_bool "gate-level depth flagged" true (find_rule gate "comb-depth" <> [])

let suite =
  ( "analysis",
    [ Alcotest.test_case "graph structure" `Quick test_graph_structure;
      Alcotest.test_case "cone basics" `Quick test_cone_basic;
      Alcotest.test_case "cone through memory" `Quick test_cone_through_memory;
      Alcotest.test_case "collapse forward chain" `Quick test_collapse_forward_chain;
      Alcotest.test_case "collapse respects keep" `Quick test_collapse_respects_keep;
      Alcotest.test_case "collapse complement" `Quick test_collapse_complement;
      Alcotest.test_case "collapse controlling value" `Quick test_collapse_controlling_value;
      Alcotest.test_case "collapse behaviourally exact" `Quick test_collapse_is_behaviourally_exact;
      Alcotest.test_case "collapse fires on gate-level" `Quick test_collapse_fires_on_gate_level_leon3;
      Alcotest.test_case "dominator diamond" `Quick test_dominator_diamond;
      Alcotest.test_case "collapse dominance rule" `Quick test_collapse_dominance_rule;
      Alcotest.test_case "collapse dominance exact" `Quick
        test_collapse_dominance_is_behaviourally_exact;
      Alcotest.test_case "static rules pay on gate-level" `Quick
        test_static_rules_pay_on_gate_level;
      Alcotest.test_case "lint broken circuit" `Quick test_lint_broken_circuit_fires_every_rule;
      Alcotest.test_case "lint json" `Quick test_lint_json_shape;
      Alcotest.test_case "lint leon3 clean" `Quick test_lint_leon3_clean ] )
