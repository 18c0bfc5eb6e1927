(* Tests for ISS-level fault campaigns: verdict determinism across
   domain counts and journal resume, shard merging through the shared
   journal, and the site-name model partition.  The CI seed sweep
   reruns this suite under several RICV_TEST_SEED values — every
   property here must hold for any sampling seed. *)

module A = Sparc.Asm
module I = Sparc.Isa
module Campaign = Fault_injection.Campaign
module Journal = Fault_injection.Journal
module IC = Fault_injection.Iss_campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seed =
  match Sys.getenv_opt "RICV_TEST_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 7)
  | None -> 7

(* Sums 0..7 into a data word and exits with the sum; has a data
   segment so mem-flip sites land in real workload state. *)
let small_prog =
  lazy
    (let b = A.create ~name:"iss-small" () in
     A.prologue b;
     A.mov b (Imm 0) I.o0;
     A.mov b (Imm 0) I.o1;
     A.label b "loop";
     A.op3 b I.Add I.o0 (Reg I.o1) I.o0;
     A.op3 b I.Add I.o1 (Imm 1) I.o1;
     A.cmp b I.o1 (Imm 8);
     A.branch b I.Bne "loop";
     A.set32 b Sparc.Layout.result_base I.o2;
     A.st b I.St I.o0 I.o2 (Imm 0);
     A.halt b I.o0;
     A.assemble b)

let config ?(samples = 12) ?(shard = (1, 1)) () =
  { IC.default_config with IC.samples_per_model = samples; seed; shard }

let full_verdict (r : Journal.run_result) =
  (r.Journal.site_name, r.Journal.model, r.Journal.outcome, r.Journal.detect_cycle,
   r.Journal.inject_cycle, r.Journal.sim)

let temp_journal () =
  let path = Filename.temp_file "ricv_iss_journal" ".jsonl" in
  Sys.remove path;
  path

let with_journal f =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---- golden run and site sampling ---- *)

let test_golden_run () =
  let g = IC.golden_run (Lazy.force small_prog) in
  check_bool "ran" true (g.IC.instructions > 0);
  check_bool "writes observed" true (Array.length g.IC.writes > 0);
  check_int "exit code is the sum" 28 g.IC.exit_code

let test_sample_sites_deterministic () =
  let prog = Lazy.force small_prog in
  let g = IC.golden_run prog in
  let sites1 = IC.sample_sites ~config:(config ()) g prog in
  let sites2 = IC.sample_sites ~config:(config ()) g prog in
  check_bool "same seed, same sites" true (sites1 = sites2);
  check_int "model-major, samples per model" (3 * 12) (Array.length sites1);
  Array.iter
    (fun (s : IC.site) ->
      check_bool ("site name carries the model: " ^ s.IC.site_name) true
        (IC.model_of_site_name s.IC.site_name = Some s.IC.smodel);
      check_bool "injection instant inside the golden run" true
        (s.IC.index >= 0 && s.IC.index < g.IC.instructions))
    sites1;
  (* a different seed moves the sample (the fingerprint hash sees it) *)
  let other =
    IC.sample_sites ~config:{ (config ()) with IC.seed = seed + 1 } g prog
  in
  check_bool "seed sensitivity" true (sites1 <> other)

let test_model_of_site_name_rejects_rtl () =
  check_bool "rtl site names are not ISS sites" true
    (IC.model_of_site_name "iu.ex_alu_result[3]" = None);
  check_bool "plain names rejected" true (IC.model_of_site_name "reg[1.2]@3" = None)

(* ---- campaign determinism ---- *)

let test_campaign_runs_all_models () =
  let summaries, results = IC.run ~config:(config ()) (Lazy.force small_prog) in
  check_int "verdict per site" (3 * 12) (List.length results);
  check_int "one summary per model" 3 (List.length summaries);
  List.iter
    (fun (m, (s : Campaign.summary)) ->
      check_int ("injections for " ^ IC.model_name m) 12 s.Campaign.injections)
    summaries;
  (* every verdict partitions back to exactly one ISS model *)
  List.iter
    (fun (r : Journal.run_result) ->
      check_bool ("verdict has an ISS model: " ^ r.Journal.site_name) true
        (IC.model_of_site_name r.Journal.site_name <> None);
      check_bool "recorded under bit-flip" true (r.Journal.model = Rtl.Circuit.Bit_flip))
    results

let test_parallel_equals_sequential () =
  (* both entry points run the shared executor: verdicts, summaries,
     telemetry counters and journal contents agree *)
  let prog = Lazy.force small_prog in
  with_journal @@ fun seq_path ->
  with_journal @@ fun par_path ->
  let obs_seq = Obs.create () and obs_par = Obs.create () in
  let s_seq, r_seq = IC.run ~config:(config ()) ~obs:obs_seq ~journal:seq_path prog in
  let s_par, r_par =
    IC.run_parallel ~config:(config ()) ~obs:obs_par ~domains:4 ~journal:par_path prog
  in
  check_int "verdict count" (List.length r_seq) (List.length r_par);
  List.iter2
    (fun a b ->
      check_bool ("verdicts equal: " ^ a.Journal.site_name) true
        (full_verdict a = full_verdict b))
    r_seq r_par;
  check_bool "summaries equal" true (s_seq = s_par);
  Alcotest.(check (list (pair string int)))
    "counters equal" (Obs.counters obs_seq) (Obs.counters obs_par);
  match (Journal.load seq_path, Journal.load par_path) with
  | Ok (_, a), Ok (_, b) ->
      let key e = (e.Journal.index, full_verdict e.Journal.result) in
      check_bool "journal contents equal" true
        (List.sort compare (List.map key a) = List.sort compare (List.map key b))
  | Error m, _ | _, Error m -> Alcotest.fail m

let prop_parallel_matches_sequential =
  (* the engines agree for any sample size and domain count *)
  QCheck2.Test.make ~name:"iss parallel engine matches sequential" ~count:8
    QCheck2.Gen.(pair (int_range 1 6) (int_range 2 5))
    (fun (samples, domains) ->
      let prog = Lazy.force small_prog in
      let _, r_seq = IC.run ~config:(config ~samples ()) prog in
      let _, r_par = IC.run_parallel ~config:(config ~samples ()) ~domains prog in
      List.length r_seq = List.length r_par
      && List.for_all2 (fun a b -> full_verdict a = full_verdict b) r_seq r_par)

(* ---- journaling: kill, resume, shard, merge ---- *)

let test_journal_kill_and_resume () =
  let prog = Lazy.force small_prog in
  let summaries0, results0 = IC.run ~config:(config ()) prog in
  with_journal @@ fun path ->
  let _ = IC.run ~config:(config ()) ~journal:path prog in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  check_int "journal holds every verdict" (1 + List.length results0) (List.length lines);
  (* kill mid-campaign: keep half the verdicts plus a torn tail *)
  let keep = 1 + (List.length results0 / 2) in
  let oc = open_out path in
  List.iteri (fun i l -> if i < keep then (output_string oc l; output_char oc '\n')) lines;
  output_string oc {|{"type":"verdict","i":99,"site":"torn|};
  close_out oc;
  let obs = Obs.create () in
  let summaries1, results1 = IC.run ~config:(config ()) ~obs ~journal:path ~resume:true prog in
  check_int "replayed the surviving verdicts" (keep - 1)
    (Obs.counter obs "journal.replayed");
  List.iter2
    (fun r0 r1 ->
      check_bool ("verdict " ^ r0.Journal.site_name) true
        (full_verdict r0 = full_verdict r1))
    results0 results1;
  check_bool "summaries identical" true (summaries0 = summaries1);
  (* parallel resume over the same journal is also byte-identical *)
  let _, results2 =
    IC.run_parallel ~config:(config ()) ~domains:3 ~journal:path ~resume:true prog
  in
  List.iter2
    (fun r0 r2 -> check_bool "parallel resume stable" true (full_verdict r0 = full_verdict r2))
    results0 results2

let test_stale_journal_rejected () =
  let prog = Lazy.force small_prog in
  with_journal @@ fun path ->
  let _ = IC.run ~config:(config ()) ~journal:path prog in
  (* different sampling seed: the fingerprint must refuse to resume *)
  check_bool "stale journal raises Rejected" true
    (match
       IC.run ~config:{ (config ()) with IC.seed = seed + 1 } ~journal:path
         ~resume:true prog
     with
    | _ -> false
    | exception Journal.Rejected _ -> true)

let test_shard_merge_equals_direct () =
  let prog = Lazy.force small_prog in
  let summaries0, results0 = IC.run ~config:(config ()) prog in
  let n = 3 in
  let journals =
    List.init n (fun k ->
        let path = temp_journal () in
        let _ = IC.run ~config:(config ~shard:(k + 1, n) ()) ~journal:path prog in
        path)
  in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove journals) @@ fun () ->
  let loaded =
    List.map
      (fun p -> match Journal.load p with Ok j -> j | Error m -> Alcotest.fail m)
      journals
  in
  match Journal.merge loaded with
  | Error msg -> Alcotest.fail msg
  | Ok (fp, merged) ->
      check_bool "iss journal target" true (fp.Journal.target = IC.target_name);
      check_int "merged count" (List.length results0) (List.length merged);
      List.iter2
        (fun r0 rm ->
          check_bool ("merged verdict " ^ r0.Journal.site_name) true
            (full_verdict r0 = full_verdict rm))
        results0 merged;
      (* the model partition of the merged verdicts reproduces the
         direct run's per-model summaries *)
      check_bool "partitioned summaries equal direct" true
        (IC.summaries_by_model IC.all_models merged = summaries0);
      (* incomplete shard sets stay rejected through the shared journal *)
      check_bool "incomplete set rejected" true
        (match Journal.merge [ List.hd loaded ] with Ok _ -> false | Error _ -> true)

(* ---- forked runs = from-scratch runs ---- *)

module E = Iss.Emulator

(* Golden's accesses to every location, in order, seen through the
   emulator's access hook: the test's own account of where each fault
   is first read, kept apart from the campaign's resolution of its
   sites. *)
let golden_accesses prog =
  let t = E.create ~config:{ E.default_config with E.icache = None; dcache = None } prog in
  let log = Hashtbl.create 256 in
  E.set_access_hook t
    (Some
       (fun a loc kind ->
         Hashtbl.replace log loc
           ((a, kind) :: Option.value ~default:[] (Hashtbl.find_opt log loc))));
  ignore (E.run t);
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) log;
  log

(* How the observed pass should settle [site]: [`Forked_at a] or
   [`Overwritten] or [`Never_read]; opcode sites fork at their own
   instant. *)
let expected_fate log (site : IC.site) =
  let first loc =
    match
      List.find_opt (fun (a, _) -> a >= site.IC.index)
        (Option.value ~default:[] (Hashtbl.find_opt log loc))
    with
    | Some (a, E.Read) -> `Forked_at a
    | Some (_, E.Write) -> `Overwritten
    | None -> `Never_read
  in
  match site.IC.smodel with
  | IC.Reg_flip -> first (E.Slot site.IC.loc)
  | IC.Mem_flip -> first (E.Word (site.IC.loc land lnot 3))
  | IC.Op_flip -> `Forked_at site.IC.index

let same_verdict (a : Journal.run_result) (b : Journal.run_result) =
  a.Journal.site_name = b.Journal.site_name
  && a.Journal.outcome = b.Journal.outcome
  && a.Journal.detect_cycle = b.Journal.detect_cycle
  && a.Journal.inject_cycle = b.Journal.inject_cycle

let test_campaign_equals_run_one () =
  let prefiltered = ref 0 and overwritten = ref 0 and forked_later = ref 0 in
  List.iter
    (fun name ->
      let e = Workloads.Suite.find name in
      let prog =
        e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset:0
      in
      let golden = IC.golden_run prog in
      let log = golden_accesses prog in
      List.iter
        (fun seed ->
          let config = { (config ~samples:100 ()) with IC.seed } in
          let _, results = IC.run ~config prog in
          let sites = IC.sample_sites ~config golden prog in
          List.iteri
            (fun i (r : Journal.run_result) ->
              let site = sites.(i) in
              let reference =
                IC.run_one prog golden ~hang_factor:config.IC.hang_factor site
              in
              if not (same_verdict r reference) then
                Alcotest.failf "%s seed %d: campaign and run_one differ at %s" name seed
                  site.IC.site_name;
              let fate = expected_fate log site in
              (match fate with
              | `Overwritten -> incr overwritten
              | `Forked_at a -> if a > site.IC.index then incr forked_later
              | `Never_read -> ());
              let decided =
                match fate with `Forked_at _ -> false | `Overwritten | `Never_read -> true
              in
              if decided then incr prefiltered;
              check_bool
                (site.IC.site_name ^ ": decided without a run iff never read")
                decided (r.Journal.sim = Journal.Prefiltered))
            results)
        [ seed; seed + 1 ])
    [ "ttsprk"; "membench"; "intbench" ];
  check_bool "some sites are prefiltered" true (!prefiltered > 0);
  check_bool "some are overwritten before a read" true (!overwritten > 0);
  check_bool "some fork at a later read" true (!forked_later > 0)

(* Random straight-line programs over the windowed registers: ALU
   operations, SAVE and RESTORE, loads of every width and stores of
   every width into a 16-word scratch area addressed through %g1.
   Every windowed register of the final window and every scratch word
   are then published, so most faults can reach the write stream. *)
let gen_program =
  let open QCheck2.Gen in
  let reg = int_range 8 31 in
  let operand =
    oneof [ map (fun r -> I.Reg r) reg; map (fun i -> I.Imm (i - 64)) (int_bound 127) ]
  in
  let alu =
    map3
      (fun op (rs1, rd) op2 -> `Alu (op, rs1, op2, rd))
      (oneofl [ I.Add; I.Addcc; I.Sub; I.And; I.Or; I.Xor; I.Sll; I.Srl ])
      (pair reg reg) operand
  in
  let window =
    map3
      (fun save (rs1, rd) op2 -> `Alu ((if save then I.Save else I.Restore), rs1, op2, rd))
      bool (pair reg reg) operand
  in
  let store =
    map3 (fun slot rs width -> `Store (slot * 4, rs, width))
      (int_bound 15) reg (int_bound 2)
  in
  let load =
    map3 (fun slot rd kind -> `Load (slot * 4, rd, kind)) (int_bound 15) reg (int_bound 4)
  in
  pair
    (list_size (int_range 4 40)
       (frequency [ (3, alu); (2, window); (2, store); (2, load) ]))
    (int_bound 1_000_000)

let build_program ops =
  let b = A.create ~name:"forked" () in
  A.prologue b;
  A.set32 b 0x0002_8000 I.g1;
  A.set32 b Sparc.Layout.result_base I.g2;
  List.iter
    (function
      | `Alu (op, rs1, op2, rd) -> A.op3 b op rs1 op2 rd
      | `Store (off, rs, width) ->
          let op, off =
            match width with
            | 0 -> (I.St, off)
            | 1 -> (I.Stb, off + 3)
            | _ -> (I.Sth, off + 2)
          in
          A.st b op rs I.g1 (Imm off)
      | `Load (off, rd, kind) ->
          let op, off =
            match kind with
            | 0 -> (I.Ld, off)
            | 1 -> (I.Ldub, off + 1)
            | 2 -> (I.Ldsb, off + 2)
            | 3 -> (I.Lduh, off)
            | _ -> (I.Ldsh, off + 2)
          in
          A.ld b op I.g1 (Imm off) rd)
    ops;
  for r = 8 to 31 do
    A.st b I.St r I.g2 (Imm (4 * (r - 8)))
  done;
  for k = 0 to 15 do
    A.ld b I.Ld I.g1 (Imm (4 * k)) I.g3;
    A.st b I.St I.g3 I.g2 (Imm (96 + (4 * k)))
  done;
  A.halt b I.g0;
  A.assemble b

(* A site on every register-file slot (the g0 cell included) and on
   every word the program touches (its code, the scratch area and the
   published results), and opcode flips, at instants and bits drawn
   from [site_seed]. *)
let sites_for ~site_seed prog golden =
  let rng = Stats.Rng.create site_seed in
  let draw smodel loc =
    let index = Stats.Rng.int rng golden.IC.instructions and bit = Stats.Rng.int rng 32 in
    { IC.smodel; index; loc; bit; site_name = Printf.sprintf "%d.%d@%d" loc bit index }
  in
  let words base n = List.init n (fun k -> base + (4 * k)) in
  Array.of_list
    (List.init (8 + (16 * E.default_config.E.nwindows)) (draw IC.Reg_flip)
    @ List.map (draw IC.Mem_flip)
        (words prog.A.text_base (Array.length prog.A.code)
        @ words 0x0002_8000 16 @ words Sparc.Layout.result_base 40)
    @ List.init 8 (fun _ -> draw IC.Op_flip 0))

let prop_forked_equals_scratch =
  QCheck2.Test.make ~name:"forked = from scratch" ~count:60
    ~print:(fun (ops, site_seed) ->
      Printf.sprintf "site seed %d\n%s" site_seed
        (String.concat "\n"
           (Array.to_list (Array.map I.instr_to_string (build_program ops).A.instrs))))
    gen_program
    (fun (ops, site_seed) ->
      let prog = build_program ops in
      let golden = IC.golden_run prog in
      let sites = sites_for ~site_seed prog golden in
      let hang_factor = IC.default_config.IC.hang_factor in
      let forked = IC.run_sites prog golden ~hang_factor sites in
      Array.for_all2
        (fun site r -> same_verdict r (IC.run_one prog golden ~hang_factor site))
        sites forked)

let suite =
  ( "iss-campaign",
    [ Alcotest.test_case "golden run" `Quick test_golden_run;
      Alcotest.test_case "site sampling" `Quick test_sample_sites_deterministic;
      Alcotest.test_case "rtl site names rejected" `Quick test_model_of_site_name_rejects_rtl;
      Alcotest.test_case "all models run" `Quick test_campaign_runs_all_models;
      Alcotest.test_case "parallel = sequential" `Slow test_parallel_equals_sequential;
      Alcotest.test_case "kill and resume" `Slow test_journal_kill_and_resume;
      Alcotest.test_case "stale journal rejected" `Quick test_stale_journal_rejected;
      Alcotest.test_case "shard merge = direct" `Slow test_shard_merge_equals_direct ]
    @ [ QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
        Alcotest.test_case "campaign = run_one, site by site" `Slow
          test_campaign_equals_run_one;
        QCheck_alcotest.to_alcotest prop_forked_equals_scratch ] )
