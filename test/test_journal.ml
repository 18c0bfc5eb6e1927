(* Tests for the persistent campaign journal: round-trip, crash
   resume, fingerprint binding and shard merging; and for the durable
   file layer beneath it and the serve queue: one torn-tail rule, one
   failure policy. *)

module A = Sparc.Asm
module I = Sparc.Isa
module C = Rtl.Circuit
module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection
module Journal = Fault_injection.Journal
module Durable = Fault_injection.Durable

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_sys = lazy (Leon3.System.create ())

let small_prog =
  lazy
    (let b = A.create ~name:"small" () in
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

let temp_journal () =
  let path = Filename.temp_file "ricv_journal" ".jsonl" in
  Sys.remove path;
  path

let with_journal f =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let config ?(shard = (1, 1)) ?(models = [ C.Stuck_at_1; C.Open_line ]) () =
  { Campaign.default_config with Campaign.models; sample_size = Some 30; shard }

(* Verdicts must survive the journal byte-identically: every field,
   the sim status included. *)
let full_verdict (r : Campaign.run_result) =
  (r.Campaign.site_name, r.Campaign.model, r.Campaign.outcome, r.Campaign.detect_cycle,
   r.Campaign.inject_cycle, r.Campaign.sim)

let sample_fingerprint ?(shard = (1, 1)) () =
  { Journal.workload = "unit-test";
    prog_hash = 0x1234;
    netlist_hash = 0x5678;
    target = "iu";
    models = [ "stuck-at-1"; "open-line" ];
    sample_size = Some 30;
    include_cells = true;
    inject_cycle = 0;
    hang_factor = 4;
    compare_reads = false;
    seed = 7;
    total_sites = 30;
    shard }

(* ---- record round-trip ---- *)

let test_roundtrip () =
  with_journal @@ fun path ->
  let fp = sample_fingerprint () in
  let mk site_name model outcome detect_cycle sim =
    { Journal.site_name; model; outcome; detect_cycle; inject_cycle = 0; sim }
  in
  (* one verdict per outcome/sim constructor *)
  let results =
    [ (0, mk "a[0]" C.Stuck_at_1 Journal.Silent None Journal.Simulated);
      (1, mk "b[1]" C.Open_line (Journal.Failure (Journal.Wrong_write 3)) (Some 41)
           Journal.Prefiltered);
      (2, mk "c[2]" C.Stuck_at_0 (Journal.Failure (Journal.Missing_writes 2)) None
           (Journal.Converged 512));
      (3, mk "d[3]" C.Bit_flip (Journal.Failure (Journal.Trap 9)) (Some 5) Journal.Pruned);
      (4, mk "e[4]" C.Stuck_at_1 (Journal.Failure Journal.Hang) (Some 999)
           (Journal.Collapsed "leader[7]")) ]
  in
  let w = Journal.create path fp in
  List.iter (fun (index, r) -> Journal.append w ~index r) results;
  Journal.close w;
  Journal.close w;
  (* idempotent *)
  match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok (fp', entries) ->
      check_bool "fingerprint round-trips" true (Journal.full_mismatch fp fp' = None);
      check_int "entry count" (List.length results) (List.length entries);
      List.iter2
        (fun (index, r) e ->
          check_int "index" index e.Journal.index;
          check_bool ("verdict " ^ r.Journal.site_name) true
            (full_verdict e.Journal.result = full_verdict r))
        results entries

let test_torn_tail_dropped () =
  with_journal @@ fun path ->
  let fp = sample_fingerprint () in
  let w = Journal.create path fp in
  Journal.append w ~index:0
    { Journal.site_name = "a[0]"; model = C.Stuck_at_1; outcome = Journal.Silent;
      detect_cycle = None; inject_cycle = 0; sim = Journal.Simulated };
  Journal.close w;
  (* crash mid-append: an unterminated, truncated record at the tail *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"type":"verdict","i":1,"site":"b[|};
  close_out oc;
  (match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok (_, entries) -> check_int "torn tail dropped" 1 (List.length entries));
  (* the same garbage in the middle of the file is corruption, not a crash *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "\n{\"type\":\"verdict\",\"i\":2}\n";
  close_out oc;
  check_bool "garbage mid-file rejected" true
    (match Journal.load path with Ok _ -> false | Error _ -> true)

let test_fingerprint_mismatch () =
  with_journal @@ fun path ->
  let fp = sample_fingerprint () in
  let w = Journal.create path fp in
  Journal.close w;
  let stale = { fp with Journal.seed = 8 } in
  (match Journal.open_resume path stale with
  | Ok _ -> Alcotest.fail "stale journal accepted"
  | Error msg ->
      check_bool ("mismatch names the field: " ^ msg) true
        (String.length msg > 0
        &&
        let lower = String.lowercase_ascii msg in
        let has needle =
          let nl = String.length needle and ll = String.length lower in
          let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
          go 0
        in
        has "seed"));
  (* shard spec is part of the resume identity *)
  let other_shard = { fp with Journal.shard = (2, 4) } in
  check_bool "shard mismatch rejected" true
    (match Journal.open_resume path other_shard with Ok _ -> false | Error _ -> true);
  (* but not of the merge identity *)
  check_bool "base identity ignores shard" true
    (Journal.base_mismatch fp other_shard = None)

let test_stale_tmp_debris () =
  (* a kill between [create tmp] and [rename tmp path] leaves a .tmp
     next to the journal; open_resume must clear it, not trip over it *)
  with_journal @@ fun path ->
  let tmp = path ^ ".tmp" in
  let fp = sample_fingerprint () in
  let verdict site =
    { Journal.site_name = site; model = C.Stuck_at_1; outcome = Journal.Silent;
      detect_cycle = None; inject_cycle = 0; sim = Journal.Simulated }
  in
  let w = Journal.create path fp in
  Journal.append w ~index:0 (verdict "a[0]");
  Journal.close w;
  Out_channel.with_open_text tmp (fun oc -> output_string oc "{\"type\":\"torn");
  (match Journal.open_resume path fp with
  | Error msg -> Alcotest.fail msg
  | Ok (w, entries) ->
      check_int "survivors replayed" 1 (List.length entries);
      check_bool "debris removed" false (Sys.file_exists tmp);
      Journal.append w ~index:1 (verdict "b[1]");
      Journal.close w);
  (match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok (_, entries) -> check_int "append after resume persists" 2 (List.length entries));
  (* debris with no journal at all: a fresh one is created cleanly *)
  Sys.remove path;
  Out_channel.with_open_text tmp (fun oc -> output_string oc "{\"type\":\"torn");
  (match Journal.open_resume path fp with
  | Error msg -> Alcotest.fail msg
  | Ok (w, entries) ->
      check_int "fresh journal is empty" 0 (List.length entries);
      check_bool "debris removed before create" false (Sys.file_exists tmp);
      Journal.close w);
  if Sys.file_exists tmp then Sys.remove tmp

(* ---- campaign integration ---- *)

let direct_run ?shard ?journal ?(resume = false) ?obs () =
  let sys = Lazy.force shared_sys in
  Campaign.run ~config:(config ?shard ()) ?obs ?journal ~resume sys
    (Lazy.force small_prog) Injection.Iu

let test_campaign_journal_resume () =
  let summaries0, results0 = direct_run () in
  with_journal @@ fun path ->
  (* full journaled run, then truncate to simulate a kill: header,
     half the verdicts, and a torn tail *)
  let _ = direct_run ~journal:path () in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  check_int "journal holds every verdict" (1 + List.length results0) (List.length lines);
  let keep = 1 + (List.length results0 / 2) in
  let oc = open_out path in
  List.iteri (fun i l -> if i < keep then (output_string oc l; output_char oc '\n')) lines;
  output_string oc {|{"type":"verdict","i":99,"site":"torn|};
  close_out oc;
  let obs = Obs.create () in
  let summaries1, results1 = direct_run ~journal:path ~resume:true ~obs () in
  check_int "replayed the surviving verdicts" (keep - 1)
    (Obs.counter obs "journal.replayed");
  check_int "result count" (List.length results0) (List.length results1);
  List.iter2
    (fun r0 r1 ->
      check_bool ("verdict " ^ r0.Campaign.site_name) true
        (full_verdict r0 = full_verdict r1))
    results0 results1;
  List.iter2
    (fun (m0, s0) (m1, s1) ->
      check_bool "model order" true (m0 = m1);
      check_bool "summaries identical" true (s0 = s1))
    summaries0 summaries1;
  (* the resumed journal is complete: resuming again replays everything
     and never builds the golden run *)
  let obs2 = Obs.create () in
  let _, results2 = direct_run ~journal:path ~resume:true ~obs:obs2 () in
  check_int "everything replayed" (List.length results0)
    (Obs.counter obs2 "journal.replayed");
  check_int "no golden run on a complete journal" 0 (Obs.span_count obs2 "golden");
  List.iter2
    (fun r0 r2 -> check_bool "stable" true (full_verdict r0 = full_verdict r2))
    results0 results2;
  (* ... and neither does the parallel engine *)
  let obs3 = Obs.create () in
  let _, results3 =
    Campaign.run_parallel ~config:(config ()) ~obs:obs3 ~domains:3 ~journal:path ~resume:true
      (fun () -> Leon3.System.create ())
      (Lazy.force small_prog) Injection.Iu
  in
  check_int "parallel: everything replayed" (List.length results0)
    (Obs.counter obs3 "journal.replayed");
  check_int "parallel: no golden run on a complete journal" 0
    (Obs.span_count obs3 "golden");
  List.iter2
    (fun r0 r3 -> check_bool "parallel stable" true (full_verdict r0 = full_verdict r3))
    results0 results3

let test_campaign_rejects_stale_journal () =
  with_journal @@ fun path ->
  let _ = direct_run ~journal:path () in
  (* same journal, different workload: must refuse to resume *)
  let b = A.create ~name:"other" () in
  A.prologue b;
  A.mov b (Imm 3) I.o0;
  A.set32 b Sparc.Layout.result_base I.o2;
  A.st b I.St I.o0 I.o2 (Imm 0);
  A.halt b I.o0;
  let other = A.assemble b in
  let sys = Lazy.force shared_sys in
  check_bool "stale journal raises Rejected" true
    (match Campaign.run ~config:(config ()) ~journal:path ~resume:true sys other Injection.Iu with
    | _ -> false
    | exception Journal.Rejected _ -> true);
  (* without --resume an existing journal is simply overwritten *)
  let summaries, _ = Campaign.run ~config:(config ()) ~journal:path sys other Injection.Iu in
  check_bool "fresh run overwrites" true (summaries <> [])

let test_shard_merge_equals_direct () =
  let _, results0 = direct_run () in
  let summaries0, _ = direct_run () in
  let n = 4 in
  let journals =
    List.init n (fun k ->
        let path = temp_journal () in
        let _ = direct_run ~shard:(k + 1, n) ~journal:path () in
        path)
  in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove journals) @@ fun () ->
  let loaded =
    List.map
      (fun p -> match Journal.load p with Ok j -> j | Error m -> Alcotest.fail m)
      journals
  in
  (* shards are disjoint and covering *)
  let sizes = List.map (fun (_, es) -> List.length es) loaded in
  check_int "shard verdicts cover the campaign" (List.length results0)
    (List.fold_left ( + ) 0 sizes);
  match Journal.merge loaded with
  | Error msg -> Alcotest.fail msg
  | Ok (fp, merged) ->
      check_bool "merged fingerprint is unsharded" true (fp.Journal.shard = (1, 1));
      check_int "merged count" (List.length results0) (List.length merged);
      (* byte-identical to the direct run, order included *)
      List.iter2
        (fun r0 rm ->
          check_bool ("merged verdict " ^ r0.Campaign.site_name) true
            (full_verdict r0 = full_verdict rm))
        results0 merged;
      let models = List.filter_map Journal.model_of_name fp.Journal.models in
      check_int "models survive the header" 2 (List.length models);
      List.iter2
        (fun (m0, s0) m ->
          check_bool "model order" true (m0 = m);
          let s =
            Campaign.summarize (List.filter (fun r -> r.Journal.model = m) merged)
          in
          check_bool "merged summary equals direct" true (s = s0))
        summaries0 models;
      (* merging a duplicated shard or an incomplete set is rejected *)
      let shard1 = List.nth loaded 0 in
      check_bool "duplicate shard rejected" true
        (match Journal.merge [ shard1; shard1 ] with Ok _ -> false | Error _ -> true);
      check_bool "incomplete set rejected" true
        (match Journal.merge [ shard1 ] with Ok _ -> false | Error _ -> true)

let test_sharded_parallel_engine () =
  (* the parallel engine, sharded and journaled, produces the same
     shard journal as the sequential engine *)
  with_journal @@ fun seq_path ->
  with_journal @@ fun par_path ->
  let _, seq = direct_run ~shard:(2, 3) ~journal:seq_path () in
  let _, par =
    Campaign.run_parallel ~config:(config ~shard:(2, 3) ()) ~domains:3 ~journal:par_path
      (fun () -> Leon3.System.create ())
      (Lazy.force small_prog) Injection.Iu
  in
  check_int "result count" (List.length seq) (List.length par);
  List.iter2
    (fun a b -> check_bool "verdicts equal" true (full_verdict a = full_verdict b))
    seq par;
  match (Journal.load seq_path, Journal.load par_path) with
  | Ok (fa, ea), Ok (fb, eb) ->
      check_bool "fingerprints equal" true (Journal.full_mismatch fa fb = None);
      check_int "journal sizes equal" (List.length ea) (List.length eb);
      let key e = (e.Journal.index, full_verdict e.Journal.result) in
      check_bool "journal contents equal" true
        (List.sort compare (List.map key ea) = List.sort compare (List.map key eb))
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_sequential_journal_merges_like_parallel () =
  (* verdict lines land in completion order, which differs between
     engines; loading and merging places them by index, so both
     journals reassemble the direct run *)
  let _, direct = direct_run () in
  with_journal @@ fun seq_path ->
  with_journal @@ fun par_path ->
  let _ = direct_run ~journal:seq_path () in
  let _ =
    Campaign.run_parallel ~config:(config ()) ~domains:3 ~journal:par_path
      (fun () -> Leon3.System.create ())
      (Lazy.force small_prog) Injection.Iu
  in
  let merged path =
    match Result.bind (Journal.load path) (fun j -> Journal.merge [ j ]) with
    | Ok (_, merged) -> List.map full_verdict merged
    | Error m -> Alcotest.fail m
  in
  check_bool "sequential journal merges to the direct run" true
    (merged seq_path = List.map full_verdict direct);
  check_bool "parallel journal merges to the same verdicts" true
    (merged par_path = merged seq_path)

let test_invalid_shard_rejected () =
  let sys = Lazy.force shared_sys in
  let prog = Lazy.force small_prog in
  List.iter
    (fun shard ->
      check_bool
        (Printf.sprintf "shard %d/%d rejected" (fst shard) (snd shard))
        true
        (match Campaign.run ~config:(config ~shard ()) sys prog Injection.Iu with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (0, 4); (5, 4); (1, 0); (-1, 2) ]

let test_parallel_exception_propagates () =
  (* a worker's exception must surface as itself, not as a
     missing-result failure — with or without spawned domains *)
  let prog = Lazy.force small_prog in
  List.iter
    (fun domains ->
      let hits = Atomic.make 0 in
      check_bool
        (Printf.sprintf "original exception re-raised (%d domains)" domains)
        true
        (match
           Campaign.run_parallel ~config:(config ()) ~domains
             ~on_progress:(fun ~done_:_ ~total:_ ->
               if Atomic.fetch_and_add hits 1 = 3 then raise Exit)
             (fun () -> Leon3.System.create ())
             prog Injection.Iu
         with
        | _ -> false
        | exception Exit -> true
        | exception _ -> false))
    [ 1; 2 ]

(* ---- the durable file layer: one torn-tail rule, one failure policy ---- *)

let write_raw path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* a header "H" and integer records *)
let load_ints path =
  Durable.load path
    ~header:(fun l -> if l = "H" then Ok () else Error "bad header")
    ~record:(fun l ->
      match int_of_string_opt l with Some n -> Ok n | None -> Error "not a number")

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_unterminated_tail_dropped () =
  with_journal @@ fun path ->
  write_raw path "H\n1\n2";
  check_bool "a parsing but unterminated last line is dropped" true
    (load_ints path = Ok ((), [ 1 ]))

let test_unparsable_last_line_dropped () =
  with_journal @@ fun path ->
  write_raw path "H\n1\nx\n";
  check_bool "a terminated last line that does not parse is dropped" true
    (load_ints path = Ok ((), [ 1 ]))

let test_bad_line_before_last () =
  with_journal @@ fun path ->
  write_raw path "H\n1\nx\n3\n";
  match load_ints path with
  | Ok _ -> Alcotest.fail "a bad line before the last was accepted"
  | Error msg ->
      check_bool ("names the path: " ^ msg) true (contains msg path);
      check_bool ("names the line: " ^ msg) true (contains msg "line 3")

let test_empty_file_rejected () =
  with_journal @@ fun path ->
  write_raw path "";
  check_bool "empty file rejected" true (Result.is_error (load_ints path))

let test_failed_rename_raises () =
  (* a non-empty directory at the path makes the rename fail, as root
     too; the [.tmp] it leaves is consumed by the next start *)
  with_journal @@ fun path ->
  let tmp = path ^ ".tmp" in
  Unix.mkdir path 0o755;
  let inner = Filename.concat path "x" in
  write_raw inner "x";
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists inner then Sys.remove inner;
      if Sys.file_exists path && Sys.is_directory path then Unix.rmdir path;
      if Sys.file_exists tmp then Sys.remove tmp)
  @@ fun () ->
  check_bool "start raises Sys_error" true
    (match Durable.start ~sync_every:1 path [ "H" ] with
    | _ -> false
    | exception Sys_error _ -> true);
  check_bool "the failure leaves its .tmp" true (Sys.file_exists tmp);
  Sys.remove inner;
  Unix.rmdir path;
  let a = Durable.start ~sync_every:1 path [ "H"; "1" ] in
  Durable.append a "2";
  Durable.close a;
  Durable.close a;
  check_bool "the next start consumes the .tmp" false (Sys.file_exists tmp);
  check_bool "and writes the file" true (load_ints path = Ok ((), [ 1; 2 ]))

let test_create_is_whole () =
  with_journal @@ fun path ->
  let fp = sample_fingerprint () in
  let w = Journal.create path fp in
  Fun.protect ~finally:(fun () -> Journal.close w) @@ fun () ->
  check_bool "no .tmp left" false (Sys.file_exists (path ^ ".tmp"));
  check_int "the file holds its header" 1
    (List.length (In_channel.with_open_text path In_channel.input_lines));
  match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok (fp', entries) ->
      check_bool "header parses" true (Journal.full_mismatch fp fp' = None);
      check_int "no verdicts" 0 (List.length entries)

let test_queue_drops_tail_like_journal () =
  let dir = temp_journal () in
  let qfile = Filename.concat dir "queue.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists qfile then Sys.remove qfile;
      List.iter
        (fun d -> if Sys.file_exists d then Unix.rmdir d)
        [ Filename.concat dir "job-1"; dir ])
  @@ fun () ->
  let open_queue () =
    match Serve.Jobqueue.open_ dir with Ok r -> r | Error e -> Alcotest.fail e
  in
  let q, _ = open_queue () in
  let id = Serve.Jobqueue.next_id q in
  Serve.Jobqueue.append_job q id
    (Serve.Protocol.default_spec ~engine:Serve.Protocol.Rtl ~workload:"rspeed");
  Serve.Jobqueue.close q;
  (* a whole record, minus its newline: a torn append *)
  let oc = open_out_gen [ Open_append ] 0o644 qfile in
  output_string oc (Printf.sprintf {|{"type":"job-done","job":%d}|} id);
  close_out oc;
  let q, jobs = open_queue () in
  Serve.Jobqueue.close q;
  check_bool "queue: unterminated record dropped" true
    (List.map (fun j -> j.Serve.Jobqueue.finished) jobs = [ `Open ]);
  with_journal @@ fun path ->
  let w = Journal.create path (sample_fingerprint ()) in
  Journal.close w;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc
    {|{"type":"verdict","i":0,"site":"a[0]","model":"stuck-at-1","outcome":"silent","detect":null,"inject":0,"sim":"simulated"}|};
  close_out oc;
  check_bool "journal: unterminated record dropped" true
    (match Journal.load path with Ok (_, []) -> true | _ -> false)

let suite =
  ( "journal",
    [ Alcotest.test_case "record round-trip" `Quick test_roundtrip;
      Alcotest.test_case "torn tail dropped" `Quick test_torn_tail_dropped;
      Alcotest.test_case "fingerprint mismatch" `Quick test_fingerprint_mismatch;
      Alcotest.test_case "stale tmp debris" `Quick test_stale_tmp_debris;
      Alcotest.test_case "kill and resume" `Slow test_campaign_journal_resume;
      Alcotest.test_case "stale journal rejected" `Slow test_campaign_rejects_stale_journal;
      Alcotest.test_case "shard merge = direct" `Slow test_shard_merge_equals_direct;
      Alcotest.test_case "sharded parallel engine" `Slow test_sharded_parallel_engine;
      Alcotest.test_case "sequential journal merges like parallel" `Slow
        test_sequential_journal_merges_like_parallel;
      Alcotest.test_case "invalid shard rejected" `Quick test_invalid_shard_rejected;
      Alcotest.test_case "worker exception propagates" `Slow
        test_parallel_exception_propagates;
      Alcotest.test_case "unterminated last line dropped" `Quick
        test_unterminated_tail_dropped;
      Alcotest.test_case "unparsable last line dropped" `Quick
        test_unparsable_last_line_dropped;
      Alcotest.test_case "bad line before the last rejected" `Quick
        test_bad_line_before_last;
      Alcotest.test_case "empty file rejected" `Quick test_empty_file_rejected;
      Alcotest.test_case "failed rename raises" `Quick test_failed_rename_raises;
      Alcotest.test_case "create writes the header whole" `Quick test_create_is_whole;
      Alcotest.test_case "queue drops a torn tail like the journal" `Quick
        test_queue_drops_tail_like_journal ] )
