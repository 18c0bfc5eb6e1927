(* layers.exe — one yardstick for the campaign stack: four workloads,
   end-to-end metrics measured untraced, per-layer metrics from a
   separate traced run.

     dune exec bench/layers/layers.exe -- [--workload W]... [--seed N]
       [--seconds S] [--trace 0|1] [--out DIR] [--write-ref]
     dune exec bench/layers/layers.exe -- --smoke BENCHMARK.json

   Workloads run one after another.  Each round is a campaign in a
   child process of its own, so its memory high-water mark is its own
   and every round starts cold, as a campaign run from the command
   line does; one process runs at a time, on one domain.  With
   --trace 0 rounds 0, 1, 2, ... run until --seconds have passed and
   the end-to-end metrics are medians over them.  With --trace 1 the
   probes run first, then round 0 alternates untraced and traced until
   --seconds have passed, and the per-layer metrics are medians over
   the traced repeats.

   The output is one "name value unit" line per metric, one JSON line
   per workload, and a last JSON line with the keys correct, attempted,
   failed and metrics.  The exit code is 1 when any verdict disagrees
   with its oracle: the committed reference for the seed, an identical
   repeat, the dense reference engine or a lone ISS run. *)

module Json = Obs.Json

type mode = Parent | Round of { round : int; traced : bool } | Probes

type opts = {
  workloads : Workload.t list;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  write_ref : bool;
  smoke : string option;
  mode : mode;
}

let usage =
  "usage: layers.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
   [--write-ref]\n       layers.exe --smoke BENCHMARK.json\nworkloads: "
  ^ String.concat ", " Workload.names

let parse_args () =
  let workloads = ref [] and seed = ref 7 and seconds = ref 20. and trace = ref false in
  let out = ref ".bench_layers" in
  let write_ref = ref false and smoke = ref None in
  let round = ref None and traced = ref false and probes = ref false in
  let bad fmt = Printf.ksprintf (fun m -> raise (Arg.Bad m)) fmt in
  let spec =
    [ ( "--workload",
        Arg.String
          (fun w ->
            match Workload.find w with
            | Some w -> workloads := w :: !workloads
            | None -> bad "unknown workload %S" w),
        "W  run workload W (repeatable; default: all four)" );
      ( "--seed",
        Arg.Int (fun n -> if n < 0 then bad "--seed must be >= 0" else seed := n),
        "N  seed of every round's inputs (default 7)" );
      ( "--seconds",
        Arg.Float (fun s -> if s < 0. then bad "--seconds must be >= 0" else seconds := s),
        "S  measuring time per workload (default 20)" );
      ( "--trace",
        Arg.String
          (function
          | "0" -> trace := false
          | "1" -> trace := true
          | s -> bad "--trace takes 0 or 1, not %S" s),
        "0|1  1: traced run reporting the per-layer metrics" );
      ("--out", Arg.Set_string out, "DIR  journals and traces (default .bench_layers)");
      ("--write-ref", Arg.Set write_ref, " regenerate the verdict references for --seed");
      ( "--smoke",
        Arg.String (fun p -> smoke := Some p),
        "BENCHMARK.json  tiny in-process self-check of every declared metric" );
      ("--round", Arg.Int (fun k -> round := Some k), "K  internal: run round K in this process");
      ("--traced", Arg.Set traced, " internal: trace the round");
      ("--probes", Arg.Set probes, " internal: run the unit-cost probes in this process") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a))) usage;
  { workloads = (if !workloads = [] then Workload.all else List.rev !workloads);
    seed = !seed; seconds = !seconds; trace = !trace; out = !out;
    write_ref = !write_ref; smoke = !smoke;
    mode =
      (match (!round, !probes) with
      | Some round, _ -> Round { round; traced = !traced }
      | None, true -> Probes
      | None, false -> Parent) }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let median = Layer.median

let journal_dir o (w : Workload.t) = Filename.concat o.out w.name

let trace_path o (w : Workload.t) =
  Filename.concat o.out (Printf.sprintf "%s.seed%d.trace.jsonl" w.name o.seed)

let is_gate (w : Workload.t) =
  match w.kind with
  | Workload.Rtl_permanent { gate } -> gate
  | Workload.Transient | Workload.Iss_journal -> false

(* ---- JSON between a round's process and the parent ---- *)

let metrics_json ?(prefix = "") ms =
  Json.Obj
    (List.map
       (fun (m : Layer.metric) ->
         (prefix ^ m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit) ]))
       ms)

let number = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

let metrics_of_json = function
  | Json.Obj fields ->
      List.map
        (fun (name, m) ->
          match (Option.bind (Json.member "value" m) number, Json.member "unit" m) with
          | Some value, Some (Json.Str unit) -> { Layer.name; unit; value }
          | _ -> failwith ("malformed metric " ^ name))
        fields
  | _ -> failwith "malformed metrics"

let round_json (r : Workload.round) layers =
  Json.Obj
    [ ("campaign_s", Json.Float r.campaign_s); ("setup_s", Json.Float r.setup_s);
      ("wall_s", Json.Float r.wall_s); ("injections", Json.Int r.injections);
      ("peak_rss_mb", Json.Float r.peak_rss_mb); ("checked", Json.Int r.checked);
      ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
      ("groups", Json.List (List.map Reference.group_json r.groups));
      ("layers", metrics_json layers) ]

let round_of_json j =
  let field k f = match Option.bind (Json.member k j) f with Some v -> v | None -> failwith k in
  let strings l = List.filter_map Json.to_str l in
  let groups l = List.filter_map Reference.group_of_json l in
  ( { Workload.campaign_s = field "campaign_s" number; setup_s = field "setup_s" number;
      wall_s = field "wall_s" number; injections = field "injections" Json.to_int;
      peak_rss_mb = field "peak_rss_mb" number; checked = field "checked" Json.to_int;
      problems = strings (field "problems" Json.to_list);
      groups = groups (field "groups" Json.to_list) },
    metrics_of_json (field "layers" Option.some) )

let last_line s =
  List.fold_left (fun acc l -> if l = "" then acc else Some l) None (String.split_on_char '\n' s)

(* Run this program on [w] with [args] and parse the JSON its last
   line holds; a child that fails ends the run. *)
let child o (w : Workload.t) args =
  let exe = Sys.executable_name in
  let argv =
    [ exe; "--workload"; w.name; "--seed"; string_of_int o.seed; "--out"; o.out ] @ args
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list argv) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let output = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, Option.map Json.of_string (last_line output)) with
  | Unix.WEXITED 0, Some (Ok j) -> j
  | _ ->
      Printf.eprintf "%s: %s failed\n%!" w.name (String.concat " " (List.tl argv));
      exit 1

let run_round o w ~round ~traced =
  round_of_json
    (child o w ([ "--round"; string_of_int round ] @ if traced then [ "--traced" ] else []))

(* ---- a workload's result ---- *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  mismatched : int;  (** injections in groups whose digest differs from the reference *)
  metrics : Layer.metric list;
  rounds : int;
  wall_s : float;  (** median raw wall seconds of a round's campaign *)
  reference : string;
  checked : int;
  problems : string list;
}

let end_to_end (rs : Workload.round list) =
  let med f = median (List.map f rs) in
  [ { Layer.name = "campaign_s"; unit = "s"; value = med (fun r -> r.campaign_s) };
    { name = "setup_s"; unit = "s"; value = med (fun r -> r.setup_s) };
    { name = "inj_per_s"; unit = "inj/s";
      value = med (fun r -> Layer.ratio (float_of_int r.injections) (r.campaign_s -. r.setup_s)) };
    { name = "peak_rss_mb"; unit = "MB"; value = med (fun r -> r.peak_rss_mb) } ]

(* Per-layer metrics: the median of each over the traced repeats, the
   tracing overhead against the untraced ones, and the probes.  Work
   counters must come out identical in every repeat. *)
let per_layer ~untraced ~traced ~probes =
  let per_repeat = List.map snd traced in
  let first = List.hd per_repeat in
  let values i = List.map (fun ms -> (List.nth ms i).Layer.value) per_repeat in
  let exact (m : Layer.metric) = List.mem m.unit [ "count"; "bytes"; "lanes" ] in
  let layers = List.mapi (fun i (m : Layer.metric) -> { m with value = median (values i) }) first in
  let unstable =
    List.concat
      (List.mapi
         (fun i (m : Layer.metric) ->
           if exact m && List.exists (fun v -> v <> m.value) (values i) then
             [ Printf.sprintf "work counter %s differs between identical rounds" m.name ]
           else [])
         first)
  in
  let campaign rs = median (List.map (fun ((r : Workload.round), _) -> r.campaign_s) rs) in
  ( layers
    @ [ { Layer.name = "trace.overhead_frac"; unit = "ratio";
          value = Layer.ratio (campaign traced) (campaign untraced) -. 1. } ]
    @ probes,
    unstable )

(* The committed reference for the run's seed: a label and the groups
   of every round it covers. *)
let reference o (w : Workload.t) =
  let seeds = Reference.seeds ~workload:w.name in
  if o.write_ref then ("written", [||])
  else if List.mem o.seed seeds then
    match Reference.read (Reference.path ~workload:w.name ~seed:o.seed) with
    | Ok per_round -> (Printf.sprintf "seed%d" o.seed, per_round)
    | Error m -> failwith m
  else begin
    Printf.eprintf
      "%s: no verdict reference for seed %d (references: %s); checking with the oracles only\n%!"
      w.name o.seed
      (if seeds = [] then "none" else String.concat ", " (List.map string_of_int seeds));
    ("none", [||])
  end

(* Checks every run makes: the problems rounds report, the reference
   for each round it covers, and, when [repeats] (every round is round
   0), that the repeats agree with the first. *)
let result (w : Workload.t) ~reference:(label, expected) ~metrics ~repeats ~extra_problems
    (rs : Workload.round list) =
  let first = (List.hd rs).groups in
  let mismatches =
    List.concat
      (List.mapi
         (fun k (r : Workload.round) ->
           let k = if repeats then 0 else k in
           if k < Array.length expected then Reference.mismatches ~expected:expected.(k) r.groups
           else if repeats then Reference.mismatches ~expected:first r.groups
           else [])
         rs)
  in
  let other = extra_problems @ List.concat_map (fun (r : Workload.round) -> r.problems) rs in
  let mismatched = List.fold_left (fun a (g : Workload.group) -> a + max 1 g.count) 0 mismatches in
  let checked = List.fold_left (fun a (r : Workload.round) -> a + r.checked) 0 rs in
  let failed = mismatched + List.length other in
  { workload = w.name; correct = failed = 0;
    attempted = List.fold_left (fun a (r : Workload.round) -> a + r.injections) 0 rs + checked;
    failed; mismatched; metrics; rounds = List.length rs;
    wall_s = median (List.map (fun (r : Workload.round) -> r.wall_s) rs); reference = label;
    checked;
    problems =
      other
      @ List.map
          (fun (g : Workload.group) ->
            Printf.sprintf "%s/%s: verdict digest %s differs from %s" g.program g.model g.digest
              (if label = "none" then "the first repeat" else "the reference"))
          mismatches }

(* Rounds until [seconds] have passed, at least [min_rounds]: a round
   starts only when a typical round still fits.  [limit] caps the
   count. *)
let timed_loop ~seconds ~min_rounds ?(limit = max_int) f =
  let t0 = Unix.gettimeofday () in
  let rec go k acc durations =
    let elapsed = Unix.gettimeofday () -. t0 in
    if k >= limit || (k >= min_rounds && elapsed +. median durations > seconds) then List.rev acc
    else begin
      let t = Unix.gettimeofday () in
      let r = f k in
      go (k + 1) (r :: acc) ((Unix.gettimeofday () -. t) :: durations)
    end
  in
  go 0 [] []

let measure_end_to_end o w =
  let rounds =
    if o.write_ref then
      timed_loop ~seconds:infinity ~min_rounds:0 ~limit:Reference.rounds (fun round ->
          run_round o w ~round ~traced:false)
    else timed_loop ~seconds:o.seconds ~min_rounds:3 (fun round -> run_round o w ~round ~traced:false)
  in
  let rs = List.map fst rounds in
  if o.write_ref then begin
    mkdir_p Reference.dir;
    Reference.write ~workload:w.Workload.name ~seed:o.seed
      (List.map (fun (r : Workload.round) -> r.groups) rs)
  end;
  result w ~reference:(reference o w) ~metrics:(end_to_end rs) ~repeats:false ~extra_problems:[]
    rs

let measure_per_layer o w =
  let t0 = Unix.gettimeofday () in
  let probes = metrics_of_json (child o w [ "--probes" ]) in
  let pairs =
    timed_loop ~seconds:(o.seconds -. (Unix.gettimeofday () -. t0)) ~min_rounds:1 (fun _ ->
        (run_round o w ~round:0 ~traced:false, run_round o w ~round:0 ~traced:true))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let metrics, unstable = per_layer ~untraced ~traced ~probes in
  result w ~reference:(reference o w) ~metrics ~repeats:true ~extra_problems:unstable
    (List.map fst (untraced @ traced))

(* ---- output ---- *)

let mismatch_frac r = Layer.ratio (float_of_int r.mismatched) (float_of_int r.attempted)

let result_json o r =
  Json.Obj
    [ ("workload", Json.Str r.workload); ("seed", Json.Int o.seed);
      ("trace", Json.Bool o.trace); ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted); ("failed", Json.Int r.failed);
      ("verdict_mismatch_frac", Json.Float (mismatch_frac r)); ("rounds", Json.Int r.rounds);
      ("campaign_wall_s", Json.Float r.wall_s); ("reference", Json.Str r.reference);
      ("checked", Json.Int r.checked);
      ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
      ("metrics", metrics_json r.metrics) ]

(* The last line: the keys correct, attempted, failed and metrics.  With
   several workloads the metric names carry a "<workload>." prefix. *)
let summary_json results =
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        match metrics_json ~prefix:(if single then "" else r.workload ^ ".") r.metrics with
        | Json.Obj fields -> fields
        | _ -> [])
      results
  in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all (fun r -> r.correct) results));
      ("attempted", Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 results));
      ("failed", Json.Int (List.fold_left (fun a r -> a + r.failed) 0 results));
      ("metrics", Json.Obj metrics) ]

let print_result o r =
  Printf.printf
    "# %s seed %d: %d rounds, %d verdicts (%d re-derived by an oracle), reference %s, \
     median campaign %.3f s wall, %s\n"
    r.workload o.seed r.rounds r.attempted r.checked r.reference r.wall_s
    (if r.correct then "correct" else "INCORRECT");
  List.iter (fun p -> Printf.eprintf "%s: %s\n" r.workload p) r.problems;
  List.iter (fun (m : Layer.metric) -> Printf.printf "%s %.9g %s\n" m.name m.value m.unit) r.metrics;
  Printf.printf "verdict_mismatch_frac %.9g ratio\n" (mismatch_frac r);
  print_endline (Json.to_string (result_json o r))

(* ---- modes ---- *)

let main_parent o =
  List.iter (fun w -> mkdir_p (journal_dir o w)) o.workloads;
  let results =
    List.map (fun w -> if o.trace then measure_per_layer o w else measure_end_to_end o w) o.workloads
  in
  List.iter (print_result o) results;
  print_endline (Json.to_string (summary_json results));
  if not (List.for_all (fun r -> r.correct) results) then exit 1

let main_round o w ~round ~traced =
  Speed.start ();
  let obs, close =
    if traced then
      let sink, close = Obs.file_sink (trace_path o w) in
      (Obs.create ~sink (), close)
    else (Obs.null, ignore)
  in
  let r =
    Fun.protect ~finally:close (fun () ->
        let r =
          Workload.run w ~obs ~dir:(journal_dir o w) ~seed:o.seed ~round w.Workload.full
        in
        Obs.flush obs;
        r)
  in
  print_endline
    (Json.to_string (round_json r (if traced then Layer.of_round obs r else [])))

let main_probes o w =
  Speed.start ();
  print_endline
    (Json.to_string
       (metrics_json (Layer.probes ~gate:(is_gate w) ~dir:(journal_dir o w) Layer.full_probes)))

(* ---- smoke: tiny sizes, in process, checks the metric contract ---- *)

let valid_name n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let declared j key =
  List.map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "unit" m) Json.to_str )
      with
      | Some n, Some u -> (n, u)
      | _ -> failwith (Printf.sprintf "malformed %s entry" key))
    (Option.value (Option.bind (Json.member key j) Json.to_list) ~default:[])

(* Each workload at its smoke size: round 0 of seed 7 untraced and
   traced (their verdicts must agree), both passed through the JSON a
   round's process prints, and every metric BENCHMARK.json declares
   checked for its name, its unit and a finite value.  The probes run
   once, on the behavioural netlist: they emit the same metrics for
   every workload, and on the gate-level one they alone would take
   most of the smoke's time. *)
let main_smoke o path =
  Speed.start ();
  let j =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith (path ^ ": " ^ m)
  in
  let e2e = declared j "end_to_end" and layers = declared j "per_layer" in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter (fun (n, _) -> if not (valid_name n) then error "metric name %S" n) (e2e @ layers);
  if e2e = [] || layers = [] then error "%s declares no metrics" path;
  let o = { o with seed = 7 } and none = ("none", [||]) in
  mkdir_p o.out;
  let probes = Layer.probes ~gate:false ~dir:o.out Layer.smoke_probes in
  List.iter
    (fun (w : Workload.t) ->
      let dir = journal_dir o w in
      mkdir_p dir;
      let round traced =
        let obs = if traced then Obs.create () else Obs.null in
        let r = Workload.run w ~obs ~dir ~seed:o.seed ~round:0 w.smoke in
        round_of_json
          (Result.get_ok
             (Json.of_string
                (Json.to_string (round_json r (if traced then Layer.of_round obs r else [])))))
      in
      let untraced = round false and traced = round true in
      let layer_metrics, unstable = per_layer ~untraced:[ untraced ] ~traced:[ traced ] ~probes in
      let results =
        [ ( e2e,
            result w ~reference:none ~metrics:(end_to_end [ fst untraced ]) ~repeats:false
              ~extra_problems:[] [ fst untraced ] );
          ( layers,
            result w ~reference:none ~metrics:layer_metrics ~repeats:true
              ~extra_problems:unstable [ fst untraced; fst traced ] ) ]
      in
      List.iter
        (fun (want, r) ->
          if not r.correct then error "%s: %s" w.name (String.concat "; " r.problems);
          List.iter
            (fun (n, u) ->
              match List.find_opt (fun (m : Layer.metric) -> m.name = n) r.metrics with
              | None -> error "%s: metric %s not emitted" w.name n
              | Some m when m.unit <> u -> error "%s: metric %s in %s, declared %s" w.name n m.unit u
              | Some m when not (Float.is_finite m.value) -> error "%s: metric %s is %f" w.name n m.value
              | Some _ -> ())
            want;
          List.iter
            (fun line ->
              match Json.of_string line with
              | Ok _ -> ()
              | Error m -> error "%s: output does not parse: %s" w.name m)
            [ Json.to_string (result_json o r); Json.to_string (summary_json [ r ]) ])
        results;
      Printf.printf "smoke %s ok\n%!" w.name)
    o.workloads;
  match !errors with
  | [] -> print_endline "smoke: every declared metric emitted with its unit"
  | es ->
      List.iter prerr_endline (List.rev es);
      exit 1

let () =
  let o = parse_args () in
  match (o.smoke, o.mode, o.workloads) with
  | Some path, _, _ -> main_smoke { o with out = Filename.concat o.out "smoke" } path
  | None, Parent, _ -> main_parent o
  | None, Round { round; traced }, [ w ] -> main_round o w ~round ~traced
  | None, Probes, [ w ] -> main_probes o w
  | None, (Round _ | Probes), _ ->
      prerr_endline "--round and --probes take exactly one --workload";
      exit 2
