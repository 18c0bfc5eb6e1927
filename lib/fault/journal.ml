(* Persistent campaign journal: one JSONL record per classified fault
   site, preceded by a header that fingerprints the campaign (workload,
   code hash, sampled netlist, config flags, shard).  A killed campaign
   restarted with the same arguments replays journaled verdicts instead
   of re-simulating them; disjoint shard journals of one campaign merge
   into the summary the unsharded run would have produced. *)

module C = Rtl.Circuit
module Json = Obs.Json

exception Rejected of string

(* The verdict vocabulary lives here (not in Campaign) so the journal
   can serialise it without a dependency cycle; Campaign re-exports
   these types under their historical names. *)

type failure_kind = Wrong_write of int | Missing_writes of int | Trap of int | Hang

type outcome = Silent | Failure of failure_kind

type sim_status =
  | Simulated
  | Prefiltered
  | Converged of int
  | Pruned
  | Collapsed of string

type run_result = {
  site_name : string;
  model : C.fault_model;
  outcome : outcome;
  detect_cycle : int option;
  inject_cycle : int;
  sim : sim_status;
}

let model_of_name = function
  | "stuck-at-0" -> Some C.Stuck_at_0
  | "stuck-at-1" -> Some C.Stuck_at_1
  | "open-line" -> Some C.Open_line
  | "bit-flip" -> Some C.Bit_flip
  | _ -> None

(* ---- hashing (FNV-1a, 32-bit, masked positive) ---- *)

let fnv_prime = 0x01000193

let fnv_mask = 0xFFFFFFFF

let fnv_seed = 0x811c9dc5

let fnv_byte h b = (h lxor b) * fnv_prime land fnv_mask

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  (* a terminator so ["ab";"c"] and ["a";"bc"] hash differently *)
  fnv_byte !h 0xFF

let fnv_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := fnv_byte !h ((i lsr (shift * 8)) land 0xFF)
  done;
  !h

let hash_program (p : Sparc.Asm.program) =
  let h = ref (fnv_string fnv_seed p.Sparc.Asm.name) in
  h := fnv_int !h p.Sparc.Asm.text_base;
  h := fnv_int !h p.Sparc.Asm.entry;
  Array.iter (fun w -> h := fnv_int !h w) p.Sparc.Asm.code;
  List.iter
    (fun (base, words) ->
      h := fnv_int !h base;
      Array.iter (fun w -> h := fnv_int !h w) words)
    p.Sparc.Asm.data;
  !h

let hash_names names =
  let h = ref fnv_seed in
  Array.iter (fun s -> h := fnv_string !h s) names;
  !h

(* ---- fingerprint ---- *)

let version = 1

type fingerprint = {
  workload : string;
  prog_hash : int;
  netlist_hash : int;
  target : string;
  models : string list;
  sample_size : int option;
  include_cells : bool;
  inject_cycle : int;
  hang_factor : int;
  compare_reads : bool;
  seed : int;
  total_sites : int;
  shard : int * int;  (* 1-based index, shard count *)
}

(* First differing field between two fingerprints, for reject
   messages; [None] when they describe the same campaign partition. *)
let mismatch a b =
  let fields =
    [ ("workload", a.workload = b.workload);
      ("program hash", a.prog_hash = b.prog_hash);
      ("netlist hash", a.netlist_hash = b.netlist_hash);
      ("target", a.target = b.target);
      ("models", a.models = b.models);
      ("sample size", a.sample_size = b.sample_size);
      ("include_cells", a.include_cells = b.include_cells);
      ("inject cycle", a.inject_cycle = b.inject_cycle);
      ("hang factor", a.hang_factor = b.hang_factor);
      ("compare_reads", a.compare_reads = b.compare_reads);
      ("seed", a.seed = b.seed);
      ("total sites", a.total_sites = b.total_sites) ]
  in
  List.find_opt (fun (_, eq) -> not eq) fields |> Option.map fst

let base_mismatch = mismatch

let full_mismatch a b =
  match mismatch a b with
  | Some f -> Some f
  | None -> if a.shard = b.shard then None else Some "shard"

let fingerprint_to_json fp =
  Json.Obj
    [ ("type", Json.Str "header");
      ("version", Json.Int version);
      ("workload", Json.Str fp.workload);
      ("prog_hash", Json.Int fp.prog_hash);
      ("netlist_hash", Json.Int fp.netlist_hash);
      ("target", Json.Str fp.target);
      ("models", Json.List (List.map (fun m -> Json.Str m) fp.models));
      ( "sample_size",
        match fp.sample_size with Some n -> Json.Int n | None -> Json.Null );
      ("include_cells", Json.Bool fp.include_cells);
      ("inject_cycle", Json.Int fp.inject_cycle);
      ("hang_factor", Json.Int fp.hang_factor);
      ("compare_reads", Json.Bool fp.compare_reads);
      ("seed", Json.Int fp.seed);
      ("total_sites", Json.Int fp.total_sites);
      ("shard_index", Json.Int (fst fp.shard));
      ("shard_count", Json.Int (snd fp.shard)) ]

(* Field accessors that thread a parse error instead of raising. *)
let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let ( let* ) = Result.bind

let fingerprint_of_json j =
  let* v = field "version" Json.to_int j in
  if v <> version then Error (Printf.sprintf "unsupported journal version %d" v)
  else
    let* workload = field "workload" Json.to_str j in
    let* prog_hash = field "prog_hash" Json.to_int j in
    let* netlist_hash = field "netlist_hash" Json.to_int j in
    let* target = field "target" Json.to_str j in
    let* models =
      field "models"
        (fun v ->
          Option.bind (Json.to_list v) (fun xs ->
              let names = List.filter_map Json.to_str xs in
              if List.length names = List.length xs then Some names else None))
        j
    in
    let* sample_size =
      match Json.member "sample_size" j with
      | Some Json.Null -> Ok None
      | Some (Json.Int n) -> Ok (Some n)
      | Some _ | None -> Error "missing or malformed field \"sample_size\""
    in
    let* include_cells = field "include_cells" Json.to_bool j in
    let* inject_cycle = field "inject_cycle" Json.to_int j in
    let* hang_factor = field "hang_factor" Json.to_int j in
    let* compare_reads = field "compare_reads" Json.to_bool j in
    let* seed = field "seed" Json.to_int j in
    let* total_sites = field "total_sites" Json.to_int j in
    let* si = field "shard_index" Json.to_int j in
    let* sn = field "shard_count" Json.to_int j in
    if sn < 1 || si < 1 || si > sn then
      Error (Printf.sprintf "bad shard %d/%d in header" si sn)
    else
      Ok
        { workload; prog_hash; netlist_hash; target; models; sample_size;
          include_cells; inject_cycle; hang_factor; compare_reads; seed;
          total_sites; shard = (si, sn) }

(* ---- verdict records ---- *)

type entry = { index : int; result : run_result }

let result_to_json ~index r =
  let outcome_fields =
    match r.outcome with
    | Silent -> [ ("outcome", Json.Str "silent") ]
    | Failure (Wrong_write n) ->
        [ ("outcome", Json.Str "wrong-write"); ("arg", Json.Int n) ]
    | Failure (Missing_writes n) ->
        [ ("outcome", Json.Str "missing-writes"); ("arg", Json.Int n) ]
    | Failure (Trap n) -> [ ("outcome", Json.Str "trap"); ("arg", Json.Int n) ]
    | Failure Hang -> [ ("outcome", Json.Str "hang") ]
  in
  let sim_fields =
    match r.sim with
    | Simulated -> [ ("sim", Json.Str "simulated") ]
    | Prefiltered -> [ ("sim", Json.Str "prefiltered") ]
    | Converged c -> [ ("sim", Json.Str "converged"); ("sim_arg", Json.Int c) ]
    | Pruned -> [ ("sim", Json.Str "pruned") ]
    | Collapsed s -> [ ("sim", Json.Str "collapsed"); ("sim_arg", Json.Str s) ]
  in
  Json.Obj
    ([ ("type", Json.Str "verdict");
       ("i", Json.Int index);
       ("site", Json.Str r.site_name);
       ("model", Json.Str (C.fault_model_name r.model)) ]
    @ outcome_fields
    @ [ ( "detect",
          match r.detect_cycle with Some c -> Json.Int c | None -> Json.Null );
        ("inject", Json.Int r.inject_cycle) ]
    @ sim_fields)

let entry_of_json j =
  let* index = field "i" Json.to_int j in
  let* site_name = field "site" Json.to_str j in
  let* model_name = field "model" Json.to_str j in
  let* model =
    match model_of_name model_name with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown fault model %S" model_name)
  in
  let arg what =
    match field "arg" Json.to_int j with
    | Ok n -> Ok n
    | Error _ -> Error (Printf.sprintf "outcome %S needs an \"arg\" field" what)
  in
  let* outcome =
    let* o = field "outcome" Json.to_str j in
    match o with
    | "silent" -> Ok Silent
    | "wrong-write" ->
        let* n = arg o in
        Ok (Failure (Wrong_write n))
    | "missing-writes" ->
        let* n = arg o in
        Ok (Failure (Missing_writes n))
    | "trap" ->
        let* n = arg o in
        Ok (Failure (Trap n))
    | "hang" -> Ok (Failure Hang)
    | o -> Error (Printf.sprintf "unknown outcome %S" o)
  in
  let* detect_cycle =
    match Json.member "detect" j with
    | Some Json.Null -> Ok None
    | Some (Json.Int c) -> Ok (Some c)
    | Some _ | None -> Error "missing or malformed field \"detect\""
  in
  let* inject_cycle = field "inject" Json.to_int j in
  let* sim =
    let* s = field "sim" Json.to_str j in
    match s with
    | "simulated" -> Ok Simulated
    | "prefiltered" -> Ok Prefiltered
    | "converged" ->
        let* c = field "sim_arg" Json.to_int j in
        Ok (Converged c)
    | "pruned" -> Ok Pruned
    | "collapsed" ->
        let* l = field "sim_arg" Json.to_str j in
        Ok (Collapsed l)
    | s -> Error (Printf.sprintf "unknown sim status %S" s)
  in
  Ok { index; result = { site_name; model; outcome; detect_cycle; inject_cycle; sim } }

(* ---- writer ---- *)

(* Verdicts are cheap relative to the simulations that produce them,
   so the writer fsyncs every 64 appends (and at close): a crash loses
   at most one batch of already-finished work. *)
type writer = Durable.appender

let verdict_line ~index r = Json.to_string (result_to_json ~index r)

(* The header and [entries] go down whole through [Durable.start]: a
   kill leaves the old journal or the new one, never an empty file. *)
let start path fp entries =
  Durable.start ~sync_every:64 path
    (Json.to_string (fingerprint_to_json fp)
    :: List.map (fun e -> verdict_line ~index:e.index e.result) entries)

let create path fp = start path fp []

let append w ~index result = Durable.append w (verdict_line ~index result)

let close = Durable.close

(* ---- reader ---- *)

let load path =
  Durable.load path
    ~header:(fun line -> Result.bind (Json.of_string line) fingerprint_of_json)
    ~record:(fun line ->
      let* j = Json.of_string line in
      let* t = field "type" Json.to_str j in
      if t <> "verdict" then Error (Printf.sprintf "unexpected record type %S" t)
      else entry_of_json j)

(* ---- resume ---- *)

(* Reopening for append after a crash must not leave a torn line in the
   middle of the file, so resume rewrites the journal from its parsed
   contents (header + complete entries) and appends to the rewrite. *)
let open_resume path fp =
  if not (Sys.file_exists path) then Ok (create path fp, [])
  else
    let* existing, entries = load path in
    match full_mismatch existing fp with
    | Some f ->
        Error
          (Printf.sprintf
             "%s: stale journal: %s differs from this campaign (was workload %S, \
              shard %d/%d)"
             path f existing.workload (fst existing.shard) (snd existing.shard))
    | None -> Ok (start path fp entries, entries)

(* ---- merge ---- *)

(* Validate that the journals are shards of one campaign — identical
   base fingerprints, shard specs exactly covering 1..N, every
   (model, site) verdict present exactly once — and return the
   verdicts in the unsharded engine's order (model-major, then site
   index), so summaries computed from them are byte-identical to a
   direct run's. *)
let merge journals =
  match journals with
  | [] -> Error "no journals to merge"
  | (fp0, _) :: _ -> (
      let* () =
        List.fold_left
          (fun acc (fp, _) ->
            let* () = acc in
            match base_mismatch fp0 fp with
            | Some f -> Error (Printf.sprintf "fingerprint mismatch between journals: %s" f)
            | None -> Ok ())
          (Ok ()) journals
      in
      let n = snd fp0.shard in
      let* () =
        if List.exists (fun (fp, _) -> snd fp.shard <> n) journals then
          Error "journals use different shard counts"
        else Ok ()
      in
      let indices = List.sort compare (List.map (fun (fp, _) -> fst fp.shard) journals) in
      let* () =
        if indices <> List.init n (fun i -> i + 1) then
          Error
            (Printf.sprintf "shards [%s] do not cover 1..%d exactly once"
               (String.concat ";" (List.map string_of_int indices))
               n)
        else Ok ()
      in
      let nmodels = List.length fp0.models in
      let model_pos =
        let tbl = Hashtbl.create 8 in
        List.iteri (fun i m -> Hashtbl.replace tbl m i) fp0.models;
        fun name -> Hashtbl.find_opt tbl name
      in
      let slots = Array.make (nmodels * fp0.total_sites) None in
      let place (fp, entries) =
        List.fold_left
          (fun acc e ->
            let* () = acc in
            let* mi =
              match model_pos (C.fault_model_name e.result.model) with
              | Some mi -> Ok mi
              | None ->
                  Error
                    (Printf.sprintf "shard %d/%d: model %s not in the campaign's list"
                       (fst fp.shard) n
                       (C.fault_model_name e.result.model))
            in
            if e.index < 0 || e.index >= fp0.total_sites then
              Error
                (Printf.sprintf "shard %d/%d: site index %d out of range [0,%d)"
                   (fst fp.shard) n e.index fp0.total_sites)
            else
              let k = (mi * fp0.total_sites) + e.index in
              match slots.(k) with
              | Some _ ->
                  Error
                    (Printf.sprintf "duplicate verdict for site %d, model %s" e.index
                       (C.fault_model_name e.result.model))
              | None ->
                  slots.(k) <- Some e.result;
                  Ok ())
          (Ok ()) entries
      in
      let* () =
        List.fold_left (fun acc j -> let* () = acc in place j) (Ok ()) journals
      in
      let missing = ref None in
      Array.iteri
        (fun k slot ->
          if slot = None && !missing = None then
            missing :=
              Some
                (Printf.sprintf "missing verdict for site %d, model %s"
                   (k mod fp0.total_sites)
                   (List.nth fp0.models (k / fp0.total_sites))))
        slots;
      match !missing with
      | Some msg -> Error msg
      | None ->
          Ok
            ( { fp0 with shard = (1, 1) },
              Array.to_list (Array.map Option.get slots) ))
