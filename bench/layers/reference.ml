(* Committed verdict references, one file per (workload, seed): for each
   of the first [rounds] rounds, one digest and one count per (program,
   model) group, as {!Workload.group}.  [layers.exe --write-ref]
   regenerates them. *)

module Json = Obs.Json

(* Rounds a reference covers: more than a run at --seconds 20 reaches
   on an idle host.  Later rounds are checked by the oracles alone. *)
let rounds = 10

(* Relative to the root of the repository, where the benchmark runs. *)
let dir = "bench/layers/ref"

let path ~workload ~seed = Filename.concat dir (Printf.sprintf "%s.seed%d.json" workload seed)

let group_json (g : Workload.group) =
  Json.Obj
    [ ("program", Json.Str g.program); ("model", Json.Str g.model); ("count", Json.Int g.count);
      ("digest", Json.Str g.digest) ]

let write ~workload ~seed (per_round : Workload.group list list) =
  let json =
    Json.Obj
      [ ("workload", Json.Str workload); ("seed", Json.Int seed);
        ("rounds", Json.List (List.map (fun gs -> Json.List (List.map group_json gs)) per_round))
      ]
  in
  Out_channel.with_open_text (path ~workload ~seed) (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let group_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  match
    (str "program", str "model", Option.bind (Json.member "count" j) Json.to_int, str "digest")
  with
  | Some program, Some model, Some count, Some digest ->
      Some { Workload.program; model; count; digest }
  | _ -> None

let all_some l = if List.mem None l then None else Some (List.map Option.get l)

(* The groups of every round the reference covers. *)
let read path =
  let malformed () = Error (path ^ ": malformed reference") in
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok j -> (
      match Option.bind (Json.member "rounds" j) Json.to_list with
      | None -> malformed ()
      | Some rounds -> (
          let round r = Option.bind (Json.to_list r) (fun gs -> all_some (List.map group_of_json gs)) in
          match all_some (List.map round rounds) with
          | Some per_round -> Ok (Array.of_list per_round)
          | None -> malformed ()))

(* Seeds that have a reference for [workload], ascending. *)
let seeds ~workload =
  let prefix = workload ^ ".seed" in
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun f ->
         if String.starts_with ~prefix f && Filename.check_suffix f ".json" then
           int_of_string_opt
             (String.sub f (String.length prefix)
                (String.length f - String.length prefix - String.length ".json"))
         else None)
  |> List.sort compare

(* Groups of [got] whose digest or count differs from the reference,
   or that the reference lacks; and reference groups [got] lacks. *)
let mismatches ~expected (got : Workload.group list) =
  let key (g : Workload.group) = (g.program, g.model) in
  let missing = List.filter (fun e -> not (List.exists (fun g -> key g = key e) got)) expected in
  List.filter (fun g -> not (List.mem g expected)) got @ missing
