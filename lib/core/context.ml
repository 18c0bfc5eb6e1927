module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection
module Iss_campaign = Fault_injection.Iss_campaign

type t = {
  sys : Leon3.System.t;
  samples_ : int;
  seed : int;
  gate_ : bool;
  obs_ : Obs.t;
  campaigns :
    (Sparc.Asm.program * Injection.target * Rtl.Circuit.fault_model, Campaign.summary)
    Hashtbl.t;
  iss_campaigns :
    (Sparc.Asm.program, (Iss_campaign.model * Campaign.summary) list) Hashtbl.t;
}

let parse_samples s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | Some n -> Error (Printf.sprintf "sample size must be positive (got %d)" n)
  | None -> Error (Printf.sprintf "sample size must be positive (got %S)" s)

let default_samples () =
  match Sys.getenv_opt "RICV_SAMPLES" with
  | None -> Ok 250
  | Some s -> Result.map_error (fun m -> "RICV_SAMPLES: " ^ m) (parse_samples s)

let parse_gate = function "0" | "false" | "no" | "off" -> false | _ -> true

let default_gate () = Option.fold ~none:false ~some:parse_gate (Sys.getenv_opt "RICV_GATE")

let create ~samples ?(seed = 7) ~gate ?obs () =
  if samples <= 0 then
    invalid_arg
      (Printf.sprintf "Context.create: sample size must be positive (got %d)" samples);
  let params =
    { Leon3.Core.default_params with Leon3.Core.gate_level = gate }
  in
  let obs_ = match obs with Some o -> o | None -> Obs.create () in
  { sys = Leon3.System.create ~params ();
    samples_ = samples;
    seed;
    gate_ = gate;
    obs_;
    campaigns = Hashtbl.create 64;
    iss_campaigns = Hashtbl.create 64 }

let samples t = t.samples_

let gate t = t.gate_

let obs t = t.obs_

let system t = t.sys

let core t = Leon3.System.core t.sys

let clock_mhz = 50

let us_of_cycles cycles = float_of_int cycles /. float_of_int clock_mhz

let campaign t ?(models = Campaign.default_config.Campaign.models) prog target =
  let key model = (prog, target, model) in
  (match List.filter (fun m -> not (Hashtbl.mem t.campaigns (key m))) models with
  | [] -> ()
  | missing ->
      let config =
        { Campaign.default_config with
          Campaign.models = missing;
          sample_size = Some t.samples_;
          seed = t.seed }
      in
      let summaries, _ = Campaign.run ~config ~obs:t.obs_ t.sys prog target in
      List.iter (fun (m, s) -> Hashtbl.replace t.campaigns (key m) s) summaries);
  List.map (fun m -> (m, Hashtbl.find t.campaigns (key m))) models

let iss_campaign t prog =
  match Hashtbl.find_opt t.iss_campaigns prog with
  | Some r -> r
  | None ->
      let config =
        { Iss_campaign.default_config with
          Iss_campaign.samples_per_model = t.samples_;
          seed = t.seed }
      in
      let summaries, _ = Iss_campaign.run ~config ~obs:t.obs_ prog in
      Hashtbl.add t.iss_campaigns prog summaries;
      summaries
