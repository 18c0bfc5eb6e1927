module Emulator = Iss.Emulator
module Bus_event = Sparc.Bus_event
module Asm = Sparc.Asm
module C = Rtl.Circuit

type failure_kind = Journal.failure_kind =
  | Wrong_write of int
  | Missing_writes of int
  | Trap of int
  | Hang

type outcome = Journal.outcome = Silent | Failure of failure_kind

type run_result = Journal.run_result = {
  site_name : string;
  model : C.fault_model;
  outcome : outcome;
  detect_cycle : int option;
  inject_cycle : int;
  sim : Journal.sim_status;
}

type model = Reg_flip | Mem_flip | Op_flip

let all_models = [ Reg_flip; Mem_flip; Op_flip ]

let model_name = function
  | Reg_flip -> "reg-flip"
  | Mem_flip -> "mem-flip"
  | Op_flip -> "op-flip"

let model_of_name = function
  | "reg-flip" -> Some Reg_flip
  | "mem-flip" -> Some Mem_flip
  | "op-flip" -> Some Op_flip
  | _ -> None

type site = {
  smodel : model;
  index : int;  (* dynamic instruction index of the injection *)
  loc : int;  (* register-file slot / memory word address / unused *)
  bit : int;
  site_name : string;
}

(* The site name carries the ISS model class: the journal layer only
   knows RTL fault models (every ISS verdict is recorded as a
   bit-flip), so the name prefix is what partitions a journal's
   verdicts back into reg/mem/op summaries. *)
let site_name_of ~model ~index ~loc ~bit =
  match model with
  | Reg_flip -> Printf.sprintf "iss.reg[%d.%d]@%d" loc bit index
  | Mem_flip -> Printf.sprintf "iss.mem[0x%08x.%d]@%d" loc bit index
  | Op_flip -> Printf.sprintf "iss.op[%d]@%d" bit index

let model_of_site_name name =
  if String.starts_with ~prefix:"iss.reg[" name then Some Reg_flip
  else if String.starts_with ~prefix:"iss.mem[" name then Some Mem_flip
  else if String.starts_with ~prefix:"iss.op[" name then Some Op_flip
  else None

type config = {
  models : model list;
  samples_per_model : int;
  hang_factor : int;
  seed : int;
  shard : int * int;
}

let default_config =
  { models = all_models; samples_per_model = 400; hang_factor = 4; seed = 7;
    shard = (1, 1) }

let target_name = "iss"

(* Campaign runs need functional verdicts only: caches charge cycles
   without changing results, and read events are never compared, so
   both are off.  Latencies are therefore reported in {e instructions},
   not cycles. *)
let emulator_config =
  { Emulator.default_config with
    Emulator.icache = None;
    dcache = None;
    record_reads = false }

type golden = {
  writes : Bus_event.t array;
  instructions : int;
  exit_code : int;
}

let golden_run ?(obs = Obs.null) prog =
  Obs.span obs "golden" @@ fun () ->
  let r = Emulator.execute ~config:emulator_config prog in
  match r.Emulator.stop with
  | Emulator.Exited code ->
      Obs.incr obs ~by:r.Emulator.instructions "iss.golden_instructions";
      { writes = Array.of_list r.Emulator.writes;
        instructions = r.Emulator.instructions;
        exit_code = code }
  | stop ->
      failwith
        (Format.asprintf "Iss_campaign: golden run did not exit cleanly: %a"
           Emulator.pp_stop stop)

(* ---- site sampling ---- *)

(* Memory faults land in the workload's data segments (or, for a
   data-less workload, the result region): corrupting code words would
   alias the opcode model through the decode cache, and corrupting
   untouched address space is trivially silent. *)
let memory_words prog =
  let words =
    List.concat_map
      (fun (base, data) -> List.init (Array.length data) (fun i -> base + (4 * i)))
      prog.Asm.data
  in
  match words with
  | [] -> List.init 16 (fun i -> Sparc.Layout.result_base + (4 * i))
  | ws -> ws

let regfile_slots = 8 + (16 * emulator_config.Emulator.nwindows)

let sample_sites ~config golden prog =
  if config.samples_per_model < 1 then
    invalid_arg "Iss_campaign: samples_per_model must be positive";
  if golden.instructions < 1 then failwith "Iss_campaign: empty golden run";
  let rng = Stats.Rng.create config.seed in
  let mem_words = Array.of_list (memory_words prog) in
  let draw model =
    let index = Stats.Rng.int rng golden.instructions in
    let loc, bit =
      match model with
      | Reg_flip -> (Stats.Rng.int rng regfile_slots, Stats.Rng.int rng 32)
      | Mem_flip ->
          ( mem_words.(Stats.Rng.int rng (Array.length mem_words)),
            Stats.Rng.int rng 32 )
      | Op_flip -> (0, Stats.Rng.int rng 32)
    in
    { smodel = model; index; loc; bit;
      site_name = site_name_of ~model ~index ~loc ~bit }
  in
  Array.concat
    (List.map
       (fun m -> Array.init config.samples_per_model (fun _ -> draw m))
       config.models)

(* The journal fingerprint: the site-name hash binds the seed, sample
   size, model list and the golden run's instruction count at once
   (injection instants are drawn from it), so a stale journal cannot
   replay against a different campaign.  [models] is the single RTL
   model every ISS verdict is recorded as; the ISS model class lives in
   the site names (see {!site_name_of}), which keeps {!Journal.merge}'s
   (model, site-index) uniqueness valid with a flat task list. *)
let fingerprint ~config prog (sample : site array) =
  { Journal.workload = prog.Asm.name;
    prog_hash = Journal.hash_program prog;
    netlist_hash = Journal.hash_names (Array.map (fun s -> s.site_name) sample);
    target = target_name;
    models = [ C.fault_model_name C.Bit_flip ];
    sample_size = Some config.samples_per_model;
    include_cells = false;
    inject_cycle = 0;
    hang_factor = config.hang_factor;
    compare_reads = false;
    seed = config.seed;
    total_sites = Array.length sample;
    shard = config.shard }

(* ---- reusable campaign preparation ----

   The ISS analogue of {!Campaign.prepare}: golden run + site sample,
   shard-normalised.  The fingerprint alone cannot bind the ISS model
   list (every verdict is journaled as bit-flip), so the whole config
   is kept and compared structurally at consumption time. *)
type prepared = {
  p_fingerprint : Journal.fingerprint;
  p_config : config;
  p_golden : golden;
  p_sample : site array;
}

let prepare ?(config = default_config) ?(obs = Obs.null) prog =
  Executor.check_shard ~who:"Iss_campaign" config.shard;
  let golden = golden_run ~obs prog in
  let sample =
    Obs.span obs "site_sampling" (fun () -> sample_sites ~config golden prog)
  in
  { p_fingerprint = { (fingerprint ~config prog sample) with Journal.shard = (1, 1) };
    p_config = { config with shard = (1, 1) };
    p_golden = golden;
    p_sample = sample }

(* Returns the (golden, sample) to run with; raises on any mismatch a
   silent reuse could hide — the program hash and every config field
   except the shard. *)
let use_prepared ~config prog = function
  | None -> None
  | Some p ->
      if { config with shard = (1, 1) } <> p.p_config then
        invalid_arg "Iss_campaign: prepared run was built for a different config";
      if Journal.hash_program prog <> p.p_fingerprint.Journal.prog_hash then
        invalid_arg "Iss_campaign: prepared run was built for a different program";
      Some (p.p_golden, p.p_sample)

(* ---- faulty runs ---- *)

exception Diverged of failure_kind

let trap_code = function
  | Emulator.Illegal_instruction _ -> Leon3.Core.trap_illegal
  | Emulator.Misaligned_access _ -> Leon3.Core.trap_misaligned
  | Emulator.Division_by_zero -> Leon3.Core.trap_div0

let record_run obs ~dt r =
  Obs.incr obs "injections";
  Obs.incr obs "iss.injections";
  if r.sim = Journal.Prefiltered then Obs.incr obs "prefiltered"
  else begin
    Obs.incr obs "simulated";
    Obs.add_time obs "simulate" dt
  end;
  (match r.outcome with
  | Silent -> Obs.incr obs "outcome.silent"
  | Failure (Wrong_write _) -> Obs.incr obs "outcome.wrong_write"
  | Failure (Missing_writes _) -> Obs.incr obs "outcome.missing_writes"
  | Failure (Trap _) -> Obs.incr obs "outcome.trap"
  | Failure Hang -> Obs.incr obs "outcome.hang");
  match (r.outcome, r.detect_cycle) with
  | Failure (Wrong_write _ | Missing_writes _ | Trap _), Some d ->
      Obs.observe obs "detect_latency" (float_of_int (d - r.inject_cycle))
  | (Failure _ | Silent), _ -> ()

(* A fault-free machine under the faulty runs' instruction budget,
   counting its writes: every faulty run starts as one, or as a copy
   of one. *)
let machine prog golden ~hang_factor =
  let budget = max (golden.instructions + 1) (hang_factor * golden.instructions) in
  let config = { emulator_config with Emulator.max_instructions = budget } in
  let t = Emulator.create ~config prog in
  let writes = ref 0 in
  Emulator.set_event_hook t (Some (fun ev -> if Bus_event.is_write ev then incr writes));
  (t, writes)

let rec advance t instant =
  if Emulator.instructions t < instant then
    match Emulator.step t with
    | Emulator.Running -> advance t instant
    | Emulator.Stopped _ ->
        failwith "Iss_campaign: golden prefix stopped before the injection instant"

let inject t (site : site) =
  match site.smodel with
  | Reg_flip -> Emulator.flip_regfile_bit t ~slot:site.loc ~bit:site.bit
  | Mem_flip -> Emulator.flip_memory_bit t ~addr:site.loc ~bit:site.bit
  | Op_flip -> Emulator.corrupt_next_fetch t ~bit:site.bit

(* The one verdict function: run the faulty machine [t], whose fault
   is in place and whose [matched] writes so far are golden's first
   ones, to its verdict.  [from] is its instruction count now. *)
let verdict obs golden ~matched ~from t (site : site) =
  let matched = ref matched in
  let nwrites = Array.length golden.writes in
  Emulator.set_event_hook t
    (Some
       (fun ev ->
         if Bus_event.is_write ev then
           if !matched >= nwrites || not (Bus_event.equal ev golden.writes.(!matched))
           then raise (Diverged (Wrong_write !matched))
           else incr matched));
  let outcome, detect_cycle =
    match Emulator.run t with
    | exception Diverged f -> (Failure f, Some (Emulator.instructions t))
    | Emulator.Exited _ ->
        (* a wrong exit value is caught by the hook: the exit-port
           store is itself a compared write *)
        if !matched < nwrites then
          (Failure (Missing_writes !matched), Some (Emulator.instructions t))
        else (Silent, None)
    | Emulator.Trapped tr ->
        (Failure (Trap (trap_code tr)), Some (Emulator.instructions t))
    | Emulator.Instruction_limit -> (Failure Hang, None)
  in
  Obs.incr obs ~by:(Emulator.instructions t - from) "iss.instructions";
  { site_name = site.site_name; model = C.Bit_flip; outcome; detect_cycle;
    inject_cycle = site.index; sim = Journal.Simulated }

let run_one ?(obs = Obs.null) prog golden ~hang_factor (site : site) =
  let t_start = if Obs.enabled obs then Obs.now obs else 0. in
  let t, writes = machine prog golden ~hang_factor in
  advance t site.index;
  inject t site;
  let r = verdict obs golden ~matched:!writes ~from:0 t site in
  if Obs.enabled obs then record_run obs ~dt:(Obs.now obs -. t_start) r;
  r

(* ---- forking from golden where the fault is first read ----

   A register or memory fault changes nothing until its location is
   next read: up to then the faulty machine executes golden's
   instructions on golden's values, so at golden's first access at or
   after the injection it is golden with one bit flipped.  That access
   decides the site.  A write overwrites the bit and no access leaves
   it unread, so either way the faulty machine is golden from then on
   and the verdict is Silent without a run.  A read forks a copy of
   golden at that instant, flips the bit there and runs it to its
   verdict.  An opcode fault is read at its own instant. *)

(* Each site's fork instant, [None] for a site the observed golden pass
   decides.  The pass stops once every site is resolved. *)
let fork_instants ~obs prog (sites : site array) =
  Obs.span obs "golden" @@ fun () ->
  let fork =
    Array.map
      (fun s -> match s.smodel with Op_flip -> Some s.index | Reg_flip | Mem_flip -> None)
      sites
  in
  (* location -> the sites waiting for its next access, by instant *)
  let waiting = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let wait loc =
        Hashtbl.replace waiting loc
          ((s.index, i) :: Option.value ~default:[] (Hashtbl.find_opt waiting loc))
      in
      match s.smodel with
      | Reg_flip -> wait (Emulator.Slot s.loc)
      | Mem_flip -> wait (Emulator.Word (s.loc land lnot 3))
      | Op_flip -> ())
    sites;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.sort compare l)) waiting;
  let pending = ref (Hashtbl.fold (fun _ l n -> n + List.length l) waiting 0) in
  if !pending > 0 then begin
    let t = Emulator.create ~config:emulator_config prog in
    Emulator.set_access_hook t
      (Some
         (fun a loc kind ->
           match Hashtbl.find_opt waiting loc with
           | None -> ()
           | Some l ->
               let rec resolve = function
                 | (index, i) :: rest when index <= a ->
                     (match kind with
                     | Emulator.Read -> fork.(i) <- Some a
                     | Emulator.Write -> ());
                     decr pending;
                     resolve rest
                 | rest -> rest
               in
               (match resolve l with
               | [] -> Hashtbl.remove waiting loc
               | rest -> Hashtbl.replace waiting loc rest)));
    let rec go () =
      if !pending > 0 then
        match Emulator.step t with Emulator.Running -> go () | Emulator.Stopped _ -> ()
    in
    go ();
    Obs.incr obs ~by:(Emulator.instructions t) "iss.golden_instructions"
  end;
  fork

type work =
  | Decided of int list  (* tasks golden never reads the fault of: Silent *)
  | Forks of (int * int) array  (* (fork instant, task), by instant *)

(* Forks per unit: fixed, so the units (and the golden instructions
   each one replays) are the same for any domain count. *)
let forks_per_unit = 64

let plan_work ~obs prog site_of tasks =
  let sites = Array.of_list (List.map site_of tasks) in
  let fates = List.combine tasks (Array.to_list (fork_instants ~obs prog sites)) in
  let decided =
    List.filter_map (fun (ti, fork) -> if fork = None then Some ti else None) fates
  in
  let forks =
    Array.of_list
      (List.filter_map (fun (ti, fork) -> Option.map (fun a -> (a, ti)) fork) fates)
  in
  Array.sort compare forks;
  let n = Array.length forks in
  let chunks =
    Array.init
      ((n + forks_per_unit - 1) / forks_per_unit)
      (fun c ->
        let lo = c * forks_per_unit in
        Forks (Array.sub forks lo (min forks_per_unit (n - lo))))
  in
  if decided = [] then chunks else Array.append [| Decided decided |] chunks

(* A [Forks] unit advances its own golden machine from instant to
   instant; the matched-write count of each fork starts at the writes
   golden made before it.  Its time is split at each fork: up to the
   copy under [golden], from the copy to the verdict under
   [simulate]. *)
let exec_work obs prog golden ~hang_factor site_of work =
  let now () = if Obs.enabled obs then Obs.now obs else 0. in
  let clock = ref (now ()) in
  match work with
  | Decided tasks ->
      let results =
        List.map
          (fun ti ->
            let site = site_of ti in
            let r =
              { site_name = site.site_name; model = C.Bit_flip; outcome = Silent;
                detect_cycle = None; inject_cycle = site.index; sim = Journal.Prefiltered }
            in
            record_run obs ~dt:0. r;
            (ti, r))
          tasks
      in
      Obs.add_time obs "prefilter" (now () -. !clock);
      results
  | Forks forks ->
      let g, writes = machine prog golden ~hang_factor in
      (* each fork takes over the previous one's memory pages *)
      let last = ref None in
      let results =
        Array.fold_left
          (fun acc (a, ti) ->
            advance g a;
            let t1 = now () in
            Obs.add_time obs "golden" (t1 -. !clock);
            let site = site_of ti in
            let t = Emulator.copy ?into:!last g in
            last := Some t;
            inject t site;
            let r = verdict obs golden ~matched:!writes ~from:a t site in
            clock := now ();
            record_run obs ~dt:(!clock -. t1) r;
            (ti, r) :: acc)
          [] forks
      in
      Obs.incr obs ~by:(Emulator.instructions g) "iss.golden_instructions";
      List.rev results

let run_sites ?(obs = Obs.null) prog golden ~hang_factor sites =
  let site_of = Array.get sites in
  let results = Array.make (Array.length sites) None in
  Array.iter
    (fun w ->
      List.iter
        (fun (i, r) -> results.(i) <- Some r)
        (exec_work obs prog golden ~hang_factor site_of w))
    (plan_work ~obs prog site_of (List.init (Array.length sites) Fun.id));
  Array.map Option.get results

(* ---- campaign engines ---- *)

let summaries_by_model models results =
  List.map
    (fun m ->
      ( m,
        Campaign.summarize
          (List.filter
             (fun (r : run_result) -> model_of_site_name r.site_name = Some m)
             results) ))
    models

(* Every unit builds its own emulators, so workers need no context of
   their own.  The journal index {e is} the site index, and every
   verdict's model is bit-flip. *)
let run_parallel ?(config = default_config) ?(obs = Obs.null) ?(domains = 4)
    ?on_progress ?journal ?(resume = false) ?prepared prog =
  Executor.check_shard ~who:"Iss_campaign" config.shard;
  let golden, sample =
    match use_prepared ~config prog prepared with
    | Some gs -> gs
    | None ->
        let golden = golden_run ~obs prog in
        ( golden,
          Obs.span obs "site_sampling" (fun () -> sample_sites ~config golden prog) )
  in
  let site_of = Array.get sample in
  let plan pending =
    { Executor.units = plan_work ~obs prog site_of pending;
      exec =
        (fun () o w -> exec_work o prog golden ~hang_factor:config.hang_factor site_of w) }
  in
  let all =
    Executor.run ~obs ~domains:(max 1 domains) ~spawn:ignore ?on_progress ?journal ~resume
      ~fingerprint:(fingerprint ~config prog sample) ~ntasks:(Array.length sample)
      ~identity:(fun ti -> (C.Bit_flip, ti, sample.(ti).site_name))
      ~exec_ids:(Executor.shard_ids config.shard ~tasks:(Array.length sample) ~site:Fun.id)
      ~plan ()
  in
  (summaries_by_model config.models all, all)

let run ?config ?obs ?on_progress ?journal ?resume ?prepared prog =
  run_parallel ?config ?obs ~domains:1 ?on_progress ?journal ?resume ?prepared prog
