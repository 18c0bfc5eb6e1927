(* Host speed reference.

   Shared cloud hosts hand their cores to other tenants too: the speed
   a process gets toggles on a millisecond scale and
   its average drifts by up to 2x over seconds to minutes, so the same
   campaign can take anywhere from 1x to 2x its idle time.  Raw wall
   time therefore cannot resolve a 10-20% regression.

   A sampler measures the speed the process actually got while each
   call ran: every [period] seconds of CPU time a SIGVTALRM handler runs
   one slice of fixed reference work and records [nominal / slice time],
   the host's speed relative to idle.  A call's time is then reported
   as its wall time, minus the handler's own time, times the mean
   relative speed sampled during the call: the time the call would take
   on an idle host.  The reference work is a small levelized netlist of
   closures over an int array, the shape of the RTL kernel's settle
   loop, which tracked the campaign's slowdowns better than allocation-
   or memory-bound loops did; it is bench code, so no library change
   can move it.  ITIMER_VIRTUAL counts user CPU time only, so the signal
   is only ever delivered while the process runs OCaml code and never
   interrupts a system call such as a journal's fsync. *)

let nodes = 3000

let cycles = 60

let values = Array.make nodes 1

let evaluators =
  let state = ref 12345 in
  let rand k =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod k
  in
  Array.init nodes (fun i ->
      if i < 8 then fun () -> ()
      else
        let a = rand i and b = rand i and c = rand i in
        match rand 4 with
        | 0 -> fun () -> values.(i) <- (values.(a) + values.(b)) land 0xffff
        | 1 -> fun () -> values.(i) <- values.(a) lxor values.(c)
        | 2 -> fun () -> values.(i) <- (if values.(a) land 1 = 0 then values.(b) else values.(c))
        | _ -> fun () -> values.(i) <- (values.(b) lsl 1) land 0xffff)

let slice () =
  let t0 = Unix.gettimeofday () in
  for c = 1 to cycles do
    for k = 0 to 7 do
      values.(k) <- values.(k + 8) lxor c
    done;
    Array.iter (fun f -> f ()) evaluators
  done;
  Unix.gettimeofday () -. t0

(* Seconds one slice takes on an idle 2-vCPU Xeon VM (10th percentile
   of a minute of back-to-back slices); scaled times are close to wall
   seconds there. *)
let nominal = 0.00058

let period = 0.02

type samples = { mutable count : int; mutable speed : float; mutable overhead : float }

let samples = { count = 0; speed = 0.; overhead = 0. }

let busy = ref false

let sample _ =
  if not !busy then begin
    busy := true;
    let s = slice () in
    samples.count <- samples.count + 1;
    samples.speed <- samples.speed +. (nominal /. s);
    samples.overhead <- samples.overhead +. s;
    busy := false
  end

(* The speed last measured over a call, carried over to calls too
   short to be sampled. *)
let last = ref 1.

(* Start sampling for the rest of the process.  Five slices up front
   give calls made before the first tick a speed of their own. *)
let start () =
  let first = List.sort compare (List.init 5 (fun _ -> slice ())) in
  last := nominal /. List.nth first 2;
  Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle sample);
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = period; it_value = period })

(* [f ()] with its wall seconds (sampling overhead removed) and its
   scaled seconds. *)
let timed f =
  let n0 = samples.count and s0 = samples.speed and o0 = samples.overhead in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 -. (samples.overhead -. o0) in
  let n = samples.count - n0 in
  if n > 0 then last := (samples.speed -. s0) /. float_of_int n;
  (r, dt, dt *. !last)
