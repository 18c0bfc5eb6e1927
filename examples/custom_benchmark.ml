(* Bring your own workload: write a kernel against the harness used by
   the built-in EEMBC-like suite, then put it through the full
   pipeline — ISS characterisation, RTL golden run, a stuck-at-1
   campaign, and a prediction from the Fig. 7 logarithmic fit.

     dune exec examples/custom_benchmark.exe *)

module A = Sparc.Asm
module I = Sparc.Isa
module Campaign = Fault_injection.Campaign

(* A little FIR filter: y[n] = sum_k h[k] * x[n-k], Q8 coefficients. *)
let taps = 4

let n_samples = 24

let init b =
  (* Copy the raw samples into the delay line's backing store. *)
  A.load_label b "fir_x" I.l0;
  A.load_label b "fir_work" I.l1;
  A.set32 b n_samples I.l2;
  A.label b "init_loop";
  A.ld b I.Ld I.l0 (Imm 0) I.l3;
  A.st b I.St I.l3 I.l1 (Imm 0);
  A.op3 b I.Add I.l0 (Imm 4) I.l0;
  A.op3 b I.Add I.l1 (Imm 4) I.l1;
  A.op3 b I.Subcc I.l2 (Imm 1) I.l2;
  A.branch b I.Bne "init_loop"

let kernel b =
  A.load_label b "fir_work" I.l0;
  A.load_label b "fir_h" I.l1;
  A.mov b (Imm 0) I.l2;
  (* output accumulator *)
  A.set32 b (n_samples - taps) I.l3;
  A.label b "fir_n";
  A.mov b (Imm 0) I.o0;
  (* y *)
  A.mov b (Imm 0) I.o1;
  (* k *)
  A.label b "fir_k";
  A.op3 b I.Sll I.o1 (Imm 2) I.o2;
  A.op3 b I.Add I.l0 (Reg I.o2) I.o3;
  A.ld b I.Ld I.o3 (Imm 0) I.o3;
  A.op3 b I.Add I.l1 (Reg I.o2) I.o4;
  A.ld b I.Ld I.o4 (Imm 0) I.o4;
  A.op3 b I.Smul I.o3 (Reg I.o4) I.o3;
  A.op3 b I.Sra I.o3 (Imm 8) I.o3;
  A.op3 b I.Add I.o0 (Reg I.o3) I.o0;
  A.op3 b I.Add I.o1 (Imm 1) I.o1;
  A.cmp b I.o1 (Imm taps);
  A.branch b I.Bl "fir_k";
  A.op3 b I.Add I.l2 (Reg I.o0) I.l2;
  A.op3 b I.Add I.l0 (Imm 4) I.l0;
  A.op3 b I.Subcc I.l3 (Imm 1) I.l3;
  A.branch b I.Bne "fir_n";
  Workloads.Common.store_result b ~index:0 ~src:I.l2 ~addr_tmp:I.o7

let data b =
  A.data_label b "fir_x";
  A.words b (Workloads.Common.gen_words ~seed:4242 ~n:n_samples ~lo:1 ~hi:4000);
  A.data_label b "fir_h";
  A.words b [| 64; 128; 48; 16 |];
  A.data_label b "fir_work";
  A.space_words b n_samples

let () =
  let prog = Workloads.Common.standard ~name:"fir" ~iterations:2 ~init ~kernel ~data in

  (* ISS characterisation. *)
  let info = Diversity.Metric.of_program prog in
  Printf.printf "fir: %d instructions, %d memory, diversity %d\n"
    info.Diversity.Metric.instructions info.Diversity.Metric.memory_instructions
    info.Diversity.Metric.diversity;

  (* RTL campaign, stuck-at-1 at the integer unit. *)
  let sys = Leon3.System.create () in
  let config =
    { Campaign.default_config with
      Campaign.models = [ Rtl.Circuit.Stuck_at_1 ];
      sample_size = Some 300 }
  in
  let summaries, _ = Campaign.run ~config sys prog Fault_injection.Injection.Iu in
  let measured = Campaign.pf_percent (List.assoc Rtl.Circuit.Stuck_at_1 summaries) in
  Printf.printf "measured Pf (SA1 @ IU): %.1f%%\n" measured;

  (* Compare with the diversity fit from the built-in suite (a small
     sample keeps this example quick; expect a loose but same-ballpark
     agreement). *)
  let ctx =
    Correlation.Context.create ~samples:120 ~gate:(Correlation.Context.default_gate ()) ()
  in
  let f7, _ = Correlation.Experiments.figure7 ctx in
  let predicted =
    Stats.Regression.predict_log f7.Correlation.Experiments.f7_fit
      (float_of_int info.Diversity.Metric.diversity)
  in
  Printf.printf "Fig.7 fit predicts %.1f%% at diversity %d (R^2 %.2f)\n" predicted
    info.Diversity.Metric.diversity
    f7.Correlation.Experiments.f7_fit.Stats.Regression.r_squared;
  print_endline "custom benchmark OK"
