(* Tests for the deterministic RNG, regressions and summaries. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Stats.Rng.create 42 and b = Stats.Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Stats.Rng.word32 a) (Stats.Rng.word32 b)
  done

let test_rng_seed_sensitivity () =
  let a = Stats.Rng.create 1 and b = Stats.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Stats.Rng.word32 a = Stats.Rng.word32 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Stats.Rng.create 9 in
  ignore (Stats.Rng.word32 a);
  let b = Stats.Rng.copy a in
  check_int "copy continues identically" (Stats.Rng.word32 a) (Stats.Rng.word32 b)

let test_rng_range () =
  let rng = Stats.Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Stats.Rng.range rng ~lo:10 ~hi:20 in
    Alcotest.(check bool) "in range" true (v >= 10 && v <= 20)
  done

let test_sample_without_replacement () =
  let rng = Stats.Rng.create 11 in
  let pool = Array.init 100 Fun.id in
  let sample = Stats.Rng.sample_without_replacement rng 30 pool in
  check_int "size" 30 (Array.length sample);
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  for i = 1 to 29 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  let all = Stats.Rng.sample_without_replacement rng 1000 pool in
  check_int "clamped to pool" 100 (Array.length all)

let test_linear_regression () =
  (* y = 2x + 1, exactly *)
  let fit = Stats.Regression.linear [ (0., 1.); (1., 3.); (2., 5.); (3., 7.) ] in
  check_float "slope" 2. fit.Stats.Regression.slope;
  check_float "intercept" 1. fit.Stats.Regression.intercept;
  check_float "r2" 1. fit.Stats.Regression.r_squared;
  check_float "predict" 9. (Stats.Regression.predict fit 4.)

let test_log_fit () =
  (* y = 3 ln x + 2 *)
  let points = List.map (fun x -> (x, (3. *. log x) +. 2.)) [ 1.; 2.; 5.; 10.; 20. ] in
  let fit = Stats.Regression.log_fit points in
  check_float "slope" 3. fit.Stats.Regression.slope;
  check_float "intercept" 2. fit.Stats.Regression.intercept;
  check_float "predict_log" ((3. *. log 7.) +. 2.) (Stats.Regression.predict_log fit 7.)

let test_regression_errors () =
  Alcotest.check_raises "too few points" (Invalid_argument "Regression.linear: need at least two points")
    (fun () -> ignore (Stats.Regression.linear [ (1., 1.) ]));
  Alcotest.check_raises "degenerate x" (Invalid_argument "Regression.linear: degenerate x values")
    (fun () -> ignore (Stats.Regression.linear [ (1., 1.); (1., 2.) ]));
  Alcotest.check_raises "log of non-positive" (Invalid_argument "Regression.log_fit: x must be positive")
    (fun () -> ignore (Stats.Regression.log_fit [ (0., 1.); (1., 2.) ]))

let test_degenerate_r2 () =
  (* Constant y: nothing to explain, so the fit must not claim a
     perfect R² (it used to report 1.). *)
  let fit = Stats.Regression.linear [ (0., 5.); (1., 5.); (2., 5.) ] in
  check_float "slope" 0. fit.Stats.Regression.slope;
  check_float "intercept" 5. fit.Stats.Regression.intercept;
  check_float "degenerate r2 is 0" 0. fit.Stats.Regression.r_squared

let test_log_fit_filters_nonpositive () =
  (* Non-positive x carries no log-domain information; the fit must
     equal the one over the positive points alone. *)
  let positive = List.map (fun x -> (x, (3. *. log x) +. 2.)) [ 1.; 2.; 5.; 10. ] in
  let noisy = (0., 99.) :: (-3., -7.) :: positive in
  let fit = Stats.Regression.log_fit noisy in
  let clean = Stats.Regression.log_fit positive in
  check_int "n counts only positive x" clean.Stats.Regression.n fit.Stats.Regression.n;
  check_float "slope" clean.Stats.Regression.slope fit.Stats.Regression.slope;
  check_float "intercept" clean.Stats.Regression.intercept fit.Stats.Regression.intercept

let test_summary () =
  let s = Stats.Summary.of_list [ 1.; 2.; 3.; 4. ] in
  check_int "n" 4 s.Stats.Summary.n;
  check_float "mean" 2.5 s.Stats.Summary.mean;
  check_float "min" 1. s.Stats.Summary.min;
  check_float "max" 4. s.Stats.Summary.max;
  Alcotest.(check (float 1e-6)) "stddev" 1.290994449 s.Stats.Summary.stddev

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.Summary.percentile xs 50.);
  check_float "p0" 1. (Stats.Summary.percentile xs 0.);
  check_float "p100" 5. (Stats.Summary.percentile xs 100.);
  check_float "interpolated" 1.4 (Stats.Summary.percentile xs 10.)

let test_percentile_nan () =
  (* NaN has no rank: polymorphic compare used to sort it arbitrarily
     and return garbage quantiles; now the sample is rejected. *)
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Summary.percentile: NaN in sample")
    (fun () -> ignore (Stats.Summary.percentile [| 1.; Float.nan; 3. |] 50.));
  (* negative zero must not confuse the ordering *)
  check_float "signed zeros" 0. (Stats.Summary.percentile [| 0.; -0.; 0. |] 50.)

let test_ratio () =
  check_float "guarded zero" 0. (Stats.Summary.ratio ~num:3 ~den:0);
  check_float "plain" 0.75 (Stats.Summary.ratio ~num:3 ~den:4)

(* ---- Wilson score intervals ---- *)

let check_float4 = Alcotest.(check (float 1e-4))

let test_wilson_fixtures () =
  (* hand-computed at z = 1.96: center (p + z^2/2n)/(1 + z^2/n),
     half-width z/(1 + z^2/n) * sqrt(p(1-p)/n + z^2/4n^2) *)
  let ci = Stats.Binomial.wilson ~k:5 ~n:10 () in
  check_float "p_hat" 0.5 ci.Stats.Binomial.p_hat;
  check_float4 "lower (5/10)" 0.236589 ci.Stats.Binomial.lower;
  check_float4 "upper (5/10)" 0.763411 ci.Stats.Binomial.upper;
  Alcotest.(check bool) "contains p_hat" true (Stats.Binomial.contains ci 0.5)

let test_wilson_edges () =
  (* k = 0: the lower bound is exactly 0, the upper is z^2/(n + z^2)
     scaled — at n = 1, 3.8416/4.8416 *)
  let zero = Stats.Binomial.wilson ~k:0 ~n:1 () in
  check_float "k=0 lower" 0. zero.Stats.Binomial.lower;
  check_float4 "k=0 n=1 upper" 0.793456 zero.Stats.Binomial.upper;
  (* k = n mirrors it *)
  let one = Stats.Binomial.wilson ~k:1 ~n:1 () in
  check_float4 "k=n lower" 0.206544 one.Stats.Binomial.lower;
  check_float "k=n upper" 1. one.Stats.Binomial.upper;
  (* the interval never escapes [0, 1] even at extreme z *)
  let wide = Stats.Binomial.wilson ~z:10. ~k:1 ~n:2 () in
  Alcotest.(check bool) "clamped" true
    (wide.Stats.Binomial.lower >= 0. && wide.Stats.Binomial.upper <= 1.)

let test_wilson_errors () =
  List.iter
    (fun (k, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d n=%d rejected" k n)
        true
        (match Stats.Binomial.wilson ~k ~n () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (0, 0); (0, -1); (-1, 10); (11, 10) ];
  Alcotest.(check bool) "z <= 0 rejected" true
    (match Stats.Binomial.wilson ~z:0. ~k:1 ~n:2 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_wilson_of_rate_and_disjoint () =
  let a = Stats.Binomial.of_rate ~p:0.5 ~n:10 () in
  let b = Stats.Binomial.wilson ~k:5 ~n:10 () in
  check_float "of_rate rounds to k" b.Stats.Binomial.lower a.Stats.Binomial.lower;
  (* rates outside [0,1] clamp to the boundary counts *)
  let lo = Stats.Binomial.of_rate ~p:(-0.3) ~n:10 () in
  check_int "negative rate clamps to k=0" 0 lo.Stats.Binomial.k;
  let hi = Stats.Binomial.of_rate ~p:1.7 ~n:10 () in
  check_int "excess rate clamps to k=n" 10 hi.Stats.Binomial.k;
  let c = Stats.Binomial.wilson ~k:99 ~n:100 () in
  Alcotest.(check bool) "far intervals disjoint" true (Stats.Binomial.disjoint a c);
  Alcotest.(check bool) "disjoint symmetric" true (Stats.Binomial.disjoint c a);
  Alcotest.(check bool) "overlapping not disjoint" false (Stats.Binomial.disjoint a b)

(* ---- leave-one-out cross-validation ---- *)

let test_loo_exact_line () =
  (* every fold of an exact line recovers the line: held-out residuals
     vanish and the cross-validated R² is 1 *)
  let points = List.init 6 (fun i -> (float_of_int i, (2. *. float_of_int i) +. 1.)) in
  let loo = Stats.Regression.leave_one_out points in
  check_float "r2" 1. loo.Stats.Regression.r_squared;
  check_float "rmse" 0. loo.Stats.Regression.rmse;
  Array.iter (fun r -> check_float "residual" 0. r) loo.Stats.Regression.residuals

let test_loo_exact_log () =
  let points = List.map (fun x -> (x, (3. *. log x) +. 2.)) [ 1.; 2.; 5.; 10.; 20. ] in
  let loo = Stats.Regression.leave_one_out ~log:true points in
  check_float "log r2" 1. loo.Stats.Regression.r_squared;
  check_float "log rmse" 0. loo.Stats.Regression.rmse

let test_loo_overfit_negative_r2 () =
  (* a zig-zag no line explains: each fold's fit points away from the
     held-out y, so cross-validated predictions are worse than the
     mean — R² must go negative, not clamp at 0 *)
  let loo = Stats.Regression.leave_one_out [ (0., 0.); (1., 1.); (2., 0.) ] in
  Alcotest.(check bool) "negative r2 preserved" true
    (loo.Stats.Regression.r_squared < 0.)

let test_loo_errors () =
  Alcotest.(check bool) "needs three points" true
    (match Stats.Regression.leave_one_out [ (0., 0.); (1., 1.) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_wilson_sane =
  QCheck2.Test.make ~name:"wilson interval is ordered, bounded and covers p_hat"
    ~count:500
    QCheck2.Gen.(pair (int_bound 200) (int_range 1 200))
    (fun (k0, n) ->
      let k = min k0 n in
      let ci = Stats.Binomial.wilson ~k ~n () in
      ci.Stats.Binomial.lower >= 0.
      && ci.Stats.Binomial.upper <= 1.
      && ci.Stats.Binomial.lower <= ci.Stats.Binomial.p_hat +. 1e-12
      && ci.Stats.Binomial.p_hat <= ci.Stats.Binomial.upper +. 1e-12
      && (k > 0 || ci.Stats.Binomial.lower = 0.)
      && (k < n || ci.Stats.Binomial.upper = 1.))

let prop_fit_recovers_line =
  QCheck2.Test.make ~name:"linear fit recovers exact lines" ~count:200
    QCheck2.Gen.(triple (float_range (-50.) 50.) (float_range (-50.) 50.) (int_range 3 20))
    (fun (a, b, n) ->
      let points = List.init n (fun i -> (float_of_int i, (a *. float_of_int i) +. b)) in
      match Stats.Regression.linear points with
      | fit ->
          abs_float (fit.Stats.Regression.slope -. a) < 1e-6
          && abs_float (fit.Stats.Regression.intercept -. b) < 1e-6
      | exception Invalid_argument _ -> false)

let prop_shuffle_preserves_multiset =
  QCheck2.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck2.Gen.(pair (int_bound 1000) (list_size (int_range 0 50) (int_bound 100)))
    (fun (seed, xs) ->
      let rng = Stats.Rng.create seed in
      let arr = Array.of_list xs in
      Stats.Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let suite =
  ( "stats",
    [ Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng copy" `Quick test_rng_copy;
      Alcotest.test_case "rng range" `Quick test_rng_range;
      Alcotest.test_case "sampling" `Quick test_sample_without_replacement;
      Alcotest.test_case "linear regression" `Quick test_linear_regression;
      Alcotest.test_case "log fit" `Quick test_log_fit;
      Alcotest.test_case "regression errors" `Quick test_regression_errors;
      Alcotest.test_case "degenerate r2" `Quick test_degenerate_r2;
      Alcotest.test_case "log fit filters" `Quick test_log_fit_filters_nonpositive;
      Alcotest.test_case "summary" `Quick test_summary;
      Alcotest.test_case "percentile" `Quick test_percentile;
      Alcotest.test_case "percentile nan" `Quick test_percentile_nan;
      Alcotest.test_case "ratio" `Quick test_ratio;
      Alcotest.test_case "wilson fixtures" `Quick test_wilson_fixtures;
      Alcotest.test_case "wilson edges" `Quick test_wilson_edges;
      Alcotest.test_case "wilson errors" `Quick test_wilson_errors;
      Alcotest.test_case "wilson of_rate/disjoint" `Quick test_wilson_of_rate_and_disjoint;
      Alcotest.test_case "loo exact line" `Quick test_loo_exact_line;
      Alcotest.test_case "loo exact log" `Quick test_loo_exact_log;
      Alcotest.test_case "loo overfit r2" `Quick test_loo_overfit_negative_r2;
      Alcotest.test_case "loo errors" `Quick test_loo_errors ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_wilson_sane; prop_fit_recovers_line; prop_shuffle_preserves_multiset ] )
