type fit = { slope : float; intercept : float; r_squared : float; n : int }

let sums points =
  List.fold_left
    (fun (n, sx, sy, sxx, sxy, syy) (x, y) ->
      (n + 1, sx +. x, sy +. y, sxx +. (x *. x), sxy +. (x *. y), syy +. (y *. y)))
    (0, 0., 0., 0., 0., 0.)
    points

let linear points =
  let n, sx, sy, sxx, sxy, syy = sums points in
  if n < 2 then invalid_arg "Regression.linear: need at least two points";
  let nf = float_of_int n in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then invalid_arg "Regression.linear: degenerate x values";
  let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let ss_tot = syy -. (sy *. sy /. nf) in
  let ss_res =
    List.fold_left
      (fun acc (x, y) ->
        let e = y -. ((slope *. x) +. intercept) in
        acc +. (e *. e))
      0. points
  in
  (* A constant y has no variance to explain: the fit predicts it
     trivially, which is 0% explanatory power, not 100%. *)
  let r_squared = if ss_tot < 1e-12 then 0. else 1. -. (ss_res /. ss_tot) in
  { slope; intercept; r_squared; n }

let log_fit points =
  (* Non-positive x has no logarithm: drop those points rather than
     poisoning the fit with -inf/nan.  Fewer than two usable points is
     still the caller's error. *)
  let log_points =
    List.filter_map (fun (x, y) -> if x > 0. then Some (log x, y) else None) points
  in
  if List.length log_points < 2 then
    invalid_arg "Regression.log_fit: x must be positive";
  linear log_points

let predict fit x = (fit.slope *. x) +. fit.intercept

let predict_log fit x =
  if x <= 0. then invalid_arg "Regression.predict_log: x must be positive";
  (fit.slope *. log x) +. fit.intercept

type loo = {
  predictions : float array;
  residuals : float array;
  r_squared : float;
  rmse : float;
}

let leave_one_out ?(log = false) points =
  let arr = Array.of_list points in
  let n = Array.length arr in
  if n < 3 then invalid_arg "Regression.leave_one_out: need at least three points";
  let predictions =
    Array.mapi
      (fun i (x, _) ->
        let rest =
          List.filteri (fun j _ -> j <> i) points
        in
        if log then predict_log (log_fit rest) x else predict (linear rest) x)
      arr
  in
  let residuals = Array.mapi (fun i (_, y) -> y -. predictions.(i)) arr in
  let sy = Array.fold_left (fun acc (_, y) -> acc +. y) 0. arr in
  let mean_y = sy /. float_of_int n in
  let ss_tot =
    Array.fold_left (fun acc (_, y) -> acc +. ((y -. mean_y) *. (y -. mean_y))) 0. arr
  in
  let ss_res = Array.fold_left (fun acc r -> acc +. (r *. r)) 0. residuals in
  (* Out-of-sample R² genuinely can go negative (the fit predicts worse
     than the mean) — that is the signal, don't clamp it away. *)
  let r_squared = if ss_tot < 1e-12 then 0. else 1. -. (ss_res /. ss_tot) in
  let rmse = sqrt (ss_res /. float_of_int n) in
  { predictions; residuals; r_squared; rmse }
