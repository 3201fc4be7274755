let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let sorted xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let ys = sorted xs in
    if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0
  end

let mad xs =
  let m = median xs in
  median (Array.map (fun x -> abs_float (x -. m)) xs)

let remove_outliers_mad ?(threshold = 3.5) xs =
  let m = median xs in
  let d = mad xs in
  if d = 0.0 || Array.length xs < 3 then xs
  else begin
    let keep x = 0.6745 *. abs_float (x -. m) /. d <= threshold in
    let kept = Array.of_list (List.filter keep (Array.to_list xs)) in
    if Array.length kept = 0 then xs else kept
  end

(* Abramowitz & Stegun 26.2.17 approximation of the standard normal CDF,
   accurate to ~7.5e-8: sufficient to decide significance at alpha = 0.05. *)
let normal_cdf x =
  let b1 = 0.319381530 and b2 = -0.356563782 and b3 = 1.781477937 in
  let b4 = -1.821255978 and b5 = 1.330274429 and p = 0.2316419 in
  let t = 1.0 /. (1.0 +. (p *. abs_float x)) in
  let poly = t *. (b1 +. (t *. (b2 +. (t *. (b3 +. (t *. (b4 +. (t *. b5)))))))) in
  let phi = 1.0 -. (exp (-.(x *. x) /. 2.0) /. sqrt (2.0 *. Float.pi) *. poly) in
  if x >= 0.0 then phi else 1.0 -. phi

let welch_t_test a b =
  let na = float_of_int (Array.length a) and nb = float_of_int (Array.length b) in
  if na < 2.0 || nb < 2.0 then 1.0
  else begin
    let va = variance a /. na and vb = variance b /. nb in
    let denom = sqrt (va +. vb) in
    if denom = 0.0 then if mean a = mean b then 1.0 else 0.0
    else begin
      let t = (mean a -. mean b) /. denom in
      2.0 *. (1.0 -. normal_cdf (abs_float t))
    end
  end

let significantly_less ?(alpha = 0.05) a b =
  mean a < mean b && welch_t_test a b < alpha

let percentile xs p =
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 0 then nan
  else if n = 1 then ys.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

(* Fleet-aggregation helpers.  The coordinator pools per-device sample
   batches that are legitimately degenerate — a device that contributed a
   single replay, or a batch whose every point the MAD filter would
   reject — so these helpers must degrade to something sensible instead of
   raising or returning an empty array.  See test_stats.ml for the pinned
   edge cases. *)

let pool_samples batches = Array.concat (Array.to_list batches)

let robust_mean xs = mean (remove_outliers_mad xs)

let geomean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else exp (Array.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int n)
