type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

(* The full generator state is one int64, so a stream position can be
   captured exactly — checkpoints record [cursor] per batch and resume
   validation compares it against the replayed stream. *)
let cursor t = t.state

(* An independent stream determined by a (seed, index) pair: used to give
   every GA evaluation its own noise stream so measurements do not depend
   on evaluation scheduling (worker count, batching, cache hits). *)
let of_pair seed index =
  { state =
      mix
        (Int64.add
           (mix (Int64.of_int seed))
           (Int64.mul golden_gamma (mix (Int64.of_int index)))) }

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let u = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float u /. 9007199254740992.0 *. bound

let chance t p = float t 1.0 < p

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ :: _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
