(* Deterministic fault-injection registry.  See the interface for the
   contract; the implementation notes here are about *why* it is safe to
   query from worker domains.

   - The configuration lives in one [Atomic.t]; arming/disarming happens on
     the main domain between runs, workers only read it.
   - Firing decisions derive a private SplitMix64 stream from
     [(seed, point, key)] via [Rng.of_pair]; nothing is shared, so two
     domains probing the same site get the same answer and probes at
     different sites are independent.
   - The scope (replay/executor faults) is domain-local storage: each
     worker's verified replay sets its own scope, and code that never sets
     one (online runs, interpreted reference replays) is never damaged.
   - Injection counts are per-point atomics: totals only, no ordering. *)

type point =
  | Miscompile
  | Replay_collision
  | Replay_truncate
  | Replay_regs
  | Exec_crash
  | Exec_hang
  | Exec_wrong_ret
  | Store_corrupt
  | Store_truncate

let all_points =
  [ Miscompile; Replay_collision; Replay_truncate; Replay_regs; Exec_crash;
    Exec_hang; Exec_wrong_ret; Store_corrupt; Store_truncate ]

let point_name = function
  | Miscompile -> "miscompile"
  | Replay_collision -> "replay-collision"
  | Replay_truncate -> "replay-truncate"
  | Replay_regs -> "replay-regs"
  | Exec_crash -> "exec-crash"
  | Exec_hang -> "exec-hang"
  | Exec_wrong_ret -> "exec-wrong-ret"
  | Store_corrupt -> "store-corrupt"
  | Store_truncate -> "store-truncate"

let point_of_name s = List.find_opt (fun p -> point_name p = s) all_points

let point_index = function
  | Miscompile -> 0
  | Replay_collision -> 1
  | Replay_truncate -> 2
  | Replay_regs -> 3
  | Exec_crash -> 4
  | Exec_hang -> 5
  | Exec_wrong_ret -> 6
  | Store_corrupt -> 7
  | Store_truncate -> 8

let n_points = List.length all_points

type config = {
  fseed : int;
  frate : float;
  fonly : point list option;
}

let spec_string cfg =
  Printf.sprintf "seed=%d,rate=%g%s" cfg.fseed cfg.frate
    (match cfg.fonly with
     | None -> ""
     | Some ps -> ",only=" ^ String.concat "+" (List.map point_name ps))

let parse_spec s =
  let default = { fseed = 0; frate = 0.1; fonly = None } in
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
  in
  let parse_field cfg field =
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" field)
    | Some i ->
      let k = String.sub field 0 i in
      let v = String.sub field (i + 1) (String.length field - i - 1) in
      (match k with
       | "seed" ->
         (match int_of_string_opt v with
          | Some n -> Ok { cfg with fseed = n }
          | None -> Error (Printf.sprintf "seed: not an integer: %S" v))
       | "rate" ->
         (match float_of_string_opt v with
          | Some r when r >= 0.0 && r <= 1.0 -> Ok { cfg with frate = r }
          | Some _ -> Error "rate: must be in [0, 1]"
          | None -> Error (Printf.sprintf "rate: not a number: %S" v))
       | "only" ->
         let names = String.split_on_char '+' v in
         let rec resolve acc = function
           | [] -> Ok { cfg with fonly = Some (List.rev acc) }
           | n :: tl ->
             (match point_of_name n with
              | Some p -> resolve (p :: acc) tl
              | None ->
                Error
                  (Printf.sprintf "only: unknown point %S (valid: %s)" n
                     (String.concat ", " (List.map point_name all_points))))
         in
         resolve [] names
       | _ -> Error (Printf.sprintf "unknown field %S" k))
  in
  List.fold_left
    (fun acc field -> Result.bind acc (fun cfg -> parse_field cfg field))
    (Ok default) fields

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let state : config option Atomic.t = Atomic.make None

let counts = Array.init n_points (fun _ -> Atomic.make 0)

let enable cfg =
  Array.iter (fun c -> Atomic.set c 0) counts;
  Atomic.set state (Some cfg)

let disable () = Atomic.set state None

let active () = Atomic.get state <> None

let armed () = Atomic.get state

(* ------------------------------------------------------------------ *)
(* Deterministic firing                                                *)
(* ------------------------------------------------------------------ *)

let combine a b = (a * 0x01000193) lxor b

let hash_string s = Hashtbl.hash s land max_int

(* One stream per (seed, point, key); the large odd salts decorrelate the
   points and keep the [rng] stream independent of the [fire] draw. *)
let stream ~salt cfg p ~key =
  Rng.of_pair
    (combine cfg.fseed ((point_index p + 1) * salt))
    key

let point_enabled cfg p =
  match cfg.fonly with None -> true | Some ps -> List.mem p ps

let fire p ~key =
  match Atomic.get state with
  | None -> false
  | Some cfg ->
    point_enabled cfg p
    && Rng.chance (stream ~salt:0x9E3779B1 cfg p ~key) cfg.frate

let rng p ~key =
  let cfg =
    match Atomic.get state with
    | Some cfg -> cfg
    | None -> { fseed = 0; frate = 0.0; fonly = None }
  in
  stream ~salt:0x85EBCA77 cfg p ~key

(* ------------------------------------------------------------------ *)
(* Scope                                                               *)
(* ------------------------------------------------------------------ *)

let scope : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let scope_key () =
  if active () then Domain.DLS.get scope else None

let scoped ~key f =
  let saved = Domain.DLS.get scope in
  Domain.DLS.set scope (Some key);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope saved) f

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let record p =
  ignore (Atomic.fetch_and_add counts.(point_index p) 1);
  Trace.incr "faults.injected";
  Trace.incr ("faults." ^ point_name p)

let injected () =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 counts

let injected_by_point () =
  List.map (fun p -> (p, Atomic.get counts.(point_index p))) all_points
