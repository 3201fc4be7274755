module App = Repro_apps.Registry
module B = Repro_dex.Bytecode
module Ga = Repro_search.Ga
module Genome = Repro_search.Genome
module Evalpool = Repro_search.Evalpool
module Compile = Repro_lir.Compile
module Binary = Repro_lir.Binary
module Verify = Repro_capture.Verify
module Capture = Repro_capture.Capture
module Snapshot = Repro_capture.Snapshot
module Breakdown = Repro_profiler.Breakdown
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Cost = Repro_vm.Cost

let average xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let apps_of ?apps () =
  match apps with
  | None -> App.all
  | Some names -> List.filter_map App.find names

(* ------------------------------- Table 1 --------------------------- *)

let table1 () =
  List.map
    (fun app -> (App.class_name app.App.cls, app.App.name, app.App.descr))
    App.all

let print_table1 () =
  print_endline "Table 1. Android applications used in our experiments.";
  Table.print
    ~aligns:[ Table.Left; Table.Left; Table.Left ]
    ~header:[ "Type"; "Name"; "Description" ]
    (List.map (fun (t, n, d) -> [ t; n; d ]) (table1 ()))

(* ------------------------------- Figure 1 -------------------------- *)

type fig1_outcome =
  | F1_compiler_error
  | F1_compile_timeout
  | F1_runtime_crash
  | F1_runtime_timeout
  | F1_wrong_output
  | F1_correct

let fig1_outcome_name = function
  | F1_compiler_error -> "compiler error"
  | F1_compile_timeout -> "compiler timeout"
  | F1_runtime_crash -> "runtime crash"
  | F1_runtime_timeout -> "runtime timeout"
  | F1_wrong_output -> "wrong output"
  | F1_correct -> "correct output"

type fig1 = {
  f1_counts : (fig1_outcome * int) list;
  f1_total : int;
}

let fft_env ?(seed = 7) () =
  let app = Option.get (App.find "FFT") in
  let capture = Option.get (Pipeline.capture_once ~seed app) in
  Pipeline.make_eval_env ~seed:(seed + 1) app capture

let fig1_of_core = function
  | Pipeline.Core_measured { cycles; _ } -> (F1_correct, Some cycles)
  | Pipeline.Core_compile_failed _ -> (F1_compiler_error, None)
  | Pipeline.Core_compile_timeout -> (F1_compile_timeout, None)
  | Pipeline.Core_crashed _ -> (F1_runtime_crash, None)
  | Pipeline.Core_hung -> (F1_runtime_timeout, None)
  | Pipeline.Core_wrong_output -> (F1_wrong_output, None)
  (* quarantined = persistently failed verification (fault-injection runs
     only); for Figure 1 purposes that is a discarded wrong-output binary *)
  | Pipeline.Core_quarantined _ -> (F1_wrong_output, None)

(* Draw [n] genomes in stream order ([List.init]'s evaluation order is
   unspecified, and each draw advances [rng]). *)
let draw_genomes rng n =
  let rec go k acc =
    if k = n then List.rev acc else go (k + 1) (Genome.random rng :: acc)
  in
  go 0 []

(* One batch through the search's core pool, classified for Figure 1 (plus
   the raw replay cycle count, which Figure 2 turns into a noise-free
   speedup). *)
let classify pool tasks =
  Array.map fig1_of_core (Evalpool.evaluate_batch pool tasks)

let fig1 ?(sequences = 100) ?(seed = 7) ?jobs ?cache () =
  let env = fft_env ~seed () in
  let pool = Pipeline.make_core_pool ?jobs ?cache env in
  let rng = Rng.create (seed * 31 + 5) in
  let tasks =
    Array.of_list
      (List.mapi (fun i g -> (i + 1, g)) (draw_genomes rng sequences))
  in
  let outcomes = classify pool tasks in
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun (outcome, _) ->
       Hashtbl.replace counts outcome
         (1 + Option.value ~default:0 (Hashtbl.find_opt counts outcome)))
    outcomes;
  let order =
    [ F1_compiler_error; F1_compile_timeout; F1_runtime_crash;
      F1_runtime_timeout; F1_wrong_output; F1_correct ]
  in
  { f1_counts =
      List.map
        (fun o -> (o, Option.value ~default:0 (Hashtbl.find_opt counts o)))
        order;
    f1_total = sequences }

let print_fig1 f =
  print_endline
    "Figure 1. Compilation outcome for randomly generated optimization";
  print_endline "sequences on the FFT kernel.";
  Table.print ~header:[ "Outcome"; "Sequences"; "Share" ]
    (List.map
       (fun (o, n) ->
          [ fig1_outcome_name o; string_of_int n;
            Table.fmt_pct (float_of_int n /. float_of_int f.f1_total) ])
       f.f1_counts)

(* ------------------------------- Figure 2 -------------------------- *)

type fig2 = {
  f2_speedups : float array;
  f2_android_ms : float;
}

let fig2 ?(binaries = 50) ?(seed = 11) ?jobs ?cache () =
  let env = fft_env ~seed () in
  let pool = Pipeline.make_core_pool ?jobs ?cache env in
  let rng = Rng.create (seed * 77 + 3) in
  let cost = Cost.default in
  let speedups = ref [] in
  let found = ref 0 in
  let attempts = ref 0 in
  (* Same genome stream and stopping rule as a sequential draw-until-found
     loop, evaluated one chunk (batch) at a time; results past the stopping
     point are discarded in order, so the chunk size cannot matter. *)
  let max_attempts = binaries * 20 in
  while !found < binaries && !attempts < max_attempts do
    let chunk = min binaries (max_attempts - !attempts) in
    let tasks =
      Array.of_list
        (List.mapi (fun i g -> (!attempts + i + 1, g)) (draw_genomes rng chunk))
    in
    let outcomes = classify pool tasks in
    Array.iter
      (fun outcome ->
         if !found < binaries && !attempts < max_attempts then begin
           incr attempts;
           match outcome with
           | F1_correct, Some cycles ->
             let ms =
               float_of_int cycles /. float_of_int cost.Cost.cycles_per_ms
             in
             speedups := (env.Pipeline.android_region_ms /. ms) :: !speedups;
             incr found
           | _ -> ()
         end)
      outcomes
  done;
  let arr = Array.of_list !speedups in
  Array.sort compare arr;
  { f2_speedups = arr; f2_android_ms = env.Pipeline.android_region_ms }

let print_fig2 f =
  print_endline
    "Figure 2. Replay speedup over the Android compiler for randomly";
  print_endline "generated correct FFT binaries (sorted ascending).";
  let n = Array.length f.f2_speedups in
  let slower =
    Array.fold_left (fun acc s -> if s < 1.0 then acc + 1 else acc) 0
      f.f2_speedups
  in
  Array.iteri
    (fun i s -> if i mod 5 = 0 || i = n - 1 then
        Printf.printf "  #%02d  %s\n" (i + 1) (Table.fmt_speedup s))
    f.f2_speedups;
  if n > 0 then begin
    Printf.printf "  min %s / median %s / max %s; %d of %d slower than Android\n"
      (Table.fmt_speedup f.f2_speedups.(0))
      (Table.fmt_speedup (Stats.median f.f2_speedups))
      (Table.fmt_speedup f.f2_speedups.(n - 1))
      slower n
  end

(* ------------------------------- Figure 3 -------------------------- *)

type fig3_row = {
  f3_evals : int;
  f3_online : float;
  f3_online_lo75 : float;
  f3_online_hi75 : float;
  f3_online_lo95 : float;
  f3_online_hi95 : float;
  f3_offline : float;
}

type fig3 = {
  f3_rows : fig3_row list;
  f3_true_speedup : float;
  f3_online_settle : int option;
  f3_offline_settle : int option;
}

(* FFT with a configurable input size: the template is the registry source
   with the size constant substituted. *)
let replace_once ~needle ~replacement haystack =
  match Astring.String.find_sub ~sub:needle haystack with
  | None -> invalid_arg "replace_once: needle absent"
  | Some i ->
    String.sub haystack 0 i ^ replacement
    ^ String.sub haystack
        (i + String.length needle)
        (String.length haystack - i - String.length needle)

let fft_sized_source size =
  replace_once ~needle:"static int size = 256;"
    ~replacement:(Printf.sprintf "static int size = %d;" size)
    (Option.get (App.find "FFT")).App.source

let fig3_sizes = [ 64; 128; 256; 512; 1024 ]

let fig3_cycles () =
  (* real executions: whole-program cycles for O0 and O1 region code at each
     input size *)
  List.map
    (fun size ->
       let dx = Repro_dex.Lower.compile (fft_sized_source size) in
       let mids =
         Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods)
       in
       let android = Compile.android_binary dx mids in
       let region =
         List.filter
           (fun mid ->
              let m = dx.B.dx_methods.(mid) in
              m.B.cm_class_name = "FFT")
           mids
       in
       let fe = Compile.frontend dx in
       let with_region spec =
         Binary.overlay android (Compile.llvm_binary fe spec region)
       in
       let run binary =
         let ctx = Repro_vm.Image.build ~seed:5 dx in
         Repro_lir.Exec.install ctx binary;
         ignore (Repro_vm.Interp.run_main ctx);
         ctx.Repro_vm.Exec_ctx.cycles
       in
       (size, run (with_region Repro_lir.Pipelines.o0),
        run (with_region Repro_lir.Pipelines.o1)))
    fig3_sizes

let online_sigma = 0.10

let fig3 ?(max_evals = 10_000) ?(trajectories = 200) ?(seed = 3) () =
  let cycles = fig3_cycles () in
  let arr = Array.of_list cycles in
  let _, c0_max, c1_max = arr.(Array.length arr - 1) in
  let truth = float_of_int c0_max /. float_of_int c1_max in
  let cpms = float_of_int Cost.default.Cost.cycles_per_ms in
  let checkpoints =
    let rec grow acc v =
      if v > max_evals then List.rev acc
      else grow (v :: acc) (max (v + 1) (v * 14 / 10))
    in
    grow [] 1
  in
  (* one estimator trajectory: speedup(O1 over O0) per checkpoint, from
     alternating O0/O1 runs whose cycle counts [cycles rng] picks and
     whose times carry lognormal noise of [sigma] *)
  let trajectory ~cycles ~sigma rng =
    let sum0 = ref 0.0 and n0 = ref 0 in
    let sum1 = ref 0.0 and n1 = ref 0 in
    let results = ref [] in
    let next_cp = ref checkpoints in
    for i = 1 to max_evals do
      let c0, c1 = cycles rng in
      let version_o0 = i mod 2 = 0 in
      let c = if version_o0 then c0 else c1 in
      let t = float_of_int c /. cpms *. Rng.lognormal rng ~mu:0.0 ~sigma in
      if version_o0 then begin
        sum0 := !sum0 +. t;
        incr n0
      end
      else begin
        sum1 := !sum1 +. t;
        incr n1
      end;
      (match !next_cp with
       | cp :: rest when cp = i ->
         let est =
           if !n0 = 0 || !n1 = 0 then nan
           else (!sum0 /. float_of_int !n0) /. (!sum1 /. float_of_int !n1)
         in
         results := est :: !results;
         next_cp := rest
       | _ -> ())
    done;
    Array.of_list (List.rev !results)
  in
  (* online: a random input size per run, noisy device *)
  let online_trajectory =
    trajectory ~sigma:online_sigma ~cycles:(fun rng ->
        let _, c0, c1 = Rng.pick rng arr in
        (c0, c1))
  in
  (* offline: fixed largest input, idle device, pinned frequency *)
  let offline_trajectory =
    trajectory ~sigma:0.012 ~cycles:(fun _ -> (c0_max, c1_max))
  in
  let rng = Rng.create seed in
  let main_online = online_trajectory (Rng.split rng) in
  let main_offline = offline_trajectory (Rng.split rng) in
  let fleet =
    Array.init trajectories (fun _ -> online_trajectory (Rng.split rng))
  in
  let rows =
    List.mapi
      (fun idx cp ->
         let column =
           Array.map
             (fun traj -> if idx < Array.length traj then traj.(idx) else nan)
             fleet
           |> Array.to_list
           |> List.filter (fun x -> not (Float.is_nan x))
           |> Array.of_list
         in
         { f3_evals = cp;
           f3_online = (if idx < Array.length main_online then main_online.(idx) else nan);
           f3_online_lo75 = Stats.percentile column 12.5;
           f3_online_hi75 = Stats.percentile column 87.5;
           f3_online_lo95 = Stats.percentile column 2.5;
           f3_online_hi95 = Stats.percentile column 97.5;
           f3_offline = (if idx < Array.length main_offline then main_offline.(idx) else nan) })
      checkpoints
  in
  let settle series =
    (* first checkpoint from which the estimate stays within 10% of truth *)
    let ok v = (not (Float.is_nan v)) && abs_float (v -. truth) /. truth <= 0.1 in
    let rec scan = function
      | [] -> None
      | (cp, _) :: _ as rest when List.for_all (fun (_, v) -> ok v) rest ->
        Some cp
      | _ :: rest -> scan rest
    in
    scan (List.map2 (fun cp row -> (cp, row)) checkpoints series)
  in
  { f3_rows = rows;
    f3_true_speedup = truth;
    f3_online_settle = settle (List.map (fun r -> r.f3_online) rows);
    f3_offline_settle = settle (List.map (fun r -> r.f3_offline) rows) }

let print_fig3 f =
  print_endline
    "Figure 3. Estimating the speedup of LLVM -O1 over -O0 for FFT as the";
  print_endline
    "number of evaluations grows.  Online draws random input sizes in a";
  print_endline "noisy environment; offline replays the largest input.";
  Printf.printf "true speedup (largest input): %s\n" (Table.fmt_speedup f.f3_true_speedup);
  Table.print
    ~header:[ "evals"; "online est"; "75% band"; "95% band"; "offline est" ]
    (List.map
       (fun r ->
          [ string_of_int r.f3_evals;
            Table.fmt_f r.f3_online;
            Printf.sprintf "[%s, %s]" (Table.fmt_f r.f3_online_lo75)
              (Table.fmt_f r.f3_online_hi75);
            Printf.sprintf "[%s, %s]" (Table.fmt_f r.f3_online_lo95)
              (Table.fmt_f r.f3_online_hi95);
            Table.fmt_f r.f3_offline ])
       f.f3_rows);
  let show = function None -> ">max" | Some n -> string_of_int n in
  Printf.printf
    "evaluations until the estimate stays within 10%%: online %s, offline %s\n"
    (show f.f3_online_settle) (show f.f3_offline_settle)

(* ----------------------------- Figures 7/8/9 ----------------------- *)

type fig7_row = {
  f7_app : string;
  f7_cls : string;
  f7_o3 : float;
  f7_ga : float;
}

type study = {
  st_app : App.t;
  st_opt : Pipeline.optimized;
  st_speedups : Pipeline.speedups;
}

let studies ?cfg ?(seed = 7) ?apps ?jobs ?cache () =
  List.filter_map
    (fun app ->
       Pipeline.start ?jobs ?cache (Pipeline.request ~seed ?cfg app)
       |> Option.map (fun (_, session) ->
           let opt = Pipeline.run_session session in
           { st_app = app; st_opt = opt;
             st_speedups = Pipeline.measure_speedups app opt }))
    (apps_of ?apps ())

let fig7 studies =
  List.map
    (fun s ->
       { f7_app = s.st_app.App.name;
         f7_cls = App.class_name s.st_app.App.cls;
         f7_o3 = s.st_speedups.Pipeline.o3_speedup;
         f7_ga = s.st_speedups.Pipeline.ga_speedup })
    studies

let print_fig7 rows =
  print_endline
    "Figure 7. Whole-program speedup over the Android compiler.";
  Table.print ~header:[ "App"; "Type"; "LLVM -O3"; "LLVM GA" ]
    (List.map
       (fun r ->
          [ r.f7_app; r.f7_cls; Table.fmt_speedup r.f7_o3;
            Table.fmt_speedup r.f7_ga ])
       rows);
  let o3s = List.map (fun r -> r.f7_o3) rows in
  let gas = List.map (fun r -> r.f7_ga) rows in
  Printf.printf "AVERAGE: LLVM -O3 %s, LLVM GA %s over the Android compiler\n"
    (Table.fmt_speedup (average o3s))
    (Table.fmt_speedup (average gas))

type fig8_row = {
  f8_app : string;
  f8_fractions : (string * float) list;
}

let fig8 ?(seed = 7) ?apps () =
  List.filter_map
    (fun app ->
       let online = Pipeline.online_run ~seed app in
       let region =
         match Pipeline.hot_region_of app online with
         | Some hot -> Pipeline.region_methods app hot
         | None -> []
       in
       let fractions =
         Breakdown.of_profile (App.dexfile app) ~region online.Pipeline.profile
         |> List.map (fun (c, f) -> (Breakdown.category_name c, f))
       in
       Some { f8_app = app.App.name; f8_fractions = fractions })
    (apps_of ?apps ())

let print_fig8 rows =
  print_endline
    "Figure 8. Runtime code breakdown (sample-based profile, online).";
  let header =
    "App" :: List.map fst (match rows with r :: _ -> r.f8_fractions | [] -> [])
  in
  Table.print ~header
    (List.map
       (fun r -> r.f8_app :: List.map (fun (_, f) -> Table.fmt_pct f) r.f8_fractions)
       rows);
  (match rows with
   | [] -> ()
   | r0 :: _ ->
     let cats = List.map fst r0.f8_fractions in
     let avg cat =
       average
         (List.map (fun r -> List.assoc cat r.f8_fractions) rows)
     in
     Printf.printf "AVERAGE: %s\n"
       (String.concat "  "
          (List.map (fun c -> Printf.sprintf "%s %s" c (Table.fmt_pct (avg c))) cats)))

type fig9_point = {
  f9_generation : int;
  f9_best : float;
  f9_worst : float;
}

type fig9_row = { f9_app : string; f9_points : fig9_point list }

let fig9 studies =
  List.map
    (fun s ->
       let android_ms = s.st_opt.Pipeline.env.Pipeline.android_region_ms in
       let by_gen = Hashtbl.create 16 in
       List.iter
         (fun ev ->
            match ev.Ga.ev_fitness with
            | None -> ()
            | Some fit ->
              let sp = android_ms /. fit in
              let g = ev.Ga.ev_generation in
              let best, worst =
                Option.value ~default:(neg_infinity, infinity)
                  (Hashtbl.find_opt by_gen g)
              in
              Hashtbl.replace by_gen g (max best sp, min worst sp))
         s.st_opt.Pipeline.ga.Ga.history;
       let gens =
         Hashtbl.fold (fun g _ acc -> g :: acc) by_gen [] |> List.sort compare
       in
       (* best line is cumulative (best genome so far) *)
       let points =
         let best_so_far = ref neg_infinity in
         List.map
           (fun g ->
              let best, worst = Hashtbl.find by_gen g in
              best_so_far := max !best_so_far best;
              { f9_generation = g; f9_best = !best_so_far; f9_worst = worst })
           gens
       in
       { f9_app = s.st_app.App.name; f9_points = points })
    studies

let print_fig9 rows =
  print_endline
    "Figure 9. Best/worst measured genome per generation (speedup over";
  print_endline "the Android compiler, hot region replay).";
  List.iter
    (fun r ->
       Printf.printf "%s:\n" r.f9_app;
       Table.print ~header:[ "generation"; "best"; "worst" ]
         (List.map
            (fun p ->
               [ string_of_int p.f9_generation;
                 Table.fmt_speedup p.f9_best;
                 Table.fmt_speedup p.f9_worst ])
            r.f9_points))
    rows

(* ----------------------------- Figures 10/11 ----------------------- *)

type fig10_row = {
  f10_app : string;
  f10_fork : float;
  f10_prep : float;
  f10_faults_cow : float;
  f10_total : float;
}

let fig10 ?(seed = 7) ?(eager = false) ?apps () =
  List.filter_map
    (fun app ->
       match Pipeline.capture_once ~seed ~eager app with
       | None -> None
       | Some cap ->
         let o = cap.Pipeline.overhead in
         Some
           { f10_app = app.App.name;
             f10_fork = o.Capture.fork_ms;
             f10_prep = o.Capture.preparation_ms;
             f10_faults_cow = o.Capture.fault_cow_ms;
             f10_total = Capture.total_ms o })
    (apps_of ?apps ())

let print_fig10 rows =
  print_endline
    "Figure 10. Online capture overhead breakdown (milliseconds).";
  Table.print
    ~header:[ "App"; "Fork"; "Preparation"; "Faults+CoW"; "Total" ]
    (List.map
       (fun r ->
          [ r.f10_app; Table.fmt_f ~decimals:1 r.f10_fork;
            Table.fmt_f ~decimals:1 r.f10_prep;
            Table.fmt_f ~decimals:1 r.f10_faults_cow;
            Table.fmt_f ~decimals:1 r.f10_total ])
       rows);
  Printf.printf "AVERAGE total: %.1f ms (max %.1f ms)\n"
    (average (List.map (fun r -> r.f10_total) rows))
    (List.fold_left (fun acc r -> max acc r.f10_total) 0.0 rows)

type fig11_row = {
  f11_app : string;
  f11_program_mb : float;
  f11_common_mb : float;
}

let fig11 ?(seed = 7) ?apps () =
  List.filter_map
    (fun app ->
       match Pipeline.capture_once ~seed app with
       | None -> None
       | Some cap ->
         let snap = cap.Pipeline.snapshot in
         Some
           { f11_app = app.App.name;
             f11_program_mb =
               float_of_int (Snapshot.program_bytes snap) /. 1048576.0;
             f11_common_mb =
               float_of_int (Snapshot.common_bytes snap) /. 1048576.0 })
    (apps_of ?apps ())

let print_fig11 rows =
  print_endline
    "Figure 11. Capture storage: program-specific pages vs boot-common";
  print_endline "pages (stored once per boot).";
  Table.print ~header:[ "App"; "Program (MB)"; "Common (MB)" ]
    (List.map
       (fun r ->
          [ r.f11_app; Table.fmt_f r.f11_program_mb; Table.fmt_f r.f11_common_mb ])
       rows);
  Printf.printf "AVERAGE program-specific: %.2f MB\n"
    (average (List.map (fun r -> r.f11_program_mb) rows))

(* ------------------ unsafe-pass survival vs corpus size ------------- *)

(* The experiment the paper does not have: how many unsafe binaries does
   single-input verification let through, and how fast does a multi-input
   corpus close the hole?  For every Scimark app and a fixed family of
   unsafe genomes, find the smallest corpus size K at which verification
   rejects the binary.  Fitness never enters: this is purely about the
   verification net. *)

type survival_genome = {
  sg_app : string;
  sg_label : string;
  sg_killed_at : int option;
  (* smallest K whose corpus rejects it: 1 = primary capture already
     catches it; None = survives the whole corpus *)
}

type survival_point = { sp_k : int; sp_tested : int; sp_survived : int }

type survival = {
  su_seed : int;
  su_kmax : int;
  su_points : survival_point list;         (* k = 1..kmax *)
  su_genomes : survival_genome list;
  su_pinned_killed_at : int option;        (* o2+unsafe-bce on FFT *)
  su_corpus_entries : int;                 (* secondary captures made *)
  su_capture_ms : float;                   (* mean online ms per secondary capture *)
  su_corpus_checks : int;                  (* corpus checks run (after short-circuit) *)
}

let survival_genomes () =
  let of_spec label spec =
    (label,
     List.map
       (fun (name, ps) -> { Genome.g_pass = name; g_params = ps })
       spec)
  in
  let o2 = Repro_lir.Pipelines.o2 in
  [ of_spec "o2+unsafe-bce" (o2 @ [ ("unsafe-bce", [||]) ]);
    of_spec "o2+unsafe-null-elim" (o2 @ [ ("unsafe-null-elim", [||]) ]);
    of_spec "o2+unsafe-div-lower" (o2 @ [ ("unsafe-div-lower", [||]) ]);
    of_spec "o2+unsafe-lsf" (o2 @ [ ("unsafe-lsf", [||]) ]);
    of_spec "o2+unsafe-licm" (o2 @ [ ("unsafe-licm", [||]) ]);
    of_spec "o2+fast-math" (o2 @ [ ("fast-math", [| 1; 1 |]) ]);
    of_spec "o2+fast-math:recip" (o2 @ [ ("fast-math", [| 1; 0 |]) ]);
    of_spec "o2+fast-math:contract" (o2 @ [ ("fast-math", [| 0; 1 |]) ]);
    of_spec "o2+unsafe-bce+fast-math"
      (o2 @ [ ("unsafe-bce", [||]); ("fast-math", [| 1; 1 |]) ]);
    of_spec "unsafe-bce-only" [ ("unsafe-bce", [||]) ] ]

let pinned_unsafe_genome () = List.assoc "o2+unsafe-bce" (survival_genomes ())

(* First corpus size K at which the binary is rejected: primary check
   first (K=1), then the corpus entries in order (entry i covers K=i+1).
   Adds every corpus check it actually runs to [checks]. *)
let killed_at env checks binary =
  let verdict, ran =
    Pipeline.check_corpus env (Repro_lir.Blockexec.load binary)
  in
  checks := !checks + ran;
  match verdict with
  | Repro_capture.Verify.Passed _ -> None
  | _ -> Some (ran + 1)

let scimark_names =
  [ "FFT"; "SOR"; "MonteCarlo"; "Sparse matmult"; "LU" ]

let survival ?(seed = 7) ?(apps = scimark_names) () =
  let kmax = 8 in
  let checks = ref 0 in
  let entries = ref 0 in
  let capture_ms = ref [] in
  let genomes =
    List.concat_map
      (fun app ->
         match Pipeline.capture_corpus ~seed ~k:kmax app with
         | None -> []
         | Some co ->
           entries := !entries + List.length co.Pipeline.co_entries;
           List.iter
             (fun ce ->
                capture_ms :=
                  Capture.total_ms ce.Pipeline.ce_overhead :: !capture_ms)
             co.Pipeline.co_entries;
           let env =
             Pipeline.make_eval_env ~seed:(seed + 1)
               ~corpus:co.Pipeline.co_entries app co.Pipeline.co_primary
           in
           List.filter_map
             (fun (label, genome) ->
                match Pipeline.compile_core env genome with
                | Error _ -> None
                | Ok binary ->
                  Some
                    { sg_app = app.App.name;
                      sg_label = label;
                      sg_killed_at = killed_at env checks binary })
             (survival_genomes ()))
      (apps_of ~apps ())
  in
  let tested = List.length genomes in
  let points =
    List.init kmax (fun i ->
        let k = i + 1 in
        let survived =
          List.length
            (List.filter
               (fun g ->
                  match g.sg_killed_at with
                  | None -> true
                  | Some kk -> kk > k)
               genomes)
        in
        { sp_k = k; sp_tested = tested; sp_survived = survived })
  in
  let pinned =
    List.find_opt
      (fun g -> g.sg_app = "FFT" && g.sg_label = "o2+unsafe-bce")
      genomes
  in
  { su_seed = seed;
    su_kmax = kmax;
    su_points = points;
    su_genomes = genomes;
    su_pinned_killed_at = Option.bind pinned (fun g -> g.sg_killed_at);
    su_corpus_entries = !entries;
    su_capture_ms = average !capture_ms;
    su_corpus_checks = !checks }

let print_survival s =
  print_endline
    "Unsafe-pass survival vs corpus size K (cross-input verification).";
  Printf.printf "seed %d, %d (app, genome) pairs, %d secondary captures\n"
    s.su_seed
    (List.length s.su_genomes)
    s.su_corpus_entries;
  Table.print ~header:[ "K"; "Tested"; "Survive"; "Rate" ]
    (List.map
       (fun p ->
          [ string_of_int p.sp_k; string_of_int p.sp_tested;
            string_of_int p.sp_survived;
            Table.fmt_f ~decimals:1
              (100.0 *. float_of_int p.sp_survived
               /. float_of_int (max 1 p.sp_tested)) ])
       s.su_points);
  Table.print ~header:[ "App"; "Genome"; "Killed at K" ]
    (List.map
       (fun g ->
          [ g.sg_app; g.sg_label;
            (match g.sg_killed_at with
             | Some k -> string_of_int k
             | None -> "never") ])
       s.su_genomes);
  (match s.su_pinned_killed_at with
   | Some k ->
     Printf.printf
       "pinned o2+unsafe-bce on FFT: passes K<%d, rejected at K=%d\n" k k
   | None ->
     print_endline "pinned o2+unsafe-bce on FFT: NOT killed (hole open!)");
  Printf.printf
    "corpus cost: %.1f ms mean online overhead per secondary capture; \
     %d corpus checks\n"
    s.su_capture_ms s.su_corpus_checks
