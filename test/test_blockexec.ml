(* The differential net for the block-fused execution engine: every
   observable of a replay — outcome class, crash message, return value,
   cycle count (also at crash time), dirty memory, block stream, profiler
   samples — must be byte-identical between Repro_lir.Exec (reference)
   and Repro_lir.Blockexec (fused), for conforming and non-conforming code
   alike.  The fused engine's exact path runs Exec's own instruction code,
   so what this net guards is what the fused engine adds: fusion,
   straightening, the headroom proof, the flush on exceptions and the
   fast-path twins.  A qcheck campaign sweeps random genomes over registry
   apps and corpus inputs; pinned cases cover the spots where the fused
   engine could legally have diverged: a branch into the middle of a
   fusible pair, a dispatch target missing from the graph, fuel
   exhaustion inside a hoisted segment, every segment of whole O2/O3
   replays on the exact path, guard-stripped binaries on adversarial
   inputs, injected executor faults, one plan per load, overlays, and the
   sampling-profiler fallback. *)

module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Hir = Repro_hgraph.Hir
module Vm = Repro_vm
module Ctx = Repro_vm.Exec_ctx
module Value = Repro_vm.Value
module Lir = Repro_lir
module Binary = Repro_lir.Binary
module Exec = Repro_lir.Exec
module Blockexec = Repro_lir.Blockexec
module Blockplan = Repro_lir.Blockplan
module Replay = Repro_capture.Replay
module Verify = Repro_capture.Verify
module App = Repro_apps.Registry
module Pipeline = Repro_core.Pipeline
module Genome = Repro_search.Genome
module Rng = Repro_util.Rng
module Trace = Repro_util.Trace
module Faults = Repro_util.Faults

let campaign_count =
  match Option.bind (Sys.getenv_opt "BLOCKEXEC_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 200

(* ------------------------- lockstep machinery ----------------------- *)

(* Collect the (mid, bid, cycles) stream both engines publish through
   Exec.block_hook.  On divergence the first differing entry names the
   exact block where the engines parted ways. *)
let with_block_stream f =
  let stream = ref [] in
  Exec.block_hook := Some (fun mid bid cyc -> stream := (mid, bid, cyc) :: !stream);
  Fun.protect ~finally:(fun () -> Exec.block_hook := None) f;
  List.rev !stream

let show_entry (mid, bid, cyc) = Printf.sprintf "m%d:b%d@%d" mid bid cyc

let first_divergence ref_s fused_s =
  let rec go i = function
    | [], [] -> None
    | a :: _, [] -> Some (i, Some a, None)
    | [], b :: _ -> Some (i, None, Some b)
    | a :: ra, b :: rb ->
      if a = b then go (i + 1) (ra, rb) else Some (i, Some a, Some b)
  in
  go 0 (ref_s, fused_s)

let dump_block dx (binary : Binary.t) (mid, bid, _) =
  let _ = dx in
  match Binary.find binary mid with
  | None -> Printf.sprintf "m%d not in binary" mid
  | Some f ->
    (match Hashtbl.find_opt f.Hir.f_blocks bid with
     | None -> Printf.sprintf "m%d (%s): no block b%d" mid f.Hir.f_name bid
     | Some b ->
       Printf.sprintf "m%d (%s) b%d:\n  %s\n  %s" mid f.Hir.f_name bid
         (String.concat "\n  " (List.map Hir.string_of_instr b.Hir.insns))
         (Hir.string_of_term b.Hir.term))

(* ------------------------ replay comparison ------------------------- *)

let show_outcome = function
  | Replay.Finished (v, cyc) ->
    Printf.sprintf "finished(%s, %d cycles)"
      (match v with Some v -> Value.to_string v | None -> "()")
      cyc
  | Replay.Crashed msg -> Printf.sprintf "crashed(%s)" msg
  | Replay.Hung -> "hung"

let outcome_eq a b =
  match a, b with
  | Replay.Finished (va, ca), Replay.Finished (vb, cb) ->
    ca = cb
    && (match va, vb with
        | None, None -> true
        | Some x, Some y -> Value.equal x y
        | Some _, None | None, Some _ -> false)
  | Replay.Crashed ma, Replay.Crashed mb -> String.equal ma mb
  | Replay.Hung, Replay.Hung -> true
  | _ -> false

(* Run the same (dx, snapshot, binary) replay under both engines and
   explain the first divergent block if any observable differs.  Compares
   outcome, post-replay cycle counter (exact also for crashes and
   timeouts), the dirty heap/static words and the block stream. *)
let compare_replay ?fuel ?faults_key ~what dx snap binary =
  let loaded = Blockexec.load binary in
  let replay engine () =
    Replay.run ?fuel ?faults_key ~engine dx snap (Replay.Optimized loaded)
  in
  let sref = ref [] and sfused = ref [] in
  let rref = ref None and rfused = ref None in
  sref := with_block_stream (fun () -> rref := Some (replay Blockexec.Ref ()));
  sfused :=
    with_block_stream (fun () -> rfused := Some (replay Blockexec.Fused ()));
  let rr = Option.get !rref and rf = Option.get !rfused in
  let explain problem =
    let where =
      match first_divergence !sref !sfused with
      | None -> "block streams identical"
      | Some (i, a, b) ->
        let side name binary = function
          | None -> Printf.sprintf "%s: <stream ended>" name
          | Some e ->
            Printf.sprintf "%s: %s\n%s" name (show_entry e)
              (dump_block dx binary e)
        in
        Printf.sprintf "first divergent block at step %d\n%s\n%s" i
          (side "ref" binary a) (side "fused" binary b)
    in
    Alcotest.fail
      (Printf.sprintf "%s: %s\nref:   %s\nfused: %s\n%s" what problem
         (show_outcome rr.Replay.outcome) (show_outcome rf.Replay.outcome)
         where)
  in
  if not (outcome_eq rr.Replay.outcome rf.Replay.outcome) then
    explain "outcomes differ";
  if rr.Replay.ctx.Ctx.cycles <> rf.Replay.ctx.Ctx.cycles then
    explain
      (Printf.sprintf "post-replay cycles differ (ref %d, fused %d)"
         rr.Replay.ctx.Ctx.cycles rf.Replay.ctx.Ctx.cycles);
  let dref = Verify.diff_against_snapshot rr.Replay.ctx snap in
  let dfused = Verify.diff_against_snapshot rf.Replay.ctx snap in
  if dref <> dfused then explain "dirty heap/static words differ";
  if !sref <> !sfused then explain "block streams differ"

(* --------------------- shared app/corpus fixtures ------------------- *)

(* Captures and eval environments are expensive; build once per app. *)
let fixture_cache : (string, App.t * Pipeline.corpus * Pipeline.evaluation_env)
    Hashtbl.t =
  Hashtbl.create 4

let fixture name =
  match Hashtbl.find_opt fixture_cache name with
  | Some f -> f
  | None ->
    let app = Option.get (App.find name) in
    let co = Option.get (Pipeline.capture_corpus ~seed:7 ~k:2 app) in
    let env =
      Pipeline.make_eval_env ~seed:23 ~corpus:co.Pipeline.co_entries app
        co.Pipeline.co_primary
    in
    let f = (app, co, env) in
    Hashtbl.replace fixture_cache name f;
    f

let campaign_apps = [ "FFT"; "LU"; "SOR" ]

(* The primary capture and every corpus input, labelled. *)
let snapshots co =
  ("primary", co.Pipeline.co_primary.Pipeline.snapshot)
  :: List.map
       (fun ce -> (ce.Pipeline.ce_input.App.in_label, ce.Pipeline.ce_snapshot))
       co.Pipeline.co_entries

(* ------------------------- qcheck campaign -------------------------- *)

(* Random (app, genome, input) triples: compile the genome for the app's
   hot region, then replay the primary capture and every corpus input
   under both engines.  Genomes come from the full GA gene pool, so the
   campaign routinely produces unsafe binaries that crash or loop — the
   property holds for those too (identical crash/hang, identical
   crash-time cycles). *)
let campaign =
  QCheck.Test.make ~name:"engines bit-identical on random genomes"
    ~count:campaign_count
    QCheck.(pair (int_bound 1_000_000) (int_bound 1000))
    (fun (genome_seed, pick) ->
       let name = List.nth campaign_apps (pick mod List.length campaign_apps) in
       let app, co, env = fixture name in
       let _ = app in
       let genome = Genome.random (Rng.create genome_seed) in
       match Pipeline.compile_core env genome with
       | Error _ -> true (* nothing to execute *)
       | Ok binary ->
         List.iter
           (fun (label, snap) ->
              compare_replay
                ~what:
                  (Printf.sprintf "%s/%s genome=%s" name label
                     (Genome.to_string genome))
                env.Pipeline.dx snap binary)
           (snapshots co);
         true)

(* ------------------ pinned: every segment on the exact path ---------- *)

(* The exact path (the reference's own instruction code, fused pairs
   expanded) is otherwise reached only at the fuel boundary.  Here every
   function of the campaign apps' O2 and O3 binaries gets an unreachable
   block naming a register outside its file, so the register-range proof
   fails on every plan and whole replays of the primary and corpus inputs
   run every segment exactly.  The pressure cache is pre-filled with the
   clean function's, so only the proof changes. *)
let poison (f : Hir.func) =
  let g = Hir.copy f in
  g.Hir.f_pressure <- f.Hir.f_pressure;
  ignore
    (Hir.add_block g [ Hir.Move (g.Hir.f_nregs + 3, 0) ] (Hir.Ret None));
  g

let test_exact_path_everywhere () =
  List.iter
    (fun name ->
       let _, co, env = fixture name in
       List.iter
         (fun (level, spec) ->
            let clean =
              Lir.Compile.llvm_binary env.Pipeline.frontend spec
                env.Pipeline.region
            in
            let binary =
              Binary.create
                (List.map
                   (fun mid -> poison (Option.get (Binary.find clean mid)))
                   (Binary.mids clean))
            in
            let what = Printf.sprintf "%s %s exact path" name level in
            let plan = Blockplan.build Vm.Cost.default binary in
            Alcotest.(check bool) (what ^ ": plans built") true
              (Hashtbl.length plan.Blockplan.pl_funcs > 0);
            Hashtbl.iter
              (fun _ fp ->
                 Alcotest.(check bool) (what ^ ": no register proof") false
                   fp.Blockplan.fp_regs_ok)
              plan.Blockplan.pl_funcs;
            List.iter
              (fun (label, snap) ->
                 compare_replay ~what:(Printf.sprintf "%s, %s" what label)
                   env.Pipeline.dx snap binary)
              (snapshots co))
         [ ("O2", Lir.Pipelines.o2); ("O3", Lir.Pipelines.o3) ])
    campaign_apps

(* ----------------- pinned: branch into a fusible pair --------------- *)

(* Hand-built graph: the GuardNull/LoadLen pair is split across blocks b1
   (guard) and b3 (access), and b3 is *also* entered directly from b2 —
   the layout where fusing across the seam would execute the guard on a
   path that never had one.  The plan must keep the halves unfused
   (ops_fused = 0) yet execute both entry paths bit-identically.  The
   same access sequence inside one block must fuse (ops_fused > 0) and
   still agree. *)
let two_path_func ~mid ~split =
  let f =
    { Hir.f_mid = mid; f_name = "two_path"; f_nparams = 0; f_nregs = 8;
      f_blocks = Hashtbl.create 8; f_entry = 0; f_next_bid = 0;
      f_pressure = None }
  in
  (* b0 *)
  ignore
    (Hir.add_block f
       [ Hir.Const (0, B.Cint 4);      (* array length *)
         Hir.NewArr (1, B.Kint, 0);
         Hir.Const (2, B.Cint 1) ]     (* branch selector *)
       (Hir.If (B.Cne, 2, None, 1, 2, Hir.Predict_none)));
  if split then begin
    (* b1: guard only, fall through to the access block *)
    ignore (Hir.add_block f [ Hir.GuardNull 1 ] (Hir.Goto 3));
    (* b2: skips the guard, enters the access block mid-"pair" *)
    ignore (Hir.add_block f [ Hir.Const (3, B.Cint 0) ] (Hir.Goto 3));
    (* b3: the access half *)
    ignore (Hir.add_block f [ Hir.LoadLen (4, 1) ] (Hir.Ret (Some 4)))
  end
  else begin
    (* same work, pair adjacent in one block: must fuse *)
    ignore
      (Hir.add_block f [ Hir.GuardNull 1; Hir.LoadLen (4, 1) ]
         (Hir.Ret (Some 4)));
    ignore (Hir.add_block f [ Hir.Const (3, B.Cint 0) ] (Hir.Goto 1));
    ignore (Hir.add_block f [ Hir.LoadLen (4, 1) ] (Hir.Ret (Some 4)))
  end;
  f

(* A dexfile to host hand-built mains: classes/statics/main id come from a
   trivial MiniDex program; we overlay our graph on its main method id. *)
let host_dx () =
  Repro_dex.Lower.compile
    "class Main { static int main() { return 0; } }"

let run_engine engine dx binary =
  let ctx = Vm.Image.build ~seed:7 dx in
  Blockexec.install_engine engine ctx (Blockexec.load binary);
  match Vm.Interp.run_main ctx with
  | r -> (`Ret r, ctx.Ctx.cycles, ctx)
  | exception Ctx.App_exception code -> (`Exc code, ctx.Ctx.cycles, ctx)
  | exception Exec.Segfault msg -> (`Segv msg, ctx.Ctx.cycles, ctx)
  | exception Ctx.Timeout -> (`Timeout, ctx.Ctx.cycles, ctx)
  | exception Invalid_argument msg -> (`Invalid msg, ctx.Ctx.cycles, ctx)

let agree ~what dx binary =
  let r1, c1, _ = run_engine Blockexec.Ref dx binary in
  let r2, c2, _ = run_engine Blockexec.Fused dx binary in
  Alcotest.(check bool) (what ^ ": results agree") true (r1 = r2);
  Alcotest.(check int) (what ^ ": cycles agree") c1 c2

let fused_count f =
  Trace.enable ();
  Trace.reset ();
  ignore (Blockplan.build Vm.Cost.default (Binary.create [ f ]));
  let n = Trace.counter_value "blockexec.ops_fused" in
  Trace.reset ();
  Trace.disable ();
  n

let test_branch_into_pair () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let split = two_path_func ~mid ~split:true in
  let joined = two_path_func ~mid ~split:false in
  Alcotest.(check int) "cross-seam pair is not fused" 0
    (fused_count (Hir.copy split));
  Alcotest.(check bool) "same-block pair fuses" true
    (fused_count (Hir.copy joined) >= 1);
  agree ~what:"split layout" dx (Binary.create [ split ]);
  agree ~what:"joined layout" dx (Binary.create [ joined ])

(* A dispatch target the graph does not contain must fail with the
   reference's exact Hir.block message, from both engines. *)
let test_missing_block () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let f =
    { Hir.f_mid = mid; f_name = "missing"; f_nparams = 0; f_nregs = 4;
      f_blocks = Hashtbl.create 4; f_entry = 0; f_next_bid = 0;
      f_pressure = None }
  in
  ignore
    (Hir.add_block f [ Hir.Const (0, B.Cint 1) ]
       (Hir.If (B.Cne, 0, None, 7, 0, Hir.Predict_none)));
  f.Hir.f_next_bid <- 8;  (* target 7 is in range but absent *)
  (* pre-fill the pressure cache: Analysis.pressure walks the CFG and
     would itself trip over the dangling edge at Binary.create time *)
  f.Hir.f_pressure <- Some 0;
  let binary = Binary.create [ f ] in
  let r1, c1, _ = run_engine Blockexec.Ref dx binary in
  let r2, c2, _ = run_engine Blockexec.Fused dx binary in
  (match r1 with
   | `Invalid msg ->
     Alcotest.(check bool) "Hir.block message" true
       (String.length msg >= 9 && String.sub msg 0 9 = "Hir.block")
   | _ -> Alcotest.fail "reference did not raise Invalid_argument");
  Alcotest.(check bool) "same failure" true (r1 = r2);
  Alcotest.(check int) "same cycles at failure" c1 c2

(* ------------------ pinned: fuel death inside a block --------------- *)

(* A long straight-line block (the exact shape the headroom hoist targets)
   run under every fuel value around its total cost: at each fuel the
   engines must agree on finished-vs-hung *and* on the cycle counter at
   the moment the verdict fell — the reference charges per instruction, so
   any sloppiness in the fused engine's flush-on-Timeout shows up here. *)
let test_fuel_exhaustion_mid_block () =
  let src =
    "class Main { static int main() { \
       int a = 1; int b = 2; int c = 3; \
       a = a + b; b = b + c; c = c + a; \
       a = a * b; b = b * c; c = c * a; \
       a = a + b; b = b + c; c = c + a; \
       a = a * b; b = b * c; c = c * a; \
       return a + b + c; } }"
  in
  let dx = Repro_dex.Lower.compile src in
  let binary = Lir.Compile.android_binary dx (List.map (fun m -> m.B.cm_id) (Array.to_list dx.B.dx_methods)) in
  (* total cost of the whole program under the reference engine *)
  let total =
    let ctx = Vm.Image.build ~seed:7 dx in
    Exec.install ctx binary;
    ignore (Vm.Interp.run_main ctx);
    ctx.Ctx.cycles
  in
  let loaded = Blockexec.load binary in
  let run_with_fuel engine fuel =
    let ctx = Vm.Image.build ~seed:7 ~fuel dx in
    Blockexec.install_engine engine ctx loaded;
    match Vm.Interp.run_main ctx with
    | r -> (`Done r, ctx.Ctx.cycles)
    | exception Ctx.Timeout -> (`Timeout, ctx.Ctx.cycles)
  in
  for fuel = 0 to total + 2 do
    let vr, cr = run_with_fuel Blockexec.Ref fuel in
    let vf, cf = run_with_fuel Blockexec.Fused fuel in
    if vr <> vf then
      Alcotest.fail
        (Printf.sprintf "fuel %d: verdicts differ (ref %s, fused %s)" fuel
           (match vr with `Done _ -> "done" | `Timeout -> "timeout")
           (match vf with `Done _ -> "done" | `Timeout -> "timeout"));
    if cr <> cf then
      Alcotest.fail
        (Printf.sprintf "fuel %d: cycles at verdict differ (ref %d, fused %d)"
           fuel cr cf)
  done;
  (* sanity: the sweep actually crossed the boundary *)
  Alcotest.(check bool) "low fuel times out" true
    (fst (run_with_fuel Blockexec.Fused 1) = `Timeout);
  Alcotest.(check bool) "full fuel finishes" true
    (match run_with_fuel Blockexec.Fused total with `Done _, _ -> true | _ -> false)

(* ------------- pinned: guard-stripped genome, K>=2 corpus ----------- *)

(* The guard-stripping soundness hole and its corpus fix must look exactly
   the same through both engines: pass on the captured input, killed by
   the adversarial corpus input, with identical verdicts. *)
let test_guard_stripped_killed_identically () =
  let app, co, env = fixture "FFT" in
  let _ = app in
  let genome = Repro_core.Experiments.pinned_unsafe_genome () in
  let binary =
    match Pipeline.compile_core env genome with
    | Ok b -> b
    | Error _ -> Alcotest.fail "pinned genome failed to compile"
  in
  let with_engine e f =
    let prev = Blockexec.default_engine () in
    Blockexec.set_default_engine e;
    Fun.protect ~finally:(fun () -> Blockexec.set_default_engine prev) f
  in
  let verdicts engine =
    with_engine engine @@ fun () ->
    let loaded = Blockexec.load binary in
    let primary =
      Verify.check env.Pipeline.dx
        co.Pipeline.co_primary.Pipeline.snapshot env.Pipeline.vmap loaded
    in
    let corpus =
      List.map
        (fun ce ->
           Verify.check env.Pipeline.dx ce.Pipeline.ce_snapshot
             ce.Pipeline.ce_reference loaded)
        co.Pipeline.co_entries
    in
    primary :: corpus
  in
  let show = function
    | Verify.Passed c -> Printf.sprintf "passed:%d" c
    | Verify.Wrong_output -> "wrong-output"
    | Verify.Crashed m -> "crashed:" ^ m
    | Verify.Hung -> "hung"
  in
  let vr = List.map show (verdicts Blockexec.Ref) in
  let vf = List.map show (verdicts Blockexec.Fused) in
  Alcotest.(check (list string)) "verdicts identical across engines" vr vf;
  (* the net still catches the stripped binary *)
  let passed s = String.length s >= 7 && String.sub s 0 7 = "passed:" in
  match vr with
  | [] -> Alcotest.fail "no verdicts"
  | primary :: corpus ->
    Alcotest.(check bool) "passes the captured input" true (passed primary);
    Alcotest.(check bool) "corpus kills the stripped binary" true
      (List.exists (fun s -> not (passed s)) corpus)

(* First genome from [seed; seed+1; ...] that compiles (random genomes can
   exceed the compile budgets). *)
let compiling_genome env seed =
  let rec go s =
    if s > seed + 50 then Alcotest.fail "no compiling genome found"
    else
      match Pipeline.compile_core env (Genome.random (Rng.create s)) with
      | Ok b -> b
      | Error _ -> go (s + 1)
  in
  go seed

(* ------------------- pinned: injected executor faults --------------- *)

(* Exec_crash / Exec_hang / Exec_wrong_ret must fire at the same keyed
   call and produce the same verdict through both engines: the fused
   engine replicates the reference's fault points, not just its happy
   path. *)
let test_faults_through_both_engines () =
  let app, co, env = fixture "FFT" in
  let _ = app in
  let snap = co.Pipeline.co_primary.Pipeline.snapshot in
  let binary = compiling_genome env 42 in
  List.iter
    (fun only ->
       Faults.enable
         (Result.get_ok
            (Faults.parse_spec (Printf.sprintf "seed=11,rate=1.0,only=%s" only)));
       Fun.protect ~finally:Faults.disable @@ fun () ->
       for key = 0 to 4 do
         compare_replay ~faults_key:key
           ~what:(Printf.sprintf "fault %s key %d" only key)
           env.Pipeline.dx snap binary
       done)
    [ "exec-crash"; "exec-wrong-ret" ];
  (* hang: bounded fuel so the injected spin terminates quickly *)
  Faults.enable
    (Result.get_ok (Faults.parse_spec "seed=11,rate=1.0,only=exec-hang"));
  Fun.protect ~finally:Faults.disable @@ fun () ->
  compare_replay ~fuel:2_000_000 ~faults_key:1 ~what:"fault exec-hang"
    env.Pipeline.dx snap binary

(* --------------------------- plan lifetime -------------------------- *)

(* A loaded binary is planned at its first fused install and reused after;
   the reference engine never plans, and a new load of the same binary
   plans afresh — no plan outlives its load. *)
let test_plan_per_load () =
  let _, co, env = fixture "FFT" in
  let binary = compiling_genome env 3 in
  let snap = co.Pipeline.co_primary.Pipeline.snapshot in
  let replay engine loaded =
    ignore
      (Replay.run ~engine env.Pipeline.dx snap (Replay.Optimized loaded))
  in
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.reset (); Trace.disable ())
  @@ fun () ->
  let counter = Trace.counter_value in
  let loaded = Blockexec.load binary in
  replay Blockexec.Ref loaded;
  Alcotest.(check int) "ref builds no plan" 0 (counter "blockexec.plan_builds");
  replay Blockexec.Fused loaded;
  replay Blockexec.Fused loaded;
  Alcotest.(check int) "one build per load" 1
    (counter "blockexec.plan_builds");
  replay Blockexec.Fused (Blockexec.load binary);
  Alcotest.(check int) "a new load plans afresh" 2
    (counter "blockexec.plan_builds");
  Trace.reset ();
  ignore (Blockplan.build Vm.Cost.default binary);
  List.iter
    (fun c -> Alcotest.(check bool) ("plans report " ^ c) true (counter c > 0))
    [ "blockexec.ops_fused"; "blockexec.checks_hoisted";
      "blockexec.blocks_formed" ]

(* [Binary.overlay] installs a region binary over Android code through
   [Binary.create], so the digest and size describe the overlay's own
   functions, and a fused run of it counts the reference's cycles even
   after the base binary ran fused. *)
let test_overlay () =
  let app, _, env = fixture "FFT" in
  let base = Pipeline.android_binary_for app in
  let top =
    Lir.Compile.llvm_binary env.Pipeline.frontend Lir.Pipelines.o1
      env.Pipeline.region
  in
  let over = Binary.overlay base top in
  let created =
    Binary.create (List.filter_map (Binary.find over) (Binary.mids over))
  in
  Alcotest.(check string) "digest = create's" (Binary.digest created)
    (Binary.digest over);
  Alcotest.(check int) "size = create's" created.Binary.size over.Binary.size;
  let func b m = Option.get (Binary.find b m) in
  Alcotest.(check bool) "top's functions win" true
    (List.for_all (fun m -> func over m == func top m) (Binary.mids top));
  ignore (run_engine Blockexec.Fused env.Pipeline.dx base);
  agree ~what:"overlay" env.Pipeline.dx over

(* ----------------------- sampling fallback -------------------------- *)

(* With the profiler armed the fused dispatcher must route through the
   reference engine, so samples land on identical cycle boundaries. *)
let test_sampling_fallback () =
  let app, _, _ = fixture "FFT" in
  let samples engine =
    let prev = Blockexec.default_engine () in
    Blockexec.set_default_engine engine;
    Fun.protect
      ~finally:(fun () -> Blockexec.set_default_engine prev)
      (fun () ->
         let online = Pipeline.online_run ~seed:7 ~sample_period:5_000 app in
         ( online.Pipeline.cycles,
           List.map
             (fun s -> (s.Ctx.s_method, s.Ctx.s_native))
             online.Pipeline.ctx.Ctx.samples ))
  in
  let cr, sr = samples Blockexec.Ref in
  let cf, sf = samples Blockexec.Fused in
  Alcotest.(check int) "cycles agree under sampling" cr cf;
  Alcotest.(check bool) "sample streams identical" true (sr = sf);
  Alcotest.(check bool) "samples were taken" true (sr <> [])

(* -------------------------------------------------------------------- *)

let () =
  Alcotest.run "blockexec"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest campaign ]);
      ("pinned",
       [ Alcotest.test_case "branch into fusible pair" `Quick
           test_branch_into_pair;
         Alcotest.test_case "missing dispatch target" `Quick
           test_missing_block;
         Alcotest.test_case "fuel exhaustion mid-block" `Quick
           test_fuel_exhaustion_mid_block;
         Alcotest.test_case "every segment on the exact path" `Quick
           test_exact_path_everywhere;
         Alcotest.test_case "guard-stripped killed identically" `Quick
           test_guard_stripped_killed_identically;
         Alcotest.test_case "executor faults through both engines" `Quick
           test_faults_through_both_engines ]);
      ("plan",
       [ Alcotest.test_case "one build per load" `Quick test_plan_per_load;
         Alcotest.test_case "overlay replays like the reference" `Quick
           test_overlay ]);
      ("profiler",
       [ Alcotest.test_case "sampling falls back to reference" `Quick
           test_sampling_fallback ]) ]
