(* Differential fuzzing: randomly generated MiniDex programs must behave
   identically under the interpreter, the Android pipeline, and random
   sequences of safe LLVM-style passes.  Programs are generated as ASTs
   (always well typed, no division by zero, in-bounds indices via masking)
   so every run exercises deep pipeline behaviour rather than parser
   rejections. *)

module Ast = Repro_dex.Ast
module B = Repro_dex.Bytecode
module Rng = Repro_util.Rng
module Vm = Repro_vm
module Hir = Repro_hgraph.Hir
module Binary = Repro_lir.Binary
module Capture = Repro_capture.Capture
module Verify = Repro_capture.Verify
open Ast

(* FUZZ_COUNT overrides the per-property case budget (CI smoke runs use a
   small value; the default matches the original suite). *)
let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 60

(* ------------------------- program generator ------------------------ *)

type genctx = {
  rng : Rng.t;
  mutable locals : string list;       (* int locals in scope *)
  mutable arrays : string list;       (* int[] locals in scope *)
  mutable fresh : int;
  mutable depth : int;
}

let fresh_name g prefix =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "%s%d" prefix g.fresh

let rec gen_expr g d : expr =
  if d <= 0 || Rng.chance g.rng 0.3 then gen_leaf g
  else
    match Rng.int g.rng 8 with
    | 0 | 1 ->
      Ebinop (Rng.pick g.rng [| Add; Sub; Mul |], gen_expr g (d - 1),
              gen_expr g (d - 1))
    | 2 ->
      (* division with a guaranteed non-zero divisor *)
      Ebinop (Rng.pick g.rng [| Div; Rem |], gen_expr g (d - 1),
              Ebinop (Add, Ebinop (Band, gen_expr g (d - 1), Eint 7), Eint 1))
    | 3 ->
      Ebinop (Rng.pick g.rng [| Band; Bor; Bxor |], gen_expr g (d - 1),
              gen_expr g (d - 1))
    | 4 ->
      Ebinop (Shr, gen_expr g (d - 1), Ebinop (Band, gen_expr g (d - 1), Eint 15))
    | 5 when g.arrays <> [] ->
      (* in-bounds read: a[((e % len) + len) % len] with len > 0 *)
      let a = Rng.pick_list g.rng g.arrays in
      let e = gen_expr g (d - 1) in
      let len = Elen (Evar a) in
      Eindex (Evar a,
              Ebinop (Rem, Ebinop (Add, Ebinop (Rem, e, len), len), len))
    | 6 -> Eunop (Neg, gen_expr g (d - 1))
    | _ -> gen_leaf g

and gen_leaf g =
  if g.locals <> [] && Rng.chance g.rng 0.7 then
    Evar (Rng.pick_list g.rng g.locals)
  else Eint (Rng.int_in g.rng (-50) 50)

let rec gen_stmt g : stmt =
  match Rng.int g.rng 10 with
  | 0 | 1 ->
    let name = fresh_name g "v" in
    let s = Sdecl (Tint, name, Some (gen_expr g 3)) in
    g.locals <- name :: g.locals;
    s
  | 2 | 3 when g.locals <> [] ->
    Sassign (Lvar (Rng.pick_list g.rng g.locals), gen_expr g 3)
  | 4 | 5 ->
    let cond =
      Ebinop (Rng.pick g.rng [| Lt; Le; Gt; Ge; Eq; Ne |], gen_expr g 2,
              gen_expr g 2)
    in
    g.depth <- g.depth + 1;
    let scoped gen =
      let saved_l = g.locals and saved_a = g.arrays in
      let b = gen () in
      g.locals <- saved_l;
      g.arrays <- saved_a;
      b
    in
    let result =
      if g.depth > 3 then Sif (cond, scoped (fun () -> [ gen_stmt g ]), [])
      else
        Sif (cond, scoped (fun () -> gen_block g 2),
             scoped (fun () -> gen_block g 2))
    in
    g.depth <- g.depth - 1;
    result
  | 6 when g.depth < 2 ->
    (* bounded counted loop *)
    let i = fresh_name g "i" in
    let n = Rng.int_in g.rng 1 12 in
    g.depth <- g.depth + 1;
    let saved_l = g.locals and saved_a = g.arrays in
    g.locals <- i :: g.locals;
    let body = gen_block g 3 in
    g.depth <- g.depth - 1;
    g.locals <- saved_l;
    g.arrays <- saved_a;
    Sfor (Some (Sdecl (Tint, i, Some (Eint 0))),
          Ebinop (Lt, Evar i, Eint n),
          Some (Sassign (Lvar i, Ebinop (Add, Evar i, Eint 1))),
          body)
  | 7 when g.arrays <> [] && g.locals <> [] ->
    (* in-bounds array write *)
    let a = Rng.pick_list g.rng g.arrays in
    let e = gen_expr g 2 in
    let len = Elen (Evar a) in
    Sassign
      (Lindex (Evar a,
               Ebinop (Rem, Ebinop (Add, Ebinop (Rem, e, len), len), len)),
       gen_expr g 3)
  | 8 ->
    let name = fresh_name g "a" in
    let s = Sdecl (Tarray Tint, name,
                   Some (Enew_array (Tint, Eint (Rng.int_in g.rng 1 24)))) in
    g.arrays <- name :: g.arrays;
    s
  | _ when g.locals <> [] ->
    Sassign (Lvar (Rng.pick_list g.rng g.locals), gen_expr g 4)
  | _ -> Sdecl (Tint, fresh_name g "w", Some (Eint 1))

and gen_block g n = List.init n (fun _ -> gen_stmt g)

let gen_program seed : Ast.program =
  let g = { rng = Rng.create seed; locals = []; arrays = []; fresh = 0;
            depth = 0 } in
  let body = gen_block g (Rng.int_in g.rng 6 14) in
  (* fold every live value into the result so computations stay observable *)
  let acc_var = "acc" in
  let sum =
    List.fold_left
      (fun e v -> Ebinop (Bxor, e, Evar v))
      (Eint 0) g.locals
  in
  let array_sums =
    List.map
      (fun a ->
         let i = "ri_" ^ a in
         Sfor (Some (Sdecl (Tint, i, Some (Eint 0))),
               Ebinop (Lt, Evar i, Elen (Evar a)),
               Some (Sassign (Lvar i, Ebinop (Add, Evar i, Eint 1))),
               [ Sassign (Lvar acc_var,
                          Ebinop (Add, Evar acc_var,
                                  Eindex (Evar a, Evar i))) ]))
      g.arrays
  in
  let main =
    { m_name = "main"; m_static = true; m_ret = Tint; m_params = [];
      m_body =
        body
        @ [ Sdecl (Tint, acc_var, Some sum) ]
        @ array_sums
        @ [ Sreturn (Some (Evar acc_var)) ] }
  in
  [ { c_name = "Main"; c_super = None; c_fields = []; c_methods = [ main ] } ]

let compile_ast prog = Repro_dex.Lower.lower (Repro_dex.Typecheck.check prog)

(* ------------------------------ oracle ------------------------------ *)

type result = Ret of Vm.Value.t option | Exc of int | Fuel

let run_with dx install =
  let ctx = Vm.Image.build ~seed:1 ~fuel:50_000_000 dx in
  install ctx;
  match Vm.Interp.run_main ctx with
  | r -> Ret r
  | exception Vm.Exec_ctx.App_exception c -> Exc c
  | exception Vm.Exec_ctx.Timeout -> Fuel

let result_eq a b =
  match a, b with
  | Ret (Some x), Ret (Some y) -> Vm.Value.equal x y
  | Ret None, Ret None -> true
  | Exc x, Exc y -> x = y
  | Fuel, Fuel -> true
  | _ -> false

let show = function
  | Ret (Some v) -> Vm.Value.to_string v
  | Ret None -> "()"
  | Exc c -> Printf.sprintf "exc %d" c
  | Fuel -> "fuel"

let all_mids dx = Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods)

(* Compile every method of [dx] under [spec] on a fresh front end. *)
let compile_all dx spec =
  Repro_lir.Compile.(llvm_binary (frontend dx)) spec (all_mids dx)

let prop_android_matches_interp =
  QCheck.Test.make ~name:"fuzz: android pipeline preserves semantics"
    ~count:fuzz_count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let dx = compile_ast (gen_program seed) in
       let ri = run_with dx Vm.Interp.install in
       let rb =
         run_with dx (fun ctx ->
             Repro_lir.Exec.install ctx
               (Repro_lir.Compile.android_binary dx (all_mids dx)))
       in
       if result_eq ri rb then true
       else
         QCheck.Test.fail_reportf "seed %d: interp=%s android=%s" seed
           (show ri) (show rb))

let prop_o3_matches_interp =
  QCheck.Test.make ~name:"fuzz: -O3 preserves semantics" ~count:fuzz_count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let dx = compile_ast (gen_program seed) in
       let ri = run_with dx Vm.Interp.install in
       let rb =
         run_with dx (fun ctx ->
             Repro_lir.Exec.install ctx (compile_all dx Repro_lir.Pipelines.o3))
       in
       if result_eq ri rb then true
       else
         QCheck.Test.fail_reportf "seed %d: interp=%s o3=%s" seed (show ri)
           (show rb))

let prop_random_safe_passes_match =
  QCheck.Test.make ~name:"fuzz: random safe sequences preserve semantics"
    ~count:fuzz_count
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, pass_seed) ->
       let dx = compile_ast (gen_program seed) in
       let ri = run_with dx Vm.Interp.install in
       let rng = Rng.create pass_seed in
       let safe =
         List.filter (fun p -> p.Repro_lir.Passes.safe) Repro_lir.Passes.catalog
       in
       let spec =
         List.init (Rng.int_in rng 1 10) (fun _ ->
             let pass = Rng.pick_list rng safe in
             let params =
               Array.of_list
                 (List.map
                    (fun pr ->
                       Rng.int_in rng pr.Repro_lir.Passes.pmin
                         pr.Repro_lir.Passes.pmax)
                    pass.Repro_lir.Passes.params)
             in
             (pass.Repro_lir.Passes.name, params))
       in
       match compile_all dx spec with
       | exception Repro_lir.Compile.Compile_timeout -> true
       | binary ->
         let rb = run_with dx (fun ctx -> Repro_lir.Exec.install ctx binary) in
         if result_eq ri rb then true
         else
           QCheck.Test.fail_reportf "seed %d passes=%s: interp=%s opt=%s" seed
             (String.concat "," (List.map fst spec))
             (show ri) (show rb))

(* --------------- capture -> replay -> verify differential ----------- *)

(* Run the generated program under the interpreter, capturing the single
   execution of [Main.main] as the "hot region" (the whole program is the
   region — generated mains take no arguments and call nothing). *)
let capture_main dx mid =
  let ctx = Vm.Image.build ~seed:1 ~fuel:50_000_000 dx in
  Vm.Interp.install ctx;
  let base = ctx.Vm.Exec_ctx.dispatch in
  let captured = ref None in
  Vm.Exec_ctx.set_dispatch ctx (fun ctx' m args ->
      if m = mid && !captured = None then begin
        let r =
          Capture.capture_region ~app:"fuzz" ctx' ~mid ~args
            ~run:(fun () -> base ctx' m args)
        in
        captured := Some r;
        r.Capture.region_ret
      end
      else base ctx' m args);
  (try ignore (Vm.Interp.run_main ctx) with
   | Vm.Exec_ctx.App_exception _ | Vm.Exec_ctx.Timeout -> ());
  Option.map (fun r -> r.Capture.snapshot) !captured

(* A deliberate miscompile: every `return r` in the region's root method
   becomes `return r + 1`.  The verifier must flag the changed behaviour. *)
let perturb_func f =
  let f = Hir.copy f in
  let touched = ref false in
  Hashtbl.iter
    (fun _ blk ->
       match blk.Hir.term with
       | Hir.Ret (Some r) ->
         let one = Hir.fresh_reg f in
         let sum = Hir.fresh_reg f in
         blk.Hir.insns <-
           blk.Hir.insns
           @ [ Hir.Const (one, B.Cint 1); Hir.Binop (Ast.Add, sum, r, one) ];
         blk.Hir.term <- Hir.Ret (Some sum);
         touched := true
       | _ -> ())
    f.Hir.f_blocks;
  if not !touched then None else Some f

let perturb_binary binary mid =
  match Option.bind (Binary.find binary mid) perturb_func with
  | None -> None
  | Some bad ->
    let funcs =
      List.map
        (fun m -> if m = mid then bad else Option.get (Binary.find binary m))
        (Binary.mids binary)
    in
    Some (Binary.create funcs)

let prop_capture_verify_differential =
  QCheck.Test.make
    ~name:"fuzz: verify accepts faithful binaries, rejects perturbed ones"
    ~count:fuzz_count
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let dx = compile_ast (gen_program seed) in
       let mid = (Option.get (B.find_method dx "Main" "main")).B.cm_id in
       match capture_main dx mid with
       | None -> true   (* program died before the region ran: nothing to check *)
       | Some snap ->
         let vmap = Verify.collect dx snap in
         let binary = Repro_lir.Compile.android_binary dx (all_mids dx) in
         (match Verify.check dx snap vmap (Repro_lir.Blockexec.load binary) with
          | Verify.Passed _ -> ()
          | Verify.Wrong_output | Verify.Crashed _ | Verify.Hung ->
            QCheck.Test.fail_reportf
              "seed %d: faithful android binary rejected by verifier" seed);
         (match perturb_binary binary mid with
          | None -> true   (* region never returns a value: cannot perturb *)
          | Some bad ->
            (match Verify.check dx snap vmap (Repro_lir.Blockexec.load bad) with
             | Verify.Wrong_output -> true
             | Verify.Passed _ ->
               QCheck.Test.fail_reportf
                 "seed %d: perturbed binary (ret+1) passed verification" seed
             | Verify.Crashed msg ->
               QCheck.Test.fail_reportf
                 "seed %d: perturbed binary crashed the replay: %s" seed msg
             | Verify.Hung ->
               QCheck.Test.fail_reportf
                 "seed %d: perturbed binary hung the replay" seed)))

(* --------------- block-fused engine differential -------------------- *)

module Replay = Repro_capture.Replay
module Blockexec = Repro_lir.Blockexec
module Exec = Repro_lir.Exec

(* Replay under one engine while recording the block-entry stream both
   engines publish through [Exec.block_hook]. *)
let replay_streamed engine dx snap binary =
  let stream = ref [] in
  Exec.block_hook :=
    Some (fun mid bid cyc -> stream := (mid, bid, cyc) :: !stream);
  let r =
    Fun.protect
      ~finally:(fun () -> Exec.block_hook := None)
      (fun () ->
         Replay.run ~engine dx snap (Replay.Optimized (Blockexec.load binary)))
  in
  (r, List.rev !stream)

let show_outcome = function
  | Replay.Finished (v, cyc) ->
    Printf.sprintf "finished(%s, %d)"
      (match v with Some v -> Vm.Value.to_string v | None -> "()")
      cyc
  | Replay.Crashed msg -> "crashed(" ^ msg ^ ")"
  | Replay.Hung -> "hung"

(* First (mid, bid, cycles) where the lockstep streams part ways, with the
   offending block's code — the shrunk counterexample a divergence report
   should lead with. *)
let divergent_block binary ref_s fused_s =
  let dump (mid, bid, cyc) =
    match Binary.find binary mid with
    | None -> Printf.sprintf "m%d:b%d@%d (not in binary)" mid bid cyc
    | Some f ->
      (match Hashtbl.find_opt f.Hir.f_blocks bid with
       | None -> Printf.sprintf "m%d:b%d@%d (no such block)" mid bid cyc
       | Some b ->
         Printf.sprintf "m%d:b%d@%d\n  %s\n  %s" mid bid cyc
           (String.concat "\n  " (List.map Hir.string_of_instr b.Hir.insns))
           (Hir.string_of_term b.Hir.term))
  in
  let rec go i ra rb =
    match ra, rb with
    | [], [] -> "streams identical"
    | a :: _, [] -> Printf.sprintf "step %d: fused stream ended; ref %s" i (dump a)
    | [], b :: _ -> Printf.sprintf "step %d: ref stream ended; fused %s" i (dump b)
    | a :: ra, b :: rb ->
      if a = b then go (i + 1) ra rb
      else
        Printf.sprintf "step %d:\nref   %s\nfused %s" i (dump a) (dump b)
  in
  go 0 ref_s fused_s

(* Random (program, pass sequence) pairs — drawn from the FULL pass
   catalog, unsafe passes included, so guard-stripped and otherwise
   crashing binaries are routinely exercised: the captured replay must
   agree between the reference and block-fused engines on result, cycle
   count, dirty heap/static words, and the verification verdict. *)
let prop_engines_agree =
  QCheck.Test.make
    ~name:"fuzz: block-fused engine bit-identical to reference"
    ~count:fuzz_count
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, pass_seed) ->
       let dx = compile_ast (gen_program seed) in
       let mid = (Option.get (B.find_method dx "Main" "main")).B.cm_id in
       match capture_main dx mid with
       | None -> true
       | Some snap ->
         let rng = Rng.create pass_seed in
         let spec =
           List.init (Rng.int_in rng 1 10) (fun _ ->
               let pass = Rng.pick_list rng Repro_lir.Passes.catalog in
               let params =
                 Array.of_list
                   (List.map
                      (fun pr ->
                         Rng.int_in rng pr.Repro_lir.Passes.pmin
                           pr.Repro_lir.Passes.pmax)
                      pass.Repro_lir.Passes.params)
               in
               (pass.Repro_lir.Passes.name, params))
         in
         (match compile_all dx spec with
          | exception Repro_lir.Compile.Compile_timeout -> true
          | exception Repro_lir.Compile.Compile_error _ -> true
          | binary ->
            let rr, sr = replay_streamed Blockexec.Ref dx snap binary in
            let rf, sf = replay_streamed Blockexec.Fused dx snap binary in
            let fail what =
              QCheck.Test.fail_reportf
                "seed %d passes=%s: %s\nref:   %s\nfused: %s\n%s" seed
                (String.concat "," (List.map fst spec))
                what
                (show_outcome rr.Replay.outcome)
                (show_outcome rf.Replay.outcome)
                (divergent_block binary sr sf)
            in
            let outcome_eq =
              match rr.Replay.outcome, rf.Replay.outcome with
              | Replay.Finished (va, ca), Replay.Finished (vb, cb) ->
                ca = cb
                && (match va, vb with
                    | None, None -> true
                    | Some x, Some y -> Vm.Value.equal x y
                    | _ -> false)
              | Replay.Crashed a, Replay.Crashed b -> String.equal a b
              | Replay.Hung, Replay.Hung -> true
              | _ -> false
            in
            if not outcome_eq then fail "outcomes differ"
            else if
              rr.Replay.ctx.Vm.Exec_ctx.cycles
              <> rf.Replay.ctx.Vm.Exec_ctx.cycles
            then fail "post-replay cycles differ"
            else if
              Verify.diff_against_snapshot rr.Replay.ctx snap
              <> Verify.diff_against_snapshot rf.Replay.ctx snap
            then fail "dirty heap/static words differ"
            else begin
              (* the verdict the pipeline acts on must also agree *)
              let vmap = Verify.collect dx snap in
              let verdict engine =
                let prev = Blockexec.default_engine () in
                Blockexec.set_default_engine engine;
                Fun.protect
                  ~finally:(fun () -> Blockexec.set_default_engine prev)
                  (fun () -> Verify.check dx snap vmap (Blockexec.load binary))
              in
              let vr = verdict Blockexec.Ref
              and vf = verdict Blockexec.Fused in
              let same =
                match vr, vf with
                | Verify.Passed a, Verify.Passed b -> a = b
                | Verify.Wrong_output, Verify.Wrong_output -> true
                | Verify.Crashed a, Verify.Crashed b -> String.equal a b
                | Verify.Hung, Verify.Hung -> true
                | _ -> false
              in
              if not same then fail "verification verdicts differ" else true
            end))

let () =
  Alcotest.run "fuzz"
    [ ("differential",
       List.map QCheck_alcotest.to_alcotest
         [ prop_android_matches_interp; prop_o3_matches_interp;
           prop_random_safe_passes_match; prop_engines_agree ]);
      ("capture-verify",
       List.map QCheck_alcotest.to_alcotest
         [ prop_capture_verify_differential ]) ]
