(* Capture and replay for an interactive application, demonstrating the
   two §3.4 byproducts of the interpreted replay: the verification map
   that rejects miscompiled binaries, and the dispatch-type profile that
   powers speculative devirtualization.

   Run with:  dune exec examples/capture_replay_game.exe *)

module Pipeline = Repro_core.Pipeline
module Verify = Repro_capture.Verify
module Typeprof = Repro_capture.Typeprof
module Replay = Repro_capture.Replay
module Compile = Repro_lir.Compile
module Blockexec = Repro_lir.Blockexec
module B = Repro_dex.Bytecode

let () =
  let app = Option.get (Repro_apps.Registry.find "Reversi Android") in
  let dx = Repro_apps.Registry.dexfile app in
  let cap = Option.get (Pipeline.capture_once ~seed:11 app) in
  Printf.printf "captured %s's hot region: %s\n" app.Repro_apps.Registry.name
    (B.method_full_name dx.B.dx_methods.(cap.Pipeline.hot_mid));

  (* interpreted replay: verification map + dispatch-type profile *)
  let typeprof = Typeprof.create () in
  let r =
    Replay.run dx cap.Pipeline.snapshot Replay.Interpreter
      ~record_vcall:(fun site cid -> Typeprof.record typeprof site cid)
  in
  let vmap =
    match r.Replay.outcome with
    | Replay.Finished (ret, cycles) ->
      Printf.printf "interpreted replay: %d cycles, return %s\n" cycles
        (match ret with Some v -> Repro_vm.Value.to_string v | None -> "()");
      { Verify.writes = Verify.diff_against_snapshot r.Replay.ctx cap.Pipeline.snapshot;
        ret }
    | _ -> failwith "interpreted replay failed"
  in
  Printf.printf "verification map: %d externally visible writes\n"
    (List.length vmap.Verify.writes);
  List.iter
    (fun site ->
       let hist = Typeprof.lookup typeprof site in
       Printf.printf "  call site %d:%d dispatches to: %s\n" (fst site) (snd site)
         (String.concat ", "
            (List.map
               (fun (cid, n) ->
                  Printf.sprintf "%s x%d" dx.B.dx_classes.(cid).B.ci_name n)
               hist)))
    (Typeprof.sites typeprof);

  let region = Pipeline.region_methods app cap.Pipeline.hot_mid in
  let fe =
    Compile.frontend
      ~profile:(Typeprof.digest typeprof, Typeprof.lookup typeprof) dx
  in
  let reference = Verify.Ref_map vmap in
  let check label spec =
    let outcome =
      match Compile.llvm_binary fe spec region with
      | binary ->
        (match
           Verify.check dx cap.Pipeline.snapshot reference
             (Blockexec.load binary)
         with
         | Verify.Passed cycles -> Printf.sprintf "verified, %d cycles" cycles
         | Verify.Wrong_output -> "REJECTED: wrong output"
         | Verify.Crashed msg -> "REJECTED: crashed (" ^ msg ^ ")"
         | Verify.Hung -> "REJECTED: hung")
      | exception Compile.Compile_error msg -> "compile error: " ^ msg
      | exception Compile.Compile_timeout -> "compile timeout"
    in
    Printf.printf "%-36s %s\n" label outcome
  in
  check "LLVM -O2" Repro_lir.Pipelines.o2;
  check "-O2 + profile-guided devirt + inline"
    (Repro_lir.Pipelines.o2
     @ [ ("devirtualize", [| 90 |]); ("inline", [| 80 |]); ("dce", [||]) ]);
  (* Reversi's kernel is integer-only and read-only, so even the unsafe
     passes cannot change its behaviour on the captured input.  To see the
     verification map reject a miscompile, aim a value-changing float
     rewrite at a numeric kernel: *)
  print_newline ();
  let lu = Option.get (Repro_apps.Registry.find "LU") in
  let lu_dx = Repro_apps.Registry.dexfile lu in
  let lu_cap = Option.get (Pipeline.capture_once ~seed:11 lu) in
  let lu_env = Pipeline.make_eval_env lu lu_cap in
  Printf.printf "now %s (float kernel):\n" lu.Repro_apps.Registry.name;
  let check_lu label spec =
    let outcome =
      match
        Compile.llvm_binary lu_env.Pipeline.frontend spec
          lu_env.Pipeline.region
      with
      | binary ->
        (match
           Verify.check lu_dx lu_cap.Pipeline.snapshot lu_env.Pipeline.vmap
             (Blockexec.load binary)
         with
         | Verify.Passed cycles -> Printf.sprintf "verified, %d cycles" cycles
         | Verify.Wrong_output -> "REJECTED: wrong output"
         | Verify.Crashed msg -> "REJECTED: crashed (" ^ msg ^ ")"
         | Verify.Hung -> "REJECTED: hung")
      | exception Compile.Compile_error msg -> "compile error: " ^ msg
      | exception Compile.Compile_timeout -> "compile timeout"
    in
    Printf.printf "%-36s %s\n" label outcome
  in
  check_lu "LLVM -O2" Repro_lir.Pipelines.o2;
  check_lu "-O2 + fast-math (value-changing)"
    (Repro_lir.Pipelines.o2 @ [ ("fast-math", [| 1; 1 |]) ])
