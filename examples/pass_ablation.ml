(* Per-pass ablation: how much does each optimization contribute on one
   captured region?  Three views:

   1. each safe pass alone on the naive-translated region;
   2. -O3 with one pass family knocked out;
   3. -O3 plus each replay-enabled custom pass (the GA's private arsenal).

   Run with:  dune exec examples/pass_ablation.exe [APP] *)

module Pipeline = Repro_core.Pipeline
module Compile = Repro_lir.Compile
module Blockexec = Repro_lir.Blockexec
module Passes = Repro_lir.Passes
module Verify = Repro_capture.Verify

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "SOR" in
  let app =
    match Repro_apps.Registry.find name with
    | Some app -> app
    | None ->
      Printf.eprintf "unknown app %S\n" name;
      exit 1
  in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let env = Pipeline.make_eval_env app cap in
  let dx = env.Pipeline.dx in
  let cycles_of spec =
    match
      Compile.llvm_binary env.Pipeline.frontend spec env.Pipeline.region
    with
    | binary ->
      (match
         Verify.check dx cap.Pipeline.snapshot env.Pipeline.vmap
           (Blockexec.load binary)
       with
       | Verify.Passed cycles -> Some cycles
       | Verify.Wrong_output | Verify.Crashed _ | Verify.Hung -> None)
    | exception (Compile.Compile_error _ | Compile.Compile_timeout) -> None
  in
  let show label = function
    | Some c -> Printf.printf "  %-42s %9d cycles\n" label c
    | None -> Printf.printf "  %-42s %9s\n" label "rejected"
  in
  Printf.printf "== %s: hot-region replay cycles under pass selections ==\n"
    app.Repro_apps.Registry.name;
  let o0 = cycles_of Repro_lir.Pipelines.o0 in
  show "O0 (naive translation, no passes)" o0;
  show "Android compiler (for reference)"
    (Some
       (int_of_float
          (env.Pipeline.android_region_ms
           *. float_of_int Repro_vm.Cost.default.Repro_vm.Cost.cycles_per_ms)));

  print_endline "-- each safe pass alone on the naive translation --";
  List.iter
    (fun pass ->
       if pass.Passes.safe then begin
         let defaults =
           Array.of_list (List.map (fun p -> p.Passes.pdefault) pass.Passes.params)
         in
         show pass.Passes.name (cycles_of [ (pass.Passes.name, defaults) ])
       end)
    Passes.catalog;

  print_endline "-- -O3 with one ingredient removed --";
  show "-O3 (full)" (cycles_of Repro_lir.Pipelines.o3);
  List.iter
    (fun removed ->
       let spec =
         List.filter (fun (n, _) -> n <> removed) Repro_lir.Pipelines.o3
       in
       show ("-O3 minus " ^ removed) (cycles_of spec))
    [ "inline"; "gvn"; "licm"; "guard-dedupe"; "bce"; "unroll"; "dce" ];

  print_endline "-- -O3 plus the replay-enabled custom passes --";
  List.iter
    (fun (label, extra) ->
       show label (cycles_of (Repro_lir.Pipelines.o3 @ extra)))
    [ ("-O3 + gc-check-elim", [ ("gc-check-elim", [||]) ]);
      ("-O3 + jni-to-intrinsic", [ ("jni-to-intrinsic", [||]) ]);
      ("-O3 + devirtualize + inline",
       [ ("devirtualize", [| 90 |]); ("inline", [| 60 |]); ("dce", [||]) ]);
      ("-O3 + guard-hoist", [ ("guard-hoist", [||]) ]);
      ("-O3 + if-convert", [ ("if-convert", [||]) ]);
      ("-O3 + all of the above",
       [ ("gc-check-elim", [||]); ("jni-to-intrinsic", [||]);
         ("devirtualize", [| 90 |]); ("inline", [| 60 |]);
         ("guard-hoist", [||]); ("if-convert", [||]); ("gvn", [||]);
         ("dce", [||]); ("simplifycfg", [||]) ]) ]
