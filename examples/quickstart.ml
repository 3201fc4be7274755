(* Quickstart: compile a MiniDex program, execute it under the three code
   versions of the paper (interpreter, Android compiler, LLVM -O3), then
   capture its hot region and replay it.

   Run with:  dune exec examples/quickstart.exe *)

module B = Repro_dex.Bytecode

let source = {|
class Main {
  static float kernel(float[] xs) {
    float acc = 0.0;
    for (int i = 0; i < xs.length; i = i + 1) {
      acc = acc + Math.sqrt(xs[i] * xs[i] + 1.0);
    }
    return acc;
  }
  static int main() {
    float[] xs = new float[4096];
    for (int i = 0; i < xs.length; i = i + 1) { xs[i] = i * 0.5; }
    float total = 0.0;
    for (int round = 0; round < 4; round = round + 1) {
      total = total + Main.kernel(xs);
      Sys.print((int) total);
    }
    return (int) total;
  }
}
|}

let () =
  (* 1. Frontend: parse, type-check, lower to dex-style bytecode. *)
  let dx = Repro_dex.Lower.compile source in
  Printf.printf "compiled %d methods, %d classes\n"
    (Array.length dx.B.dx_methods)
    (Array.length dx.B.dx_classes);

  (* 2. Execute under three code versions. *)
  let mids = Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods) in
  let run label install =
    let ctx = Repro_vm.Image.build ~seed:1 dx in
    install ctx;
    let ret = Repro_vm.Interp.run_main ctx in
    Printf.printf "%-22s %10d cycles  result=%s\n" label
      ctx.Repro_vm.Exec_ctx.cycles
      (match ret with Some v -> Repro_vm.Value.to_string v | None -> "()");
    ctx.Repro_vm.Exec_ctx.cycles
  in
  let interp = run "interpreter" Repro_vm.Interp.install in
  let android =
    run "Android compiler"
      (fun ctx ->
         Repro_lir.Exec.install ctx (Repro_lir.Compile.android_binary dx mids))
  in
  let o3 =
    run "LLVM -O3"
      (fun ctx ->
         Repro_lir.Exec.install ctx
           (Repro_lir.Compile.(llvm_binary (frontend dx))
              Repro_lir.Pipelines.o3 mids))
  in
  Printf.printf "Android is %.1fx faster than the interpreter; -O3 %.2fx over Android\n"
    (float_of_int interp /. float_of_int android)
    (float_of_int android /. float_of_int o3);

  (* 3. Capture the hot region during an online run, then replay it. *)
  let ctx = Repro_vm.Image.build ~seed:1 dx in
  let binary = Repro_lir.Compile.android_binary dx mids in
  let base = Repro_lir.Exec.dispatcher binary in
  let kernel_mid = (Option.get (B.find_method dx "Main" "kernel")).B.cm_id in
  let captured = ref None in
  Repro_vm.Exec_ctx.set_dispatch ctx (fun ctx' mid args ->
      if mid = kernel_mid && !captured = None then begin
        let r =
          Repro_capture.Capture.capture_region ~app:"quickstart" ctx' ~mid
            ~args ~run:(fun () -> base ctx' mid args)
        in
        captured := Some r;
        r.Repro_capture.Capture.region_ret
      end
      else base ctx' mid args);
  ignore (Repro_vm.Interp.run_main ctx);
  let r = Option.get !captured in
  Printf.printf "capture: %.1f ms overhead, %d KB program-specific state\n"
    (Repro_capture.Capture.total_ms r.Repro_capture.Capture.overhead)
    (Repro_capture.Snapshot.program_bytes r.Repro_capture.Capture.snapshot / 1024);

  let snap = r.Repro_capture.Capture.snapshot in
  let replay version label =
    let run = Repro_capture.Replay.run dx snap version in
    match run.Repro_capture.Replay.outcome with
    | Repro_capture.Replay.Finished (_, cycles) ->
      Printf.printf "replay under %-18s %10d cycles\n" label cycles
    | Repro_capture.Replay.Crashed msg -> Printf.printf "replay crashed: %s\n" msg
    | Repro_capture.Replay.Hung -> print_endline "replay hung"
  in
  replay Repro_capture.Replay.Interpreter "interpreter:";
  replay
    (Repro_capture.Replay.Android_code (Repro_lir.Blockexec.load binary))
    "Android code:";
  replay
    (Repro_capture.Replay.Optimized
       (Repro_lir.Blockexec.load
          (Repro_lir.Compile.(llvm_binary (frontend dx))
             (Repro_lir.Pipelines.o3 @ [ ("jni-to-intrinsic", [||]) ])
             [ kernel_mid ])))
    "O3+intrinsics:"
