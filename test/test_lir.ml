(* Tests for the compiler stack: HGraph building, translation, passes,
   pipelines, and the LIR executor — including differential tests that pin
   compiled semantics to the interpreter. *)

open Repro_lir
module Hir = Repro_hgraph.Hir
module Build = Repro_hgraph.Build
module Android = Repro_hgraph.Android
module T = Repro_hgraph.Transforms
module B = Repro_dex.Bytecode
module Vm = Repro_vm
module Cfg = Repro_util.Cfg

let compile_src src = Repro_dex.Lower.compile src

let all_mids dx =
  Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods)

(* Compile every method of [dx] under [spec] on a fresh front end. *)
let compile_all dx spec =
  Compile.(llvm_binary (frontend dx)) spec (all_mids dx)

(* Run fully interpreted. *)
let run_interp dx =
  let ctx = Vm.Image.build ~seed:7 dx in
  Vm.Interp.install ctx;
  let r = Vm.Interp.run_main ctx in
  (r, Buffer.contents ctx.Vm.Exec_ctx.io, ctx.Vm.Exec_ctx.cycles)

(* Run with a binary installed (mixed mode). *)
let run_binary dx binary =
  let ctx = Vm.Image.build ~seed:7 dx in
  Exec.install ctx binary;
  let r = Vm.Interp.run_main ctx in
  (r, Buffer.contents ctx.Vm.Exec_ctx.io, ctx.Vm.Exec_ctx.cycles)

let value_opt = Alcotest.testable
    (fun fmt v ->
       Format.pp_print_string fmt
         (match v with None -> "none" | Some v -> Vm.Value.to_string v))
    (fun a b ->
       match a, b with
       | None, None -> true
       | Some a, Some b -> Vm.Value.equal a b
       | _ -> false)

(* A program exercising most of the IR: loops, arrays, virtual calls,
   floats, natives, statics, recursion. *)
let big_src = {|
class Shape {
  int kind;
  float area() { return 0.0; }
}
class Circle extends Shape {
  float r;
  void init(float ar) { r = ar; kind = 1; }
  float area() { return 3.14159 * r * r; }
}
class Square extends Shape {
  float s;
  void init(float as) { s = as; kind = 2; }
  float area() { return s * s; }
}
class Main {
  static int rounds = 3;
  static float work(Shape[] shapes) {
    float total = 0.0;
    for (int k = 0; k < rounds; k = k + 1) {
      for (int i = 0; i < shapes.length; i = i + 1) {
        total = total + shapes[i].area();
      }
    }
    return total;
  }
  static int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
  static int main() {
    Shape[] shapes = new Shape[20];
    for (int i = 0; i < shapes.length; i = i + 1) {
      if (i % 3 == 0) { shapes[i] = new Square(2.0); }
      else { shapes[i] = new Circle(1.0); }
    }
    float t = work(shapes) + Math.sqrt(81.0);
    int acc = fib(12) + (int) t;
    int[] xs = new int[64];
    for (int i = 0; i < 64; i = i + 1) { xs[i] = i * 7 % 13; }
    int s = 0;
    for (int i = 0; i < 64; i = i + 1) { s = s + xs[i]; }
    return acc * 1000 + s;
  }
}
|}

(* ---------------------------- build/translate ----------------------- *)

let test_build_rejects_try () =
  let dx =
    compile_src
      "class Main { static int main() { try { return 1; } catch (int e) { return e; } } }"
  in
  (try
     ignore (Build.func dx dx.B.dx_main);
     Alcotest.fail "expected Uncompilable"
   with Build.Uncompilable _ -> ())

let test_build_loop_has_suspend_check () =
  let dx =
    compile_src
      "class Main { static int main() {
         int s = 0;
         for (int i = 0; i < 10; i = i + 1) { s = s + i; }
         return s;
       } }"
  in
  let f = Build.func dx dx.B.dx_main in
  let count = ref 0 in
  Hir.iter_blocks f (fun _ b ->
      List.iter (function Hir.SuspendCheck -> incr count | _ -> ()) b.Hir.insns);
  Alcotest.(check int) "one suspend check" 1 !count

let test_translate_expands_checks () =
  let dx =
    compile_src
      "class Main { static int main() {
         int[] a = new int[4];
         a[2] = 5;
         return a[2];
       } }"
  in
  let f = Translate.func dx (Build.func dx dx.B.dx_main) in
  let guards = ref 0 and composite = ref 0 in
  Hir.iter_blocks f (fun _ b ->
      List.iter
        (function
          | Hir.GuardNull _ | Hir.GuardBounds _ | Hir.GuardDivZero _ -> incr guards
          | Hir.ALoadC _ | Hir.AStoreC _ | Hir.ArrLenC _ | Hir.IGetC _
          | Hir.IPutC _ -> incr composite
          | _ -> ())
        b.Hir.insns);
  Alcotest.(check int) "no composite ops left" 0 !composite;
  Alcotest.(check bool) "guards present" true (!guards >= 4)

let test_infer_kinds () =
  let dx =
    compile_src
      "class Main { static float main() {
         float f = 2.5;
         int i = 3;
         return f * 2.0 + i;
       } }"
  in
  let f = Build.func dx dx.B.dx_main in
  let kinds = Translate.infer_kinds dx f in
  (* register 0 is the first local (f): float *)
  Alcotest.(check bool) "some float reg" true
    (Array.exists (fun k -> k = B.Kfloat) kinds)

(* ----------------------------- transforms --------------------------- *)

let loop_func () =
  let dx =
    compile_src
      "class Main { static int main() {
         int s = 0;
         int c = 3 * 4;
         for (int i = 0; i < 100; i = i + 1) { s = s + c * 2; }
         return s;
       } }"
  in
  (dx, Translate.func dx (Build.func dx dx.B.dx_main))

let count_insns f pred =
  let n = ref 0 in
  Hir.iter_blocks f (fun _ b ->
      List.iter (fun i -> if pred i then incr n) b.Hir.insns);
  !n

let test_const_fold () =
  let _, f = loop_func () in
  let f = T.const_fold f in
  (* 3 * 4 must be folded away *)
  let muls = count_insns f (function
      | Hir.Binop (Repro_dex.Ast.Mul, _, _, _) -> true
      | _ -> false)
  in
  ignore muls;
  let consts12 = count_insns f (function
      | Hir.Const (_, B.Cint 12) -> true
      | _ -> false)
  in
  Alcotest.(check bool) "12 materialized" true (consts12 >= 1)

let test_dce_removes_dead () =
  let dx =
    compile_src
      "class Main { static int main() {
         int dead = 5 * 1000;
         int live = 2;
         return live;
       } }"
  in
  let f = Translate.func dx (Build.func dx dx.B.dx_main) in
  let before = Hir.size f in
  let f = T.dce f in
  Alcotest.(check bool) "smaller after dce" true (Hir.size f < before)

let test_licm_hoists () =
  let _, f = loop_func () in
  let g = Hir.cfg f in
  let in_loop_before =
    let loops = Cfg.loops g in
    List.fold_left
      (fun acc l ->
         acc
         + List.fold_left
             (fun a bid ->
                a
                + count_insns
                    { f with Hir.f_blocks = Hashtbl.create 1 }
                    (fun _ -> false)
                + List.length (Hir.block f bid).Hir.insns)
             0 l.Cfg.body)
      0 loops
  in
  ignore in_loop_before;
  let f' = T.licm f in
  (* the loop-invariant c * 2 should move out: loop body shrinks *)
  let loop_insns fn =
    let g = Hir.cfg fn in
    List.fold_left
      (fun acc l ->
         acc
         + List.fold_left
             (fun a bid -> a + List.length (Hir.block fn bid).Hir.insns)
             0 l.Cfg.body)
      0 (Cfg.loops g)
  in
  Alcotest.(check bool) "loop body shrank" true (loop_insns f' < loop_insns f)

let test_simplify_cfg_merges () =
  let _, f = loop_func () in
  let f' = T.simplify_cfg f in
  Alcotest.(check bool) "fewer or equal blocks" true
    (Hashtbl.length f'.Hir.f_blocks <= Hashtbl.length f.Hir.f_blocks)

(* ------------------------------ passes ------------------------------ *)

let test_catalog_names_unique () =
  let names = List.map (fun pass -> pass.Passes.name) Passes.catalog in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_pass_param_validation () =
  let dx, f = loop_func () in
  let env = Compile.pass_env dx in
  let unroll = Passes.find "unroll" in
  (try
     ignore (Passes.run env unroll [| 99; 48; 0 |] f);
     Alcotest.fail "expected Bad_param"
   with Passes.Bad_param _ -> ());
  (try
     ignore (Passes.run env unroll [| 4 |] f);
     Alcotest.fail "expected Bad_param (arity)"
   with Passes.Bad_param _ -> ())

let test_unroll_duplicates_suspend_checks () =
  let dx, f = loop_func () in
  ignore dx;
  let checks f =
    count_insns f (function Hir.SuspendCheck -> true | _ -> false)
  in
  let before = checks f in
  let f4 = Passes.(run (Compile.pass_env dx) (find "unroll") [| 4; 64; 0 |] f) in
  Alcotest.(check int) "4x checks" (before * 4) (checks f4);
  let deduped = Passes.(run (Compile.pass_env dx) (find "gc-check-elim") [||] f4) in
  Alcotest.(check int) "back to one per latch" before (checks deduped)

let test_if_convert_forms_selects () =
  let dx =
    compile_src
      "class Main { static int main() {
         int best = 0;
         for (int i = 0; i < 200; i = i + 1) {
           int v = i * 7 % 31;
           if (v > best) { best = v; }
         }
         return best;
       } }"
  in
  let f = Translate.func dx (Build.func dx dx.B.dx_main) in
  let f' = Passes.(run (Compile.pass_env dx) (find "if-convert") [||] f) in
  let selects =
    count_insns f' (function Hir.Select _ -> true | _ -> false)
  in
  Alcotest.(check bool) "select formed" true (selects >= 1);
  (* and it must still compute the right answer, faster *)
  let ri, _, _ = run_interp dx in
  let b_plain = compile_all dx Pipelines.o1 in
  let b_ifc = compile_all dx (Pipelines.o1 @ [ ("if-convert", [||]) ]) in
  let r1, _, c1 = run_binary dx b_plain in
  let r2, _, c2 = run_binary dx b_ifc in
  Alcotest.check value_opt "plain correct" ri r1;
  Alcotest.check value_opt "if-converted correct" ri r2;
  Alcotest.(check bool) "mispredictions gone: faster" true (c2 < c1)

let test_guard_hoist_moves_guards_out () =
  let dx =
    compile_src
      "class Main { static float main() {
         float[] x = new float[100];
         float s = 0.0;
         for (int p = 0; p < 20; p = p + 1) {
           for (int i = 0; i < x.length; i = i + 1) { s = s + x[i]; }
         }
         return s;
       } }"
  in
  let f = Translate.func dx (Build.func dx dx.B.dx_main) in
  let env = Compile.pass_env dx in
  let f' = Passes.(run env (find "guard-hoist") [||] f) in
  (* guards moved out of loop bodies: executing costs fewer cycles *)
  let run g =
    let ctx = Vm.Image.build dx in
    Exec.install ctx (Binary.create [ g ]);
    let r = Vm.Interp.run_main ctx in
    (r, ctx.Vm.Exec_ctx.cycles)
  in
  let r1, c1 = run f in
  let r2, c2 = run f' in
  Alcotest.check value_opt "same result" r1 r2;
  Alcotest.(check bool) "fewer cycles" true (c2 < c1)

let test_sink_preserves_semantics () =
  let dx = compile_src big_src in
  let ri, io_i, _ = run_interp dx in
  let binary =
    compile_all dx [ ("constfold", [||]); ("sink", [||]); ("dce", [||]) ]
  in
  let rb, io_b, _ = run_binary dx binary in
  Alcotest.check value_opt "result" ri rb;
  Alcotest.(check string) "io" io_i io_b

let test_bce_removes_guards () =
  let dx =
    compile_src
      "class Main { static int main() {
         int[] a = new int[50];
         int s = 0;
         for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
         return s;
       } }"
  in
  let f = Translate.func dx (Build.func dx dx.B.dx_main) in
  let bounds f =
    count_insns f (function Hir.GuardBounds _ -> true | _ -> false)
  in
  let before = bounds f in
  let f' = Passes.(run (Compile.pass_env dx) (find "bce") [||] f) in
  Alcotest.(check bool) "guards removed" true (bounds f' < before)

(* --------------------- differential: compiled = interp -------------- *)

let check_same_result src spec label =
  let dx = compile_src src in
  let ri, io_i, cyc_i = run_interp dx in
  let binary = compile_all dx spec in
  let rb, io_b, cyc_b = run_binary dx binary in
  Alcotest.check value_opt (label ^ ": result") ri rb;
  Alcotest.(check string) (label ^ ": io") io_i io_b;
  Alcotest.(check bool) (label ^ ": compiled faster") true (cyc_b < cyc_i)

let test_android_binary_matches_interp () =
  let dx = compile_src big_src in
  let ri, io_i, cyc_i = run_interp dx in
  let binary = Compile.android_binary dx (all_mids dx) in
  let rb, io_b, cyc_b = run_binary dx binary in
  Alcotest.check value_opt "result" ri rb;
  Alcotest.(check string) "io" io_i io_b;
  Alcotest.(check bool) "compiled faster than interpreted" true (cyc_b < cyc_i)

let test_o1_matches_interp () = check_same_result big_src Pipelines.o1 "O1"
let test_o2_matches_interp () = check_same_result big_src Pipelines.o2 "O2"
let test_o3_matches_interp () = check_same_result big_src Pipelines.o3 "O3"

let test_o2_not_slower_than_o0 () =
  let dx = compile_src big_src in
  let b0 = compile_all dx Pipelines.o0 in
  let b2 = compile_all dx Pipelines.o2 in
  let _, _, c0 = run_binary dx b0 in
  let _, _, c2 = run_binary dx b2 in
  Alcotest.(check bool) "O2 <= O0 cycles" true (c2 <= c0)

(* every safe pass individually preserves semantics on the big program *)
let test_each_safe_pass_preserves_semantics () =
  let dx = compile_src big_src in
  let ri, io_i, _ = run_interp dx in
  List.iter
    (fun pass ->
       if pass.Passes.safe then begin
         let defaults =
           Array.of_list
             (List.map (fun pr -> pr.Passes.pdefault) pass.Passes.params)
         in
         let spec = [ (pass.Passes.name, defaults) ] in
         let binary = compile_all dx spec in
         let rb, io_b, _ = run_binary dx binary in
         Alcotest.check value_opt (pass.Passes.name ^ ": result") ri rb;
         Alcotest.(check string) (pass.Passes.name ^ ": io") io_i io_b
       end)
    Passes.catalog

(* random safe-pass sequences preserve semantics *)
let prop_random_safe_sequences =
  QCheck.Test.make ~name:"random safe sequences preserve semantics" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 12) (int_bound 1000))
    (fun choices ->
       let dx = compile_src big_src in
       let ri, io_i, _ = run_interp dx in
       let safe = List.filter (fun pass -> pass.Passes.safe) Passes.catalog in
       let spec =
         List.map
           (fun c ->
              let pass = List.nth safe (c mod List.length safe) in
              let defaults =
                Array.of_list
                  (List.map (fun pr -> pr.Passes.pdefault) pass.Passes.params)
              in
              (pass.Passes.name, defaults))
           choices
       in
       match compile_all dx spec with
       | binary ->
         let rb, io_b, _ = run_binary dx binary in
         (match ri, rb with
          | Some a, Some b -> Vm.Value.equal a b && io_i = io_b
          | None, None -> io_i = io_b
          | _ -> false)
       | exception Compile.Compile_timeout -> true (* legitimate outcome *))

(* unsafe passes CAN change behaviour (fast-math on a division) *)
let test_fast_math_changes_bits () =
  (* 5.0 / 3.0 and 5.0 * (1.0 / 3.0) differ in the last ulp *)
  let src =
    "class Main { static float main() {
       float five = 5.0;
       return five / 3.0;
     } }"
  in
  let dx = compile_src src in
  let ri, _, _ = run_interp dx in
  let binary = compile_all dx [ ("fast-math", [| 1; 1 |]) ] in
  let rb, _, _ = run_binary dx binary in
  match ri, rb with
  | Some (Vm.Value.Vfloat a), Some (Vm.Value.Vfloat b) ->
    Alcotest.(check bool) "bits differ" true
      (Int64.bits_of_float a <> Int64.bits_of_float b)
  | _ -> Alcotest.fail "expected float results"

let test_unsafe_div_wrong_for_negatives () =
  let src =
    "class Main { static int main() {
       int x = 0 - 7;
       int four = 4;
       return x / four;
     } }"
  in
  let dx = compile_src src in
  let ri, _, _ = run_interp dx in
  (* constfold first would hide it; apply SR alone: needs the divisor as a
     known constant, so give it one through a static *)
  let binary =
    compile_all dx [ ("constfold", [||]); ("copyprop", [||]);
                     ("unsafe-div-lower", [||]) ]
  in
  let rb, _, _ = run_binary dx binary in
  Alcotest.(check bool) "results differ (or equal if pass missed)" true
    (ri = Some (Vm.Value.Vint (-1))
     && (rb = Some (Vm.Value.Vint (-2)) || rb = Some (Vm.Value.Vint (-1))))

let test_unsafe_bce_can_crash () =
  let src =
    "class Main {
       static int get(int[] a, int i) { return a[i]; }
       static int main() {
         int[] a = new int[4];
         int bad = 400000;
         try { return get(a, bad); } catch (int e) { return e; }
       }
     }"
  in
  let dx = compile_src src in
  (* interpreted: caught out-of-bounds exception *)
  let ri, _, _ = run_interp dx in
  Alcotest.check value_opt "interp catches OOB"
    (Some (Vm.Value.Vint Vm.Exec_ctx.exc_out_of_bounds)) ri;
  (* compiled without bounds guards: wild read, segfault or garbage *)
  let binary = compile_all dx [ ("unsafe-bce", [||]) ] in
  let ctx = Vm.Image.build ~seed:7 dx in
  Exec.install ctx binary;
  (match Vm.Interp.run_main ctx with
   | _ -> ()  (* silent garbage is possible *)
   | exception Exec.Segfault _ -> ()  (* crash is expected for a wild read *))

let test_compile_timeout_on_explosion () =
  let dx = compile_src big_src in
  let spec =
    List.init 8 (fun _ -> ("unroll", [| 16; 4000; 1 |]))
    @ [ ("inline", [| 400 |]) ]
  in
  (try
     ignore (compile_all dx spec);
     Alcotest.fail "expected Compile_timeout"
   with Compile.Compile_timeout -> ())

let test_unknown_pass_is_compile_error () =
  let dx = compile_src big_src in
  (try
     ignore (compile_all dx [ ("magic", [||]) ]);
     Alcotest.fail "expected Compile_error"
   with Compile.Compile_error _ -> ())

let test_devirt_speeds_up_with_profile () =
  let src = {|
class A { int f() { return 1; } }
class B extends A { int f() { return 2; } }
class Main {
  static int main() {
    A x = new B();
    int s = 0;
    for (int i = 0; i < 3000; i = i + 1) { s = s + x.f(); }
    return s;
  }
}
|} in
  let dx = compile_src src in
  let ri, _, _ = run_interp dx in
  (* collect a dispatch profile through an interpreted run (as the
     interpreted replay would) *)
  let typeprof = Repro_capture.Typeprof.create () in
  let ctx = Vm.Image.build ~seed:7 dx in
  Repro_capture.Typeprof.install typeprof ctx;
  Vm.Interp.install ctx;
  ignore (Vm.Interp.run_main ctx);
  let fe =
    Compile.frontend
      ~profile:Repro_capture.Typeprof.(digest typeprof, lookup typeprof) dx
  in
  let spec_plain = Pipelines.o2 in
  let spec_devirt =
    Pipelines.o2 @ [ ("devirtualize", [| 90 |]); ("inline", [| 60 |]);
                     ("dce", [||]) ]
  in
  let b_plain = Compile.llvm_binary fe spec_plain (all_mids dx) in
  let b_devirt = Compile.llvm_binary fe spec_devirt (all_mids dx) in
  let r1, _, c_plain = run_binary dx b_plain in
  let r2, _, c_devirt = run_binary dx b_devirt in
  Alcotest.check value_opt "plain correct" ri r1;
  Alcotest.check value_opt "devirt correct" ri r2;
  Alcotest.(check bool) "devirt faster" true (c_devirt < c_plain)

let test_jni_to_intrinsic_speeds_up () =
  let src =
    "class Main { static float main() {
       float s = 0.0;
       for (int i = 0; i < 2000; i = i + 1) { s = s + Math.sqrt(s + 2.0); }
       return s;
     } }"
  in
  let dx = compile_src src in
  let ri, _, _ = run_interp dx in
  let b1 = compile_all dx Pipelines.o2 in
  let b2 = compile_all dx (Pipelines.o2 @ [ ("jni-to-intrinsic", [||]) ]) in
  let r1, _, c1 = run_binary dx b1 in
  let r2, _, c2 = run_binary dx b2 in
  Alcotest.check value_opt "o2 correct" ri r1;
  Alcotest.check value_opt "intrinsic correct" ri r2;
  Alcotest.(check bool) "intrinsics faster" true (c2 < c1)

(* ------------- pressure cache (Evalpool data-race regression) -------- *)

(* Binary.create must precompute every function's register-pressure cache:
   the executor used to fill it lazily, which raced when Evalpool worker
   domains shared one binary. *)
let test_binary_precomputes_pressure () =
  let dx = compile_src big_src in
  let binary = Compile.android_binary dx (all_mids dx) in
  List.iter
    (fun mid ->
       match Binary.find binary mid with
       | Some f ->
         Alcotest.(check bool)
           (Printf.sprintf "pressure cached for mid %d" mid)
           true (f.Hir.f_pressure <> None)
       | None -> ())
    (Binary.mids binary)

let test_executor_never_fills_pressure () =
  (* a func that bypasses Binary.create keeps f_pressure = None across a
     run: the executor recomputes instead of mutating the shared record *)
  let dx =
    compile_src
      "class Main { static int main() {
         int s = 0;
         for (int i = 0; i < 10; i = i + 1) { s = s + i; }
         return s;
       } }"
  in
  let f = Translate.func dx (Build.func dx dx.B.dx_main) in
  f.Hir.f_pressure <- None;
  let ctx = Vm.Image.build ~seed:7 dx in
  Vm.Interp.install ctx;
  let r = Exec.run_func ctx f [] in
  Alcotest.(check value_opt) "loop result" (Some (Vm.Value.Vint 45)) r;
  Alcotest.(check bool) "executor left the cache alone" true
    (f.Hir.f_pressure = None)

let test_pressure_safe_across_domains () =
  (* hammer: four domains execute the same binary concurrently; results
     must agree with the sequential run (no torn pressure cache) *)
  let dx = compile_src big_src in
  let binary = Compile.android_binary dx (all_mids dx) in
  let expected = run_binary dx binary in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> run_binary dx binary))
  in
  List.iter
    (fun d ->
       let r, io, cycles = Domain.join d in
       let er, eio, ecycles = expected in
       Alcotest.(check value_opt) "same return" er r;
       Alcotest.(check string) "same io" eio io;
       Alcotest.(check int) "same cycles" ecycles cycles)
    domains

(* ------------------- pinned compiler output ------------------------- *)

(* 40 seeded random genomes each for FFT, SOR, LU and MaterialLife,
   compiled over the app's expected hot region with the stage cache on
   and then off.  Every outcome (binary digest and size, compile error or
   timeout) folds into one MD5 pinned as a literal: a rewrite of a pass
   or of an analysis that changes any binary, or the work charged before
   a timeout, moves it.  A fresh front end per genome with the stage
   cache off must reach the same outcome genome by genome as the warm
   staged path resuming from cached prefixes. *)
let pinned_compile_md5 = "1276383105d9fb87f9e5e0a8f0151830"

let test_pinned_compile_digest () =
  let module App = Repro_apps.Registry in
  let module Genome = Repro_search.Genome in
  let module Stagecache = Repro_lir.Stagecache in
  let buf = Buffer.create 4096 in
  let outcome compile g =
    match compile (Genome.to_spec g) with
    | b -> Printf.sprintf "ok %s %d" (Binary.digest b) b.Binary.size
    | exception Compile.Compile_error msg -> "error " ^ msg
    | exception Compile.Compile_timeout -> "timeout"
  in
  let was_enabled = Stagecache.enabled () in
  Fun.protect ~finally:(fun () -> Stagecache.set_enabled was_enabled)
  @@ fun () ->
  List.iteri
    (fun k name ->
       let app = Option.get (App.find name) in
       let dx = App.dexfile app in
       let cls, meth = List.hd app.App.expect_hot in
       let hot = Option.get (B.find_method dx cls meth) in
       let region = Repro_core.Pipeline.region_methods app hot.B.cm_id in
       let fe = Compile.frontend dx in
       let rng = Repro_util.Rng.of_pair 15 k in
       let genomes = List.init 40 (fun _ -> Genome.random rng) in
       let staged stage =
         Stagecache.set_enabled stage;
         Stagecache.reset ();
         List.map
           (outcome (fun spec -> Compile.llvm_binary fe spec region))
           genomes
       in
       let cached = staged true in
       let uncached = staged false in
       List.iter
         (fun (stage, outcomes) ->
            List.iteri
              (fun i o -> Printf.bprintf buf "%s %b %d %s\n" name stage i o)
              outcomes)
         [ (true, cached); (false, uncached) ];
       (* [staged false] left the stage cache off *)
       Alcotest.(check (list string))
         (name ^ ": fresh front end per genome, stage cache off = staged")
         cached
         (List.map
            (outcome (fun spec ->
                 Compile.(llvm_binary (frontend dx)) spec region))
            genomes))
    [ "FFT"; "SOR"; "LU"; "MaterialLife" ];
  Alcotest.(check string) "pinned compile MD5" pinned_compile_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "lir"
    [ ("build",
       [ Alcotest.test_case "rejects try" `Quick test_build_rejects_try;
         Alcotest.test_case "suspend checks" `Quick test_build_loop_has_suspend_check ]);
      ("translate",
       [ Alcotest.test_case "expands checks" `Quick test_translate_expands_checks;
         Alcotest.test_case "infer kinds" `Quick test_infer_kinds ]);
      ("transforms",
       [ Alcotest.test_case "const fold" `Quick test_const_fold;
         Alcotest.test_case "dce" `Quick test_dce_removes_dead;
         Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
         Alcotest.test_case "simplify cfg" `Quick test_simplify_cfg_merges ]);
      ("passes",
       [ Alcotest.test_case "catalog unique" `Quick test_catalog_names_unique;
         Alcotest.test_case "param validation" `Quick test_pass_param_validation;
         Alcotest.test_case "unroll + gc-check-elim" `Quick
           test_unroll_duplicates_suspend_checks;
         Alcotest.test_case "bce" `Quick test_bce_removes_guards;
         Alcotest.test_case "if-convert" `Quick test_if_convert_forms_selects;
         Alcotest.test_case "guard-hoist" `Quick test_guard_hoist_moves_guards_out;
         Alcotest.test_case "sink" `Quick test_sink_preserves_semantics ]);
      ("differential",
       [ Alcotest.test_case "android = interp" `Quick test_android_binary_matches_interp;
         Alcotest.test_case "O1 = interp" `Quick test_o1_matches_interp;
         Alcotest.test_case "O2 = interp" `Quick test_o2_matches_interp;
         Alcotest.test_case "O3 = interp" `Quick test_o3_matches_interp;
         Alcotest.test_case "O2 <= O0" `Quick test_o2_not_slower_than_o0;
         Alcotest.test_case "each safe pass" `Slow test_each_safe_pass_preserves_semantics;
         QCheck_alcotest.to_alcotest prop_random_safe_sequences ]);
      ("unsafe",
       [ Alcotest.test_case "fast-math changes bits" `Quick test_fast_math_changes_bits;
         Alcotest.test_case "unsafe div" `Quick test_unsafe_div_wrong_for_negatives;
         Alcotest.test_case "unsafe bce crash" `Quick test_unsafe_bce_can_crash;
         Alcotest.test_case "compile timeout" `Quick test_compile_timeout_on_explosion;
         Alcotest.test_case "unknown pass" `Quick test_unknown_pass_is_compile_error ]);
      ("profile-guided",
       [ Alcotest.test_case "devirtualize" `Quick test_devirt_speeds_up_with_profile;
         Alcotest.test_case "jni-to-intrinsic" `Quick test_jni_to_intrinsic_speeds_up ]);
      ("pressure-cache",
       [ Alcotest.test_case "binary precomputes" `Quick test_binary_precomputes_pressure;
         Alcotest.test_case "executor read-only" `Quick test_executor_never_fills_pressure;
         Alcotest.test_case "cross-domain" `Quick test_pressure_safe_across_domains ]);
      ("pinned",
       [ Alcotest.test_case "compile digest" `Quick test_pinned_compile_digest ]) ]
