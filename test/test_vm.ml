(* Tests for the VM: values, heap, memory image, interpreter semantics. *)

open Repro_vm
module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem

let run_src src =
  let dx = Repro_dex.Lower.compile src in
  let ctx = Image.build ~seed:1 dx in
  Interp.install ctx;
  (ctx, Interp.run_main ctx)

let expect_int src expected =
  let _, result = run_src src in
  match result with
  | Some (Value.Vint k) -> Alcotest.(check int) "result" expected k
  | _ -> Alcotest.fail "expected int result"

let expect_float src expected =
  let _, result = run_src src in
  match result with
  | Some (Value.Vfloat f) -> Alcotest.(check (float 1e-9)) "result" expected f
  | _ -> Alcotest.fail "expected float result"

(* ------------------------------ Value ------------------------------- *)

let test_value_roundtrip () =
  let mem = Mem.create () in
  Mem.map mem ~base:0x1000 ~npages:1 ~kind:Mem.Rheap ~name:"heap";
  let check v kind =
    Value.store mem 0x1000 v;
    Alcotest.(check bool) "roundtrip" true
      (Value.equal v (Value.load mem kind 0x1000))
  in
  check (Value.Vint 42) B.Kint;
  check (Value.Vint (-7)) B.Kint;
  check (Value.Vfloat 3.25) B.Kfloat;
  check (Value.Vfloat (-0.0)) B.Kfloat;
  check (Value.Vbool true) B.Kbool;
  check (Value.Vbool false) B.Kbool;
  check (Value.Vref 0x40000000) B.Kref;
  (* a word with only its top bit set: a bool sees every bit, an int the
     low 63 *)
  Mem.write_word mem 0x1000 Int64.min_int;
  Alcotest.(check bool) "top bit is true" true
    (Value.equal (Value.Vbool true) (Value.load mem B.Kbool 0x1000));
  Alcotest.(check bool) "top bit dropped from an int" true
    (Value.equal (Value.Vint 0) (Value.load mem B.Kint 0x1000))

(* ------------------------------- Heap ------------------------------- *)

let test_heap_alloc () =
  let mem = Mem.create () in
  Mem.map mem ~base:0x1000 ~npages:2 ~kind:Mem.Rheap ~name:"heap";
  let h = Heap.create mem ~base:0x1000 ~npages:2 in
  let a = Heap.alloc h ~nwords:4 in
  let b = Heap.alloc h ~nwords:4 in
  Alcotest.(check int) "first at base" 0x1000 a;
  Alcotest.(check int) "contiguous" (0x1000 + 32) b;
  Alcotest.(check int) "used words" 8 (Heap.used_words h);
  (try
     ignore (Heap.alloc h ~nwords:10000);
     Alcotest.fail "expected OOM"
   with Heap.Out_of_memory -> ())

(* --------------------------- Interpreter ---------------------------- *)

let test_arith () =
  expect_int "class Main { static int main() { return (3 + 4) * 5 - 100 / 3 % 7; } }"
    ((3 + 4) * 5 - (100 / 3 mod 7))

let test_float_arith () =
  expect_float
    "class Main { static float main() { float x = 1.5; return x * 4.0 + 1.0 / 2.0; } }"
    6.5

let test_loops () =
  expect_int
    "class Main { static int main() {
       int s = 0;
       for (int i = 1; i <= 100; i = i + 1) { s = s + i; }
       return s;
     } }"
    5050

let test_while_break_continue () =
  expect_int
    "class Main { static int main() {
       int s = 0;
       int i = 0;
       while (true) {
         i = i + 1;
         if (i > 10) { break; }
         if (i % 2 == 0) { continue; }
         s = s + i;
       }
       return s;
     } }"
    25

let test_arrays () =
  expect_int
    "class Main { static int main() {
       int[] a = new int[10];
       for (int i = 0; i < a.length; i = i + 1) { a[i] = i * i; }
       int s = 0;
       for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
       return s;
     } }"
    285

let test_float_arrays () =
  expect_float
    "class Main { static float main() {
       float[] a = new float[4];
       a[0] = 0.5; a[1] = 1.5; a[2] = 2.5; a[3] = 3.5;
       return a[0] + a[1] + a[2] + a[3];
     } }"
    8.0

let test_objects_and_fields () =
  expect_int
    "class Point {
       int x; int y;
       void init(int ax, int ay) { x = ax; y = ay; }
       int sum() { return x + y; }
     }
     class Main { static int main() {
       Point p = new Point(3, 4);
       p.x = p.x + 10;
       return p.sum();
     } }"
    17

let test_static_fields () =
  expect_int
    "class Counter { static int n = 100; }
     class Main { static int main() {
       Counter.n = Counter.n + 5;
       return Counter.n;
     } }"
    105

let test_virtual_dispatch () =
  expect_int
    "class Shape { int area() { return 0; } }
     class Square extends Shape { int side; void init(int s) { side = s; }
       int area() { return side * side; } }
     class Rect extends Shape { int w; int h;
       void init(int aw, int ah) { w = aw; h = ah; }
       int area() { return w * h; } }
     class Main { static int main() {
       Shape[] shapes = new Shape[3];
       shapes[0] = new Square(3);
       shapes[1] = new Rect(2, 5);
       shapes[2] = new Shape();
       int total = 0;
       for (int i = 0; i < shapes.length; i = i + 1) {
         total = total + shapes[i].area();
       }
       return total;
     } }"
    19

let test_inherited_field_access () =
  expect_int
    "class A { int base; }
     class B extends A { int extra;
       void init() { base = 7; extra = 13; }
       int total() { return base + extra; } }
     class Main { static int main() { return new B().total(); } }"
    20

let test_recursion () =
  expect_int
    "class Main {
       static int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
       static int main() { return fib(15); }
     }"
    610

let test_natives () =
  expect_float
    "class Main { static float main() {
       return Math.sqrt(16.0) + Math.pow(2.0, 3.0) + Math.abs(0.0 - 1.5)
            + Math.max(1.0, 2.0);
     } }"
    15.5

let test_native_int_overloads () =
  expect_int
    "class Main { static int main() {
       return Math.abs(0 - 5) + Math.min(3, 9) + Math.max(3, 9);
     } }"
    17

let test_exceptions_catch () =
  expect_int
    "class Main { static int main() {
       int x = 0;
       try { x = 1; throw 42; } catch (int e) { x = x + e; }
       return x;
     } }"
    43

let test_exceptions_nested () =
  expect_int
    "class Main { static int main() {
       int x = 0;
       try {
         try { throw 5; } catch (int e) { x = e; throw 7; }
       } catch (int f) { x = x * 10 + f; }
       return x;
     } }"
    57

let test_exceptions_propagate_through_calls () =
  expect_int
    "class Main {
       static int boom() { throw 9; }
       static int main() {
         try { return boom(); } catch (int e) { return e * 2; }
       }
     }"
    18

let test_null_pointer_exception () =
  expect_int
    (Printf.sprintf
       "class C { int f; }
        class Main { static int main() {
          C c = null;
          try { return c.f; } catch (int e) { return e; }
        } }")
    Exec_ctx.exc_null_pointer

let test_bounds_exception () =
  expect_int
    (Printf.sprintf
       "class Main { static int main() {
          int[] a = new int[3];
          try { return a[5]; } catch (int e) { return e; }
        } }")
    Exec_ctx.exc_out_of_bounds

let test_div_by_zero () =
  expect_int
    "class Main { static int main() {
       int z = 0;
       try { return 10 / z; } catch (int e) { return e; }
     } }"
    Exec_ctx.exc_div_by_zero

let test_uncaught_exception () =
  try
    ignore (run_src "class Main { static int main() { throw 3; } }");
    Alcotest.fail "expected App_exception"
  with Exec_ctx.App_exception 3 -> ()

let test_io_output () =
  let ctx, _ = run_src
      "class Main { static int main() { Sys.print(7); Sys.print(2.5); return 0; } }"
  in
  Alcotest.(check string) "stdout" "7\n2.5\n" (Buffer.contents ctx.Exec_ctx.io)

let test_rand_deterministic () =
  let src =
    "class Main { static int main() {
       int s = 0;
       for (int i = 0; i < 10; i = i + 1) { s = s + Sys.rand(100); }
       return s;
     } }"
  in
  let _, a = run_src src in
  let _, b = run_src src in
  Alcotest.(check bool) "same seed, same draws" true (a = b)

let test_cycles_positive_and_monotone () =
  let src_small =
    "class Main { static int main() {
       int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; } }"
  in
  let src_large =
    "class Main { static int main() {
       int s = 0; for (int i = 0; i < 1000; i = i + 1) { s = s + i; } return s; } }"
  in
  let ctx1, _ = run_src src_small in
  let ctx2, _ = run_src src_large in
  Alcotest.(check bool) "cycles > 0" true (ctx1.Exec_ctx.cycles > 0);
  Alcotest.(check bool) "more work, more cycles" true
    (ctx2.Exec_ctx.cycles > ctx1.Exec_ctx.cycles)

let test_timeout () =
  let dx =
    Repro_dex.Lower.compile
      "class Main { static int main() { while (true) { } return 0; } }"
  in
  let ctx = Image.build ~fuel:100_000 dx in
  Interp.install ctx;
  (try
     ignore (Interp.run_main ctx);
     Alcotest.fail "expected Timeout"
   with Exec_ctx.Timeout -> ())

let test_gc_triggers () =
  let ctx, _ = run_src
      "class Main { static int main() {
         int s = 0;
         for (int i = 0; i < 2000; i = i + 1) {
           int[] a = new int[100];
           a[0] = i;
           s = s + a[0];
         }
         return s;
       } }"
  in
  Alcotest.(check bool) "gc ran" true (ctx.Exec_ctx.gc_count > 0)

let test_heap_pages_touched () =
  let ctx, _ = run_src
      "class Main { static int main() {
         int[] a = new int[5000];
         for (int i = 0; i < a.length; i = i + 1) { a[i] = i; }
         return a[4999];
       } }"
  in
  let pages = Mem.touched_pages ctx.Exec_ctx.mem ~kind:Mem.Rheap in
  (* 64 warm pages + 5001 words = ~9.8 pages of fresh data *)
  let warm = Image.default_config.Image.warm_heap_pages in
  Alcotest.(check bool) "about warm+10 heap pages" true
    (List.length pages >= warm + 9 && List.length pages <= warm + 12)

let test_stack_overflow () =
  expect_int
    "class Main {
       static int down(int n) { return down(n + 1); }
       static int main() {
         try { return down(0); } catch (int e) { return e; }
       }
     }"
    Exec_ctx.exc_stack_overflow

let test_sampling_profiler () =
  let dx =
    Repro_dex.Lower.compile
      "class Main {
         static float spin(int n) {
           float x = 1.0;
           for (int i = 0; i < n; i = i + 1) { x = x + Math.sqrt(x); }
           return x;
         }
         static int main() { spin(20000); return 0; }
       }"
  in
  let ctx = Image.build dx in
  ctx.Exec_ctx.sample_period <- 10_000;
  ctx.Exec_ctx.next_sample <- 10_000;
  Interp.install ctx;
  ignore (Interp.run_main ctx);
  let samples = ctx.Exec_ctx.samples in
  Alcotest.(check bool) "has samples" true (List.length samples > 10);
  let spin_id = (Option.get (B.find_method dx "Main" "spin")).B.cm_id in
  let in_spin =
    List.length (List.filter (fun s -> s.Exec_ctx.s_method = spin_id) samples)
  in
  Alcotest.(check bool) "most samples in spin" true
    (float_of_int in_spin /. float_of_int (List.length samples) > 0.8)

(* ------------------------------- Mem --------------------------------- *)

let test_mem_cow () =
  let mem = Mem.create () in
  Mem.map mem ~base:0 ~npages:4 ~kind:Mem.Rheap ~name:"h";
  Mem.write_int mem 0 111;
  Mem.write_int mem 4096 222;
  let child = Mem.fork mem in
  (* parent writes after fork: child must keep the original *)
  Mem.write_int mem 0 999;
  Alcotest.(check int) "parent sees new" 999 (Mem.read_int mem 0);
  Alcotest.(check int) "child sees original" 111 (Mem.read_int child 0);
  Alcotest.(check int) "unmodified page shared" 222 (Mem.read_int child 4096);
  Alcotest.(check bool) "one CoW copy" true ((Mem.stats mem).Mem.n_cow >= 1)

let test_mem_protection_fault () =
  let mem = Mem.create () in
  Mem.map mem ~base:0 ~npages:2 ~kind:Mem.Rheap ~name:"h";
  Mem.write_int mem 0 5;
  let faulted = ref [] in
  Mem.set_fault_handler mem (Some (fun page -> faulted := page :: !faulted));
  Mem.protect mem ~page:0;
  Alcotest.(check int) "read proceeds after fault" 5 (Mem.read_int mem 0);
  Alcotest.(check (list int)) "fault recorded" [ 0 ] !faulted;
  ignore (Mem.read_int mem 0);
  Alcotest.(check (list int)) "only one fault" [ 0 ] !faulted

let test_mem_unmapped () =
  let mem = Mem.create () in
  (try
     ignore (Mem.read_word mem 0x9999_0000);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* qcheck: interpreter arithmetic matches OCaml on random expressions *)
let prop_interp_arith =
  QCheck.Test.make ~name:"interp sum of squares matches closed form" ~count:30
    QCheck.(int_range 1 60)
    (fun n ->
       let src = Printf.sprintf
           "class Main { static int main() {
              int s = 0;
              for (int i = 1; i <= %d; i = i + 1) { s = s + i * i; }
              return s;
            } }" n
       in
       let _, r = run_src src in
       r = Some (Value.Vint (n * (n + 1) * ((2 * n) + 1) / 6)))

let () =
  Alcotest.run "vm"
    [ ("value", [ Alcotest.test_case "roundtrip" `Quick test_value_roundtrip ]);
      ("heap", [ Alcotest.test_case "alloc" `Quick test_heap_alloc ]);
      ("mem",
       [ Alcotest.test_case "cow" `Quick test_mem_cow;
         Alcotest.test_case "protection fault" `Quick test_mem_protection_fault;
         Alcotest.test_case "unmapped" `Quick test_mem_unmapped ]);
      ("interp",
       [ Alcotest.test_case "arith" `Quick test_arith;
         Alcotest.test_case "float arith" `Quick test_float_arith;
         Alcotest.test_case "loops" `Quick test_loops;
         Alcotest.test_case "break/continue" `Quick test_while_break_continue;
         Alcotest.test_case "arrays" `Quick test_arrays;
         Alcotest.test_case "float arrays" `Quick test_float_arrays;
         Alcotest.test_case "objects" `Quick test_objects_and_fields;
         Alcotest.test_case "static fields" `Quick test_static_fields;
         Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch;
         Alcotest.test_case "inherited fields" `Quick test_inherited_field_access;
         Alcotest.test_case "recursion" `Quick test_recursion;
         Alcotest.test_case "natives" `Quick test_natives;
         Alcotest.test_case "native int overloads" `Quick test_native_int_overloads;
         Alcotest.test_case "exceptions catch" `Quick test_exceptions_catch;
         Alcotest.test_case "exceptions nested" `Quick test_exceptions_nested;
         Alcotest.test_case "exceptions through calls" `Quick
           test_exceptions_propagate_through_calls;
         Alcotest.test_case "null pointer" `Quick test_null_pointer_exception;
         Alcotest.test_case "bounds" `Quick test_bounds_exception;
         Alcotest.test_case "div by zero" `Quick test_div_by_zero;
         Alcotest.test_case "uncaught" `Quick test_uncaught_exception;
         Alcotest.test_case "io output" `Quick test_io_output;
         Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
         Alcotest.test_case "cycles monotone" `Quick test_cycles_positive_and_monotone;
         Alcotest.test_case "timeout" `Quick test_timeout;
         Alcotest.test_case "gc triggers" `Quick test_gc_triggers;
         Alcotest.test_case "heap pages touched" `Quick test_heap_pages_touched;
         Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
         Alcotest.test_case "sampling profiler" `Quick test_sampling_profiler ]);
      ("vm-properties",
       List.map QCheck_alcotest.to_alcotest [ prop_interp_arith ]) ]
