module Image = Repro_vm.Image
module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem
module Rng = Repro_util.Rng

type app_class = Scimark_suite | Art_suite | Interactive_suite

type t = {
  name : string;
  cls : app_class;
  descr : string;
  source : string;
  image : Image.config;
  expect_hot : (string * string) list;
}

let class_name = function
  | Scimark_suite -> "Scimark"
  | Art_suite -> "Art"
  | Interactive_suite -> "Interactive"

(* Memory footprints: the boot-common runtime image is the same for every
   process (12.6 MB, Figure 11); apps differ in mapped libraries (maps
   entries, Figure 10's preparation cost) and in how much heap their hot
   region touches (their own code determines that). *)
let image ?(extra_maps = 80) ?(warm = 64) ?(heap_pages = 16384) () =
  { Image.default_config with extra_maps; heap_pages; warm_heap_pages = warm }

let bench ?extra_maps ?warm name descr source expect_hot cls =
  { name; cls; descr; source; image = image ?extra_maps ?warm (); expect_hot }

let all = [
  bench "FFT" ~warm:90 "Fast Fourier Transform" Scimark.fft
    [ ("FFT", "run") ] Scimark_suite ~extra_maps:60;
  bench "SOR" ~warm:110 "Jacobi successive over-relaxation" Scimark.sor
    [ ("SOR", "execute") ] Scimark_suite ~extra_maps:54;
  bench "MonteCarlo" ~warm:60 "Estimates pi value" Scimark.montecarlo
    [ ("MonteCarlo", "integrate") ] Scimark_suite ~extra_maps:58;
  bench "Sparse matmult" ~warm:130 "Indirection and addressing" Scimark.sparse_matmult
    [ ("Sparse", "matmult") ] Scimark_suite ~extra_maps:66;
  bench "LU" ~warm:100 "Linear algebra kernels" Scimark.lu
    [ ("LU", "factor") ] Scimark_suite ~extra_maps:62;
  bench "Sieve" ~warm:50 "Lists prime numbers" Art.sieve
    [ ("Sieve", "primes") ] Art_suite ~extra_maps:50;
  bench "BubbleSort" ~warm:60 "Simple sorting algorithm" Art.bubblesort
    [ ("BubbleSort", "sort") ] Art_suite ~extra_maps:48;
  bench "SelectionSort" ~warm:55 "Simple sorting algorithm" Art.selectionsort
    [ ("SelectionSort", "sort") ] Art_suite ~extra_maps:48;
  bench "Linpack" ~warm:120 "Numerical linear algebra" Art.linpack
    [ ("Linpack", "gefa") ] Art_suite ~extra_maps:70;
  bench "Fibonacci.iter" ~warm:40 "Fibonacci sequence iterative" Art.fibonacci_iter
    [ ("Fib", "run"); ("Fib", "iter") ] Art_suite ~extra_maps:44;
  bench "Fibonacci.recv" ~warm:40 "Fibonacci sequence recursive" Art.fibonacci_recv
    [ ("Fib", "run"); ("Fib", "rec") ] Art_suite ~extra_maps:44;
  bench "Dhrystone" ~warm:80 "Representative general CPU performance" Art.dhrystone
    [ ("Dhry", "run") ] Art_suite ~extra_maps:52;
  bench "MaterialLife" ~warm:600 "Game of life" Interactive.materiallife
    [ ("Life", "generation"); ("Life", "step") ] Interactive_suite
    ~extra_maps:170;
  bench "4inaRow" ~warm:700 "Puzzle game" Interactive.fourinarow
    [ ("Ai", "best") ] Interactive_suite ~extra_maps:210;
  bench "DroidFish" ~warm:1400 "Chess game" Interactive.droidfish
    [ ("Search", "think"); ("Search", "quiesce") ] Interactive_suite
    ~extra_maps:240;
  bench "ColorOverflow" ~warm:500 "Strategic game" Interactive.coloroverflow
    [ ("Game", "overflow") ] Interactive_suite ~extra_maps:160;
  bench "Brainstonz" ~warm:420 "Board game" Interactive.brainstonz
    [ ("Ai", "pick"); ("Ai", "search") ] Interactive_suite ~extra_maps:150;
  bench "Blokish" ~warm:800 "Board game" Interactive.blokish
    [ ("Blok", "bestPlacement") ] Interactive_suite ~extra_maps:190;
  bench "Svarka Calculator" ~warm:380 "Generates odds for a card game" Interactive.svarka
    [ ("Svarka", "odds") ] Interactive_suite ~extra_maps:140;
  bench "Reversi Android" ~warm:640 "Board game" Interactive.reversi
    [ ("Reversi", "bestMove"); ("Reversi", "flipsFor") ] Interactive_suite ~extra_maps:180;
  bench "Poker Odds (Vitosha)" ~warm:300 "Statistical analysis for poker cards"
    Interactive.pokerodds
    [ ("Poker", "simulate") ] Interactive_suite ~extra_maps:130;
]

let names = List.map (fun a -> a.name) all
let find name = List.find_opt (fun a -> a.name = name) all

(* Keyed on the source text, not the name: an app that reuses a registry
   name with other code gets its own dexfile. *)
let cache : (string, Repro_dex.Bytecode.dexfile) Hashtbl.t = Hashtbl.create 32

let dexfile app =
  match Hashtbl.find_opt cache app.source with
  | Some dx -> dx
  | None ->
    let dx = Repro_dex.Lower.compile app.source in
    Hashtbl.add cache app.source dx;
    dx

(* ------------------------------ inputs ------------------------------ *)

(* One online input: raw words poked over named static fields after the
   image is built, before the run starts.  The default input pokes nothing,
   so [build_ctx] without an input is exactly the historical behaviour. *)
type input = {
  in_label : string;
  in_statics : (string * int64) list;
}

let default_input = { in_label = "default"; in_statics = [] }

let static_slot dx name =
  match List.assoc_opt name dx.B.dx_static_names with
  | Some slot -> slot
  | None -> invalid_arg (Printf.sprintf "Registry: unknown static %S" name)

let poke_statics dx ctx statics =
  List.iter
    (fun (name, word) ->
       let addr = Image.statics_base + (8 * static_slot dx name) in
       Mem.write_word ctx.Repro_vm.Exec_ctx.mem addr word)
    statics

let build_ctx ?(seed = 42) ?fuel ?(input = default_input) app =
  let dx = dexfile app in
  let ctx = Image.build ~config:app.image ?fuel ~seed dx in
  poke_statics dx ctx input.in_statics;
  ctx

let int_static name v = (name, Int64.of_int v)
let float_static name v = (name, Int64.bits_of_float v)

(* Curated adversarial edges per app, in corpus order: shapes that make
   the reference itself trap (non-power-of-two FFT sizes, out-of-range
   sparse columns, short LU arrays, over-wide SOR strides — the inputs
   that expose guard-stripping), zero-length arrays, boundary sizes, and
   NaN/denormal floats for the fast-math corner, and negative dividends
   for power-of-two divisions (shift lowering rounds the wrong way).  The
   adversarial edges sit at staggered positions so growing the corpus
   keeps retiring new unsafe binaries (the survival curve in
   Experiments.survival). *)
let edge_inputs app =
  match app.name with
  | "FFT" ->
    [ { in_label = "size=6 non-pow2 (kernel traps)";
        in_statics = [ int_static "Main.size" 6 ] };
      { in_label = "nan bias";
        in_statics = [ float_static "Main.bias" Float.nan ] };
      { in_label = "size=0 empty signal";
        in_statics = [ int_static "Main.size" 0 ] };
      { in_label = "denormal bias";
        in_statics = [ ("Main.bias", 1L) ] } ]
  | "SOR" ->
    [ { in_label = "dim=2 vacuous interior";
        in_statics = [ int_static "Main.dim" 2 ] };
      { in_label = "stride=1 over-wide rows (kernel traps)";
        in_statics = [ int_static "Main.stride" 1 ] };
      { in_label = "dim=32";
        in_statics = [ int_static "Main.dim" 32 ] };
      { in_label = "dim=12";
        in_statics = [ int_static "Main.dim" 12 ] };
      { in_label = "skew=-6 negative pow2 dividend";
        in_statics = [ int_static "Main.skew" (-6) ] } ]
  | "MonteCarlo" ->
    [ { in_label = "samples=1";
        in_statics = [ int_static "Main.samples" 1 ] };
      { in_label = "samples=0 empty integral";
        in_statics = [ int_static "Main.samples" 0 ] } ]
  | "Sparse matmult" ->
    [ { in_label = "nz=600 sparse diagonal";
        in_statics = [ int_static "Main.nz" 600 ] };
      { in_label = "n=1 single row";
        in_statics = [ int_static "Main.n" 1; int_static "Main.nz" 5 ] };
      { in_label = "colBump=1 boundary columns (kernel traps)";
        in_statics = [ int_static "Main.colBump" 1 ] };
      { in_label = "nz=1500 denser rows";
        in_statics = [ int_static "Main.nz" 1500 ] };
      { in_label = "n=300 half-size system";
        in_statics = [ int_static "Main.n" 300 ] };
      { in_label = "shift=-6 negative pow2 dividend";
        in_statics = [ int_static "Main.shift" (-6) ] } ]
  | "LU" ->
    [ { in_label = "n=1 trivial system";
        in_statics = [ int_static "Main.n" 1 ] };
      { in_label = "n=8 small system";
        in_statics = [ int_static "Main.n" 8 ] };
      { in_label = "rounds=1";
        in_statics = [ int_static "Main.rounds" 1 ] };
      { in_label = "trim=1 short array (kernel traps)";
        in_statics = [ int_static "Main.trim" 1 ] };
      { in_label = "n=16";
        in_statics = [ int_static "Main.n" 16 ] };
      { in_label = "n=24";
        in_statics = [ int_static "Main.n" 24 ] };
      { in_label = "fuzz=-6 negative pow2 dividend";
        in_statics = [ int_static "Main.fuzz" (-6) ] } ]
  | _ -> []

(* Fallback axis for seeded draws: reseed the app's explicit LCG when it
   has one (all data arrays change), else perturb a documented size-like
   static. Apps with neither only yield the curated edges. *)
let seeded_input dx ~draw =
  let has name = List.mem_assoc name dx.B.dx_static_names in
  if has "Lcg.seed" then
    Some
      { in_label = Printf.sprintf "lcg-seed=%d" draw;
        in_statics = [ int_static "Lcg.seed" draw ] }
  else if has "Main.size" then begin
    let size = 1024 + (draw mod 8192) in
    Some
      { in_label = Printf.sprintf "size=%d" size;
        in_statics = [ int_static "Main.size" size ] }
  end
  else if has "Main.rounds" then begin
    let rounds = 1 + (draw mod 8) in
    Some
      { in_label = Printf.sprintf "rounds=%d" rounds;
        in_statics = [ int_static "Main.rounds" rounds ] }
  end
  else None

let input_variants app ~seed ~k =
  if k < 1 then invalid_arg "Registry.input_variants: k must be >= 1";
  let dx = dexfile app in
  let rng = Rng.of_pair seed (Hashtbl.hash app.name) in
  let rec draws n acc =
    if n = 0 then List.rev acc
    else begin
      let d = 1 + Rng.int rng 0x3FFF_FFFE in
      match seeded_input dx ~draw:d with
      | Some i -> draws (n - 1) (i :: acc)
      | None -> List.rev acc
    end
  in
  let edges = edge_inputs app in
  let pool = edges @ draws (max 0 (k - 1 - List.length edges)) [] in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  default_input :: take (k - 1) pool
