(* Bringing your own application: write a MiniDex program, wrap it in a
   registry entry, and run the entire developer-and-user-transparent
   pipeline on it — profiling, hot-region detection, capture, search,
   final measurement.  Nothing in the pipeline is FFT- or game-specific.

   Run with:  dune exec examples/custom_app.exe *)

module App = Repro_apps.Registry
module Pipeline = Repro_core.Pipeline
module B = Repro_dex.Bytecode

(* An n-body-ish kinematics simulation: float math, arrays, a pure kernel
   (replayable) and a rendering loop (I/O, unreplayable). *)
let source = {|
class Body {
  float x; float y; float vx; float vy;
  void init(float ax, float ay) { x = ax; y = ay; vx = 0.0; vy = 0.0; }
}
class Sim {
  static float step(Body[] bodies, float dt) {
    float energy = 0.0;
    for (int i = 0; i < bodies.length; i = i + 1) {
      Body b = bodies[i];
      float fx = 0.0;
      float fy = 0.0;
      for (int j = 0; j < bodies.length; j = j + 1) {
        if (i != j) {
          Body o = bodies[j];
          float dx = o.x - b.x;
          float dy = o.y - b.y;
          float d2 = dx * dx + dy * dy + 0.01;
          float inv = 1.0 / (d2 * Math.sqrt(d2));
          fx = fx + dx * inv;
          fy = fy + dy * inv;
        }
      }
      b.vx = b.vx + fx * dt;
      b.vy = b.vy + fy * dt;
      b.x = b.x + b.vx * dt;
      b.y = b.y + b.vy * dt;
      energy = energy + b.vx * b.vx + b.vy * b.vy;
    }
    return energy;
  }
}
class Main {
  static int frames = 6;
  static int main() {
    Body[] bodies = new Body[48];
    for (int i = 0; i < bodies.length; i = i + 1) {
      bodies[i] = new Body(i % 7, i / 7);
    }
    float e = 0.0;
    for (int f = 0; f < frames; f = f + 1) {
      e = Sim.step(bodies, 0.01);
      for (int i = 0; i < bodies.length; i = i + 8) {
        Sys.draw((int) bodies[i].x, (int) bodies[i].y, i);
      }
    }
    return (int) (e * 1000.0);
  }
}
|}

let () =
  let app =
    { App.name = "NBody";
      cls = App.Interactive_suite;
      descr = "custom kinematics demo";
      source;
      image = { Repro_vm.Image.default_config with
                Repro_vm.Image.extra_maps = 120; warm_heap_pages = 200 };
      expect_hot = [ ("Sim", "step") ] }
  in
  let dx = App.dexfile app in
  let online = Pipeline.online_run ~seed:3 app in
  Printf.printf "online run: %d cycles\n" online.Pipeline.cycles;
  (match Pipeline.hot_region_of app online with
   | Some hot ->
     Printf.printf "detected hot region: %s\n"
       (B.method_full_name dx.B.dx_methods.(hot))
   | None -> print_endline "no hot region");
  match Pipeline.capture_once ~seed:3 app with
  | None -> print_endline "nothing captured"
  | Some cap ->
    let opt = Pipeline.(run_session (start_search ~seed:5 app cap)) in
    (match opt.Pipeline.best_genome with
     | Some g ->
       Printf.printf "best genome: %s\n" (Repro_search.Genome.to_string g)
     | None -> print_endline "no improvement found");
    let sp = Pipeline.measure_speedups app opt in
    Printf.printf "speedups over Android: -O3 %.2fx, GA %.2fx\n"
      sp.Pipeline.o3_speedup sp.Pipeline.ga_speedup
