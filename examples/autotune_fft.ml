(* Autotuning a Scimark kernel exactly as the paper's system does: one
   online capture, then an offline genetic search over verified replays,
   and finally an out-of-replay measurement of the chosen binary.

   Run with:  dune exec examples/autotune_fft.exe [APP] *)

module Pipeline = Repro_core.Pipeline
module Ga = Repro_search.Ga

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "FFT" in
  let app =
    match Repro_apps.Registry.find name with
    | Some app -> app
    | None ->
      Printf.eprintf "unknown app %S\n" name;
      exit 1
  in
  Printf.printf "== %s ==\n%!" app.Repro_apps.Registry.name;
  match Pipeline.capture_once ~seed:7 app with
  | None ->
    print_endline "no replayable hot region";
    exit 1
  | Some cap ->
    Printf.printf "captured hot region with %.1f ms online overhead\n%!"
      (Repro_capture.Capture.total_ms cap.Pipeline.overhead);
    let cfg = { Ga.quick_config with Ga.population = 20; generations = 8 } in
    let opt = Pipeline.(run_session (start_search ~seed:23 ~cfg app cap)) in
    Printf.printf "replay fitness: Android %.3f ms, -O3 %.3f ms\n"
      opt.Pipeline.env.Pipeline.android_region_ms
      opt.Pipeline.env.Pipeline.o3_region_ms;
    (* evolution trace, one line per generation (Figure 9 for this app) *)
    let by_gen = Hashtbl.create 8 in
    List.iter
      (fun ev ->
         match ev.Ga.ev_fitness with
         | None -> ()
         | Some fit ->
           let g = ev.Ga.ev_generation in
           let best, worst, n =
             Option.value ~default:(infinity, neg_infinity, 0)
               (Hashtbl.find_opt by_gen g)
           in
           Hashtbl.replace by_gen g (min best fit, max worst fit, n + 1))
      opt.Pipeline.ga.Ga.history;
    Hashtbl.fold (fun g v acc -> (g, v) :: acc) by_gen []
    |> List.sort compare
    |> List.iter (fun (g, (best, worst, n)) ->
        Printf.printf
          "  generation %2d: best %.3f ms, worst %.3f ms (%d measured)\n" g
          best worst n);
    (match opt.Pipeline.best_genome with
     | Some genome ->
       Printf.printf "best genome:\n  %s\n" (Repro_search.Genome.to_string genome)
     | None -> print_endline "search found no verified improvement");
    let sp = Pipeline.measure_speedups app opt in
    Printf.printf
      "whole-program speedups over the Android compiler (outside replay):\n\
      \  LLVM -O3: %.2fx\n  LLVM GA:  %.2fx\n"
      sp.Pipeline.o3_speedup sp.Pipeline.ga_speedup
