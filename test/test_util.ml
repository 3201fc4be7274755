(* Tests for the statistics, RNG and table utilities (lib/util). *)

module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Clock = Repro_util.Clock

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-2))

(* ------------------------------- Rng -------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = Array.init 16 (fun _ -> Rng.int a 1000000) in
  let ys = Array.init 16 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  Alcotest.(check int) "copy replays" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  check_float_loose "mean" 3.0 (Stats.mean xs);
  Alcotest.(check bool) "stddev close" true
    (abs_float (Stats.stddev xs -. 2.0) < 0.1)

let test_rng_chance_extremes () =
  let rng = Rng.create 13 in
  Alcotest.(check bool) "p=1 always true" true (Rng.chance rng 1.0);
  Alcotest.(check bool) "p=0 always false" false (Rng.chance rng 0.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------ Stats ------------------------------- *)

let test_mean_median () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "median odd" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |])

let test_variance () =
  check_float "variance" 2.5 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "variance single" 0.0 (Stats.variance [| 42.0 |])

let test_mad () =
  check_float "mad" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_outlier_removal () =
  let xs = [| 10.0; 10.1; 9.9; 10.05; 9.95; 50.0 |] in
  let kept = Stats.remove_outliers_mad xs in
  Alcotest.(check int) "outlier dropped" 5 (Array.length kept);
  Alcotest.(check bool) "50 removed" false (Array.exists (fun x -> x = 50.0) kept)

let test_outlier_removal_uniform () =
  (* When MAD = 0 (all equal) the input must come back unchanged. *)
  let xs = [| 3.0; 3.0; 3.0 |] in
  Alcotest.(check int) "unchanged" 3 (Array.length (Stats.remove_outliers_mad xs))

let test_t_test_distinguishes () =
  let rng = Rng.create 23 in
  let a = Array.init 30 (fun _ -> Rng.gaussian rng ~mean:10.0 ~stddev:0.5) in
  let b = Array.init 30 (fun _ -> Rng.gaussian rng ~mean:12.0 ~stddev:0.5) in
  Alcotest.(check bool) "a < b significant" true (Stats.significantly_less a b);
  Alcotest.(check bool) "b < a not significant" false (Stats.significantly_less b a)

let test_t_test_same_mean () =
  let rng = Rng.create 29 in
  let a = Array.init 30 (fun _ -> Rng.gaussian rng ~mean:10.0 ~stddev:2.0) in
  let b = Array.init 30 (fun _ -> Rng.gaussian rng ~mean:10.0 ~stddev:2.0) in
  let p = Stats.welch_t_test a b in
  Alcotest.(check bool) "p not tiny" true (p > 0.001)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0)

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

(* ------------------------------ Table ------------------------------- *)

let test_display_width () =
  Alcotest.(check int) "ascii" 5 (Table.display_width "hello");
  Alcotest.(check int) "empty" 0 (Table.display_width "");
  (* µ is 2 bytes but 1 column; 1.44× likewise *)
  Alcotest.(check int) "multibyte" 3 (Table.display_width "5\xc2\xb5s");
  Alcotest.(check int) "utf8 times sign" 5 (Table.display_width "1.44\xc3\x97");
  (* ANSI SGR color sequences occupy no columns *)
  Alcotest.(check int) "ansi colored" 3
    (Table.display_width "\027[31mred\027[0m");
  Alcotest.(check int) "ansi only" 0 (Table.display_width "\027[1;32m");
  Alcotest.(check int) "mixed" 4
    (Table.display_width "\027[36m\xc2\xb5b\027[0mar")

(* Every rendered line must occupy the same number of display columns,
   even when cells mix plain ASCII, multibyte UTF-8 and ANSI colors.
   Before display-width-aware padding, byte-length padding misaligned
   any row containing either. *)
let test_render_aligns_multibyte_and_ansi () =
  let out =
    Table.render ~header:[ "name"; "time" ]
      [ [ "plain"; "12" ];
        [ "5\xc2\xb5s"; "3" ];              (* multibyte cell *)
        [ "\027[31mred\027[0m"; "456" ];    (* ANSI-colored cell *)
      ]
  in
  let widths =
    List.filter_map
      (fun line ->
         if String.trim line = "" then None
         else Some (Table.display_width line))
      (String.split_on_char '\n' out)
  in
  (match widths with
   | [] -> Alcotest.fail "render produced no lines"
   | w :: rest ->
     List.iteri
       (fun i w' ->
          Alcotest.(check int)
            (Printf.sprintf "line %d same display width" (i + 1))
            w w')
       rest);
  (* and the exact layout is stable *)
  Alcotest.(check bool) "multibyte row padded to column width" true
    (List.exists
       (fun line ->
          String.length line >= 4 && String.sub line 0 4 = "5\xc2\xb5s")
       (String.split_on_char '\n' out))

let test_render_right_alignment_with_ansi () =
  (* right-aligned numeric column: the ANSI cell must line up with the
     plain ones on its last column *)
  let out =
    Table.render ~aligns:[ Table.Left; Table.Right ]
      ~header:[ "k"; "v" ]
      [ [ "a"; "10" ]; [ "b"; "\027[32m7\027[0m" ] ]
  in
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' out)
  in
  let ends_at line =
    (* display column of the last visible character *)
    Table.display_width line
  in
  match lines with
  | _header :: data ->
    let cols = List.map ends_at data in
    (match cols with
     | c :: rest ->
       List.iter
         (fun c' ->
            Alcotest.(check int) "right edge aligned" c c')
         rest
     | [] -> Alcotest.fail "no data rows")
  | [] -> Alcotest.fail "no output"

(* ----------------------- typed comparators -------------------------- *)

(* Regression tests for the polymorphic-compare replacement: every sort on
   a hot or determinism-critical path uses a typed comparator
   (Float.compare / Int.compare).  These lock in the total order the typed
   comparators guarantee — polymorphic compare treats -0.0 = 0.0 and would
   leave such ties ordered by whatever the sort implementation does. *)

let test_float_compare_total_order () =
  (* Float.compare is a total order with NaN below everything, so sorts
     and percentiles stay deterministic even with NaN measurements
     present, independent of input order. *)
  Alcotest.(check bool) "nan sorts first" true
    (Float.is_nan (Stats.percentile [| 2.0; nan; 1.0 |] 0.0));
  let a = Stats.percentile [| nan; 2.0; 1.0 |] 100.0 in
  let b = Stats.percentile [| 1.0; 2.0; nan |] 100.0 in
  check_float "nan placement independent of input order" a b

let test_trace_event_order_is_emission_order () =
  let module Trace = Repro_util.Trace in
  (* Freeze the clock: every event gets the identical timestamp, so the
     sort in [Trace.events] must fall back to the (tid, seq) tie-break.
     On one domain that is emission order — a polymorphic compare would
     instead tie-break on the record's remaining fields (name, phase) and
     reorder same-timestamp spans alphabetically. *)
  Trace.set_clock (fun () -> 42.0);
  Trace.reset ();
  Trace.enable ();
  Trace.span "zebra" (fun () -> ());
  Trace.span "apple" (fun () -> ());
  Trace.span "mango" (fun () -> ());
  let names =
    List.filter_map
      (fun e ->
         if e.Trace.ev_ph = Trace.B then Some e.Trace.ev_name else None)
      (Trace.events ())
  in
  Trace.disable ();
  Trace.set_clock (fun () -> Unix.gettimeofday ());
  Trace.reset ();
  Alcotest.(check (list string)) "same-timestamp spans keep emission order"
    [ "zebra"; "apple"; "mango" ] names

let test_counter_listing_sorted_by_name () =
  let module Trace = Repro_util.Trace in
  (* Counter listings must order by name alone (String.compare on the
     key), never by the (key, value) pair — insertion order and counter
     values are nondeterministic under [-j N], the names are not. *)
  Trace.reset ();
  Trace.enable ();
  Trace.add "zeta.last" 1;
  Trace.add "alpha.first" 900;
  Trace.add "mid.dle" 5;
  let names = List.map fst (Trace.counters ()) in
  Trace.disable ();
  Trace.reset ();
  Alcotest.(check (list string)) "counters sorted by name"
    [ "alpha.first"; "mid.dle"; "zeta.last" ] names;
  Alcotest.(check bool) "order matches String.compare" true
    (List.sort String.compare names = names)

let test_block_order_insertion_independent () =
  let module Hir = Repro_hgraph.Hir in
  let module Binary = Repro_lir.Binary in
  (* Two structurally identical functions whose blocks were inserted into
     the hashtable in different orders must print identically — blocks
     ascending by bid under Int.compare — and therefore share one
     Binary.digest.  The digest keys the Evalpool binary memo, so a
     hash-order-dependent listing would split (or worse, alias) memo
     entries across runs. *)
  let make order =
    let f =
      { Hir.f_mid = 900; f_name = "order"; f_nparams = 0; f_nregs = 2;
        f_blocks = Hashtbl.create 8; f_entry = 2; f_next_bid = 11;
        f_pressure = None }
    in
    List.iter
      (fun bid ->
         let blk =
           if bid = 2 then { Hir.insns = []; term = Hir.Goto 7 }
           else if bid = 7 then
             { Hir.insns = [ Hir.Const (0, Repro_dex.Bytecode.Cint 4) ];
               term = Hir.Goto 10 }
           else { Hir.insns = []; term = Hir.Ret (Some 0) }
         in
         Hashtbl.replace f.Hir.f_blocks bid blk)
      order;
    f
  in
  let a = make [ 10; 2; 7 ] and b = make [ 2; 7; 10 ] in
  let sa = Hir.to_string a in
  Alcotest.(check string) "listing independent of insertion order"
    sa (Hir.to_string b);
  let pos tag = Astring.String.find_sub ~sub:tag sa in
  let p2 = pos "b2:" and p7 = pos "b7:" and p10 = pos "b10:" in
  Alcotest.(check bool) "blocks ascend by bid" true
    (match p2, p7, p10 with
     | Some p2, Some p7, Some p10 -> p2 < p7 && p7 < p10
     | _ -> false);
  Alcotest.(check string) "one digest, one cache identity"
    (Binary.digest (Binary.create [ a ]))
    (Binary.digest (Binary.create [ b ]))

(* --------------------------- qcheck props --------------------------- *)

let prop_median_bounds =
  QCheck.Test.make ~name:"median within min..max" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1e6) 1e6))
    (fun xs ->
       let m = Stats.median xs in
       let lo = Array.fold_left min xs.(0) xs in
       let hi = Array.fold_left max xs.(0) xs in
       m >= lo && m <= hi)

let prop_outlier_subset =
  QCheck.Test.make ~name:"outlier removal returns a subset" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
    (fun xs ->
       let kept = Stats.remove_outliers_mad xs in
       Array.length kept >= 1
       && Array.for_all (fun k -> Array.exists (fun x -> x = k) xs) kept)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair
              (array_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
       let lo = min p1 p2 and hi = max p1 p2 in
       Stats.percentile xs lo <= Stats.percentile xs hi)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_median_bounds; prop_outlier_subset; prop_percentile_monotone ]

(* ------------------------------ Clock -------------------------------- *)

(* The monotonic clamp: a wall clock stepped backwards (NTP) must never
   yield a decreasing [now] or a negative elapsed time — the bug that
   used to corrupt trace spans and worker timings on long-lived serves. *)
let test_clock_clamps_backward_steps () =
  let script = ref [ 100.0; 105.0; 103.0; 104.0; 110.0 ] in
  let fake () =
    match !script with
    | [] -> 110.0
    | t :: rest -> script := rest; t
  in
  Clock.set_source fake;
  Fun.protect ~finally:Clock.use_wall_clock @@ fun () ->
  let base = Clock.backward_steps () in
  let a = Clock.now () in            (* 100 *)
  let b = Clock.now () in            (* 105 *)
  let c = Clock.now () in            (* 103 -> clamped to 105 *)
  let d = Clock.now () in            (* 104 -> clamped to 105 *)
  let e = Clock.now () in            (* 110 *)
  check_float "first" 100.0 a;
  check_float "advances" 105.0 b;
  check_float "backward step clamped" 105.0 c;
  check_float "still clamped" 105.0 d;
  check_float "resumes when real time catches up" 110.0 e;
  Alcotest.(check int) "backward steps counted" (base + 2)
    (Clock.backward_steps ())

let test_clock_elapsed_never_negative () =
  let t = ref 50.0 in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.use_wall_clock @@ fun () ->
  let t0 = Clock.now () in
  t := 49.0;                          (* clock stepped backwards mid-span *)
  Alcotest.(check bool) "elapsed clamped to zero" true
    (Clock.elapsed t0 >= 0.0);
  t := 52.5;
  check_float "normal elapsed" 2.5 (Clock.elapsed t0)

let () =
  Alcotest.run "util"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "int_in" `Quick test_rng_int_in;
         Alcotest.test_case "split independent" `Quick test_rng_split_independent;
         Alcotest.test_case "copy" `Quick test_rng_copy;
         Alcotest.test_case "float range" `Quick test_rng_float_range;
         Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
         Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
         Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation ]);
      ("stats",
       [ Alcotest.test_case "mean/median" `Quick test_mean_median;
         Alcotest.test_case "variance" `Quick test_variance;
         Alcotest.test_case "mad" `Quick test_mad;
         Alcotest.test_case "outlier removal" `Quick test_outlier_removal;
         Alcotest.test_case "outlier removal uniform" `Quick test_outlier_removal_uniform;
         Alcotest.test_case "t-test distinguishes" `Quick test_t_test_distinguishes;
         Alcotest.test_case "t-test same mean" `Quick test_t_test_same_mean;
         Alcotest.test_case "percentile" `Quick test_percentile;
         Alcotest.test_case "geomean" `Quick test_geomean ]);
      ("table",
       [ Alcotest.test_case "display width" `Quick test_display_width;
         Alcotest.test_case "multibyte/ANSI alignment" `Quick
           test_render_aligns_multibyte_and_ansi;
         Alcotest.test_case "right alignment with ANSI" `Quick
           test_render_right_alignment_with_ansi ]);
      ("typed comparators",
       [ Alcotest.test_case "Float.compare total order" `Quick
           test_float_compare_total_order;
         Alcotest.test_case "trace tie-break is emission order" `Quick
           test_trace_event_order_is_emission_order;
         Alcotest.test_case "counter listing sorted by name" `Quick
           test_counter_listing_sorted_by_name;
         Alcotest.test_case "block order insertion-independent" `Quick
           test_block_order_insertion_independent ]);
      ("clock",
       [ Alcotest.test_case "backward steps clamped" `Quick
           test_clock_clamps_backward_steps;
         Alcotest.test_case "elapsed never negative" `Quick
           test_clock_elapsed_never_negative ]);
      ("stats-properties", qcheck_cases) ]
