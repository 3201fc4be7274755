(* Unit tests for the benchmark's pure helpers, plus a check that the
   repository's BENCHMARK.json stays within the limits the harness and its
   readers rely on. *)

module K = Perfkit
module Trace = Repro_util.Trace
module Stats = Repro_util.Stats

let close = Alcotest.float 1e-9

(* ------------------------------ spread ------------------------------- *)

(* expected values from Python: statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let check name xs (q1, q2, q3) =
    let a1, a2, a3 = K.quartiles xs in
    Alcotest.check close (name ^ " q1") q1 a1;
    Alcotest.check close (name ^ " q2") q2 a2;
    Alcotest.check close (name ^ " q3") q3 a3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two points" [ 2.0; 1.0 ] (0.75, 1.5, 2.25);
  check "five" [ 3.0; 1.0; 4.0; 1.0; 5.0 ] (1.0, 3.0, 4.5);
  check "one point" [ 7.0 ] (7.0, 7.0, 7.0);
  Alcotest.check_raises "empty" (Invalid_argument "Perfkit.quartiles: no values")
    (fun () -> ignore (K.quartiles []))

let test_median_agrees () =
  List.iter
    (fun xs ->
       let _, q2, _ = K.quartiles xs in
       Alcotest.check close "q2 is the median" (Stats.median (Array.of_list xs)) q2)
    [ [ 1.0; 9.0; 4.0 ]; [ 1.0; 9.0; 4.0; 6.0 ]; [ 0.5; 0.25; 8.0; 3.0; 2.0; 1.0 ] ]

let test_spread () =
  Alcotest.check close "1..10" 1.0
    (K.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "constant" 0.0 (K.spread [ 4.0; 4.0; 4.0; 4.0 ]);
  Alcotest.check close "single" 0.0 (K.spread [ 4.0 ]);
  Alcotest.check close "zero median" 0.0 (K.spread [ -1.0; 0.0; 1.0 ])

(* -------------------------------- JSON ------------------------------- *)

let test_json_round_trip () =
  let doc =
    K.Obj
      [ ("name", K.Str "quote \" slash \\ tab \t");
        ("values", K.Arr [ K.Num 1.0; K.Num 0.1; K.Num (-2.5e-7); K.Null ]);
        ("ok", K.Bool true);
        ("nested", K.Obj [ ("empty", K.Obj []); ("list", K.Arr []) ]) ]
  in
  List.iter
    (fun pretty ->
       Alcotest.(check bool) "round trip" true
         (K.json_of_string (K.json_to_string ~pretty doc) = doc))
    [ false; true ];
  Alcotest.(check string) "integral" "583" (K.json_to_string (K.Num 583.0));
  Alcotest.(check string) "non-finite" "null" (K.json_to_string (K.Num nan));
  let x = 74.437349254622163 in
  Alcotest.(check bool) "every digit kept" true
    (float_of_string (K.json_to_string (K.Num x)) = x);
  Alcotest.(check bool) "unicode escape" true
    (K.json_of_string (Printf.sprintf {|"%cu00e9%cud83d%cude00"|} '\\' '\\' '\\')
     = K.Str "\xc3\xa9\xf0\x9f\x98\x80");
  Alcotest.(check bool) "member" true
    (K.member "b" (K.json_of_string {|{"a": 1, "b": [true]}|}) = K.Arr [ K.Bool true ]);
  Alcotest.(check bool) "absent member" true (K.member "z" (K.Obj []) = K.Null);
  List.iter
    (fun bad ->
       match K.json_of_string bad with
       | _ -> Alcotest.failf "accepted %S" bad
       | exception Failure _ -> ())
    [ ""; "{"; "[1,]"; {|{"a" 1}|}; "nul"; "1 2"; {|"open|}; {|"\x"|} ]

(* ----------------------------- self time ----------------------------- *)

let ev tid seq ts ph name =
  { Trace.ev_name = name; ev_cat = "t"; ev_ph = ph; ev_ts = ts; ev_tid = tid;
    ev_seq = seq; ev_args = [] }

let find name spans =
  match List.filter (fun s -> String.equal s.K.sp_name name) spans with
  | [ s ] -> s
  | l -> Alcotest.failf "%d spans named %s" (List.length l) name

let test_self_time () =
  (* domain 0 waits in "batch" while domain 1 runs "worker"; the merged
     list is ordered by time, as Trace.events returns it *)
  let events =
    [ ev 0 0 0.0 Trace.B "batch";
      ev 0 1 1.0 Trace.B "compile";
      ev 1 0 2.0 Trace.B "worker";
      ev 1 1 2.5 Trace.B "pass";
      ev 0 2 3.0 Trace.B "pass";
      ev 1 2 3.5 Trace.E "pass";
      ev 0 3 4.0 Trace.E "pass";
      ev 0 4 5.0 Trace.E "compile";
      ev 1 3 8.0 Trace.E "worker";
      ev 0 5 10.0 Trace.E "batch" ]
  in
  let spans = K.spans events in
  Alcotest.(check int) "five spans" 5 (List.length spans);
  let batch = find "batch" spans in
  Alcotest.check close "batch duration" 10.0 batch.K.sp_dur;
  (* only its own child is subtracted, not the grandchild, not domain 1 *)
  Alcotest.check close "batch self" 6.0 batch.K.sp_self;
  let compile = find "compile" spans in
  Alcotest.check close "compile self" 3.0 compile.K.sp_self;
  let worker = find "worker" spans in
  Alcotest.(check int) "worker domain" 1 worker.K.sp_tid;
  Alcotest.check close "worker self" 5.0 worker.K.sp_self;
  let passes = List.filter (fun s -> s.K.sp_name = "pass") spans in
  Alcotest.(check (list (float 1e-9))) "leaf self = duration" [ 1.0; 1.0 ]
    (List.map (fun s -> s.K.sp_self) passes)

(* The GA suspends inside its "ga:generation" span (an effect), so that
   span opens inside one search step and closes inside the next. *)
let test_self_time_interleaved () =
  let spans =
    K.spans
      [ ev 0 0 0.0 Trace.B "start";
        ev 0 1 1.0 Trace.B "gen0";
        ev 0 2 2.0 Trace.E "start";
        ev 0 3 3.0 Trace.B "step";
        ev 0 4 4.0 Trace.B "batch";
        ev 0 5 6.0 Trace.E "batch";
        ev 0 6 7.0 Trace.E "gen0";
        ev 0 7 8.0 Trace.B "gen1";
        ev 0 8 9.0 Trace.E "step" ]
  in
  Alcotest.(check (list string)) "every closed span, open gen1 dropped"
    [ "start"; "batch"; "gen0"; "step" ] (List.map (fun s -> s.K.sp_name) spans);
  let step = find "step" spans in
  Alcotest.check close "step duration" 6.0 step.K.sp_dur;
  Alcotest.check close "step self excludes its batch" 4.0 step.K.sp_self;
  Alcotest.check close "start closes across gen0" 2.0 (find "start" spans).K.sp_dur

let test_self_time_unbalanced () =
  let spans =
    K.spans
      [ ev 0 0 0.0 Trace.E "stray";
        ev 0 1 1.0 Trace.B "open";
        ev 0 2 2.0 Trace.B "closed";
        ev 0 3 4.0 Trace.E "closed" ]
  in
  Alcotest.(check (list string)) "stray end ignored, open span dropped"
    [ "closed" ] (List.map (fun s -> s.K.sp_name) spans)

(* ---------------------------- metric names --------------------------- *)

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (K.valid_metric_name n))
    [ "wall_s"; "search.batch_ms_p50"; "lir.pass.licm_ms"; "a-b_c.d"; "9x";
      String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (K.valid_metric_name n))
    [ ""; ".x"; "_x"; "-x"; "a b"; "a/b"; "ms%"; String.make 65 'a' ]

(* the declaration every run's output is checked against *)
let test_benchmark_json () =
  let bench =
    K.json_of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  let entries key =
    match K.member key bench with K.Arr l -> l | _ -> Alcotest.failf "no %s" key
  in
  let name m = Option.get (K.to_str (K.member "name" m)) in
  let all = entries "end_to_end" @ entries "per_layer" in
  List.iter
    (fun m ->
       Alcotest.(check bool) ("valid name " ^ name m) true (K.valid_metric_name (name m));
       Alcotest.(check bool) ("direction of " ^ name m) true
         (Option.bind (K.to_str (K.member "better" m)) K.better_of_string <> None))
    all;
  let names = List.map name all in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun m ->
       match K.to_num (K.member "bound" m) with
       | Some b -> Alcotest.(check bool) ("bound of " ^ name m) true (b > 0.0 && b <= 0.25)
       | None -> Alcotest.failf "%s has no bound" (name m))
    (entries "end_to_end");
  Alcotest.(check bool) "declares setup_s" true (List.mem "setup_s" names);
  Alcotest.(check bool) "at most 128 per-layer metrics" true
    (List.length (entries "per_layer") <= 128)

(* ------------------------------ verdicts ----------------------------- *)

let test_verdicts () =
  let base = [ 10.0; 10.1; 9.9; 10.0; 10.05 ] in
  let scaled f = List.map (fun x -> x *. f) base in
  let judge better b = K.verdict_name (K.judge ~better ~bound:0.1 base b) in
  Alcotest.(check string) "same" "agree" (judge K.Lower base);
  Alcotest.(check string) "within bound" "agree" (judge K.Lower (scaled 1.08));
  Alcotest.(check string) "slower" "regressed" (judge K.Lower (scaled 1.2));
  Alcotest.(check string) "faster" "improved" (judge K.Lower (scaled 0.8));
  Alcotest.(check string) "higher is better: drop" "regressed" (judge K.Higher (scaled 0.8));
  Alcotest.(check string) "higher is better: rise" "improved" (judge K.Higher (scaled 1.2));
  Alcotest.(check string) "noisy" "unresolved"
    (judge K.Lower [ 5.0; 10.0; 15.0; 20.0; 8.0 ])

let () =
  Alcotest.run "perfkit"
    [ ( "spread",
        [ Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "median agrees with Stats" `Quick test_median_agrees;
          Alcotest.test_case "spread" `Quick test_spread ] );
      ("json", [ Alcotest.test_case "round trip and errors" `Quick test_json_round_trip ]);
      ( "self time",
        [ Alcotest.test_case "two domains" `Quick test_self_time;
          Alcotest.test_case "interleaved under effects" `Quick test_self_time_interleaved;
          Alcotest.test_case "unbalanced edges" `Quick test_self_time_unbalanced ] );
      ( "metric names",
        [ Alcotest.test_case "regex" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]) ]
