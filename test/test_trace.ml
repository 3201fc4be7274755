(* Tests for the pipeline tracing/metrics layer (Repro_util.Trace):

   - span nesting is well-formed (every B has a matching E, per-domain
     stack discipline), both for hand-written scenarios and qcheck-random
     span trees;
   - counters sum correctly under concurrent increments from 4 domains;
   - disabled tracing is a no-op;
   - a 4-domain Evalpool run produces a *parseable* merged Chrome trace
     with no interleaving corruption (checked with a small JSON parser);
   - the Chrome exporter's byte format is locked by a golden fixture
     (regenerate with TRACE_GOLDEN_UPDATE=/abs/path/trace_golden.json);
   - the full search remains byte-identical across -j 1 / -j 4 with
     tracing enabled (the PR-1 determinism contract), and its trace
     contains the spans the paper's figures are mapped to. *)

module Trace = Repro_util.Trace
module Rng = Repro_util.Rng
module Evalpool = Repro_search.Evalpool
module Genome = Repro_search.Genome
module Ga = Repro_search.Ga
module Pipeline = Repro_core.Pipeline
module App = Repro_apps.Registry

let with_tracing f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
        Trace.disable ();
        Trace.reset ())
    f

(* Per-domain stack discipline over the merged event list: group by tid in
   emission order, then require every E to close the matching open B and
   every stack to end empty. *)
let well_formed events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       let prev =
         Option.value ~default:[] (Hashtbl.find_opt by_tid ev.Trace.ev_tid)
       in
       Hashtbl.replace by_tid ev.Trace.ev_tid (ev :: prev))
    events;
  Hashtbl.fold
    (fun _tid rev_evs ok ->
       ok
       &&
       let evs =
         List.sort
           (fun a b -> compare a.Trace.ev_seq b.Trace.ev_seq)
           rev_evs
       in
       let rec go stack = function
         | [] -> stack = []
         | ev :: rest ->
           (match ev.Trace.ev_ph with
            | Trace.B -> go (ev.Trace.ev_name :: stack) rest
            | Trace.E ->
              (match stack with
               | top :: stack' when top = ev.Trace.ev_name -> go stack' rest
               | _ -> false))
       in
       go [] evs)
    by_tid true

(* --------------------------- span basics ---------------------------- *)

let test_span_basics () =
  with_tracing @@ fun () ->
  let v = Trace.span "outer" (fun () -> Trace.span "inner" (fun () -> 42)) in
  Alcotest.(check int) "span returns the body's value" 42 v;
  let evs = Trace.events () in
  Alcotest.(check (list string)) "B/E nesting order"
    [ "B outer"; "B inner"; "E inner"; "E outer" ]
    (List.map
       (fun ev ->
          (match ev.Trace.ev_ph with Trace.B -> "B " | Trace.E -> "E ")
          ^ ev.Trace.ev_name)
       evs);
  Alcotest.(check bool) "well-formed" true (well_formed evs);
  Alcotest.(check bool) "timestamps non-decreasing" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a.Trace.ev_ts <= b.Trace.ev_ts && mono rest
       | _ -> true
     in
     mono evs)

let test_span_exception_safe () =
  with_tracing @@ fun () ->
  (try Trace.span "boom" (fun () -> raise Exit) with Exit -> ());
  let evs = Trace.events () in
  Alcotest.(check int) "B and E both emitted" 2 (List.length evs);
  Alcotest.(check bool) "still well-formed" true (well_formed evs)

let test_disabled_is_noop () =
  Trace.reset ();
  Trace.disable ();
  let v = Trace.span "invisible" (fun () -> Trace.incr "invisible.n"; 7) in
  Alcotest.(check int) "span still runs the body" 7 v;
  Alcotest.(check (list reject)) "no events recorded"
    [] (Trace.events ());
  Alcotest.(check int) "no counter recorded" 0
    (Trace.counter_value "invisible.n");
  (try Trace.span "invisible" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check (list reject)) "still nothing" [] (Trace.events ())

(* ------------------------ random span trees ------------------------- *)

type tree = Node of int * tree list

let gen_tree =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        map2
          (fun name kids -> Node (name, kids))
          (int_bound 5)
          (if size = 0 then return []
           else list_size (int_bound 3) (self (size / 4)))))

let rec count_nodes (Node (_, kids)) =
  1 + List.fold_left (fun acc k -> acc + count_nodes k) 0 kids

let rec run_tree (Node (name, kids)) =
  Trace.span (Printf.sprintf "node-%d" name) (fun () ->
      List.iter run_tree kids)

let prop_tree_well_formed =
  QCheck.Test.make ~name:"random span trees stay well-formed" ~count:100
    (QCheck.make ~print:(fun t -> string_of_int (count_nodes t)) gen_tree)
    (fun t ->
       with_tracing @@ fun () ->
       run_tree t;
       let evs = Trace.events () in
       List.length evs = 2 * count_nodes t && well_formed evs)

let test_four_domain_trees_well_formed () =
  with_tracing @@ fun () ->
  let rec spans depth rng =
    let width = 1 + Rng.int rng 3 in
    for i = 0 to width - 1 do
      Trace.span (Printf.sprintf "d%d-%d" depth i) (fun () ->
          if depth < 4 then spans (depth + 1) rng)
    done
  in
  let domains =
    Array.init 4 (fun k -> Domain.spawn (fun () -> spans 0 (Rng.create k)))
  in
  spans 0 (Rng.create 99);
  Array.iter Domain.join domains;
  let evs = Trace.events () in
  let tids =
    List.sort_uniq compare (List.map (fun ev -> ev.Trace.ev_tid) evs)
  in
  Alcotest.(check bool) "5 domains emitted" true (List.length tids = 5);
  Alcotest.(check bool) "merged trace well-formed per domain" true
    (well_formed evs)

(* --------------------------- counters ------------------------------- *)

let test_counters_sum_across_domains () =
  with_tracing @@ fun () ->
  let per_domain = 1000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Trace.incr "test.hits"
            done))
  in
  for _ = 1 to per_domain do
    Trace.incr "test.hits"
  done;
  Trace.add "test.bulk" 17;
  Array.iter Domain.join domains;
  Alcotest.(check int) "5 x 1000 increments survive" 5000
    (Trace.counter_value "test.hits");
  Alcotest.(check int) "bulk add" 17 (Trace.counter_value "test.bulk");
  Alcotest.(check (list (pair string int))) "sorted counter listing"
    [ ("test.bulk", 17); ("test.hits", 5000) ]
    (Trace.counters ())

(* ----------------------- a minimal JSON parser ----------------------- *)

(* Enough of RFC 8259 to prove the exporter's output is parseable: objects,
   arrays, strings with escapes, numbers, and literals. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "dangling escape");
        let e = s.[!pos] in
        advance ();
        (match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'  (* outside this test's needs *)
            | None -> fail "bad \\u escape")
         | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Jobj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Jarr [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Jarr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Jobj fields -> List.assoc_opt name fields
  | _ -> None

(* --------------------- Evalpool trace under -j 4 --------------------- *)

let gene p = { Genome.g_pass = p; g_params = [| 0 |] }

let test_evalpool_trace_parses () =
  let json =
    with_tracing @@ fun () ->
    let pool =
      Evalpool.create ~jobs:4 ~cache:false ~canon:Genome.to_string
        ~compile:(fun g -> Ok g)
        ~key_of:Genome.to_string
        ~verify:(fun g -> String.length (Genome.to_string g))
        ()
    in
    let tasks =
      Array.init 40 (fun i ->
          (i + 1, [ gene (Printf.sprintf "p%d" (i mod 5)) ]))
    in
    ignore (Evalpool.evaluate_batch pool tasks);
    Alcotest.(check bool) "raw events well-formed" true
      (well_formed (Trace.events ()));
    Trace.to_chrome_json ()
  in
  let parsed = parse_json json in
  let events =
    match obj_field "traceEvents" parsed with
    | Some (Jarr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "events present" true (events <> []);
  (* replay the B/E discipline from the *parsed* JSON: if concurrent
     domains corrupted the merge, pairing breaks here *)
  let stacks = Hashtbl.create 8 in
  let worker_tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       let name =
         match obj_field "name" ev with Some (Jstr s) -> s | _ -> "?"
       in
       let tid =
         match obj_field "tid" ev with
         | Some (Jnum f) -> int_of_float f
         | _ -> Alcotest.fail "event without tid"
       in
       match obj_field "ph" ev with
       | Some (Jstr "B") ->
         if name = "evalpool:worker" then Hashtbl.replace worker_tids tid ();
         Hashtbl.replace stacks tid
           (name :: Option.value ~default:[] (Hashtbl.find_opt stacks tid))
       | Some (Jstr "E") ->
         (match Hashtbl.find_opt stacks tid with
          | Some (top :: rest) when top = name ->
            Hashtbl.replace stacks tid rest
          | _ -> Alcotest.fail ("unmatched E for " ^ name))
       | Some (Jstr "C") -> ()
       | _ -> Alcotest.fail "event without phase")
    events;
  Hashtbl.iter
    (fun tid stack ->
       if stack <> [] then
         Alcotest.fail (Printf.sprintf "unclosed span on tid %d" tid))
    stacks;
  Alcotest.(check bool) "at least 2 distinct worker domain ids" true
    (Hashtbl.length worker_tids >= 2);
  (* counters survive the round-trip as C events *)
  let counter name =
    List.find_opt
      (fun ev ->
         obj_field "name" ev = Some (Jstr name)
         && obj_field "ph" ev = Some (Jstr "C"))
      events
  in
  match counter "evalpool.tasks" with
  | Some ev ->
    (match obj_field "args" ev with
     | Some (Jobj [ ("value", Jnum v) ]) ->
       Alcotest.(check int) "task counter value" 40 (int_of_float v)
     | _ -> Alcotest.fail "counter without value args")
  | None -> Alcotest.fail "evalpool.tasks counter missing"

(* ------------------------- golden exporter -------------------------- *)

(* Deterministic scenario: fake 100 µs-tick clock, spans and metric names
   that exercise every escaping rule (quotes, backslashes, control
   characters, multibyte UTF-8). *)
let golden_scenario () =
  let t = ref 0.0 in
  Trace.set_clock (fun () ->
      let v = !t in
      t := v +. 1e-4;
      v);
  Trace.reset ();
  Trace.enable ();
  Trace.span ~cat:"demo" ~args:[ ("file", "a\\b"); ("note", "x\"y") ]
    "outer \xc2\xb5span"
    (fun () ->
       Trace.span "inner\nline" (fun () ->
           Trace.incr "demo.count";
           Trace.add "demo.count" 2;
           Trace.gauge "demo.ratio" 0.5);
       Trace.span "tab\tname" (fun () -> ()));
  Trace.incr "ctrl\x01name";
  let out = Trace.to_chrome_json () ^ "\n" in
  Trace.disable ();
  Trace.reset ();
  Trace.set_clock Unix.gettimeofday;
  Trace.reset ();
  out

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_path () =
  if Sys.file_exists "golden/trace_golden.json" then
    "golden/trace_golden.json"
  else "test/golden/trace_golden.json"

let test_chrome_golden () =
  let out = golden_scenario () in
  (match Sys.getenv_opt "TRACE_GOLDEN_UPDATE" with
   | Some path ->
     let oc = open_out_bin path in
     output_string oc out;
     close_out oc;
     Printf.printf "golden fixture written to %s\n" path
   | None ->
     Alcotest.(check string) "exporter output matches committed fixture"
       (read_file (golden_path ())) out);
  (* and the golden bytes must themselves be parseable JSON *)
  match parse_json (String.trim out) with
  | Jobj _ -> ()
  | _ -> Alcotest.fail "golden trace is not a JSON object"

(* ------------------ end-to-end: traced search = search --------------- *)

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 4; max_identical = 30 }

let search_digest ~jobs app cap =
  Pipeline.(
    search_digest
      (run_session (start_search ~seed:3 ~cfg:tiny_cfg ~jobs app cap)))

let test_traced_search_deterministic () =
  let app = Option.get (App.find "FFT") in
  let (t1, t4, cap) =
    with_tracing @@ fun () ->
    let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
    let t1 = search_digest ~jobs:1 app cap in
    let t4 = search_digest ~jobs:4 app cap in
    let evs = Trace.events () in
    Alcotest.(check bool) "full pipeline trace well-formed" true
      (well_formed evs);
    let names = List.map (fun ev -> ev.Trace.ev_name) evs in
    let has name = List.mem name names in
    Alcotest.(check bool) "capture span" true (has "capture");
    Alcotest.(check bool) "interpreted replay span" true
      (has "replay:interpreter");
    Alcotest.(check bool) "at least one LIR pass span" true
      (List.exists
         (fun n -> String.length n > 5 && String.sub n 0 5 = "pass:")
         names);
    let worker_tids =
      List.sort_uniq compare
        (List.filter_map
           (fun ev ->
              if ev.Trace.ev_name = "evalpool:worker" then
                Some ev.Trace.ev_tid
              else None)
           evs)
    in
    Alcotest.(check bool) "parallel workers visible (>= 2 domain ids)" true
      (List.length worker_tids >= 2);
    (t1, t4, cap)
  in
  Alcotest.(check string) "-j 1 = -j 4 under tracing" t1 t4;
  (* tracing itself must not perturb the search *)
  Alcotest.(check string) "traced = untraced" t1 (search_digest ~jobs:1 app cap)

let () =
  Alcotest.run "trace"
    [ ("spans",
       [ Alcotest.test_case "basics" `Quick test_span_basics;
         Alcotest.test_case "exception safety" `Quick
           test_span_exception_safe;
         Alcotest.test_case "disabled is a no-op" `Quick
           test_disabled_is_noop ]);
      ("concurrency",
       [ Alcotest.test_case "4-domain trees well-formed" `Quick
           test_four_domain_trees_well_formed;
         Alcotest.test_case "counters sum across domains" `Quick
           test_counters_sum_across_domains;
         Alcotest.test_case "evalpool -j 4 trace parses" `Quick
           test_evalpool_trace_parses ]);
      ("exporter",
       [ Alcotest.test_case "chrome golden fixture" `Quick
           test_chrome_golden ]);
      ("pipeline",
       [ Alcotest.test_case "traced search deterministic" `Quick
           test_traced_search_deterministic ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_tree_well_formed ]) ]
