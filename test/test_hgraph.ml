(* Tests for the IR utilities, CFG analyses and individual transforms on
   hand-built graphs (the app-level behaviour is covered by test_lir and
   the fuzzer; these pin the primitives). *)

module Hir = Repro_hgraph.Hir
module T = Repro_hgraph.Transforms
module Analysis = Repro_hgraph.Analysis
module Cfg = Repro_util.Cfg
module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast

(* Build a function from (bid, insns, term) triples. *)
let mk_func ?(nregs = 32) blocks =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (bid, insns, term) ->
       Hashtbl.replace tbl bid { Hir.insns; term })
    blocks;
  { Hir.f_mid = 0; f_name = "test"; f_nparams = 0; f_nregs = nregs;
    f_blocks = tbl; f_entry = 0;
    f_next_bid = 1 + List.fold_left (fun a (b, _, _) -> max a b) 0 blocks;
    f_pressure = None }

(* ------------------------------- Cfg -------------------------------- *)

(* diamond with a loop on one arm:
   0 -> 1 -> (2 <-> 3 loop) -> 4 ; 0 -> 4 *)
let diamond_loop () =
  Cfg.analyze ~entry:0 ~succs:(function
      | 0 -> [ 1; 4 ]
      | 1 -> [ 2 ]
      | 2 -> [ 3; 4 ]
      | 3 -> [ 2 ]
      | _ -> [])

let test_cfg_reachability () =
  let g = Cfg.analyze ~entry:0 ~succs:(function 0 -> [ 1 ] | _ -> []) in
  Alcotest.(check (list int)) "only reachable" [ 0; 1 ] (List.sort compare (Cfg.nodes g))

let test_cfg_dominators () =
  let g = diamond_loop () in
  Alcotest.(check bool) "0 dominates all" true
    (List.for_all (Cfg.dominates g 0) (Cfg.nodes g));
  Alcotest.(check bool) "1 dominates 2,3" true
    (Cfg.dominates g 1 2 && Cfg.dominates g 1 3);
  Alcotest.(check bool) "1 does not dominate 4" false (Cfg.dominates g 1 4);
  Alcotest.(check (option int)) "idom of 4 is 0" (Some 0) (Cfg.idom g 4);
  Alcotest.(check (option int)) "idom of entry" None (Cfg.idom g 0)

let test_cfg_loops () =
  let g = diamond_loop () in
  match Cfg.loops g with
  | [ l ] ->
    Alcotest.(check int) "header" 2 l.Cfg.header;
    Alcotest.(check (list int)) "back edges" [ 3 ] l.Cfg.back_edges;
    Alcotest.(check (list int)) "body" [ 2; 3 ] l.Cfg.body;
    Alcotest.(check int) "depth inside" 1 (Cfg.loop_depth g 2);
    Alcotest.(check int) "depth outside" 0 (Cfg.loop_depth g 4)
  | ls -> Alcotest.fail (Printf.sprintf "expected 1 loop, got %d" (List.length ls))

let test_cfg_nested_loops () =
  (* 0 -> 1 { 1 -> 2 { 2 -> 2 } 2 -> 1 } 1 -> 3 *)
  let g =
    Cfg.analyze ~entry:0 ~succs:(function
        | 0 -> [ 1 ]
        | 1 -> [ 2; 3 ]
        | 2 -> [ 2; 1 ]
        | _ -> [])
  in
  Alcotest.(check int) "two loops" 2 (List.length (Cfg.loops g));
  Alcotest.(check int) "inner depth" 2 (Cfg.loop_depth g 2)

(* qcheck: dominator sanity on random CFGs *)
let random_cfg_gen =
  QCheck.Gen.(
    sized_size (int_range 2 12) (fun n ->
        (* each node gets up to 2 random successors *)
        let* edges =
          list_repeat n
            (pair (int_bound (n - 1)) (int_bound (n - 1)))
        in
        return (n, edges)))

let prop_dominator_sanity =
  QCheck.Test.make ~name:"entry dominates every reachable node" ~count:200
    (QCheck.make random_cfg_gen)
    (fun (n, edges) ->
       let succs i =
         List.concat_map
           (fun (a, b) -> if a = i then [ b ] else [])
           (List.mapi (fun i (x, y) -> (i mod n, if i mod 2 = 0 then x else y)) edges)
       in
       let g = Cfg.analyze ~entry:0 ~succs in
       List.for_all
         (fun node ->
            Cfg.dominates g 0 node
            && (node = 0 || Cfg.idom g node <> None)
            && Cfg.dominates g node node)
         (Cfg.nodes g))

let prop_loop_bodies_contain_header_and_backedges =
  QCheck.Test.make ~name:"loop bodies well-formed" ~count:200
    (QCheck.make random_cfg_gen)
    (fun (n, edges) ->
       let succs i =
         List.filter_map
           (fun (a, b) -> if a mod n = i then Some (b mod n) else None)
           edges
       in
       let g = Cfg.analyze ~entry:0 ~succs in
       List.for_all
         (fun l ->
            List.mem l.Cfg.header l.Cfg.body
            && List.for_all (fun t -> List.mem t l.Cfg.body) l.Cfg.back_edges
            && List.for_all (fun t -> Cfg.dominates g l.Cfg.header t)
                 l.Cfg.back_edges)
         (Cfg.loops g))

(* ----------------------------- liveness ----------------------------- *)

let test_liveness_through_branch () =
  (* b0: r1=1; r2=2; if r1 ? b1 : b2.  b1 uses r1, b2 uses r2. *)
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 1); Hir.Const (2, B.Cint 2) ],
         Hir.If (B.Cne, 1, None, 1, 2, Hir.Predict_none));
        (1, [ Hir.Move (3, 1) ], Hir.Ret (Some 3));
        (2, [ Hir.Move (4, 2) ], Hir.Ret (Some 4)) ]
  in
  let g = Hir.cfg f in
  let live = Analysis.liveness f g in
  let out0 = Analysis.live_out live 0 in
  Alcotest.(check bool) "r1 live out of b0" true (Analysis.ISet.mem 1 out0);
  Alcotest.(check bool) "r2 live out of b0" true (Analysis.ISet.mem 2 out0);
  Alcotest.(check bool) "r3 not live out of b0" false (Analysis.ISet.mem 3 out0)

(* ----------------------------- transforms --------------------------- *)

let ret_const_after pipeline blocks expected =
  let f = pipeline (mk_func blocks) in
  (* after folding, the entry chain should produce a constant return *)
  let rec chase bid guard =
    if guard = 0 then None
    else begin
      let b = Hir.block f bid in
      match b.Hir.term with
      | Hir.Ret (Some r) ->
        List.fold_left
          (fun acc i ->
             match i with
             | Hir.Const (d, B.Cint k) when d = r -> Some k
             | _ -> acc)
          None b.Hir.insns
      | Hir.Goto t -> chase t (guard - 1)
      | _ -> None
    end
  in
  Alcotest.(check (option int)) "folded" (Some expected) (chase f.Hir.f_entry 10)

let test_const_fold_branch () =
  (* if 1 != 0 then ret 7 else ret 8; must fold the branch away *)
  ret_const_after
    (fun f -> T.dce (T.const_fold f))
    [ (0, [ Hir.Const (1, B.Cint 1) ],
       Hir.If (B.Cne, 1, None, 1, 2, Hir.Predict_none));
      (1, [ Hir.Const (2, B.Cint 7) ], Hir.Ret (Some 2));
      (2, [ Hir.Const (3, B.Cint 8) ], Hir.Ret (Some 3)) ]
    7

let test_cse_reuses_load () =
  (* two identical pure binops collapse to one *)
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 6); Hir.Const (2, B.Cint 7);
           Hir.Binop (Ast.Mul, 3, 1, 2); Hir.Binop (Ast.Mul, 4, 1, 2);
           Hir.Binop (Ast.Add, 5, 3, 4) ],
         Hir.Ret (Some 5)) ]
  in
  let f' = T.cse_local f in
  let muls = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter
        (function Hir.Binop (Ast.Mul, _, _, _) -> incr muls | _ -> ())
        b.Hir.insns);
  Alcotest.(check int) "one mul left (other became a move)" 1 !muls

let test_cse_invalidated_by_store () =
  (* a load is not reused across an aliasing store *)
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 0);
           Hir.LoadField (B.Kint, 2, 9, 0);
           Hir.StoreField (B.Kint, 9, 1, 0);
           Hir.LoadField (B.Kint, 3, 9, 0);
           Hir.Binop (Ast.Add, 4, 2, 3) ],
         Hir.Ret (Some 4)) ]
  in
  let f' = T.cse_local f in
  let loads = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter
        (function Hir.LoadField _ -> incr loads | _ -> ())
        b.Hir.insns);
  Alcotest.(check int) "both loads survive" 2 !loads

let test_lse_forwards_store () =
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 5);
           Hir.StoreField (B.Kint, 9, 1, 2);
           Hir.LoadField (B.Kint, 3, 9, 2) ],
         Hir.Ret (Some 3)) ]
  in
  let f' = T.load_store_elim f in
  let loads = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter (function Hir.LoadField _ -> incr loads | _ -> ()) b.Hir.insns);
  Alcotest.(check int) "load forwarded" 0 !loads

let test_inline_splices () =
  (* caller calls a tiny static method; after inlining no CallStatic left *)
  let callee =
    mk_func ~nregs:4
      [ (0, [ Hir.Binop (Ast.Add, 1, 0, 0) ], Hir.Ret (Some 1)) ]
  in
  let callee = { callee with Hir.f_mid = 42; f_nparams = 1 } in
  let caller =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 21);
           Hir.CallStatic (Some 2, 42, [ 1 ]) ],
         Hir.Ret (Some 2)) ]
  in
  let f' =
    T.inline_calls
      ~get_func:(fun mid -> if mid = 42 then Some callee else None)
      ~threshold:10 caller
  in
  let calls = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter (function Hir.CallStatic _ -> incr calls | _ -> ()) b.Hir.insns);
  Alcotest.(check int) "no calls left" 0 !calls

let test_simplify_cfg_threads_gotos () =
  let f =
    mk_func
      [ (0, [], Hir.Goto 1);
        (1, [], Hir.Goto 2);
        (2, [ Hir.Const (1, B.Cint 3) ], Hir.Ret (Some 1));
        (7, [], Hir.Goto 0) (* unreachable *) ]
  in
  let f' = T.simplify_cfg f in
  Alcotest.(check int) "collapsed to one block" 1 (Hashtbl.length f'.Hir.f_blocks)

let test_predict_static_marks_backedge () =
  let f =
    mk_func
      [ (0, [ Hir.Const (1, B.Cint 10) ], Hir.Goto 1);
        (1, [ Hir.Binop (Ast.Sub, 1, 1, 1) ],
         Hir.If (B.Cgt, 1, None, 1, 2, Hir.Predict_none));
        (2, [], Hir.Ret (Some 1)) ]
  in
  let f' = T.predict_static f in
  match (Hir.block f' 1).Hir.term with
  | Hir.If (_, _, _, _, _, Hir.Predict_taken) -> ()
  | _ -> Alcotest.fail "back edge should be predicted taken"

(* ---------------- differential: rewritten analyses ------------------ *)

(* The set-based liveness solver and the merge-one-pair-per-CFG-rebuild
   block merger that the bitset solver and the one-pass chain collapse
   replaced, kept as references: the rewrites must agree with them on
   every graph, down to the printed function and the block table's
   iteration order, which later passes observe. *)

module ISet = Analysis.ISet

let ref_defs_of_block (b : Hir.block) =
  List.fold_left
    (fun acc i ->
       match Hir.def_of i with Some d -> ISet.add d acc | None -> acc)
    ISet.empty b.Hir.insns

let ref_uses_of_block (b : Hir.block) =
  let rec walk defined acc = function
    | [] ->
      List.fold_left
        (fun acc u -> if ISet.mem u defined then acc else ISet.add u acc)
        acc (Hir.uses_of_term b.Hir.term)
    | i :: rest ->
      let acc =
        List.fold_left
          (fun acc u -> if ISet.mem u defined then acc else ISet.add u acc)
          acc (Hir.uses_of i)
      in
      let defined =
        match Hir.def_of i with Some d -> ISet.add d defined | None -> defined
      in
      walk defined acc rest
  in
  walk ISet.empty ISet.empty b.Hir.insns

let ref_liveness (f : Hir.func) (g : Cfg.t) =
  let live_out : (int, ISet.t) Hashtbl.t = Hashtbl.create 16 in
  let live_in : (int, ISet.t) Hashtbl.t = Hashtbl.create 16 in
  let get tbl bid = Option.value ~default:ISet.empty (Hashtbl.find_opt tbl bid) in
  let nodes = Cfg.nodes g in
  let uses = Hashtbl.create 16 and defs = Hashtbl.create 16 in
  List.iter
    (fun bid ->
       let b = Hir.block f bid in
       Hashtbl.replace uses bid (ref_uses_of_block b);
       Hashtbl.replace defs bid (ref_defs_of_block b))
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
         let out =
           List.fold_left
             (fun acc s -> ISet.union acc (get live_in s))
             ISet.empty (Cfg.succs g bid)
         in
         let inn =
           ISet.union (Hashtbl.find uses bid) (ISet.diff out (Hashtbl.find defs bid))
         in
         if not (ISet.equal out (get live_out bid)) then begin
           Hashtbl.replace live_out bid out;
           changed := true
         end;
         if not (ISet.equal inn (get live_in bid)) then begin
           Hashtbl.replace live_in bid inn;
           changed := true
         end)
      (List.rev nodes)
  done;
  live_out

(* Live set before the block's first instruction, as LICM derived it from
   the live-out set before the solver reported live-in sets. *)
let ref_live_in out (b : Hir.block) =
  let after_term =
    List.fold_left (fun acc u -> ISet.add u acc) out (Hir.uses_of_term b.Hir.term)
  in
  List.fold_left
    (fun live i ->
       let live =
         match Hir.def_of i with Some d -> ISet.remove d live | None -> live
       in
       List.fold_left (fun s u -> ISet.add u s) live (Hir.uses_of i))
    after_term (List.rev b.Hir.insns)

let ref_pressure f =
  Hashtbl.fold (fun _ live acc -> max acc (ISet.cardinal live))
    (ref_liveness f (Hir.cfg f)) 0

let ref_remove_unreachable f =
  let f = Hir.copy f in
  let reachable = Cfg.nodes (Hir.cfg f) in
  let all = Hashtbl.fold (fun bid _ acc -> bid :: acc) f.Hir.f_blocks [] in
  List.iter
    (fun bid ->
       if not (List.mem bid reachable) then Hashtbl.remove f.Hir.f_blocks bid)
    all;
  f

let ref_simplify_cfg f =
  let f = ref_remove_unreachable f in
  let f = Hir.copy f in
  let redirect = Hashtbl.create 8 in
  Hir.iter_blocks f (fun bid b ->
      match b.Hir.insns, b.Hir.term with
      | [], Hir.Goto t when t <> bid -> Hashtbl.replace redirect bid t
      | _ -> ());
  let rec resolve bid seen =
    if List.mem bid seen then bid
    else
      match Hashtbl.find_opt redirect bid with
      | Some t -> resolve t (bid :: seen)
      | None -> bid
  in
  Hir.iter_blocks f (fun _ b ->
      b.Hir.term <-
        (match b.Hir.term with
         | Hir.Goto t -> Hir.Goto (resolve t [])
         | Hir.If (c, a, o, bt, be, h) ->
           Hir.If (c, a, o, resolve bt [], resolve be [], h)
         | (Hir.Ret _ | Hir.ThrowT _) as t -> t));
  let f = ref_remove_unreachable f in
  let f = Hir.copy f in
  let merged = ref true in
  while !merged do
    merged := false;
    let g = Hir.cfg f in
    let candidates =
      List.filter_map
        (fun bid ->
           match Hashtbl.find_opt f.Hir.f_blocks bid with
           | Some b ->
             (match b.Hir.term with
              | Hir.Goto t when t <> bid && t <> f.Hir.f_entry
                                && List.length (Cfg.preds g t) = 1 ->
                Some (bid, t)
              | _ -> None)
           | None -> None)
        (Cfg.nodes g)
    in
    (match candidates with
     | (bid, t) :: _ ->
       let b = Hir.block f bid in
       let c = Hir.block f t in
       b.Hir.insns <- b.Hir.insns @ c.Hir.insns;
       b.Hir.term <- c.Hir.term;
       Hashtbl.remove f.Hir.f_blocks t;
       merged := true
     | [] -> ())
  done;
  f

(* Random functions over sparse block ids: dead and unreachable blocks,
   self-loops, [If]s with both arms on one block, chains of empty gotos,
   and register files both narrower and wider than one bitset word. *)
let random_func_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* step = oneofl [ 1; 3; 17 ] in
    let* nregs = oneof [ int_range 1 8; int_range 60 140 ] in
    let bid k = k * step in
    let reg = int_bound (nregs - 1) in
    let target = map bid (int_bound (n - 1)) in
    let instr =
      frequency
        [ (3, map2 (fun d k -> Hir.Const (d, B.Cint k)) reg small_nat);
          (2, map2 (fun d a -> Hir.Move (d, a)) reg reg);
          (3, map3 (fun d a b -> Hir.Binop (Ast.Add, d, a, b)) reg reg reg);
          (1, map (fun a -> Hir.GuardNull a) reg);
          (1, map2 (fun o v -> Hir.StoreField (B.Kint, o, v, 0)) reg reg);
          (1, map2 (fun d a -> Hir.CallStatic (Some d, 9, [ a ])) reg reg) ]
    in
    let term =
      frequency
        [ (4, map (fun t -> Hir.Goto t) target);
          (3,
           map2
             (fun (a, b) (t, e) ->
                Hir.If (B.Clt, a, Some b, t, e, Hir.Predict_none))
             (pair reg reg) (pair target target));
          (1, map2 (fun a t -> Hir.If (B.Ceq, a, None, t, t, Hir.Predict_none))
               reg target);
          (1, map (fun a -> Hir.Ret (Some a)) reg);
          (1, return (Hir.Ret None));
          (1, map (fun a -> Hir.ThrowT a) reg) ]
    in
    let block k =
      let* kind = int_bound 9 in
      if kind < 3 && k + 1 < n then return (bid k, [], Hir.Goto (bid (k + 1)))
      else if kind = 3 then map (fun t -> (bid k, [], Hir.Goto t)) target
      else map2 (fun insns t -> (bid k, insns, t)) (list_size (int_bound 4) instr) term
    in
    let* blocks = flatten_l (List.init n block) in
    let* entry = oneof [ return 0; map bid (int_bound (n - 1)) ] in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (b, insns, term) -> Hashtbl.replace tbl b { Hir.insns; term })
      blocks;
    return
      { Hir.f_mid = 0; f_name = "random"; f_nparams = 0; f_nregs = nregs;
        f_blocks = tbl; f_entry = entry; f_next_bid = bid n;
        f_pressure = None })

let bids_in_table_order f =
  Hashtbl.fold (fun bid _ acc -> bid :: acc) f.Hir.f_blocks []

let prop_liveness_matches_reference =
  QCheck.Test.make ~name:"bitset liveness = set liveness" ~count:300
    (QCheck.make ~print:Hir.to_string random_func_gen)
    (fun f ->
       let g = Hir.cfg f in
       let live = Analysis.liveness f g in
       let reference = ref_liveness f g in
       let ref_out bid =
         Option.value ~default:ISet.empty (Hashtbl.find_opt reference bid)
       in
       Hashtbl.fold
         (fun bid b ok ->
            ok
            && ISet.equal (Analysis.live_out live bid) (ref_out bid)
            && ((not (List.mem bid (Cfg.nodes g)))
                || ISet.equal (Analysis.live_in live bid)
                     (ref_live_in (ref_out bid) b)))
         f.Hir.f_blocks true
       && Analysis.pressure f = ref_pressure f)

let prop_simplify_cfg_matches_reference =
  QCheck.Test.make ~name:"chain collapse = pairwise merging" ~count:300
    (QCheck.make ~print:Hir.to_string random_func_gen)
    (fun f ->
       let got = T.simplify_cfg f and want = ref_simplify_cfg f in
       Hir.to_string got = Hir.to_string want
       && bids_in_table_order got = bids_in_table_order want)

(* A 5,000-block straight line, every third block an empty goto: goto
   threading and chain merging must collapse it to the entry block, and
   in linear time (pairwise merging rebuilt the CFG after every merge). *)
let test_simplify_cfg_long_chain () =
  let n = 5_000 in
  let body k = if k mod 3 = 1 then [] else [ Hir.Const (k mod 8, B.Cint k) ] in
  let f =
    mk_func
      (List.init n (fun k ->
           (k, body k, if k = n - 1 then Hir.Ret (Some 0) else Hir.Goto (k + 1))))
  in
  let f' = T.simplify_cfg f in
  Alcotest.(check (list int)) "one block left" [ 0 ] (bids_in_table_order f');
  let b = Hir.block f' 0 in
  Alcotest.(check int) "every instruction kept in order"
    (List.length (List.concat_map body (List.init n Fun.id)))
    (List.length b.Hir.insns);
  Alcotest.(check bool) "ends in the last block's return" true
    (b.Hir.term = Hir.Ret (Some 0))

let () =
  Alcotest.run "hgraph"
    [ ("cfg",
       [ Alcotest.test_case "reachability" `Quick test_cfg_reachability;
         Alcotest.test_case "dominators" `Quick test_cfg_dominators;
         Alcotest.test_case "loops" `Quick test_cfg_loops;
         Alcotest.test_case "nested loops" `Quick test_cfg_nested_loops ]);
      ("analysis",
       [ Alcotest.test_case "liveness" `Quick test_liveness_through_branch ]);
      ("transforms",
       [ Alcotest.test_case "const fold branch" `Quick test_const_fold_branch;
         Alcotest.test_case "cse reuse" `Quick test_cse_reuses_load;
         Alcotest.test_case "cse store barrier" `Quick test_cse_invalidated_by_store;
         Alcotest.test_case "lse forwarding" `Quick test_lse_forwards_store;
         Alcotest.test_case "inline splices" `Quick test_inline_splices;
         Alcotest.test_case "cfg threading" `Quick test_simplify_cfg_threads_gotos;
         Alcotest.test_case "static prediction" `Quick test_predict_static_marks_backedge ]);
      ("cfg-properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_dominator_sanity; prop_loop_bodies_contain_header_and_backedges ]);
      ("differential",
       Alcotest.test_case "5000-block chain" `Quick test_simplify_cfg_long_chain
       :: List.map QCheck_alcotest.to_alcotest
         [ prop_liveness_matches_reference; prop_simplify_cfg_matches_reference ]) ]
