(* Tests for Repro_util.Lru against a naive reference: an association list
   ordered hottest-first, evicting from its tail.  After every operation
   the two must agree on hits, victims (in order), contents and weight, and
   the weight must be within budget. *)

module Lru = Repro_util.Lru

(* ------------------------- reference model -------------------------- *)

(* Values are (tag, weight) so first-writer-wins is observable: every add
   carries a fresh tag. *)
type model = {
  mutable items : (string * (int * int)) list;  (* hottest first *)
  budget : int;
}

let total items = List.fold_left (fun acc (_, (_, w)) -> acc + w) 0 items

let model_find m k =
  match List.assoc_opt k m.items with
  | None -> None
  | Some v ->
    m.items <- (k, v) :: List.remove_assoc k m.items;
    Some v

(* returns the victims, coldest first *)
let model_add m k v =
  if List.mem_assoc k m.items then []
  else begin
    m.items <- (k, v) :: m.items;
    let victims = ref [] in
    while total m.items > m.budget do
      match List.rev m.items with
      | (ck, cv) :: rest_rev ->
        victims := (ck, cv) :: !victims;
        m.items <- List.rev rest_rev
      | [] -> assert false
    done;
    List.rev !victims
  end

(* --------------------------- the property ---------------------------- *)

type op = Find of int | Add of int * int  (* key index, weight *)

let print_op = function
  | Find k -> Printf.sprintf "find k%d" k
  | Add (k, w) -> Printf.sprintf "add k%d w%d" k w

let gen_case =
  QCheck.Gen.(
    pair (int_bound 20)
      (list_size (int_bound 80)
         (oneof
            [ map (fun k -> Find k) (int_bound 7);
              map2 (fun k w -> Add (k, w)) (int_bound 7) (int_bound 12) ])))

let arb_case =
  QCheck.make
    ~print:(fun (budget, ops) ->
        Printf.sprintf "budget %d: %s" budget
          (String.concat "; " (List.map print_op ops)))
    gen_case

let prop_matches_model =
  QCheck.Test.make ~name:"lru agrees with the list model" ~count:500 arb_case
    (fun (budget, ops) ->
       let victims = ref [] in
       let lru =
         Lru.create ~budget ~weight:snd
           ~on_evict:(fun k v -> victims := (k, v) :: !victims)
           ()
       in
       let m = { items = []; budget } in
       List.iteri
         (fun tag op ->
            victims := [];
            (match op with
             | Find k ->
               let key = "k" ^ string_of_int k in
               if Lru.find lru key <> model_find m key then
                 QCheck.Test.fail_reportf "hit mismatch at %s" (print_op op)
             | Add (k, w) ->
               let key = "k" ^ string_of_int k in
               let expected = model_add m key (tag, w) in
               Lru.add lru key (tag, w);
               if List.rev !victims <> expected then
                 QCheck.Test.fail_reportf "victim mismatch at %s" (print_op op));
            if Lru.weight lru > budget then
              QCheck.Test.fail_reportf "over budget after %s" (print_op op);
            if Lru.weight lru <> total m.items
            || Lru.length lru <> List.length m.items then
              QCheck.Test.fail_reportf "size mismatch after %s" (print_op op))
         ops;
       (* same contents, and every surviving value is its key's first *)
       List.for_all (fun (k, v) -> Lru.mem lru k && Lru.find lru k = Some v)
         m.items)

(* ----------------------------- unit tests ---------------------------- *)

let test_first_writer_wins () =
  let lru = Lru.create ~budget:2 ~weight:(fun _ -> 1) () in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Lru.add lru "a" 99;
  Alcotest.(check (option int)) "first value kept" (Some 1) (Lru.find lru "a");
  (* re-adding "b" must not refresh it: "b" is still the coldest *)
  Lru.add lru "b" 98;
  Lru.add lru "c" 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem lru "b");
  Alcotest.(check bool) "a kept" true (Lru.mem lru "a")

let test_entry_heavier_than_budget () =
  let victims = ref [] in
  let lru =
    Lru.create ~budget:10 ~weight:String.length
      ~on_evict:(fun k _ -> victims := k :: !victims)
      ()
  in
  Lru.add lru "a" "xxx";
  Lru.add lru "b" "yyy";
  Lru.add lru "c" (String.make 11 'z');
  Alcotest.(check (list string)) "everything evicted, the heavy entry last"
    [ "a"; "b"; "c" ] (List.rev !victims);
  Alcotest.(check int) "empty" 0 (Lru.length lru);
  Alcotest.(check int) "weightless" 0 (Lru.weight lru);
  Alcotest.(check int) "three evictions" 3 (Lru.evictions lru)

let test_set_budget_and_reset () =
  let lru = Lru.create ~budget:4 ~weight:(fun _ -> 1) () in
  List.iter (fun k -> Lru.add lru k ()) [ "a"; "b"; "c"; "d" ];
  ignore (Lru.find lru "a");
  Lru.set_budget lru 2;
  Alcotest.(check int) "budget" 2 (Lru.budget lru);
  Alcotest.(check (list bool)) "the two hottest survive the shrink"
    [ true; false; false; true ]
    (List.map (Lru.mem lru) [ "a"; "b"; "c"; "d" ]);
  Lru.reset lru;
  Alcotest.(check int) "reset empties" 0 (Lru.length lru);
  Alcotest.(check int) "reset zeroes evictions" 0 (Lru.evictions lru)

let () =
  Alcotest.run "lru"
    [ ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
      ("unit",
       [ Alcotest.test_case "first writer wins" `Quick test_first_writer_wins;
         Alcotest.test_case "entry heavier than the budget" `Quick
           test_entry_heavier_than_budget;
         Alcotest.test_case "set_budget and reset" `Quick
           test_set_budget_and_reset ]) ]
