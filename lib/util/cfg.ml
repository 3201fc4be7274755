(* Node ids are ints: hash them as themselves and compare them unboxed,
   instead of the polymorphic hash and compare of [Hashtbl].  No table
   here is iterated in an order that reaches a result. *)
module Tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash n = n land max_int
  end)

type t = {
  entry : int;
  succs_of : int list Tbl.t;
  preds_of : int list Tbl.t;
  rpo : int array;                       (* reverse postorder *)
  rpo_idx : int Tbl.t;
  idoms : int array Lazy.t;
  (* RPO index -> RPO index of the immediate dominator (entry: itself);
     built on the first dominance query, never by [analyze] *)
}

(* Cooper-Harvey-Kennedy iterative dominators over RPO indices. *)
let dominators rpo rpo_idx preds_of =
  let n = Array.length rpo in
  let preds =
    Array.map
      (fun node ->
         List.map (Tbl.find rpo_idx)
           (Option.value ~default:[] (Tbl.find_opt preds_of node))
         |> Array.of_list)
      rpo
  in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let nd =
        Array.fold_left
          (fun acc p ->
             if idom.(p) < 0 then acc
             else if acc < 0 then p
             else intersect p acc)
          (-1) preds.(i)
      in
      if nd >= 0 && idom.(i) <> nd then begin
        idom.(i) <- nd;
        changed := true
      end
    done
  done;
  idom

let analyze ~entry ~succs =
  let succs_of = Tbl.create 64 in
  let preds_of = Tbl.create 64 in
  let postorder = ref [] in
  let rec dfs n =
    if not (Tbl.mem succs_of n) then begin
      let ss = succs n in
      Tbl.replace succs_of n ss;
      List.iter
        (fun s ->
           let ps = Option.value ~default:[] (Tbl.find_opt preds_of s) in
           Tbl.replace preds_of s (n :: ps);
           dfs s)
        ss;
      postorder := n :: !postorder
    end
  in
  dfs entry;
  let rpo = Array.of_list !postorder in
  let rpo_idx = Tbl.create (Array.length rpo) in
  Array.iteri (fun i n -> Tbl.replace rpo_idx n i) rpo;
  { entry; succs_of; preds_of; rpo; rpo_idx;
    idoms = lazy (dominators rpo rpo_idx preds_of) }

let nodes t = Array.to_list t.rpo
let mem t n = Tbl.mem t.rpo_idx n
let preds t n = Option.value ~default:[] (Tbl.find_opt t.preds_of n)
let succs t n = Option.value ~default:[] (Tbl.find_opt t.succs_of n)

let rpo_index t n =
  match Tbl.find_opt t.rpo_idx n with
  | Some i -> i
  | None -> invalid_arg "Cfg.rpo_index: unreachable node"

let idom t n =
  match Tbl.find_opt t.rpo_idx n with
  | Some i when n <> t.entry -> Some t.rpo.((Lazy.force t.idoms).(i))
  | Some _ | None -> None

let dominates t a b =
  match Tbl.find_opt t.rpo_idx a, Tbl.find_opt t.rpo_idx b with
  | Some ia, Some ib ->
    let idom = Lazy.force t.idoms in
    (* dominators precede what they dominate in RPO: climb while above [ia] *)
    let rec walk i = i = ia || (i > ia && walk idom.(i)) in
    walk ib
  | _ -> false

type loop = { header : int; back_edges : int list; body : int list }

let natural_loop t header tails =
  (* Union of nodes that reach a back-edge source without passing header. *)
  let body = Tbl.create 16 in
  Tbl.replace body header ();
  let rec pull n =
    if not (Tbl.mem body n) then begin
      Tbl.replace body n ();
      List.iter pull (preds t n)
    end
  in
  List.iter pull tails;
  Tbl.fold (fun n () acc -> n :: acc) body [] |> List.sort Int.compare

let loops t =
  let by_header = Tbl.create 8 in
  Array.iter
    (fun n ->
       List.iter
         (fun s ->
            if dominates t s n then begin
              let tails = Option.value ~default:[] (Tbl.find_opt by_header s) in
              Tbl.replace by_header s (n :: tails)
            end)
         (succs t n))
    t.rpo;
  Tbl.fold
    (fun header tails acc ->
       { header; back_edges = tails; body = natural_loop t header tails } :: acc)
    by_header []
  |> List.sort (fun a b -> Int.compare (rpo_index t a.header) (rpo_index t b.header))

let loop_depth t n =
  List.length (List.filter (fun l -> List.mem n l.body) (loops t))
