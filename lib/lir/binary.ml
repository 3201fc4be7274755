module Hir = Repro_hgraph.Hir

type t = {
  funcs : (int, Hir.func) Hashtbl.t;
  size : int;
  dig : string;
}

let find t mid = Hashtbl.find_opt t.funcs mid
let mids t =
  Hashtbl.fold (fun mid _ acc -> mid :: acc) t.funcs []
  |> List.sort Int.compare

(* Content digest over the printed graphs in ascending-mid order — the memo
   key Evalpool uses to deduplicate identical binaries. *)
let compute_digest funcs =
  Hashtbl.fold (fun mid f acc -> (mid, f) :: acc) funcs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (_, f) -> Hir.to_string f)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let digest t = t.dig

let create fs =
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun f ->
       (* Precompute the register-pressure cache while the binary is still
          private to the building domain: executor reads of [f_pressure]
          from concurrent Evalpool workers must never race a lazy fill. *)
       if f.Hir.f_pressure = None then
         f.Hir.f_pressure <- Some (Repro_hgraph.Analysis.pressure f);
       Hashtbl.replace funcs f.Hir.f_mid f)
    fs;
  { funcs; size = List.fold_left (fun acc f -> acc + Hir.size f) 0 fs;
    dig = compute_digest funcs }

let overlay base top =
  create
    (List.filter_map
       (fun mid -> if Hashtbl.mem top.funcs mid then None else find base mid)
       (mids base)
     @ List.filter_map (find top) (mids top))
