module Ctx = Repro_vm.Exec_ctx

type t = {
  samples : (int * bool) list;
  total : int;
}

let of_ctx (ctx : Ctx.t) =
  let samples =
    List.rev_map (fun s -> (s.Ctx.s_method, s.Ctx.s_native)) ctx.Ctx.samples
  in
  { samples; total = List.length samples }

let exclusive t mid =
  List.length (List.filter (fun (m, native) -> m = mid && not native) t.samples)

let hottest t =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (m, native) ->
       if not native then
         Hashtbl.replace counts m
           (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
    t.samples;
  (* Sort by count descending, then method id ascending: Hashtbl.fold
     enumerates in unspecified order, so without the id tie-break, equal
     counts would reach Regions.hot_region in nondeterministic order and
     its [>=] tie-break would pick whichever came first. *)
  Hashtbl.fold (fun m n acc -> (m, n) :: acc) counts []
  |> List.sort (fun (m1, a) (m2, b) ->
      match Int.compare b a with 0 -> Int.compare m1 m2 | c -> c)
