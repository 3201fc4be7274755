let inline_threshold = 18

let pipeline ~get_func f =
  let ( |> ) = Stdlib.( |> ) in
  f
  |> Transforms.simplify_cfg
  |> Transforms.const_fold
  |> Transforms.simplify
  |> Transforms.copy_prop
  |> Transforms.dce
  |> Transforms.inline_calls ~get_func ~threshold:inline_threshold ~max_depth:2
  |> Transforms.const_fold
  |> Transforms.simplify
  |> Transforms.copy_prop
  |> Transforms.cse_local
  |> Transforms.load_store_elim
  |> Transforms.licm
  |> Transforms.dce
  |> Transforms.simplify_cfg
  |> Transforms.predict_static

(* Callee resolver that never fails: uncompilable callees stay as calls. *)
let rec compile_method dx mid = pipeline ~get_func:(builder dx) (Build.func dx mid)

and builder dx mid =
  match Build.func dx mid with
  | f -> Some f
  | exception Build.Uncompilable _ -> None
