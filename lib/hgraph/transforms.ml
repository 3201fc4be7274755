module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Cfg = Repro_util.Cfg
module ISet = Analysis.ISet
open Hir

(* ------------------------------------------------------------------ *)
(* Constant evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let eval_binop_const op a b : B.const option =
  match op, a, b with
  | Ast.Add, B.Cint x, B.Cint y -> Some (B.Cint (x + y))
  | Ast.Sub, B.Cint x, B.Cint y -> Some (B.Cint (x - y))
  | Ast.Mul, B.Cint x, B.Cint y -> Some (B.Cint (x * y))
  | Ast.Div, B.Cint x, B.Cint y when y <> 0 -> Some (B.Cint (x / y))
  | Ast.Rem, B.Cint x, B.Cint y when y <> 0 -> Some (B.Cint (x mod y))
  | Ast.Band, B.Cint x, B.Cint y -> Some (B.Cint (x land y))
  | Ast.Bor, B.Cint x, B.Cint y -> Some (B.Cint (x lor y))
  | Ast.Bxor, B.Cint x, B.Cint y -> Some (B.Cint (x lxor y))
  | Ast.Shl, B.Cint x, B.Cint y -> Some (B.Cint (x lsl (y land 63)))
  | Ast.Shr, B.Cint x, B.Cint y -> Some (B.Cint (x asr (y land 63)))
  | Ast.Add, B.Cfloat x, B.Cfloat y -> Some (B.Cfloat (x +. y))
  | Ast.Sub, B.Cfloat x, B.Cfloat y -> Some (B.Cfloat (x -. y))
  | Ast.Mul, B.Cfloat x, B.Cfloat y -> Some (B.Cfloat (x *. y))
  | Ast.Div, B.Cfloat x, B.Cfloat y -> Some (B.Cfloat (x /. y))
  | Ast.Rem, B.Cfloat x, B.Cfloat y -> Some (B.Cfloat (Float.rem x y))
  | Ast.Lt, B.Cint x, B.Cint y -> Some (B.Cbool (x < y))
  | Ast.Le, B.Cint x, B.Cint y -> Some (B.Cbool (x <= y))
  | Ast.Gt, B.Cint x, B.Cint y -> Some (B.Cbool (x > y))
  | Ast.Ge, B.Cint x, B.Cint y -> Some (B.Cbool (x >= y))
  | Ast.Lt, B.Cfloat x, B.Cfloat y -> Some (B.Cbool (x < y))
  | Ast.Le, B.Cfloat x, B.Cfloat y -> Some (B.Cbool (x <= y))
  | Ast.Gt, B.Cfloat x, B.Cfloat y -> Some (B.Cbool (x > y))
  | Ast.Ge, B.Cfloat x, B.Cfloat y -> Some (B.Cbool (x >= y))
  | Ast.Eq, B.Cint x, B.Cint y -> Some (B.Cbool (x = y))
  | Ast.Ne, B.Cint x, B.Cint y -> Some (B.Cbool (x <> y))
  | Ast.Eq, B.Cfloat x, B.Cfloat y -> Some (B.Cbool (x = y))
  | Ast.Ne, B.Cfloat x, B.Cfloat y -> Some (B.Cbool (x <> y))
  | Ast.Eq, B.Cbool x, B.Cbool y -> Some (B.Cbool (x = y))
  | Ast.Ne, B.Cbool x, B.Cbool y -> Some (B.Cbool (x <> y))
  | Ast.Eq, B.Cnull, B.Cnull -> Some (B.Cbool true)
  | Ast.Ne, B.Cnull, B.Cnull -> Some (B.Cbool false)
  | Ast.Land, B.Cbool x, B.Cbool y -> Some (B.Cbool (x && y))
  | Ast.Lor, B.Cbool x, B.Cbool y -> Some (B.Cbool (x || y))
  | _ -> None

let eval_unop_const op c : B.const option =
  match op, c with
  | Ast.Neg, B.Cint x -> Some (B.Cint (-x))
  | Ast.Neg, B.Cfloat x -> Some (B.Cfloat (-.x))
  | Ast.Not, B.Cbool b -> Some (B.Cbool (not b))
  | _ -> None

let eval_cond_const cond a b : bool option =
  let cmp c = Some c in
  let of_int c = match cond with
    | B.Ceq -> cmp (c = 0) | B.Cne -> cmp (c <> 0) | B.Clt -> cmp (c < 0)
    | B.Cle -> cmp (c <= 0) | B.Cgt -> cmp (c > 0) | B.Cge -> cmp (c >= 0)
  in
  match a, b with
  | B.Cint x, B.Cint y -> of_int (compare x y)
  | B.Cfloat x, B.Cfloat y -> of_int (compare x y)
  | B.Cbool x, B.Cbool y -> of_int (compare x y)
  | B.Cnull, B.Cnull -> of_int 0
  | _ -> None

let zero_const_like = function
  | B.Cint _ -> Some (B.Cint 0)
  | B.Cfloat _ -> Some (B.Cfloat 0.0)
  | B.Cbool _ -> Some (B.Cbool false)
  | B.Cnull -> Some B.Cnull

(* ------------------------------------------------------------------ *)
(* Local rewrite engine: tracks constants and copies per block          *)
(* ------------------------------------------------------------------ *)

type local_env = {
  consts : (int, B.const) Hashtbl.t;
  copies : (int, int) Hashtbl.t;
}

let env_create () = { consts = Hashtbl.create 16; copies = Hashtbl.create 16 }

let env_kill env d =
  Hashtbl.remove env.consts d;
  Hashtbl.remove env.copies d;
  (* invalidate copies whose source was overwritten *)
  let stale =
    Hashtbl.fold (fun k v acc -> if v = d then k :: acc else acc) env.copies []
  in
  List.iter (Hashtbl.remove env.copies) stale

let env_record env i =
  match i with
  | Const (d, c) ->
    env_kill env d;
    Hashtbl.replace env.consts d c
  | Move (d, s) when d <> s ->
    env_kill env d;
    (match Hashtbl.find_opt env.consts s with
     | Some c -> Hashtbl.replace env.consts d c
     | None ->
       let root = Option.value ~default:s (Hashtbl.find_opt env.copies s) in
       Hashtbl.replace env.copies d root)
  | other -> (match def_of other with Some d -> env_kill env d | None -> ())

let const_of env r = Hashtbl.find_opt env.consts r

(* Run a local rewrite over every block.  [rw] may return a replacement
   instruction; [rw_term] a replacement terminator. *)
let local_rewrite f ~rw ~rw_term =
  let f = copy f in
  iter_blocks f (fun _ b ->
      let env = env_create () in
      let insns =
        List.map
          (fun i ->
             let i = rw env i in
             env_record env i;
             i)
          b.insns
      in
      b.insns <- insns;
      b.term <- rw_term env b.term);
  f

(* ---------------------------- const_fold --------------------------- *)

let const_fold f =
  let rw env i =
    match i with
    | Binop (op, d, a, b) ->
      (match const_of env a, const_of env b with
       | Some ca, Some cb ->
         (match eval_binop_const op ca cb with
          | Some c -> Const (d, c)
          | None -> i)
       | _ -> i)
    | Unop (op, d, a) ->
      (match const_of env a with
       | Some ca ->
         (match eval_unop_const op ca with Some c -> Const (d, c) | None -> i)
       | None -> i)
    | I2f (d, a) ->
      (match const_of env a with
       | Some (B.Cint k) -> Const (d, B.Cfloat (float_of_int k))
       | _ -> i)
    | F2i (d, a) ->
      (match const_of env a with
       | Some (B.Cfloat x) -> Const (d, B.Cint (int_of_float x))
       | _ -> i)
    | Move (d, s) ->
      (match const_of env s with Some c -> Const (d, c) | None -> i)
    | _ -> i
  in
  let rw_term env t =
    match t with
    | If (cond, a, b, bt, be, _) ->
      let cb =
        match b with
        | Some b -> const_of env b
        | None -> Option.bind (const_of env a) zero_const_like
      in
      (match const_of env a, cb with
       | Some ca, Some cb ->
         (match eval_cond_const cond ca cb with
          | Some true -> Goto bt
          | Some false -> Goto be
          | None -> t)
       | _ -> t)
    | _ -> t
  in
  local_rewrite f ~rw ~rw_term

(* ----------------------------- simplify ---------------------------- *)

let is_pow2 k = k > 0 && k land (k - 1) = 0
let log2 k = int_of_float (Float.round (log (float_of_int k) /. log 2.0))

let simplify f =
  let f = copy f in
  iter_blocks f (fun _ b ->
      let env = env_create () in
      let rule i =
        match i with
        | Binop (op, d, a, b) ->
          let ca = const_of env a and cb = const_of env b in
          (match op, ca, cb with
           | Ast.Add, _, Some (B.Cint 0) -> [ Move (d, a) ]
           | Ast.Add, Some (B.Cint 0), _ -> [ Move (d, b) ]
           | Ast.Sub, _, Some (B.Cint 0) -> [ Move (d, a) ]
           | Ast.Sub, _, _ when a = b -> [ Const (d, B.Cint 0) ]
           | Ast.Mul, _, Some (B.Cint 1) -> [ Move (d, a) ]
           | Ast.Mul, Some (B.Cint 1), _ -> [ Move (d, b) ]
           | Ast.Mul, _, Some (B.Cint 0) -> [ Const (d, B.Cint 0) ]
           | Ast.Mul, Some (B.Cint 0), _ -> [ Const (d, B.Cint 0) ]
           | Ast.Mul, _, Some (B.Cint k) when is_pow2 k && k > 1 ->
             (* x * 2^k  ->  x << log2 k, with a fresh amount register *)
             let r = fresh_reg f in
             [ Const (r, B.Cint (log2 k)); Binop (Ast.Shl, d, a, r) ]
           | Ast.Div, _, Some (B.Cint 1) -> [ Move (d, a) ]
           | Ast.Band, _, _ when a = b -> [ Move (d, a) ]
           | Ast.Bor, _, _ when a = b -> [ Move (d, a) ]
           | Ast.Bxor, _, _ when a = b -> [ Const (d, B.Cint 0) ]
           | Ast.Shl, _, Some (B.Cint 0) -> [ Move (d, a) ]
           | Ast.Shr, _, Some (B.Cint 0) -> [ Move (d, a) ]
           (* float: only +0.0-safe identities *)
           | Ast.Mul, _, Some (B.Cfloat 1.0) -> [ Move (d, a) ]
           | Ast.Div, _, Some (B.Cfloat 1.0) -> [ Move (d, a) ]
           | _ -> [ i ])
        | Unop (Ast.Neg, d, a) ->
          (match const_of env a with
           | Some (B.Cint k) -> [ Const (d, B.Cint (-k)) ]
           | _ -> [ i ])
        | _ -> [ i ]
      in
      let insns =
        List.concat_map
          (fun i ->
             let out = rule i in
             List.iter (env_record env) out;
             out)
          b.insns
      in
      b.insns <- insns);
  f

(* ---------------------------- copy_prop ---------------------------- *)

let copy_prop f =
  let rw env i =
    let subst r = Hashtbl.find_opt env.copies r in
    (* substitute uses only: the destination register must stay *)
    let renamed = rename_instr subst i in
    match def_of i with
    | Some d -> rename_def d renamed
    | None -> renamed
  in
  let rw_term env t =
    let subst r = Hashtbl.find_opt env.copies r in
    rename_term subst t
  in
  local_rewrite f ~rw ~rw_term

(* ------------------------------- dce ------------------------------- *)

let remove_unreachable f =
  let f = copy f in
  let g = cfg f in
  let all = Hashtbl.fold (fun bid _ acc -> bid :: acc) f.f_blocks [] in
  List.iter
    (fun bid -> if not (Cfg.mem g bid) then Hashtbl.remove f.f_blocks bid)
    all;
  f

let dce f =
  let f = remove_unreachable f in
  let changed = ref true in
  let f = copy f in
  (* removing instructions never changes the CFG *)
  let g = cfg f in
  while !changed do
    changed := false;
    let live = Analysis.liveness f g in
    iter_blocks f (fun bid b ->
        let out = Analysis.live_out live bid in
        (* walk backwards, keeping track of liveness *)
        let after_term =
          List.fold_left (fun acc u -> ISet.add u acc) out (uses_of_term b.term)
        in
        let rec back live kept = function
          | [] -> kept
          | i :: rest ->
            let dead =
              match def_of i with
              | Some d -> is_pure i && not (ISet.mem d live)
              | None -> false
            in
            if dead then begin
              changed := true;
              back live kept rest
            end
            else begin
              let live =
                match def_of i with Some d -> ISet.remove d live | None -> live
              in
              let live =
                List.fold_left (fun s u -> ISet.add u s) live (uses_of i)
              in
              back live (i :: kept) rest
            end
        in
        b.insns <- back after_term [] (List.rev b.insns))
  done;
  f

(* ----------------------------- cse_local --------------------------- *)

(* Value-numbering key for an instruction given operand value numbers. *)
type vn_key =
  | Kbin of Ast.binop * int * int
  | Kun of Ast.unop * int
  | Ki2f of int
  | Kf2i of int
  | Kconst of B.const
  | Klen of int * int          (* epoch not needed: length immutable *)
  | Kclass of int
  | Kload_field of int * int * int    (* obj vn, offset, epoch *)
  | Kload_elem of int * int * int     (* arr vn, idx vn, epoch *)
  | Ksget of int * int                (* slot, epoch *)
  | Kiget_c of int * int * int
  | Kaload_c of int * int * int
  | Karrlen_c of int

let cse_local f =
  let f = copy f in
  iter_blocks f (fun _ b ->
      let vn : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let next_vn = ref 0 in
      let fresh_vn () = incr next_vn; !next_vn in
      let vn_of r =
        match Hashtbl.find_opt vn r with
        | Some v -> v
        | None ->
          let v = fresh_vn () in
          Hashtbl.replace vn r v;
          v
      in
      let table : (vn_key, int) Hashtbl.t = Hashtbl.create 16 in
      let epoch = ref 0 in
      let key_of = function
        | Binop (op, _, a, b) when is_pure (Binop (op, 0, a, b)) ->
          Some (Kbin (op, vn_of a, vn_of b))
        | Unop (op, _, a) -> Some (Kun (op, vn_of a))
        | I2f (_, a) -> Some (Ki2f (vn_of a))
        | F2i (_, a) -> Some (Kf2i (vn_of a))
        | Const (_, c) -> Some (Kconst c)
        | LoadLen (_, a) -> Some (Klen (vn_of a, 0))
        | LoadClass (_, a) -> Some (Kclass (vn_of a))
        | LoadField (_, _, o, off) -> Some (Kload_field (vn_of o, off, !epoch))
        | LoadElem (_, _, a, i) -> Some (Kload_elem (vn_of a, vn_of i, !epoch))
        | SGet (_, _, slot) -> Some (Ksget (slot, !epoch))
        | IGetC (_, _, o, off) -> Some (Kiget_c (vn_of o, off, !epoch))
        | ALoadC (_, _, a, i) -> Some (Kaload_c (vn_of a, vn_of i, !epoch))
        | ArrLenC (_, a) -> Some (Karrlen_c (vn_of a))
        | _ -> None
      in
      (* registers currently holding each available value *)
      let holder : (int, int) Hashtbl.t = Hashtbl.create 16 in  (* vn -> reg *)
      let insns =
        List.map
          (fun i ->
             if clobbers_memory i then incr epoch;
             match i with
             | Move (d, s) ->
               let v = vn_of s in
               Hashtbl.replace vn d v;
               Hashtbl.replace holder v d;
               i
             | _ ->
               (match key_of i, def_of i with
                | Some key, Some d ->
                  (match Hashtbl.find_opt table key with
                   | Some v ->
                     (match Hashtbl.find_opt holder v with
                      | Some src when Hashtbl.find_opt vn src = Some v && src <> d ->
                        Hashtbl.replace vn d v;
                        Hashtbl.replace holder v d;
                        Move (d, src)
                      | _ ->
                        (* value known but no register holds it anymore:
                           recompute, re-establish the holder *)
                        Hashtbl.replace vn d v;
                        Hashtbl.replace holder v d;
                        i)
                   | None ->
                     let v = fresh_vn () in
                     Hashtbl.replace table key v;
                     Hashtbl.replace vn d v;
                     Hashtbl.replace holder v d;
                     i)
                | _, Some d ->
                  Hashtbl.replace vn d (fresh_vn ());
                  i
                | _, None -> i))
          b.insns
      in
      b.insns <- insns);
  f

(* -------------------------- load_store_elim ------------------------ *)

type mem_loc =
  | Mfield of int * int      (* obj vn, offset *)
  | Melem of int * int       (* arr vn, idx vn *)
  | Mstatic of int

let load_store_elim f =
  let f = copy f in
  iter_blocks f (fun _ b ->
      let vn : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let next_vn = ref 0 in
      let vn_of r =
        match Hashtbl.find_opt vn r with
        | Some v -> v
        | None -> incr next_vn; Hashtbl.replace vn r !next_vn; !next_vn
      in
      let kill d = Hashtbl.replace vn d (incr next_vn; !next_vn) in
      (* available stored/loaded values: loc -> (value reg, its vn) *)
      let avail : (mem_loc, int * int) Hashtbl.t = Hashtbl.create 16 in
      let clobber () = Hashtbl.reset avail in
      let lookup loc =
        match Hashtbl.find_opt avail loc with
        | Some (r, v) when Hashtbl.find_opt vn r = Some v -> Some r
        | _ -> None
      in
      let insns =
        List.map
          (fun i ->
             let result =
               match i with
               | StoreField (_, o, v, off) ->
                 (* a store to a field invalidates all field locations that
                    may alias (same offset, unknown object identity) *)
                 let loc = Mfield (vn_of o, off) in
                 let stale =
                   Hashtbl.fold
                     (fun l _ acc ->
                        match l with
                        | Mfield (ov, off') when off' = off && ov <> vn_of o ->
                          l :: acc
                        | _ -> acc)
                     avail []
                 in
                 List.iter (Hashtbl.remove avail) stale;
                 Hashtbl.replace avail loc (v, vn_of v);
                 i
               | StoreElem (_, a, idx, v) ->
                 let loc = Melem (vn_of a, vn_of idx) in
                 let stale =
                   Hashtbl.fold
                     (fun l _ acc ->
                        match l with Melem _ when l <> loc -> l :: acc | _ -> acc)
                     avail []
                 in
                 List.iter (Hashtbl.remove avail) stale;
                 Hashtbl.replace avail loc (v, vn_of v);
                 i
               | SPut (_, slot, v) ->
                 Hashtbl.replace avail (Mstatic slot) (v, vn_of v);
                 i
               | LoadField (_, d, o, off) ->
                 (match lookup (Mfield (vn_of o, off)) with
                  | Some src -> Move (d, src)
                  | None ->
                    Hashtbl.replace avail (Mfield (vn_of o, off)) (d, -1);
                    i)
               | LoadElem (_, d, a, idx) ->
                 (match lookup (Melem (vn_of a, vn_of idx)) with
                  | Some src -> Move (d, src)
                  | None ->
                    Hashtbl.replace avail (Melem (vn_of a, vn_of idx)) (d, -1);
                    i)
               | SGet (_, d, slot) ->
                 (match lookup (Mstatic slot) with
                  | Some src -> Move (d, src)
                  | None ->
                    Hashtbl.replace avail (Mstatic slot) (d, -1);
                    i)
               | IGetC (_, d, o, off) ->
                 (match lookup (Mfield (vn_of o, off)) with
                  | Some src -> Move (d, src)
                  | None ->
                    Hashtbl.replace avail (Mfield (vn_of o, off)) (d, -1);
                    i)
               | IPutC (_, o, v, off) ->
                 let loc = Mfield (vn_of o, off) in
                 let stale =
                   Hashtbl.fold
                     (fun l _ acc ->
                        match l with
                        | Mfield (ov, off') when off' = off && ov <> vn_of o ->
                          l :: acc
                        | _ -> acc)
                     avail []
                 in
                 List.iter (Hashtbl.remove avail) stale;
                 Hashtbl.replace avail loc (v, vn_of v);
                 i
               | ALoadC (_, d, a, idx) ->
                 (match lookup (Melem (vn_of a, vn_of idx)) with
                  | Some src -> Move (d, src)
                  | None ->
                    Hashtbl.replace avail (Melem (vn_of a, vn_of idx)) (d, -1);
                    i)
               | AStoreC (_, a, idx, v) ->
                 let loc = Melem (vn_of a, vn_of idx) in
                 let stale =
                   Hashtbl.fold
                     (fun l _ acc ->
                        match l with Melem _ when l <> loc -> l :: acc | _ -> acc)
                     avail []
                 in
                 List.iter (Hashtbl.remove avail) stale;
                 Hashtbl.replace avail loc (v, vn_of v);
                 i
               | CallStatic _ | CallVirtual _ | CallNative (_, _, _, Jni) ->
                 clobber ();
                 i
               | _ -> i
             in
             (* fix up loaded-value vn: a load makes d hold the loc's value *)
             (match result, def_of result with
              | Move (d, s), _ -> Hashtbl.replace vn d (vn_of s)
              | _, Some d ->
                kill d;
                (* re-associate the load destination with its location *)
                (match result with
                 | LoadField (_, d', o, off) when d' = d ->
                   Hashtbl.replace avail (Mfield (vn_of o, off)) (d, vn_of d)
                 | LoadElem (_, d', a, idx) when d' = d ->
                   Hashtbl.replace avail (Melem (vn_of a, vn_of idx)) (d, vn_of d)
                 | SGet (_, d', slot) when d' = d ->
                   Hashtbl.replace avail (Mstatic slot) (d, vn_of d)
                 | IGetC (_, d', o, off) when d' = d ->
                   Hashtbl.replace avail (Mfield (vn_of o, off)) (d, vn_of d)
                 | ALoadC (_, d', a, idx) when d' = d ->
                   Hashtbl.replace avail (Melem (vn_of a, vn_of idx)) (d, vn_of d)
                 | _ -> ())
              | _, None -> ());
             result)
          b.insns
      in
      b.insns <- insns);
  f

(* ------------------------------- licm ------------------------------ *)

let licm f =
  let f = copy f in
  let loops0 = Cfg.loops (cfg f) in
  (* Smallest (innermost) loops first; each loop identified by stable block
     ids, so analyses can be recomputed after earlier loops were rewritten. *)
  let loops =
    List.sort
      (fun a b ->
         compare (List.length a.Cfg.body) (List.length b.Cfg.body))
      loops0
  in
  (* Liveness is solved on first use and kept until a loop hoists: a loop
     that hoists nothing leaves the function unchanged. *)
  let live = ref None in
  List.iter
    (fun loop ->
       let body = loop.Cfg.body in
       let header = loop.Cfg.header in
       (* registers (re)defined anywhere in the loop, with def counts *)
       let def_counts = Hashtbl.create 16 in
       List.iter
         (fun bid ->
            match Hashtbl.find_opt f.f_blocks bid with
            | None -> ()
            | Some b ->
              List.iter
                (fun i ->
                   match def_of i with
                   | Some d ->
                     Hashtbl.replace def_counts d
                       (1 + Option.value ~default:0 (Hashtbl.find_opt def_counts d))
                   | None -> ())
                b.insns)
         body;
       (* live into the header from outside: hoisting must not clobber *)
       let header_live =
         let solved =
           match !live with
           | Some solved -> solved
           | None ->
             let solved = Analysis.liveness f (cfg f) in
             live := Some solved;
             solved
         in
         Analysis.live_in solved header
       in
       let invariant_regs = Hashtbl.create 16 in
       let is_invariant r =
         (not (Hashtbl.mem def_counts r)) || Hashtbl.mem invariant_regs r
       in
       let hoistable i =
         is_pure i
         && (match i with Move _ -> false | _ -> true)
         && List.for_all is_invariant (uses_of i)
         &&
         (match def_of i with
          | Some d ->
            Hashtbl.find_opt def_counts d = Some 1
            && not (ISet.mem d header_live)
          | None -> false)
       in
       let hoisted = ref [] in
       List.iter
         (fun bid ->
            match Hashtbl.find_opt f.f_blocks bid with
            | None -> ()
            | Some b ->
              let keep =
                List.filter
                  (fun i ->
                     if hoistable i then begin
                       hoisted := i :: !hoisted;
                       (match def_of i with
                        | Some d -> Hashtbl.replace invariant_regs d ()
                        | None -> ());
                       false
                     end
                     else true)
                  b.insns
              in
              b.insns <- keep)
         body;
       if !hoisted <> [] then begin
         (* build a preheader and retarget entry edges *)
         let in_body = Hashtbl.create 16 in
         List.iter (fun bid -> Hashtbl.replace in_body bid ()) body;
         let pre = add_block f (List.rev !hoisted) (Goto header) in
         iter_blocks f (fun bid b ->
             if bid <> pre && not (Hashtbl.mem in_body bid) then
               b.term <- retarget_term ~from:header ~to_:pre b.term);
         if f.f_entry = header then f.f_entry <- pre;
         live := None
       end)
    loops;
  f

(* ---------------------------- simplify_cfg ------------------------- *)

let simplify_cfg f =
  let f = remove_unreachable f in
  let f = copy f in
  (* Thread trivial goto blocks. *)
  let redirect = Hashtbl.create 8 in
  iter_blocks f (fun bid b ->
      match b.insns, b.term with
      | [], Goto t when t <> bid -> Hashtbl.replace redirect bid t
      | _ -> ());
  (* [resolve b] follows trivial gotos from [b] to the first block that is
     not one, or to the first block the walk revisits: on a cycle of
     trivial gotos every block resolves to itself, and a block leading
     into the cycle to the block where it enters.  Memoized over whole
     walks; a block marked [on_path] by an earlier walk is memoized. *)
  let resolved = Hashtbl.create 8 and on_path = Hashtbl.create 8 in
  let resolve bid =
    let rec walk b path =
      match Hashtbl.find_opt resolved b with
      | Some r -> List.iter (fun p -> Hashtbl.replace resolved p r) path
      | None when Hashtbl.mem on_path b ->
        let rec cycle = function
          | p :: rest ->
            Hashtbl.replace resolved p p;
            if p = b then rest else cycle rest
          | [] -> []
        in
        List.iter (fun p -> Hashtbl.replace resolved p b) (cycle path)
      | None ->
        (match Hashtbl.find_opt redirect b with
         | Some t ->
           Hashtbl.replace on_path b ();
           walk t (b :: path)
         | None -> List.iter (fun p -> Hashtbl.replace resolved p b) (b :: path))
    in
    walk bid [];
    Hashtbl.find resolved bid
  in
  iter_blocks f (fun _ b ->
      b.term <-
        (match b.term with
         | Goto t -> Goto (resolve t)
         | If (c, a, o, bt, be, h) -> If (c, a, o, resolve bt, resolve be, h)
         | (Ret _ | ThrowT _) as t -> t));
  (* entry may itself be a trivial goto: keep it (it now points past chains) *)
  let f = remove_unreachable f in
  (* Merge straight-line chains: b ends in [Goto c] and c, not the entry,
     has b as its only predecessor.  Merging c into b leaves every other
     block's predecessor count unchanged, so one pass in RPO over the
     initial counts collapses every chain; a block's chain predecessor
     precedes it in RPO, so an absorbed block is gone when its turn
     comes. *)
  let f = copy f in
  let g = cfg f in
  let absorbable bid t =
    t <> bid && t <> f.f_entry
    && (match Cfg.preds g t with [ _ ] -> true | _ -> false)
  in
  List.iter
    (fun bid ->
       match Hashtbl.find_opt f.f_blocks bid with
       | None -> ()
       | Some b ->
         let rec chain term tails =
           match term with
           | Goto t when absorbable bid t ->
             let c = block f t in
             Hashtbl.remove f.f_blocks t;
             chain c.term (c.insns :: tails)
           | _ -> (term, tails)
         in
         (match chain b.term [] with
          | _, [] -> ()
          | term, tails ->
            b.insns <- List.concat (b.insns :: List.rev tails);
            b.term <- term))
    (Cfg.nodes g);
  f

(* --------------------------- predict_static ------------------------ *)

let predict_static f =
  let f = copy f in
  let g = cfg f in
  let loops = Cfg.loops g in
  let in_same_loop src dst =
    List.exists
      (fun l -> l.Cfg.header = dst && List.mem src l.Cfg.body)
      loops
  in
  iter_blocks f (fun bid b ->
      b.term <-
        (match b.term with
         | If (c, a, o, bt, be, _) ->
           if in_same_loop bid bt then If (c, a, o, bt, be, Predict_taken)
           else if in_same_loop bid be then If (c, a, o, bt, be, Predict_not_taken)
           else If (c, a, o, bt, be, Predict_none)
         | t -> t));
  f

(* ------------------------------ inline ----------------------------- *)

let inline_calls ~get_func ~threshold ?(max_depth = 3) f =
  let rec go depth f =
    if depth > max_depth then f
    else begin
      let f = copy f in
      let did_inline = ref false in
      let bids =
        Hashtbl.fold (fun bid _ acc -> bid :: acc) f.f_blocks []
        |> List.sort Int.compare
      in
      List.iter
        (fun bid ->
           match Hashtbl.find_opt f.f_blocks bid with
           | None -> ()
           | Some b ->
             (* find the first inlinable call in this block *)
             let rec split before = function
               | [] -> None
               | (CallStatic (ret, callee_mid, args) as call) :: after
                 when callee_mid <> f.f_mid ->
                 (match get_func callee_mid with
                  | Some callee when Hir.size callee <= threshold ->
                    Some (List.rev before, (ret, callee, args), after)
                  | Some _ | None -> split (call :: before) after)
               | i :: after -> split (i :: before) after
             in
             (match split [] b.insns with
              | None -> ()
              | Some (before, (ret, callee, args), after) ->
                did_inline := true;
                let reg_off = f.f_nregs in
                f.f_nregs <- f.f_nregs + callee.f_nregs;
                let bid_map = Hashtbl.create 8 in
                Hir.iter_blocks callee (fun cbid _ ->
                    Hashtbl.replace bid_map cbid
                      (let nb = f.f_next_bid in
                       f.f_next_bid <- nb + 1;
                       nb));
                let cont_bid = f.f_next_bid in
                f.f_next_bid <- cont_bid + 1;
                let subst r = Some (r + reg_off) in
                Hir.iter_blocks callee (fun cbid cb ->
                    let insns = List.map (rename_instr subst) cb.insns in
                    let term =
                      match rename_term subst cb.term with
                      | Goto t -> Goto (Hashtbl.find bid_map t)
                      | If (c, a, o, bt, be, h) ->
                        If (c, a, o, Hashtbl.find bid_map bt,
                            Hashtbl.find bid_map be, h)
                      | Ret (Some r) ->
                        (match ret with
                         | Some d ->
                           Hashtbl.replace f.f_blocks (Hashtbl.find bid_map cbid)
                             { insns = insns @ [ Move (d, r) ]; term = Goto cont_bid };
                           Goto cont_bid
                         | None -> Goto cont_bid)
                      | Ret None -> Goto cont_bid
                      | ThrowT r -> ThrowT r
                    in
                    if not (Hashtbl.mem f.f_blocks (Hashtbl.find bid_map cbid)) then
                      Hashtbl.replace f.f_blocks (Hashtbl.find bid_map cbid)
                        { insns; term });
                (* argument moves into the callee's parameter registers *)
                let arg_moves =
                  List.mapi (fun i a -> Move (i + reg_off, a)) args
                in
                let entry' = Hashtbl.find bid_map callee.f_entry in
                Hashtbl.replace f.f_blocks cont_bid
                  { insns = after; term = b.term };
                b.insns <- before @ arg_moves;
                b.term <- Goto entry'))
        bids;
      if !did_inline then go (depth + 1) f else f
    end
  in
  go 1 f
