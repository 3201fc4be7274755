module Cfg = Repro_util.Cfg
module ISet = Set.Make (Int)

(* Liveness as a bitset fixpoint.  Registers are bits of [int] words; every
   reachable block owns [words] consecutive words, at its RPO position, in
   each of the use/def/in/out arrays, and its successors are RPO positions
   in an array.  Round-robin sweeps in postorder from empty sets reach the
   least fixpoint, the same sets as any chaotic iteration of the equations
   out = U in(succ), in = use + (out - def). *)

let bits = Sys.int_size

type live = { g : Cfg.t; words : int; live_in : int array; live_out : int array }

let liveness (f : Hir.func) (g : Cfg.t) =
  let nodes = Array.of_list (Cfg.nodes g) in
  let blocks = Array.map (Hir.block f) nodes in
  let n = Array.length nodes in
  let top = ref (-1) in
  let see r = if r > !top then top := r in
  Array.iter
    (fun (b : Hir.block) ->
       List.iter
         (fun i -> Option.iter see (Hir.def_of i); List.iter see (Hir.uses_of i))
         b.insns;
       List.iter see (Hir.uses_of_term b.term))
    blocks;
  let words = (!top / bits) + 1 in
  let use = Array.make (n * words) 0 and def = Array.make (n * words) 0 in
  let set a base r =
    let w = base + (r / bits) in
    a.(w) <- a.(w) lor (1 lsl (r mod bits))
  in
  Array.iteri
    (fun k (b : Hir.block) ->
       let base = k * words in
       (* upward-exposed uses: read before any definition in the block *)
       let use_reg r =
         if def.(base + (r / bits)) land (1 lsl (r mod bits)) = 0 then
           set use base r
       in
       List.iter
         (fun i ->
            List.iter use_reg (Hir.uses_of i);
            Option.iter (set def base) (Hir.def_of i))
         b.insns;
       List.iter use_reg (Hir.uses_of_term b.term))
    blocks;
  let succ =
    Array.map
      (fun bid -> Array.of_list (List.map (Cfg.rpo_index g) (Cfg.succs g bid)))
      nodes
  in
  let live_in = Array.make (n * words) 0 and live_out = Array.make (n * words) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      let base = k * words and ss = succ.(k) in
      for w = 0 to words - 1 do
        let out = ref 0 in
        for j = 0 to Array.length ss - 1 do
          out := !out lor live_in.((ss.(j) * words) + w)
        done;
        live_out.(base + w) <- !out;
        let inn = use.(base + w) lor (!out land lnot def.(base + w)) in
        if inn <> live_in.(base + w) then begin
          live_in.(base + w) <- inn;
          changed := true
        end
      done
    done
  done;
  { g; words; live_in; live_out }

let set_of t sets bid =
  if not (Cfg.mem t.g bid) then ISet.empty
  else begin
    let base = Cfg.rpo_index t.g bid * t.words in
    let s = ref ISet.empty in
    for w = 0 to t.words - 1 do
      let word = sets.(base + w) in
      if word <> 0 then
        for b = 0 to bits - 1 do
          if word land (1 lsl b) <> 0 then s := ISet.add ((w * bits) + b) !s
        done
    done;
    !s
  end

let live_out t bid = set_of t t.live_out bid
let live_in t bid = set_of t t.live_in bid

let rec popcount w = if w = 0 then 0 else 1 + popcount (w land (w - 1))

(* Register pressure: the largest live-out set across the function's
   blocks.  Pure — callers decide whether to cache it in
   [Hir.f_pressure]; mutating that cache from worker domains is a data
   race, so [Repro_lir.Binary.create] precomputes it once per binary. *)
let pressure (f : Hir.func) =
  let t = liveness f (Hir.cfg f) in
  let best = ref 0 in
  for k = 0 to (Array.length t.live_out / t.words) - 1 do
    let c = ref 0 in
    for w = 0 to t.words - 1 do
      c := !c + popcount t.live_out.((k * t.words) + w)
    done;
    if !c > !best then best := !c
  done;
  !best
