module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem
module Ctx = Repro_vm.Exec_ctx
module Value = Repro_vm.Value
module Trace = Repro_util.Trace
module Faults = Repro_util.Faults

type t = {
  writes : (int * int64) list;
  ret : Value.t option;
}

(* The captured words a replay's space is diffed against: for a clone
   (the replay path), the template it was cloned from, so a diff never
   builds one; for any other space, the snapshot's template. *)
let original mem (snap : Snapshot.t) =
  match Mem.cloned_from mem with
  | Some tpl -> tpl
  | None -> Snapshot.template snap

let touched mem =
  List.sort Int.compare
    (Mem.touched_pages mem ~kind:Mem.Rheap
     @ Mem.touched_pages mem ~kind:Mem.Rstatics)

(* Pages a replay could have changed, ascending.  A clone differs from its
   template only in the pages it privatized — everything still sharing a
   template frame is equal by construction — so the scan is O(dirty
   pages).  Any other space is scanned in full. *)
let pages_to_scan mem =
  let pages =
    match Mem.cloned_from mem with
    | Some _ ->
      List.merge Int.compare
        (Mem.dirty_pages mem ~kind:Mem.Rheap)
        (Mem.dirty_pages mem ~kind:Mem.Rstatics)
    | None ->
      Trace.incr "verify.full_scans";
      touched mem
  in
  Trace.add "verify.pages_scanned" (List.length pages);
  pages

(* Word [w] of a template page; a page the template lacks reads as zero. *)
let[@inline] original_word orig w =
  match orig with Some o -> Bytes.get_int64_le o (w * 8) | None -> 0L

(* Call [f now page w] for every word [w] of [pages] (ascending) that
   differs from [original], in address order; [now] is the page's bytes in
   [mem].  Passing the bytes and the index, not the word, keeps the
   early-exit walk free of allocation. *)
let iter_diffs mem original pages f =
  List.iter
    (fun page ->
       match Mem.page_bytes mem ~page with
       | None -> ()
       | Some now ->
         let orig = Mem.page_bytes original ~page in
         for w = 0 to Mem.words_per_page - 1 do
           if not (Int64.equal (Bytes.get_int64_le now (w * 8))
                     (original_word orig w))
           then f now page w
         done)
    pages

let word_addr page w = (page * Mem.page_size) + (w * 8)

let diff_list mem original pages =
  let diffs = ref [] in
  iter_diffs mem original pages (fun now page w ->
      diffs := (word_addr page w, Bytes.get_int64_le now (w * 8)) :: !diffs);
  List.rev !diffs

let diff_against_snapshot (ctx : Ctx.t) snap =
  let mem = ctx.Ctx.mem in
  diff_list mem (original mem snap) (pages_to_scan mem)

let diff_against_snapshot_full (ctx : Ctx.t) snap =
  let mem = ctx.Ctx.mem in
  diff_list mem (original mem snap) (touched mem)

(* Early-exit comparison for the hot path: walk the replay's diffs in
   address order in lockstep with the (sorted) reference write map and bail
   on the first divergence, without materializing the diff list. *)
let diff_matches (ctx : Ctx.t) snap reference_writes =
  let mem = ctx.Ctx.mem in
  let exception Mismatch in
  let rest = ref reference_writes in
  try
    iter_diffs mem (original mem snap) (pages_to_scan mem) (fun now page w ->
        match !rest with
        | (addr, rv) :: tl
          when addr = word_addr page w
               && Int64.equal rv (Bytes.get_int64_le now (w * 8)) ->
          rest := tl
        | _ -> raise_notrace Mismatch);
    !rest = []
  with Mismatch -> false

type reference =
  | Ref_map of t
  | Ref_crash of string

let collect ?record_vcall dx snap =
  let r = Replay.run ?record_vcall dx snap Replay.Interpreter in
  match r.Replay.outcome with
  | Replay.Finished (ret, _) ->
    Ref_map { writes = diff_against_snapshot r.Replay.ctx snap; ret }
  | Replay.Crashed msg -> Ref_crash msg
  | Replay.Hung -> failwith "Verify.collect: interpreted replay hung"

type check_result =
  | Passed of int
  | Wrong_output
  | Crashed of string
  | Hung

let ret_equal a b =
  match a, b with
  | None, None -> true
  | Some a, Some b -> Value.equal a b
  | None, Some _ | Some _, None -> false

let count_result result =
  match result with
  | Passed _ -> Trace.incr "verify.passed"
  | Wrong_output | Crashed _ | Hung -> Trace.incr "verify.rejected"

(* One span per check, named after the reference kind, so the two kinds
   of check time apart and never nest. *)
let check ?fuel ?faults_key dx snap reference loaded =
  let name =
    match reference with
    | Ref_map _ -> "verify"
    | Ref_crash _ -> "verify:crash-ref"
  in
  Trace.span ~cat:"verify" name @@ fun () ->
  let r = Replay.run ?fuel ?faults_key dx snap (Replay.Optimized loaded) in
  let result =
    match reference, r.Replay.outcome with
    | Ref_map m, Replay.Finished (ret, cycles) ->
      if ret_equal ret m.ret && diff_matches r.Replay.ctx snap m.writes then
        Passed cycles
      else Wrong_output
    (* The reference itself traps on this input.  A correct binary must
       reproduce the exact trap; one that silently finishes read or wrote
       past where the reference stopped — the guard-stripping signature —
       and is Wrong_output.  Partial write sets at the trap are *not*
       compared: legal optimizations may reorder stores ahead of the
       faulting access, and killing those would be a false positive. *)
    | Ref_crash msg, Replay.Crashed m when String.equal m msg ->
      Passed r.Replay.ctx.Ctx.cycles
    | Ref_crash _, Replay.Finished _ -> Wrong_output
    | _, Replay.Crashed m -> Crashed m
    | _, Replay.Hung -> Hung
  in
  count_result result;
  result

(* The primary first (its cycles are the fitness measurement), then every
   corpus entry in order, stopping at the first failure.  Entry [i] runs
   under fault key [combine site i], so each check's fault decisions are a
   pure function of (seed, binary, attempt, entry) — independent of worker
   count and evaluation order. *)
let check_corpus ?site dx snap primary corpus loaded =
  let fkey i =
    Option.map (fun s -> if i = 0 then s else Faults.combine s i) site
  in
  match check ?faults_key:(fkey 0) dx snap primary loaded with
  | Passed cycles ->
    let rec loop i = function
      | [] -> (Passed cycles, i - 1)
      | (snap, reference) :: rest ->
        Trace.incr "verify.corpus_checks";
        (match check ?faults_key:(fkey i) dx snap reference loaded with
         | Passed _ -> loop (i + 1) rest
         | bad ->
           Trace.incr "verify.corpus_kills";
           (bad, i))
    in
    loop 1 corpus
  | bad -> (bad, 0)
