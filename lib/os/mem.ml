module Trace = Repro_util.Trace

let page_size = 4096
let words_per_page = page_size / 8

type region_kind = Rheap | Rstatics | Rruntime | Rcode | Rgc_aux | Rstack

type mapping = {
  map_base : int;
  map_npages : int;
  map_kind : region_kind;
  map_name : string;
}

type stats = {
  mutable n_faults : int;
  mutable n_cow : int;
  mutable n_reads : int;
  mutable n_writes : int;
}

(* A physical frame, shareable between address spaces after fork/clone.
   Refcounts are plain ints: the sharing discipline (one snapshot template
   per domain, clones live and die on the domain that made them) keeps every
   frame confined to a single domain, so no atomics are needed. *)
type frame = { data : int64 array; mutable refcount : int }

(* The one frame every never-written page shares.  Its data is all-zero and
   immutable (the write path always un-shares before storing), so it is safe
   to share across domains; its refcount is never touched. *)
let zero_frame = { data = Array.make words_per_page 0L; refcount = 0 }
let some_zero_frame = Some zero_frame

(* Flat per-mapping page table: one contiguous slot array per mapping, so a
   page access is mapping-lookup + array index instead of a Hashtbl probe.
   [mt_protected] is allocated lazily — only capture ever protects pages, so
   replay clones never pay for it. *)
type mtbl = {
  mt_map : mapping;
  mt_first : int;                         (* first page index *)
  mt_frames : frame option array;         (* one slot per page *)
  mutable mt_protected : Bytes.t option;  (* '\001' = next access faults *)
}

type t = {
  mutable tbls : mtbl array;              (* ascending by base *)
  mutable last : mtbl option;             (* one-entry mapping cache *)
  mutable handler : (int -> unit) option;
  st : stats;
  mutable dirty : int list;               (* pages privatized in this space *)
  mutable n_mat : int;                    (* materialized (non-None) slots *)
  origin : t option;                      (* the clone source, if any *)
}

let create () = {
  tbls = [||];
  last = None;
  handler = None;
  st = { n_faults = 0; n_cow = 0; n_reads = 0; n_writes = 0 };
  dirty = [];
  n_mat = 0;
  origin = None;
}

let addr_of_page page = page * page_size

let overlaps m base npages =
  let e1 = m.map_base + (m.map_npages * page_size) in
  let e2 = base + (npages * page_size) in
  base < e1 && m.map_base < e2

let map t ~base ~npages ~kind ~name =
  if base mod page_size <> 0 then invalid_arg "Mem.map: unaligned base";
  if npages <= 0 then invalid_arg "Mem.map: empty mapping";
  Array.iter
    (fun mt ->
       if overlaps mt.mt_map base npages then
         invalid_arg
           (Printf.sprintf "Mem.map: %s overlaps %s" name mt.mt_map.map_name))
    t.tbls;
  let m = { map_base = base; map_npages = npages; map_kind = kind; map_name = name } in
  let mt =
    { mt_map = m; mt_first = base / page_size;
      mt_frames = Array.make npages None; mt_protected = None }
  in
  let tbls = Array.append t.tbls [| mt |] in
  Array.sort (fun a b -> Int.compare a.mt_first b.mt_first) tbls;
  t.tbls <- tbls

let mappings t = Array.to_list (Array.map (fun mt -> mt.mt_map) t.tbls)
let stats t = t.st

let reset_stats t =
  t.st.n_faults <- 0;
  t.st.n_cow <- 0;
  t.st.n_reads <- 0;
  t.st.n_writes <- 0

let in_tbl mt page =
  let i = page - mt.mt_first in
  i >= 0 && i < mt.mt_map.map_npages

(* Mapping lookup: one-entry cache, then binary search over the (few,
   sorted) mappings. *)
let find_tbl t page =
  match t.last with
  | Some mt when in_tbl mt page -> Some mt
  | _ ->
    let tbls = t.tbls in
    let rec go lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let mt = tbls.(mid) in
        if page < mt.mt_first then go lo mid
        else if page >= mt.mt_first + mt.mt_map.map_npages then go (mid + 1) hi
        else begin
          t.last <- Some mt;
          Some mt
        end
    in
    go 0 (Array.length tbls)

let mapping_of_page t page = Option.map (fun mt -> mt.mt_map) (find_tbl t page)
let kind_of_page t page = Option.map (fun m -> m.map_kind) (mapping_of_page t page)

let unmapped_fail op page =
  invalid_arg
    (Printf.sprintf "Mem.%s: unmapped address %#x" op (addr_of_page page))

let tbl_of t page op =
  match find_tbl t page with
  | Some mt -> mt
  | None -> unmapped_fail op page

(* Take the protection fault, if any: run the handler once, then restore
   access so the access can proceed (§3.2 step 3). *)
let check_fault t mt page idx =
  match mt.mt_protected with
  | Some b when Bytes.get b idx <> '\000' ->
    Bytes.set b idx '\000';
    t.st.n_faults <- t.st.n_faults + 1;
    (match t.handler with Some h -> h page | None -> ())
  | Some _ | None -> ()

let fresh_frame () = { data = Array.make words_per_page 0L; refcount = 1 }

let read_word t addr =
  let page = addr / page_size in
  let mt = tbl_of t page "read" in
  let idx = page - mt.mt_first in
  check_fault t mt page idx;
  t.st.n_reads <- t.st.n_reads + 1;
  match mt.mt_frames.(idx) with
  | Some f -> f.data.((addr mod page_size) / 8)
  | None ->
    (* cold read: materialize as the shared zero frame — no allocation *)
    mt.mt_frames.(idx) <- some_zero_frame;
    t.n_mat <- t.n_mat + 1;
    0L

let write_word t addr v =
  let page = addr / page_size in
  let mt = tbl_of t page "write" in
  let idx = page - mt.mt_first in
  check_fault t mt page idx;
  t.st.n_writes <- t.st.n_writes + 1;
  let w = (addr mod page_size) / 8 in
  match mt.mt_frames.(idx) with
  | Some f when f == zero_frame ->
    (* first write to a never-touched page of this space *)
    let nf = fresh_frame () in
    mt.mt_frames.(idx) <- Some nf;
    t.dirty <- page :: t.dirty;
    nf.data.(w) <- v
  | Some f when f.refcount > 1 ->
    (* Copy-on-Write: un-share the frame before modifying it *)
    let copy = { data = Array.copy f.data; refcount = 1 } in
    f.refcount <- f.refcount - 1;
    mt.mt_frames.(idx) <- Some copy;
    t.st.n_cow <- t.st.n_cow + 1;
    t.dirty <- page :: t.dirty;
    Trace.incr "mem.cow_pages";
    copy.data.(w) <- v
  | Some f -> f.data.(w) <- v
  | None ->
    let nf = fresh_frame () in
    mt.mt_frames.(idx) <- Some nf;
    t.n_mat <- t.n_mat + 1;
    t.dirty <- page :: t.dirty;
    nf.data.(w) <- v

let read_int t addr = Int64.to_int (read_word t addr)
let write_int t addr v = write_word t addr (Int64.of_int v)
let read_float t addr = Int64.float_of_bits (read_word t addr)
let write_float t addr v = write_word t addr (Int64.bits_of_float v)

let protect t ~page =
  match find_tbl t page with
  | None -> ()
  | Some mt ->
    let idx = page - mt.mt_first in
    if mt.mt_frames.(idx) <> None then begin
      let b =
        match mt.mt_protected with
        | Some b -> b
        | None ->
          let b = Bytes.make mt.mt_map.map_npages '\000' in
          mt.mt_protected <- Some b;
          b
      in
      Bytes.set b idx '\001'
    end

let unprotect t ~page =
  match find_tbl t page with
  | Some mt ->
    (match mt.mt_protected with
     | Some b -> Bytes.set b (page - mt.mt_first) '\000'
     | None -> ())
  | None -> ()

let protected t ~page =
  match find_tbl t page with
  | Some mt ->
    (match mt.mt_protected with
     | Some b -> Bytes.get b (page - mt.mt_first) <> '\000'
     | None -> false)
  | None -> false

let set_fault_handler t h = t.handler <- h

(* Duplicate the page table of [t] into a fresh space sharing every physical
   frame.  [on_zero] decides what a zero-frame slot becomes in the child
   (fork upgrades them to real shared frames to mirror the historical
   Hashtbl behaviour; clone keeps sharing the zero frame). *)
let dup_tbls t ~on_zero =
  Array.map
    (fun mt ->
       let n = Array.length mt.mt_frames in
       let frames = Array.make n None in
       for i = 0 to n - 1 do
         match mt.mt_frames.(i) with
         | None -> ()
         | Some f when f == zero_frame -> frames.(i) <- on_zero mt i
         | Some f ->
           f.refcount <- f.refcount + 1;
           frames.(i) <- mt.mt_frames.(i)
       done;
       { mt with mt_frames = frames; mt_protected = None })
    t.tbls

let fork t =
  let tbls =
    dup_tbls t ~on_zero:(fun mt i ->
        (* a cold-read page becomes a real zero-filled frame shared by
           parent and child, exactly as if the read had materialized it *)
        let nf = { data = Array.make words_per_page 0L; refcount = 2 } in
        mt.mt_frames.(i) <- Some nf;
        Some nf)
  in
  { tbls; last = None; handler = None;
    st = { n_faults = 0; n_cow = 0; n_reads = 0; n_writes = 0 };
    dirty = []; n_mat = t.n_mat; origin = None }

let clone t =
  let tbls = dup_tbls t ~on_zero:(fun _ _ -> some_zero_frame) in
  Trace.add "mem.clone_pages" t.n_mat;
  { tbls; last = None; handler = None;
    st = { n_faults = 0; n_cow = 0; n_reads = 0; n_writes = 0 };
    dirty = []; n_mat = t.n_mat; origin = Some t }

let cloned_from t = t.origin

let drop t =
  Array.iter
    (fun mt ->
       Array.iteri
         (fun i slot ->
            (match slot with
             | Some f when f != zero_frame -> f.refcount <- f.refcount - 1
             | Some _ | None -> ());
            mt.mt_frames.(i) <- None)
         mt.mt_frames)
    t.tbls;
  t.tbls <- [||];
  t.last <- None;
  t.dirty <- [];
  t.n_mat <- 0

let install_page t ~page data =
  if Array.length data <> words_per_page then
    invalid_arg "Mem.install_page: bad image size";
  let mt = tbl_of t page "install_page" in
  let idx = page - mt.mt_first in
  (match mt.mt_frames.(idx) with
   | None -> t.n_mat <- t.n_mat + 1
   | Some f when f != zero_frame -> f.refcount <- f.refcount - 1
   | Some _ -> ());
  (match mt.mt_protected with
   | Some b -> Bytes.set b idx '\000'
   | None -> ());
  mt.mt_frames.(idx) <- Some { data = Array.copy data; refcount = 1 };
  t.dirty <- page :: t.dirty

let page_data t ~page =
  match find_tbl t page with
  | None -> None
  | Some mt ->
    (match mt.mt_frames.(page - mt.mt_first) with
     | Some f -> Some (Array.copy f.data)
     | None -> None)

let page_words t ~page =
  match find_tbl t page with
  | None -> None
  | Some mt ->
    (match mt.mt_frames.(page - mt.mt_first) with
     | Some f -> Some f.data
     | None -> None)

let touched_pages t ~kind =
  let acc = ref [] in
  for ti = Array.length t.tbls - 1 downto 0 do
    let mt = t.tbls.(ti) in
    if mt.mt_map.map_kind = kind then
      for i = Array.length mt.mt_frames - 1 downto 0 do
        if mt.mt_frames.(i) <> None then acc := (mt.mt_first + i) :: !acc
      done
  done;
  !acc

let dirty_pages t ~kind =
  List.sort_uniq Int.compare
    (List.filter (fun page -> kind_of_page t page = Some kind) t.dirty)

let refcount t ~page =
  match find_tbl t page with
  | None -> None
  | Some mt ->
    (match mt.mt_frames.(page - mt.mt_first) with
     | Some f when f != zero_frame -> Some f.refcount
     | Some _ | None -> None)

let shares_frame a b ~page =
  match page_words a ~page, page_words b ~page with
  | Some fa, Some fb -> fa == fb
  | _ -> false

let word_count t = t.n_mat * words_per_page
