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

(* A physical frame: one flat 4 KB page, its words little-endian.

   A frame is private to one space until a second space shares it; from
   then on it is frozen: never written (a write copies the page first),
   never counted, and readable from any domain.  [fork] and [clone] freeze
   what they share, [install_page] freezes the bytes it is handed, and the
   zero frame and the frames of a boot image are frozen from birth.  The
   flag is one-way and [freeze] skips a frame already frozen, so nothing
   ever writes to a frozen frame and any domain may read it. *)
type frame = { data : Bytes.t; mutable frozen : bool }

(* The one frame every never-written page shares. *)
let zero_frame = { data = Bytes.make page_size '\000'; frozen = true }

let some_zero_frame = Some zero_frame

(* A run of frozen frames starting at page [im_first].  The slots are
   pre-wrapped so that installing one allocates nothing. *)
type image = { im_first : int; im_slots : frame option array }

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
  mutable last : mtbl;                    (* one-entry mapping cache *)
  mutable handler : (int -> unit) option;
  st : stats;
  mutable dirty : int list;               (* pages privatized in this space *)
  mutable n_mat : int;                    (* materialized (non-None) slots *)
  origin : t option;                      (* the clone source, if any *)
}

(* The empty cache entry: a mapping no page is in. *)
let no_tbl =
  { mt_map = { map_base = 0; map_npages = 0; map_kind = Rcode; map_name = "" };
    mt_first = 0; mt_frames = [||]; mt_protected = None }

let create () = {
  tbls = [||];
  last = no_tbl;
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

(* Binary search over the (few, sorted) mappings. *)
let rec search tbls page lo hi =
  if lo >= hi then no_tbl
  else
    let mid = (lo + hi) / 2 in
    let mt = tbls.(mid) in
    if page < mt.mt_first then search tbls page lo mid
    else if page >= mt.mt_first + mt.mt_map.map_npages then
      search tbls page (mid + 1) hi
    else mt

(* The mapping holding [page], or [no_tbl]: the one-entry cache, then the
   search.  Allocates nothing, hit or miss, so a word access allocates
   nothing either. *)
let lookup t page =
  let mt = t.last in
  if in_tbl mt page then mt
  else begin
    let mt = search t.tbls page 0 (Array.length t.tbls) in
    if mt != no_tbl then t.last <- mt;
    mt
  end

(* Page queries search without touching the cache: verification reads a
   template that every domain shares through them. *)
let find_tbl t page =
  let mt = search t.tbls page 0 (Array.length t.tbls) in
  if mt == no_tbl then None else Some mt

let mapping_of_page t page = Option.map (fun mt -> mt.mt_map) (find_tbl t page)
let kind_of_page t page = Option.map (fun m -> m.map_kind) (mapping_of_page t page)

let unmapped_fail op page =
  invalid_arg
    (Printf.sprintf "Mem.%s: unmapped address %#x" op (addr_of_page page))

let tbl_of t page op =
  let mt = lookup t page in
  if mt == no_tbl then unmapped_fail op page else mt

(* Take the protection fault, if any: run the handler once, then restore
   access so the access can proceed (§3.2 step 3). *)
let check_fault t mt page idx =
  match mt.mt_protected with
  | Some b when Bytes.get b idx <> '\000' ->
    Bytes.set b idx '\000';
    t.st.n_faults <- t.st.n_faults + 1;
    (match t.handler with Some h -> h page | None -> ())
  | Some _ | None -> ()

let fresh_frame () = { data = Bytes.make page_size '\000'; frozen = false }

let freeze = function
  | Some f when not f.frozen -> f.frozen <- true
  | Some _ | None -> ()

(* Byte offset of the word holding [addr] within its page. *)
let word_offset addr = (addr mod page_size) land lnot 7

(* The bytes a read of [addr] sees.  A cold read materializes the page as
   the shared zero frame, allocating nothing. *)
let readable t addr =
  let page = addr / page_size in
  let mt = tbl_of t page "read" in
  let idx = page - mt.mt_first in
  check_fault t mt page idx;
  t.st.n_reads <- t.st.n_reads + 1;
  match mt.mt_frames.(idx) with
  | Some f -> f.data
  | None ->
    mt.mt_frames.(idx) <- some_zero_frame;
    t.n_mat <- t.n_mat + 1;
    zero_frame.data

(* The bytes a write to [addr] may modify: a frame this space alone owns.
   A never-written page (no frame, or the zero frame) gets a fresh one; any
   other frozen frame is copied first (Copy-on-Write). *)
let writable t addr =
  let page = addr / page_size in
  let mt = tbl_of t page "write" in
  let idx = page - mt.mt_first in
  check_fault t mt page idx;
  t.st.n_writes <- t.st.n_writes + 1;
  match mt.mt_frames.(idx) with
  | Some f when not f.frozen -> f.data
  | slot ->
    let nf =
      match slot with
      | None ->
        t.n_mat <- t.n_mat + 1;
        fresh_frame ()
      | Some f when f == zero_frame -> fresh_frame ()
      | Some f ->
        t.st.n_cow <- t.st.n_cow + 1;
        Trace.incr "mem.cow_pages";
        { data = Bytes.copy f.data; frozen = false }
    in
    mt.mt_frames.(idx) <- Some nf;
    t.dirty <- page :: t.dirty;
    nf.data

let read_int t addr =
  Int64.to_int (Bytes.get_int64_le (readable t addr) (word_offset addr))

let read_float t addr =
  Int64.float_of_bits (Bytes.get_int64_le (readable t addr) (word_offset addr))

let read_bool t addr =
  not (Int64.equal (Bytes.get_int64_le (readable t addr) (word_offset addr)) 0L)

let read_word t addr = Bytes.get_int64_le (readable t addr) (word_offset addr)

let write_int t addr v =
  Bytes.set_int64_le (writable t addr) (word_offset addr) (Int64.of_int v)

let write_float t addr v =
  Bytes.set_int64_le (writable t addr) (word_offset addr)
    (Int64.bits_of_float v)

let write_word t addr v =
  Bytes.set_int64_le (writable t addr) (word_offset addr) v

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

(* A fresh space sharing every frame of [t], which the caller has frozen:
   the slot arrays are copied, protection, handler and stats are not. *)
let share t ~origin =
  let tbls =
    Array.map
      (fun mt ->
         let n = Array.length mt.mt_frames in
         let frames = Array.make n None in
         for i = 0 to n - 1 do
           match mt.mt_frames.(i) with
           | None -> ()
           | slot -> frames.(i) <- slot
         done;
         { mt with mt_frames = frames; mt_protected = None })
      t.tbls
  in
  { tbls; last = no_tbl; handler = None;
    st = { n_faults = 0; n_cow = 0; n_reads = 0; n_writes = 0 };
    dirty = []; n_mat = t.n_mat; origin }

let fork t =
  Array.iter
    (fun mt ->
       Array.iteri
         (fun i slot ->
            match slot with
            | Some f when f == zero_frame ->
              (* a cold-read page becomes a real zero-filled frame shared by
                 parent and child, exactly as if the read had materialized
                 it *)
              mt.mt_frames.(i) <-
                Some { data = Bytes.make page_size '\000'; frozen = true }
            | slot -> freeze slot)
         mt.mt_frames)
    t.tbls;
  share t ~origin:None

(* Only the pages [t] privatized can hold unfrozen frames.  A template
   privatized none, so cloning one writes nothing to it. *)
let clone t =
  List.iter
    (fun page ->
       match find_tbl t page with
       | Some mt -> freeze mt.mt_frames.(page - mt.mt_first)
       | None -> ())
    t.dirty;
  Trace.add "mem.clone_pages" t.n_mat;
  share t ~origin:(Some t)

let cloned_from t = t.origin

let check_page_size what data =
  if Bytes.length data <> page_size then
    invalid_arg (Printf.sprintf "Mem.%s: bad image size" what)

let image ~first_page pages =
  { im_first = first_page;
    im_slots =
      Array.map
        (fun data ->
           check_page_size "image" data;
           Some { data = Bytes.copy data; frozen = true })
        pages }

let image_slot img page =
  let i = page - img.im_first in
  if i >= 0 && i < Array.length img.im_slots then img.im_slots.(i) else None

(* Point [page]'s slot at [slot] and clear the page's protection. *)
let set_slot t ~op ~page slot =
  let mt = tbl_of t page op in
  let idx = page - mt.mt_first in
  if Option.is_none mt.mt_frames.(idx) then t.n_mat <- t.n_mat + 1;
  (match mt.mt_protected with
   | Some b -> Bytes.set b idx '\000'
   | None -> ());
  mt.mt_frames.(idx) <- slot

let map_image t img =
  Array.iteri
    (fun i slot -> set_slot t ~op:"map_image" ~page:(img.im_first + i) slot)
    img.im_slots

let install_page ?image t ~page data =
  check_page_size "install_page" data;
  set_slot t ~op:"install_page" ~page
    (match Option.bind image (fun img -> image_slot img page) with
     | Some f as shared when Bytes.equal f.data data -> shared
     | _ -> Some { data; frozen = true })

let page_bytes t ~page =
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

let shares_frame a b ~page =
  match page_bytes a ~page, page_bytes b ~page with
  | Some fa, Some fb -> fa == fb
  | _ -> false

let word_count t = t.n_mat * words_per_page
