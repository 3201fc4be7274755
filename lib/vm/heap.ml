module Mem = Repro_os.Mem

type t = {
  mem : Mem.t;
  base_ : int;
  limit : int;
  mutable next : int;
}

exception Out_of_memory

let create mem ~base ~npages =
  ignore mem;
  { mem; base_ = base; limit = base + (npages * Mem.page_size); next = base }

let restore mem ~base ~npages ~next =
  let t = create mem ~base ~npages in
  if next < base || next > t.limit then invalid_arg "Heap.restore: bad pointer";
  t.next <- next;
  t

let alloc t ~nwords =
  let bytes = nwords * 8 in
  if t.next + bytes > t.limit then raise Out_of_memory;
  let addr = t.next in
  t.next <- t.next + bytes;
  addr

let used_words t = (t.next - t.base_) / 8
let next_addr t = t.next
