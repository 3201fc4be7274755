module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem

exception App_exception of int
exception Timeout

let exc_null_pointer = 1000
let exc_out_of_bounds = 1001
let exc_div_by_zero = 1002
let exc_negative_size = 1003
let exc_out_of_memory = 1004
let exc_stack_overflow = 1005

type sample = { s_method : int; s_native : bool }
type call_site = int * int

type t = {
  dx : B.dexfile;
  mem : Mem.t;
  heap : Heap.t;
  cost : Cost.model;
  statics_base : int;
  mutable cycles : int;
  mutable fuel : int;
  rng : Repro_util.Rng.t;
  io : Buffer.t;
  mutable dispatch : t -> int -> Value.t list -> Value.t option;
  mutable on_entry : (int -> Value.t list -> unit) option;
  mutable on_exit : (int -> Value.t option -> unit) option;
  mutable record_vcall : (call_site -> int -> unit) option;
  mutable sample_period : int;
  mutable next_sample : int;
  mutable samples : sample list;
  mutable stack : int list;
  mutable in_native : bool;
  mutable depth : int;
  mutable alloc_since_gc : int;
  mutable gc_count : int;
  mutable gc_cycles : int;
}

let no_dispatch _ _ _ = failwith "Exec_ctx: no dispatcher installed"

let create ?(seed = 0) ?(fuel = 2_000_000_000) dx mem heap
    ~statics_base =
  {
    dx; mem; heap; cost = Cost.default; statics_base;
    cycles = 0;
    fuel;
    rng = Repro_util.Rng.create seed;
    io = Buffer.create 256;
    dispatch = no_dispatch;
    on_entry = None;
    on_exit = None;
    record_vcall = None;
    sample_period = 0;
    next_sample = max_int;
    samples = [];
    stack = [];
    in_native = false;
    depth = 0;
    alloc_since_gc = 0;
    gc_count = 0;
    gc_cycles = 0;
  }

let set_dispatch t d = t.dispatch <- d

let take_sample t =
  let s_method = match t.stack with m :: _ -> m | [] -> -1 in
  t.samples <- { s_method; s_native = t.in_native } :: t.samples;
  t.next_sample <- t.cycles + t.sample_period

let charge t n =
  t.cycles <- t.cycles + n;
  if t.cycles >= t.next_sample && t.sample_period > 0 then take_sample t;
  if t.cycles > t.fuel then raise Timeout

let max_depth = 2000

let invoke t mid args =
  if t.depth >= max_depth then raise (App_exception exc_stack_overflow);
  (match t.on_entry with Some h -> h mid args | None -> ());
  t.stack <- mid :: t.stack;
  t.depth <- t.depth + 1;
  let pop () =
    t.depth <- t.depth - 1;
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> [])
  in
  match t.dispatch t mid args with
  | ret ->
    pop ();
    (match t.on_exit with Some h -> h mid ret | None -> ());
    ret
  | exception e ->
    pop ();
    raise e

(* GC pause model: a collection is triggered at a suspend check once the
   allocation budget is spent; its cost scales with resident heap words. *)
let safepoint t =
  charge t t.cost.Cost.safepoint;
  if t.alloc_since_gc > t.cost.Cost.gc_threshold_words then begin
    let live = Heap.used_words t.heap in
    let pause = t.cost.Cost.gc_pause_base + (live / t.cost.Cost.gc_words_divisor) in
    t.gc_count <- t.gc_count + 1;
    t.gc_cycles <- t.gc_cycles + pause;
    t.alloc_since_gc <- 0;
    charge t pause
  end

let raw_alloc t nwords =
  charge t (t.cost.Cost.alloc_base + (t.cost.Cost.alloc_per_word * nwords));
  t.alloc_since_gc <- t.alloc_since_gc + nwords;
  match Heap.alloc t.heap ~nwords with
  | addr -> addr
  | exception Heap.Out_of_memory -> raise (App_exception exc_out_of_memory)

let alloc_object t cid =
  let nfields = t.dx.B.dx_classes.(cid).B.ci_nfields in
  let addr = raw_alloc t (1 + nfields) in
  Mem.write_int t.mem addr cid;
  addr

let alloc_array t len =
  if len < 0 then raise (App_exception exc_negative_size);
  let addr = raw_alloc t (1 + len) in
  Mem.write_int t.mem addr len;
  addr

let obj_class t addr =
  charge t t.cost.Cost.load;
  Mem.read_int t.mem addr

let array_length t addr =
  charge t t.cost.Cost.load;
  Mem.read_int t.mem addr

let field_addr obj i = obj + (8 * (1 + i))
let elem_addr arr i = arr + (8 * (1 + i))
let static_addr t slot = t.statics_base + (8 * slot)

let elapsed_ms t = float_of_int t.cycles /. float_of_int t.cost.Cost.cycles_per_ms

let vtable_target t ~recv_class ~slot = t.dx.B.dx_classes.(recv_class).B.ci_vtable.(slot)
