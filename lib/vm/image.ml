module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem

type config = {
  code_pages : int;
  heap_pages : int;
  stack_pages : int;
  gc_aux_pages : int;
  extra_maps : int;
  warm_heap_pages : int;
}

let default_config = {
  code_pages = 2048;
  heap_pages = 16384;          (* 64 MB heap capacity *)
  stack_pages = 8;
  gc_aux_pages = 16;
  extra_maps = 24;
  warm_heap_pages = 64;        (* live objects predating the hot region *)
}

let runtime_base = 0x1000_0000
let code_base = 0x2000_0000
let statics_base = 0x3000_0000
let heap_base = 0x4000_0000
let stack_base = 0x5000_0000
let gc_aux_base = 0x6000_0000
let extra_base = 0x7000_0000

let runtime_pages = 3225        (* 12.6 MB of boot-common runtime objects *)
let runtime_name = "[anon:dalvik-runtime]"

(* Fill pages with position-dependent words so captures have real content. *)
let materialize mem ~base ~npages =
  for p = 0 to npages - 1 do
    Mem.write_int mem (base + (p * Mem.page_size)) (0x5EED + p)
  done

(* The boot-common runtime pages hold the same words in every app, so
   they are built once, when the module initializes — before any pool
   domain exists — and frozen into immutable frames that every app,
   capture, snapshot template and clone shares. *)
let boot_image =
  let mem = Mem.create () in
  Mem.map mem ~base:runtime_base ~npages:runtime_pages ~kind:Mem.Rruntime
    ~name:runtime_name;
  materialize mem ~base:runtime_base ~npages:runtime_pages;
  Mem.image ~first_page:(runtime_base / Mem.page_size)
    (Array.init runtime_pages (fun p ->
         Option.get
           (Mem.page_bytes mem ~page:((runtime_base / Mem.page_size) + p))))

let build ?(config = default_config) ?seed ?fuel (dx : B.dexfile) =
  let mem = Mem.create () in
  Mem.map mem ~base:runtime_base ~npages:runtime_pages ~kind:Mem.Rruntime
    ~name:runtime_name;
  Mem.map mem ~base:code_base ~npages:config.code_pages ~kind:Mem.Rcode
    ~name:"/system/framework/boot.oat";
  let statics_pages = max 1 ((dx.B.dx_nstatics * 8 / Mem.page_size) + 1) in
  Mem.map mem ~base:statics_base ~npages:statics_pages ~kind:Mem.Rstatics
    ~name:"[anon:dalvik-statics]";
  Mem.map mem ~base:heap_base ~npages:config.heap_pages ~kind:Mem.Rheap
    ~name:"[anon:dalvik-main-space]";
  Mem.map mem ~base:stack_base ~npages:config.stack_pages ~kind:Mem.Rstack
    ~name:"[stack]";
  Mem.map mem ~base:gc_aux_base ~npages:config.gc_aux_pages ~kind:Mem.Rgc_aux
    ~name:"[anon:dalvik-gc-cards]";
  for i = 0 to config.extra_maps - 1 do
    Mem.map mem ~base:(extra_base + (i * 4 * Mem.page_size)) ~npages:2
      ~kind:Mem.Rcode ~name:(Printf.sprintf "/system/lib64/lib%02d.so" i)
  done;
  Mem.map_image mem boot_image;
  materialize mem ~base:stack_base ~npages:config.stack_pages;
  materialize mem ~base:gc_aux_base ~npages:config.gc_aux_pages;
  (* Static initializers. *)
  List.iter
    (fun { B.si_slot; si_value } ->
       let addr = statics_base + (8 * si_slot) in
       let word =
         match si_value with
         | B.Cint k -> Int64.of_int k
         | B.Cfloat f -> Int64.bits_of_float f
         | B.Cbool b -> if b then 1L else 0L
         | B.Cnull -> 0L
       in
       Mem.write_word mem addr word)
    dx.B.dx_static_inits;
  let heap = Heap.create mem ~base:heap_base ~npages:config.heap_pages in
  (* pre-existing live objects: the app state built up before the region
     of interest runs (assets, caches).  They sit at the bottom of the
     heap; the bump pointer moves past them. *)
  let warm = min config.warm_heap_pages (config.heap_pages - 1) in
  if warm > 0 then begin
    let addr = Heap.alloc heap ~nwords:(warm * Mem.words_per_page) in
    for p = 0 to warm - 1 do
      Mem.write_word mem (addr + (p * Mem.page_size)) (Int64.of_int (0xA11E + p))
    done
  end;
  Mem.reset_stats mem;
  Exec_ctx.create ?seed ?fuel dx mem heap ~statics_base
