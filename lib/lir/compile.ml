module B = Repro_dex.Bytecode
module Hir = Repro_hgraph.Hir
module Build = Repro_hgraph.Build
module Android = Repro_hgraph.Android
module Trace = Repro_util.Trace
module Faults = Repro_util.Faults

exception Compile_error of string
exception Compile_timeout

type spec = (string * int array) list

let size_limit = 20_000
let work_limit = 600_000

(* Test hook: searches always run with the constant above, but the
   work-limit boundary tests need to park the ceiling exactly on a
   genome's total charge.  Set/restored sequentially, outside any worker
   domains. *)
let effective_work_limit = ref work_limit

let with_work_limit limit f =
  let prev = !effective_work_limit in
  effective_work_limit := limit;
  Fun.protect ~finally:(fun () -> effective_work_limit := prev) f

(* The LLVM path uses the work-in-progress (naive) translation. *)
let translated_unopt dx mid =
  match Build.func dx mid with
  | f -> Some (Translate.func ~naive:true dx f)
  | exception Build.Uncompilable _ -> None

let pass_env ?profile dx =
  { Passes.dx; get_func = translated_unopt dx; profile }

let android_binary dx mids =
  Trace.span ~cat:"compile" "compile:android" @@ fun () ->
  let funcs =
    List.filter_map
      (fun mid ->
         match Android.compile_method dx mid with
         | f -> Some (Translate.func dx f)
         | exception Build.Uncompilable _ -> None)
      mids
  in
  Binary.create funcs

(* ------------------------- hoisted front-end ------------------------- *)

(* Everything about a compile that does not depend on the genome: the
   dexfile, the dispatch-type profile, and the translated unoptimized
   bodies (which double as the inliner's callee source).  Built once per
   (app, capture, profile) and shared by every genome and every Evalpool
   worker domain; the memo table is mutex-protected and the funcs in it
   are immutable by the pass convention (every pass copies its input, and
   the staged driver copies before materializing a binary). *)
type frontend = {
  fe_dx : B.dexfile;
  fe_profile : (Hir.site -> (int * int) list) option;
  fe_digest : string;
  (** content key of (dexfile, profile): namespaces the stage cache *)
  fe_lock : Mutex.t;
  fe_funcs : (int, Hir.func option) Hashtbl.t;
}

let frontend_func fe mid =
  Mutex.lock fe.fe_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock fe.fe_lock) @@ fun () ->
  match Hashtbl.find_opt fe.fe_funcs mid with
  | Some r -> r
  | None ->
    let r =
      Trace.span ~cat:"compile" "compile:frontend"
        ~args:[ ("mid", string_of_int mid) ]
      @@ fun () -> translated_unopt fe.fe_dx mid
    in
    Hashtbl.add fe.fe_funcs mid r;
    Stagecache.note_frontend_func ();
    r

let fe_pass_env fe =
  { Passes.dx = fe.fe_dx;
    get_func = (fun mid -> frontend_func fe mid);
    profile = fe.fe_profile }

(* The namespace digest comes from content, never from names: dexfiles
   that differ only in a constant (Figure 3's FFT sizes) must not share
   stage-cache entries.  The dexfile is plain data, so its marshalled form
   covers every field — class layouts and statics included. *)
let frontend ?profile ?(prewarm = []) dx =
  let profile_key, lookup =
    match profile with
    | Some (key, lookup) -> ("profile:" ^ key, Some lookup)
    | None -> ("no-profile", None)
  in
  let dx_digest = Digest.string (Marshal.to_string dx [ Marshal.No_sharing ]) in
  let fe =
    { fe_dx = dx; fe_profile = lookup;
      fe_digest = Digest.to_hex (Digest.string (dx_digest ^ profile_key));
      fe_lock = Mutex.create ();
      fe_funcs = Hashtbl.create 64 }
  in
  List.iter (fun mid -> ignore (frontend_func fe mid)) prewarm;
  fe

let frontend_digest fe = fe.fe_digest

(* Site key for the [Miscompile] fault point: depends only on the method
   and the (raw) pass specification, so whether a given compile is
   sabotaged is a pure function of the genome — deterministic across
   worker domains, cache states and retries, exactly like a real
   miscompiling optimization sequence. *)
let spec_hash spec =
  Faults.hash_string
    (String.concat ";"
       (List.map
          (fun (name, args) ->
             name ^ ":"
             ^ String.concat "," (List.map string_of_int (Array.to_list args)))
          spec))

(* --------------------------- staged driver --------------------------- *)

(* The pass loop proper.  Order of operations per gene is exactly the
   historical one — run the pass, charge [Hir.size] to the shared work
   counter, size check, work check — and a cached prefix replays its
   recorded charges through the same counter and checks, so timeout
   classification cannot depend on the cache.  Entries are published
   after the checks pass, i.e. only states a real run survives. *)
let llvm_binary fe spec mids =
  Trace.span ~cat:"compile" "compile:llvm" @@ fun () ->
  let env = fe_pass_env fe in
  let resolved =
    Array.of_list
      (List.map
         (fun (name, args) ->
            match Passes.find name with
            | pass -> (pass, args)
            | exception Not_found ->
              raise (Compile_error ("unknown pass " ^ name)))
         spec)
  in
  let n = Array.length resolved in
  let use_cache = Stagecache.enabled () in
  let fps =
    if use_cache then Stagecache.fingerprints ~frontend:fe.fe_digest spec
    else [||]
  in
  let work = ref 0 in
  let charge size =
    work := !work + size;
    if size > size_limit then raise Compile_timeout;
    if !work > !effective_work_limit then raise Compile_timeout
  in
  let shash = spec_hash spec in
  let compile_one mid =
    match frontend_func fe mid with
    | None -> None
    | Some f0 ->
      let start, f0, charges0 =
        match
          if use_cache then
            Stagecache.lookup ~frontend:fe.fe_digest ~mid ~fps
          else None
        with
        | Some (k, e) ->
          (* Resume after the cached prefix; its recorded charges flow
             through the live counter first, preserving the exact point
             at which a mid-major compile would have timed out. *)
          Array.iter charge e.Stagecache.sc_charges;
          (k, e.Stagecache.sc_func, List.rev (Array.to_list e.Stagecache.sc_charges))
        | None -> (0, f0, [])
      in
      let f = ref f0 in
      let charges = ref charges0 in   (* newest first *)
      for i = start to n - 1 do
        let pass, args = resolved.(i) in
        let f' =
          Trace.span ~cat:"pass" ("pass:" ^ pass.Passes.name)
          @@ fun () ->
          match Passes.run env pass args !f with
          | f -> f
          | exception Passes.Bad_param msg -> raise (Compile_error msg)
        in
        let size = Hir.size f' in
        Trace.add "compile.work" size;
        charge size;
        Stagecache.note_gene_run ();
        f := f';
        charges := size :: !charges;
        if use_cache then
          Stagecache.insert ~frontend:fe.fe_digest ~mid ~fp:fps.(i)
            { Stagecache.sc_func = f';
              sc_charges = Array.of_list (List.rev !charges) }
      done;
      (* The final state may be shared (a cache entry, or the front-end
         template when the spec is empty): copy before the mutating
         consumers below.  [Hir.copy] preserves the printed form, so
         binary digests are unchanged. *)
      let f = Hir.copy !f in
      (* Fault injection: with the registry armed, a fired [Miscompile]
         plants one semantic mutation in the optimized function — the
         miscompiled binary the verification net must later discard. *)
      let key = Faults.combine mid shash in
      let f =
        if Faults.fire Faults.Miscompile ~key then
          match Passes.mutate (Faults.rng Faults.Miscompile ~key) f with
          | Some (_, f') ->
            Faults.record Faults.Miscompile;
            f'
          | None -> f
        else f
      in
      Some f
  in
  Binary.create (List.filter_map compile_one mids)
