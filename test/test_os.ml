(* Tests for the OS substrate: paged memory, protection, fork/CoW chains,
   page install, mappings, storage. *)

module Mem = Repro_os.Mem
module Storage = Repro_os.Storage

let fresh ?(npages = 8) () =
  let mem = Mem.create () in
  Mem.map mem ~base:0x1000_0000 ~npages ~kind:Mem.Rheap ~name:"heap";
  mem

let addr i = 0x1000_0000 + (i * 8)

(* ------------------------------- basics ----------------------------- *)

let test_zero_fill () =
  let mem = fresh () in
  Alcotest.(check int) "untouched reads zero" 0 (Mem.read_int mem (addr 5))

let test_word_roundtrip () =
  let mem = fresh () in
  Mem.write_word mem (addr 0) 0x0123_4567_89AB_CDEFL;
  Alcotest.(check bool) "word" true
    (Mem.read_word mem (addr 0) = 0x0123_4567_89AB_CDEFL);
  Mem.write_float mem (addr 1) 2.718281828;
  Alcotest.(check (float 1e-12)) "float" 2.718281828 (Mem.read_float mem (addr 1));
  Mem.write_int mem (addr 2) (-42);
  Alcotest.(check int) "negative int" (-42) (Mem.read_int mem (addr 2))

(* A word access to a materialized, privately owned page allocates
   nothing: the mapping lookup allocates nothing, hit or miss, and the
   word moves through the flat frame unboxed. *)
let test_word_access_allocates_nothing () =
  let mem = fresh () in
  Mem.map mem ~base:0x2000_0000 ~npages:1 ~kind:Mem.Rstatics ~name:"statics";
  Mem.write_int mem (addr 0) 1;
  Mem.write_int mem 0x2000_0000 1;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words (fun () -> ()) in
  let accesses =
    words (fun () ->
        for i = 1 to 10_000 do
          (* alternate mappings so the cache misses as well as hits *)
          Mem.write_int mem (addr (i land 7)) i;
          Mem.write_float mem 0x2000_0000 (if i land 1 = 0 then 2.5 else -0.0);
          ignore (Sys.opaque_identity (Mem.read_int mem (addr (i land 7))));
          ignore (Sys.opaque_identity (Mem.read_bool mem 0x2000_0000))
        done)
  in
  Alcotest.(check (float 0.)) "no words allocated" idle accesses

let test_mapping_rules () =
  let mem = fresh () in
  (try
     Mem.map mem ~base:0x1000_0000 ~npages:1 ~kind:Mem.Rcode ~name:"overlap";
     Alcotest.fail "expected overlap rejection"
   with Invalid_argument _ -> ());
  (try
     Mem.map mem ~base:0x2000_0001 ~npages:1 ~kind:Mem.Rcode ~name:"unaligned";
     Alcotest.fail "expected alignment rejection"
   with Invalid_argument _ -> ());
  Mem.map mem ~base:0x2000_0000 ~npages:2 ~kind:Mem.Rcode ~name:"lib.so";
  Alcotest.(check int) "two mappings" 2 (List.length (Mem.mappings mem));
  Alcotest.(check bool) "ascending" true
    (match Mem.mappings mem with
     | [ a; b ] -> a.Mem.map_base < b.Mem.map_base
     | _ -> false)

let test_kind_of_page () =
  let mem = fresh () in
  Alcotest.(check bool) "heap kind" true
    (Mem.kind_of_page mem (0x1000_0000 / Mem.page_size) = Some Mem.Rheap);
  Alcotest.(check bool) "unmapped" true
    (Mem.kind_of_page mem 0 = None)

(* ----------------------------- protection --------------------------- *)

let test_protection_lifecycle () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 7;
  let page = 0x1000_0000 / Mem.page_size in
  Mem.protect mem ~page;
  Alcotest.(check bool) "protected" true (Mem.protected mem ~page);
  (* access clears protection even with no handler *)
  Alcotest.(check int) "read proceeds" 7 (Mem.read_int mem (addr 0));
  Alcotest.(check bool) "unprotected after fault" false (Mem.protected mem ~page)

let test_write_faults_too () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 1;
  let page = 0x1000_0000 / Mem.page_size in
  let faults = ref 0 in
  Mem.set_fault_handler mem (Some (fun _ -> incr faults));
  Mem.protect mem ~page;
  Mem.write_int mem (addr 1) 2;
  Alcotest.(check int) "write faulted" 1 !faults;
  Mem.write_int mem (addr 2) 3;
  Alcotest.(check int) "second write silent" 1 !faults

let test_protect_untouched_noop () =
  let mem = fresh () in
  Mem.protect mem ~page:(0x1000_0000 / Mem.page_size);
  Alcotest.(check bool) "not materialized, not protected" false
    (Mem.protected mem ~page:(0x1000_0000 / Mem.page_size))

(* ------------------------------ fork/CoW ---------------------------- *)

let test_fork_shares_until_write () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 10;
  let child = Mem.fork mem in
  Alcotest.(check int) "child reads parent data" 10 (Mem.read_int child (addr 0));
  Alcotest.(check int) "no CoW yet" 0 (Mem.stats mem).Mem.n_cow;
  Mem.write_int mem (addr 0) 20;
  Alcotest.(check int) "one CoW" 1 (Mem.stats mem).Mem.n_cow;
  Alcotest.(check int) "child keeps original" 10 (Mem.read_int child (addr 0));
  Mem.write_int mem (addr 0) 30;
  Alcotest.(check int) "second write no CoW" 1 (Mem.stats mem).Mem.n_cow

let test_child_write_cow () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 10;
  let child = Mem.fork mem in
  Mem.write_int child (addr 0) 99;
  Alcotest.(check int) "parent unaffected" 10 (Mem.read_int mem (addr 0));
  Alcotest.(check int) "child sees its write" 99 (Mem.read_int child (addr 0))

let test_fork_chain () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 1;
  let c1 = Mem.fork mem in
  let c2 = Mem.fork mem in
  Mem.write_int mem (addr 0) 2;
  Alcotest.(check int) "c1 original" 1 (Mem.read_int c1 (addr 0));
  Alcotest.(check int) "c2 original" 1 (Mem.read_int c2 (addr 0));
  Mem.write_int c1 (addr 0) 3;
  Alcotest.(check int) "c2 still original" 1 (Mem.read_int c2 (addr 0))

let test_fork_after_protection () =
  (* the capture ordering: fork first, then protect the parent; child
     accesses must not fault *)
  let mem = fresh () in
  Mem.write_int mem (addr 0) 5;
  let child = Mem.fork mem in
  let page = 0x1000_0000 / Mem.page_size in
  Mem.protect mem ~page;
  Alcotest.(check bool) "child unprotected" false (Mem.protected child ~page);
  Alcotest.(check int) "child reads freely" 5 (Mem.read_int child (addr 0))

(* ---------------------------- install_page -------------------------- *)

(* The installed bytes are frozen, not copied: the space shares them, and
   a write through the space copies the page first. *)
let test_install_page () =
  let mem = fresh () in
  let data = Bytes.make Mem.page_size '\000' in
  Bytes.set_int64_le data 24 77L;
  let page = 0x1000_0000 / Mem.page_size in
  Mem.install_page mem ~page data;
  Alcotest.(check int) "installed word" 77 (Mem.read_int mem (addr 3));
  Alcotest.(check bool) "aliased, not copied" true
    (Option.get (Mem.page_bytes mem ~page) == data);
  Mem.write_int mem (addr 3) 78;
  Alcotest.(check int) "the space sees its write" 78 (Mem.read_int mem (addr 3));
  Alcotest.(check int) "the write copied the page first" 1
    (Mem.stats mem).Mem.n_cow;
  Alcotest.(check bool) "the handed-over bytes are unchanged" true
    (Bytes.get_int64_le data 24 = 77L);
  Alcotest.(check bool) "the space holds a copy now" false
    (Option.get (Mem.page_bytes mem ~page) == data);
  (try
     Mem.install_page mem ~page:0 data;
     Alcotest.fail "expected unmapped rejection"
   with Invalid_argument _ -> ());
  (try
     Mem.install_page mem ~page:(0x1000_0000 / Mem.page_size)
       (Bytes.make 8 '\001');
     Alcotest.fail "expected size rejection"
   with Invalid_argument _ -> ())

let test_page_data_and_touched () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 1;
  Mem.write_int mem (0x1000_0000 + Mem.page_size) 2;
  let touched = Mem.touched_pages mem ~kind:Mem.Rheap in
  Alcotest.(check int) "two pages" 2 (List.length touched);
  Alcotest.(check bool) "page data present" true
    (Mem.page_bytes mem ~page:(List.hd touched) <> None);
  Alcotest.(check int) "word count" (2 * Mem.words_per_page) (Mem.word_count mem)

(* ------------------------------ clone/CoW --------------------------- *)

let heap_page = 0x1000_0000 / Mem.page_size

(* An image's frames are frozen.  Every space that maps the image shares
   them; a write through a clone copies the page into that clone alone (a
   counted Copy-on-Write), and the image, the template and the other
   clones still read the old word. *)
let test_image_frames_shared_and_immutable () =
  let page_with w =
    let b = Bytes.make Mem.page_size '\000' in
    Bytes.set_int64_le b 0 w;
    b
  in
  let img =
    Mem.image ~first_page:heap_page [| page_with 11L; page_with 22L |]
  in
  let tpl = fresh () in
  Mem.map_image tpl img;
  let c1 = Mem.clone tpl in
  let c2 = Mem.clone tpl in
  Alcotest.(check int) "clone reads the image" 22
    (Mem.read_int c1 (0x1000_0000 + Mem.page_size));
  Alcotest.(check bool) "clone shares the image frame" true
    (Mem.shares_frame tpl c1 ~page:heap_page);
  Alcotest.(check bool) "the clones share one frame" true
    (Mem.shares_frame c1 c2 ~page:heap_page);
  Mem.write_int c1 (addr 0) 99;
  Alcotest.(check int) "writer sees its write" 99 (Mem.read_int c1 (addr 0));
  Alcotest.(check int) "template keeps the old word" 11
    (Mem.read_int tpl (addr 0));
  Alcotest.(check int) "sibling keeps the old word" 11
    (Mem.read_int c2 (addr 0));
  Alcotest.(check int) "write counted as Copy-on-Write" 1
    (Mem.stats c1).Mem.n_cow;
  Alcotest.(check (list int)) "written page dirty" [ heap_page ]
    (Mem.dirty_pages c1 ~kind:Mem.Rheap);
  Alcotest.(check bool) "writer owns a private copy" false
    (Mem.shares_frame tpl c1 ~page:heap_page);
  Alcotest.(check bool) "sibling still on the image" true
    (Mem.shares_frame tpl c2 ~page:heap_page);
  Alcotest.(check bool) "a later clone still shares the image frame" true
    (Mem.shares_frame tpl (Mem.clone tpl) ~page:heap_page);
  let other = fresh () in
  Mem.map_image other img;
  Alcotest.(check int) "the image keeps the old word" 11
    (Mem.read_int other (addr 0));
  Alcotest.(check bool) "a second space shares the same frame" true
    (Mem.shares_frame tpl other ~page:heap_page);
  (* installing a page equal to the image's shares its frame; any other
     page is aliased as it was handed over *)
  let m = fresh () in
  let different = page_with 23L in
  Mem.install_page ~image:img m ~page:heap_page (page_with 11L);
  Mem.install_page ~image:img m ~page:(heap_page + 1) different;
  Alcotest.(check bool) "equal page shares the image frame" true
    (Mem.shares_frame m tpl ~page:heap_page);
  Alcotest.(check bool) "different page not the image's" false
    (Mem.shares_frame m tpl ~page:(heap_page + 1));
  Alcotest.(check bool) "different page aliases the installed bytes" true
    (Option.get (Mem.page_bytes m ~page:(heap_page + 1)) == different)

let test_clone_shares_then_isolates () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 41;
  let c1 = Mem.clone mem in
  let c2 = Mem.clone mem in
  Alcotest.(check int) "clone reads template data" 41 (Mem.read_int c1 (addr 0));
  Alcotest.(check bool) "frames shared before write" true
    (Mem.shares_frame mem c1 ~page:heap_page);
  Alcotest.(check bool) "template and both clones on one frame" true
    (Mem.shares_frame c1 c2 ~page:heap_page);
  Mem.write_int c1 (addr 0) 99;
  Alcotest.(check int) "template unchanged" 41 (Mem.read_int mem (addr 0));
  Alcotest.(check int) "sibling unchanged" 41 (Mem.read_int c2 (addr 0));
  Alcotest.(check int) "clone sees its write" 99 (Mem.read_int c1 (addr 0));
  Alcotest.(check bool) "unshared after write" false
    (Mem.shares_frame mem c1 ~page:heap_page);
  Alcotest.(check bool) "writer owns its copy" false
    (Mem.shares_frame c1 c2 ~page:heap_page);
  Alcotest.(check bool) "template and sibling still share" true
    (Mem.shares_frame mem c2 ~page:heap_page)

let test_clone_dirty_tracking () =
  let mem = fresh () in
  Mem.write_int mem (addr 0) 1;
  Mem.write_int mem (0x1000_0000 + Mem.page_size) 2;
  let c = Mem.clone mem in
  Alcotest.(check (list int)) "clone starts clean" []
    (Mem.dirty_pages c ~kind:Mem.Rheap);
  ignore (Mem.read_int c (addr 5));
  Alcotest.(check (list int)) "reads stay clean" []
    (Mem.dirty_pages c ~kind:Mem.Rheap);
  Mem.write_int c (addr 3) 7;
  Mem.write_int c (addr 4) 8;
  Alcotest.(check (list int)) "one dirty page, deduped" [ heap_page ]
    (Mem.dirty_pages c ~kind:Mem.Rheap);
  (* a cold page written directly in the clone is dirty too *)
  Mem.write_int c (0x1000_0000 + (3 * Mem.page_size)) 9;
  Alcotest.(check (list int)) "cold write dirty" [ heap_page; heap_page + 3 ]
    (Mem.dirty_pages c ~kind:Mem.Rheap)

let test_cold_reads_share_zero_frame () =
  let mem = fresh () in
  let c = Mem.clone mem in
  Alcotest.(check int) "cold read zero" 0 (Mem.read_int c (addr 9));
  ignore (Mem.read_int mem (addr 9));
  Alcotest.(check bool) "both on the zero frame" true
    (Mem.shares_frame mem c ~page:heap_page);
  Alcotest.(check bool) "a second clone shares it too" true
    (Mem.shares_frame c (Mem.clone mem) ~page:heap_page);
  Alcotest.(check int) "still counts as resident" Mem.words_per_page
    (Mem.word_count c);
  Mem.write_int c (addr 9) 5;
  Alcotest.(check int) "write privatizes" 5 (Mem.read_int c (addr 9));
  Alcotest.(check int) "template still zero" 0 (Mem.read_int mem (addr 9))

let test_cloned_from_provenance () =
  let mem = fresh () in
  let c = Mem.clone mem in
  Alcotest.(check bool) "clone remembers source" true
    (match Mem.cloned_from c with Some s -> s == mem | None -> false);
  Alcotest.(check bool) "root has no source" true (Mem.cloned_from mem = None);
  Alcotest.(check bool) "fork is not a clone" true
    (Mem.cloned_from (Mem.fork mem) = None)

(* ------------------------------ storage ----------------------------- *)

(* Deterministic distinct page images: page [k] differs from page [k'] in
   every word unless k = k'. *)
let page_of k =
  let b = Bytes.create Mem.page_size in
  for w = 0 to Mem.words_per_page - 1 do
    Bytes.set_int64_le b (w * 8) (Int64.of_int ((k * 8_191) + w))
  done;
  b

let pages_of ks = List.mapi (fun i k -> (i, page_of k)) ks

let write_pages s label ks = Storage.write s ~label ~pages:(pages_of ks)

let check_err name expect = function
  | Ok _ -> Alcotest.failf "%s: read unexpectedly succeeded" name
  | Error e ->
    let got =
      match e with
      | Storage.Missing_blob _ -> "missing-blob"
      | Storage.Missing_page _ -> "missing-page"
      | Storage.Truncated_page _ -> "truncated"
      | Storage.Corrupt_page _ -> "corrupt"
    in
    Alcotest.(check string) name expect got

let test_storage_replace_and_labels () =
  let s = Storage.create () in
  write_pages s "a" [ 1; 2 ];
  write_pages s "b" [ 3 ];
  write_pages s "a" [ 4 ];          (* replaces the first "a" *)
  let blob_bytes label =
    List.find_map
      (fun r ->
         if r.Storage.ba_label = label then Some r.Storage.ba_bytes else None)
      (Storage.blob_accounting s)
  in
  Alcotest.(check int) "replace" (2 * Storage.page_bytes)
    (Storage.accounting s).Storage.ac_logical_bytes;
  Alcotest.(check (list string)) "labels" [ "a"; "b" ] (Storage.labels s);
  Alcotest.(check (option int)) "blob bytes" (Some Storage.page_bytes)
    (blob_bytes "a");
  Storage.delete s ~label:"a";
  Alcotest.(check bool) "gone" false (Storage.contains s ~label:"a");
  Alcotest.(check (option int)) "no bytes" None (blob_bytes "a")

let test_storage_spooler_is_lazy () =
  let s = Storage.create () in
  write_pages s "a" [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "all queued" 5 (Storage.pending s);
  Alcotest.(check int) "logical counts queued pages" (5 * Storage.page_bytes)
    (Storage.accounting s).Storage.ac_logical_bytes;
  Alcotest.(check int) "nothing hashed yet" 0 (Storage.physical_bytes s);
  Alcotest.(check int) "bounded drain" 2 (Storage.drain ~max_pages:2 s);
  Alcotest.(check int) "three left" 3 (Storage.pending s);
  Alcotest.(check int) "rest" 3 (Storage.drain s);
  Alcotest.(check int) "queue empty" 0 (Storage.pending s);
  Alcotest.(check int) "all stored" (5 * Storage.page_bytes)
    (Storage.physical_bytes s)

let test_storage_read_settles_queue () =
  (* a read of a label with queued pages spools them first — and only
     them: other labels stay queued for the idle drain *)
  let s = Storage.create () in
  write_pages s "a" [ 1; 2 ];
  write_pages s "b" [ 3 ];
  (match Storage.read s ~label:"a" with
   | Ok pages ->
     Alcotest.(check int) "both pages back" 2 (List.length pages);
     List.iteri
       (fun i (index, data) ->
          Alcotest.(check int) "page index" i index;
          Alcotest.(check bool) "page words" true (data = page_of (i + 1)))
       pages
   | Error e -> Alcotest.fail (Storage.describe e));
  Alcotest.(check int) "b still queued" 1 (Storage.pending s)

let test_storage_dedup_and_refcounts () =
  let s = Storage.create () in
  (* page 7 appears in both blobs; page 1/2 are exclusive *)
  write_pages s "app1" [ 1; 7 ];
  write_pages s "app2" [ 2; 7 ];
  Storage.flush s;
  Alcotest.(check int) "logical: 4 pages" (4 * Storage.page_bytes)
    (Storage.accounting s).Storage.ac_logical_bytes;
  Alcotest.(check int) "physical: 3 frames" (3 * Storage.page_bytes)
    (Storage.physical_bytes s);
  let shared = Storage.page_hash (page_of 7) in
  Alcotest.(check (option int)) "shared frame refcount" (Some 2)
    (Storage.frame_refs s ~hash:shared);
  (* deleting one snapshot keeps the shared frame alive *)
  Storage.delete s ~label:"app1";
  Alcotest.(check (option int)) "survives one delete" (Some 1)
    (Storage.frame_refs s ~hash:shared);
  Alcotest.(check (option int)) "exclusive frame reclaimed" None
    (Storage.frame_refs s ~hash:(Storage.page_hash (page_of 1)));
  (match Storage.read s ~label:"app2" with
   | Ok pages -> Alcotest.(check int) "app2 intact" 2 (List.length pages)
   | Error e -> Alcotest.fail (Storage.describe e));
  Storage.delete s ~label:"app2";
  Alcotest.(check (option int)) "reclaimed at zero" None
    (Storage.frame_refs s ~hash:shared);
  Alcotest.(check int) "store empty" 0 (Storage.physical_bytes s)

let test_storage_accounting_shared_bytes () =
  let s = Storage.create () in
  write_pages s "app1" [ 1; 7; 8 ];
  write_pages s "app2" [ 2; 7; 8 ];
  Storage.flush s;
  let ac = Storage.accounting s in
  Alcotest.(check int) "blobs" 2 ac.Storage.ac_blobs;
  Alcotest.(check int) "pages" 6 ac.Storage.ac_pages;
  Alcotest.(check int) "frames" 4 ac.Storage.ac_frames;
  Alcotest.(check int) "shared = the two common frames"
    (2 * Storage.page_bytes) ac.Storage.ac_shared_bytes;
  Alcotest.(check int) "saved = logical - physical"
    (ac.Storage.ac_logical_bytes - ac.Storage.ac_physical_bytes)
    ac.Storage.ac_dedup_saved_bytes;
  match Storage.blob_accounting s with
  | [ a1; a2 ] ->
    Alcotest.(check string) "sorted by label" "app1" a1.Storage.ba_label;
    Alcotest.(check int) "app1 shared" (2 * Storage.page_bytes)
      a1.Storage.ba_shared_bytes;
    Alcotest.(check int) "app1 exclusive" Storage.page_bytes
      a1.Storage.ba_exclusive_bytes;
    Alcotest.(check int) "app2 shared" (2 * Storage.page_bytes)
      a2.Storage.ba_shared_bytes
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_storage_corruption_detected () =
  let s = Storage.create () in
  write_pages s "a" [ 1; 2 ];
  Storage.flush s;
  Storage.corrupt s ~hash:(Storage.page_hash (page_of 2)) ~byte:17;
  check_err "flip caught" "corrupt" (Storage.read s ~label:"a")

let test_storage_truncation_detected () =
  let s = Storage.create () in
  write_pages s "a" [ 1 ];
  Storage.flush s;
  Storage.truncate s ~hash:(Storage.page_hash (page_of 1)) ~keep:100;
  (match Storage.read s ~label:"a" with
   | Error (Storage.Truncated_page { got = 100; _ }) -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Storage.describe e)
   | Ok _ -> Alcotest.fail "truncated page read back")

let test_storage_every_byte_flip_detected () =
  (* exhaustive: no single-byte corruption of a stored page escapes the
     content-address check, whatever the position *)
  let s = Storage.create () in
  write_pages s "a" [ 5 ];
  Storage.flush s;
  for i = 0 to Storage.page_bytes - 1 do
    let damage _pos b =
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      b
    in
    match Storage.read ~damage s ~label:"a" with
    | Ok _ -> Alcotest.failf "flip at byte %d escaped the checksum" i
    | Error (Storage.Corrupt_page _) -> ()
    | Error e -> Alcotest.failf "byte %d: wrong error: %s" i (Storage.describe e)
  done

let test_storage_save_load_roundtrip () =
  let file = Filename.temp_file "repro-store" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let s = Storage.create () in
  write_pages s "app1" [ 1; 7 ];
  write_pages s "app2" [ 2; 7 ];
  Storage.save s file;
  let s', warnings = Storage.load file in
  Alcotest.(check (list string)) "clean load" [] warnings;
  Alcotest.(check (list string)) "labels" [ "app1"; "app2" ]
    (Storage.labels s');
  Alcotest.(check int) "physical preserved" (Storage.physical_bytes s)
    (Storage.physical_bytes s');
  Alcotest.(check (option int)) "refcounts recomputed" (Some 2)
    (Storage.frame_refs s' ~hash:(Storage.page_hash (page_of 7)));
  (match Storage.read s' ~label:"app1" with
   | Ok pages ->
     Alcotest.(check bool) "pages roundtrip" true
       (pages = [ (0, page_of 1); (1, page_of 7) ])
   | Error e -> Alcotest.fail (Storage.describe e));
  (* the byte layout is deterministic: saving the reloaded store
     reproduces the file exactly *)
  let file2 = Filename.temp_file "repro-store" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove file2) @@ fun () ->
  Storage.save s' file2;
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  Alcotest.(check bool) "deterministic byte layout" true
    (String.equal (slurp file) (slurp file2))

let test_storage_load_degrades_on_partial_write () =
  let file = Filename.temp_file "repro-store" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let s = Storage.create () in
  write_pages s "app1" [ 1; 2 ];
  write_pages s "app2" [ 3 ];
  Storage.save s file;
  let full = In_channel.with_open_bin file In_channel.input_all in
  (* cut the file mid-way through the blob section: frames parse, some
     manifests are lost, and the loader reports — not raises *)
  let cut = String.length full - 7 in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (String.sub full 0 cut));
  let s', warnings = Storage.load file in
  Alcotest.(check bool) "truncation reported" true (warnings <> []);
  List.iter
    (fun label ->
       match Storage.read s' ~label with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "surviving blob %s unreadable: %s" label
           (Storage.describe e))
    (Storage.labels s')

let test_storage_load_drops_corrupt_frames () =
  let file = Filename.temp_file "repro-store" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let s = Storage.create () in
  write_pages s "a" [ 1 ];
  Storage.save s file;
  (* flip one byte of the frame data on disk; the loader must drop the
     frame (reported) and the blob must degrade to Missing_page *)
  let full = Bytes.of_string (In_channel.with_open_bin file In_channel.input_all) in
  (* layout: magic, frame count (4), then hash (4+16) and data (4+bytes);
     offset 100 into the frame's data bytes *)
  let pos = String.length "REPRO-STORE v1\n" + 4 + 4 + 16 + 4 + 100 in
  Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0xFF));
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_bytes oc full);
  let s', warnings = Storage.load file in
  Alcotest.(check bool) "frame drop reported" true (warnings <> []);
  check_err "blob degrades to missing page" "missing-page"
    (Storage.read s' ~label:"a")

let test_storage_missing_blob () =
  let s = Storage.create () in
  check_err "missing blob" "missing-blob" (Storage.read s ~label:"nope")

(* ------------------------------ qcheck ------------------------------ *)

let prop_read_after_write =
  QCheck.Test.make ~name:"read-after-write across random offsets" ~count:300
    QCheck.(pair (int_bound (8 * Repro_os.Mem.words_per_page - 1)) int)
    (fun (word, value) ->
       let mem = fresh () in
       Mem.write_int mem (addr word) value;
       Mem.read_int mem (addr word) = value)

let prop_fork_isolation =
  QCheck.Test.make ~name:"fork isolation under random writes" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30)
              (pair (int_bound 100) (int_bound 1000)))
    (fun writes ->
       let mem = fresh () in
       List.iter (fun (w, v) -> Mem.write_int mem (addr w) v) writes;
       let snapshot = List.map (fun (w, _) -> (w, Mem.read_int mem (addr w))) writes in
       let child = Mem.fork mem in
       (* parent mutates everything *)
       List.iter (fun (w, v) -> Mem.write_int mem (addr w) (v + 1)) writes;
       List.for_all (fun (w, v) -> Mem.read_int child (addr w) = v) snapshot)

let prop_clone_isolation =
  (* satellite (a): writes in one CoW clone are never visible in the
     template or in sibling clones *)
  QCheck.Test.make ~name:"clone isolation under random writes" ~count:100
    QCheck.(pair
              (list_of_size Gen.(int_range 1 20) (pair (int_bound 100) (int_bound 1000)))
              (list_of_size Gen.(int_range 1 20) (pair (int_bound 100) (int_bound 1000))))
    (fun (base_writes, clone_writes) ->
       let mem = fresh () in
       List.iter (fun (w, v) -> Mem.write_int mem (addr w) v) base_writes;
       let before = List.map (fun (w, _) -> (w, Mem.read_int mem (addr w))) base_writes in
       let c1 = Mem.clone mem in
       let c2 = Mem.clone mem in
       List.iter (fun (w, v) -> Mem.write_int c1 (addr w) (v + 7)) clone_writes;
       let expected =
         (* last write per word wins *)
         List.fold_left
           (fun acc (w, v) -> (w, v + 7) :: List.remove_assoc w acc)
           [] clone_writes
       in
       List.for_all (fun (w, v) -> Mem.read_int mem (addr w) = v) before
       && List.for_all (fun (w, v) -> Mem.read_int c2 (addr w) = v) before
       && List.for_all (fun (w, v) -> Mem.read_int c1 (addr w) = v) expected)

(* Random fork, clone, read and write steps against a model: every space
   reads exactly the words its model holds, and every frame two spaces
   shared still holds the bytes it had when it was first shared — a
   shared frame is frozen, never written.  Each case starts with a clone
   of a written clone and a fork of a clone. *)
let prop_frozen_model =
  let words = [| 0; 1; Mem.words_per_page - 1 |] in
  let addr_of k =
    let page = k mod 8 and w = words.(k / 8 mod Array.length words) in
    0x1000_0000 + (page * Mem.page_size) + (w * 8)
  in
  let addrs = List.init (8 * Array.length words) addr_of in
  let pick xs k = List.nth xs (k mod List.length xs) in
  (* a space with its model: address -> word, absent = 0 *)
  let step live (op, a, b) =
    let space, model = pick live a in
    match op mod 4 with
    | 0 when List.length live < 7 -> (Mem.clone space, model) :: live
    | 1 when List.length live < 7 -> (Mem.fork space, model) :: live
    | 2 ->
      let at = addr_of b in
      Mem.write_int space at b;
      List.map
        (fun ((s, m) as e) ->
           if s == space then (s, (at, b) :: List.remove_assoc at m) else e)
        live
    | _ ->
      ignore (Mem.read_int space (addr_of b));
      live
  in
  (* the bytes of every frame two live spaces share, as first shared *)
  let record_shared shared live =
    List.fold_left
      (fun shared (s, _) ->
         List.fold_left
           (fun shared (s', _) ->
              if s == s' then shared
              else
                List.fold_left
                  (fun shared page ->
                     match Mem.page_bytes s ~page with
                     | Some bytes
                       when Mem.shares_frame s s' ~page
                            && not (List.exists (fun (b, _) -> b == bytes) shared)
                       -> (bytes, Bytes.copy bytes) :: shared
                     | _ -> shared)
                  shared
                  (List.init 8 (fun i -> heap_page + i)))
           shared live)
      shared live
  in
  let prefix = [ (2, 0, 3); (0, 0, 0); (2, 0, 11); (0, 0, 0); (1, 1, 0) ] in
  QCheck.Test.make ~name:"fork/clone/write agree with a model" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 25)
              (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
    (fun ops ->
       let live, shared =
         List.fold_left
           (fun (live, shared) op ->
              let live = step live op in
              (live, record_shared shared live))
           ([ (fresh (), []) ], [])
           (prefix @ ops)
       in
       List.for_all (fun (bytes, first) -> Bytes.equal bytes first) shared
       && List.for_all
            (fun (s, model) ->
               List.for_all
                 (fun at ->
                    Mem.read_int s at
                    = Option.value (List.assoc_opt at model) ~default:0)
                 addrs)
            live)

(* -------------------------- storage qcheck -------------------------- *)

(* random stores: up to 4 blobs, each a short list of page keys drawn from
   a small pool so cross-blob (and in-blob) sharing is common *)
let blobs_gen =
  QCheck.(list_of_size Gen.(int_range 1 4)
            (list_of_size Gen.(int_range 1 6) (int_bound 7)))

let labelled blobs = List.mapi (fun i ks -> ("blob" ^ string_of_int i, ks)) blobs

let build_store blobs =
  let s = Storage.create () in
  List.iter (fun (label, ks) -> write_pages s label ks) (labelled blobs);
  s

let prop_storage_roundtrip =
  QCheck.Test.make ~name:"storage: write/read round-trip" ~count:200
    blobs_gen
    (fun blobs ->
       let s = build_store blobs in
       List.for_all
         (fun (label, ks) ->
            match Storage.read s ~label with
            | Ok pages -> pages = pages_of ks
            | Error _ -> false)
         (labelled blobs))

let prop_storage_refcounts_exact =
  (* a frame's refcount equals the number of manifest entries pointing at
     it, across arbitrary write/replace sequences; deleting one blob
     decrements exactly its own references and shared pages survive *)
  QCheck.Test.make ~name:"storage: dedup refcounts exact" ~count:200
    QCheck.(pair blobs_gen (int_bound 3))
    (fun (blobs, victim) ->
       let s = build_store blobs in
       Storage.flush s;
       let entries_of blobs =
         List.concat_map (fun (_, ks) -> ks) (labelled blobs)
       in
       let refs_ok blobs =
         let entries = entries_of blobs in
         List.for_all
           (fun k ->
              let expected =
                List.length (List.filter (fun k' -> k' = k) entries)
              in
              match Storage.frame_refs s ~hash:(Storage.page_hash (page_of k)) with
              | Some rc -> rc = expected
              | None -> expected = 0)
           (List.init 8 Fun.id)
       in
       refs_ok blobs
       && begin
         (* delete one blob: survivors keep every shared page readable *)
         let all = labelled blobs in
         let victim_label, _ = List.nth all (victim mod List.length all) in
         Storage.delete s ~label:victim_label;
         let rest = List.filter (fun (l, _) -> l <> victim_label) all in
         refs_ok (List.map snd rest)
         && List.for_all
              (fun (label, ks) ->
                 match Storage.read s ~label with
                 | Ok pages -> pages = pages_of ks
                 | Error _ -> false)
              rest
       end)

let prop_storage_flip_detected =
  QCheck.Test.make ~name:"storage: any single-byte flip detected" ~count:300
    QCheck.(triple blobs_gen (int_bound 10_000) (int_range 1 255))
    (fun (blobs, pos, mask) ->
       let s = build_store blobs in
       Storage.flush s;
       let label, ks = List.hd (labelled blobs) in
       let victim_page = pos mod List.length ks in
       let victim_byte = pos mod Storage.page_bytes in
       let damage p b =
         if p = victim_page then begin
           Bytes.set b victim_byte
             (Char.chr (Char.code (Bytes.get b victim_byte) lxor mask));
           b
         end
         else b
       in
       match Storage.read ~damage s ~label with
       | Error (Storage.Corrupt_page _) -> true
       | Ok _ | Error _ -> false)

let prop_storage_totals_dedup_adjusted =
  QCheck.Test.make ~name:"storage: totals equal dedup-adjusted sum" ~count:200
    blobs_gen
    (fun blobs ->
       let s = build_store blobs in
       Storage.flush s;
       let entries = List.concat blobs in
       let distinct = List.sort_uniq Int.compare entries in
       let ac = Storage.accounting s in
       ac.Storage.ac_logical_bytes
       = List.length entries * Storage.page_bytes
       && ac.Storage.ac_physical_bytes
          = List.length distinct * Storage.page_bytes
       && ac.Storage.ac_dedup_saved_bytes
          = ac.Storage.ac_logical_bytes - ac.Storage.ac_physical_bytes
       && Storage.physical_bytes s = ac.Storage.ac_physical_bytes
       && ac.Storage.ac_shared_bytes <= ac.Storage.ac_physical_bytes
       (* per-blob rows are consistent with the totals *)
       && List.fold_left (fun acc r -> acc + r.Storage.ba_bytes) 0
            (Storage.blob_accounting s)
          = ac.Storage.ac_logical_bytes)

(* -------------------------- string framing ---------------------------- *)

let test_storage_string_framing_roundtrip () =
  let roundtrip text =
    match Storage.string_of_pages (Storage.pages_of_string text) with
    | Ok text' -> Alcotest.(check string) "round trip" text text'
    | Error why -> Alcotest.fail why
  in
  roundtrip "";
  roundtrip "hello\tworld\n";
  roundtrip (String.init 10_000 (fun i -> Char.chr (i mod 256)));
  (match Storage.string_of_pages [ (0, Bytes.make 8 '\001') ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad geometry accepted");
  (* a page image whose length prefix exceeds the payload is malformed *)
  match
    Storage.string_of_pages
      (List.map
         (fun (i, data) ->
            if i = 0 then begin
              let b = Bytes.copy data in
              Bytes.set_int64_le b 0 Int64.max_int;
              (i, b)
            end
            else (i, data))
         (Storage.pages_of_string "payload"))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad length prefix accepted"

let () =
  Alcotest.run "os"
    [ ("mem",
       [ Alcotest.test_case "zero fill" `Quick test_zero_fill;
         Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
         Alcotest.test_case "word access allocates nothing" `Quick
           test_word_access_allocates_nothing;
         Alcotest.test_case "mapping rules" `Quick test_mapping_rules;
         Alcotest.test_case "kind of page" `Quick test_kind_of_page ]);
      ("protection",
       [ Alcotest.test_case "lifecycle" `Quick test_protection_lifecycle;
         Alcotest.test_case "write faults" `Quick test_write_faults_too;
         Alcotest.test_case "untouched noop" `Quick test_protect_untouched_noop ]);
      ("fork",
       [ Alcotest.test_case "shares until write" `Quick test_fork_shares_until_write;
         Alcotest.test_case "child write CoW" `Quick test_child_write_cow;
         Alcotest.test_case "fork chain" `Quick test_fork_chain;
         Alcotest.test_case "fork then protect" `Quick test_fork_after_protection ]);
      ("pages",
       [ Alcotest.test_case "install page" `Quick test_install_page;
         Alcotest.test_case "page data" `Quick test_page_data_and_touched ]);
      ("clone",
       [ Alcotest.test_case "shares then isolates" `Quick test_clone_shares_then_isolates;
         Alcotest.test_case "dirty tracking" `Quick test_clone_dirty_tracking;
         Alcotest.test_case "zero frame" `Quick test_cold_reads_share_zero_frame;
         Alcotest.test_case "image frames immutable" `Quick
           test_image_frames_shared_and_immutable;
         Alcotest.test_case "provenance" `Quick test_cloned_from_provenance ]);
      ("storage",
       [ Alcotest.test_case "replace/labels" `Quick test_storage_replace_and_labels;
         Alcotest.test_case "spooler is lazy" `Quick test_storage_spooler_is_lazy;
         Alcotest.test_case "read settles queue" `Quick test_storage_read_settles_queue;
         Alcotest.test_case "dedup refcounts" `Quick test_storage_dedup_and_refcounts;
         Alcotest.test_case "shared-bytes accounting" `Quick
           test_storage_accounting_shared_bytes;
         Alcotest.test_case "corruption detected" `Quick test_storage_corruption_detected;
         Alcotest.test_case "truncation detected" `Quick test_storage_truncation_detected;
         Alcotest.test_case "every byte flip detected" `Slow
           test_storage_every_byte_flip_detected;
         Alcotest.test_case "save/load roundtrip" `Quick test_storage_save_load_roundtrip;
         Alcotest.test_case "load degrades on partial write" `Quick
           test_storage_load_degrades_on_partial_write;
         Alcotest.test_case "load drops corrupt frames" `Quick
           test_storage_load_drops_corrupt_frames;
         Alcotest.test_case "missing blob" `Quick test_storage_missing_blob;
         Alcotest.test_case "string framing roundtrip" `Quick
           test_storage_string_framing_roundtrip ]);
      ("os-properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_read_after_write; prop_fork_isolation; prop_clone_isolation;
           prop_frozen_model; prop_storage_roundtrip;
           prop_storage_refcounts_exact; prop_storage_flip_detected;
           prop_storage_totals_dedup_adjusted ]) ]
