(* Content-addressed snapshot page store.  See storage.mli for the model.

   Layout: [frames] maps the raw MD5 digest of a page's bytes (the flat
   4 KB frame [Mem] holds) to the stored bytes plus a refcount; [blobs]
   maps a label to an ordered manifest of (page index, digest) entries.
   The digest is both the content address (dedup) and the integrity
   checksum (any byte flip makes the stored bytes disagree with their
   key).  Writes are spooled: [write] enqueues raw page images and
   [drain] does the hashing/storing work, modelling the paper's
   idle-priority flash writer. *)

module Trace = Repro_util.Trace

let page_bytes = Mem.page_size

type error =
  | Missing_blob of { label : string }
  | Missing_page of { label : string; index : int; hash : string }
  | Truncated_page of
      { label : string; index : int; hash : string; expected : int; got : int }
  | Corrupt_page of { label : string; index : int; hash : string }

exception Integrity of error

let describe = function
  | Missing_blob { label } -> Printf.sprintf "%s: blob not in store" label
  | Missing_page { label; index; hash } ->
      Printf.sprintf "%s: page %d (frame %s) missing from store" label index
        (Digest.to_hex hash)
  | Truncated_page { label; index; hash; expected; got } ->
      Printf.sprintf "%s: page %d (frame %s) truncated: %d bytes, expected %d"
        label index (Digest.to_hex hash) got expected
  | Corrupt_page { label; index; hash } ->
      Printf.sprintf "%s: page %d (frame %s) failed checksum" label index
        (Digest.to_hex hash)

type frame = { mutable fr_bytes : Bytes.t; mutable fr_refs : int }

type blob = {
  bl_label : string;
  bl_gen : int;                               (* write generation *)
  mutable bl_entries : (int * string) list;   (* (page, digest), reversed *)
  mutable bl_pending : int;                   (* queued, not yet spooled *)
}

type pending = {
  p_label : string;
  p_gen : int;              (* dropped at drain if the blob was replaced *)
  p_index : int;
  p_data : Bytes.t;
}

type t = {
  frames : (string, frame) Hashtbl.t;
  blobs : (string, blob) Hashtbl.t;
  queue : pending Queue.t;
  mutable gen : int;
  lock : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v -> Mutex.unlock t.lock; v
  | exception e -> Mutex.unlock t.lock; raise e

let create () =
  { frames = Hashtbl.create 1024;
    blobs = Hashtbl.create 16;
    queue = Queue.create ();
    gen = 0;
    lock = Mutex.create () }

(* A stored frame's bytes are never written in place ([corrupt] replaces
   them), so the store keeps the very bytes it was handed and returns
   them to readers: one copy of a page however many hold it. *)
let page_hash data = Digest.bytes data

(* -- refcount plumbing (caller holds the lock) -------------------------- *)

let release_frame t hash =
  match Hashtbl.find_opt t.frames hash with
  | None -> ()
  | Some fr ->
      fr.fr_refs <- fr.fr_refs - 1;
      if fr.fr_refs <= 0 then Hashtbl.remove t.frames hash

let release_blob t bl =
  List.iter (fun (_, hash) -> release_frame t hash) bl.bl_entries;
  Hashtbl.remove t.blobs bl.bl_label

(* -- write path --------------------------------------------------------- *)

let write t ~label ~pages =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.blobs label with
      | Some old -> release_blob t old
      | None -> ());
      t.gen <- t.gen + 1;
      let bl =
        { bl_label = label; bl_gen = t.gen; bl_entries = [];
          bl_pending = List.length pages }
      in
      Hashtbl.replace t.blobs label bl;
      List.iter
        (fun (p_index, p_data) ->
          Queue.add { p_label = label; p_gen = t.gen; p_index; p_data } t.queue)
        pages;
      Trace.add "storage.pages_enqueued" (List.length pages))

(* queued pages of a deleted blob are dropped lazily at drain time: their
   generation no longer matches any live blob *)
let delete t ~label =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.blobs label with
      | None -> ()
      | Some bl -> release_blob t bl)

(* hash/store one queued page; caller holds the lock.  Returns false when
   the page's blob was replaced or deleted after it was enqueued. *)
let spool_one t (p : pending) =
  match Hashtbl.find_opt t.blobs p.p_label with
  | Some bl when bl.bl_gen = p.p_gen ->
      let hash = page_hash p.p_data in
      (match Hashtbl.find_opt t.frames hash with
      | Some fr ->
          fr.fr_refs <- fr.fr_refs + 1;
          Trace.incr "storage.pages_deduped"
      | None ->
          Hashtbl.replace t.frames hash { fr_bytes = p.p_data; fr_refs = 1 };
          Trace.add "storage.bytes_written" page_bytes);
      bl.bl_entries <- (p.p_index, hash) :: bl.bl_entries;
      bl.bl_pending <- bl.bl_pending - 1;
      true
  | _ -> false

(* caller holds the lock *)
let drain_locked ?max_pages t =
  let budget = match max_pages with None -> max_int | Some n -> n in
  let stored = ref 0 in
  while !stored < budget && not (Queue.is_empty t.queue) do
    if spool_one t (Queue.pop t.queue) then incr stored
  done;
  if !stored > 0 then begin
    Trace.add "storage.pages_spooled" !stored;
    Trace.incr "storage.drains"
  end;
  !stored

let drain ?max_pages t = with_lock t (fun () -> drain_locked ?max_pages t)
let flush t = ignore (drain t)
let pending t = with_lock t (fun () -> Queue.length t.queue)

(* spool every queued page belonging to [label] (other labels stay queued);
   caller holds the lock.  Readers call this so they never see a torn blob. *)
let settle_label t label =
  match Hashtbl.find_opt t.blobs label with
  | None -> ()
  | Some bl when bl.bl_pending = 0 -> ()
  | Some _ ->
      Trace.incr "storage.read_flushes";
      let rest = Queue.create () in
      let n = ref 0 in
      Queue.iter
        (fun p ->
          if String.equal p.p_label label then begin
            if spool_one t p then incr n
          end
          else Queue.add p rest)
        t.queue;
      Queue.clear t.queue;
      Queue.transfer rest t.queue;
      if !n > 0 then Trace.add "storage.pages_spooled" !n

(* -- read path ---------------------------------------------------------- *)

(* walk a manifest validating each frame against its content address;
   [damage] sees a copy of each frame's bytes.  Caller holds the lock. *)
let read_entries t ~label ~damage entries =
  let rec go pos acc = function
    | [] -> Ok (List.rev acc)
    | (index, hash) :: rest -> (
        match Hashtbl.find_opt t.frames hash with
        | None -> Error (Missing_page { label; index; hash })
        | Some fr ->
            let bytes =
              match damage with
              | None -> fr.fr_bytes
              | Some f -> f pos (Bytes.copy fr.fr_bytes)
            in
            if Bytes.length bytes <> page_bytes then begin
              Trace.incr "storage.checksum_failures";
              Error
                (Truncated_page
                   { label; index; hash; expected = page_bytes;
                     got = Bytes.length bytes })
            end
            else if not (String.equal (Digest.bytes bytes) hash) then begin
              Trace.incr "storage.checksum_failures";
              Error (Corrupt_page { label; index; hash })
            end
            else go (pos + 1) ((index, bytes) :: acc) rest)
  in
  go 0 [] entries

let read ?damage t ~label =
  with_lock t (fun () ->
      Trace.incr "storage.reads";
      settle_label t label;
      match Hashtbl.find_opt t.blobs label with
      | None -> Error (Missing_blob { label })
      | Some bl -> read_entries t ~label ~damage (List.rev bl.bl_entries))

let contains t ~label = with_lock t (fun () -> Hashtbl.mem t.blobs label)

let manifest t ~label =
  with_lock t (fun () ->
      settle_label t label;
      match Hashtbl.find_opt t.blobs label with
      | None -> None
      | Some bl -> Some (List.rev bl.bl_entries))

let frame_refs t ~hash =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.frames hash with
      | None -> None
      | Some fr -> Some fr.fr_refs)

(* -- accounting --------------------------------------------------------- *)

let labels t =
  with_lock t (fun () ->
      Hashtbl.fold (fun l _ acc -> l :: acc) t.blobs []
      |> List.sort String.compare)

let blob_pages bl = List.length bl.bl_entries + bl.bl_pending

let physical_bytes t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ fr acc -> acc + Bytes.length fr.fr_bytes) t.frames 0)

type accounting = {
  ac_blobs : int;
  ac_pages : int;
  ac_logical_bytes : int;
  ac_frames : int;
  ac_physical_bytes : int;
  ac_shared_bytes : int;
  ac_dedup_saved_bytes : int;
  ac_pending_pages : int;
}

(* digest -> distinct labels referencing it; caller holds the lock *)
let frame_owners t =
  let owners = Hashtbl.create (max 16 (Hashtbl.length t.frames)) in
  Hashtbl.iter
    (fun label bl ->
      List.iter
        (fun (_, hash) ->
          let cur =
            match Hashtbl.find_opt owners hash with Some l -> l | None -> []
          in
          if not (List.exists (String.equal label) cur) then
            Hashtbl.replace owners hash (label :: cur))
        bl.bl_entries)
    t.blobs;
  owners

let is_shared owners hash =
  match Hashtbl.find_opt owners hash with
  | Some (_ :: _ :: _) -> true
  | _ -> false

let accounting t =
  with_lock t (fun () ->
      let owners = frame_owners t in
      let shared = ref 0 and physical = ref 0 in
      Hashtbl.iter
        (fun hash fr ->
          physical := !physical + Bytes.length fr.fr_bytes;
          if is_shared owners hash then
            shared := !shared + Bytes.length fr.fr_bytes)
        t.frames;
      let pages, logical =
        Hashtbl.fold
          (fun _ bl (p, b) ->
            (p + blob_pages bl, b + (blob_pages bl * page_bytes)))
          t.blobs (0, 0)
      in
      { ac_blobs = Hashtbl.length t.blobs;
        ac_pages = pages;
        ac_logical_bytes = logical;
        ac_frames = Hashtbl.length t.frames;
        ac_physical_bytes = !physical;
        ac_shared_bytes = !shared;
        ac_dedup_saved_bytes = logical - !physical;
        ac_pending_pages = Queue.length t.queue })

type blob_accounting = {
  ba_label : string;
  ba_pages : int;
  ba_bytes : int;
  ba_shared_bytes : int;
  ba_exclusive_bytes : int;
}

let blob_accounting t =
  with_lock t (fun () ->
      let owners = frame_owners t in
      Hashtbl.fold
        (fun label bl acc ->
          let shared = ref 0 and exclusive = ref 0 in
          List.iter
            (fun (_, hash) ->
              let sz =
                match Hashtbl.find_opt t.frames hash with
                | Some fr -> Bytes.length fr.fr_bytes
                | None -> page_bytes
              in
              if is_shared owners hash then shared := !shared + sz
              else exclusive := !exclusive + sz)
            bl.bl_entries;
          { ba_label = label;
            ba_pages = blob_pages bl;
            ba_bytes = blob_pages bl * page_bytes;
            ba_shared_bytes = !shared;
            ba_exclusive_bytes = !exclusive }
          :: acc)
        t.blobs []
      |> List.sort (fun a b -> String.compare a.ba_label b.ba_label))

(* -- string framing ------------------------------------------------------

   Frame an arbitrary string into whole store pages: an 8-byte LE length
   prefix, then the payload, zero-padded.  The genome bank and the search
   checkpoints both persist text payloads this way, inheriting the store's
   per-page checksums and deterministic on-disk layout. *)

let pages_of_string text =
  let payload = Bytes.of_string text in
  let framed_len = 8 + Bytes.length payload in
  let n_pages = (framed_len + page_bytes - 1) / page_bytes in
  let n_pages = max n_pages 1 in
  let image = Bytes.make (n_pages * page_bytes) '\000' in
  Bytes.set_int64_le image 0 (Int64.of_int (Bytes.length payload));
  Bytes.blit payload 0 image 8 (Bytes.length payload);
  List.init n_pages (fun p -> (p, Bytes.sub image (p * page_bytes) page_bytes))

let string_of_pages pages =
  let pages = List.sort (fun (a, _) (b, _) -> compare a b) pages in
  if List.exists (fun (_, data) -> Bytes.length data <> page_bytes) pages
  then Error "bad page geometry"
  else begin
    let image = Bytes.concat Bytes.empty (List.map snd pages) in
    if Bytes.length image < 8 then Error "empty image"
    else
      let len = Int64.to_int (Bytes.get_int64_le image 0) in
      if len < 0 || len > Bytes.length image - 8 then
        Error "bad payload length"
      else Ok (Bytes.sub_string image 8 len)
  end

(* -- damage hooks ------------------------------------------------------- *)

(* both replace the frame's bytes, never write them: readers and page
   images may share the old ones *)
let corrupt t ~hash ~byte =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.frames hash with
      | None -> ()
      | Some fr ->
          let len = Bytes.length fr.fr_bytes in
          if len > 0 then begin
            let i = ((byte mod len) + len) mod len in
            let b = Bytes.copy fr.fr_bytes in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
            fr.fr_bytes <- b
          end)

let truncate t ~hash ~keep =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.frames hash with
      | None -> ()
      | Some fr ->
          let keep = max 0 (min keep (Bytes.length fr.fr_bytes)) in
          fr.fr_bytes <- Bytes.sub fr.fr_bytes 0 keep)

(* -- on-disk format -----------------------------------------------------

   magic line, then a frame section and a blob section:

     REPRO-STORE v1\n
     int: frame count
     per frame:  int hash_len, hash bytes, int data_len, data bytes
     int: blob count
     per blob:   int label_len, label bytes, int entry count,
                 per entry: int page index, int hash_len, hash bytes

   Integers via output_binary_int (4-byte big-endian).  Frames are written
   sorted by digest and blobs by label, so the byte stream is a
   deterministic function of the store's contents.  Refcounts are not
   stored; [load] recomputes them from the manifests. *)

let magic = "REPRO-STORE v1\n"

let out_string oc s =
  output_binary_int oc (String.length s);
  output_string oc s

let save t file =
  with_lock t (fun () ->
      ignore (drain_locked t);
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc magic;
          let frames =
            Hashtbl.fold (fun h fr acc -> (h, fr) :: acc) t.frames []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          output_binary_int oc (List.length frames);
          List.iter
            (fun (hash, fr) ->
              out_string oc hash;
              out_string oc (Bytes.to_string fr.fr_bytes))
            frames;
          let blobs =
            Hashtbl.fold (fun _ bl acc -> bl :: acc) t.blobs []
            |> List.sort (fun a b -> String.compare a.bl_label b.bl_label)
          in
          output_binary_int oc (List.length blobs);
          List.iter
            (fun bl ->
              out_string oc bl.bl_label;
              let entries = List.rev bl.bl_entries in
              output_binary_int oc (List.length entries);
              List.iter
                (fun (index, hash) ->
                  output_binary_int oc index;
                  out_string oc hash)
                entries)
            blobs))

exception Short_file of string

let in_int ic what =
  try input_binary_int ic with End_of_file -> raise (Short_file what)

let in_string ic what =
  let len = in_int ic what in
  if len < 0 || len > 16 * 1024 * 1024 then
    raise (Short_file (what ^ " (implausible length)"));
  try really_input_string ic len with End_of_file -> raise (Short_file what)

let load file =
  let t = create () in
  let warnings = ref [] in
  let warn fmt =
    Printf.ksprintf
      (fun s ->
        Trace.incr "storage.load_warnings";
        warnings := s :: !warnings)
      fmt
  in
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         let m =
           try really_input_string ic (String.length magic)
           with End_of_file -> raise (Short_file "magic")
         in
         if not (String.equal m magic) then raise (Short_file "bad magic");
         let nframes = in_int ic "frame count" in
         for _ = 1 to nframes do
           let hash = in_string ic "frame hash" in
           let data = in_string ic "frame data" in
           (* a frame whose stored bytes fail their own checksum is damage
              on disk: drop it; blobs referencing it degrade to
              Missing_page and quarantine downstream *)
           if String.equal (Digest.string data) hash then
             Hashtbl.replace t.frames hash
               { fr_bytes = Bytes.of_string data; fr_refs = 0 }
           else
             warn "frame %s dropped: stored bytes fail checksum"
               (Digest.to_hex hash)
         done;
         let nblobs = in_int ic "blob count" in
         for _ = 1 to nblobs do
           let label = in_string ic "blob label" in
           let nentries = in_int ic "entry count" in
           let entries = ref [] in
           for _ = 1 to nentries do
             let index = in_int ic "entry index" in
             let hash = in_string ic "entry hash" in
             entries := (index, hash) :: !entries
           done;
           t.gen <- t.gen + 1;
           Hashtbl.replace t.blobs label
             { bl_label = label; bl_gen = t.gen; bl_entries = !entries;
               bl_pending = 0 }
         done
       with Short_file what -> warn "store file truncated at %s" what);
      (* recompute refcounts from the surviving manifests; reclaim frames
         nothing references *)
      Hashtbl.iter
        (fun _ bl ->
          List.iter
            (fun (_, hash) ->
              match Hashtbl.find_opt t.frames hash with
              | Some fr -> fr.fr_refs <- fr.fr_refs + 1
              | None -> ())
            bl.bl_entries)
        t.blobs;
      let orphans =
        Hashtbl.fold
          (fun h fr acc -> if fr.fr_refs = 0 then h :: acc else acc)
          t.frames []
      in
      List.iter
        (fun h ->
          warn "frame %s dropped: referenced by no blob" (Digest.to_hex h);
          Hashtbl.remove t.frames h)
        orphans;
      (t, List.rev !warnings))

(* -- text files ---------------------------------------------------------
   One framed text payload per file, under one blob label: the on-disk
   form of search checkpoints and genome banks. *)

let save_text ~label file text =
  let st = create () in
  write st ~label ~pages:(pages_of_string text);
  let tmp = file ^ ".tmp" in
  save st tmp;
  Sys.rename tmp file

let load_text ~label file =
  if not (Sys.file_exists file) then `Absent
  else
    match load file with
    | exception Sys_error why -> `Damaged why
    | st, warnings ->
      if not (contains st ~label) then
        `Damaged (Printf.sprintf "no %s blob in store" label)
      else
        match read st ~label with
        | Error e -> `Damaged (describe e)
        | Ok pages ->
          (match string_of_pages pages with
           | Error why -> `Damaged why
           | Ok text -> `Loaded (text, warnings))
