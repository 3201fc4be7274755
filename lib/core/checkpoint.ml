(* Record/replay journal for crash-safe search resume.  See the interface
   for the model.  The text image is line-oriented, tab-separated; every
   free-form field goes through String.escaped (round-tripped with
   Scanf.unescaped) so tabs and newlines cannot corrupt the framing, and
   binary digests survive as printable escapes. *)

module Storage = Repro_os.Storage
module Trace = Repro_util.Trace

type core =
  | Core_measured of { cycles : int; size : int; key : string }
  | Core_compile_failed of string
  | Core_compile_timeout
  | Core_crashed of string
  | Core_hung
  | Core_wrong_output
  | Core_quarantined of string

type task = {
  t_ev_index : int;
  t_canon : string;
  t_core : core;
}

type batch = {
  b_cursor : int64;
  b_tasks : task list;
}

type t = {
  fingerprint : string;
  batches : batch list;
  quarantine : (string * string * int) list;
}

exception Injected_abort

let magic = "REPROCKPT1"

(* ----------------------------- rendering ----------------------------- *)

let esc = String.escaped

exception Malformed of string

let unesc s =
  match Scanf.unescaped s with
  | s -> s
  | exception Scanf.Scan_failure _ -> raise (Malformed "bad escape")

let render_core buf = function
  | Core_measured { cycles; size; key } ->
    Buffer.add_string buf (Printf.sprintf "M\t%d\t%d\t%s" cycles size (esc key))
  | Core_compile_failed msg -> Buffer.add_string buf ("CF\t" ^ esc msg)
  | Core_compile_timeout -> Buffer.add_string buf "CT"
  | Core_crashed msg -> Buffer.add_string buf ("RC\t" ^ esc msg)
  | Core_hung -> Buffer.add_string buf "RH"
  | Core_wrong_output -> Buffer.add_string buf "WO"
  | Core_quarantined msg -> Buffer.add_string buf ("QU\t" ^ esc msg)

let core_of_fields = function
  | [ "M"; cycles; size; key ] ->
    Core_measured
      { cycles = int_of_string cycles; size = int_of_string size;
        key = unesc key }
  | [ "CF"; msg ] -> Core_compile_failed (unesc msg)
  | [ "CT" ] -> Core_compile_timeout
  | [ "RC"; msg ] -> Core_crashed (unesc msg)
  | [ "RH" ] -> Core_hung
  | [ "WO" ] -> Core_wrong_output
  | [ "QU"; msg ] -> Core_quarantined (unesc msg)
  | _ -> raise (Malformed "bad core record")

let render_batches t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun b ->
       Buffer.add_string buf (Printf.sprintf "b\t%Lx\n" b.b_cursor);
       List.iter
         (fun tk ->
            Buffer.add_string buf
              (Printf.sprintf "t\t%d\t%s\t" tk.t_ev_index (esc tk.t_canon));
            render_core buf tk.t_core;
            Buffer.add_char buf '\n')
         b.b_tasks)
    t.batches;
  Buffer.contents buf

let memo_digest t = Digest.to_hex (Digest.string (render_batches t))

let to_text t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "fp\t%s\n" (esc t.fingerprint));
  Buffer.add_string buf (Printf.sprintf "md\t%s\n" (memo_digest t));
  List.iter
    (fun (key, reason, count) ->
       Buffer.add_string buf
         (Printf.sprintf "q\t%s\t%s\t%d\n" (esc key) (esc reason) count))
    t.quarantine;
  Buffer.add_string buf (render_batches t);
  Buffer.contents buf

let of_text text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest when header = magic ->
    let fingerprint = ref None in
    let declared_md = ref None in
    let quarantine_rev = ref [] in
    let batches_rev = ref [] in         (* (cursor, tasks_rev) *)
    List.iter
      (fun line ->
         if line <> "" then
           match String.split_on_char '\t' line with
           | [ "fp"; fp ] -> fingerprint := Some (unesc fp)
           | [ "md"; d ] -> declared_md := Some d
           | [ "q"; key; reason; count ] ->
             quarantine_rev :=
               (unesc key, unesc reason, int_of_string count)
               :: !quarantine_rev
           | [ "b"; cursor ] ->
             batches_rev :=
               (Int64.of_string ("0x" ^ cursor), ref []) :: !batches_rev
           | "t" :: ev_index :: canon :: core_fields ->
             (match !batches_rev with
              | [] -> raise (Malformed "task before any batch")
              | (_, tasks_rev) :: _ ->
                tasks_rev :=
                  { t_ev_index = int_of_string ev_index;
                    t_canon = unesc canon;
                    t_core = core_of_fields core_fields }
                  :: !tasks_rev)
           | _ -> raise (Malformed ("bad record: " ^ line)))
      rest;
    let fingerprint =
      match !fingerprint with
      | Some fp -> fp
      | None -> raise (Malformed "no fingerprint")
    in
    let batches =
      List.rev_map
        (fun (cursor, tasks_rev) ->
           { b_cursor = cursor; b_tasks = List.rev !tasks_rev })
        !batches_rev
    in
    let t =
      { fingerprint; batches; quarantine = List.rev !quarantine_rev }
    in
    (match !declared_md with
     | Some d when d <> memo_digest t ->
       raise (Malformed "journal digest mismatch")
     | Some _ | None -> ());
    t
  | _ -> raise (Malformed "bad header")

(* ------------------------------ on disk ------------------------------ *)

let blob_label = "checkpoint"

let save t file =
  Storage.save_text ~label:blob_label file (to_text t);
  Trace.incr "ckpt.saves";
  Trace.add "ckpt.batches_saved" (List.length t.batches)

let load file =
  let damaged why =
    Trace.incr "ckpt.loads";
    Trace.incr "ckpt.damaged";
    `Damaged why
  in
  match Storage.load_text ~label:blob_label file with
  | `Absent -> `Absent
  | `Damaged why -> damaged why
  | `Loaded (text, warnings) ->
    (match of_text text with
     | t ->
       Trace.incr "ckpt.loads";
       `Loaded (t, warnings)
     | exception Malformed why -> damaged why
     | exception _ -> damaged "unparseable checkpoint payload")
