module Trace = Repro_util.Trace
module Genome = Repro_search.Genome
module Storage = Repro_os.Storage
module Pipeline = Repro_core.Pipeline

type entry = {
  e_app : string;
  e_bucket : string;
  e_genome : Genome.t;
  e_fitness_ms : float;
  e_wins : int;
}

type t = (string * string, entry) Hashtbl.t

let create () : t = Hashtbl.create 16

let record bank ~app ~bucket genome ~fitness_ms =
  Trace.incr "fleet.bank_records";
  let key = (app, bucket) in
  match Hashtbl.find_opt bank key with
  | Some e when e.e_fitness_ms <= fitness_ms ->
    Hashtbl.replace bank key { e with e_wins = e.e_wins + 1 }
  | Some e ->
    Hashtbl.replace bank key
      { e with e_genome = genome; e_fitness_ms = fitness_ms;
               e_wins = e.e_wins + 1 }
  | None ->
    Hashtbl.add bank key
      { e_app = app; e_bucket = bucket; e_genome = genome;
        e_fitness_ms = fitness_ms; e_wins = 1 }

let entries bank =
  Hashtbl.fold (fun _ e acc -> e :: acc) bank []
  |> List.sort (fun a b ->
      match compare a.e_app b.e_app with
      | 0 -> compare a.e_bucket b.e_bucket
      | c -> c)

let size bank = Hashtbl.length bank

let lookup bank ~app ~bucket =
  let mine, others =
    List.partition (fun e -> e.e_bucket = bucket)
      (List.filter (fun e -> e.e_app = app) (entries bank))
  in
  let by_fitness a b = compare a.e_fitness_ms b.e_fitness_ms in
  let ordered = List.sort by_fitness mine @ others in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
       let c = Genome.canon e.e_genome in
       if Hashtbl.mem seen c then None
       else begin
         Hashtbl.add seen c ();
         Some e.e_genome
       end)
    ordered

(* {2 Text image}

   One header line, then one tab-separated line per entry in (app, bucket)
   order.  Fitness round-trips exactly as hex float bits; genomes render
   as space-separated [pass:p1,p2] genes (pass names come from the pass
   catalog and contain no whitespace). *)

let magic = "REPROBANK1"

(* The gene/genome round-trip codec is shared with checkpoints and lives
   in [Genome.to_text]/[Genome.of_text]. *)
let genome_to_string = Genome.to_text
let genome_of_string = Genome.of_text

let to_text bank =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
       Buffer.add_string buf
         (Printf.sprintf "%s\t%s\t%Lx\t%d\t%s\n" e.e_app e.e_bucket
            (Int64.bits_of_float e.e_fitness_ms) e.e_wins
            (genome_to_string e.e_genome)))
    (entries bank);
  Buffer.contents buf

exception Malformed of string

let of_text text =
  let bank = create () in
  (match String.split_on_char '\n' text with
   | header :: lines when header = magic ->
     List.iter
       (fun line ->
          if line <> "" then
            match String.split_on_char '\t' line with
            | [ app; bucket; bits; wins; genome ] ->
              let e =
                { e_app = app; e_bucket = bucket;
                  e_genome = genome_of_string genome;
                  e_fitness_ms =
                    Int64.float_of_bits (Int64.of_string ("0x" ^ bits));
                  e_wins = int_of_string wins }
              in
              Hashtbl.replace bank (app, bucket) e
            | _ -> raise (Malformed ("bad entry: " ^ line)))
       lines
   | _ -> raise (Malformed "bad header"));
  bank

(* {2 On disk}

   The text image goes through the store's shared text codec
   ([Storage.save_text]/[load_text]): one "bank" blob with per-page
   checksums, a byte-deterministic layout and an atomic rename. *)

let save bank file = Storage.save_text ~label:"bank" file (to_text bank)

let corrupt_result file reason =
  Trace.incr "fleet.bank_corrupt";
  Pipeline.record_quarantine ~key:("bank:" ^ file) ~reason ();
  (create (), [ Printf.sprintf "bank %s: %s (starting cold)" file reason ])

let load file =
  match Storage.load_text ~label:"bank" file with
  | `Absent -> (create (), [])
  | `Damaged why -> corrupt_result file why
  | `Loaded (text, store_warnings) ->
    (match of_text text with
     | bank -> (bank, store_warnings)
     | exception Malformed why -> corrupt_result file why
     | exception _ -> corrupt_result file "unparseable bank payload")
