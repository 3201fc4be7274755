module Trace = Repro_util.Trace
module Stats = Repro_util.Stats

(* ------------------------------- spread ------------------------------ *)

(* Port of CPython's statistics.quantiles(data, n=4, method="exclusive"). *)
let quartiles values =
  let data = Array.of_list (List.sort Float.compare values) in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Perfkit.quartiles: no values"
  else if ld = 1 then (data.(0), data.(0), data.(0))
  else begin
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((data.(j - 1) *. float_of_int (n - delta))
       +. (data.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

let spread values =
  match values with
  | [] | [ _ ] -> 0.0
  | _ ->
    let q1, _, q3 = quartiles values in
    let med = Stats.median (Array.of_list values) in
    if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

(* -------------------------------- JSON ------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON: %s at offset %d" what !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
    | Some v -> pos := !pos + 4; v
    | None -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
         | Some ('"' | '\\' | '/' as c) -> Buffer.add_char buf c; incr pos
         | Some 'b' -> Buffer.add_char buf '\b'; incr pos
         | Some 'f' -> Buffer.add_char buf '\012'; incr pos
         | Some 'n' -> Buffer.add_char buf '\n'; incr pos
         | Some 'r' -> Buffer.add_char buf '\r'; incr pos
         | Some 't' -> Buffer.add_char buf '\t'; incr pos
         | Some 'u' ->
           incr pos;
           let u = hex4 () in
           let u =
             if u >= 0xD800 && u <= 0xDBFF
                && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
             end
             else u
           in
           if Uchar.is_valid u then Buffer.add_utf_8_uchar buf (Uchar.of_int u)
           else fail "invalid code point"
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> incr pos; go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; fields ((k, v) :: acc)
          | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; items (v :: acc)
          | Some ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let number_to_string v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let short = Printf.sprintf "%.15g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_to_string ?(pretty = false) j =
  let rec go indent = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Num v -> number_to_string v
    | Str s -> "\"" ^ escape s ^ "\""
    | Arr items -> "[" ^ String.concat ", " (List.map (go indent) items) ^ "]"
    | Obj [] -> "{}"
    | Obj fields ->
      let inner = indent ^ "  " in
      let sep, open_, close =
        if pretty then (",\n" ^ inner, "{\n" ^ inner, "\n" ^ indent ^ "}")
        else (", ", "{", "}")
      in
      open_
      ^ String.concat sep
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ go inner v) fields)
      ^ close
  in
  go "" j

let member key = function
  | Obj fields -> Option.value (List.assoc_opt key fields) ~default:Null
  | _ -> Null

let to_num = function Num v -> Some v | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* ----------------------------- self time ----------------------------- *)

type span = {
  sp_name : string;
  sp_tid : int;
  sp_dur : float;
  sp_self : float;
}

(* Per domain, replay begin/end edges in emission order with a stack whose
   frames accumulate their direct children's durations.  Spans need not
   nest: the GA runs under an effect handler, so a "ga:generation" span
   opened inside one search step closes inside the next.  An end therefore
   closes the most recent open span of its name wherever it sits in the
   stack, and is credited to the frame just below it. *)
let spans events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       let tid = ev.Trace.ev_tid in
       Hashtbl.replace by_tid tid
         (ev :: Option.value (Hashtbl.find_opt by_tid tid) ~default:[]))
    events;
  let tids = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_tid []) in
  List.concat_map
    (fun tid ->
       let evs =
         List.sort
           (fun a b -> Int.compare a.Trace.ev_seq b.Trace.ev_seq)
           (Hashtbl.find by_tid tid)
       in
       let out = ref [] in
       (* stack frames, innermost first: name, begin timestamp, children's total *)
       let stack = ref [] in
       let rec close name ts above = function
         | [] -> ()   (* unmatched end *)
         | (n, t0, kids) :: below when String.equal n name ->
           let dur = ts -. t0 in
           (match below with
            | (_, _, parent_kids) :: _ -> parent_kids := !parent_kids +. dur
            | [] -> ());
           stack := List.rev_append above below;
           out := { sp_name = name; sp_tid = tid; sp_dur = dur; sp_self = dur -. !kids } :: !out
         | frame :: below -> close name ts (frame :: above) below
       in
       List.iter
         (fun ev ->
            match ev.Trace.ev_ph with
            | Trace.B -> stack := (ev.Trace.ev_name, ev.Trace.ev_ts, ref 0.0) :: !stack
            | Trace.E -> close ev.Trace.ev_name ev.Trace.ev_ts [] !stack)
         evs;
       List.rev !out)
    tids

(* ---------------------------- metric names --------------------------- *)

let valid_metric_name s =
  let ok_first = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64 && ok_first s.[0] && String.for_all ok s

(* ------------------------------ verdicts ----------------------------- *)

type better = Lower | Higher

type verdict = Agree | Regressed | Improved | Unresolved

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let verdict_name = function
  | Agree -> "agree"
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Unresolved -> "unresolved"

let judge ~better ~bound a b =
  let ma = Stats.median (Array.of_list a) and mb = Stats.median (Array.of_list b) in
  if spread a > bound || spread b > bound then Unresolved
  else begin
    let delta = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
    let worse = match better with Lower -> delta | Higher -> -.delta in
    if worse > bound then Regressed
    else if -.worse > bound then Improved
    else Agree
  end
