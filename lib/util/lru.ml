(* Hash table for lookup, doubly-linked list for recency: [hottest] is the
   most recently used node, [coldest] the next victim. *)

type 'a node = {
  key : string;
  value : 'a;
  weight : int;
  mutable hotter : 'a node option;
  mutable colder : 'a node option;
}

type 'a t = {
  table : (string, 'a node) Hashtbl.t;
  weigh : 'a -> int;
  on_evict : string -> 'a -> unit;
  mutable budget : int;
  mutable hottest : 'a node option;
  mutable coldest : 'a node option;
  mutable total : int;
  mutable evicted : int;
}

let create ?(on_evict = fun _ _ -> ()) ~budget ~weight () =
  { table = Hashtbl.create 256; weigh = weight; on_evict;
    budget = max 0 budget; hottest = None; coldest = None; total = 0;
    evicted = 0 }

let unlink t n =
  (match n.hotter with
   | Some h -> h.colder <- n.colder
   | None -> t.hottest <- n.colder);
  (match n.colder with
   | Some c -> c.hotter <- n.hotter
   | None -> t.coldest <- n.hotter);
  n.hotter <- None;
  n.colder <- None

let push_hottest t n =
  n.colder <- t.hottest;
  (match t.hottest with
   | Some h -> h.hotter <- Some n
   | None -> t.coldest <- Some n);
  t.hottest <- Some n

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
    unlink t n;
    push_hottest t n;
    Some n.value

let mem t key = Hashtbl.mem t.table key

let rec evict_to_budget t =
  if t.total > t.budget then
    match t.coldest with
    | None -> ()
    | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.total <- t.total - n.weight;
      t.evicted <- t.evicted + 1;
      t.on_evict n.key n.value;
      evict_to_budget t

let add t key value =
  if not (Hashtbl.mem t.table key) then begin
    let n =
      { key; value; weight = max 0 (t.weigh value); hotter = None;
        colder = None }
    in
    Hashtbl.add t.table key n;
    push_hottest t n;
    t.total <- t.total + n.weight;
    evict_to_budget t
  end

let budget t = t.budget

let set_budget t budget =
  t.budget <- max 0 budget;
  evict_to_budget t

let length t = Hashtbl.length t.table
let weight t = t.total
let evictions t = t.evicted

let reset t =
  Hashtbl.reset t.table;
  t.hottest <- None;
  t.coldest <- None;
  t.total <- 0;
  t.evicted <- 0
