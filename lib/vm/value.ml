module B = Repro_dex.Bytecode
module Mem = Repro_os.Mem

type t =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vref of int

let null = Vref 0

(* A value's memory encoding is one 64-bit word: ints and references
   sign-extended, floats as their IEEE bits, bools as 1 or 0.  Engines
   read and write it through [Mem]'s typed accessors, so no [int64] is
   boxed to cross into [Mem]. *)
let load mem kind addr =
  match kind with
  | B.Kint -> Vint (Mem.read_int mem addr)
  | B.Kfloat -> Vfloat (Mem.read_float mem addr)
  | B.Kbool -> Vbool (Mem.read_bool mem addr)
  | B.Kref -> Vref (Mem.read_int mem addr)

let store mem addr = function
  | Vint k | Vref k -> Mem.write_int mem addr k
  | Vfloat f -> Mem.write_float mem addr f
  | Vbool b -> Mem.write_int mem addr (Bool.to_int b)

let to_int = function
  | Vint k -> k
  | v -> invalid_arg ("Value.to_int: " ^ (match v with
      | Vfloat _ -> "float" | Vbool _ -> "bool" | Vref _ -> "ref" | Vint _ -> "int"))

let to_float = function
  | Vfloat f -> f
  | Vint k -> float_of_int k
  | Vbool _ | Vref _ -> invalid_arg "Value.to_float"

let to_bool = function
  | Vbool b -> b
  | Vint k -> k <> 0
  | Vfloat _ | Vref _ -> invalid_arg "Value.to_bool"

let to_ref = function
  | Vref a -> a
  | Vint _ | Vfloat _ | Vbool _ -> invalid_arg "Value.to_ref"

let is_truthy = function
  | Vbool b -> b
  | Vint k -> k <> 0
  | Vfloat f -> f <> 0.0
  | Vref a -> a <> 0

let equal a b =
  match a, b with
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Vbool x, Vbool y -> x = y
  | Vref x, Vref y -> x = y
  | (Vint _ | Vfloat _ | Vbool _ | Vref _), _ -> false

let to_string = function
  | Vint k -> string_of_int k
  | Vfloat f -> Printf.sprintf "%g" f
  | Vbool b -> string_of_bool b
  | Vref 0 -> "null"
  | Vref a -> Printf.sprintf "ref%#x" a
