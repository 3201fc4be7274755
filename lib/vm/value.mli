(** Runtime values held in virtual registers.

    In simulated memory every value is one 64-bit word; the element kind
    recorded in the instruction tells the VM how to decode it. *)

type t =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vref of int    (** heap address; 0 is null *)

val null : t

val load : Repro_os.Mem.t -> Repro_dex.Bytecode.elem_kind -> int -> t
(** The value of a kind in the word at an address: an int or reference is
    the word's low 63 bits, a float its IEEE bits, a bool [true] when any
    bit is set.  How the engines read memory.
    @raise Invalid_argument if the address is unmapped. *)

val store : Repro_os.Mem.t -> int -> t -> unit
(** Write a value's word at an address: ints and references
    sign-extended, floats as their IEEE bits, bools as 1 or 0.  How the
    engines write memory.  @raise Invalid_argument if unmapped. *)

val to_int : t -> int
(** @raise Invalid_argument when not a [Vint]. *)

val to_float : t -> float
val to_bool : t -> bool
val to_ref : t -> int
val is_truthy : t -> bool
(** Non-zero / true / non-null. *)

val equal : t -> t -> bool
val to_string : t -> string
