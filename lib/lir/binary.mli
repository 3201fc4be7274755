(** A compiled binary: the set of optimized method graphs installed for an
    application, plus its code size (the GA's tiebreaker). *)

type t = {
  funcs : (int, Repro_hgraph.Hir.func) Hashtbl.t;  (** method id -> code *)
  size : int;                                       (** total instructions *)
  dig : string;  (** content digest, computed by [create] *)
}

val create : Repro_hgraph.Hir.func list -> t
val find : t -> int -> Repro_hgraph.Hir.func option
val mids : t -> int list

val overlay : t -> t -> t
(** [overlay base top] is {!create} on [base]'s functions with [top]'s
    replacing those of the same method id: installing a region binary over
    the app's Android code. *)

val digest : t -> string
(** Hex digest of the printed method graphs in ascending-mid order — the
    binary memo key ([Pipeline.binary_key] delegates here).  Computed once
    by [create], before the binary can cross domains. *)
