(** Type checking and name resolution for MiniDex.

    The checker validates a parsed {!Ast.program} and produces a typed AST in
    which every name is resolved: bare identifiers become locals, implicit
    [this] field accesses, or static fields; unqualified calls are attached to
    the defining class; [Math.*]/[Sys.*] calls become native calls; implicit
    int-to-float coercions are made explicit. *)

type texpr = { e : texpr_desc; t : Ast.typ }

and texpr_desc =
  | Tint_lit of int
  | Tfloat_lit of float
  | Tbool_lit of bool
  | Tnull
  | Tlocal of string
  | Tthis
  | Tbinop of Ast.binop * texpr * texpr
  | Tunop of Ast.unop * texpr
  | Tstatic_call of string * string * texpr list
  | Tvirtual_call of texpr * string * texpr list
  | Tnative_call of Bytecode.native * texpr list
  | Tnew of string * texpr list
  | Tnew_array of Ast.typ * texpr          (** element type, length *)
  | Tindex of texpr * texpr
  | Tfield of texpr * string
  | Tstatic_field of string * string
  | Tlen of texpr
  | Tcast of Ast.typ * texpr               (** int<->float conversion *)

type tlvalue =
  | TLlocal of string
  | TLindex of texpr * texpr
  | TLfield of texpr * string
  | TLstatic of string * string

type tstmt =
  | TSdecl of Ast.typ * string * texpr option
  | TSassign of tlvalue * texpr
  | TSif of texpr * tstmt list * tstmt list
  | TSwhile of texpr * tstmt list
  | TSreturn of texpr option
  | TSexpr of texpr
  | TSthrow of texpr
  | TStry of tstmt list * string * tstmt list
  | TSbreak
  | TScontinue

type tmethod = {
  tm_name : string;
  tm_class : string;
  tm_static : bool;
  tm_ret : Ast.typ;
  tm_params : (Ast.typ * string) list;
  tm_body : tstmt list;
}

type tclass = {
  tc_name : string;
  tc_super : string option;
  tc_instance_fields : (string * Ast.typ) list;
  (** layout order, inherited fields first *)
  tc_static_fields : (string * Ast.typ * Bytecode.const) list;
  tc_methods : tmethod list;
}

type tprogram = tclass list

exception Type_error of string

val check : Ast.program -> tprogram
(** @raise Type_error on ill-typed or unresolvable programs. *)

val method_sig : tprogram -> string -> string ->
  (bool * Ast.typ * Ast.typ list) option
(** [method_sig prog cls name] finds a method in [cls] or its ancestors and
    returns (static, return type, parameter types). *)
