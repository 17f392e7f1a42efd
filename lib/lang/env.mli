(** Dynamic evaluation context.

    The [execute_at] and [resolve_doc] hooks keep the language layer
    transport-agnostic: a local engine plugs in local implementations; the
    XRPC runtime plugs in implementations that marshal values through
    messages — the precise point where the paper's three passing semantics
    differ. *)

module Smap : Map.S with type key = string

exception Dynamic_error of string

val dynamic_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** The string keys of a cached operand of a general [=]: [Mixed] when
    some atom is neither [xs:string] nor [xs:untypedAtomic]. *)
type probe = Unbuilt | Strings of (string, unit) Hashtbl.t | Mixed

(** A loop-invariant subexpression and, once it has been evaluated, its
    value. *)
type invariant = {
  expr : Ast.expr;  (** matched by physical identity *)
  mutable value : Value.t option;
  mutable probe : probe;
}

type t = {
  store : Xd_xml.Store.t;  (** where constructed/shredded nodes live *)
  vars : Value.t Smap.t;
  funcs : Ast.func Smap.t;
  resolve_doc : t -> string -> Xd_xml.Doc.t;  (** fn:doc *)
  execute_at :
    t -> Ast.execute_at -> host:string -> args:(Ast.var * Value.t) list ->
    Value.t;
      (** called with the host string and the evaluated parameter values *)
  builtins : (string, t -> Value.t list -> Value.t) Hashtbl.t;
  schedule : (t -> Ast.expr -> Value.t option) option;
      (** scheduling hook, consulted at Seq/Let/For vertices before
          normal evaluation; [None] from the hook falls back to plain
          sequential evaluation *)
  observe : (Xd_xml.Node.t -> unit) option;
      (** node observer, called on every axis-step result *)
  static_base_uri : string;  (** Problem 5 class-1 context *)
  default_collation : string;
  current_datetime : string;
  mutable recursion_depth : int;
  pul : Pul.t option;
      (** pending update list; [None] = read-only context (updating
          expressions raise) *)
  invariants : invariant list;
      (** the loop-invariant subexpressions of the enclosing loop
          instances; empty outside a loop and in a function or
          execute-at body *)
}

val default_resolve_doc : t -> string -> Xd_xml.Doc.t
(** Resolve in the local store by URI. *)

val no_execute_at :
  t -> Ast.execute_at -> host:string -> args:(Ast.var * Value.t) list ->
  Value.t
(** Raises: installed when no RPC transport is configured. *)

val create :
  ?vars:Value.t Smap.t ->
  ?funcs:Ast.func list ->
  ?resolve_doc:(t -> string -> Xd_xml.Doc.t) ->
  ?execute_at:
    (t -> Ast.execute_at -> host:string -> args:(Ast.var * Value.t) list ->
     Value.t) ->
  ?builtins:(string, t -> Value.t list -> Value.t) Hashtbl.t ->
  ?schedule:(t -> Ast.expr -> Value.t option) ->
  ?observe:(Xd_xml.Node.t -> unit) ->
  ?static_base_uri:string ->
  ?default_collation:string ->
  ?current_datetime:string ->
  ?pul:Pul.t ->
  Xd_xml.Store.t ->
  t

val bind : t -> Ast.var -> Value.t -> t
val lookup : t -> Ast.var -> Value.t
val lookup_func : t -> string -> Ast.func option
val with_funcs : t -> Ast.func list -> t
val func_list : t -> Ast.func list
val register_builtin : t -> string -> (t -> Value.t list -> Value.t) -> unit
