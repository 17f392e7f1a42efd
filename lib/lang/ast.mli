(** XQuery Core abstract syntax (the paper's Table II grammar, rules 1-26,
    plus the XRPC extension rules 27-28).

    Every expression node carries a unique vertex id, so the AST doubles as
    the vertex set of the dependency graph of Section III: parse edges are
    the AST edges, varref edges connect variable references to their
    binders. Axis steps are individual [Step] nodes, giving the per-step
    granularity that the insertion conditions need. *)

type atomic =
  | A_string of string
  | A_int of int
  | A_float of float
  | A_bool of bool

type var = string
(** Variable name, without the ['$']. *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Self
  | Attribute
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following
  | Following_sibling
  | Preceding
  | Preceding_sibling

(** Forward / reverse / horizontal classification (insertion condition i). *)
type axis_class = Fwd | Rev | Hor

val classify_axis : axis -> axis_class

val non_overlapping_axis : axis -> bool
(** Axes that cannot produce overlapping sequences from duplicate-free
    ordered input — the set excepted in insertion condition iii. *)

type node_test =
  | Name_test of string
  | Wildcard
  | Kind_node
  | Kind_text
  | Kind_comment
  | Kind_element of string option
  | Kind_attribute of string option

type value_comp = Eq | Ne | Lt | Le | Gt | Ge
type node_comp = Is | Precedes | Follows
type set_op = Union | Intersect | Except
type arith_op = Add | Sub | Mul | Div | Idiv | Mod
type occurrence = Occ_one | Occ_opt | Occ_star | Occ_plus

type item_type =
  | It_node
  | It_element of string option
  | It_attribute of string option
  | It_text
  | It_document
  | It_atomic of string
  | It_item

type sequence_type = St_empty | St_items of item_type * occurrence

(** XQUF subset: where inserted content goes relative to the target. *)
type insert_pos = Into | Before | After

type name_spec = Fixed_name of string | Computed_name of expr

and expr = { id : int; desc : desc }

and desc =
  | Literal of atomic
  | Var_ref of var
  | Seq of expr list  (** ExprSeq; [[]] is the empty sequence [()] *)
  | For of var * expr * expr
  | Let of var * expr * expr
  | If of expr * expr * expr
  | Typeswitch of expr * (var * sequence_type * expr) list * var * expr
  | Value_cmp of value_comp * expr * expr
  | Node_cmp of node_comp * expr * expr
  | Arith of arith_op * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Order_by of var * expr * (expr * bool) list * expr
      (** [for $v in e order by (spec, ascending)… return body] *)
  | Node_set of set_op * expr * expr
  | Doc_constr of expr
  | Text_constr of expr
  | Elem_constr of name_spec * expr
  | Attr_constr of name_spec * expr
  | Step of expr * axis * node_test
  | Fun_call of string * expr list
  | Execute_at of execute_at
  | Insert_node of expr * insert_pos * expr
      (** [insert node E1 into/before/after E2] — appends to the pending
          update list, applied at query completion (snapshot semantics) *)
  | Delete_node of expr
  | Replace_value of expr * expr
  | Rename_node of expr * expr

and execute_at = {
  host : expr;
  params : (var * expr) list;
      (** each parameter expression is evaluated at the caller and its
          value marshaled per the session's passing semantics *)
  body : expr;
  mutable param_paths : (var * string list * string list) list;
      (** per-parameter relative projection paths (used, returned), as
          strings of {!Xd_projection.Path}; filled by the by-projection
          decomposer *)
  mutable result_paths : string list * string list;
      (** relative projection paths for the call's result *)
}

type func = {
  f_name : string;
  f_params : (var * sequence_type option) list;
  f_return : sequence_type option;
  f_body : expr;
}

type query = { funcs : func list; body : expr }

(** {2 Construction} *)

val next_id : int ref
val mk : desc -> expr
(** Allocate an expression with a fresh vertex id. *)

val mk_execute_at :
  host:expr -> params:(var * expr) list -> body:expr -> expr

val literal : atomic -> expr
val str : string -> expr
val int : int -> expr
val var : var -> expr
val empty_seq : unit -> expr
val seq : expr list -> expr
(** [seq [e]] is [e]; otherwise a [Seq]. *)

val fun_call : string -> expr list -> expr
val doc : string -> expr
val step : expr -> axis -> node_test -> expr
val child : expr -> string -> expr

(** {2 Traversal} *)

val children : expr -> expr list
(** Structural children in syntactic order (the parse edges). *)

val bound_in_children : expr -> var list list
(** Per child (aligned with {!children}): the variables this node newly
    binds in that child's scope. *)

val fold : ('a -> expr -> 'a) -> 'a -> expr -> 'a
val iter : (expr -> unit) -> expr -> unit
val free_vars : expr -> var list

val with_children : expr -> expr list -> expr
(** Rebuild with new children (same binder structure, same id).
    @raise Invalid_argument on arity mismatch. *)

val map_bottom_up : (expr -> expr) -> expr -> expr
val rename_var : from:var -> to_:var -> expr -> expr
val subst_var : from:var -> by:expr -> expr -> expr
val refresh_ids : expr -> expr
(** Deep copy with fresh vertex ids. *)

val size : expr -> int
val is_updating_desc : desc -> bool
val contains_update : expr -> bool
val update_target : expr -> expr option
val find_vertex : expr -> int -> expr option

(** {2 Path stamps}

    The projection paths of an [execute_at] record are the only mutable
    part of a query. A memo that hands the same query (or a plan built
    from it) to many callers stamps the paths when it stores the value
    and re-checks the stamp before reuse, so that a caller who filled or
    tampered with them in place never poisons later hits. *)

type paths_stamp

val stamp_paths : query -> paths_stamp
(** The current paths of every [execute_at] record in the body and the
    function bodies. *)

val paths_unchanged : paths_stamp -> bool
(** No stamped record has had either path field reassigned since. *)
