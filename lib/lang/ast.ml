(* XQuery Core AST, following the paper's Table II grammar (rules 1-26) plus
   the XRPC extension (rules 27-28). Every expression node carries a unique
   vertex id: the AST doubles as the vertex set of the dependency graph
   (parse edges = AST edges, varref edges = Var_ref -> binder). Each axis
   step is its own expression node ([Step]), so the per-step granularity the
   insertion conditions need (RevAxis / HorAxis / AxisStep vertices) falls
   out directly. *)

type atomic =
  | A_string of string
  | A_int of int
  | A_float of float
  | A_bool of bool

type var = string (* variable name, without the '$' *)

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

(* Reverse / horizontal / forward classification used by insertion
   condition i (Problems 1). *)
type axis_class = Fwd | Rev | Hor

let classify_axis = function
  | Child | Descendant | Descendant_or_self | Self | Attribute -> Fwd
  | Parent | Ancestor | Ancestor_or_self -> Rev
  | Following | Following_sibling | Preceding | Preceding_sibling -> Hor

(* Axes that cannot produce overlapping node sequences from a duplicate-free
   ordered input (the set excluded in insertion condition iii). *)
let non_overlapping_axis = function
  | Parent | Preceding_sibling | Following_sibling | Self | Child | Attribute
    ->
    true
  | Descendant | Descendant_or_self | Ancestor | Ancestor_or_self | Following
  | Preceding ->
    false

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
  | It_atomic of string (* xs:string, xs:integer, ... *)
  | It_item

type sequence_type =
  | St_empty
  | St_items of item_type * occurrence

(* XQUF subset (the paper's Section IX future work): where inserted
   content goes relative to the target. *)
type insert_pos = Into | Before | After

type name_spec = Fixed_name of string | Computed_name of expr

and expr = { id : int; desc : desc }

and desc =
  | Literal of atomic
  | Var_ref of var
  | Seq of expr list (* ExprSeq; [] is the empty sequence () *)
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
      (* for $v in e order by (spec, ascending)... return body *)
  | Node_set of set_op * expr * expr
  | Doc_constr of expr
  | Text_constr of expr
  | Elem_constr of name_spec * expr
  | Attr_constr of name_spec * expr
  | Step of expr * axis * node_test
  | Fun_call of string * expr list
  | Execute_at of execute_at
  (* XQUF subset: updating expressions. They evaluate to the empty
     sequence and append to the pending update list, applied when the
     query completes (snapshot semantics). *)
  | Insert_node of expr * insert_pos * expr (* insert node E1 into/before/after E2 *)
  | Delete_node of expr
  | Replace_value of expr * expr (* replace value of node E1 with E2 *)
  | Rename_node of expr * expr (* rename node E1 as E2 *)

and execute_at = {
  host : expr;
  params : (var * expr) list;
  body : expr;
  (* relative projection paths, filled in by the by-projection decomposer:
     per-parameter used/returned suffixes and result used/returned
     suffixes. Opaque strings at this level (parsed by xd_projection). *)
  mutable param_paths : (var * string list * string list) list;
  mutable result_paths : string list * string list;
}

type func = {
  f_name : string;
  f_params : (var * sequence_type option) list;
  f_return : sequence_type option;
  f_body : expr;
}

type query = { funcs : func list; body : expr }

(* ------------------------------------------------------------------ *)

let next_id = ref 0

let mk desc =
  incr next_id;
  { id = !next_id; desc }

let mk_execute_at ~host ~params ~body =
  mk
    (Execute_at
       { host; params; body; param_paths = []; result_paths = ([], []) })

let literal a = mk (Literal a)
let str s = literal (A_string s)
let int i = literal (A_int i)
let var v = mk (Var_ref v)
let empty_seq () = mk (Seq [])

let seq = function [ e ] -> e | es -> mk (Seq es)

let fun_call name args = mk (Fun_call (name, args))
let doc uri = fun_call "doc" [ str uri ]
let step e axis test = mk (Step (e, axis, test))
let child e name = step e Child (Name_test name)

(* Structural children of an expression, in syntactic order (= parse
   edges). *)
let children e =
  match e.desc with
  | Literal _ | Var_ref _ -> []
  | Seq es -> es
  | For (_, e1, e2) | Let (_, e1, e2) -> [ e1; e2 ]
  | If (e1, e2, e3) -> [ e1; e2; e3 ]
  | Typeswitch (e0, cases, _, dflt) ->
    (e0 :: List.map (fun (_, _, b) -> b) cases) @ [ dflt ]
  | Value_cmp (_, a, b)
  | Node_cmp (_, a, b)
  | Arith (_, a, b)
  | And (a, b)
  | Or (a, b)
  | Node_set (_, a, b) ->
    [ a; b ]
  | Order_by (_, e1, specs, body) -> (e1 :: List.map fst specs) @ [ body ]
  | Doc_constr e1 | Text_constr e1 -> [ e1 ]
  | Elem_constr (ns, e1) | Attr_constr (ns, e1) -> (
    match ns with Fixed_name _ -> [ e1 ] | Computed_name n -> [ n; e1 ])
  | Step (e1, _, _) -> [ e1 ]
  | Fun_call (_, args) -> args
  | Execute_at x -> (x.host :: List.map snd x.params) @ [ x.body ]
  | Insert_node (src, _, tgt) -> [ src; tgt ]
  | Delete_node tgt -> [ tgt ]
  | Replace_value (tgt, v) -> [ tgt; v ]
  | Rename_node (tgt, n) -> [ tgt; n ]

(* Variables bound by an expression for each child position; used to compute
   free variables and varref edges. Returns, per child (in the order of
   [children]), the variables in scope within that child that this node
   introduces. *)
let bound_in_children e =
  match e.desc with
  | For (v, _, _) | Let (v, _, _) -> [ []; [ v ] ]
  | Typeswitch (_, cases, dv, _) ->
    ([] :: List.map (fun (v, _, _) -> [ v ]) cases) @ [ [ dv ] ]
  | Order_by (v, _, specs, _) ->
    ([] :: List.map (fun _ -> [ v ]) specs) @ [ [ v ] ]
  | Execute_at x ->
    ([] :: List.map (fun _ -> []) x.params) @ [ List.map fst x.params ]
  | _ -> List.map (fun _ -> []) (children e)

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

let iter f e = fold (fun () x -> f x) () e

let free_vars e =
  let module S = Set.Make (String) in
  let rec go bound acc e =
    let acc =
      match e.desc with
      | Var_ref v when not (S.mem v bound) -> S.add v acc
      | _ -> acc
    in
    List.fold_left2
      (fun acc child extra ->
        go (List.fold_left (fun b v -> S.add v b) bound extra) acc child)
      acc (children e) (bound_in_children e)
  in
  S.elements (go S.empty S.empty e)

(* Rebuild an expression with new children (same shape, fresh ids only where
   the desc changes). Children must match the arity of [children e]. *)
let with_children e cs =
  let desc =
    match (e.desc, cs) with
    | (Literal _ | Var_ref _), [] -> e.desc
    | Seq _, es -> Seq es
    | For (v, _, _), [ a; b ] -> For (v, a, b)
    | Let (v, _, _), [ a; b ] -> Let (v, a, b)
    | If _, [ a; b; c ] -> If (a, b, c)
    | Typeswitch (_, cases, dv, _), e0 :: rest ->
      let rec split cases rest =
        match (cases, rest) with
        | [], [ d ] -> ([], d)
        | (v, t, _) :: cs', b :: rest' ->
          let cs'', d = split cs' rest' in
          ((v, t, b) :: cs'', d)
        | _ -> invalid_arg "with_children: typeswitch arity"
      in
      let cases', dflt = split cases rest in
      Typeswitch (e0, cases', dv, dflt)
    | Value_cmp (op, _, _), [ a; b ] -> Value_cmp (op, a, b)
    | Node_cmp (op, _, _), [ a; b ] -> Node_cmp (op, a, b)
    | Arith (op, _, _), [ a; b ] -> Arith (op, a, b)
    | And _, [ a; b ] -> And (a, b)
    | Or _, [ a; b ] -> Or (a, b)
    | Node_set (op, _, _), [ a; b ] -> Node_set (op, a, b)
    | Order_by (v, _, specs, _), e1 :: rest ->
      let rec split specs rest =
        match (specs, rest) with
        | [], [ b ] -> ([], b)
        | (_, asc) :: ss, s :: rest' ->
          let ss', b = split ss rest' in
          ((s, asc) :: ss', b)
        | _ -> invalid_arg "with_children: order_by arity"
      in
      let specs', body = split specs rest in
      Order_by (v, e1, specs', body)
    | Doc_constr _, [ a ] -> Doc_constr a
    | Text_constr _, [ a ] -> Text_constr a
    | Elem_constr (Fixed_name n, _), [ a ] -> Elem_constr (Fixed_name n, a)
    | Elem_constr (Computed_name _, _), [ n; a ] ->
      Elem_constr (Computed_name n, a)
    | Attr_constr (Fixed_name n, _), [ a ] -> Attr_constr (Fixed_name n, a)
    | Attr_constr (Computed_name _, _), [ n; a ] ->
      Attr_constr (Computed_name n, a)
    | Step (_, ax, t), [ a ] -> Step (a, ax, t)
    | Fun_call (n, _), args -> Fun_call (n, args)
    | Insert_node (_, pos, _), [ a; b ] -> Insert_node (a, pos, b)
    | Delete_node _, [ a ] -> Delete_node a
    | Replace_value _, [ a; b ] -> Replace_value (a, b)
    | Rename_node _, [ a; b ] -> Rename_node (a, b)
    | Execute_at x, host :: rest ->
      let rec split ps rest =
        match (ps, rest) with
        | [], [ b ] -> ([], b)
        | (v, _) :: ps', a :: rest' ->
          let ps'', b = split ps' rest' in
          ((v, a) :: ps'', b)
        | _ -> invalid_arg "with_children: execute_at arity"
      in
      let params, body = split x.params rest in
      Execute_at
        {
          host;
          params;
          body;
          param_paths = x.param_paths;
          result_paths = x.result_paths;
        }
    | _ -> invalid_arg "with_children: arity mismatch"
  in
  { e with desc }

(* Bottom-up transformation preserving ids of untouched nodes. *)
let rec map_bottom_up f e =
  let e' = with_children e (List.map (map_bottom_up f) (children e)) in
  f e'

(* Rename free occurrences of variable [from] to [to_]. *)
let rec rename_var ~from ~to_ e =
  match e.desc with
  | Var_ref v when v = from -> { e with desc = Var_ref to_ }
  | _ ->
    let cs = children e and bnd = bound_in_children e in
    let cs' =
      List.map2
        (fun c extra ->
          if List.mem from extra then c else rename_var ~from ~to_ c)
        cs bnd
    in
    with_children e cs'

(* Substitute expression [by] for free occurrences of variable [from].
   [by] is duplicated verbatim (same ids); callers that need distinct
   vertices must refresh ids themselves. *)
let rec subst_var ~from ~by e =
  match e.desc with
  | Var_ref v when v = from -> by
  | _ ->
    let cs = children e and bnd = bound_in_children e in
    let cs' =
      List.map2
        (fun c extra -> if List.mem from extra then c else subst_var ~from ~by c)
        cs bnd
    in
    with_children e cs'

let rec refresh_ids e =
  let e' = with_children e (List.map refresh_ids (children e)) in
  mk e'.desc

let size e = fold (fun n _ -> n + 1) 0 e

let is_updating_desc = function
  | Insert_node _ | Delete_node _ | Replace_value _ | Rename_node _ -> true
  | _ -> false

(* Does the expression contain any updating subexpression? *)
let contains_update e =
  fold (fun acc x -> acc || is_updating_desc x.desc) false e

(* The target subexpression of an updating vertex, if any. *)
let update_target e =
  match e.desc with
  | Insert_node (_, _, tgt) | Delete_node tgt | Replace_value (tgt, _)
  | Rename_node (tgt, _) ->
    Some tgt
  | _ -> None

let find_vertex e target_id =
  let found = ref None in
  iter (fun x -> if x.id = target_id then found := Some x) e;
  !found

type paths_stamp =
  (execute_at * (var * string list * string list) list * (string list * string list))
  list

let stamp_paths q =
  let stamp acc e =
    match e.desc with
    | Execute_at x -> (x, x.param_paths, x.result_paths) :: acc
    | _ -> acc
  in
  List.fold_left
    (fun acc f -> fold stamp acc f.f_body)
    (fold stamp [] q.body) q.funcs

let paths_unchanged stamp =
  List.for_all
    (fun (x, pp, rp) -> x.param_paths == pp && x.result_paths == rp)
    stamp
