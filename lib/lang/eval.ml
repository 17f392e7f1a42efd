(* The XCore evaluator. Standard environment-passing interpreter; the only
   unusual pieces are (a) path steps always return their result in
   document order without duplicates — the property whose loss under
   pass-by-value the paper's Problems 1-4 describe — and (b) Execute_at
   delegates to the environment's RPC hook. *)

module X = Xd_xml

let max_recursion = 4096

let test_matches axis test n =
  let principal_attr = axis = Ast.Attribute in
  let kind = X.Node.kind n in
  match test with
  | Ast.Kind_node -> true
  | Ast.Kind_text -> kind = X.Node.Text
  | Ast.Kind_comment -> kind = X.Node.Comment
  | Ast.Kind_element None -> kind = X.Node.Element
  | Ast.Kind_element (Some nm) -> kind = X.Node.Element && X.Node.name n = nm
  | Ast.Kind_attribute None -> kind = X.Node.Attribute
  | Ast.Kind_attribute (Some nm) ->
    kind = X.Node.Attribute && X.Node.name n = nm
  | Ast.Wildcard ->
    if principal_attr then kind = X.Node.Attribute else kind = X.Node.Element
  | Ast.Name_test nm ->
    if principal_attr then kind = X.Node.Attribute && X.Node.name n = nm
    else kind = X.Node.Element && X.Node.name n = nm

(* The forward axes walk the document arrays; the reverse and horizontal
   ones fold their lists. Like [List.fold_right], [f] sees the axis's
   nodes last to first, so consing builds them in order. *)
let fold_axis axis f n acc =
  let fold_list l = List.fold_left (fun acc m -> f m acc) acc (List.rev l) in
  match axis with
  | Ast.Child -> X.Node.fold_children f n acc
  | Ast.Descendant -> X.Node.fold_descendants f n acc
  | Ast.Descendant_or_self -> X.Node.fold_descendant_or_self f n acc
  | Ast.Attribute -> X.Node.fold_attributes f n acc
  | Ast.Self -> f n acc
  | Ast.Parent -> ( match X.Node.parent n with None -> acc | Some p -> f p acc)
  | Ast.Ancestor -> fold_list (X.Node.ancestors n)
  | Ast.Ancestor_or_self -> fold_list (X.Node.ancestor_or_self n)
  | Ast.Following -> fold_list (X.Node.following n)
  | Ast.Following_sibling -> fold_list (X.Node.following_sibling n)
  | Ast.Preceding -> fold_list (X.Node.preceding n)
  | Ast.Preceding_sibling -> fold_list (X.Node.preceding_sibling n)

(* The node test runs inside the walk. Walking the context from its last
   node back builds the result front to back. From ordered, non-nested
   context nodes a forward step is then already in document order, so
   [sort_dedup] only checks it. *)
let eval_step axis test ctx_nodes =
  let keep n acc = if test_matches axis test n then n :: acc else acc in
  let step acc n = fold_axis axis keep n acc in
  X.Seq_ops.sort_dedup (List.fold_left step [] (List.rev ctx_nodes))

let matches_sequence_type (v : Value.t) = function
  | Ast.St_empty -> v = []
  | Ast.St_items (it, occ) ->
    let count_ok =
      match occ with
      | Ast.Occ_one -> List.length v = 1
      | Ast.Occ_opt -> List.length v <= 1
      | Ast.Occ_star -> true
      | Ast.Occ_plus -> v <> []
    in
    let item_ok item =
      match (it, item) with
      | Ast.It_item, _ -> true
      | Ast.It_node, Value.N _ -> true
      | Ast.It_element nm, Value.N n ->
        X.Node.kind n = X.Node.Element
        && (match nm with None -> true | Some x -> X.Node.name n = x)
      | Ast.It_attribute nm, Value.N n ->
        X.Node.kind n = X.Node.Attribute
        && (match nm with None -> true | Some x -> X.Node.name n = x)
      | Ast.It_text, Value.N n -> X.Node.kind n = X.Node.Text
      | Ast.It_document, Value.N n -> X.Node.kind n = X.Node.Document
      | Ast.It_atomic ty, Value.A a -> (
        match (ty, a) with
        | ("xs:string" | "string"), Value.String _ -> true
        | ("xs:integer" | "integer" | "xs:int"), Value.Integer _ -> true
        | ("xs:double" | "xs:decimal" | "double" | "decimal"), Value.Double _
          ->
          true
        | ("xs:boolean" | "boolean"), Value.Boolean _ -> true
        | ("xs:untypedAtomic" | "untypedAtomic"), Value.Untyped _ -> true
        | ("xs:anyAtomicType" | "anyAtomicType"), _ -> true
        | _ -> false)
      | _, _ -> false
    in
    count_ok && List.for_all item_ok v

(* ---- Loop invariants ------------------------------------------------

   Each [For] evaluates the maximal loop-invariant subexpressions of its
   body at most once per loop instance, on first use, and a general [=]
   against one of them probes a set of its string keys instead of
   scanning it (DESIGN.md, "Loop invariants"). A body subexpression is
   invariant when none of its free variables is bound by the loop or by
   a binder between the body and it, and it holds no node constructor
   (each iteration mints fresh nodes), no execute at, no update and no
   call to a user-declared function. Literals, variable references and
   operators over nothing else are never cached: re-evaluating them costs
   less than the cache. *)

(* What the analysis knows of a body subexpression, packed in an int so
   that the walk allocates next to nothing: the depth of the shallowest
   binder inside the loop that its free variables refer to (the loop
   variable is depth 0, [no_dep] for none), whether it may be hoisted,
   and whether it is constant. *)
let no_dep = max_int lsr 2
let hoistable_bit = 2
let constant_bit = 1
let dep f = f lsr 2
let invariant f = dep f = no_dep && f land hoistable_bit <> 0
let constant f = f land constant_bit <> 0
let leaf = (no_dep lsl 2) lor hoistable_bit lor constant_bit

(* the facts of two sibling subexpressions together *)
let both a b = (min (dep a) (dep b) lsl 2) lor (a land b land 3)

(* steps, loops, lets and calls do work; constructors, execute at,
   updates and user functions must run in every iteration *)
let work f = f land lnot constant_bit
let pinned f = f land lnot (hoistable_bit lor constant_bit)

let rec binder_depth x = function
  | [] -> no_dep
  | (y, d) :: scope -> if String.equal x y then d else binder_depth x scope

(* One pass over the body. [scope] maps the variables bound inside the
   loop to their binder's depth, innermost first. Each invariant,
   non-constant node pushes itself on [found], after dropping what its
   own subtree pushed, so [found] ends up holding the maximal ones. *)
let loop_invariants funcs v body =
  let found = ref [] in
  let rec walk scope depth (e : Ast.expr) =
    let mark = !found in
    let f =
      match e.desc with
      | Ast.Literal _ -> leaf
      | Ast.Var_ref x -> (binder_depth x scope lsl 2) lor (leaf land 3)
      | Ast.Seq es -> walk_list scope depth leaf es
      | Ast.If (a, b, c) ->
        both (walk scope depth a) (both (walk scope depth b) (walk scope depth c))
      | Ast.Value_cmp (_, a, b)
      | Ast.Node_cmp (_, a, b)
      | Ast.Arith (_, a, b)
      | Ast.And (a, b)
      | Ast.Or (a, b) ->
        both (walk scope depth a) (walk scope depth b)
      | Ast.For (x, a, b) | Ast.Let (x, a, b) ->
        work (both (walk scope depth a) (walk_bound scope depth x b))
      | Ast.Typeswitch (a, cases, dv, dflt) ->
        let case f (x, _, b) = both f (walk_bound scope depth x b) in
        let f = List.fold_left case (walk scope depth a) cases in
        work (both f (walk_bound scope depth dv dflt))
      | Ast.Order_by (x, a, specs, b) ->
        let spec f (s, _) = both f (walk_bound scope depth x s) in
        let f = List.fold_left spec (walk scope depth a) specs in
        work (both f (walk_bound scope depth x b))
      | Ast.Node_set (_, a, b) -> work (both (walk scope depth a) (walk scope depth b))
      | Ast.Step (a, _, _) -> work (walk scope depth a)
      | Ast.Fun_call (name, args) ->
        let f = walk_list scope depth leaf args in
        if Builtin_names.is_builtin name && not (Env.Smap.mem name funcs) then
          work f
        else pinned f
      | Ast.Execute_at x ->
        (* the body runs elsewhere, with its parameters alone *)
        let param f (_, p) = both f (walk scope depth p) in
        pinned (List.fold_left param (walk scope depth x.host) x.params)
      | Ast.Doc_constr a | Ast.Text_constr a | Ast.Delete_node a
      | Ast.Elem_constr (Ast.Fixed_name _, a)
      | Ast.Attr_constr (Ast.Fixed_name _, a) ->
        pinned (walk scope depth a)
      | Ast.Elem_constr (Ast.Computed_name a, b)
      | Ast.Attr_constr (Ast.Computed_name a, b)
      | Ast.Insert_node (a, _, b)
      | Ast.Replace_value (a, b)
      | Ast.Rename_node (a, b) ->
        pinned (both (walk scope depth a) (walk scope depth b))
    in
    if invariant f then found := if constant f then mark else e :: mark;
    f
  and walk_list scope depth f = function
    | [] -> f
    | e :: es -> walk_list scope depth (both f (walk scope depth e)) es
  (* [e] in the scope of [x], bound by a node at [depth]: what that node
     binds is no dependency of its own *)
  and walk_bound scope depth x e =
    let f = walk ((x, depth + 1) :: scope) (depth + 1) e in
    if dep f > depth then (no_dep lsl 2) lor (f land 3) else f
  in
  ignore (walk [ (v, 0) ] 0 body);
  match !found with
  | [] -> []
  | found ->
    (* a subexpression shared by two places of the body may be invariant
       at one and not at the other: then cache nothing *)
    let seen =
      Ast.fold (fun n x -> if List.memq x found then n + 1 else n) 0 body
    in
    if seen = List.length found then found else []

(* A [For] vertex with invariants is analysed once, for the function
   declarations it was judged against. One without is walked again on
   each instance: a server parses every call's body afresh, and an
   ephemeron per call costs several times the walk. *)
module Loop_memo = Ephemeron.K1.Make (struct
  type t = Ast.expr

  let equal = ( == )
  let hash (e : Ast.expr) = e.id
end)

let loop_memo : (Ast.func Env.Smap.t * Ast.expr list) Loop_memo.t =
  Loop_memo.create 64

let invariants_of (env : Env.t) (loop : Ast.expr) v body =
  match Loop_memo.find_opt loop_memo loop with
  | Some (funcs, found) when funcs == env.Env.funcs -> found
  | _ ->
    let found = loop_invariants env.Env.funcs v body in
    if found <> [] then
      Loop_memo.replace loop_memo loop (env.Env.funcs, found);
    found

(* An invariant of an enclosing loop instance stays cached there. *)
let enter_loop (env : Env.t) loop v body =
  let active x = List.exists (fun (c : Env.invariant) -> c.expr == x) in
  match invariants_of env loop v body with
  | [] -> env
  | found ->
    let add acc expr =
      if active expr env.Env.invariants then acc
      else { Env.expr; value = None; probe = Env.Unbuilt } :: acc
    in
    { env with Env.invariants = List.fold_left add env.Env.invariants found }

let rec find_invariant e = function
  | [] -> None
  | (c : Env.invariant) :: rest ->
    if c.expr == e then Some c else find_invariant e rest

let is_text = function Value.String _ | Value.Untyped _ -> true | _ -> false

let probe_of v =
  let atoms = Value.atomize v in
  if List.for_all is_text atoms then begin
    let keys = Hashtbl.create (List.length atoms) in
    List.iter (fun a -> Hashtbl.replace keys (Value.atom_to_string a) ()) atoms;
    Env.Strings keys
  end
  else Env.Mixed

(* [Value.general_compare Eq va vb] where [cached] holds one operand's
   value. String and untypedAtomic atoms compare as strings, never raise
   and commute, so when both sides hold nothing else a lookup decides;
   otherwise the pairwise scan's order and promotions do. *)
let equal_cached (c : Env.invariant) cached other va vb =
  let probe =
    match c.probe with
    | Env.Unbuilt ->
      let p = probe_of cached in
      c.probe <- p;
      p
    | p -> p
  in
  match probe with
  | Env.Strings keys ->
    let atoms = Value.atomize other in
    if List.for_all is_text atoms then
      List.exists (fun a -> Hashtbl.mem keys (Value.atom_to_string a)) atoms
    else Value.general_compare Ast.Eq va vb
  | Env.Mixed | Env.Unbuilt -> Value.general_compare Ast.Eq va vb

let compare_operands (env : Env.t) op a va b vb =
  match (op, env.Env.invariants) with
  | Ast.Eq, (_ :: _ as invs) -> (
    match (find_invariant b invs, find_invariant a invs) with
    | Some c, _ -> equal_cached c vb va va vb
    | None, Some c -> equal_cached c va vb va vb
    | None, None -> Value.general_compare op va vb)
  | _ -> Value.general_compare op va vb

let rec eval (env : Env.t) (e : Ast.expr) : Value.t =
  match env.Env.invariants with
  | [] -> eval_hooked env e
  | invs -> (
    match find_invariant e invs with
    | Some c -> invariant_value env c
    | None -> eval_hooked env e)

(* Evaluated on first use; a raise caches nothing. *)
and invariant_value env (c : Env.invariant) =
  match c.value with
  | Some v -> v
  | None ->
    let v = eval_hooked env c.expr in
    c.value <- Some v;
    v

and eval_hooked (env : Env.t) (e : Ast.expr) : Value.t =
  (* the scheduling hook gets first refusal on the vertices that can
     anchor an overlap group; [None] means "no schedule here" and falls
     through to plain sequential evaluation *)
  match (env.Env.schedule, e.desc) with
  | Some f, (Ast.Seq _ | Ast.Let _ | Ast.For _) -> (
    match f env e with Some v -> v | None -> eval_desc env e)
  | _ -> eval_desc env e

and eval_desc (env : Env.t) (e : Ast.expr) : Value.t =
  match e.desc with
  | Ast.Literal (Ast.A_string s) -> Value.of_string s
  | Ast.Literal (Ast.A_int i) -> Value.of_int i
  | Ast.Literal (Ast.A_float f) -> Value.of_float f
  | Ast.Literal (Ast.A_bool b) -> Value.of_bool b
  | Ast.Var_ref v -> Env.lookup env v
  | Ast.Seq es -> List.concat_map (eval env) es
  | Ast.For (v, e1, e2) ->
    let seq = eval env e1 in
    (* one iteration or none has nothing to share *)
    let env =
      match seq with _ :: _ :: _ -> enter_loop env e v e2 | _ -> env
    in
    List.concat_map (fun item -> eval (Env.bind env v [ item ]) e2) seq
  | Ast.Let (v, e1, e2) -> eval (Env.bind env v (eval env e1)) e2
  | Ast.If (c, t, f) ->
    if Value.effective_boolean_value (eval env c) then eval env t
    else eval env f
  | Ast.Typeswitch (e0, cases, dv, dflt) ->
    let v0 = eval env e0 in
    let rec try_cases = function
      | [] -> eval (Env.bind env dv v0) dflt
      | (v, st, body) :: rest ->
        if matches_sequence_type v0 st then eval (Env.bind env v v0) body
        else try_cases rest
    in
    try_cases cases
  | Ast.Value_cmp (op, a, b) ->
    (* the right operand first, as the pairwise scan has always had it *)
    let vb = eval env b in
    let va = eval env a in
    Value.of_bool (compare_operands env op a va b vb)
  | Ast.Node_cmp (op, a, b) -> (
    let get name v =
      match v with
      | [] -> None
      | [ Value.N n ] -> Some n
      | _ -> Env.dynamic_error "operand of %s must be a single node" name
    in
    let na = get (Pp.node_comp_name op) (eval env a) in
    let nb = get (Pp.node_comp_name op) (eval env b) in
    match (na, nb) with
    | None, _ | _, None -> []
    | Some x, Some y ->
      Value.of_bool
        (match op with
        | Ast.Is -> X.Node.same x y
        | Ast.Precedes -> X.Node.compare_order x y < 0
        | Ast.Follows -> X.Node.compare_order x y > 0))
  | Ast.Arith (op, a, b) -> Value.arith op (eval env a) (eval env b)
  | Ast.And (a, b) ->
    Value.of_bool
      (Value.effective_boolean_value (eval env a)
      && Value.effective_boolean_value (eval env b))
  | Ast.Or (a, b) ->
    Value.of_bool
      (Value.effective_boolean_value (eval env a)
      || Value.effective_boolean_value (eval env b))
  | Ast.Order_by (v, e1, specs, body) ->
    let items = eval env e1 in
    let keyed =
      List.map
        (fun item ->
          let ienv = Env.bind env v [ item ] in
          let keys =
            List.map
              (fun (spec, asc) ->
                let k =
                  match Value.atomize (eval ienv spec) with
                  | [] -> None
                  | [ a ] -> Some a
                  | _ ->
                    Env.dynamic_error
                      "order by key must be zero or one atomic value"
                in
                (k, asc))
              specs
          in
          (keys, item))
        items
    in
    let compare_keys (ka, _) (kb, _) =
      let rec go ka kb =
        match (ka, kb) with
        | [], [] -> 0
        | (a, asc) :: ra, (b, _) :: rb ->
          let c = Value.order_compare a b in
          let c = if asc then c else -c in
          if c <> 0 then c else go ra rb
        | _ -> 0
      in
      go ka kb
    in
    let sorted = List.stable_sort compare_keys keyed in
    List.concat_map (fun (_, item) -> eval (Env.bind env v [ item ]) body) sorted
  | Ast.Node_set (op, a, b) ->
    let na = Value.nodes_of (eval env a) in
    let nb = Value.nodes_of (eval env b) in
    let res =
      match op with
      | Ast.Union -> X.Seq_ops.union na nb
      | Ast.Intersect -> X.Seq_ops.intersect na nb
      | Ast.Except -> X.Seq_ops.except na nb
    in
    List.map (fun n -> Value.N n) res
  | Ast.Doc_constr e1 ->
    [ Value.N (Construct.document env.Env.store (eval env e1)) ]
  | Ast.Text_constr e1 -> (
    let s =
      String.concat "" (List.map Value.atom_to_string (Value.atomize (eval env e1)))
    in
    if s = "" then [] else [ Value.N (Construct.text env.Env.store s) ])
  | Ast.Elem_constr (ns, e1) ->
    let name = eval_name env ns in
    [ Value.N (Construct.element env.Env.store name (eval env e1)) ]
  | Ast.Attr_constr (ns, e1) ->
    let name = eval_name env ns in
    let value =
      String.concat " " (List.map Value.atom_to_string (Value.atomize (eval env e1)))
    in
    [ Value.N (Construct.attribute env.Env.store name value) ]
  | Ast.Step (e1, axis, test) ->
    let ctx = eval env e1 in
    let nodes = Value.nodes_of ctx in
    let res = eval_step axis test nodes in
    (match env.Env.observe with
    | None -> ()
    | Some f -> List.iter f res);
    List.map (fun n -> Value.N n) res
  | Ast.Fun_call (name, args) -> eval_fun_call env name args
  | Ast.Execute_at x ->
    let host = Value.string_value (eval env x.host) in
    let args = List.map (fun (v, pe) -> (v, eval env pe)) x.params in
    env.Env.execute_at env x ~host ~args
  | Ast.Insert_node (src, pos, tgt) ->
    let content = Update.content_of_value (eval env src) in
    let target = update_target env "insert" tgt in
    (match pos with
    | Ast.Into ->
      target_kind "XUTY0005" "insert into"
        [ X.Node.Element; X.Node.Document ]
        target
    | Ast.Before | Ast.After ->
      (* a document node is both parentless and of the wrong kind; either
         error may be raised, and the parent check goes first *)
      if X.Node.parent target = None then
        Env.dynamic_error
          "err:XUDY0029: insert before/after: the target has no parent";
      target_kind "XUTY0006" "insert before/after"
        [ X.Node.Element; X.Node.Text; X.Node.Comment; X.Node.Pi ]
        target);
    add_pending env (Pul.P_insert (target, pos, content))
  | Ast.Delete_node tgt ->
    (* delete accepts a whole sequence of targets *)
    let targets = Value.nodes_of (eval env tgt) in
    List.iter (fun n -> ignore (add_pending env (Pul.P_delete n))) targets;
    []
  | Ast.Replace_value (tgt, v) ->
    let target = update_target env "replace value of" tgt in
    if X.Node.kind target = X.Node.Document then
      Env.dynamic_error
        "err:XUTY0008: replace value of: the target is of kind document-node";
    let s =
      String.concat " "
        (List.map Value.atom_to_string (Value.atomize (eval env v)))
    in
    add_pending env (Pul.P_replace_value (target, s))
  | Ast.Rename_node (tgt, n) ->
    let target = update_target env "rename" tgt in
    target_kind "XUTY0012" "rename"
      [ X.Node.Element; X.Node.Attribute; X.Node.Pi ]
      target;
    add_pending env (Pul.P_rename (target, Value.string_value (eval env n)))

and update_target env what tgt =
  match eval env tgt with
  | [ Value.N n ] -> n
  | _ ->
    Env.dynamic_error "%s: target must evaluate to exactly one node" what

(* XQUF 1.0's type errors for a target of the wrong kind, raised while
   the pending update list is built *)
and target_kind code what kinds target =
  let k = X.Node.kind target in
  if not (List.mem k kinds) then
    Env.dynamic_error "err:%s: %s: the target is of kind %s" code what
      (X.Node.kind_to_string k)

and add_pending env p =
  match env.Env.pul with
  | Some pul ->
    Pul.add pul p;
    []
  | None ->
    Env.dynamic_error "updating expression in a read-only context"

and eval_name env = function

  | Ast.Fixed_name n -> n
  | Ast.Computed_name e -> Value.string_value (eval env e)

and eval_fun_call env name args =
  match Env.lookup_func env name with
  | Some f ->
    if List.length args <> List.length f.Ast.f_params then
      Env.dynamic_error "function %s expects %d argument(s), got %d" name
        (List.length f.Ast.f_params)
        (List.length args);
    if env.Env.recursion_depth > max_recursion then
      Env.dynamic_error "recursion limit exceeded in %s" name;
    let bound =
      List.fold_left2
        (fun acc (v, _ty) arg -> Env.Smap.add v (eval env arg) acc)
        Env.Smap.empty f.Ast.f_params args
    in
    let call_env = { env with Env.vars = bound; invariants = [] } in
    call_env.Env.recursion_depth <- env.Env.recursion_depth + 1;
    let r = eval call_env f.Ast.f_body in
    call_env.Env.recursion_depth <- env.Env.recursion_depth;
    r
  | None -> (
    match Hashtbl.find_opt env.Env.builtins name with
    | Some f -> f env (List.map (eval env) args)
    | None -> Env.dynamic_error "unknown function %s()" name)

(* Local (non-distributed) execute-at handler: evaluates the body in place,
   sharing the store, so node identity is fully preserved. This is the
   reference semantics that a decomposed query must reproduce. *)
let local_execute_at env (x : Ast.execute_at) ~host:_ ~args =
  let vars =
    List.fold_left
      (fun acc (v, value) -> Env.Smap.add v value acc)
      Env.Smap.empty args
  in
  eval { env with Env.vars = vars; invariants = [] } x.Ast.body

let default_env ?vars ?funcs ?resolve_doc ?execute_at ?pul store =
  let execute_at =
    match execute_at with Some h -> h | None -> local_execute_at
  in
  Env.create ?vars ?funcs ?resolve_doc ~execute_at ~builtins:(Builtins.table ())
    ?pul store

(* Evaluate and then apply the pending update list (snapshot semantics:
   the result is computed against the pre-update state). *)
let eval_and_apply env e =
  let v = eval env e in
  (match env.Env.pul with
  | Some pul when not (Pul.is_empty pul) ->
    ignore (Update.apply [ env.Env.store ] (Pul.list pul))
  | _ -> ());
  v

(* Convenience: parse and run a full query against a store. *)
let run ?resolve_doc ?execute_at store src =
  let q = Parser.parse_query src in
  let env =
    default_env ~funcs:q.Ast.funcs ?resolve_doc ?execute_at
      ~pul:(Pul.create ()) store
  in
  eval_and_apply env q.Ast.body

let run_query ?resolve_doc ?execute_at store (q : Ast.query) =
  let env =
    default_env ~funcs:q.Ast.funcs ?resolve_doc ?execute_at
      ~pul:(Pul.create ()) store
  in
  eval_and_apply env q.Ast.body
