(* Recursive-descent parser producing XCore ASTs. Surface conveniences are
   desugared at parse time so that downstream analysis sees only Table II
   constructs:
   - predicates  E[p]      -> for $dot in E return if (p') then $dot else ()
     (numeric literal predicates use the fn:item-at builtin)
   - E[p] with p positional other than a literal integer is rejected
   - where clauses         -> if/then/else ()
   - //                    -> /descendant-or-self::node()/
   - @name, .., .          -> attribute::name, parent::node(), context var
   - direct constructors   -> element/attribute/text constructors
   - execute at {h}{f(a)}  -> Execute_at with fresh parameters (rule 27/28)

   Keywords are recognized contextually (XQuery does not reserve words). *)

exception Error of string * int

type t = {
  lx : Lexer.t;
  mutable ctx_var : Ast.var option; (* context item inside predicates *)
  mutable fresh : int;
}

let fail p msg = raise (Error (msg, Lexer.raw_start p.lx))

let failf p fmt = Format.kasprintf (fun s -> fail p s) fmt

let cur p = Lexer.current p.lx
let adv p = Lexer.advance p.lx

let eat p tok =
  if cur p = tok then adv p
  else
    failf p "expected %s, found %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string (cur p))

let eat_name p kw =
  match cur p with
  | Lexer.NAME n when n = kw -> adv p
  | t -> failf p "expected %s, found %s" kw (Lexer.token_to_string t)

let is_name p kw = match cur p with Lexer.NAME n -> n = kw | _ -> false

let fresh_var p prefix =
  p.fresh <- p.fresh + 1;
  Printf.sprintf "%s__%d" prefix p.fresh

let parse_var p =
  eat p Lexer.DOLLAR;
  match cur p with
  | Lexer.NAME n ->
    adv p;
    n
  | t -> failf p "expected variable name, found %s" (Lexer.token_to_string t)

(* ---- sequence types ---------------------------------------------------- *)

let parse_occurrence p =
  match cur p with
  | Lexer.QMARK ->
    adv p;
    Ast.Occ_opt
  | Lexer.STAR ->
    adv p;
    Ast.Occ_star
  | Lexer.PLUS ->
    adv p;
    Ast.Occ_plus
  | _ -> Ast.Occ_one

let parse_sequence_type p =
  match cur p with
  | Lexer.NAME "empty-sequence" ->
    adv p;
    eat p Lexer.LPAR;
    eat p Lexer.RPAR;
    Ast.St_empty
  | Lexer.NAME n ->
    adv p;
    let with_optional_name () =
      eat p Lexer.LPAR;
      let nm =
        match cur p with
        | Lexer.NAME x ->
          adv p;
          Some x
        | Lexer.STAR ->
          adv p;
          None
        | _ -> None
      in
      eat p Lexer.RPAR;
      nm
    in
    let it =
      match n with
      | "node" ->
        eat p Lexer.LPAR;
        eat p Lexer.RPAR;
        Ast.It_node
      | "item" ->
        eat p Lexer.LPAR;
        eat p Lexer.RPAR;
        Ast.It_item
      | "text" ->
        eat p Lexer.LPAR;
        eat p Lexer.RPAR;
        Ast.It_text
      | "document-node" ->
        eat p Lexer.LPAR;
        eat p Lexer.RPAR;
        Ast.It_document
      | "element" -> Ast.It_element (with_optional_name ())
      | "attribute" -> Ast.It_attribute (with_optional_name ())
      | _ -> Ast.It_atomic n (* xs:string, xs:integer, xs:boolean ... *)
    in
    Ast.St_items (it, parse_occurrence p)
  | t -> failf p "expected sequence type, found %s" (Lexer.token_to_string t)

(* ---- node tests --------------------------------------------------------- *)

let parse_node_test p =
  match cur p with
  | Lexer.STAR ->
    adv p;
    Ast.Wildcard
  | Lexer.NAME n -> (
    adv p;
    match (n, cur p) with
    | "node", Lexer.LPAR ->
      adv p;
      eat p Lexer.RPAR;
      Ast.Kind_node
    | "text", Lexer.LPAR ->
      adv p;
      eat p Lexer.RPAR;
      Ast.Kind_text
    | "comment", Lexer.LPAR ->
      adv p;
      eat p Lexer.RPAR;
      Ast.Kind_comment
    | "element", Lexer.LPAR ->
      adv p;
      let nm =
        match cur p with
        | Lexer.NAME x ->
          adv p;
          Some x
        | _ -> None
      in
      eat p Lexer.RPAR;
      Ast.Kind_element nm
    | "attribute", Lexer.LPAR ->
      adv p;
      let nm =
        match cur p with
        | Lexer.NAME x ->
          adv p;
          Some x
        | _ -> None
      in
      eat p Lexer.RPAR;
      Ast.Kind_attribute nm
    | _ -> Ast.Name_test n)
  | t -> failf p "expected node test, found %s" (Lexer.token_to_string t)

let axis_of_name = function
  | "child" -> Some Ast.Child
  | "descendant" -> Some Ast.Descendant
  | "descendant-or-self" -> Some Ast.Descendant_or_self
  | "self" -> Some Ast.Self
  | "attribute" -> Some Ast.Attribute
  | "parent" -> Some Ast.Parent
  | "ancestor" -> Some Ast.Ancestor
  | "ancestor-or-self" -> Some Ast.Ancestor_or_self
  | "following" -> Some Ast.Following
  | "following-sibling" -> Some Ast.Following_sibling
  | "preceding" -> Some Ast.Preceding
  | "preceding-sibling" -> Some Ast.Preceding_sibling
  | _ -> None

(* ---- expressions --------------------------------------------------------- *)

let rec parse_expr p =
  let e1 = parse_expr_single p in
  if cur p = Lexer.COMMA then begin
    let rec more acc =
      if cur p = Lexer.COMMA then begin
        adv p;
        more (parse_expr_single p :: acc)
      end
      else List.rev acc
    in
    Ast.mk (Ast.Seq (more [ e1 ]))
  end
  else e1

and parse_expr_single p =
  match cur p with
  | Lexer.NAME "for" | Lexer.NAME "let" -> parse_flwor p
  | Lexer.NAME "if" -> parse_if p
  | Lexer.NAME "typeswitch" -> parse_typeswitch p
  | Lexer.NAME "execute" -> parse_execute_at p
  | Lexer.NAME "insert" when next_name_is p "node" -> parse_insert p
  | Lexer.NAME "delete" when next_name_is p "node" -> parse_delete p
  | Lexer.NAME "replace" when next_name_is p "value" -> parse_replace p
  | Lexer.NAME "rename" when next_name_is p "node" -> parse_rename p
  | _ -> parse_or p

(* peek whether the raw source after the current NAME token continues with
   the given word (keywords are contextual) *)
and next_name_is p word =
  let lx = p.lx in
  let src = lx.Lexer.src in
  let rec skip i =
    if
      i < String.length src
      && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r')
    then skip (i + 1)
    else i
  in
  let i = skip lx.Lexer.pos in
  let n = String.length word in
  i + n <= String.length src
  && String.sub src i n = word
  && (i + n = String.length src || not (Lexer.is_name_char src.[i + n]))

(* XQUF subset (rules follow the XQuery Update Facility surface syntax):
   insert node E (into|before|after) E / delete node E /
   replace value of node E with E / rename node E as E *)
and parse_insert p =
  eat_name p "insert";
  eat_name p "node";
  let src = parse_expr_single p in
  let pos =
    match cur p with
    | Lexer.NAME "into" ->
      adv p;
      Ast.Into
    | Lexer.NAME "before" ->
      adv p;
      Ast.Before
    | Lexer.NAME "after" ->
      adv p;
      Ast.After
    | t ->
      failf p "expected into/before/after, found %s" (Lexer.token_to_string t)
  in
  let tgt = parse_expr_single p in
  Ast.mk (Ast.Insert_node (src, pos, tgt))

and parse_delete p =
  eat_name p "delete";
  eat_name p "node";
  Ast.mk (Ast.Delete_node (parse_expr_single p))

and parse_replace p =
  eat_name p "replace";
  eat_name p "value";
  eat_name p "of";
  eat_name p "node";
  let tgt = parse_expr_single p in
  eat_name p "with";
  Ast.mk (Ast.Replace_value (tgt, parse_expr_single p))

and parse_rename p =
  eat_name p "rename";
  eat_name p "node";
  let tgt = parse_expr_single p in
  eat_name p "as";
  Ast.mk (Ast.Rename_node (tgt, parse_expr_single p))

and parse_flwor p =
  (* clauses, then optional where, optional order by, then return *)
  let clauses = ref [] in
  let rec collect () =
    match cur p with
    | Lexer.NAME "for" ->
      adv p;
      let rec vars () =
        let v = parse_var p in
        eat_name p "in";
        let e = parse_expr_single p in
        clauses := `For (v, e) :: !clauses;
        if cur p = Lexer.COMMA then begin
          adv p;
          vars ()
        end
      in
      vars ();
      collect ()
    | Lexer.NAME "let" ->
      adv p;
      let rec vars () =
        let v = parse_var p in
        eat p Lexer.ASSIGN;
        let e = parse_expr_single p in
        clauses := `Let (v, e) :: !clauses;
        if cur p = Lexer.COMMA then begin
          adv p;
          vars ()
        end
      in
      vars ();
      collect ()
    | _ -> ()
  in
  collect ();
  let where =
    if is_name p "where" then begin
      adv p;
      Some (parse_expr_single p)
    end
    else None
  in
  let order =
    if is_name p "order" then begin
      adv p;
      eat_name p "by";
      let rec specs acc =
        let e = parse_expr_single p in
        let asc =
          if is_name p "ascending" then begin
            adv p;
            true
          end
          else if is_name p "descending" then begin
            adv p;
            false
          end
          else true
        in
        if cur p = Lexer.COMMA then begin
          adv p;
          specs ((e, asc) :: acc)
        end
        else List.rev ((e, asc) :: acc)
      in
      Some (specs [])
    end
    else None
  in
  eat_name p "return";
  let body = parse_expr_single p in
  let body =
    match where with
    | None -> body
    | Some c -> Ast.mk (Ast.If (c, body, Ast.empty_seq ()))
  in
  (* Fold clauses back; order by attaches to the innermost for clause. *)
  let rec build clauses body ord =
    match clauses with
    | [] -> body
    | `For (v, e) :: rest -> (
      match ord with
      | Some specs -> build rest (Ast.mk (Ast.Order_by (v, e, specs, body))) None
      | None -> build rest (Ast.mk (Ast.For (v, e, body))) None)
    | `Let (v, e) :: rest -> build rest (Ast.mk (Ast.Let (v, e, body))) ord
  in
  (match (order, !clauses) with
  | Some _, [] -> fail p "order by requires a for clause"
  | Some _, `Let _ :: _ ->
    fail p "order by must directly follow a for clause in this subset"
  | _ -> ());
  build !clauses body order

and parse_if p =
  eat_name p "if";
  eat p Lexer.LPAR;
  let c = parse_expr p in
  eat p Lexer.RPAR;
  eat_name p "then";
  let t = parse_expr_single p in
  eat_name p "else";
  let e = parse_expr_single p in
  Ast.mk (Ast.If (c, t, e))

and parse_typeswitch p =
  eat_name p "typeswitch";
  eat p Lexer.LPAR;
  let e0 = parse_expr p in
  eat p Lexer.RPAR;
  let rec cases acc =
    if is_name p "case" then begin
      adv p;
      let v = parse_var p in
      eat_name p "as";
      let st = parse_sequence_type p in
      eat_name p "return";
      let b = parse_expr_single p in
      cases ((v, st, b) :: acc)
    end
    else List.rev acc
  in
  let cs = cases [] in
  if cs = [] then fail p "typeswitch requires at least one case";
  eat_name p "default";
  let dv =
    if cur p = Lexer.DOLLAR then parse_var p else fresh_var p "default"
  in
  eat_name p "return";
  let d = parse_expr_single p in
  Ast.mk (Ast.Typeswitch (e0, cs, dv, d))

and parse_execute_at p =
  eat_name p "execute";
  eat_name p "at";
  eat p Lexer.LBRACE;
  let host = parse_expr p in
  eat p Lexer.RBRACE;
  if is_name p "function" then begin
    (* rule 27 anonymous-function form:
       execute at {E} function ($p := expr, ...) { body } *)
    adv p;
    eat p Lexer.LPAR;
    let rec params acc =
      if cur p = Lexer.RPAR then List.rev acc
      else begin
        let v = parse_var p in
        eat p Lexer.ASSIGN;
        let e = parse_expr_single p in
        let acc = (v, e) :: acc in
        if cur p = Lexer.COMMA then begin
          adv p;
          params acc
        end
        else List.rev acc
      end
    in
    let params = params [] in
    eat p Lexer.RPAR;
    eat p Lexer.LBRACE;
    let body = parse_expr p in
    eat p Lexer.RBRACE;
    Ast.mk_execute_at ~host ~params ~body
  end
  else begin
    (* surface form: execute at {E} { f(a1, ..., an) } *)
    eat p Lexer.LBRACE;
    let fname =
      match cur p with
      | Lexer.NAME n ->
        adv p;
        n
      | t -> failf p "expected function name, found %s" (Lexer.token_to_string t)
    in
    eat p Lexer.LPAR;
    let rec args acc =
      if cur p = Lexer.RPAR then List.rev acc
      else begin
        let e = parse_expr_single p in
        let acc = e :: acc in
        if cur p = Lexer.COMMA then begin
          adv p;
          args acc
        end
        else List.rev acc
      end
    in
    let args = args [] in
    eat p Lexer.RPAR;
    eat p Lexer.RBRACE;
    let params =
      List.map (fun a -> (fresh_var p "arg", a)) args
    in
    let body =
      Ast.fun_call fname (List.map (fun (v, _) -> Ast.var v) params)
    in
    Ast.mk_execute_at ~host ~params ~body
  end

and parse_or p =
  let rec loop acc =
    if is_name p "or" then begin
      adv p;
      loop (Ast.mk (Ast.Or (acc, parse_and p)))
    end
    else acc
  in
  loop (parse_and p)

and parse_and p =
  let rec loop acc =
    if is_name p "and" then begin
      adv p;
      loop (Ast.mk (Ast.And (acc, parse_comparison p)))
    end
    else acc
  in
  loop (parse_comparison p)

and parse_comparison p =
  let l = parse_additive p in
  let mk_v op =
    adv p;
    Ast.mk (Ast.Value_cmp (op, l, parse_additive p))
  in
  let mk_n op =
    adv p;
    Ast.mk (Ast.Node_cmp (op, l, parse_additive p))
  in
  match cur p with
  | Lexer.EQ -> mk_v Ast.Eq
  | Lexer.NE -> mk_v Ast.Ne
  | Lexer.LT -> mk_v Ast.Lt
  | Lexer.LE -> mk_v Ast.Le
  | Lexer.GT -> mk_v Ast.Gt
  | Lexer.GE -> mk_v Ast.Ge
  | Lexer.LTLT -> mk_n Ast.Precedes
  | Lexer.GTGT -> mk_n Ast.Follows
  | Lexer.NAME "is" -> mk_n Ast.Is
  | _ -> l

and parse_additive p =
  let rec loop acc =
    match cur p with
    | Lexer.PLUS ->
      adv p;
      loop (Ast.mk (Ast.Arith (Ast.Add, acc, parse_multiplicative p)))
    | Lexer.MINUS ->
      adv p;
      loop (Ast.mk (Ast.Arith (Ast.Sub, acc, parse_multiplicative p)))
    | _ -> acc
  in
  loop (parse_multiplicative p)

and parse_multiplicative p =
  let rec loop acc =
    match cur p with
    | Lexer.STAR ->
      adv p;
      loop (Ast.mk (Ast.Arith (Ast.Mul, acc, parse_union p)))
    | Lexer.NAME "div" ->
      adv p;
      loop (Ast.mk (Ast.Arith (Ast.Div, acc, parse_union p)))
    | Lexer.NAME "idiv" ->
      adv p;
      loop (Ast.mk (Ast.Arith (Ast.Idiv, acc, parse_union p)))
    | Lexer.NAME "mod" ->
      adv p;
      loop (Ast.mk (Ast.Arith (Ast.Mod, acc, parse_union p)))
    | _ -> acc
  in
  loop (parse_union p)

and parse_union p =
  let rec loop acc =
    match cur p with
    | Lexer.PIPE | Lexer.NAME "union" ->
      adv p;
      loop (Ast.mk (Ast.Node_set (Ast.Union, acc, parse_intersect p)))
    | _ -> acc
  in
  loop (parse_intersect p)

and parse_intersect p =
  let rec loop acc =
    match cur p with
    | Lexer.NAME "intersect" ->
      adv p;
      loop (Ast.mk (Ast.Node_set (Ast.Intersect, acc, parse_path p)))
    | Lexer.NAME "except" ->
      adv p;
      loop (Ast.mk (Ast.Node_set (Ast.Except, acc, parse_path p)))
    | _ -> acc
  in
  loop (parse_path p)

and parse_path p =
  (* leading / or // needs a context item to find the document root *)
  let leading_root () =
    match p.ctx_var with
    | Some v -> Ast.fun_call "root" [ Ast.var v ]
    | None -> fail p "absolute path without a context item"
  in
  let start =
    match cur p with
    | Lexer.SLASH ->
      adv p;
      let root = leading_root () in
      (* bare "/" or "/step..." *)
      if starts_step p then parse_rel_path p root else root
    | Lexer.DSLASH ->
      adv p;
      let root = leading_root () in
      let dos = Ast.step root Ast.Descendant_or_self Ast.Kind_node in
      parse_rel_path p dos
    | _ ->
      let first = parse_step_or_primary p in
      if cur p = Lexer.SLASH then begin
        adv p;
        parse_rel_path p first
      end
      else if cur p = Lexer.DSLASH then begin
        adv p;
        parse_rel_path p (Ast.step first Ast.Descendant_or_self Ast.Kind_node)
      end
      else first
  in
  start

and starts_step p =
  match cur p with
  | Lexer.NAME _ | Lexer.STAR | Lexer.AT | Lexer.DOTDOT | Lexer.DOT -> true
  | _ -> false

and parse_rel_path p ctx =
  let e = parse_axis_step p ctx in
  match cur p with
  | Lexer.SLASH ->
    adv p;
    parse_rel_path p e
  | Lexer.DSLASH ->
    adv p;
    parse_rel_path p (Ast.step e Ast.Descendant_or_self Ast.Kind_node)
  | _ -> e

(* A step applied to an explicit context expression (after '/'). *)
and parse_axis_step p ctx =
  let e =
    match cur p with
    | Lexer.AT ->
      adv p;
      Ast.step ctx Ast.Attribute (parse_node_test p)
    | Lexer.DOTDOT ->
      adv p;
      Ast.step ctx Ast.Parent Ast.Kind_node
    | Lexer.DOT ->
      adv p;
      ctx
    | Lexer.NAME n when axis_of_name n <> None && peek_dcolon p ->
      adv p;
      eat p Lexer.DCOLON;
      let axis = Option.get (axis_of_name n) in
      Ast.step ctx axis (parse_node_test p)
    | _ -> Ast.step ctx Ast.Child (parse_node_test p)
  in
  parse_predicates p e

and peek_dcolon p =
  (* The lexer has one-token lookahead only; check raw source after the
     current NAME token for "::". *)
  let lx = p.lx in
  let src = lx.Lexer.src in
  let pos = lx.Lexer.pos in
  pos + 1 < String.length src && src.[pos] = ':' && src.[pos + 1] = ':'

(* First step of a relative path, or a primary expression. *)
and parse_step_or_primary p =
  match cur p with
  | Lexer.AT | Lexer.DOTDOT ->
    let ctx = context_var p in
    parse_axis_step p ctx
  | Lexer.DOT ->
    adv p;
    parse_predicates p (context_var p)
  | Lexer.NAME n when axis_of_name n <> None && peek_dcolon p ->
    let ctx = context_var p in
    parse_axis_step p ctx
  | Lexer.NAME n when is_constructor_keyword p n -> parse_computed_constructor p
  | Lexer.NAME _ when peek_lpar p -> parse_predicates p (parse_fun_call p)
  | Lexer.NAME _ ->
    (* bare name = child step on the context item *)
    let ctx = context_var p in
    parse_axis_step p ctx
  | Lexer.STAR ->
    let ctx = context_var p in
    parse_axis_step p ctx
  | _ -> parse_predicates p (parse_primary p)

and context_var p =
  match p.ctx_var with
  | Some v -> Ast.var v
  | None -> fail p "relative path step without a context item"

and peek_lpar p =
  let lx = p.lx in
  let src = lx.Lexer.src in
  let pos = lx.Lexer.pos in
  (* skip whitespace between name and '(' — XQuery allows it *)
  let rec skip i =
    if i < String.length src && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r')
    then skip (i + 1)
    else i
  in
  let i = skip pos in
  i < String.length src && src.[i] = '('

and is_constructor_keyword p n =
  match n with
  | "document" | "text" -> next_raw_is p '{'
  | "element" | "attribute" -> true
  | _ -> false

and next_raw_is p c =
  let lx = p.lx in
  let src = lx.Lexer.src in
  let rec skip i =
    if i < String.length src && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r')
    then skip (i + 1)
    else i
  in
  let i = skip lx.Lexer.pos in
  i < String.length src && src.[i] = c

and parse_computed_constructor p =
  match cur p with
  | Lexer.NAME "document" ->
    adv p;
    eat p Lexer.LBRACE;
    let e = parse_expr_opt p in
    eat p Lexer.RBRACE;
    Ast.mk (Ast.Doc_constr e)
  | Lexer.NAME "text" ->
    adv p;
    eat p Lexer.LBRACE;
    let e = parse_expr_opt p in
    eat p Lexer.RBRACE;
    Ast.mk (Ast.Text_constr e)
  | Lexer.NAME kw when kw = "element" || kw = "attribute" ->
    adv p;
    let name_spec =
      match cur p with
      | Lexer.LBRACE ->
        adv p;
        let n = parse_expr p in
        eat p Lexer.RBRACE;
        Ast.Computed_name n
      | Lexer.NAME n ->
        adv p;
        Ast.Fixed_name n
      | t -> failf p "expected element name, found %s" (Lexer.token_to_string t)
    in
    eat p Lexer.LBRACE;
    let e = parse_expr_opt p in
    eat p Lexer.RBRACE;
    if kw = "element" then Ast.mk (Ast.Elem_constr (name_spec, e))
    else Ast.mk (Ast.Attr_constr (name_spec, e))
  | _ -> fail p "expected constructor"

and parse_expr_opt p =
  if cur p = Lexer.RBRACE then Ast.empty_seq () else parse_expr p

and parse_fun_call p =
  let name =
    match cur p with
    | Lexer.NAME n -> n
    | t -> failf p "expected function name, found %s" (Lexer.token_to_string t)
  in
  adv p;
  eat p Lexer.LPAR;
  let rec args acc =
    if cur p = Lexer.RPAR then List.rev acc
    else begin
      let e = parse_expr_single p in
      let acc = e :: acc in
      if cur p = Lexer.COMMA then begin
        adv p;
        args acc
      end
      else List.rev acc
    end
  in
  let args = args [] in
  eat p Lexer.RPAR;
  (* normalize unprefixed builtin names to the fn: prefix *)
  let name = Builtin_names.normalize name in
  Ast.fun_call name args

and parse_primary p =
  match cur p with
  | Lexer.STR s ->
    adv p;
    Ast.str s
  | Lexer.INT i ->
    adv p;
    Ast.int i
  | Lexer.FLOAT f ->
    adv p;
    Ast.literal (Ast.A_float f)
  | Lexer.MINUS ->
    adv p;
    let e = parse_primary p in
    Ast.mk (Ast.Arith (Ast.Sub, Ast.int 0, e))
  | Lexer.DOLLAR ->
    let v = parse_var p in
    Ast.var v
  | Lexer.LPAR ->
    adv p;
    if cur p = Lexer.RPAR then begin
      adv p;
      Ast.empty_seq ()
    end
    else begin
      let e = parse_expr p in
      eat p Lexer.RPAR;
      e
    end
  | Lexer.LT -> parse_direct_constructor p
  | t -> failf p "unexpected token %s" (Lexer.token_to_string t)

(* ---- predicates ----------------------------------------------------------- *)

and parse_predicates p e =
  if cur p = Lexer.LBRACKET then begin
    adv p;
    let e' =
      match cur p with
      | Lexer.INT i when peek_rbracket p ->
        adv p;
        Ast.fun_call "item-at" [ e; Ast.int i ]
      | _ ->
        let v = fresh_var p "dot" in
        let saved = p.ctx_var in
        p.ctx_var <- Some v;
        let pred = parse_expr p in
        p.ctx_var <- saved;
        Ast.mk
          (Ast.For
             (v, e, Ast.mk (Ast.If (pred, Ast.var v, Ast.empty_seq ()))))
    in
    eat p Lexer.RBRACKET;
    parse_predicates p e'
  end
  else e

and peek_rbracket p =
  let lx = p.lx in
  let src = lx.Lexer.src in
  let rec skip i =
    if i < String.length src && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r')
    then skip (i + 1)
    else i
  in
  let i = skip lx.Lexer.pos in
  i < String.length src && src.[i] = ']'

(* ---- direct constructors (XML mode) ---------------------------------------- *)

and parse_direct_constructor p =
  (* current token is LT; re-read raw characters from its start *)
  let lx = p.lx in
  let src = lx.Lexer.src in
  let pos = ref (Lexer.raw_start lx) in
  let peekc () = if !pos < String.length src then src.[!pos] else '\000' in
  let advc () = incr pos in
  let failc msg = raise (Error (msg, !pos)) in
  let expectc c =
    if peekc () = c then advc ()
    else failc (Printf.sprintf "in direct constructor: expected %C" c)
  in
  let skip_wsc () =
    while
      !pos < String.length src
      && (let c = peekc () in
          c = ' ' || c = '\t' || c = '\n' || c = '\r')
    do
      advc ()
    done
  in
  let read_name () =
    let start = !pos in
    if not (Lexer.is_name_start (peekc ())) then
      failc "in direct constructor: expected name";
    while Lexer.is_name_char (peekc ()) || peekc () = ':' do
      advc ()
    done;
    String.sub src start (!pos - start)
  in
  (* parse an embedded { expr } starting right after '{'; returns expr and
     leaves !pos after the matching '}' *)
  let embedded_expr () =
    Lexer.resume_at lx !pos;
    let e = parse_expr p in
    if cur p <> Lexer.RBRACE then failc "expected } in direct constructor";
    (* lx.pos is the char right after '}' *)
    pos := lx.Lexer.pos;
    e
  in
  let all_ws s =
    let ok = ref true in
    String.iter (fun c -> if not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then ok := false) s;
    !ok
  in
  let rec element () =
    expectc '<';
    let name = read_name () in
    (* attributes *)
    let attrs = ref [] in
    let rec attr_loop () =
      skip_wsc ();
      match peekc () with
      | '/' | '>' -> ()
      | _ ->
        let an = read_name () in
        skip_wsc ();
        expectc '=';
        skip_wsc ();
        let quote = peekc () in
        if quote <> '"' && quote <> '\'' then failc "expected attribute value";
        advc ();
        (* attribute content: text and {expr} splices, concatenated *)
        let parts = ref [] in
        let buf = Buffer.create 16 in
        let flush () =
          if Buffer.length buf > 0 then begin
            parts := Ast.str (Buffer.contents buf) :: !parts;
            Buffer.clear buf
          end
        in
        let rec scan_av () =
          let c = peekc () in
          if c = '\000' then failc "unterminated attribute value"
          else if c = quote then advc ()
          else if c = '{' then
            if !pos + 1 < String.length src && src.[!pos + 1] = '{' then begin
              Buffer.add_char buf '{';
              pos := !pos + 2;
              scan_av ()
            end
            else begin
              advc ();
              flush ();
              parts := Ast.fun_call "string" [ embedded_expr () ] :: !parts;
              scan_av ()
            end
          else if c = '}' && !pos + 1 < String.length src && src.[!pos + 1] = '}'
          then begin
            Buffer.add_char buf '}';
            pos := !pos + 2;
            scan_av ()
          end
          else if c = '&' then begin
            (* minimal entity support in attribute values *)
            let close = try String.index_from src !pos ';' with Not_found -> failc "unterminated entity" in
            let ent = String.sub src (!pos + 1) (close - !pos - 1) in
            (match ent with
            | "lt" -> Buffer.add_char buf '<'
            | "gt" -> Buffer.add_char buf '>'
            | "amp" -> Buffer.add_char buf '&'
            | "quot" -> Buffer.add_char buf '"'
            | "apos" -> Buffer.add_char buf '\''
            | _ -> failc ("unknown entity &" ^ ent ^ ";"));
            pos := close + 1;
            scan_av ()
          end
          else begin
            Buffer.add_char buf c;
            advc ();
            scan_av ()
          end
        in
        scan_av ();
        flush ();
        let value_expr =
          match List.rev !parts with
          | [] -> Ast.str ""
          | [ e ] -> e
          | es -> Ast.fun_call "concat" es
        in
        attrs :=
          Ast.mk (Ast.Attr_constr (Ast.Fixed_name an, value_expr)) :: !attrs;
        attr_loop ()
    in
    attr_loop ();
    let attrs = List.rev !attrs in
    if peekc () = '/' then begin
      advc ();
      expectc '>';
      Ast.mk (Ast.Elem_constr (Ast.Fixed_name name, Ast.seq attrs))
    end
    else begin
      expectc '>';
      let content = ref [] in
      let buf = Buffer.create 32 in
      let flush () =
        let s = Buffer.contents buf in
        Buffer.clear buf;
        (* boundary whitespace is stripped (default boundary-space strip) *)
        if s <> "" && not (all_ws s) then content := Ast.str s :: !content
      in
      let rec content_loop () =
        match peekc () with
        | '\000' -> failc "unterminated element constructor"
        | '<' ->
          if !pos + 1 < String.length src && src.[!pos + 1] = '/' then begin
            flush ();
            pos := !pos + 2;
            let close = read_name () in
            if close <> name then
              failc (Printf.sprintf "mismatched </%s> for <%s>" close name);
            skip_wsc ();
            expectc '>'
          end
          else begin
            flush ();
            let child = element () in
            content := child :: !content;
            content_loop ()
          end
        | '{' ->
          if !pos + 1 < String.length src && src.[!pos + 1] = '{' then begin
            Buffer.add_char buf '{';
            pos := !pos + 2;
            content_loop ()
          end
          else begin
            advc ();
            flush ();
            content := embedded_expr () :: !content;
            content_loop ()
          end
        | '}' when !pos + 1 < String.length src && src.[!pos + 1] = '}' ->
          Buffer.add_char buf '}';
          pos := !pos + 2;
          content_loop ()
        | '&' ->
          let close = try String.index_from src !pos ';' with Not_found -> failc "unterminated entity" in
          let ent = String.sub src (!pos + 1) (close - !pos - 1) in
          (match ent with
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "amp" -> Buffer.add_char buf '&'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | _ -> failc ("unknown entity &" ^ ent ^ ";"));
          pos := close + 1;
          content_loop ()
        | c ->
          Buffer.add_char buf c;
          advc ();
          content_loop ()
      in
      content_loop ();
      Ast.mk
        (Ast.Elem_constr (Ast.Fixed_name name, Ast.seq (attrs @ List.rev !content)))
    end
  in
  let e = element () in
  Lexer.resume_at lx !pos;
  parse_predicates p e

(* ---- prolog and queries ------------------------------------------------- *)

let parse_function p =
  eat_name p "declare";
  eat_name p "function";
  let name =
    match cur p with
    | Lexer.NAME n ->
      adv p;
      n
    | t -> failf p "expected function name, found %s" (Lexer.token_to_string t)
  in
  eat p Lexer.LPAR;
  let rec params acc =
    if cur p = Lexer.RPAR then List.rev acc
    else begin
      let v = parse_var p in
      let ty =
        if is_name p "as" then begin
          adv p;
          Some (parse_sequence_type p)
        end
        else None
      in
      let acc = (v, ty) :: acc in
      if cur p = Lexer.COMMA then begin
        adv p;
        params acc
      end
      else List.rev acc
    end
  in
  let params = params [] in
  eat p Lexer.RPAR;
  let ret =
    if is_name p "as" then begin
      adv p;
      Some (parse_sequence_type p)
    end
    else None
  in
  eat p Lexer.LBRACE;
  let body = parse_expr p in
  eat p Lexer.RBRACE;
  eat p Lexer.SEMI;
  { Ast.f_name = name; f_params = params; f_return = ret; f_body = body }

let create src = { lx = Lexer.create src; ctx_var = None; fresh = 0 }

let parse_fresh src =
  let p = create src in
  let rec prolog acc =
    if is_name p "declare" then prolog (parse_function p :: acc)
    else List.rev acc
  in
  let funcs = prolog [] in
  let body = parse_expr p in
  (match cur p with
  | Lexer.EOF -> ()
  | t -> failf p "trailing input: %s" (Lexer.token_to_string t));
  { Ast.funcs; body }

(* ---- the parse memo ----------------------------------------------------

   Text -> AST, so that a repeated query text costs one table lookup and
   comes back as the very AST it produced before; the decomposer and the
   executor key their own memos on that identity. Keyed on the full text
   (the table compares strings, never just their hash).

   A text is admitted on its second sighting: a first sighting leaves only
   its digest, in a direct-mapped array of [seen_slots] ints, so a stream
   that never repeats (every 2PC update text embeds its values) holds
   nothing. At most [memo_cap] texts are kept; admitting one more evicts
   the least recently used. Not safe to share between domains. *)

let memo_cap = 256
let seen_slots = 1024 (* a power of two *)

type entry = { ast : Ast.query; stamp : Ast.paths_stamp; mutable used : int }

let memo : (string, entry) Hashtbl.t = Hashtbl.create memo_cap
let seen = Array.make seen_slots (-1)
let clock = ref 0

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun text e acc ->
        match acc with
        | Some (_, used) when used <= e.used -> acc
        | _ -> Some (text, e.used))
      memo None
  in
  Option.iter (fun (text, _) -> Hashtbl.remove memo text) victim

let admit src ast =
  if Hashtbl.length memo >= memo_cap then evict_lru ();
  Hashtbl.replace memo src { ast; stamp = Ast.stamp_paths ast; used = !clock }

let parse_query src =
  incr clock;
  match Hashtbl.find_opt memo src with
  | Some e when Ast.paths_unchanged e.stamp ->
    e.used <- !clock;
    e.ast
  | cached ->
    let ast = parse_fresh src in
    let digest = Hashtbl.hash src in
    let slot = digest land (seen_slots - 1) in
    (* a hit whose paths a caller filled in place is re-parsed *)
    if Option.is_some cached || seen.(slot) = digest then admit src ast
    else seen.(slot) <- digest;
    ast

let memo_size () = Hashtbl.length memo

let parse_expr_string src =
  let p = create src in
  let e = parse_expr p in
  (match cur p with
  | Lexer.EOF -> ()
  | t -> failf p "trailing input: %s" (Lexer.token_to_string t));
  e
