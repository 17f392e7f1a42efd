(* Runtime values: sequences of items (nodes or typed atomics), with the
   XQuery atomization, type-promotion, comparison and effective-boolean-
   value rules needed by the XCore subset. We operate schemaless, so node
   atomization yields xs:untypedAtomic, which casts to double next to a
   number and compares as a string next to a string. *)

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type atom =
  | String of string
  | Integer of int
  | Double of float
  | Boolean of bool
  | Untyped of string

type item = N of Xd_xml.Node.t | A of atom
type t = item list

let of_node n = [ N n ]
let of_bool b = [ A (Boolean b) ]
let of_int i = [ A (Integer i) ]
let of_float f = [ A (Double f) ]
let of_string s = [ A (String s) ]
let empty : t = []

let nodes_of v =
  List.map
    (function
      | N n -> n
      | A _ -> type_error "expected a sequence of nodes, found an atomic value")
    v

let atom_to_string = function
  | String s | Untyped s -> s
  | Integer i -> string_of_int i
  | Double f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else string_of_float f
  | Boolean b -> if b then "true" else "false"

let atomize_item = function
  | A a -> a
  | N n -> Untyped (Xd_xml.Node.string_value n)

let atomize (v : t) : atom list = List.map atomize_item v

(* xs:double's lexical space: an optional sign, digits with an optional
   fraction or a fraction alone, then an optional exponent. OCaml's float
   syntax is wider (0x10, 1_000, inf, nan), so it is checked first. *)
let is_double_literal s =
  let n = String.length s in
  let rec digits i =
    if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i
  in
  let sign i = if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i in
  let start = sign 0 in
  let int_end = digits start in
  let frac_end =
    if int_end < n && s.[int_end] = '.' then digits (int_end + 1) else int_end
  in
  let has_digits = int_end > start || frac_end > int_end + 1 in
  let exponent_ok =
    frac_end = n
    || (s.[frac_end] = 'e' || s.[frac_end] = 'E')
       &&
       let e = sign (frac_end + 1) in
       let e_end = digits e in
       e_end > e && e_end = n
  in
  has_digits && exponent_ok

let trim_xml_space s =
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let n = String.length s in
  let rec first i = if i < n && is_space s.[i] then first (i + 1) else i in
  let rec last j = if j > 0 && is_space s.[j - 1] then last (j - 1) else j in
  let i = first 0 in
  String.sub s i (max i (last n) - i)

(* Casting text to xs:double. NaN, and any text outside the lexical
   space, is NaN: the schemaless convention for non-numeric text. *)
let double_of_text s =
  match trim_xml_space s with
  | "INF" | "+INF" -> Float.infinity
  | "-INF" -> Float.neg_infinity
  | t when is_double_literal t -> float_of_string t
  | _ -> Float.nan

let atom_to_double = function
  | Integer i -> float_of_int i
  | Double f -> f
  | Untyped s | String s -> double_of_text s
  | Boolean b -> if b then 1.0 else 0.0

(* General-comparison pairwise rule with untypedAtomic promotion. *)
let compare_atoms op a b =
  let cmp_float x y =
    match op with
    | Ast.Eq -> x = y
    | Ast.Ne -> x <> y
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
  in
  let cmp_string x y =
    let c = String.compare x y in
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
  in
  match (a, b) with
  | (Integer _ | Double _), (Integer _ | Double _)
  | (Integer _ | Double _), Untyped _
  | Untyped _, (Integer _ | Double _) ->
    cmp_float (atom_to_double a) (atom_to_double b)
  | Boolean x, Boolean y -> cmp_float (Bool.to_float x) (Bool.to_float y)
  | (String _ | Untyped _), (String _ | Untyped _) ->
    cmp_string (atom_to_string a) (atom_to_string b)
  | Boolean _, _ | _, Boolean _ ->
    type_error "cannot compare xs:boolean with a non-boolean"
  | (String _, (Integer _ | Double _)) | ((Integer _ | Double _), String _) ->
    type_error "cannot compare xs:string with a numeric value"

(* Existential general comparison over two sequences. *)
let general_compare op (l : t) (r : t) =
  let la = atomize l and ra = atomize r in
  List.exists (fun a -> List.exists (fun b -> compare_atoms op a b) ra) la

let effective_boolean_value (v : t) =
  match v with
  | [] -> false
  | N _ :: _ -> true
  | [ A (Boolean b) ] -> b
  | [ A (String s) ] | [ A (Untyped s) ] -> s <> ""
  | [ A (Integer i) ] -> i <> 0
  | [ A (Double f) ] -> f <> 0.0 && not (Float.is_nan f)
  | A _ :: _ :: _ ->
    type_error "effective boolean value of a multi-atomic sequence"

let string_value (v : t) =
  match v with
  | [] -> ""
  | [ it ] -> atom_to_string (atomize_item it)
  | _ -> type_error "fn:string applied to a sequence of more than one item"

let to_double (v : t) =
  match atomize v with
  | [ a ] -> atom_to_double a
  | [] -> Float.nan
  | _ -> type_error "numeric operation on a sequence of more than one item"

let arith op (l : t) (r : t) : t =
  match (atomize l, atomize r) with
  | [], _ | _, [] -> []
  | [ a ], [ b ] -> (
    let fa = atom_to_double a and fb = atom_to_double b in
    let both_int =
      match (a, b) with Integer _, Integer _ -> true | _ -> false
    in
    match op with
    | Ast.Add ->
      if both_int then of_int (int_of_float fa + int_of_float fb)
      else of_float (fa +. fb)
    | Ast.Sub ->
      if both_int then of_int (int_of_float fa - int_of_float fb)
      else of_float (fa -. fb)
    | Ast.Mul ->
      if both_int then of_int (int_of_float fa * int_of_float fb)
      else of_float (fa *. fb)
    | Ast.Div -> of_float (fa /. fb)
    | Ast.Idiv ->
      if fb = 0.0 then type_error "integer division by zero"
      else of_int (int_of_float (Float.trunc (fa /. fb)))
    | Ast.Mod ->
      if both_int then
        let ib = int_of_float fb in
        if ib = 0 then type_error "modulo by zero"
        else of_int (int_of_float fa mod ib)
      else of_float (Float.rem fa fb))
  | _ -> type_error "arithmetic on sequences of more than one item"

(* Ordering key used by [order by]: empty sequence sorts first. *)
let order_compare (a : atom option) (b : atom option) =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> (
    match (x, y) with
    | (Integer _ | Double _ | Boolean _), _ | _, (Integer _ | Double _ | Boolean _)
      ->
      Float.compare (atom_to_double x) (atom_to_double y)
    | _ -> String.compare (atom_to_string x) (atom_to_string y))

let atom_equal a b =
  match (a, b) with
  | (Integer _ | Double _), (Integer _ | Double _) ->
    atom_to_double a = atom_to_double b
  | Boolean x, Boolean y -> x = y
  | _ -> atom_to_string a = atom_to_string b

(* fn:deep-equal over sequences. *)
let deep_equal (l : t) (r : t) =
  List.length l = List.length r
  && List.for_all2
       (fun a b ->
         match (a, b) with
         | N x, N y -> Xd_xml.Deep_equal.equal x y
         | A x, A y -> atom_equal x y
         | _ -> false)
       l r

let pp_atom fmt = function
  | String s -> Fmt.pf fmt "%S" s
  | Integer i -> Fmt.pf fmt "%d" i
  | Double f -> Fmt.pf fmt "%g" f
  | Boolean b -> Fmt.pf fmt "%b" b
  | Untyped s -> Fmt.pf fmt "u%S" s

let pp_item fmt = function
  | N n -> Xd_xml.Node.pp fmt n
  | A a -> pp_atom fmt a

let pp fmt v = Fmt.pf fmt "(%a)" (Fmt.list ~sep:Fmt.comma pp_item) v

(* Serialize a value the way a query result is rendered: nodes as XML,
   atoms as strings, separated by spaces between adjacent atoms. *)
let serialize (v : t) =
  let buf = Buffer.create 256 in
  let rec go prev_atom = function
    | [] -> ()
    | N n :: rest ->
      Xd_xml.Serializer.node_to_buf buf n;
      go false rest
    | A a :: rest ->
      if prev_atom then Buffer.add_char buf ' ';
      Buffer.add_string buf (atom_to_string a);
      go true rest
  in
  go false v;
  Buffer.contents buf
