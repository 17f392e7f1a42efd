(* Direct unit tests for the value model: atomization, untyped promotion,
   general comparison, effective boolean value, deep-equal and result
   serialization — the typing rules the distributed semantics rest on. *)

module V = Xd_lang.Value
module Ast = Xd_lang.Ast
open Util

let u s = V.Untyped s
let str s = V.String s
let i n = V.Integer n
let d f = V.Double f
let b x = V.Boolean x

(* ---- atom conversions ---------------------------------------------------- *)

let test_atom_to_string () =
  check_string "integer" "42" (V.atom_to_string (i 42));
  check_string "double integral" "3" (V.atom_to_string (d 3.0));
  check_string "double fractional" "2.5" (V.atom_to_string (d 2.5));
  check_string "boolean" "true" (V.atom_to_string (b true));
  check_string "untyped passthrough" " x " (V.atom_to_string (u " x "))

let test_atom_to_double () =
  check_bool "int" (V.atom_to_double (i 7) = 7.0);
  check_bool "untyped numeric" (V.atom_to_double (u " 2.5 ") = 2.5);
  check_bool "untyped garbage is NaN" (Float.is_nan (V.atom_to_double (u "zz")));
  check_bool "booleans" (V.atom_to_double (b true) = 1.0)

(* Text casts to xs:double through its lexical space only: OCaml's wider
   float syntax (hex, underscores, inf/nan spellings) is NaN. *)
let test_double_lexical_space () =
  let cast s = V.atom_to_double (u s) in
  List.iter
    (fun (s, f) -> check_bool (Printf.sprintf "%S casts" s) (cast s = f))
    [
      ("16", 16.); ("-3", -3.); ("+3", 3.); ("2.5", 2.5); (".5", 0.5);
      ("5.", 5.); ("1e3", 1000.); ("1.5E-1", 0.15); ("-.5e+2", -50.);
      ("\t7\n", 7.); ("\r 8 ", 8.); ("INF", Float.infinity);
      ("+INF", Float.infinity); ("-INF", Float.neg_infinity);
    ];
  List.iter
    (fun s -> check_bool (Printf.sprintf "%S is NaN" s) (Float.is_nan (cast s)))
    [
      "NaN"; "0x10"; "1_000"; "_1"; "inf"; "infinity"; "-inf"; "nan"; "Inf";
      "abc"; ""; " "; "."; "-"; "+"; "1e"; "e5"; "1e+"; "1.2.3"; "1 2";
      "\0121"; "1\012"; "++1"; "0x1p3";
    ];
  let st = store () in
  List.iter
    (fun (q, want) -> check_string q want (eval_str st q))
    [
      ({|element a {"0x10"} = 16|}, "false");
      ({|element a {"0x10"} + 1|}, "nan");
      ({|element a {"1_000"} = 1000|}, "false");
      ({|element a {"infinity"} > 1000|}, "false");
      ({|element a {"abc"} = 1|}, "false");
      ({|element a {"abc"} + 1|}, "nan");
      ({|element a {" 1e3 "} + 1|}, "1001");
      ({|element a {"INF"} > 1000|}, "true");
    ]

(* ---- general comparison --------------------------------------------------- *)

let test_promotion_rules () =
  check_bool "untyped vs int compares numerically"
    (V.compare_atoms Ast.Eq (u "35") (i 35));
  check_bool "untyped vs untyped compares as strings"
    (V.compare_atoms Ast.Lt (u "10") (u "9"));
  (* string "10" < "9" lexicographically *)
  check_bool "int vs double" (V.compare_atoms Ast.Lt (i 1) (d 1.5));
  check_bool "string vs untyped as strings"
    (V.compare_atoms Ast.Eq (str "a") (u "a"));
  check_bool "string vs int raises"
    (match V.compare_atoms Ast.Eq (str "1") (i 1) with
    | exception V.Type_error _ -> true
    | _ -> false);
  check_bool "bool vs bool" (V.compare_atoms Ast.Le (b false) (b true))

let test_existential_semantics () =
  let seq xs = List.map (fun x -> V.A x) xs in
  check_bool "any pair suffices"
    (V.general_compare Ast.Eq (seq [ i 1; i 2 ]) (seq [ i 2; i 9 ]));
  check_bool "empty never matches"
    (not (V.general_compare Ast.Eq [] (seq [ i 1 ])));
  (* both (1,2) = 1 and (1,2) != 1 hold existentially *)
  check_bool "eq and ne both true"
    (V.general_compare Ast.Eq (seq [ i 1; i 2 ]) (seq [ i 1 ])
    && V.general_compare Ast.Ne (seq [ i 1; i 2 ]) (seq [ i 1 ]))

(* ---- effective boolean value ----------------------------------------------- *)

let test_ebv () =
  check_bool "empty false" (not (V.effective_boolean_value []));
  check_bool "zero false" (not (V.effective_boolean_value [ V.A (i 0) ]));
  check_bool "NaN false"
    (not (V.effective_boolean_value [ V.A (d Float.nan) ]));
  check_bool "empty string false"
    (not (V.effective_boolean_value [ V.A (str "") ]));
  check_bool "nonzero true" (V.effective_boolean_value [ V.A (i 3) ]);
  let doc = xml "<a/>" in
  check_bool "node sequence true"
    (V.effective_boolean_value [ V.N (Xd_xml.Node.doc_node doc) ]);
  check_bool "multi-atomic raises"
    (match V.effective_boolean_value [ V.A (i 1); V.A (i 2) ] with
    | exception V.Type_error _ -> true
    | _ -> false)

(* ---- arithmetic ------------------------------------------------------------ *)

let test_arith_typing () =
  let one x = [ V.A x ] in
  check_bool "int + int stays int"
    (V.arith Ast.Add (one (i 2)) (one (i 3)) = [ V.A (i 5) ]);
  check_bool "int + double is double"
    (match V.arith Ast.Add (one (i 2)) (one (d 0.5)) with
    | [ V.A (V.Double 2.5) ] -> true
    | _ -> false);
  check_bool "empty propagates" (V.arith Ast.Add [] (one (i 1)) = []);
  check_bool "div by zero is infinite"
    (match V.arith Ast.Div (one (i 1)) (one (i 0)) with
    | [ V.A (V.Double f) ] -> Float.is_integer f = false || f = Float.infinity
    | _ -> false);
  check_bool "idiv by zero raises"
    (match V.arith Ast.Idiv (one (i 1)) (one (i 0)) with
    | exception V.Type_error _ -> true
    | _ -> false)

(* ---- deep-equal and serialization ------------------------------------------- *)

let test_deep_equal_sequences () =
  let n1 = Xd_xml.Node.of_tree (xml "<a><b/></a>") 1 in
  let n2 = Xd_xml.Node.of_tree (xml "<a><b/></a>") 1 in
  check_bool "node vs equal node" (V.deep_equal [ V.N n1 ] [ V.N n2 ]);
  check_bool "atom coercion: 1 = 1.0"
    (V.deep_equal [ V.A (i 1) ] [ V.A (d 1.0) ]);
  check_bool "length mismatch" (not (V.deep_equal [ V.A (i 1) ] []));
  check_bool "node vs atom" (not (V.deep_equal [ V.N n1 ] [ V.A (str "x") ]))

let test_serialize () =
  let n = Xd_xml.Node.of_tree (xml "<a>t</a>") 1 in
  check_string "nodes as xml, atoms spaced" "<a>t</a>1 2"
    (V.serialize [ V.N n; V.A (i 1); V.A (i 2) ]);
  check_string "no space around nodes" "1<a>t</a>2"
    (V.serialize [ V.A (i 1); V.N n; V.A (i 2) ]);
  check_string "empty" "" (V.serialize [])

(* ---- order keys -------------------------------------------------------------- *)

let test_order_compare () =
  check_bool "empty sorts first" (V.order_compare None (Some (i 1)) < 0);
  check_bool "numeric" (V.order_compare (Some (i 2)) (Some (d 10.)) < 0);
  check_bool "strings" (V.order_compare (Some (str "a")) (Some (str "b")) < 0);
  check_bool "mixed numeric promotion"
    (V.order_compare (Some (u "9")) (Some (i 10)) < 0)

(* ---- properties ---------------------------------------------------------------- *)

let arb_atom =
  QCheck.oneof
    [
      QCheck.map (fun n -> i n) QCheck.small_int;
      QCheck.map (fun f -> d f) (QCheck.float_range (-1000.) 1000.);
      QCheck.map (fun s -> str s) (QCheck.string_of_size (QCheck.Gen.int_bound 8));
      QCheck.map (fun s -> u s) (QCheck.string_of_size (QCheck.Gen.int_bound 8));
      QCheck.map (fun x -> b x) QCheck.bool;
    ]

let safe_cmp op a b =
  match V.compare_atoms op a b with
  | r -> Some r
  | exception V.Type_error _ -> None

let prop_eq_symmetric =
  qtest ~count:300 "atom equality is symmetric" (QCheck.pair arb_atom arb_atom)
    (fun (a, b) -> safe_cmp Ast.Eq a b = safe_cmp Ast.Eq b a)

let prop_lt_gt_dual =
  qtest ~count:300 "a < b iff b > a" (QCheck.pair arb_atom arb_atom)
    (fun (a, b) -> safe_cmp Ast.Lt a b = safe_cmp Ast.Gt b a)

let prop_ne_negates_eq =
  qtest ~count:300 "!= is the negation of = on atoms"
    (QCheck.pair arb_atom arb_atom) (fun (a, b) ->
      match (safe_cmp Ast.Eq a b, safe_cmp Ast.Ne a b) with
      | Some e, Some n -> e = not n
      | None, None -> true
      | _ -> false)

let prop_atom_equal_reflexive =
  qtest ~count:300 "atom_equal is reflexive (except NaN)" arb_atom (fun a ->
      match a with
      | V.Double f when Float.is_nan f -> true
      | _ -> V.atom_equal a a)

let () =
  Alcotest.run "xd_value"
    [
      ( "atoms",
        [
          tc "to_string" test_atom_to_string;
          tc "to_double" test_atom_to_double;
          tc "double lexical space" test_double_lexical_space;
        ] );
      ( "comparison",
        [
          tc "promotion" test_promotion_rules;
          tc "existential" test_existential_semantics;
        ] );
      ("ebv", [ tc "rules" test_ebv ]);
      ("arithmetic", [ tc "typing" test_arith_typing ]);
      ( "equality",
        [ tc "deep-equal" test_deep_equal_sequences; tc "serialize" test_serialize ] );
      ("ordering", [ tc "order_compare" test_order_compare ]);
      ( "properties",
        [
          prop_eq_symmetric;
          prop_lt_gt_dual;
          prop_ne_negates_eq;
          prop_atom_equal_reflexive;
        ] );
    ]
