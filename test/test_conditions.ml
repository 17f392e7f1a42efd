(* Fine-grained tests of the insertion-condition machinery (Section IV),
   mirroring Example 4.1's marking of the Qc2 d-graph: under pass-by-value
   the /grade step on top of the for-loops excludes everything the loops
   feed, leaving the root and the two doc-path subtrees as valid points. *)

module Ast = Xd_lang.Ast
module Dg = Xd_dgraph.Dgraph
module C = Xd_core.Conditions
module S = Xd_core.Strategy
open Util

(* Qc2 — the unnormalized XCore variant of Table III. *)
let qc2 =
  {|(let $s := doc("xrpc://A/students.xml")/child::people/child::person
     return let $c := doc("xrpc://B/course42.xml")
     return let $t := for $x in $s return
                        if ($x/child::tutor = $s/child::name) then $x else ()
     return for $e in $c/child::enroll/child::exam
            return if ($e/attribute::id = $t/child::id) then $e else ())/child::grade|}

let build src =
  let body = (Xd_lang.Parser.parse_query src).Ast.body in
  let g = Dg.build body in
  (body, g)

let find body pred =
  let r = ref None in
  Ast.iter (fun e -> if !r = None && pred e then r := Some e) body;
  Option.get !r

let find_for body var =
  find body (fun e ->
      match e.Ast.desc with Ast.For (v, _, _) -> v = var | _ -> false)

let find_let_value body var =
  let l =
    find body (fun e ->
        match e.Ast.desc with Ast.Let (v, _, _) -> v = var | _ -> false)
  in
  List.hd (Ast.children l)

let find_step body axis test =
  find body (fun e ->
      match e.Ast.desc with
      | Ast.Step (_, a, t) -> a = axis && t = test
      | _ -> false)

(* ---- Example 4.1: by-value d-points on Qc2 ------------------------------- *)

let test_example_4_1 () =
  let body, g = build qc2 in
  let ctx = C.make_ctx S.By_value g in
  (* the query root is a valid d-point (v1 in the paper) *)
  check_bool "root valid" (C.valid_d_point ctx body.Ast.id);
  (* the $s binding value (path over doc A) is valid (v3/v4) *)
  let s_value = find_let_value body "s" in
  check_bool "$s value valid" (C.valid_d_point ctx s_value.Ast.id);
  (* the $c binding value (bare doc B) is valid (v9) *)
  let c_value = find_let_value body "c" in
  check_bool "$c value valid" (C.valid_d_point ctx c_value.Ast.id);
  (* the for-loops are NOT valid (everything /grade depends on through the
     loops is excluded) *)
  let for_x = find_for body "x" in
  let for_e = find_for body "e" in
  check_bool "for $x invalid under by-value"
    (not (C.valid_d_point ctx for_x.Ast.id));
  check_bool "for $e invalid under by-value"
    (not (C.valid_d_point ctx for_e.Ast.id));
  (* ... but they become valid under by-fragment (Section V lifts the
     ForExpr restriction) *)
  let ctx_f = C.make_ctx S.By_fragment (snd (build qc2)) in
  ignore ctx_f;
  let body_f, g_f = build qc2 in
  let ctx_f = C.make_ctx S.By_fragment g_f in
  let for_e_f = find_for body_f "e" in
  check_bool "for $e valid under by-fragment"
    (C.valid_d_point ctx_f for_e_f.Ast.id)

(* ---- use_result / use_param ------------------------------------------------ *)

let test_use_result () =
  let body, g = build qc2 in
  let ctx = C.make_ctx S.By_value g in
  let s_value = find_let_value body "s" in
  (* the /grade step (outside) uses the result of the $s subtree *)
  let grade = find_step body Ast.Child (Ast.Name_test "grade") in
  check_bool "grade uses $s's result" (C.use_result ctx grade s_value.Ast.id);
  (* the tutor step inside the for over $x also consumes it from outside
     the subtree *)
  let tutor = find_step body Ast.Child (Ast.Name_test "tutor") in
  check_bool "tutor step uses $s's result"
    (C.use_result ctx tutor s_value.Ast.id);
  (* nothing inside the $s subtree uses parameters: it is closed *)
  check_bool "no param use inside $s"
    (not
       (List.exists
          (fun n -> C.use_param ctx n s_value.Ast.id)
          (Dg.vertices g)))

let test_use_param () =
  (* for $t's binding value (the for over $x), the reference to $s inside
     is an outgoing varref: steps inside using $x/$s are parameter uses *)
  let body, g = build qc2 in
  let ctx = C.make_ctx S.By_value g in
  let t_value = find_let_value body "t" in
  let tutor = find_step body Ast.Child (Ast.Name_test "tutor") in
  check_bool "tutor step inside $t uses a parameter"
    (C.use_param ctx tutor t_value.Ast.id);
  let grade = find_step body Ast.Child (Ast.Name_test "grade") in
  check_bool "grade is outside $t" (not (C.use_param ctx grade t_value.Ast.id))

(* ---- bad_mixer classification ---------------------------------------------- *)

let test_bad_mixer () =
  let mk d = Ast.mk d in
  let seq2 = mk (Ast.Seq [ Ast.int 1; Ast.int 2 ]) in
  let seq0 = mk (Ast.Seq []) in
  let for_e = mk (Ast.For ("x", Ast.int 1, Ast.int 2)) in
  let desc_step = Ast.step (Ast.var "v") Ast.Descendant Ast.Kind_node in
  let child_step = Ast.step (Ast.var "v") Ast.Child Ast.Kind_node in
  check_bool "two-element seq mixes" (C.bad_mixer S.By_value seq2);
  check_bool "empty seq does not" (not (C.bad_mixer S.By_value seq0));
  check_bool "for mixes under by-value" (C.bad_mixer S.By_value for_e);
  check_bool "for fine under by-fragment" (not (C.bad_mixer S.By_fragment for_e));
  check_bool "descendant overlaps under by-value" (C.bad_mixer S.By_value desc_step);
  check_bool "child never overlaps" (not (C.bad_mixer S.By_value child_step));
  check_bool "descendant fine under by-fragment"
    (not (C.bad_mixer S.By_fragment desc_step));
  check_bool "seq still mixes under by-projection" (C.bad_mixer S.By_projection seq2);
  (* sequence-reordering builtins mix under every strategy *)
  let rev_e = Ast.fun_call "reverse" [ Ast.var "v" ] in
  let ins_e =
    Ast.fun_call "insert-before" [ Ast.var "v"; Ast.int 1; Ast.var "w" ]
  in
  let rem_e = Ast.fun_call "remove" [ Ast.var "v"; Ast.int 1 ] in
  let sub_e = Ast.fun_call "subsequence" [ Ast.var "v"; Ast.int 1; Ast.int 2 ] in
  List.iter
    (fun s ->
      check_bool "reverse mixes" (C.bad_mixer s rev_e);
      check_bool "insert-before mixes" (C.bad_mixer s ins_e);
      check_bool "remove mixes" (C.bad_mixer s rem_e);
      check_bool "subsequence does not mix" (not (C.bad_mixer s sub_e)))
    [ S.By_value; S.By_fragment; S.By_projection ]

(* ---- insertion mechanics ------------------------------------------------------ *)

let test_insert_execute_at () =
  let body, _ = build {|let $k := 1 return count(doc("xrpc://A/d.xml")/child::a[v = $k])|} in
  (* find the for generated by the predicate desugaring: it references $k *)
  let target =
    find body (fun e ->
        match e.Ast.desc with Ast.For _ -> true | _ -> false)
  in
  let rewritten = Xd_core.Insert.insert_execute_at ~host:"A" body target.Ast.id in
  let found = ref None in
  Ast.iter
    (fun e ->
      match e.Ast.desc with
      | Ast.Execute_at x -> found := Some x
      | _ -> ())
    rewritten;
  match !found with
  | None -> Alcotest.fail "no execute-at inserted"
  | Some x ->
    check_slist "free vars became parameters" [ "k" ] (List.map fst x.Ast.params);
    check_bool "host literal" (x.Ast.host.Ast.desc = Ast.Literal (Ast.A_string "A"));
    (* replacing a vertex keeps the rest intact *)
    check_bool "count still present"
      (match rewritten.Ast.desc with
      | Ast.Let _ -> true
      | _ -> false)

(* the conditions' update rule: results consumed as update targets pin the
   producer *)
let test_update_condition () =
  let body, g =
    build
      {|let $k := doc("local.xml")/child::k
        return delete node (for $x in doc("xrpc://A/d.xml")/child::a
                            return if ($x/child::v = $k) then $x else ())[1]|}
  in
  let ctx = C.make_ctx S.By_projection g in
  let a_path = find_step body Ast.Child (Ast.Name_test "a") in
  check_bool "update target pins its producer"
    (not (C.valid_d_point ctx a_path.Ast.id))

(* ---- the pairwise oracle ----------------------------------------------- *)

module O = Oracle_conditions

(* Gen_queries' queries × {by-value, by-fragment, by-projection} × typing
   on/off. Half of the queries get their node-valued result wrapped in an
   update (each of the four kinds), fn:root, fn:id or a call of a function
   that is not a builtin: vertices the generator never emits itself, and
   the ones the update and condition-iv candidate sets hold. *)
let arb_case =
  let open QCheck.Gen in
  let wrap k (e : Ast.expr) =
    match k with
    | 0 -> Ast.mk (Ast.Delete_node e)
    | 1 -> Ast.mk (Ast.Replace_value (e, Ast.str "v"))
    | 2 -> Ast.mk (Ast.Rename_node (e, Ast.str "x"))
    | 3 ->
      Ast.mk
        (Ast.Insert_node
           ( Ast.mk (Ast.Elem_constr (Ast.Fixed_name "y", Ast.empty_seq ())),
             Ast.Into,
             e ))
    | 4 -> Ast.fun_call "root" [ e ]
    | 5 -> Ast.fun_call "id" [ Ast.str "s1"; e ]
    | 6 -> Ast.fun_call "unknown-f" [ e ]
    | _ -> e
  in
  let wrap_last k (q : Ast.query) =
    match q.Ast.body.Ast.desc with
    | Ast.Seq es -> (
      match List.rev es with
      | last :: rest ->
        { q with Ast.body = Ast.mk (Ast.Seq (List.rev (wrap k last :: rest))) }
      | [] -> q)
    | _ -> q
  in
  let gen =
    map3
      (fun q k (s, typing) -> (wrap_last k q, s, typing))
      Gen_queries.gen_query (int_bound 13)
      (pair (oneofl [ S.By_value; S.By_fragment; S.By_projection ]) bool)
  in
  QCheck.make
    ~print:(fun (q, s, typing) ->
      Printf.sprintf "%s, typing %b: %s" (S.to_string s) typing
        (Xd_lang.Pp.query_to_string q))
    gen

(* A plan as text: everything the decomposer decides, ids aside.
   Normalisation allocates fresh ids on every run, and the order of the
   pushed points follows the id table, so their hosts are compared as a
   set. *)
let plan_text (p : Xd_core.Decompose.plan) =
  Printf.sprintf "%s\npushed to %s; %d d-points, %d i-points"
    (Xd_lang.Pp.query_to_string p.query)
    (String.concat "," (List.sort compare (List.map snd p.inserted)))
    (List.length p.d_points) (List.length p.i_points)

let outcome f =
  match f () with
  | p -> plan_text p
  | exception Xd_core.Decompose.Update_placement m -> "update placement: " ^ m

let prop_oracle =
  qtest ~count:1000
    "d-points, i-points, parse reach and plans = the pairwise oracle" arb_case
    (fun (q0, s, typing) ->
      let q =
        Xd_core.Constfold.fold_query
          (Xd_core.Normalize.normalize_query (Xd_core.Inline.inline_query q0))
      in
      let g = Dg.build q.Ast.body in
      let atomic =
        if typing then Xd_types.Infer.atomic_fact (Xd_types.Infer.infer_query q)
        else fun _ -> false
      in
      let ctx = C.make_ctx ~atomic s g and octx = O.make_ctx ~atomic s g in
      let ids = List.map (fun v -> v.Ast.id) in
      let vs = ids (Dg.vertices g) in
      ids (C.d_points ctx) = ids (O.d_points octx)
      && ids (C.interesting_points ctx) = ids (O.interesting_points octx)
      && List.for_all
           (fun v ->
             List.for_all
               (fun u -> Dg.parse_reaches g v u = O.parse_reaches g v u)
               vs)
           vs
      && outcome (fun () -> Xd_core.Decompose.decompose ~typing s q0)
         = outcome (fun () -> O.decompose ~typing s q0))

let () =
  Alcotest.run "xd_conditions"
    [
      ( "example-4.1",
        [
          tc "d-point marking" test_example_4_1;
          tc "use_result" test_use_result;
          tc "use_param" test_use_param;
        ] );
      ("mixers", [ tc "bad_mixer table" test_bad_mixer ]);
      ( "insertion",
        [
          tc "insert_execute_at" test_insert_execute_at;
          tc "update condition" test_update_condition;
        ] );
      ("oracle", [ prop_oracle ]);
    ]
