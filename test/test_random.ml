(* Randomized end-to-end equivalence: generate random XCore queries over a
   fixed distributed database and check that every strategy's execution is
   deep-equal to the local reference semantics.

   This is the central guarantee of the paper — the decomposition must be
   *conservative*: whatever it decides to push (or not), the result never
   changes. The generator (shared with test_verify) lives in
   Gen_queries. *)

module Ast = Xd_lang.Ast
module S = Xd_core.Strategy
module E = Xd_core.Executor
open Util

let make_net = Gen_queries.make_net
let arb_query = Gen_queries.arb_query

(* ---- the property ----------------------------------------------------------- *)

let run_reference q =
  let net, client = make_net () in
  E.run_local net ~client q

let prop_all_strategies_equivalent =
  qtest ~count:120 "random queries: all strategies = local semantics"
    arb_query (fun q ->
      match run_reference q with
      | exception _ -> QCheck.assume_fail () (* ill-typed random query *)
      | reference ->
        List.for_all
          (fun strat ->
            let net, client = make_net () in
            let r = E.run net ~client strat q in
            Xd_lang.Value.deep_equal r.E.value reference)
          S.all)

(* the strategies' valid decomposition points are monotone: everything
   by-value allows, by-fragment allows; everything by-fragment allows,
   by-projection allows (Sections V and VI only *remove* restrictions) *)
let prop_monotone_strategies =
  qtest ~count:60 "d-point sets grow with strategy power" arb_query (fun q ->
      (* share one normalized AST so vertex ids are comparable *)
      let q = Xd_core.Normalize.normalize_query (Xd_core.Inline.inline_query q) in
      let g = Xd_dgraph.Dgraph.build q.Ast.body in
      let dps s =
        List.map
          (fun e -> e.Ast.id)
          (Xd_core.Conditions.d_points (Xd_core.Conditions.make_ctx s g))
        |> List.sort_uniq compare
      in
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      let v = dps S.By_value and f = dps S.By_fragment and p = dps S.By_projection in
      subset v f && subset f p)

(* normalization is idempotent on arbitrary generated queries *)
let prop_normalize_idempotent =
  qtest ~count:80 "normalization is idempotent" arb_query (fun q ->
      let n1 = Xd_core.Normalize.normalize q.Ast.body in
      let n2 = Xd_core.Normalize.normalize n1 in
      Xd_lang.Pp.expr_to_string n1 = Xd_lang.Pp.expr_to_string n2)

(* inlining then evaluating = evaluating (semantics preserved) *)
let prop_inline_preserves =
  qtest ~count:60 "inlining preserves local semantics" arb_query (fun q ->
      let run q =
        let net, client = make_net () in
        match E.run_local net ~client q with
        | v -> Some (Xd_lang.Value.serialize v)
        | exception _ -> None
      in
      run q = run (Xd_core.Inline.inline_query q))

(* decomposition itself must also be stable: decomposing twice gives the
   same plan text (the second time from a copy of the query record, which
   the decomposer's memo does not know) *)
let prop_decompose_deterministic =
  qtest ~count:60 "decomposition is deterministic" arb_query (fun q ->
      let p1 = Xd_core.Decompose.decompose S.By_projection q in
      let p2 =
        Xd_core.Decompose.decompose S.By_projection
          { q with Xd_lang.Ast.body = q.Xd_lang.Ast.body }
      in
      Xd_lang.Pp.query_to_string p1.Xd_core.Decompose.query
      = Xd_lang.Pp.query_to_string p2.Xd_core.Decompose.query)

(* and the decomposed plan must re-parse (pp round trip on plans) *)
let prop_plan_reparses =
  qtest ~count:60 "decomposed plans re-parse" arb_query (fun q ->
      let p = Xd_core.Decompose.decompose S.By_fragment q in
      let txt = Xd_lang.Pp.query_to_string p.Xd_core.Decompose.query in
      match Xd_lang.Parser.parse_query txt with
      | _ -> true
      | exception _ -> false)

let () =
  Alcotest.run "xd_random"
    [
      ( "equivalence",
        [
          prop_all_strategies_equivalent;
          prop_monotone_strategies;
          prop_normalize_idempotent;
          prop_inline_preserves;
          prop_decompose_deterministic;
          prop_plan_reparses;
        ] );
    ]
