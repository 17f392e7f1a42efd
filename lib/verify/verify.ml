(* The distribution-safety verifier: driver.

   Takes a *decomposed* plan — a query whose AST already contains
   Execute_at vertices, whether produced by Decompose or written by hand
   — together with the passing strategy it is meant to run under, and
   re-derives from scratch that executing it distributed gives the same
   answer as executing it locally:

     - the provenance interpretation (Absint) re-checks the paper's
       insertion conditions i-iv on every remote body and call result,
       plus variable closure, host consistency, update placement and
       opaque function calls;
     - the coverage pass (Coverage) re-derives the by-projection message
       paths and demands the stored ones cover them.

   The decomposer and the verifier share no conclusions: the former
   computes where Execute_at may be inserted, the latter interprets the
   inserted result. Agreement between two independent derivations is the
   point — a bug in either shows up as a mismatch on the differential
   test corpus. *)

module Ast = Xd_lang.Ast
module Dg = Xd_dgraph.Dgraph
module S = Xd_xrpc.Strategy

type report = { strategy : S.t; diags : Diag.t list }

let errors r = Diag.errors r.diags
let warnings r = List.filter (fun d -> not (Diag.is_error d)) r.diags
let ok r = errors r = []

(* Vet an overlap schedule against footprints re-derived *here* — the
   verifier never trusts the analysis that proposed the schedule. Every
   member must carry a derivable, pure (read-only) footprint, and no two
   members of a group may interfere (a write of one touching a read or
   write of the other). *)
let check_schedule ?self (q : Ast.query) (schedule : (int * int list) list) =
  match schedule with
  | [] -> []
  | groups ->
    let module E = Xd_effects.Effects in
    let res = E.analyze ?self q in
    let hosts = Hashtbl.create 16 in
    let rec idx (e : Ast.expr) =
      (match e.Ast.desc with
      | Ast.Execute_at { Ast.host = { Ast.desc = Ast.Literal (Ast.A_string h); _ }; _ }
        ->
        Hashtbl.replace hosts e.Ast.id h
      | _ -> ());
      List.iter idx (Ast.children e)
    in
    idx q.Ast.body;
    List.iter (fun f -> idx f.Ast.f_body) q.Ast.funcs;
    let diag m fmt =
      Diag.make ?host:(Hashtbl.find_opt hosts m) ~exec:m
        ~severity:Diag.Error Diag.Schedule_interference m fmt
    in
    List.concat_map
      (fun (anchor, members) ->
        let fps = List.map (fun m -> (m, E.footprint res m)) members in
        let unit_diags =
          List.filter_map
            (fun (m, fp) ->
              match fp with
              | None ->
                Some
                  (diag m
                     "overlap group at v%d schedules v%d, which has no \
                      derivable effect footprint"
                     anchor m)
              | Some fp when not (E.pure fp) ->
                Some
                  (diag m
                     "overlap group at v%d schedules v%d, which is not \
                      read-only: %s"
                     anchor m (E.to_string fp))
              | Some _ -> None)
            fps
        in
        let rec pair_diags = function
          | [] -> []
          | (m1, Some fp1) :: rest ->
            List.filter_map
              (fun (m2, fp2) ->
                match fp2 with
                | Some fp2 when E.interferes fp1 fp2 ->
                  Some
                    (diag m2
                       "overlap group at v%d schedules interfering calls v%d \
                        and v%d: %s vs %s"
                       anchor m1 m2 (E.to_string fp1) (E.to_string fp2))
                | _ -> None)
              rest
            @ pair_diags rest
          | (_, None) :: rest -> pair_diags rest
        in
        unit_diags @ pair_diags fps)
      groups

(* Vet compiled-codec wire-shape descriptors against a re-derivation by
   a second, independent run of the shape analysis — codegen never
   trusts a descriptor only one derivation produced. A descriptor for a
   call site the re-derivation does not know, or whose shapes disagree,
   rejects the plan. (The re-derivation finding *more* call sites is
   fine: those simply keep the generic codec.) *)
let check_shapes (q : Ast.query) (claimed : Xd_shape.Shape.descriptor list) =
  match claimed with
  | [] -> []
  | claimed ->
    let module Sh = Xd_shape.Shape in
    let own = Sh.analyze q in
    let host (d : Sh.descriptor) =
      Option.value ~default:"<computed>" d.Sh.host
    in
    List.filter_map
      (fun (d : Sh.descriptor) ->
        let diag fmt =
          Diag.make ?host:d.Sh.host ~exec:d.Sh.exec ~severity:Diag.Error
            Diag.Wire_shape d.Sh.vertex fmt
        in
        match Hashtbl.find_opt own.Sh.by_vertex d.Sh.vertex with
        | None ->
          Some
            (diag
               "compiled codec claims a wire-shape descriptor for v%d, but \
                the re-derivation finds no such call site"
               d.Sh.vertex)
        | Some mine when not (Sh.descriptor_equal d mine) ->
          Some
            (diag
               "wire-shape descriptor for v%d disagrees with the \
                re-derivation: claimed host %s resp %s, derived host %s \
                resp %s"
               d.Sh.vertex (host d) (Sh.resp_shape_to_string d.Sh.resp)
               (host mine) (Sh.resp_shape_to_string mine.Sh.resp))
        | Some _ -> None)
      claimed

let verify ?self ?(schedule = []) ?(shapes = []) ?catalog strategy
    (q : Ast.query) : report =
  (* typing facts are re-derived here, from the plan as given — the
     verifier never accepts the decomposer's typing. A proven-atomic
     execute-at parameter or result crosses the wire as an exact value
     (nothing for a message copy to damage), which is precisely the
     widening the decomposer's insertion conditions claim; deriving the
     proof independently keeps the two analyses cross-checking each
     other on the differential corpus. *)
  let atomic = Xd_types.Infer.atomic_fact (Xd_types.Infer.infer_query q) in
  let run_body body =
    let g = Dg.build body in
    Absint.run ~strategy ~g ~funcs:q.Ast.funcs ?self ~atomic ?catalog body
  in
  let main = run_body q.Ast.body in
  (* function bodies execute wherever the module ships: check each one
     with its parameters treated as local values *)
  let fns = List.concat_map (fun f -> run_body f.Ast.f_body) q.Ast.funcs in
  let cov =
    if strategy = S.By_projection then
      Coverage.check ~funcs:q.Ast.funcs q.Ast.body
    else []
  in
  let sched = check_schedule ?self q schedule in
  let wire = check_shapes q shapes in
  { strategy; diags = Diag.dedup (main @ fns @ cov @ sched @ wire) }

let pp_report fmt r =
  let errs = List.length (errors r) and warns = List.length (warnings r) in
  if r.diags = [] then
    Fmt.pf fmt "%s plan verifies: no findings" (S.to_string r.strategy)
  else begin
    Fmt.pf fmt "%s plan: %d error%s, %d warning%s" (S.to_string r.strategy)
      errs
      (if errs = 1 then "" else "s")
      warns
      (if warns = 1 then "" else "s");
    List.iter (fun d -> Fmt.pf fmt "@.  %a" Diag.pp d) r.diags
  end

let report_to_string r = Fmt.str "%a" pp_report r
