(* The decomposition driver: inline → normalize → find interesting
   decomposition points → insert execute-at vertices → (optional)
   distributed code motion → (by-projection) fill projection paths. *)

module Ast = Xd_lang.Ast
module Dg = Xd_dgraph.Dgraph

type plan = {
  strategy : Strategy.t;
  query : Ast.query; (* the rewritten query *)
  inserted : (int * string) list; (* (original rs id, host) actually pushed *)
  d_points : int list; (* I(G) vertex ids (diagnostics) *)
  i_points : int list; (* I'(G) vertex ids (diagnostics) *)
}

(* An i-point can be pushed iff every document it depends on lives at one
   single xrpc host (multi-host points — like the query root — stay
   local; placement across hosts is the paper's future work). Wildcard
   (computed) URIs and local documents keep the point local too. *)
let single_host g v =
  let deps = Dg.uri_deps g v in
  let hosts = Dg.xrpc_hosts deps in
  let all_pushable =
    List.for_all
      (fun d ->
        match d.Dg.uri with
        | Dg.Uri u -> Dg.split_xrpc_uri u <> None
        | Dg.Wildcard -> false
        | Dg.Constr -> true)
      deps
  in
  match hosts with [ h ] when all_pushable -> Some h | _ -> None

exception Update_placement of string
(* raised when a query contains an updating expression whose single
   affected peer cannot be identified at compile time (the paper's
   Section IX restriction) *)

(* XQUF placement: every updating expression whose target lives at a
   remote peer must execute at that peer. For each update vertex not
   already inside an execute-at, find the *smallest* enclosing closed
   subtree (no free variables) whose document dependencies live at one
   single xrpc host, and wrap it in an execute-at. The root is always
   closed, so failure means the update is entangled with multiple hosts —
   which the paper's restriction rejects. *)
let place_updates body =
  let rec pass body =
    let g = Dg.build body in
    (* update vertices not under an execute-at *)
    let unplaced =
      List.filter
        (fun v ->
          Ast.is_updating_desc v.Ast.desc
          &&
          let rec under_exec id =
            match Dg.parent_of g id with
            | None -> false
            | Some p -> (
              match (Dg.vertex g p).Ast.desc with
              | Ast.Execute_at _ -> true
              | _ -> under_exec p)
          in
          not (under_exec v.Ast.id))
        (Dg.vertices g)
    in
    let needs_remote v =
      match Ast.update_target v with
      | None -> false
      | Some tgt ->
        Dg.xrpc_hosts (Dg.extended_uri_deps g tgt.Ast.id) <> []
    in
    match List.filter needs_remote unplaced with
    | [] -> body
    | v :: _ ->
      (* walk up from v collecting candidate ancestors *)
      let rec ancestors id acc =
        match Dg.parent_of g id with
        | None -> List.rev (id :: acc)
        | Some p -> ancestors p (id :: acc)
      in
      let chain = ancestors v.Ast.id [] in
      (* smallest enclosing vertex (v first, root last) that is closed and
         single-host *)
      let candidate =
        List.find_opt
          (fun id ->
            Ast.free_vars (Dg.vertex g id) = []
            && single_host g id <> None)
          chain
      in
      (match candidate with
      | Some id ->
        let host = Option.get (single_host g id) in
        pass (Insert.insert_execute_at ~host body id)
      | None ->
        raise
          (Update_placement
             (Format.asprintf
                "cannot identify a single affected peer for updating expression: %a"
                Xd_lang.Pp.pp_expr v)))
  in
  pass body

exception Rejected of Xd_verify.Verify.report

(* A plan wrapper for a query taken verbatim — hand-written execute-at
   vertices and all. No inlining, normalization or insertion happens:
   this is the entry point for verifying (or force-running) distributed
   queries the decomposer did not produce. *)
let plan_of_query (strategy : Strategy.t) (q : Ast.query) : plan =
  (* a hand-written computed host that folds to a constant gets the same
     placement and host-consistency treatment as a literal one *)
  let q = Constfold.fold_query q in
  { strategy; query = q; inserted = []; d_points = []; i_points = [] }

let self_check (p : plan) =
  let report = Xd_verify.Verify.verify p.strategy p.query in
  if not (Xd_verify.Verify.ok report) then raise (Rejected report)

let decompose_rewrite ~code_motion ~typing (strategy : Strategy.t)
    (q0 : Ast.query) : plan =
  let q = Inline.inline_query q0 in
  let q = Normalize.normalize_query q in
  let q = Constfold.fold_query q in
  match strategy with
  | Strategy.Data_shipping ->
    { strategy; query = q; inserted = []; d_points = []; i_points = [] }
  | _ ->
    let g = Dg.build q.Ast.body in
    (* typing proofs widen the insertion conditions: conditions i–iv are
       skipped for proven-atomic shipped results and parameters. The
       verifier re-derives the same proofs independently, so a hole here
       is caught, not silently trusted. *)
    let atomic =
      if typing then Xd_types.Infer.atomic_fact (Xd_types.Infer.infer_query q)
      else fun _ -> false
    in
    let ctx = Conditions.make_ctx ~atomic strategy g in
    let dps = Conditions.d_points ctx in
    let ips = Conditions.interesting_points ctx in
    (* keep only single-host points; drop points nested inside another
       chosen point (outermost wins) *)
    let with_host =
      List.filter_map
        (fun v ->
          match single_host g v.Ast.id with
          | Some h -> Some (v, h)
          | None -> None)
        ips
    in
    let chosen =
      List.filter
        (fun (v, _) ->
          not
            (List.exists
               (fun (u, _) ->
                 u.Ast.id <> v.Ast.id && Dg.parse_reaches g u.Ast.id v.Ast.id)
               with_host))
        with_host
    in
    let body =
      List.fold_left
        (fun body (v, h) -> Insert.insert_execute_at ~host:h body v.Ast.id)
        q.Ast.body chosen
    in
    let body = place_updates body in
    let body = if code_motion then Code_motion.apply body else body in
    if strategy = Strategy.By_projection then
      Projection_fill.fill ~funcs:q.Ast.funcs body;
    {
      strategy;
      query = { q with Ast.body };
      inserted = List.map (fun (v, h) -> (v.Ast.id, h)) chosen;
      d_points = List.map (fun v -> v.Ast.id) dps;
      i_points = List.map (fun v -> v.Ast.id) ips;
    }

(* Plans are memoised on the physical query: a text the parser has seen
   before comes back as the same AST, and so gets back the same plan
   here. The plan's execute-at records are its own (inlining rebuilds
   every vertex), so filling their paths never reaches the query; a
   caller that rewrites a returned plan's paths in place only loses the
   entry, through the stamp. *)
module Queries = Memo.Make (struct
  type t = Ast.query

  let id (q : t) = q.Ast.body.Ast.id
end)

let plans : (Strategy.t * bool * bool * bool, plan * Ast.paths_stamp) Queries.t =
  Queries.create ()

(* [?verify] closes the loop in one call: reject our own output if the
   independent safety analysis disagrees with the insertion conditions —
   a debug mode that turns any decomposer bug into an immediate, loudly
   diagnosed failure instead of a silently wrong distributed answer. *)
let decompose ?(code_motion = false) ?(verify = false) ?(typing = true)
    (strategy : Strategy.t) (q0 : Ast.query) : plan =
  fst
    (Queries.find_or_add plans q0
       (strategy, code_motion, typing, verify)
       ~valid:(fun (_, stamp) -> Ast.paths_unchanged stamp)
       (fun () ->
         let plan = decompose_rewrite ~code_motion ~typing strategy q0 in
         if verify then self_check plan;
         (plan, Ast.stamp_paths plan.query)))

let explain fmt (p : plan) =
  Fmt.pf fmt "strategy: %s@." (Strategy.to_string p.strategy);
  Fmt.pf fmt "valid d-points: %d, interesting points: %d, pushed: %d@."
    (List.length p.d_points) (List.length p.i_points) (List.length p.inserted);
  List.iter (fun (id, h) -> Fmt.pf fmt "  pushed v%d -> %s@." id h) p.inserted;
  Fmt.pf fmt "rewritten query:@.%a@." Xd_lang.Pp.pp_query p.query
