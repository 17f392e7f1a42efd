(* The insertion conditions as first written, kept as the oracle for
   Xd_core.Conditions: every (rs, n) vertex pair is tested, condition iii
   rescans every vertex for a dangerous producer, ⤳p walks parent links,
   ⤳ is a memoised depth-first search and hasMatchingDoc compares the
   extended URI dependencies pairwise. Only the d-graph's structural
   accessors (vertices, parent and binder edges) come from
   Xd_dgraph.Dgraph; every reachability question is answered here by
   its own walk. *)

module Ast = Xd_lang.Ast
module Dg = Xd_dgraph.Dgraph
module Strategy = Xd_core.Strategy
module Iset = Set.Make (Int)

(* ---- reachability by walks ------------------------------------------------ *)

(* v ⤳p u : u is in the parse subtree of v (reflexive). Walk up from u. *)
let parse_reaches g v u =
  let rec up x =
    x = v || match Dg.parent_of g x with Some p -> up p | None -> false
  in
  up u

type graph = {
  g : Dg.t;
  reach_memo : (int, Iset.t) Hashtbl.t;
  vertex_ids : int list;
}

let graph g =
  {
    g;
    reach_memo = Hashtbl.create 64;
    vertex_ids = List.map (fun v -> v.Ast.id) (Dg.vertices g);
  }

let reachable_set gr x =
  match Hashtbl.find_opt gr.reach_memo x with
  | Some s -> s
  | None ->
    let visited = ref Iset.empty in
    let rec dfs id =
      if not (Iset.mem id !visited) then begin
        visited := Iset.add id !visited;
        List.iter (fun c -> dfs c.Ast.id) (Ast.children (Dg.vertex gr.g id));
        match Dg.binder_of gr.g id with Some b -> dfs b | None -> ()
      end
    in
    dfs x;
    Hashtbl.replace gr.reach_memo x !visited;
    !visited

let depends gr x y = Iset.mem y (reachable_set gr x)

let outgoing_varrefs gr rs =
  List.filter_map
    (fun vr ->
      match Dg.binder_of gr.g vr with
      | Some b when parse_reaches gr.g rs vr && not (parse_reaches gr.g rs b) ->
        Some (vr, b)
      | _ -> None)
    gr.vertex_ids

let extended_uri_deps gr v =
  Iset.fold
    (fun id acc -> Dg.direct_uri_deps_of_vertex (Dg.vertex gr.g id) @ acc)
    (reachable_set gr v) []

let has_matching_doc gr v = Dg.has_matching_doc_in (extended_uri_deps gr v)

let uri_deps gr v =
  let acc = ref [] in
  Ast.iter
    (fun x -> acc := Dg.direct_uri_deps_of_vertex x @ !acc)
    (Dg.vertex gr.g v);
  !acc

(* ---- the conditions, pair by pair ------------------------------------------ *)

let bad_mixer = Xd_core.Conditions.bad_mixer
let known_builtins = Xd_lang.Builtin_names.all

type ctx = {
  gr : graph;
  strategy : Strategy.t;
  all : Ast.expr list;
  atomic : int -> bool;
}

let make_ctx ?(atomic = fun _ -> false) strategy g =
  { gr = graph g; strategy; all = Dg.vertices g; atomic }

let outgoing ctx rs =
  List.filter (fun (_, binder) -> not (ctx.atomic binder)) (outgoing_varrefs ctx.gr rs)

let use_result ctx n rs =
  (not (ctx.atomic rs))
  && (not (parse_reaches ctx.gr.g rs n.Ast.id))
  && depends ctx.gr n.Ast.id rs

let use_param ctx n rs =
  parse_reaches ctx.gr.g rs n.Ast.id
  && List.exists (fun (vr, _) -> depends ctx.gr n.Ast.id vr) (outgoing ctx rs)

let uses ctx n rs = use_result ctx n rs || use_param ctx n rs

let guard ctx n =
  match ctx.strategy with
  | Strategy.By_value | Strategy.Data_shipping -> true
  | Strategy.By_fragment | Strategy.By_projection ->
    has_matching_doc ctx.gr n.Ast.id

let violates_i ctx rs n =
  ctx.strategy <> Strategy.By_projection
  &&
  match n.Ast.desc with
  | Ast.Step (_, ax, _) -> (
    match Ast.classify_axis ax with
    | Ast.Rev | Ast.Hor -> uses ctx n rs
    | Ast.Fwd -> false)
  | _ -> false

let violates_ii ctx rs n =
  match n.Ast.desc with
  | Ast.Node_cmp _ | Ast.Node_set _ -> uses ctx n rs && guard ctx n
  | _ -> false

let violates_iii ctx rs n =
  match n.Ast.desc with
  | Ast.Step (_, _, _) ->
    let result_side () =
      use_result ctx n rs
      && List.exists
           (fun m -> bad_mixer ctx.strategy m && depends ctx.gr rs m.Ast.id)
           ctx.all
    in
    let param_side () =
      parse_reaches ctx.gr.g rs n.Ast.id
      && List.exists
           (fun (vr, binder) ->
             depends ctx.gr n.Ast.id vr
             && List.exists
                  (fun m ->
                    bad_mixer ctx.strategy m && depends ctx.gr binder m.Ast.id)
                  ctx.all)
           (outgoing ctx rs)
    in
    (result_side () || param_side ()) && guard ctx n
  | _ -> false

let violates_iv ctx rs n =
  ctx.strategy <> Strategy.By_projection
  &&
  match n.Ast.desc with
  | Ast.Fun_call (("root" | "id" | "idref"), _) -> uses ctx n rs
  | _ -> false

let violates_update ctx rs n =
  match Ast.update_target n with
  | None -> false
  | Some tgt ->
    if parse_reaches ctx.gr.g rs n.Ast.id then
      List.exists (fun (vr, _) -> depends ctx.gr tgt.Ast.id vr) (outgoing ctx rs)
    else (not (ctx.atomic rs)) && depends ctx.gr tgt.Ast.id rs

let violates_unknown_call ctx rs n =
  match n.Ast.desc with
  | Ast.Fun_call (name, _) when not (List.mem name known_builtins) ->
    uses ctx n rs || parse_reaches ctx.gr.g rs n.Ast.id
  | _ -> false

let valid_d_point ctx rs =
  not
    (List.exists
       (fun n ->
         violates_i ctx rs n || violates_ii ctx rs n || violates_iii ctx rs n
         || violates_iv ctx rs n
         || violates_unknown_call ctx rs n
         || violates_update ctx rs n)
       ctx.all)

let d_points ctx = List.filter (fun v -> valid_d_point ctx v.Ast.id) ctx.all

let site_set ctx v =
  List.sort_uniq compare (List.map (fun d -> d.Dg.site) (uri_deps ctx.gr v))

let interesting_points ctx =
  let dps = d_points ctx in
  List.filter
    (fun v ->
      let deps = uri_deps ctx.gr v.Ast.id in
      let sites = site_set ctx v.Ast.id in
      List.exists
        (fun d ->
          match d.Dg.uri with Dg.Uri _ | Dg.Wildcard -> true | Dg.Constr -> false)
        deps
      && not
           (List.exists
              (fun u ->
                u.Ast.id <> v.Ast.id
                && parse_reaches ctx.gr.g u.Ast.id v.Ast.id
                && site_set ctx u.Ast.id = sites)
              dps)
      && List.exists
           (fun n ->
             (match n.Ast.desc with Ast.Step _ -> true | _ -> false)
             && parse_reaches ctx.gr.g v.Ast.id n.Ast.id)
           ctx.all
      && Dg.xrpc_hosts deps <> [])
    dps

(* ---- the decomposer over the oracle's points ------------------------------ *)

(* Decompose.decompose's rewrite (without code motion and without its
   memo), choosing its points from the oracle's I(G) and I'(G). *)
let decompose ~typing strategy (q0 : Ast.query) : Xd_core.Decompose.plan =
  let q = Xd_core.Inline.inline_query q0 in
  let q = Xd_core.Normalize.normalize_query q in
  let q = Xd_core.Constfold.fold_query q in
  match strategy with
  | Strategy.Data_shipping ->
    { strategy; query = q; inserted = []; d_points = []; i_points = [] }
  | _ ->
    let g = Dg.build q.Ast.body in
    let atomic =
      if typing then Xd_types.Infer.atomic_fact (Xd_types.Infer.infer_query q)
      else fun _ -> false
    in
    let ctx = make_ctx ~atomic strategy g in
    let dps = d_points ctx in
    let ips = interesting_points ctx in
    let with_host =
      List.filter_map
        (fun v ->
          Option.map (fun h -> (v, h)) (Xd_core.Decompose.single_host g v.Ast.id))
        ips
    in
    let chosen =
      List.filter
        (fun (v, _) ->
          not
            (List.exists
               (fun (u, _) ->
                 u.Ast.id <> v.Ast.id && parse_reaches g u.Ast.id v.Ast.id)
               with_host))
        with_host
    in
    let body =
      List.fold_left
        (fun body (v, h) -> Xd_core.Insert.insert_execute_at ~host:h body v.Ast.id)
        q.Ast.body chosen
    in
    let body = Xd_core.Decompose.place_updates body in
    if strategy = Strategy.By_projection then
      Xd_core.Projection_fill.fill ~funcs:q.Ast.funcs body;
    {
      strategy;
      query = { q with Ast.body };
      inserted = List.map (fun (v, h) -> (v.Ast.id, h)) chosen;
      d_points = List.map (fun v -> v.Ast.id) dps;
      i_points = List.map (fun v -> v.Ast.id) ips;
    }
