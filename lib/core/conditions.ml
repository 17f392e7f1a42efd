(* Decomposition insertion conditions.

   Section IV (pass-by-value, conservative), Section V (pass-by-fragment)
   and Section VI (pass-by-projection) define which subgraph roots rs are
   valid decomposition points I(G). The restrictions are imposed
   symmetrically on expressions using the *result* of rs and on how the
   remote expression uses its shipped *parameters*:

     useResult(n, rs) — n outside Gs with n ⤳ rs
     useParam(n, rs)  — n inside Gs depending on a vertex outside Gs

   i.   no reverse/horizontal axis step on shipped nodes
        (lifted by pass-by-projection);
   ii.  no node comparison / node-set operation on shipped nodes
        (by-fragment and by-projection: only when the consuming vertex
        depends on two fn:doc() applications with the same URI —
        hasMatchingDoc);
   iii. no axis step over potentially mixed/unordered/overlapping
        sequences; the dangerous producers m are ExprSeq and NodeSetExpr,
        plus — under pass-by-value only — ForExpr, OrderExpr and
        overlapping axis steps (bulk RPC and fragment-order preservation
        lift those); same hasMatchingDoc guard as ii under the enhanced
        semantics;
   iv.  no fn:root/fn:id/fn:idref on shipped nodes (lifted by
        pass-by-projection). Unknown (non-inlinable) user function calls
        are treated like condition-iv vertices, conservatively.

   Each condition is a set test over facts derived once per context
   (DESIGN.md, "Insertion conditions over per-graph facts"). Over the
   d-graph's pre-order ranks, Gs is the interval [rs, stop rs); the users
   of rs's result are the bit row users(rs) outside Gs; the remote body's
   uses of a parameter are users(vr) inside Gs, for each varref vr
   leaving Gs. The vertices a condition can fire on are sets fixed per
   context (their hasMatchingDoc guard already applied), and so is the
   set of vertices that reach a dangerous producer. A vertex rs is valid
   iff none of these sets meets the matching use set. *)

module Ast = Xd_lang.Ast
module Dg = Xd_dgraph.Dgraph
module Bits = Xd_dgraph.Bits

(* Derived from the evaluator's own registry list, so a builtin added
   there is automatically known here (and to the plan verifier) — a
   hand-copied list cannot drift. *)
let known_builtins = Xd_lang.Builtin_names.all

let known =
  let h = Hashtbl.create 128 in
  List.iter (fun name -> Hashtbl.replace h name ()) known_builtins;
  h

(* condition-iii dangerous producers, per strategy *)
let bad_mixer strategy (m : Ast.expr) =
  match m.Ast.desc with
  | Ast.Seq es when List.length es >= 2 -> true
  | Ast.Node_set _ -> true
  (* sequence-reordering/splicing builtins: their output is no longer in
     document order (fn:reverse), or is spliced from two sequences
     (fn:insert-before) or punctured (fn:remove) — a downstream step
     re-sorts and dedups, observably changing the sequence *)
  | Ast.Fun_call (("reverse" | "insert-before" | "remove"), _) -> true
  | Ast.For _ | Ast.Order_by _ -> strategy = Strategy.By_value
  | Ast.Step (_, ax, _) ->
    strategy = Strategy.By_value && not (Ast.non_overlapping_axis ax)
  | _ -> false

type ctx = {
  g : Dg.t;
  atomic_at : bool array;
      (* typing fact, by rank: the vertex provably produces only atomic
         values. Atomic values have no identity, order or structure an
         XRPC message copy could damage, so conditions i–iv need not fire
         on uses of a proven-atomic result, nor on remote uses of a
         proven-atomic shipped parameter. The default (no proof) keeps
         every condition fully conservative. *)
  on_use : Bits.t;
      (* vertices that violate i, ii or iv by using a shipped value:
         reverse/horizontal steps and fn:root/id/idref unless by
         projection, and guarded node comparisons and set operations *)
  mixed_steps : Bits.t; (* iii: guarded axis steps *)
  unknown_calls : Bits.t; (* calls of functions that are not builtins *)
  updates : (int * int) list; (* (update vertex, its target), by rank *)
  reach_mixer : Bits.t; (* vertices that ⤳ a dangerous producer *)
  mutable points : (Bits.t * Ast.expr list) option; (* I(G), once *)
}

let make_ctx ?(atomic = fun _ -> false) strategy g =
  let n = Dg.count g in
  (* hasMatchingDoc guard of the consuming vertex under the enhanced
     passing semantics; pass-by-value forbids unconditionally *)
  let guarded =
    match strategy with
    | Strategy.By_value | Strategy.Data_shipping -> fun _ -> true
    | Strategy.By_fragment | Strategy.By_projection -> Bits.mem (Dg.matching g)
  in
  let lifted = strategy = Strategy.By_projection in
  let on_use = Bits.create n
  and mixed_steps = Bits.create n
  and unknown_calls = Bits.create n
  and reach_mixer = Bits.create n in
  let updates = ref [] in
  for r = n - 1 downto 0 do
    let e = Dg.at g r in
    (match e.Ast.desc with
    | Ast.Step (_, ax, _) ->
      if guarded r then Bits.add mixed_steps r;
      if (not lifted) && Ast.classify_axis ax <> Ast.Fwd then Bits.add on_use r
    | Ast.Node_cmp _ | Ast.Node_set _ -> if guarded r then Bits.add on_use r
    | Ast.Fun_call (name, _) ->
      if (not lifted) && (name = "root" || name = "id" || name = "idref") then
        Bits.add on_use r;
      if not (Hashtbl.mem known name) then Bits.add unknown_calls r
    | _ -> ());
    (match Ast.update_target e with
    | Some tgt -> updates := (r, Dg.rank g tgt.Ast.id) :: !updates
    | None -> ());
    if bad_mixer strategy e then Bits.union_into ~dst:reach_mixer (Dg.users g r)
  done;
  {
    g;
    atomic_at = Array.init n (fun r -> atomic (Dg.at g r).Ast.id);
    on_use;
    mixed_steps;
    unknown_calls;
    updates = !updates;
    reach_mixer;
    points = None;
  }

(* The parameters of the subtree [r, hi): the first varref at or after
   rank x inside it whose binder value lies outside, minus those whose
   binder value is proven atomic (shipping those by value is always
   exact, so the remote body's uses of them cannot violate any
   condition); hi when there is none. *)
let rec next_param ctx r hi x =
  if x >= hi then hi
  else
    let b = Dg.bound ctx.g x in
    if b >= 0 && (b < r || b >= hi) && not ctx.atomic_at.(b) then x
    else next_param ctx r hi (x + 1)

(* does the vertex of rank n use a parameter of [r, hi)? *)
let rec uses_param ctx r hi n x =
  let vr = next_param ctx r hi x in
  vr < hi && (Bits.mem (Dg.users ctx.g vr) n || uses_param ctx r hi n (vr + 1))

let use_result ctx n rs =
  (not ctx.atomic_at.(Dg.rank ctx.g rs))
  && (not (Dg.parse_reaches ctx.g rs n.Ast.id))
  && Dg.depends ctx.g n.Ast.id rs

let use_param ctx n rs =
  Dg.parse_reaches ctx.g rs n.Ast.id
  &&
  let r = Dg.rank ctx.g rs in
  uses_param ctx r (Dg.stop ctx.g r) (Dg.rank ctx.g n.Ast.id) r

(* XQUF safety (Section IX future work): an update must execute where its
   target lives. A candidate rs is invalid when (a) some update's target
   consumes rs's result from outside (the target would be a shipped copy),
   or (b) an update inside rs targets data arriving through a parameter
   (again a copy). Pushing an update *with* its genuine target is handled
   by the placement pass in Decompose. *)
let update_violates ctx r hi n tgt =
  if r <= n && n < hi then uses_param ctx r hi tgt r
  else
    (* an atomic rs result cannot be (or contain) the target node
       itself — at worst it feeds a predicate selecting the target *)
    (not ctx.atomic_at.(r)) && Bits.mem (Dg.users ctx.g r) tgt

let violates_update ctx rs n =
  match Ast.update_target n with
  | None -> false
  | Some tgt ->
    let r = Dg.rank ctx.g rs in
    update_violates ctx r (Dg.stop ctx.g r) (Dg.rank ctx.g n.Ast.id)
      (Dg.rank ctx.g tgt.Ast.id)

(* a remote use of some parameter of [r, hi) violates i, ii, iii or iv *)
let rec param_violates ctx r hi x =
  let vr = next_param ctx r hi x in
  vr < hi
  && (let param = Dg.users ctx.g vr in
      Bits.meets_within ctx.on_use param r hi
      || Bits.mem ctx.reach_mixer (Dg.bound ctx.g vr)
         && Bits.meets_within ctx.mixed_steps param r hi
      || param_violates ctx r hi (vr + 1))

let rec update_on ctx r hi = function
  | [] -> false
  | (n, tgt) :: rest -> update_violates ctx r hi n tgt || update_on ctx r hi rest

(* rs (of rank r) is valid iff no candidate vertex uses a shipped value
   the way its condition forbids. Unknown user functions (recursive, not
   inlined) disqualify any rs they use or sit inside. *)
let valid_rank ctx r =
  let hi = Dg.stop ctx.g r in
  let result = Dg.users ctx.g r in
  (not
     ((not ctx.atomic_at.(r))
     && (Bits.meets_outside ctx.on_use result r hi
        || Bits.meets_outside ctx.unknown_calls result r hi
        || Bits.mem ctx.reach_mixer r
           && Bits.meets_outside ctx.mixed_steps result r hi)))
  && (not (Bits.any_within ctx.unknown_calls r hi))
  && (not (param_violates ctx r hi r))
  && not (update_on ctx r hi ctx.updates)

let valid_d_point ctx rs = valid_rank ctx (Dg.rank ctx.g rs)

(* I(G): all valid decomposition points, in the order of Dg.vertices;
   computed once per context. *)
let points ctx =
  match ctx.points with
  | Some p -> p
  | None ->
    let valid = Bits.create (Dg.count ctx.g) in
    let dps =
      List.filter_map
        (fun r ->
          if valid_rank ctx r then begin
            Bits.add valid r;
            Some (Dg.at ctx.g r)
          end
          else None)
        (Dg.vertex_ranks ctx.g)
    in
    ctx.points <- Some (valid, dps);
    (valid, dps)

let d_points ctx = snd (points ctx)

(* Interesting decomposition points I'(G), Section IV:
   (a) highest vertex of its URI-dependency equivalence class,
   (b) depends on at least one document,
   (c) applies at least one axis step, and references an xrpc:// URI.
   Each is a count over the vertex's rank interval, from prefix sums of
   D sites, document sites, xrpc:// sites and steps. *)
let interesting_points ctx =
  let g = ctx.g in
  let n = Dg.count g in
  let valid, dps = points ctx in
  let sites = Array.make (n + 1) 0
  and docs = Array.make (n + 1) 0
  and xrpc = Array.make (n + 1) 0
  and steps = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    let e = Dg.at g r in
    let site, doc, remote =
      match Dg.direct_uri_deps_of_vertex e with
      | [] -> (0, 0, 0)
      | d :: _ -> (
        match d.Dg.uri with
        | Dg.Uri u -> (1, 1, if Dg.split_xrpc_uri u <> None then 1 else 0)
        | Dg.Wildcard -> (1, 1, 0)
        | Dg.Constr -> (1, 0, 0))
    in
    let step = match e.Ast.desc with Ast.Step _ -> 1 | _ -> 0 in
    sites.(r + 1) <- sites.(r) + site;
    docs.(r + 1) <- docs.(r) + doc;
    xrpc.(r + 1) <- xrpc.(r) + remote;
    steps.(r + 1) <- steps.(r) + step
  done;
  let within a r = a.(Dg.stop g r) - a.(r) in
  List.filter
    (fun v ->
      let r = Dg.rank g v.Ast.id in
      (* an ancestor's D contains the vertex's, so equal classes have
         equal counts, and counts only grow going up *)
      let own = within sites r in
      let rec highest u =
        u < 0
        || within sites u <> own
        || ((not (Bits.mem valid u)) && highest (Dg.up g u))
      in
      (* (b) at least one document dependency *)
      within docs r > 0
      (* (a) highest *valid* vertex of its URI-dependency equivalence
         class (the paper's class root modulo validity; cf. the footnote
         replacing Var roots by their value expressions) *)
      && highest (Dg.up g r)
      (* (c) applies at least one axis step, on xrpc-addressed data *)
      && within steps r > 0
      && within xrpc r > 0)
    dps
