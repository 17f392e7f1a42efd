(* The dependency graph (d-graph) of Section III. Vertices are the AST
   expression nodes themselves (each carries a unique id); parse edges are
   the AST edges; a varref edge connects each variable reference to the
   value expression of its binder (the paper routes it through a Var vertex
   whose only parse child is that value expression — same reachability).

   Reachability notions:
     parse_reaches v u  —  v ⤳p u  (u in the parse subtree of v; reflexive)
     depends x y        —  x ⤳ y   (reachable via parse and varref edges;
                                     reflexive)

   [build] numbers the vertices 0..n-1 in pre-order, so the parse subtree
   of the vertex at rank r is exactly the ranks [r, stop r): v ⤳p u is an
   interval test, with no walk. A varref edge always points at the value
   expression of a binder, an earlier sibling subtree of the varref's
   enclosing binding child; its subtree ends before the varref's rank. So
   the post-order of the parse tree puts every vertex after everything it
   depends on, and one pass over it in reverse gives every vertex's
   reverse reachability — the ranks x with x ⤳ it — as a bit row
   ([users]): the parent's row, the vertex itself and the rows of the
   varrefs bound to it. [depends x y] is then one bit test, and
   hasMatchingDoc of every vertex is one set (the vertices reaching two
   matching fn:doc() sites), computed the first time a guard asks.

   The URI dependency set D(v) of Section IV tags every fn:doc() call site
   reachable from v via parse edges with its vertex id; computed URIs
   become wildcards; element constructors get an artificial per-site URI.
   [extended_uri_deps] unions D over everything reachable via ⤳, which is
   the conservative version of the footnote-3 refinement used by the
   by-fragment / by-projection conditions (hasMatchingDoc). *)

module Ast = Xd_lang.Ast
module Iset = Set.Make (Int)

type uri_kind = Uri of string | Wildcard | Constr

type uri_dep = { uri : uri_kind; site : int }

let uri_kind_to_string = function
  | Uri u -> u
  | Wildcard -> "*"
  | Constr -> "#constructed"

let pp_uri_dep fmt d =
  Fmt.pf fmt "%s::v%d" (uri_kind_to_string d.uri) d.site

let direct_uri_deps_of_vertex (e : Ast.expr) =
  match e.desc with
  | Ast.Fun_call (("doc" | "collection"), args) -> (
    match args with
    | [ { desc = Ast.Literal (Ast.A_string u); _ } ] ->
      [ { uri = Uri u; site = e.Ast.id } ]
    | _ -> [ { uri = Wildcard; site = e.Ast.id } ])
  | Ast.Elem_constr _ | Ast.Doc_constr _ | Ast.Text_constr _
  | Ast.Attr_constr _ ->
    [ { uri = Constr; site = e.Ast.id } ]
  | _ -> []

type t = {
  rank_of : (int, int) Hashtbl.t; (* vertex id -> pre-order rank *)
  node : Ast.expr array; (* rank -> vertex *)
  stop : int array; (* rank -> 1 + the rank of its last descendant *)
  up : int array; (* rank -> parent rank; -1 at the root *)
  bound : int array; (* varref rank -> its binder value's rank; else -1 *)
  uses : int list array; (* binder value rank -> its varrefs, last first *)
  sites : (int * uri_dep) list; (* every D site with its rank, by rank *)
  users : Bits.t array Lazy.t; (* rank -> the ranks x with x ⤳ it *)
  matching : Bits.t Lazy.t; (* the ranks where hasMatchingDoc holds *)
}

(* Reverse reachability in one pass over the reversed post-order [post],
   where a vertex's parent and the varrefs bound to it come first. *)
let reverse_reach ~up ~uses ~post =
  let n = Array.length post in
  let rows = Array.make n (Bits.create 0) in
  for i = n - 1 downto 0 do
    let y = post.(i) in
    let row = if up.(y) < 0 then Bits.create n else Bits.copy rows.(up.(y)) in
    Bits.add row y;
    List.iter (fun vr -> Bits.union_into ~dst:row rows.(vr)) uses.(y);
    rows.(y) <- row
  done;
  rows

(* The vertices reaching two distinct fn:doc() sites whose URIs match: two
   of one literal URI's sites and the wildcards, or two wildcards. *)
let matching_set ~n ~sites (users : Bits.t array) =
  let m = Bits.create n in
  let at_least_two ranks =
    let one = Bits.create n in
    List.iter
      (fun r ->
        Bits.union_inter_into ~dst:m one users.(r);
        Bits.union_into ~dst:one users.(r))
      ranks
  in
  let ranks_of kind =
    List.filter_map (fun (r, d) -> if d.uri = kind then Some r else None) sites
  in
  let wild = ranks_of Wildcard in
  at_least_two wild;
  List.filter_map
    (fun (_, d) -> match d.uri with Uri u -> Some u | _ -> None)
    sites
  |> List.sort_uniq String.compare
  |> List.iter (fun u -> at_least_two (ranks_of (Uri u) @ wild));
  m

let build (root : Ast.expr) =
  let n = Ast.size root in
  let rank_of = Hashtbl.create 256 in
  let node = Array.make n root in
  let stop = Array.make n 0 in
  let up = Array.make n (-1) in
  let bound = Array.make n (-1) in
  let uses = Array.make n [] in
  let post = Array.make n 0 in
  let next = ref 0 and finished = ref 0 in
  let sites = ref [] in
  (* [scope]: variable name -> rank of its binder's value expression *)
  let rec go scope parent (e : Ast.expr) =
    let r = !next in
    incr next;
    Hashtbl.replace rank_of e.Ast.id r;
    node.(r) <- e;
    up.(r) <- parent;
    List.iter (fun d -> sites := (r, d) :: !sites) (direct_uri_deps_of_vertex e);
    (match e.desc with
    | Ast.Var_ref v -> (
      match List.assoc_opt v scope with
      | Some b ->
        bound.(r) <- b;
        uses.(b) <- r :: uses.(b)
      | None -> () (* free variable of the whole query/function body *))
    | _ -> ());
    (* a variable bound by this node maps to the vertex of its value expr,
       an earlier child, so already ranked *)
    let value_vertex_for v =
      let rank_of_expr (x : Ast.expr) = Hashtbl.find_opt rank_of x.Ast.id in
      match e.desc with
      | Ast.For (v', e1, _) when v' = v -> rank_of_expr e1
      | Ast.Let (v', e1, _) when v' = v -> rank_of_expr e1
      | Ast.Order_by (v', e1, _, _) when v' = v -> rank_of_expr e1
      | Ast.Typeswitch (e0, _, _, _) -> rank_of_expr e0
      | Ast.Execute_at x -> (
        match List.assoc_opt v x.params with
        | Some pe -> rank_of_expr pe
        | None -> None)
      | _ -> None
    in
    List.iter2
      (fun child extra ->
        let scope' =
          List.fold_left
            (fun sc v ->
              match value_vertex_for v with
              | Some vr -> (v, vr) :: sc
              | None -> sc)
            scope extra
        in
        go scope' r child)
      (Ast.children e) (Ast.bound_in_children e);
    stop.(r) <- !next;
    post.(!finished) <- r;
    incr finished
  in
  go [] (-1) root;
  let sites = List.rev !sites in
  let users = lazy (reverse_reach ~up ~uses ~post) in
  {
    rank_of;
    node;
    stop;
    up;
    bound;
    uses;
    sites;
    users;
    matching = lazy (matching_set ~n ~sites (Lazy.force users));
  }

(* ---- pre-order ranks ---------------------------------------------------- *)

let count t = Array.length t.node
let rank_opt t id = Hashtbl.find_opt t.rank_of id

let rank t id =
  match rank_opt t id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Dgraph.vertex: unknown id %d" id)

let at t r = t.node.(r)
let stop t r = t.stop.(r)
let up t r = t.up.(r)
let users t r = (Lazy.force t.users).(r)
let matching t = Lazy.force t.matching

let bound t r = t.bound.(r)

(* ---- vertices and edges --------------------------------------------------- *)

let vertex t id = t.node.(rank t id)

(* In the order of the id table, which [build] fills in pre-order. *)
let vertex_ranks t = Hashtbl.fold (fun _ r acc -> r :: acc) t.rank_of []
let vertices t = Hashtbl.fold (fun _ r acc -> t.node.(r) :: acc) t.rank_of []

let id_at t r = t.node.(r).Ast.id

let parent_of t id =
  match rank_opt t id with
  | Some r when t.up.(r) >= 0 -> Some (id_at t t.up.(r))
  | _ -> None

let binder_of t id =
  match rank_opt t id with
  | Some r when t.bound.(r) >= 0 -> Some (id_at t t.bound.(r))
  | _ -> None

let varrefs_of t binder_value_id =
  match rank_opt t binder_value_id with
  | Some r -> List.map (id_at t) t.uses.(r)
  | None -> []

(* v ⤳p u : u is in the parse subtree of v (reflexive). *)
let parse_reaches t v u =
  v = u
  ||
  match (rank_opt t v, rank_opt t u) with
  | Some rv, Some ru -> rv <= ru && ru < t.stop.(rv)
  | _ -> false

(* Full dependency reachability x ⤳ y over parse + varref edges. *)
let reachable_set t x =
  let rx = rank t x in
  let rows = Lazy.force t.users in
  let s = ref Iset.empty in
  Array.iteri
    (fun y row -> if Bits.mem row rx then s := Iset.add (id_at t y) !s)
    rows;
  !s

let depends t x y =
  let rx = rank t x in
  match rank_opt t y with Some ry -> Bits.mem (users t ry) rx | None -> false

(* A witness path from x to y over parse-child and varref edges: the chain
   of vertices realizing x ⤳ y, found by BFS (so it is shortest). Used by
   the xd_verify diagnostics to explain *why* a vertex observes a shipped
   value. When only the reverse direction is connected (e.g. explaining a
   vertex inside the subtree of an execute-at), the y ⤳ x chain is
   returned reversed, so the result always starts at x and ends at y. *)
let witness_directed t x y =
  if rank_opt t x = None || rank_opt t y = None then None
  else begin
    let pred = Hashtbl.create 32 in
    let queue = Queue.create () in
    Queue.add x queue;
    Hashtbl.replace pred x x;
    let found = ref (x = y) in
    while (not !found) && not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      let push next =
        if not (Hashtbl.mem pred next) then begin
          Hashtbl.replace pred next id;
          if next = y then found := true else Queue.add next queue
        end
      in
      List.iter (fun c -> push c.Ast.id) (Ast.children (vertex t id));
      match binder_of t id with Some b -> push b | None -> ()
    done;
    if not !found then None
    else begin
      let rec back id acc =
        if id = x then x :: acc else back (Hashtbl.find pred id) (id :: acc)
      in
      Some (back y [])
    end
  end

let witness t x y =
  match witness_directed t x y with
  | Some p -> Some p
  | None -> Option.map List.rev (witness_directed t y x)

let in_subgraph t rs n = parse_reaches t rs n

(* Varref edges leaving the subgraph of rs, in pre-order of the varrefs:
   references inside whose binder value lies outside. These become the
   XRPC parameters. *)
let outgoing_varrefs t rs =
  match rank_opt t rs with
  | None -> []
  | Some r ->
    let hi = t.stop.(r) in
    let acc = ref [] in
    for x = hi - 1 downto r do
      let b = t.bound.(x) in
      if b >= 0 && (b < r || b >= hi) then acc := (id_at t x, id_at t b) :: !acc
    done;
    !acc

(* ---- URI dependency sets ---------------------------------------------- *)

(* D(v): doc call sites reachable via parse edges only, last site first. *)
let uri_deps t v =
  let r = rank t v in
  let hi = t.stop.(r) in
  List.fold_left
    (fun acc (s, d) -> if r <= s && s < hi then d :: acc else acc)
    [] t.sites

(* Extended D over full dependency reachability (footnote 3, conservative):
   every doc site any vertex reachable from v depends on, highest site id
   first. *)
let extended_uri_deps t v =
  let r = rank t v in
  List.filter (fun (s, _) -> Bits.mem (users t s) r) t.sites
  |> List.map snd
  |> List.sort (fun a b -> compare b.site a.site)

let uris_match a b =
  match (a, b) with
  | Uri x, Uri y -> x = y
  | Wildcard, (Uri _ | Wildcard) | Uri _, Wildcard -> true
  | Constr, _ | _, Constr -> false

(* hasMatchingDoc: two *distinct* fn:doc call sites with matching URIs —
   the mixed-call danger (the paper's definition has an evident vi = vj
   typo; the prose requires two different applications). *)
let has_matching_doc_in deps =
  let rec go = function
    | [] -> false
    | d :: rest ->
      List.exists (fun d' -> d'.site <> d.site && uris_match d.uri d'.uri) rest
      || go rest
  in
  go deps

let has_matching_doc t v = Bits.mem (matching t) (rank t v)

(* Hosts referenced by xrpc:// URIs in D(v). *)
let xrpc_prefix = "xrpc://"

let split_xrpc_uri u =
  (* xrpc://host/path -> Some (host, path) *)
  let n = String.length xrpc_prefix in
  if String.length u > n && String.sub u 0 n = xrpc_prefix then
    let rest = String.sub u n (String.length u - n) in
    match String.index_opt rest '/' with
    | Some i ->
      Some
        ( String.sub rest 0 i,
          String.sub rest (i + 1) (String.length rest - i - 1) )
    | None -> Some (rest, "")
  else None

let xrpc_hosts deps =
  List.filter_map
    (fun d ->
      match d.uri with
      | Uri u -> Option.map fst (split_xrpc_uri u)
      | Wildcard | Constr -> None)
    deps
  |> List.sort_uniq compare
