(* A static transfer-cost model over decomposed plans — a first cut at the
   paper's future-work question of optimization quality: given the
   documents' real sizes at their peers, estimate how many bytes each
   strategy will move, and pick the cheapest.

   The model walks the rewritten plan:
   - every xrpc document referenced *outside* any execute-at is fetched
     whole (data shipping): its real serialized size counts fully;
   - a document referenced *inside* an execute-at executing at its owner
     peer is reduced to an estimated response: a per-semantics reduction
     factor times the document size (calibrated on the Section VII
     benchmark: by-value ships selected full subtrees, by-fragment adds
     dedup and parameter re-shipping, by-projection ships skeletons);
   - a document referenced inside an execute-at at a *different* peer is
     fetched whole by that server.

   The factors are deliberately coarse — the model's job is ranking, not
   prediction; the test suite checks that the predicted ranking matches
   the measured Fig. 7 ranking. *)

module Ast = Xd_lang.Ast
module Dg = Xd_dgraph.Dgraph

type estimate = {
  strategy : Strategy.t;
  fetched_bytes : int; (* full documents moved (data shipping) *)
  response_bytes_est : int; (* estimated message payloads *)
  overhead_bytes : int; (* per-message envelope overhead *)
  overlap_saved_bytes : int;
      (* transfer the overlap schedule takes off the critical path:
         within a group, per-peer batched round trips run concurrently,
         so the group costs its most expensive peer, not the sum *)
  codec_saved_bytes : int;
      (* effective transfer the compiled decoders take off the
         processing path: response bytes moving through one cost a
         measured per-byte fraction of the generic parse. 0 unless the
         caller passed the plan's wire-shape descriptors. *)
  per_vertex : (int * int) list;
      (* estimated wire bytes per d-graph vertex (execute-at body id),
         ascending; vertex -1 is the client's own document fetches. The
         key matches the [vertex] span attribute, so --explain can put
         these predictions next to the profiler's measured actuals. *)
}

let total e =
  e.fetched_bytes + e.response_bytes_est + e.overhead_bytes
  - e.overlap_saved_bytes - e.codec_saved_bytes

let reduction_factor = function
  | Strategy.Data_shipping -> 1.0
  | Strategy.By_value -> 0.45
  | Strategy.By_fragment -> 0.30
  | Strategy.By_projection -> 0.06

let envelope_overhead = 400 (* bytes per request/response pair *)

(* Per-byte discount for response bytes read by a compiled decoder,
   measured on `bench codec` at --scale 80: the flat scan processes
   message bytes several times faster than the generic tree parse, worth
   ~15% of the byte's effective cost on the Fig. 8 breakdown (serialize +
   shred share of a round trip). *)
let codec_discount = 0.15

(* Serialized sizes, memoised per physical document: a document's arrays
   never change once built, and an update installs a new [Doc.t], so an
   entry can never go stale. *)
module Docs = Memo.Make (struct
  type t = Xd_xml.Doc.t

  let id = Xd_xml.Doc.total_nodes
end)

let doc_bytes : (unit, int) Docs.t = Docs.create ()

(* Serialized size of a document at its owning peer, if resolvable. *)
let doc_size net uri =
  match Dg.split_xrpc_uri uri with
  | None -> None
  | Some (host, name) -> (
    match Xd_xrpc.Network.find_peer net host with
    | exception _ -> None
    | peer -> (
      match Xd_xrpc.Peer.find_doc peer name with
      | Some d ->
        let bytes =
          Docs.find_or_add doc_bytes d () ~valid:(fun _ -> true) (fun () ->
              Xd_xml.Serializer.doc_bytes d)
        in
        Some (host, bytes)
      | None -> None))

(* Average serialized size of one atomic item in an XRPC response
   (tag + typed value). *)
let atom_bytes = 64

(* Collect (uri, enclosing execute-at context) for every literal doc call
   in the plan body; the context carries the literal host (if any) and
   the execute-at body's vertex id, so the typed estimator can look up
   the body's inferred result type. *)
let doc_sites body =
  let acc = ref [] in
  let rec go ctx (e : Ast.expr) =
    (match e.Ast.desc with
    | Ast.Fun_call (("doc" | "collection"), [ { Ast.desc = Ast.Literal (Ast.A_string u); _ } ])
      ->
      acc := (u, ctx) :: !acc
    | _ -> ());
    match e.Ast.desc with
    | Ast.Execute_at x ->
      let host =
        match x.Ast.host.Ast.desc with
        | Ast.Literal (Ast.A_string h) -> Some h
        | _ -> None
      in
      go ctx x.Ast.host;
      List.iter (fun (_, pe) -> go ctx pe) x.Ast.params;
      go (Some (host, x.Ast.body.Ast.id)) x.Ast.body
    | _ -> List.iter (go ctx) (Ast.children e)
  in
  go None body;
  List.rev !acc

let estimate ?(typing = true) ?shapes net (plan : Decompose.plan) : estimate =
  let strategy = plan.Decompose.strategy in
  let q = plan.Decompose.query in
  let sites = doc_sites q.Ast.body in
  (* cardinality-aware response sizing: when the execute-at body is
     provably atomic, the response carries typed atoms, not subtrees —
     its size is bounded by the inferred cardinality (or by a small
     fraction of the document when unbounded), independent of the
     per-strategy subtree reduction factor *)
  let types = if typing then Some (Xd_types.Infer.infer_query q) else None in
  let atomic_card body_id =
    match types with
    | None -> None
    | Some res -> (
      match Xd_types.Infer.type_of_vertex res body_id with
      | Some t when Xd_types.Stype.is_atomic t ->
        Some (Xd_types.Stype.card_max t)
      | _ -> None)
  in
  let calls =
    let n = ref 0 in
    Ast.iter
      (fun e ->
        match e.Ast.desc with Ast.Execute_at _ -> incr n | _ -> ())
      q.Ast.body;
    !n
  in
  let fetched = ref 0 in
  (* response bytes are attributed per execute-at body so the overlap
     computation below can price each scheduled call individually *)
  let resp_by_body = Hashtbl.create 8 in
  let add_resp body_id b =
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt resp_by_body body_id) in
    Hashtbl.replace resp_by_body body_id (cur +. b)
  in
  (* per-vertex wire-byte buckets for --explain: responses and fetches
     keyed by the execute-at body id the work runs under, -1 for the
     client's own fetches — the same attribution the span profiler uses *)
  let vertex_bytes = Hashtbl.create 8 in
  let add_vertex v b =
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt vertex_bytes v) in
    Hashtbl.replace vertex_bytes v (cur +. b)
  in
  let seen_fetch = Hashtbl.create 8 in
  let seen_atomic = Hashtbl.create 8 in
  List.iter
    (fun (uri, ctx) ->
      match doc_size net uri with
      | None -> () (* local document: no transfer *)
      | Some (owner, bytes) -> (
        match ctx with
        | Some (Some h, body_id) when h = owner -> (
          (* executed at the owner: only the response travels *)
          match atomic_card body_id with
          | Some (Some n) ->
            (* atomic with a cardinality bound: a fixed-size response,
               independent of document size — counted once per call, not
               per referenced document *)
            if not (Hashtbl.mem seen_atomic body_id) then begin
              Hashtbl.replace seen_atomic body_id ();
              let b = float_of_int (atom_bytes * max n 1) in
              add_resp body_id b;
              add_vertex body_id b
            end
          | Some None ->
            (* atomic but unbounded (e.g. one string per selected node):
               far below any subtree-shipping reduction factor *)
            let b = float_of_int (max atom_bytes (bytes / 20)) in
            add_resp body_id b;
            add_vertex body_id b
          | None ->
            let b = reduction_factor strategy *. float_of_int bytes in
            add_resp body_id b;
            add_vertex body_id b)
        | _ ->
          (* fetched whole (by the client, or by a foreign server) *)
          let key = (uri, Option.map fst ctx) in
          if not (Hashtbl.mem seen_fetch key) then begin
            Hashtbl.replace seen_fetch key ();
            fetched := !fetched + bytes;
            add_vertex
              (match ctx with Some (_, body_id) -> body_id | None -> -1)
              (float_of_int bytes)
          end))
    sites;
  (* envelope overhead lands on the vertex issuing the call *)
  Ast.iter
    (fun e ->
      match e.Ast.desc with
      | Ast.Execute_at x ->
        add_vertex x.Ast.body.Ast.id (float_of_int envelope_overhead)
      | _ -> ())
    q.Ast.body;
  let responses = Hashtbl.fold (fun _ b acc -> acc +. b) resp_by_body 0.0 in
  (* overlap schedule: within a group the per-peer batched round trips run
     concurrently, so a group's transfer sits on the critical path of its
     most expensive peer — the rest is saved. Batching also coalesces k
     same-peer calls into one envelope, saving (k-1) overheads. A plan
     with no overlap groups prices exactly as before. *)
  let overlap_saved =
    let module E = Xd_effects.Effects in
    match E.schedule (E.analyze q) q with
    | [] -> 0.0
    | groups ->
      let site = Hashtbl.create 8 in
      let rec idx (e : Ast.expr) =
        (match e.Ast.desc with
        | Ast.Execute_at x ->
          let host =
            match x.Ast.host.Ast.desc with
            | Ast.Literal (Ast.A_string h) -> h
            | _ -> Printf.sprintf "?%d" e.Ast.id
          in
          Hashtbl.replace site e.Ast.id (host, x.Ast.body.Ast.id)
        | _ -> ());
        List.iter idx (Ast.children e)
      in
      idx q.Ast.body;
      List.iter (fun f -> idx f.Ast.f_body) q.Ast.funcs;
      let resp body_id =
        Option.value ~default:0.0 (Hashtbl.find_opt resp_by_body body_id)
      in
      let env = float_of_int envelope_overhead in
      List.fold_left
        (fun acc (g : E.group) ->
          match List.filter_map (fun m -> Hashtbl.find_opt site m) g.E.members with
          | [] | [ _ ] -> acc (* nothing overlaps a lone call statically *)
          | members ->
            let sequential =
              List.fold_left (fun a (_, b) -> a +. resp b +. env) 0.0 members
            in
            let peers = Hashtbl.create 4 in
            List.iter
              (fun (h, b) ->
                let cur = Option.value ~default:0.0 (Hashtbl.find_opt peers h) in
                Hashtbl.replace peers h (cur +. resp b))
              members;
            (* each peer gets one batched envelope; the group costs its
               slowest peer *)
            let critical =
              Hashtbl.fold (fun _ per acc -> Float.max acc (per +. env)) peers 0.0
            in
            acc +. Float.max 0.0 (sequential -. critical))
        0.0 groups
  in
  (* compiled-codec pricing (opt-in): a call site with a compiled
     decoder moves its response bytes through the specialized reader at
     a measured per-byte discount against the generic one. Every call
     site has the one request writer, so requests price the same either
     way. Without descriptors the estimate is byte-identical to a
     codec-less build. *)
  let codec_saved =
    match shapes with
    | None -> 0.0
    | Some descriptors ->
      let module Sh = Xd_shape.Shape in
      List.fold_left
        (fun acc (d : Sh.descriptor) ->
          if Sh.decoder_applicable d then
            acc
            +. codec_discount
               *. Option.value ~default:0.0
                    (Hashtbl.find_opt resp_by_body d.Sh.vertex)
          else acc)
        0.0 descriptors
  in
  {
    strategy;
    fetched_bytes = !fetched;
    response_bytes_est = int_of_float responses;
    overhead_bytes = calls * envelope_overhead;
    overlap_saved_bytes = int_of_float overlap_saved;
    codec_saved_bytes = int_of_float codec_saved;
    per_vertex =
      Hashtbl.fold (fun v b acc -> (v, int_of_float b) :: acc) vertex_bytes []
      |> List.sort compare;
  }

(* Estimate every strategy (sharing nothing: each gets its own plan). *)
let estimate_all ?code_motion ?typing net (q : Ast.query) =
  List.map
    (fun s -> estimate ?typing net (Decompose.decompose ?code_motion ?typing s q))
    Strategy.all

(* Pick the strategy with the lowest estimated transfer. Updating queries
   are pinned to a function-shipping strategy (by-projection) since data
   shipping cannot run them at all. *)
let choose ?code_motion ?typing net (q : Ast.query) : Strategy.t =
  if Ast.contains_update q.Ast.body then Strategy.By_projection
  else
    let ests = estimate_all ?code_motion ?typing net q in
    let best =
      List.fold_left
        (fun acc e -> match acc with
          | Some b when total b <= total e -> Some b
          | _ -> Some e)
        None ests
    in
    match best with Some e -> e.strategy | None -> Strategy.Data_shipping

let pp_estimate fmt e =
  Fmt.pf fmt "%-20s fetched=%8dB responses~%8dB overhead=%5dB total~%8dB"
    (Strategy.to_string e.strategy)
    e.fetched_bytes e.response_bytes_est e.overhead_bytes (total e);
  if e.overlap_saved_bytes > 0 then
    Fmt.pf fmt " (overlap saves %dB)" e.overlap_saved_bytes;
  if e.codec_saved_bytes > 0 then
    Fmt.pf fmt " (codec saves %dB)" e.codec_saved_bytes
