(* Static wire-shape inference.

   A monotone analysis over the decomposed plan that infers, per
   execute-at call site, a *wire-shape descriptor*: where the call goes
   and the shape of its response (from the body's inferred type) — a
   run of <atomic> values when the {!Xd_types.Stype} lattice proves it
   atomic, the full fragment grammar otherwise. The fixpoint over
   user-defined functions is inherited from {!Xd_types.Infer}; anything
   the lattice cannot prove atomic is ⊤ ("dynamic"), the safe escape
   hatch — a dynamic response just keeps the generic reader.

   The descriptors drive the XRPC codec generator (Xd_xrpc.Codec),
   which compiles every call site's request writer and, for an atomic
   response, a decoder with precomputed constant segments. The verifier
   re-derives every
   descriptor with a second, independent run of this analysis and
   rejects plans whose compiled shapes disagree — codegen never trusts
   a descriptor that only one derivation produced.

   The envelope attribute layout is *not* inferred: it is fixed by the
   protocol (PROTOCOL.md) — request-id only under fault injection,
   txn/epoch as decimal ints, deadline as a fixed 15-byte %015.6f so it
   can be re-stamped in place, retry-after as a fixed 8-byte %08.4f —
   and the dump restates it so a descriptor is a complete picture of
   the message bytes. *)

module Ast = Xd_lang.Ast
module Stype = Xd_types.Stype
module Infer = Xd_types.Infer

type resp_shape = R_atomic of Stype.t | R_dynamic

type descriptor = {
  vertex : int;  (** the remote body's vertex id (the call-site key) *)
  exec : int;  (** the execute-at vertex itself *)
  host : string option;  (** literal target host; [None] = computed *)
  resp : resp_shape;
}

type result = {
  descriptors : descriptor list;  (** in plan traversal order *)
  by_vertex : (int, descriptor) Hashtbl.t;  (** keyed by body vertex *)
}

let resp_shape_equal a b =
  match (a, b) with
  | R_atomic x, R_atomic y -> Stype.equal x y
  | R_dynamic, R_dynamic -> true
  | _ -> false

let descriptor_equal a b =
  a.vertex = b.vertex && a.exec = b.exec && a.host = b.host
  && resp_shape_equal a.resp b.resp

(* A compiled decoder needs the response atomic. *)
let decoder_applicable d =
  match d.resp with R_atomic _ -> true | R_dynamic -> false

let analyze (q : Ast.query) : result =
  let res = Infer.infer_query q in
  let by_vertex = Hashtbl.create 16 in
  let acc = ref [] in
  let rec walk (e : Ast.expr) =
    (match e.Ast.desc with
    | Ast.Execute_at x ->
      let host =
        match x.Ast.host.Ast.desc with
        | Ast.Literal (Ast.A_string h) -> Some h
        | _ -> None
      in
      let resp =
        match Infer.type_of_vertex res x.Ast.body.Ast.id with
        | Some t when Stype.is_atomic t -> R_atomic t
        | _ -> R_dynamic
      in
      let d = { vertex = x.Ast.body.Ast.id; exec = e.Ast.id; host; resp } in
      if not (Hashtbl.mem by_vertex d.vertex) then begin
        Hashtbl.replace by_vertex d.vertex d;
        acc := d :: !acc
      end
    | _ -> ());
    List.iter walk (Ast.children e)
  in
  walk q.Ast.body;
  List.iter (fun f -> walk f.Ast.f_body) q.Ast.funcs;
  { descriptors = List.rev !acc; by_vertex }

let resp_shape_to_string = function
  | R_atomic t -> "atomic " ^ Stype.to_string t
  | R_dynamic -> "dynamic"

let pp_dump fmt (r : result) =
  let compiled = List.length (List.filter decoder_applicable r.descriptors) in
  Fmt.pf fmt "wire shapes: %d call site%s, %d with a compiled decoder@."
    (List.length r.descriptors)
    (if List.length r.descriptors = 1 then "" else "s")
    compiled;
  Fmt.pf fmt
    "envelope: request-id (fault injection only) | txn, epoch int | deadline \
     %%015.6f (15B, re-stampable) | retry-after %%08.4f (8B) | trace header \
     after <env:Body>@.";
  List.iter
    (fun d ->
      Fmt.pf fmt "v%d @@ %s (execute-at v%d)@." d.vertex
        (match d.host with Some h -> h | None -> "<computed>")
        d.exec;
      Fmt.pf fmt "  response : %s@." (resp_shape_to_string d.resp);
      Fmt.pf fmt "  codec    : %s@."
        (if decoder_applicable d then "compiled writer + compiled decoder"
         else "compiled writer, generic decoder"))
    r.descriptors
