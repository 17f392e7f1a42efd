(* The XRPC wire protocol: SOAP-style XML messages in the three passing
   semantics of the paper.

   - pass-by-value: every node item is deep-copied into the message in its
     own wrapper; the receiver shreds each wrapper into a separate fresh
     document. Identity, order, ancestors and cross-item structure are lost
     — exactly Problems 1-4.

   - pass-by-fragment: all node-valued data is grouped in a <fragments>
     preamble. Only the *maximal* subtrees are serialized (a shipped node
     that is a descendant of another shipped node is never serialized
     twice), fragments are sorted in document order, and the <call> section
     carries (fragid, nodeid) references. Additionally every reference
     carries an origin key, and both endpoints keep per-session origin
     tables: a node that was received from the other side earlier in the
     session is referenced back by *its* origin instead of being re-copied.
     This generalizes the paper's single-message dedup to the whole bulk
     session, preserving node identity across round trips (a remote
     function returning its own parameter yields the caller's original
     node, not a copy).

   - pass-by-projection: like by-fragment, but fragments contain the
     runtime projection (Algorithm 1) of the used/returned node sets
     derived from the relative projection paths, and the request carries a
     <projection-paths> element telling the callee how to project the
     response. Ancestors up to the lowest common ancestor travel with the
     data, so reverse/horizontal axes and fn:root/fn:id/fn:idref work on
     shipped nodes.

   Document ids of shredded fragments are derived from origin keys, so
   document order among fragments of one sending store is preserved at the
   receiver — the by-fragment ordering guarantee, extended session-wide. *)

module X = Xd_xml
module Ast = Xd_lang.Ast
module Value = Xd_lang.Value
module Iset = Set.Make (Int)

type passing = By_value | By_fragment | By_projection

(* A structurally ill-formed message: the XML parsed, but the protocol
   content is wrong (missing elements/attributes, bad references, unknown
   enumeration values). The server answers these with a non-retryable
   protocol fault instead of letting them surface as confusing downstream
   dynamic errors. *)
exception Protocol_error of string

let protocol_error fmt =
  Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

let passing_to_string = function
  | By_value -> "by-value"
  | By_fragment -> "by-fragment"
  | By_projection -> "by-projection"

let passing_of_string = function
  | "by-value" -> By_value
  | "by-fragment" -> By_fragment
  | "by-projection" -> By_projection
  | s -> protocol_error "unknown passing mode %S" s

(* ------------------------------------------------------------------ *)
(* SOAP Faults.                                                        *)
(* ------------------------------------------------------------------ *)

(* The fault-code taxonomy (PROTOCOL.md). Transport-class faults are
   retryable: the same request may well succeed on a clean wire. The
   others are deterministic — retrying cannot help. *)
type fault_code =
  | Transport_corrupt (* message damaged in flight (e.g. truncated) *)
  | Transport_timeout (* an upstream peer did not answer in time *)
  | Protocol_malformed (* well-formed XML, ill-formed protocol content *)
  | App_dynamic (* XQuery dynamic error raised by the remote body *)
  | App_type (* XQuery type error raised by the remote body *)
  | Txn_aborted (* the distributed transaction was aborted by 2PC *)
  | Topo_unroutable (* forwarding could not reach an owner (hop limit
                       exhausted or a redirect loop) *)
  | Server_overloaded (* admission queue full: the peer sheds the request
                         and suggests a retry-after delay *)
  | Deadline_exceeded (* the remaining deadline budget cannot cover the
                         call's minimum service time *)

exception
  Xrpc_fault of { host : string; code : fault_code; reason : string }

exception Xrpc_timeout of { host : string; attempts : int }

(* A well-formed <forward> redirect answer: the callee no longer owns the
   data; the caller should re-resolve and retry at [owner]. Raised by the
   response shredder, consumed by Session's forwarding loop. *)
exception Xrpc_forward of { doc : string; owner : string; epoch : int }

(* Server_overloaded is retryable — the queue drains; the server even
   suggests when (retry-after). Deadline_exceeded is not: the budget only
   shrinks, so the retry would be rejected harder. *)
let retryable = function
  | Transport_corrupt | Transport_timeout | Server_overloaded -> true
  | Protocol_malformed | App_dynamic | App_type | Txn_aborted
  | Topo_unroutable | Deadline_exceeded ->
    false

let fault_code_to_string = function
  | Transport_corrupt -> "xrpc:transport.corrupt"
  | Transport_timeout -> "xrpc:transport.timeout"
  | Protocol_malformed -> "xrpc:protocol.malformed"
  | App_dynamic -> "xrpc:app.dynamic-error"
  | App_type -> "xrpc:app.type-error"
  | Txn_aborted -> "xrpc:txn.aborted"
  | Topo_unroutable -> "xrpc:topo.unroutable"
  | Server_overloaded -> "xrpc:server.overloaded"
  | Deadline_exceeded -> "xrpc:deadline.exceeded"

let fault_code_of_string = function
  | "xrpc:transport.corrupt" -> Transport_corrupt
  | "xrpc:transport.timeout" -> Transport_timeout
  | "xrpc:protocol.malformed" -> Protocol_malformed
  | "xrpc:app.dynamic-error" -> App_dynamic
  | "xrpc:app.type-error" -> App_type
  | "xrpc:txn.aborted" -> Txn_aborted
  | "xrpc:topo.unroutable" -> Topo_unroutable
  | "xrpc:server.overloaded" -> Server_overloaded
  | "xrpc:deadline.exceeded" -> Deadline_exceeded
  | s -> protocol_error "unknown fault code %S" s

(* The faults print as the CLI reports them, fault code included, so a
   span's [error] attribute names the code and not its constructor
   number. *)
let () =
  Printexc.register_printer (function
    | Xrpc_fault { host; code; reason } ->
      Some
        (Printf.sprintf "xrpc fault from %s: %s: %s" host
           (fault_code_to_string code) reason)
    | Xrpc_timeout { host; attempts } ->
      Some
        (Printf.sprintf "xrpc timeout: %s did not answer (%d attempts)" host
           attempts)
    | _ -> None)

(* SOAP 1.2 top-level role: sender faults are the caller's doing,
   everything else is on the receiving side. *)
let fault_role = function
  | Protocol_malformed -> "env:Sender"
  | Transport_corrupt | Transport_timeout | App_dynamic | App_type
  | Txn_aborted | Topo_unroutable | Server_overloaded | Deadline_exceeded ->
    "env:Receiver"

(* ------------------------------------------------------------------ *)
(* Session endpoint state.                                             *)
(* ------------------------------------------------------------------ *)

(* Provenance of a document shredded from a remote fragment: which host it
   came from, which remote document, and the remote original tree index for
   each local tree index (omap.(local_idx) = remote_idx; index 0 is the
   local document node). *)
type foreign = { from_host : string; remote_did : int; omap : int array }

type endpoint = {
  self : Peer.t;
  foreign_docs : (int, foreign) Hashtbl.t; (* local did -> provenance *)
  origin : (string * int * int, X.Node.t) Hashtbl.t;
      (* (host, remote did, remote idx) -> local node *)
  shipped : (string, (int, Iset.t ref) Hashtbl.t) Hashtbl.t;
      (* per dest host: my did -> indices already shipped there *)
  host_base : (string, int) Hashtbl.t;
}

let make_endpoint peer =
  {
    self = peer;
    foreign_docs = Hashtbl.create 16;
    origin = Hashtbl.create 64;
    shipped = Hashtbl.create 4;
    host_base = Hashtbl.create 4;
  }

(* Bases are allocated from a global counter so synthesized document ids
   never collide across endpoints/stores. *)
let global_base = ref 1

let base_for ep host =
  match Hashtbl.find_opt ep.host_base host with
  | Some b -> b
  | None ->
    let b = !global_base lsl 44 in
    incr global_base;
    Hashtbl.replace ep.host_base host b;
    b

let shipped_for ep host =
  match Hashtbl.find_opt ep.shipped host with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    Hashtbl.replace ep.shipped host h;
    h

let shipped_set tbl did =
  match Hashtbl.find_opt tbl did with
  | Some s -> s
  | None ->
    let s = ref Iset.empty in
    Hashtbl.replace tbl did s;
    s

(* Remote origin of a local tree node w.r.t. destination host, if it was
   shredded from that host's data. *)
let remote_origin ep ~host n =
  match Hashtbl.find_opt ep.foreign_docs n.X.Node.doc.X.Doc.did with
  | Some f when f.from_host = host ->
    let idx = X.Node.index n in
    if idx < Array.length f.omap then Some (f.remote_did, f.omap.(idx))
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Writer helpers.                                                     *)
(* ------------------------------------------------------------------ *)

let buf_attr buf name v =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.add_char buf '"'

let buf_text buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s

(* The SOAP wrapper shared by every message; batch responses embed the
   per-call bodies (responses and faults) side by side inside one
   envelope, so the pieces are built separately. *)
let env_open =
  "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Body>"

let env_close = "</env:Body></env:Envelope>"
let envelope body = env_open ^ body ^ env_close

(* Where a header that belongs to the whole message sits: first in
   <env:Body>. *)
let body_at = String.length env_open

(* Deadline and retry-after ride the wire as fixed-width attributes, so
   their byte cost is deterministic and they can be re-stamped in place on
   every retry attempt without reserializing the message (PROTOCOL.md,
   "Deadlines & overload"). Like the <trace> header they are invisible to
   the fault schedule — installing a deadline must not shift which
   messages an existing fault spec hits — but unlike <trace> they ARE
   billed: the budget is real protocol payload. Nothing searches for
   them: a writer reports where it put the deadline, and a top-level
   fault carries its retry-after at a fixed offset. *)

let deadline_width = 15 (* "00000000.100000" — %015.6f *)
let deadline_value s = Printf.sprintf "%0*.6f" deadline_width (Float.max 0. s)
let deadline_marker = " deadline=\""

(* Append the deadline attribute; returns the offset of its value in
   [buf]. *)
let buf_deadline buf s =
  Buffer.add_string buf deadline_marker;
  let at = Buffer.length buf in
  Buffer.add_string buf (deadline_value s);
  Buffer.add_char buf '"';
  at

type outgoing = { text : string; deadline_at : int option }

(* Re-stamp the deadline value at [at] with the budget remaining now. *)
let restamp_deadline text ~at remaining =
  let b = Bytes.of_string text in
  Bytes.blit_string (deadline_value remaining) 0 b at deadline_width;
  Bytes.unsafe_to_string b

(* The whole attribute whose value sits at [at]. *)
let deadline_range at =
  let mlen = String.length deadline_marker in
  (at - mlen, mlen + deadline_width + 1)

let retry_after_width = 8 (* "000.0500" — %08.4f *)

let retry_after_value s =
  Printf.sprintf "%0*.4f" retry_after_width (Float.max 0. s)

let fault_open = "<env:Fault"
let retry_after_marker = " retry-after=\""
let retry_after_prefix = env_open ^ fault_open ^ retry_after_marker

let retry_after_range text =
  if String.starts_with ~prefix:retry_after_prefix text then
    Some
      ( body_at + String.length fault_open,
        String.length retry_after_marker + retry_after_width + 1 )
  else None

(* The <env:Fault> element (PROTOCOL.md, "Faults"); only a top-level
   fault carries a retry-after, as its first attribute. *)
let fault_element ?retry_after ~code ~reason () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf fault_open;
  (match retry_after with
  | Some s ->
    Buffer.add_string buf retry_after_marker;
    Buffer.add_string buf (retry_after_value s);
    Buffer.add_char buf '"'
  | None -> ());
  Buffer.add_string buf "><env:Code><env:Value>";
  Buffer.add_string buf (fault_role code);
  Buffer.add_string buf "</env:Value><env:Subcode><env:Value>";
  Buffer.add_string buf (fault_code_to_string code);
  Buffer.add_string buf
    "</env:Value></env:Subcode></env:Code><env:Reason><env:Text>";
  buf_text buf reason;
  Buffer.add_string buf "</env:Text></env:Reason></env:Fault>";
  Buffer.contents buf

(* Just the <env:Fault> element, as a batch slot answers. *)
let fault_body ~code ~reason () = fault_element ~code ~reason ()

(* A complete <env:Fault> response envelope. *)
let write_fault ?retry_after ~code ~reason () =
  envelope (fault_element ?retry_after ~code ~reason ())

(* ------------------------------------------------------------------ *)
(* Transaction control envelopes (PROTOCOL.md, "Transactions").        *)
(* ------------------------------------------------------------------ *)

(* 2PC control messages are tiny dedicated envelopes: the coordinator
   sends <prepare/commit/abort txn="T"/>, the participant acks with
   <txn-ack txn="T" state="…"/>. They are idempotent by construction, so
   unlike <request> they carry no request-id and need no dedup cache. *)

type txn_action = Prepare | Commit | Abort

let txn_action_to_string = function
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Abort -> "abort"

type txn_ack = Ack_prepared | Ack_committed | Ack_aborted

let txn_ack_to_string = function
  | Ack_prepared -> "prepared"
  | Ack_committed -> "committed"
  | Ack_aborted -> "aborted"

let txn_ack_of_string = function
  | "prepared" -> Ack_prepared
  | "committed" -> Ack_committed
  | "aborted" -> Ack_aborted
  | s -> protocol_error "unknown transaction ack state %S" s

(* [epoch] rides only on <prepare> under dynamic topology: the participant
   refuses to prepare when its catalog epoch has moved on (PROTOCOL.md,
   "Topology & forwarding"). Absent epoch = static build, byte-identical.
   [deadline] rides 2PC control only when the query has a budget — control
   messages consume it like any other hop. *)
let write_txn_control ?epoch ?deadline ~action ~txn () =
  let buf = Buffer.create 192 in
  Buffer.add_string buf env_open;
  Buffer.add_char buf '<';
  Buffer.add_string buf (txn_action_to_string action);
  buf_attr buf "txn" txn;
  (match epoch with
  | Some e -> buf_attr buf "epoch" (string_of_int e)
  | None -> ());
  let deadline_at = Option.map (buf_deadline buf) deadline in
  Buffer.add_string buf "/>";
  Buffer.add_string buf env_close;
  { text = Buffer.contents buf; deadline_at }

let write_txn_ack ~txn ~ack =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "<txn-ack";
  buf_attr buf "txn" txn;
  buf_attr buf "state" (txn_ack_to_string ack);
  Buffer.add_string buf "/>";
  envelope (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Topology envelopes (PROTOCOL.md, "Topology & forwarding").          *)
(* ------------------------------------------------------------------ *)

(* A peer that no longer owns [doc] answers a request with a redirect in
   response position instead of evaluating: the caller re-resolves and
   retries at [owner]. [epoch] is the answering peer's catalog version, so
   the caller can tell a fresh redirect from a stale one. *)
let forward_body ~doc ~owner ~epoch =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "<forward";
  buf_attr buf "doc" doc;
  buf_attr buf "owner" owner;
  buf_attr buf "epoch" (string_of_int epoch);
  Buffer.add_string buf "/>";
  Buffer.contents buf

(* The catalog itself as an envelope: how a replicated registry travels
   between peers (and how [--show-catalog] round-trips in tests). *)
let catalog_body cat =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<catalog";
  buf_attr buf "epoch" (string_of_int (Xd_topo.Catalog.epoch cat));
  Buffer.add_string buf ">";
  List.iter
    (fun e ->
      Buffer.add_string buf "<entry";
      buf_attr buf "doc" e.Xd_topo.Catalog.doc;
      buf_attr buf "owner" e.Xd_topo.Catalog.owner;
      if e.Xd_topo.Catalog.replicas <> [] then
        buf_attr buf "replicas" (String.concat " " e.Xd_topo.Catalog.replicas);
      Buffer.add_string buf "/>")
    (Xd_topo.Catalog.entries cat);
  List.iter
    (fun (p, up) ->
      Buffer.add_string buf "<member";
      buf_attr buf "peer" p;
      buf_attr buf "up" (if up then "true" else "false");
      Buffer.add_string buf "/>")
    (Xd_topo.Catalog.members cat);
  Buffer.add_string buf "</catalog>";
  Buffer.contents buf

let write_catalog_ack ~epoch =
  envelope ("<catalog-ack epoch=\"" ^ string_of_int epoch ^ "\"/>")

(* ---- the optional <trace> telemetry header (PROTOCOL.md, "Tracing") ---- *)

let trace_header ~trace_id ~span_id =
  Printf.sprintf "<trace trace-id=\"%s\" span-id=\"%s\"/>" trace_id span_id

(* Does [sub] occur in [text] at [i]? Compared in place. *)
let sub_at text i sub =
  let n = String.length sub in
  let rec go k = k = n || (text.[i + k] = sub.[k] && go (k + 1)) in
  i >= 0 && i + n <= String.length text && go 0

(* The header goes first in <env:Body>; text that is not an envelope
   ships unmodified, with no header. *)
let inject_trace_header text ~header =
  if String.starts_with ~prefix:env_open text then
    ( String.sub text 0 body_at ^ header
      ^ String.sub text body_at (String.length text - body_at),
      body_at,
      String.length header )
  else (text, 0, 0)

(* Textual peek at the header's fixed offset, deliberately tolerant: any
   header we cannot fully decode — absent, cut off by a truncation fault,
   missing an attribute, or carrying non-hex ids — yields [None] and the
   call proceeds untraced. A malformed header is never worth a fault. *)
let peek_trace_header text =
  let quoted_value text from =
    match String.index_from_opt text from '"' with
    | None -> None
    | Some e -> Some (String.sub text from (e - from), e + 1)
  in
  let trace_open = "<trace trace-id=\"" in
  if not (sub_at text body_at trace_open) then None
  else
    match quoted_value text (body_at + String.length trace_open) with
    | None -> None
    | Some (trace_id, after) -> (
      let sep = " span-id=\"" in
      if not (sub_at text after sep) then None
      else
        match quoted_value text (after + String.length sep) with
        | None -> None
        | Some (span_id, after) ->
          if
            sub_at text after "/>"
            && Xd_obs.Trace.valid_id trace_id
            && Xd_obs.Trace.valid_id span_id
          then Some (trace_id, span_id)
          else None)

(* The node used for structural shipping: attributes travel with their
   owner element. *)
let effective_node n =
  if X.Node.is_attribute n then X.Node.of_tree n.X.Node.doc (X.Node.index n)
  else n

(* ------------------------------------------------------------------ *)
(* Fragment planning (sender side).                                    *)
(* ------------------------------------------------------------------ *)

type frag = {
  fr_okey : int * int; (* (sender did, sender root idx) *)
  fr_base_uri : string option;
  fr_omap : int list option; (* explicit map (by-projection); None = contiguous *)
  fr_content : Buffer.t -> unit; (* serializer for the fragment content *)
  fr_nodeid : int -> int option; (* sender tree idx -> nodeid in fragment *)
}

(* All node items of a list of values. *)
let value_nodes vs =
  List.concat_map
    (fun v ->
      List.filter_map (function Value.N n -> Some n | Value.A _ -> None) v)
    vs

(* By-fragment: ship maximal subtrees of the not-yet-shipped local nodes. *)
let plan_by_fragment ep ~host nodes =
  let local =
    List.filter (fun n -> remote_origin ep ~host n = None) nodes
    |> List.map effective_node
  in
  let maximal = X.Seq_ops.maximal local in
  let tbl = shipped_for ep host in
  let to_send =
    List.filter
      (fun m ->
        let s = shipped_set tbl m.X.Node.doc.X.Doc.did in
        not (Iset.mem (X.Node.index m) !s))
      maximal
  in
  List.map
    (fun m ->
      let d = m.X.Node.doc in
      let idx = X.Node.index m in
      let s = shipped_set tbl d.X.Doc.did in
      for i = idx to idx + d.X.Doc.size.(idx) do
        s := Iset.add i !s
      done;
      let size = d.X.Doc.size.(idx) in
      {
        fr_okey = (d.X.Doc.did, idx);
        fr_base_uri = X.Doc.uri d;
        fr_omap = None;
        fr_content = (fun buf -> X.Serializer.node_to_buf buf m);
        fr_nodeid =
          (fun i -> if i >= idx && i <= idx + size then Some (i - idx + 1) else None);
      })
    to_send

(* By-projection: project each touched document on the used/returned node
   sets and ship the projection (unless everything needed was already
   shipped this session). *)
let plan_by_projection ?schema ep ~host ~used ~returned =
  let local n = remote_origin ep ~host n = None in
  (* a *returned* attribute only needs its owner element bare: attributes
     always travel with their element, so the owner goes to the used set
     (shipping its whole subtree would defeat the projection) *)
  let ret_attrs, ret_elems =
    List.partition X.Node.is_attribute (List.filter local returned)
  in
  let used =
    (List.filter local used |> List.map effective_node)
    @ List.map effective_node ret_attrs
  in
  let returned = ret_elems in
  let tbl = shipped_for ep host in
  let groups = Xd_projection.Runtime.group_by_doc (used @ returned) in
  List.filter_map
    (fun (d, _) ->
      let pr = Xd_projection.Runtime.project ?schema ~used ~returned d in
      if pr.Xd_projection.Runtime.kept = 0 then None
      else begin
        let kept_orig =
          Hashtbl.fold (fun o _ acc -> o :: acc) pr.Xd_projection.Runtime.map []
        in
        let s = shipped_set tbl d.X.Doc.did in
        if List.for_all (fun o -> Iset.mem o !s) kept_orig then None
        else begin
          List.iter (fun o -> s := Iset.add o !s) kept_orig;
          (* omap: original index per projected preorder position 1.. *)
          let pairs =
            Hashtbl.fold
              (fun o p acc -> if p >= 1 then (p, o) :: acc else acc)
              pr.Xd_projection.Runtime.map []
            |> List.sort compare
          in
          let omap = List.map snd pairs in
          let pdoc = pr.Xd_projection.Runtime.doc in
          let pmap = pr.Xd_projection.Runtime.map in
          let base = pr.Xd_projection.Runtime.content_root in
          let root_idx = pr.Xd_projection.Runtime.orig_content_root in
          (* a projection that kept a whole contiguous subtree needs no
             explicit map: the receiver derives it from the okey, exactly
             as for by-fragment fragments *)
          let contiguous =
            List.for_all2
              (fun pos o -> o = root_idx + pos)
              (List.init (List.length omap) Fun.id)
              omap
          in
          Some
            {
              fr_okey = (d.X.Doc.did, root_idx);
              fr_base_uri = X.Doc.uri d;
              fr_omap = (if contiguous then None else Some omap);
              fr_content =
                (fun buf ->
                  List.iter
                    (X.Serializer.node_to_buf buf)
                    (X.Node.children (X.Node.doc_node pdoc)));
              fr_nodeid =
                (fun i ->
                  match Hashtbl.find_opt pmap i with
                  | Some p when p >= base -> Some (p - base + 1)
                  | _ -> None);
            }
        end
      end)
    groups

let write_fragments buf frags =
  Buffer.add_string buf "<fragments>";
  List.iter
    (fun f ->
      Buffer.add_string buf "<fragment";
      let did, idx = f.fr_okey in
      buf_attr buf "okey" (Printf.sprintf "%d:%d" did idx);
      (match f.fr_omap with
      | Some omap ->
        buf_attr buf "omap" (String.concat " " (List.map string_of_int omap))
      | None -> ());
      (match f.fr_base_uri with
      | Some u -> buf_attr buf "base-uri" u
      | None -> ());
      Buffer.add_char buf '>';
      f.fr_content buf;
      Buffer.add_string buf "</fragment>")
    frags;
  Buffer.add_string buf "</fragments>"

(* ------------------------------------------------------------------ *)
(* Item marshaling.                                                    *)
(* ------------------------------------------------------------------ *)

let atom_type = function
  | Value.String _ -> "string"
  | Value.Integer _ -> "integer"
  | Value.Double _ -> "double"
  | Value.Boolean _ -> "boolean"
  | Value.Untyped _ -> "untyped"

let write_atom buf a =
  Buffer.add_string buf "<atomic";
  buf_attr buf "type" (atom_type a);
  Buffer.add_char buf '>';
  buf_text buf (Value.atom_to_string a);
  Buffer.add_string buf "</atomic>"

(* by-value item *)
let write_copy buf n =
  let kind_name =
    match X.Node.kind n with
    | X.Node.Document -> "document"
    | X.Node.Element -> "element"
    | X.Node.Attribute -> "attribute"
    | X.Node.Text -> "text"
    | X.Node.Comment -> "comment"
    | X.Node.Pi -> "pi"
  in
  Buffer.add_string buf "<copy";
  buf_attr buf "kind" kind_name;
  (match X.Node.kind n with
  | X.Node.Attribute ->
    buf_attr buf "name" (X.Node.name n);
    buf_attr buf "value" (X.Node.string_value n)
  | X.Node.Pi -> buf_attr buf "name" (X.Node.name n)
  | _ -> ());
  (match X.Node.document_uri n with
  | Some u -> buf_attr buf "base-uri" u
  | None -> ());
  Buffer.add_char buf '>';
  (match X.Node.kind n with
  | X.Node.Element -> X.Serializer.node_to_buf buf n
  | X.Node.Document ->
    List.iter (X.Serializer.node_to_buf buf) (X.Node.children n)
  | X.Node.Text | X.Node.Comment | X.Node.Pi ->
    buf_text buf (X.Node.string_value n)
  | X.Node.Attribute -> ());
  Buffer.add_string buf "</copy>"

(* Fragment-based item reference. The fragid/nodeid attributes follow the
   paper's message format for fragments present in this message; the origin
   key handles session-cached nodes and back references. *)
let write_ref ep ~host ~frags buf n =
  let eff = effective_node n in
  let origin =
    match remote_origin ep ~host eff with
    | Some (rdid, ridx) -> Printf.sprintf "R:%d:%d" rdid ridx
    | None ->
      Printf.sprintf "L:%d:%d" eff.X.Node.doc.X.Doc.did (X.Node.index eff)
  in
  let fragid, nodeid =
    match remote_origin ep ~host eff with
    | Some _ -> (0, 0)
    | None -> (
      let did = eff.X.Node.doc.X.Doc.did and idx = X.Node.index eff in
      let rec find i = function
        | [] -> (0, 0)
        | f :: rest ->
          if fst f.fr_okey = did then
            match f.fr_nodeid idx with
            | Some nid -> (i, nid)
            | None -> find (i + 1) rest
          else find (i + 1) rest
      in
      find 1 frags)
  in
  if X.Node.is_attribute n then begin
    Buffer.add_string buf "<attr-ref";
    buf_attr buf "name" (X.Node.name n)
  end
  else Buffer.add_string buf "<node";
  buf_attr buf "o" origin;
  buf_attr buf "fragid" (string_of_int fragid);
  buf_attr buf "nodeid" (string_of_int nodeid);
  Buffer.add_string buf "/>"

let write_items ep ~host ~passing ~frags buf (v : Value.t) =
  List.iter
    (fun item ->
      match item with
      | Value.A a -> write_atom buf a
      | Value.N n -> (
        match passing with
        | By_value -> write_copy buf n
        | By_fragment | By_projection -> write_ref ep ~host ~frags buf n))
    v

let write_sequence ep ~host ~passing ~frags buf (v : Value.t) =
  Buffer.add_string buf "<sequence>";
  write_items ep ~host ~passing ~frags buf v;
  Buffer.add_string buf "</sequence>"

(* ------------------------------------------------------------------ *)
(* The request writer.                                                 *)
(* ------------------------------------------------------------------ *)

(* One call site's <request>, compiled once. Everything that does not
   depend on the call is a constant segment: the head, the escaped query
   text with its projection paths, each parameter's <sequence> opening;
   the parameters' projection paths are kept parsed for the planner. *)
type request_writer = {
  rw_passing : passing;
  rw_head : string;
  rw_query : string;
  rw_params : (Ast.var * string) list;
  rw_paths :
    (Ast.var * Xd_projection.Path.t list * Xd_projection.Path.t list) list;
}

let segment f =
  let buf = Buffer.create 128 in
  f buf;
  Buffer.contents buf

let param_open v =
  segment (fun buf ->
      Buffer.add_string buf "<sequence";
      buf_attr buf "param" v;
      Buffer.add_char buf '>')

(* The constant attribute tail that closes every <request> head. *)
let request_attrs_tail =
  segment (fun buf ->
      buf_attr buf "static-base-uri" "xdx://static/";
      buf_attr buf "default-collation" "codepoint";
      buf_attr buf "current-dateTime" "2009-03-29T00:00:00Z";
      Buffer.add_char buf '>')

(* The call's body text, and — per the paper, only when the analysis
   produced result paths for a by-projection call — the
   <projection-paths> telling the callee how to project its answer;
   their absence asks for the full (by-fragment-style) format. *)
let buf_query buf ~passing (x : Ast.execute_at) =
  Buffer.add_string buf "<query>";
  buf_text buf (Xd_lang.Pp.expr_to_string x.Ast.body);
  Buffer.add_string buf "</query>";
  match passing with
  | By_projection when x.Ast.result_paths <> ([], []) ->
    let u, r = x.Ast.result_paths in
    let paths op cl =
      List.iter (fun p ->
          Buffer.add_string buf op;
          buf_text buf p;
          Buffer.add_string buf cl)
    in
    Buffer.add_string buf "<projection-paths>";
    paths "<used-path>" "</used-path>" u;
    paths "<returned-path>" "</returned-path>" r;
    Buffer.add_string buf "</projection-paths>"
  | By_value | By_fragment | By_projection -> ()

let compile_request ~passing ~caller (x : Ast.execute_at) =
  let parse = List.map Xd_projection.Path.of_string in
  {
    rw_passing = passing;
    rw_head =
      segment (fun buf ->
          Buffer.add_string buf "<request";
          buf_attr buf "passing" (passing_to_string passing);
          buf_attr buf "caller" caller);
    rw_query = segment (fun buf -> buf_query buf ~passing x);
    rw_params = List.map (fun (v, _) -> (v, param_open v)) x.Ast.params;
    rw_paths = List.map (fun (v, u, r) -> (v, parse u, parse r)) x.Ast.param_paths;
  }

(* Used/returned node sets for the parameters of one call (by-projection).
   Parameters without projection information conservatively ship their full
   subtrees (by-fragment behaviour). *)
let param_node_sets w args =
  let used = ref [] and returned = ref [] in
  List.iter
    (fun (v, value) ->
      let ctx =
        List.filter_map
          (function Value.N n -> Some n | Value.A _ -> None)
          value
      in
      if ctx <> [] then
        match List.find_opt (fun (pv, _, _) -> pv = v) w.rw_paths with
        | Some (_, u, r) ->
          used := ctx @ !used;
          List.iter
            (fun p -> used := Xd_projection.Path.eval p ctx @ !used)
            u;
          List.iter
            (fun p -> returned := Xd_projection.Path.eval p ctx @ !returned)
            r
        | None -> returned := ctx @ !returned)
    args;
  (!used, !returned)

(* What one call adds to its call site's constants. Each attribute is
   stamped only where its feature is in force, so that a wire without
   the feature is byte-identical to a build without it: [req_id] on a
   faulty wire; [txn] inside a distributed transaction (the callee
   stages its PUL under it); [epoch] under dynamic topology (the
   caller's catalog version when it routed the call). *)
type call = {
  args : (Ast.var * Value.t) list;
  funcs : Ast.func list option;
  req_id : string option;
  txn : string option;
  epoch : int option;
}

(* Append one <request> element; returns the offset of the deadline
   value when one was given. Node parameters go through the fragment
   planner, every item through the item writer. *)
let buf_request buf w ep ~host ?schema ?deadline c =
  Buffer.add_string buf w.rw_head;
  (match c.req_id with Some id -> buf_attr buf "request-id" id | None -> ());
  (match c.txn with Some t -> buf_attr buf "txn" t | None -> ());
  (match c.epoch with
  | Some e -> buf_attr buf "epoch" (string_of_int e)
  | None -> ());
  let deadline_at = Option.map (buf_deadline buf) deadline in
  Buffer.add_string buf request_attrs_tail;
  (match c.funcs with
  | Some funcs ->
    Buffer.add_string buf "<module>";
    buf_text buf
      (String.concat "\n"
         (List.map (Format.asprintf "%a" Xd_lang.Pp.pp_func) funcs));
    Buffer.add_string buf "</module>"
  | None -> ());
  Buffer.add_string buf w.rw_query;
  let frags =
    match w.rw_passing with
    | By_value -> []
    | By_fragment ->
      plan_by_fragment ep ~host (value_nodes (List.map snd c.args))
    | By_projection ->
      let used, returned = param_node_sets w c.args in
      plan_by_projection ?schema ep ~host ~used ~returned
  in
  write_fragments buf frags;
  Buffer.add_string buf "<call>";
  List.iter
    (fun (v, value) ->
      Buffer.add_string buf
        (match List.assoc_opt v w.rw_params with
        | Some opening -> opening
        | None -> param_open v);
      write_items ep ~host ~passing:w.rw_passing ~frags buf value;
      Buffer.add_string buf "</sequence>")
    c.args;
  Buffer.add_string buf "</call></request>";
  deadline_at

let write_request w ep ~host ?schema ?deadline c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf env_open;
  let deadline_at = buf_request buf w ep ~host ?schema ?deadline c in
  Buffer.add_string buf env_close;
  { text = Buffer.contents buf; deadline_at }

(* The envelope is the admission unit: it carries the budget for all its
   slots, and the slots carry none. *)
let write_batch ~caller ep ~host ?schema ?deadline slots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf env_open;
  Buffer.add_string buf "<batch";
  buf_attr buf "caller" caller;
  buf_attr buf "calls" (string_of_int (List.length slots));
  let deadline_at = Option.map (buf_deadline buf) deadline in
  Buffer.add_char buf '>';
  List.iter
    (fun (w, c) -> ignore (buf_request buf w ep ~host ?schema c))
    slots;
  Buffer.add_string buf "</batch>";
  Buffer.add_string buf env_close;
  { text = Buffer.contents buf; deadline_at }

(* ------------------------------------------------------------------ *)
(* Shredding (receiver side).                                          *)
(* ------------------------------------------------------------------ *)

let find_child n name =
  List.find_opt
    (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
    (X.Node.children n)

let children_named n name =
  List.filter
    (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
    (X.Node.children n)

let attr_of n name =
  List.find_map
    (fun a -> if X.Node.name a = name then Some (X.Node.string_value a) else None)
    (X.Node.attributes n)

let req_attr n name =
  match attr_of n name with
  | Some v -> v
  | None ->
    protocol_error "malformed XRPC message: missing attribute %s on <%s>"
      name (X.Node.name n)

(* An on-the-wire budget must be a finite non-negative float; anything
   else is ill-formed protocol content and answers with
   xrpc:protocol.malformed (never an exception, never silently ignored). *)
let budget_attr n name =
  match attr_of n name with
  | None -> None
  | Some v -> (
    match float_of_string_opt v with
    | Some s when s >= 0. && Float.is_finite s -> Some s
    | _ ->
      protocol_error "malformed XRPC message: bad %s %S on <%s>" name v
        (X.Node.name n))

(* The deadline attribute of a parsed request / batch / 2PC control
   element, if any. *)
let parse_deadline n = budget_attr n "deadline"

(* The retry-after suggestion on a parsed <env:Fault>, if any. *)
let parse_retry_after fault_node = budget_attr fault_node "retry-after"

(* Read an <env:Fault> element back into (code, reason). A fault whose
   own structure is broken is itself a protocol error. *)
let parse_fault fault_node =
  let child n name =
    match find_child n name with
    | Some c -> c
    | None -> protocol_error "fault envelope without <%s>" name
  in
  let code =
    fault_code_of_string
      (X.Node.string_value
         (child (child (child fault_node "env:Code") "env:Subcode")
            "env:Value"))
  in
  let reason =
    match find_child fault_node "env:Reason" with
    | None -> ""
    | Some r -> (
      match find_child r "env:Text" with
      | None -> ""
      | Some t -> X.Node.string_value t)
  in
  (code, reason)

(* Read a <txn-ack> element back into (txn, ack). *)
let parse_txn_ack n =
  (req_attr n "txn", txn_ack_of_string (req_attr n "state"))

let int_attr n name =
  let v = req_attr n name in
  match int_of_string_opt v with
  | Some i -> i
  | None ->
    protocol_error "malformed XRPC message: bad %s %S on <%s>" name v
      (X.Node.name n)

(* Read a <forward> element back into (doc, owner, epoch). A redirect whose
   own structure is broken is a protocol error — the caller answers or
   raises a typed fault, never a leaked exception. *)
let parse_forward n =
  let doc = req_attr n "doc" and owner = req_attr n "owner" in
  let epoch = int_attr n "epoch" in
  if owner = "" then protocol_error "malformed <forward>: empty owner";
  (doc, owner, epoch)

(* Read a <catalog> element back into a fresh Catalog.t. *)
let parse_catalog n =
  let epoch = int_attr n "epoch" in
  let entries =
    List.map
      (fun e ->
        let replicas =
          match attr_of e "replicas" with
          | None | Some "" -> []
          | Some s ->
            List.filter (fun r -> r <> "") (String.split_on_char ' ' s)
        in
        {
          Xd_topo.Catalog.doc = req_attr e "doc";
          owner = req_attr e "owner";
          replicas;
        })
      (children_named n "entry")
  in
  let members =
    List.map
      (fun m ->
        let up =
          match req_attr m "up" with
          | "true" -> true
          | "false" -> false
          | v -> protocol_error "malformed <member>: bad up %S" v
        in
        (req_attr m "peer", up))
      (children_named n "member")
  in
  List.iter
    (fun e ->
      if e.Xd_topo.Catalog.owner = "" || e.Xd_topo.Catalog.doc = "" then
        protocol_error "malformed <entry>: empty doc or owner")
    entries;
  Xd_topo.Catalog.of_parts ~epoch ~entries ~members

(* ---- reading a message ---- *)

(* Every message is read once, by the streaming Event core. Subtree
   content at the two protocol positions that carry it — <fragment>
   under <fragments>, and <copy kind="element|document"> under
   <sequence> — is diverted into its own document builder as the events
   arrive, so it lands straight in pre-order arrays with no intermediate
   message-tree copy. Only exact protocol positions route: a user
   element that happens to be named "fragment" or "copy" sits inside
   already-routed content and never reaches this check. *)
let routable name parent attrs =
  match (name, parent) with
  | "fragment", "fragments" -> true
  | "copy", "sequence" -> (
    match List.assoc_opt "kind" attrs with
    | Some ("element" | "document") -> true
    | _ -> false)
  | _ -> false

type parsed = { doc : X.Doc.t; prebuilt : (int, X.Doc.t) Hashtbl.t }

let parse text =
  let mb = X.Doc.Builder.create () in
  let prebuilt = Hashtbl.create 8 in
  (* the routed subtree being built, with its host element's pre index
     in the message document; the host is the routed builder's only
     open node when its own current index is back at the document *)
  let route = ref None in
  let names = ref [] in (* open element names outside routed content *)
  let builder () = match !route with Some (rb, _) -> rb | None -> mb in
  X.Event.parse ~strip_ws:false
    {
      X.Event.start_element =
        (fun name attrs ->
          match !route with
          | Some (rb, _) -> X.Doc.Builder.start_element rb name attrs
          | None ->
            X.Doc.Builder.start_element mb name attrs;
            let parent = match !names with p :: _ -> p | [] -> "" in
            if routable name parent attrs then
              route :=
                Some
                  ( X.Doc.Builder.create ?uri:(List.assoc_opt "base-uri" attrs) (),
                    X.Doc.Builder.current_index mb )
            else names := name :: !names);
      end_element =
        (fun _ ->
          match !route with
          | Some (rb, host) when X.Doc.Builder.current_index rb = 0 ->
            Hashtbl.replace prebuilt host (X.Doc.Builder.finish rb);
            route := None;
            X.Doc.Builder.end_element mb
          | Some (rb, _) -> X.Doc.Builder.end_element rb
          | None ->
            names := List.tl !names;
            X.Doc.Builder.end_element mb);
      text = (fun s -> X.Doc.Builder.text (builder ()) s);
      comment = (fun s -> X.Doc.Builder.comment (builder ()) s);
      pi = (fun target data -> X.Doc.Builder.pi (builder ()) target data);
    }
    text;
  { doc = X.Doc.Builder.finish mb; prebuilt }

(* The content of a routed <fragment> or <copy> of [msg]. *)
let content msg n =
  match Hashtbl.find_opt msg.prebuilt (X.Node.index n) with
  | Some d -> d
  | None -> protocol_error "<%s> outside its protocol position" (X.Node.name n)

(* Shred the <fragments> section at an endpoint, registering provenance and
   origin entries. *)
let shred_fragments msg ep ~from_host fragments_node =
  match fragments_node with
  | None -> ()
  | Some fnode ->
    List.iter
      (fun frag ->
        let okey = req_attr frag "okey" in
        let rdid, ridx =
          match String.split_on_char ':' okey with
          | [ a; b ] -> (int_of_string a, int_of_string b)
          | _ -> protocol_error "malformed okey %S" okey
        in
        let doc = content msg frag in
        let n_local = X.Doc.n_nodes doc in
        let omap =
          match attr_of frag "omap" with
          | Some m ->
            let parts =
              List.filter (fun s -> s <> "") (String.split_on_char ' ' m)
            in
            let arr = Array.make n_local (-1) in
            List.iteri
              (fun i o -> if i + 1 < n_local then arr.(i + 1) <- int_of_string o)
              parts;
            if ridx = 0 then arr.(0) <- 0;
            arr
          | None ->
            (* contiguous: local idx k (k>=1) <-> remote ridx + k - 1;
               local document node maps to remote document node only when
               the whole document was shipped (ridx = 0). *)
            Array.init n_local (fun k ->
                if k = 0 then (if ridx = 0 then 0 else -1)
                else if ridx = 0 then k
                else ridx + k - 1)
        in
        let base = base_for ep from_host in
        let did = base + ((rdid land 0x3fffff) lsl 22) + (ridx land 0x3fffff) in
        let doc = X.Store.add_with_did (Peer.store ep.self) doc did in
        Hashtbl.replace ep.foreign_docs doc.X.Doc.did
          { from_host; remote_did = rdid; omap };
        Array.iteri
          (fun local_idx remote_idx ->
            if remote_idx >= 0 then begin
              let key = (from_host, rdid, remote_idx) in
              if not (Hashtbl.mem ep.origin key) then
                Hashtbl.replace ep.origin key (X.Node.of_tree doc local_idx)
            end)
          omap)
      (children_named fnode "fragment")

(* Resolve one marshaled item at the receiver. *)
let shred_item msg ep ~from_host item : Value.t =
  match X.Node.name item with
  | "atomic" ->
    let ty = req_attr item "type" in
    let s = X.Node.string_value item in
    let a =
      match ty with
      | "string" -> Value.String s
      | "integer" -> Value.Integer (int_of_string s)
      | "double" -> Value.Double (float_of_string s)
      | "boolean" -> Value.Boolean (s = "true")
      | _ -> Value.Untyped s
    in
    [ Value.A a ]
  | "copy" -> (
    let store = Peer.store ep.self in
    match req_attr item "kind" with
    | "element" ->
      (* a copy is parentless, as a constructed element is *)
      let doc =
        X.Store.add ~index_uri:false store
          (Xd_lang.Construct.cut_parent (content msg item))
      in
      [ Value.N (X.Node.of_tree doc 1) ]
    | "document" ->
      let doc = X.Store.add ~index_uri:false store (content msg item) in
      [ Value.N (X.Node.doc_node doc) ]
    | "text" ->
      let s = X.Node.string_value item in
      if s = "" then [ Value.A (Value.Untyped "") ]
      else [ Value.N (Xd_lang.Construct.text store s) ]
    | "comment" ->
      let b = X.Doc.Builder.create () in
      X.Doc.Builder.comment b (X.Node.string_value item);
      let doc = X.Store.add store (X.Doc.Builder.finish b) in
      [ Value.N (X.Node.of_tree doc 1) ]
    | "pi" ->
      let b = X.Doc.Builder.create () in
      X.Doc.Builder.pi b (req_attr item "name") (X.Node.string_value item);
      let doc = X.Store.add store (X.Doc.Builder.finish b) in
      [ Value.N (X.Node.of_tree doc 1) ]
    | "attribute" ->
      [
        Value.N
          (Xd_lang.Construct.attribute store (req_attr item "name")
             (req_attr item "value"));
      ]
    | k -> protocol_error "malformed copy kind %S" k)
  | "node" | "attr-ref" -> (
    let o = req_attr item "o" in
    let node =
      match String.split_on_char ':' o with
      | [ "R"; did; idx ] -> (
        (* our own node, referenced back by the other side *)
        let did = int_of_string did and idx = int_of_string idx in
        match X.Store.find_did (Peer.store ep.self) did with
        | Some d when idx < X.Doc.n_nodes d -> X.Node.of_tree d idx
        | _ ->
          protocol_error "dangling remote origin reference %S" o)
      | [ "L"; did; idx ] -> (
        let did = int_of_string did and idx = int_of_string idx in
        match Hashtbl.find_opt ep.origin (from_host, did, idx) with
        | Some n -> n
        | None ->
          protocol_error "unresolved origin reference %S" o)
      | _ -> protocol_error "malformed origin %S" o
    in
    if X.Node.name item = "attr-ref" then begin
      let aname = req_attr item "name" in
      match
        List.find_opt (fun a -> X.Node.name a = aname) (X.Node.attributes node)
      with
      | Some a -> [ Value.N a ]
      | None ->
        protocol_error "attribute %s not found on shipped node"
          aname
    end
    else [ Value.N node ])
  | other ->
    protocol_error "unexpected item element <%s> in message" other

let shred_sequence msg ep ~from_host seq_node : Value.t =
  List.concat_map
    (fun c ->
      match X.Node.kind c with
      | X.Node.Element -> shred_item msg ep ~from_host c
      | _ -> [])
    (X.Node.children seq_node)
