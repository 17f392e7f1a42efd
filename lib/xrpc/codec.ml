(* Compiled per-call-site message codecs, generated with the plan from
   the wire-shape descriptors of Xd_shape.Shape (à la XML::Compile's
   compileMessage):

   - one request writer per call site (Message.compile_request): the
     one writer of <request>, here compiled once with the plan instead
     of once per call;

   - a response decoder for call sites whose response is provably
     atomic: an exact prefix/suffix match around a flat scan of
     <atomic> items. It accepts a strict subset of what the generic
     reader (Message.parse) accepts and agrees with it on every accepted
     byte string — faults, forwards, trace headers and corruption all
     miss the prefix and fall back (a codec.bailouts tick). *)

module Value = Xd_lang.Value
module Ast = Xd_lang.Ast
module Shape = Xd_shape.Shape

type compiled_resp = {
  rd_prefix : string;  (** envelope + response head through [<sequence>] *)
  rd_suffix : string;
}

type t = {
  writers : (int, Message.request_writer) Hashtbl.t;
  resps : (int, compiled_resp) Hashtbl.t;
  shapes : Shape.result;  (** the descriptors codegen consumed *)
}

let descriptors c = c.shapes.Shape.descriptors

let find_writer c vertex = Hashtbl.find_opt c.writers vertex

let find_resp c vertex = Hashtbl.find_opt c.resps vertex

let compile_resp ~passing (x : Ast.execute_at) =
  (* a by-projection request without projection paths is answered with
     by-fragment semantics, and the response says so (see Session's
     server side) — result_paths is static, so the demotion is too *)
  let resp_passing =
    match passing with
    | Message.By_projection when x.Ast.result_paths = ([], []) ->
      Message.By_fragment
    | p -> p
  in
  let b = Buffer.create 96 in
  Buffer.add_string b Message.env_open;
  Buffer.add_string b "<response";
  Message.buf_attr b "passing" (Message.passing_to_string resp_passing);
  Buffer.add_string b "><fragments></fragments><sequence>";
  {
    rd_prefix = Buffer.contents b;
    rd_suffix = "</sequence></response>" ^ Message.env_close;
  }

let compile ~passing ~caller (shapes : Shape.result) (q : Ast.query) : t =
  (* pair each descriptor with its execute-at AST node (by exec id) *)
  let execs = Hashtbl.create 16 in
  let rec walk (e : Ast.expr) =
    (match e.Ast.desc with
    | Ast.Execute_at x -> Hashtbl.replace execs e.Ast.id x
    | _ -> ());
    List.iter walk (Ast.children e)
  in
  walk q.Ast.body;
  List.iter (fun f -> walk f.Ast.f_body) q.Ast.funcs;
  let writers = Hashtbl.create 8 and resps = Hashtbl.create 8 in
  List.iter
    (fun (d : Shape.descriptor) ->
      match Hashtbl.find_opt execs d.Shape.exec with
      | None -> ()
      | Some x ->
        Hashtbl.replace writers d.Shape.vertex
          (Message.compile_request ~passing ~caller x);
        if Shape.decoder_applicable d then
          Hashtbl.replace resps d.Shape.vertex (compile_resp ~passing x))
    shapes.Shape.descriptors;
  { writers; resps; shapes }

(* ---------------- compiled response decoder --------------------------- *)

let sub_eq s at pat =
  let n = String.length pat in
  let rec go i = i = n || (s.[at + i] = pat.[i] && go (i + 1)) in
  go 0

(* Decode escaped character data in s.[p, stop): only the five
   predefined entities; anything else (numeric refs, stray '&') bails to
   the generic parser, which agrees on all five. The '&' search is
   bounded by [stop] — [String.index_from_opt] would scan to the end of
   the whole message on every entity-free atom, turning the flat decode
   quadratic. *)
let find_amp s p stop =
  let rec go i =
    if i >= stop then None else if s.[i] = '&' then Some i else go (i + 1)
  in
  go p

(* Called only when an '&' is known to sit in [p, stop) — the entity-free
   fast path is a plain [String.sub] at the caller. *)
let decode_text s p stop =
  let buf = Buffer.create (stop - p) in
  let rec go p =
    if p >= stop then Some (Buffer.contents buf)
    else
      match find_amp s p stop with
      | Some a -> (
        Buffer.add_substring buf s p (a - p);
        match String.index_from_opt s a ';' with
        | Some e when e < stop ->
          let ent = String.sub s (a + 1) (e - a - 1) in
          let decoded =
            match ent with
            | "lt" -> Some '<'
            | "gt" -> Some '>'
            | "amp" -> Some '&'
            | "apos" -> Some '\''
            | "quot" -> Some '"'
            | _ -> None
          in
          (match decoded with
          | Some c ->
            Buffer.add_char buf c;
            go (e + 1)
          | None -> None)
        | _ -> None)
      | None ->
        Buffer.add_substring buf s p (stop - p);
        go stop
  in
  go p

let atomic_open = "<atomic type=\""
let atomic_open_len = String.length atomic_open
let atomic_close = "</atomic>"
let atomic_close_len = String.length atomic_close

(* Scan the flat <atomic> items in text.[p, stop).

   [amp] is the position of the next '&' at or beyond [p], or -1 when
   there is none before the end of the message — maintained with one
   memchr ([String.index_from_opt]) per consumed '&' rather than a
   per-item bounded scan, so an entity-free response (the common case)
   checks each value against it in O(1) and decodes with a single
   [String.sub]. *)
let rec decode_items text p stop ~amp acc =
  if p = stop then Some (List.rev acc)
  else if p + atomic_open_len <= stop && sub_eq text p atomic_open then begin
    let tstart = p + atomic_open_len in
    match String.index_from_opt text tstart '"' with
    | Some tq when tq + 1 < stop && text.[tq + 1] = '>' -> (
      (* the type name is dispatched in place — no substring allocation
         per item on this innermost loop *)
      let tylen = tq - tstart in
      let ty_is pat =
        String.length pat = tylen && sub_eq text tstart pat
      in
      let vstart = tq + 2 in
      match String.index_from_opt text vstart '<' with
      | Some vend when vend + atomic_close_len <= stop
                       && sub_eq text vend atomic_close -> (
        (* '&' can only sit in character data: one strictly before
           [vend] is inside this value (the constant markup between
           values never contains one — [sub_eq] would have failed). *)
        let decoded =
          if amp >= 0 && amp < vend then decode_text text vstart vend
          else Some (String.sub text vstart (vend - vstart))
        in
        match decoded with
        | None -> None
        | Some s ->
          let atom =
            if ty_is "string" then Some (Value.String s)
            else if ty_is "integer" then
              Option.map (fun i -> Value.Integer i) (int_of_string_opt s)
            else if ty_is "double" then
              Option.map (fun f -> Value.Double f) (float_of_string_opt s)
            else if ty_is "boolean" then
              Some (Value.Boolean (String.equal s "true"))
            else Some (Value.Untyped s)
          in
          (match atom with
          | Some a ->
            let next = vend + atomic_close_len in
            let amp =
              if amp >= 0 && amp < next then
                match String.index_from_opt text next '&' with
                | Some a -> a
                | None -> -1
              else amp
            in
            decode_items text next stop ~amp (Value.A a :: acc)
          | None -> None))
      | _ -> None)
    | _ -> None
  end
  else None

let decode_response rd text : Value.t option =
  let n = String.length text in
  let plen = String.length rd.rd_prefix and slen = String.length rd.rd_suffix in
  if n < plen + slen then None
  else if not (sub_eq text 0 rd.rd_prefix) then None
  else if not (sub_eq text (n - slen) rd.rd_suffix) then None
  else
    let amp =
      match String.index_from_opt text plen '&' with Some a -> a | None -> -1
    in
    decode_items text plen (n - slen) ~amp []
