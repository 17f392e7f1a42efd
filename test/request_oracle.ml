(* The generic request writer as it stood before every call site
   compiled its own (Message.compile_request): the oracle of the
   writer's byte-identity property in test_shape. The session fields it
   read are the record below, and the Message pieces it shared with the
   compiled encoders of the time are copied here as they were; it calls
   only Message's fragment planner and item writers. *)

module Ast = Xd_lang.Ast
module Value = Xd_lang.Value
module Message = Xd_xrpc.Message

type session = {
  passing : Message.passing;
  caller : string;
  schema : (string -> string list) option;
  funcs_shipped : (string, unit) Hashtbl.t;
  budget : float option;  (** the remaining budget at write time *)
}

(* ---- the shared pieces of Message ------------------------------------- *)

let buf_deadline buf s =
  Buffer.add_string buf " deadline=\"";
  Buffer.add_string buf (Message.deadline_value s);
  Buffer.add_char buf '"'

let buf_request_head buf ~passing ~caller =
  Buffer.add_string buf "<request";
  Message.buf_attr buf "passing" (Message.passing_to_string passing);
  Message.buf_attr buf "caller" caller

let buf_call_attrs buf ?req_id ?txn ?epoch ?deadline () =
  (match req_id with Some id -> Message.buf_attr buf "request-id" id | None -> ());
  (match txn with Some t -> Message.buf_attr buf "txn" t | None -> ());
  (match epoch with
  | Some e -> Message.buf_attr buf "epoch" (string_of_int e)
  | None -> ());
  match deadline with Some d -> buf_deadline buf d | None -> ()

let request_attrs_tail =
  let buf = Buffer.create 96 in
  Message.buf_attr buf "static-base-uri" "xdx://static/";
  Message.buf_attr buf "default-collation" "codepoint";
  Message.buf_attr buf "current-dateTime" "2009-03-29T00:00:00Z";
  Buffer.add_char buf '>';
  Buffer.contents buf

let buf_query buf ~passing (x : Ast.execute_at) =
  Buffer.add_string buf "<query>";
  Message.buf_text buf (Xd_lang.Pp.expr_to_string x.Ast.body);
  Buffer.add_string buf "</query>";
  match passing with
  | Message.By_projection when x.Ast.result_paths <> ([], []) ->
    let u, r = x.Ast.result_paths in
    let paths op cl =
      List.iter (fun p ->
          Buffer.add_string buf op;
          Message.buf_text buf p;
          Buffer.add_string buf cl)
    in
    Buffer.add_string buf "<projection-paths>";
    paths "<used-path>" "</used-path>" u;
    paths "<returned-path>" "</returned-path>" r;
    Buffer.add_string buf "</projection-paths>"
  | Message.By_value | Message.By_fragment | Message.By_projection -> ()

let write_sequence ep ~host ~passing ~frags buf ?param (v : Value.t) =
  Buffer.add_string buf "<sequence";
  (match param with Some p -> Message.buf_attr buf "param" p | None -> ());
  Buffer.add_char buf '>';
  List.iter
    (fun item ->
      match item with
      | Value.A a -> Message.write_atom buf a
      | Value.N n -> (
        match passing with
        | Message.By_value -> Message.write_copy buf n
        | Message.By_fragment | Message.By_projection ->
          Message.write_ref ep ~host ~frags buf n))
    v;
  Buffer.add_string buf "</sequence>"

(* ---- the writer of Session ---------------------------------------------- *)

let parse_suffixes ss = List.map Xd_projection.Path.of_string ss

let param_node_sets (x : Ast.execute_at) args =
  let used = ref [] and returned = ref [] in
  List.iter
    (fun (v, value) ->
      let ctx =
        List.filter_map
          (function Value.N n -> Some n | Value.A _ -> None)
          value
      in
      if ctx <> [] then
        match
          List.find_opt (fun (pv, _, _) -> pv = v) x.Ast.param_paths
        with
        | Some (_, u_strs, r_strs) ->
          used := ctx @ !used;
          List.iter
            (fun p -> used := Xd_projection.Path.eval p ctx @ !used)
            (parse_suffixes u_strs);
          List.iter
            (fun p -> returned := Xd_projection.Path.eval p ctx @ !returned)
            (parse_suffixes r_strs)
        | None -> returned := ctx @ !returned)
    args;
  (!used, !returned)

let request_body session ~ep ~host ?req_id ?txn ?epoch ?(in_batch = false)
    (x : Ast.execute_at) ~args ~funcs =
  let buf = Buffer.create 1024 in
  buf_request_head buf ~passing:session.passing ~caller:session.caller;
  (* the admission unit is the outermost element, so batch slots leave
     the deadline budget to their envelope *)
  buf_call_attrs buf ?req_id ?txn ?epoch
    ?deadline:(if in_batch then None else session.budget)
    ();
  Buffer.add_string buf request_attrs_tail;
  (* ship the module (user function definitions) once per host *)
  if funcs <> [] && not (Hashtbl.mem session.funcs_shipped host) then begin
    Hashtbl.replace session.funcs_shipped host ();
    Buffer.add_string buf "<module>";
    let text =
      String.concat "\n" (List.map (Format.asprintf "%a" Xd_lang.Pp.pp_func) funcs)
    in
    Message.buf_text buf text;
    Buffer.add_string buf "</module>"
  end;
  buf_query buf ~passing:session.passing x;
  let values = List.map snd args in
  let frags =
    match session.passing with
    | Message.By_value -> []
    | Message.By_fragment ->
      Message.plan_by_fragment ep ~host (Message.value_nodes values)
    | Message.By_projection ->
      let used, returned = param_node_sets x args in
      Message.plan_by_projection ?schema:session.schema ep ~host ~used
        ~returned
  in
  Message.write_fragments buf frags;
  Buffer.add_string buf "<call>";
  List.iter
    (fun (v, value) ->
      write_sequence ep ~host ~passing:session.passing ~frags buf ~param:v
        value)
    args;
  Buffer.add_string buf "</call>";
  Buffer.add_string buf "</request>";
  Buffer.contents buf

let build_request session ~ep ~host ?req_id ?txn ?epoch x ~args ~funcs =
  Message.envelope
    (request_body session ~ep ~host ?req_id ?txn ?epoch x ~args ~funcs)

(* The envelope the scheduler's batch_call built around its slots. *)
let build_batch session ~ep ~host ?txn items ~funcs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<batch";
  Message.buf_attr buf "caller" session.caller;
  Message.buf_attr buf "calls" (string_of_int (List.length items));
  (match session.budget with Some d -> buf_deadline buf d | None -> ());
  Buffer.add_char buf '>';
  List.iter
    (fun (x, args) ->
      Buffer.add_string buf
        (request_body session ~ep ~host ?txn ~in_batch:true x ~args ~funcs))
    items;
  Buffer.add_string buf "</batch>";
  Message.envelope (Buffer.contents buf)
