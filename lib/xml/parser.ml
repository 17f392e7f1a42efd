(* The document parser: a thin shell over the {!Event} core that streams
   events into a {!Doc.Builder}. The grammar — elements, attributes,
   character data, CDATA, comments, processing instructions, entities,
   numeric character references — lives entirely in {!Event}, so this
   parser and the XRPC message reader (Xd_xrpc.Message.parse, the same
   events into the same builder) agree byte-for-byte on what they
   accept. *)

exception Error = Event.Error

let parse_doc ?strip_ws ?uri src =
  let b = Doc.Builder.create ?uri () in
  Event.parse ?strip_ws
    {
      Event.start_element = (fun name attrs -> Doc.Builder.start_element b name attrs);
      end_element = (fun _ -> Doc.Builder.end_element b);
      text = (fun s -> Doc.Builder.text b s);
      comment = (fun s -> Doc.Builder.comment b s);
      pi = (fun target data -> Doc.Builder.pi b target data);
    }
    src;
  Doc.Builder.finish b

let parse ?strip_ws ~store ?uri src =
  Store.add store (parse_doc ?strip_ws ?uri src)
