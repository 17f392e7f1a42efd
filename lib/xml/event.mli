(** Event-based (SAX-style) XML parser — the single grammar core behind
    both document loading ({!Parser}) and XRPC message reading
    ([Xd_xrpc.Message.parse]). Because both sit on this core they accept
    and reject exactly the same byte strings.

    Supports elements, attributes, character data, CDATA, comments,
    processing instructions, the five predefined entities and numeric
    character references; DOCTYPE declarations are skipped; namespace
    prefixes are kept as part of the name. Attribute values containing
    a raw ['<'] are rejected, per the XML well-formedness rules. A
    character reference must follow XML 1.0 production [66] —
    [&#] decimal digits [;] or [&#x] hex digits [;] — and name a code
    point in the [Char] range (#x9, #xA, #xD, #x20–#xD7FF,
    #xE000–#xFFFD, #x10000–#x10FFFF); anything else is an {!Error}
    ["bad character reference …"]. *)

exception Error of string * int
(** Parse failure: message and byte offset. *)

type handler = {
  start_element : string -> (string * string) list -> unit;
      (** name, attributes in document order (duplicates preserved) *)
  end_element : string -> unit;  (** name of the element being closed *)
  text : string -> unit;
      (** one decoded character-data run (entities resolved); a CDATA
          section is its own run and bypasses whitespace stripping *)
  comment : string -> unit;
  pi : string -> string -> unit;  (** target, data *)
}

val parse : ?strip_ws:bool -> handler -> string -> unit
(** [parse h src] streams the events of [src] into [h]. A forest (or
    bare text) at top level is allowed — the XRPC shredder relies on
    it. [strip_ws] (default [true]) suppresses [text] callbacks for
    runs that are entirely whitespace. Raises {!Error} on malformed
    input; handler callbacks run as the input is consumed, so partial
    output may have been emitted by then. *)
