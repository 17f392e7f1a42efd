(* Document representation: tree nodes in pre-order arrays (MonetDB-style
   pre/size/parent encoding) plus a separate attribute table. The pre/size
   encoding gives O(1) subtree extent, which the runtime projection algorithm
   (Algorithm 1 of the paper) depends on for fast subtree skipping. *)

type kind =
  | Document
  | Element
  | Text
  | Comment
  | Pi

let kind_to_string = function
  | Document -> "document"
  | Element -> "element"
  | Text -> "text"
  | Comment -> "comment"
  | Pi -> "processing-instruction"

type t = {
  mutable did : int;
  uri : string option;
  kind : kind array;
  name : string array;
  value : string array;
  parent : int array;
  size : int array;
  attr_owner : int array;
  attr_name : string array;
  attr_value : string array;
  attr_first : int array;
  attr_count : int array;
}

let n_nodes d = Array.length d.kind
let n_attrs d = Array.length d.attr_owner
let uri d = d.uri
let id d = d.did

(* Total serialized-tree node count (tree nodes + attributes), used in
   statistics and size reporting. *)
let total_nodes d = n_nodes d + n_attrs d

exception Malformed of string

(* The document builder: the pre-order arrays grow in place and the
   element stack is an int array of open pre indexes, so building costs
   no per-node list cell, no final reverse pass and no attribute sort —
   attributes arrive grouped by owner in pre-order by construction. *)
module Builder = struct
  type b = {
    b_uri : string option;
    mutable kind : kind array;
    mutable name : string array;
    mutable value : string array;
    mutable parent : int array;
    mutable size : int array;
    mutable count : int;
    mutable a_owner : int array;
    mutable a_name : string array;
    mutable a_value : string array;
    mutable a_count : int;
    mutable stack : int array; (* open node pre indexes; stack.(0) = 0 *)
    mutable depth : int;
    tbuf : Buffer.t; (* coalesce adjacent text *)
    mutable pending_text : bool;
  }

  (* the implicit document node sits at index 0; its parent -1 is the
     initial fill *)
  let create ?uri () =
    {
      b_uri = uri;
      kind = Array.make 64 Document;
      name = Array.make 64 "";
      value = Array.make 64 "";
      parent = Array.make 64 (-1);
      size = Array.make 64 0;
      count = 1;
      a_owner = Array.make 16 0;
      a_name = Array.make 16 "";
      a_value = Array.make 16 "";
      a_count = 0;
      stack = Array.make 32 0;
      depth = 1;
      tbuf = Buffer.create 64;
      pending_text = false;
    }

  (* [a], full at [cap], copied into twice the room *)
  let grown a cap fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'

  let grow_nodes b =
    let cap = Array.length b.kind in
    if b.count = cap then begin
      b.kind <- grown b.kind cap Document;
      b.name <- grown b.name cap "";
      b.value <- grown b.value cap "";
      b.parent <- grown b.parent cap (-1);
      b.size <- grown b.size cap 0
    end

  (* pre-order index of the innermost open node (the document node when
     no element is open) — lets a streaming consumer key side tables by
     the index an element will occupy in the finished document *)
  let current_index b = b.stack.(b.depth - 1)

  let push_node b kind name value =
    grow_nodes b;
    let idx = b.count in
    b.kind.(idx) <- kind;
    b.name.(idx) <- name;
    b.value.(idx) <- value;
    b.parent.(idx) <- current_index b;
    b.count <- idx + 1;
    idx

  let flush_text b =
    if b.pending_text then begin
      b.pending_text <- false;
      let s = Buffer.contents b.tbuf in
      Buffer.clear b.tbuf;
      (* only nonempty runs are buffered, so s <> "" *)
      ignore (push_node b Text "" s)
    end

  let start_element b name attrs =
    flush_text b;
    let idx = push_node b Element name "" in
    List.iter
      (fun (an, av) ->
        let cap = Array.length b.a_owner in
        if b.a_count = cap then begin
          b.a_owner <- grown b.a_owner cap 0;
          b.a_name <- grown b.a_name cap "";
          b.a_value <- grown b.a_value cap ""
        end;
        b.a_owner.(b.a_count) <- idx;
        b.a_name.(b.a_count) <- an;
        b.a_value.(b.a_count) <- av;
        b.a_count <- b.a_count + 1)
      attrs;
    if b.depth = Array.length b.stack then
      b.stack <- grown b.stack b.depth 0;
    b.stack.(b.depth) <- idx;
    b.depth <- b.depth + 1

  let end_element b =
    flush_text b;
    if b.depth <= 1 then
      raise (Malformed "builder: end_element without matching start");
    let idx = current_index b in
    b.depth <- b.depth - 1;
    b.size.(idx) <- b.count - idx - 1

  let text b s =
    if s <> "" then begin
      Buffer.add_string b.tbuf s;
      b.pending_text <- true
    end

  let comment b s =
    flush_text b;
    ignore (push_node b Comment "" s)

  let pi b target data =
    flush_text b;
    ignore (push_node b Pi target data)

  let finish b =
    flush_text b;
    if b.depth <> 1 then raise (Malformed "builder: unclosed elements at finish");
    let n = b.count in
    let sub a = Array.sub a 0 n in
    let size = sub b.size in
    size.(0) <- n - 1;
    let na = b.a_count in
    let attr_owner = Array.sub b.a_owner 0 na in
    let attr_first = Array.make n (-1) in
    let attr_count = Array.make n 0 in
    for i = na - 1 downto 0 do
      attr_first.(attr_owner.(i)) <- i;
      attr_count.(attr_owner.(i)) <- attr_count.(attr_owner.(i)) + 1
    done;
    {
      did = -1;
      uri = b.b_uri;
      kind = sub b.kind;
      name = sub b.name;
      value = sub b.value;
      parent = sub b.parent;
      size;
      attr_owner;
      attr_name = Array.sub b.a_name 0 na;
      attr_value = Array.sub b.a_value 0 na;
      attr_first;
      attr_count;
    }
end

(* Convenience element-tree description for building documents in tests and
   generators without going through the imperative builder. *)
type tree =
  | E of string * (string * string) list * tree list
  | T of string
  | C of string
  | P of string * string

let of_forest ?uri ts =
  let b = Builder.create ?uri () in
  let rec go = function
    | E (name, attrs, children) ->
      Builder.start_element b name attrs;
      List.iter go children;
      Builder.end_element b
    | T s -> Builder.text b s
    | C s -> Builder.comment b s
    | P (target, data) -> Builder.pi b target data
  in
  List.iter go ts;
  Builder.finish b

let of_tree ?uri t = of_forest ?uri [ t ]
