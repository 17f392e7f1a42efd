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

(* per tree node: the first attribute index (or -1) and the count, from
   the owners of attributes grouped by owner in pre-order *)
let attr_index n attr_owner =
  let first = Array.make n (-1) and count = Array.make n 0 in
  for k = Array.length attr_owner - 1 downto 0 do
    let o = attr_owner.(k) in
    first.(o) <- k;
    count.(o) <- count.(o) + 1
  done;
  (first, count)

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
  let create_sized ?uri ~nodes ~attrs () =
    {
      b_uri = uri;
      kind = Array.make nodes Document;
      name = Array.make nodes "";
      value = Array.make nodes "";
      parent = Array.make nodes (-1);
      size = Array.make nodes 0;
      count = 1;
      a_owner = Array.make attrs 0;
      a_name = Array.make attrs "";
      a_value = Array.make attrs "";
      a_count = 0;
      stack = Array.make 32 0;
      depth = 1;
      tbuf = Buffer.create 64;
      pending_text = false;
    }

  let create ?uri () = create_sized ?uri ~nodes:64 ~attrs:16 ()

  (* [a] copied into room for [cap] *)
  let grown a cap fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  (* room for [need] tree nodes, at least doubling *)
  let reserve_nodes b need =
    let cap = Array.length b.kind in
    if need > cap then begin
      let cap = max need (2 * cap) in
      b.kind <- grown b.kind cap Document;
      b.name <- grown b.name cap "";
      b.value <- grown b.value cap "";
      b.parent <- grown b.parent cap (-1);
      b.size <- grown b.size cap 0
    end

  let reserve_attrs b need =
    let cap = Array.length b.a_owner in
    if need > cap then begin
      let cap = max need (max 16 (2 * cap)) in
      b.a_owner <- grown b.a_owner cap 0;
      b.a_name <- grown b.a_name cap "";
      b.a_value <- grown b.a_value cap ""
    end

  (* pre-order index of the innermost open node (the document node when
     no element is open) — lets a streaming consumer key side tables by
     the index an element will occupy in the finished document *)
  let current_index b = b.stack.(b.depth - 1)

  let push_node b kind name value =
    if b.count = Array.length b.kind then reserve_nodes b (b.count + 1);
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
        if b.a_count = Array.length b.a_owner then
          reserve_attrs b (b.a_count + 1);
        b.a_owner.(b.a_count) <- idx;
        b.a_name.(b.a_count) <- an;
        b.a_value.(b.a_count) <- av;
        b.a_count <- b.a_count + 1)
      attrs;
    if b.depth = Array.length b.stack then
      b.stack <- grown b.stack (2 * b.depth) 0;
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

  (* Copy the nodes [lo, hi) of the finished document [d] under the
     innermost open node: whole sibling subtrees, children of [d]'s node
     [parent], whose attributes are [d]'s [alo, ahi). Unchanged runs are
     blitted; a parent inside the run moves by the run's delta, one
     outside it becomes the open node. Text at either end of the run goes
     through [text], so it merges with the text emitted next to it. *)
  let copy_run b (d : t) ~parent ~alo ~ahi lo hi =
    let lo =
      if lo < hi && d.kind.(lo) = Text then begin
        text b d.value.(lo);
        lo + 1
      end
      else lo
    in
    let last_text =
      lo < hi && d.kind.(hi - 1) = Text && d.parent.(hi - 1) = parent
    in
    let hi = if last_text then hi - 1 else hi in
    if lo < hi then begin
      flush_text b;
      let len = hi - lo and base = b.count in
      reserve_nodes b (base + len);
      Array.blit d.kind lo b.kind base len;
      Array.blit d.name lo b.name base len;
      Array.blit d.value lo b.value base len;
      Array.blit d.size lo b.size base len;
      let delta = base - lo and top = current_index b in
      for k = lo to hi - 1 do
        let p = d.parent.(k) in
        b.parent.(k + delta) <- (if p >= lo then p + delta else top)
      done;
      b.count <- base + len;
      let alen = ahi - alo and abase = b.a_count in
      reserve_attrs b (abase + alen);
      Array.blit d.attr_name alo b.a_name abase alen;
      Array.blit d.attr_value alo b.a_value abase alen;
      for a = alo to ahi - 1 do
        b.a_owner.(a - alo + abase) <- d.attr_owner.(a) + delta
      done;
      b.a_count <- abase + alen
    end;
    if last_text then text b d.value.(hi)

  let finish b =
    flush_text b;
    if b.depth <> 1 then raise (Malformed "builder: unclosed elements at finish");
    let n = b.count in
    let sub a = Array.sub a 0 n in
    let size = sub b.size in
    size.(0) <- n - 1;
    let na = b.a_count in
    let attr_owner = Array.sub b.a_owner 0 na in
    let attr_first, attr_count = attr_index n attr_owner in
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

let build b t =
  let rec go = function
    | E (name, attrs, children) ->
      Builder.start_element b name attrs;
      List.iter go children;
      Builder.end_element b
    | T s -> Builder.text b s
    | C s -> Builder.comment b s
    | P (target, data) -> Builder.pi b target data
  in
  go t

let of_forest ?uri ts =
  let b = Builder.create ?uri () in
  List.iter (build b) ts;
  Builder.finish b

let of_tree ?uri t = of_forest ?uri [ t ]

(* ---- updates as array edits ---------------------------------------- *)

(* A new version of a document is made from the old one's arrays, which
   are never written after [Builder.finish]: an edit that changes no
   structure copies the arrays it writes and shares the rest, so handles
   on the old version keep reading the old arrays (snapshot semantics). *)

type position =
  | Before
  | After
  | Into

type edit =
  | Insert of int * position * tree list
  | Delete of int
  | Replace_value of int * string
  | Rename of int * string
  | Delete_attr of int
  | Replace_attr_value of int * string
  | Rename_attr of int * string

(* One document's edits by target. A later rename or value of a target
   wins; inserted content accumulates in edit order (reversed here).
   Edits the application never reads are dropped: any edit of the
   document node but an insert into it, a rename of text or a comment. *)
type grouped = {
  deleted : (int, unit) Hashtbl.t;
  inserts : (int * position, tree list) Hashtbl.t;
  values : (int, string) Hashtbl.t;
  renames : (int, string) Hashtbl.t;
  attr_deleted : (int, unit) Hashtbl.t;
  attr_values : (int, string) Hashtbl.t;
  attr_renames : (int, string) Hashtbl.t;
}

let group d edits =
  let g =
    {
      deleted = Hashtbl.create 8;
      inserts = Hashtbl.create 8;
      values = Hashtbl.create 8;
      renames = Hashtbl.create 8;
      attr_deleted = Hashtbl.create 8;
      attr_values = Hashtbl.create 8;
      attr_renames = Hashtbl.create 8;
    }
  in
  List.iter
    (function
      | Insert (0, (Before | After), _)
      | Delete 0
      | Replace_value (0, _)
      | Rename (0, _) ->
        ()
      | Insert (i, pos, content) ->
        let prev = Hashtbl.find_opt g.inserts (i, pos) in
        Hashtbl.replace g.inserts (i, pos)
          (List.rev_append content (Option.value ~default:[] prev))
      | Delete i -> Hashtbl.replace g.deleted i ()
      | Replace_value (i, s) -> Hashtbl.replace g.values i s
      | Rename (i, s) -> (
        match d.kind.(i) with
        | Element | Pi -> Hashtbl.replace g.renames i s
        | Document | Text | Comment -> ())
      | Delete_attr a -> Hashtbl.replace g.attr_deleted a ()
      | Replace_attr_value (a, s) -> Hashtbl.replace g.attr_values a s
      | Rename_attr (a, s) -> Hashtbl.replace g.attr_renames a s)
    edits;
  g

(* A value replacement that rewrites one slot of [value]: text, comment
   or PI content (empty text would vanish), or the content of an element
   whose only child is one text node, by a non-empty string. *)
let slot_value d i s =
  match d.kind.(i) with
  | Text -> s <> ""
  | Comment | Pi -> true
  | Element -> s <> "" && d.size.(i) = 1 && d.kind.(i + 1) = Text
  | Document -> false

(* [a] with [tbl]'s writes, or [a] itself when there are none *)
let written a tbl write =
  if Hashtbl.length tbl = 0 then a
  else begin
    let a = Array.copy a in
    Hashtbl.iter (write a) tbl;
    a
  end

(* Slot edits: each written array is copied once; the rest are shared.
   An element's content replacement lands in its text child, after (and
   so over) any value given to the child itself. An attribute delete
   rewrites the five attribute arrays. *)
let edit_slots d g =
  let value =
    written d.value g.values (fun a i s ->
        if d.kind.(i) <> Element then a.(i) <- s)
  in
  Hashtbl.iter
    (fun i s -> if d.kind.(i) = Element then value.(i + 1) <- s)
    g.values;
  let attr_name = written d.attr_name g.attr_renames (fun a k s -> a.(k) <- s) in
  let attr_value = written d.attr_value g.attr_values (fun a k s -> a.(k) <- s) in
  let d =
    {
      d with
      did = -1;
      name = written d.name g.renames (fun a i s -> a.(i) <- s);
      value;
      attr_name;
      attr_value;
    }
  in
  if Hashtbl.length g.attr_deleted = 0 then d
  else
    let keep =
      List.init (n_attrs d) Fun.id
      |> List.filter (fun k -> not (Hashtbl.mem g.attr_deleted k))
      |> Array.of_list
    in
    let pick a = Array.map (fun k -> a.(k)) keep in
    let attr_owner = pick d.attr_owner in
    let attr_first, attr_count = attr_index (n_nodes d) attr_owner in
    {
      d with
      attr_owner;
      attr_name = pick d.attr_name;
      attr_value = pick d.attr_value;
      attr_first;
      attr_count;
    }

(* the tree nodes and attributes of a forest *)
let rec forest_size ts =
  List.fold_left
    (fun (n, a) -> function
      | E (_, attrs, cs) ->
        let n', a' = forest_size cs in
        (n + 1 + n', a + List.length attrs + a')
      | T _ | C _ | P _ -> (n + 1, a))
    (0, 0) ts

(* A structural edit: the edited nodes and their ancestors go through the
   builder; every run of untouched sibling subtrees between them is
   blitted ([Builder.copy_run]). The builder recomputes the sizes of the
   re-emitted ancestors and merges the text that meets at a splice. The
   XQUF application order: content inserted before or after a node
   survives the node's delete; a replaced element's old children, and the
   content inserted into or among them, do not. *)
let edit_structure d g =
  let inserted pos i =
    match Hashtbl.find_opt g.inserts (i, pos) with
    | Some rev -> List.rev rev
    | None -> []
  in
  let extra_nodes, extra_attrs =
    Hashtbl.fold
      (fun _ rev (n, a) ->
        let n', a' = forest_size rev in
        (n + n', a + a'))
      g.inserts (0, 0)
  in
  (* room for the old nodes, the inserted ones and one text node per
     replaced element content: merges and deletes only shrink it *)
  let b =
    Builder.create_sized ?uri:d.uri
      ~nodes:(n_nodes d + extra_nodes + Hashtbl.length g.values)
      ~attrs:(n_attrs d + extra_attrs) ()
  in
  (* edited nodes in pre-order, with a cursor *)
  let targets =
    let t = Hashtbl.create 16 in
    let add i = Hashtbl.replace t i () in
    Hashtbl.iter (fun i () -> add i) g.deleted;
    Hashtbl.iter (fun (i, _) _ -> add i) g.inserts;
    Hashtbl.iter (fun i _ -> add i) g.values;
    Hashtbl.iter (fun i _ -> add i) g.renames;
    let add_attr k _ = add d.attr_owner.(k) in
    Hashtbl.iter add_attr g.attr_deleted;
    Hashtbl.iter add_attr g.attr_values;
    Hashtbl.iter add_attr g.attr_renames;
    let a = Array.of_seq (Hashtbl.to_seq_keys t) in
    Array.sort compare a;
    a
  in
  let next = ref 0 in
  let skip_to last =
    while !next < Array.length targets && targets.(!next) <= last do
      incr next
    done
  in
  (* first attribute owned at or after [i] *)
  let acur = ref 0 in
  let attrs_from i =
    while !acur < n_attrs d && d.attr_owner.(!acur) < i do incr acur done;
    !acur
  in
  let copy parent lo hi =
    let alo = attrs_from lo in
    let ahi = attrs_from hi in
    Builder.copy_run b d ~parent ~alo ~ahi lo hi
  in
  let find tbl k old = Option.value ~default:old (Hashtbl.find_opt tbl k) in
  let attrs i =
    List.init d.attr_count.(i) (fun j -> d.attr_first.(i) + j)
    |> List.filter_map (fun k ->
           if Hashtbl.mem g.attr_deleted k then None
           else
             Some
               ( find g.attr_renames k d.attr_name.(k),
                 find g.attr_values k d.attr_value.(k) ))
  in
  let rec node i =
    List.iter (build b) (inserted Before i);
    (if not (Hashtbl.mem g.deleted i) then
       match d.kind.(i) with
       | Element ->
         Builder.start_element b (find g.renames i d.name.(i)) (attrs i);
         (match Hashtbl.find_opt g.values i with
         | Some s -> Builder.text b s
         | None ->
           children i;
           List.iter (build b) (inserted Into i));
         Builder.end_element b
       | Text -> Builder.text b (find g.values i d.value.(i))
       | Comment -> Builder.comment b (find g.values i d.value.(i))
       | Pi ->
         Builder.pi b (find g.renames i d.name.(i)) (find g.values i d.value.(i))
       | Document -> ());
    List.iter (build b) (inserted After i);
    skip_to (i + d.size.(i))
  (* the children of [i], an edited node or an ancestor of one *)
  and children i =
    skip_to i;
    let stop = i + d.size.(i) + 1 in
    let pos = ref (i + 1) in
    while !next < Array.length targets && targets.(!next) < stop do
      let c = ref targets.(!next) in
      (* ancestors below [i] have larger indexes; a constructed
         fragment's top (parent -1) stops the climb as well *)
      while d.parent.(!c) > i do c := d.parent.(!c) done;
      copy i !pos !c;
      node !c;
      pos := !c + d.size.(!c) + 1
    done;
    copy i !pos stop
  in
  children 0;
  List.iter (build b) (inserted Into 0);
  Builder.finish b

let splice d edits =
  let g = group d edits in
  if
    Hashtbl.length g.deleted = 0
    && Hashtbl.length g.inserts = 0
    && Hashtbl.fold (fun i s ok -> ok && slot_value d i s) g.values true
  then edit_slots d g
  else edit_structure d g
