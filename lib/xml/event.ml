(* The single XML grammar core, exposed as an event stream: elements,
   attributes, character data, CDATA, comments, processing instructions,
   the five predefined entities and numeric character references.
   DOCTYPE declarations are skipped; namespace prefixes are kept as part
   of the name.

   Documents ({!Parser}) and XRPC messages (Xd_xrpc.Message.parse, which
   diverts fragment/copy content into its own documents as the events
   arrive) are both read through this core, so they necessarily accept
   and reject exactly the same byte strings — the property the
   malformed-message fault tests pin. Both feed {!Doc.Builder}.

   Character data is scanned in bulk: a run without entity references is
   a single [String.sub], and entity-bearing runs fall back to a buffer
   only between references. One [text] callback is emitted per run so
   whitespace stripping can judge the decoded run as a whole. *)

exception Error of string * int (* message, byte offset *)

type handler = {
  start_element : string -> (string * string) list -> unit;
  end_element : string -> unit;
  text : string -> unit;
  comment : string -> unit;
  pi : string -> string -> unit;
}

type state = {
  src : string;
  mutable pos : int;
  strip_ws : bool;
  h : handler;
}

let fail st msg = raise (Error (msg, st.pos))
let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st = st.pos <- st.pos + 1

let expect st c =
  if peek st = c then advance st
  else fail st (Printf.sprintf "expected %C, found %C" c (peek st))

(* [s] from its index [i] on equals [src] from [at + i] on, compared in
   place; the caller has checked that [src] is long enough. *)
let rec matches src at s i =
  i = String.length s || (src.[at + i] = s.[i] && matches src at s (i + 1))

(* Does [s] start at the current position? *)
let looking_at st s =
  st.pos + String.length s <= String.length st.src && matches st.src st.pos s 0

let expect_str st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  while (not (eof st)) && is_ws (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  let start = st.pos in
  if not (is_name_start (peek st)) then fail st "expected name";
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* XML 1.0 [2] Char: the code points a character reference may name. *)
let is_xml_char c =
  c = 0x9 || c = 0xA || c = 0xD
  || (c >= 0x20 && c <= 0xD7FF)
  || (c >= 0xE000 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0x10FFFF)

(* The code point of a character reference "#…" (between '&' and ';'),
   per XML 1.0 [66]: '#' [0-9]+ or '#x' [0-9a-fA-F]+. The value stops
   growing once it passes 0x10FFFF, so no digit run can overflow. *)
let char_ref_code ent =
  let n = String.length ent in
  let hex = n > 1 && ent.[1] = 'x' in
  let base = if hex then 16 else 10 in
  let digit = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c when hex -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c when hex -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let rec go i code =
    if i = n then if is_xml_char code then Some code else None
    else
      let d = digit ent.[i] in
      if d < 0 then None
      else go (i + 1) (if code > 0x10FFFF then code else (code * base) + d)
  in
  let first = if hex then 2 else 1 in
  if n > first then go first 0 else None

let parse_reference st buf =
  (* at '&' *)
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> ';' do
    advance st
  done;
  if eof st then fail st "unterminated entity reference";
  let ent = String.sub st.src start (st.pos - start) in
  advance st;
  match ent with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ when String.length ent > 0 && ent.[0] = '#' -> (
    match char_ref_code ent with
    | None -> fail st ("bad character reference &" ^ ent ^ ";")
    | Some code -> Buffer.add_utf_8_uchar buf (Uchar.of_int code))
  | _ -> fail st ("unknown entity &" ^ ent ^ ";")

(* Scan forward over plain attribute-value characters; stop at the
   quote, '&', '<' or end of input. *)
let scan_attr_plain st quote =
  let src = st.src in
  let n = String.length src in
  let i = ref st.pos in
  while
    !i < n
    &&
    let c = src.[!i] in
    c <> quote && c <> '&' && c <> '<'
  do
    incr i
  done;
  !i

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected attribute value";
  advance st;
  let start = st.pos in
  let stop = scan_attr_plain st quote in
  if stop >= String.length st.src then begin
    st.pos <- stop;
    fail st "unterminated attribute value"
  end
  else if st.src.[stop] = quote then begin
    (* the common case: no references — a single substring *)
    let v = String.sub st.src start (stop - start) in
    st.pos <- stop + 1;
    v
  end
  else begin
    st.pos <- stop;
    if st.src.[stop] = '<' then fail st "raw '<' in attribute value";
    let buf = Buffer.create 16 in
    Buffer.add_substring buf st.src start (stop - start);
    let rec loop () =
      if eof st then fail st "unterminated attribute value"
      else if peek st = quote then advance st
      else if peek st = '<' then fail st "raw '<' in attribute value"
      else begin
        parse_reference st buf;
        let s2 = st.pos in
        let stop2 = scan_attr_plain st quote in
        Buffer.add_substring buf st.src s2 (stop2 - s2);
        st.pos <- stop2;
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  end

let parse_attrs st =
  let rec loop acc =
    skip_ws st;
    if peek st = '>' || peek st = '/' || peek st = '?' then List.rev acc
    else begin
      let name = parse_name st in
      skip_ws st;
      expect st '=';
      skip_ws st;
      let v = parse_attr_value st in
      loop ((name, v) :: acc)
    end
  in
  loop []

let skip_until st stop =
  let n = String.length stop in
  let rec loop () =
    if st.pos + n > String.length st.src then fail st ("expected " ^ stop)
    else if looking_at st stop then st.pos <- st.pos + n
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let read_until st stop =
  let start = st.pos in
  skip_until st stop;
  String.sub st.src start (st.pos - start - String.length stop)

let skip_doctype st =
  (* at "<!DOCTYPE"; skip balancing '<'/'>' to handle internal subsets *)
  let depth = ref 0 in
  let continue = ref true in
  while !continue do
    if eof st then fail st "unterminated DOCTYPE"
    else begin
      (match peek st with
      | '<' -> incr depth
      | '>' -> if !depth = 0 then continue := false else decr depth
      | '[' -> incr depth
      | ']' -> decr depth
      | _ -> ());
      advance st
    end
  done

let all_ws s =
  let ok = ref true in
  String.iter (fun c -> if not (is_ws c) then ok := false) s;
  !ok

(* Scan forward over plain character data; stop at '<', '&' or eof. *)
let scan_text_plain st =
  let src = st.src in
  let n = String.length src in
  let i = ref st.pos in
  while
    !i < n
    &&
    let c = src.[!i] in
    c <> '<' && c <> '&'
  do
    incr i
  done;
  !i

let emit_text st s = if not (st.strip_ws && all_ws s) then st.h.text s

let parse_text st =
  let start = st.pos in
  let stop = scan_text_plain st in
  if stop >= String.length st.src || st.src.[stop] = '<' then begin
    st.pos <- stop;
    emit_text st (String.sub st.src start (stop - start))
  end
  else begin
    (* run with entity references: buffer between the references *)
    let buf = Buffer.create 32 in
    Buffer.add_substring buf st.src start (stop - start);
    st.pos <- stop;
    let rec loop () =
      if (not (eof st)) && peek st = '&' then begin
        parse_reference st buf;
        let s2 = st.pos in
        let stop2 = scan_text_plain st in
        Buffer.add_substring buf st.src s2 (stop2 - s2);
        st.pos <- stop2;
        loop ()
      end
    in
    loop ();
    emit_text st (Buffer.contents buf)
  end

let rec parse_content st =
  if eof st then ()
  else if peek st = '<' then begin
    match peek2 st with
    | '/' -> () (* end tag: caller handles *)
    | '!' ->
      if looking_at st "<!--" then begin
        st.pos <- st.pos + 4;
        let c = read_until st "-->" in
        st.h.comment c;
        parse_content st
      end
      else if looking_at st "<![CDATA[" then begin
        st.pos <- st.pos + 9;
        let c = read_until st "]]>" in
        st.h.text c;
        parse_content st
      end
      else fail st "unexpected markup declaration in content"
    | '?' ->
      st.pos <- st.pos + 2;
      let target = parse_name st in
      skip_ws st;
      let data = read_until st "?>" in
      st.h.pi target data;
      parse_content st
    | _ ->
      parse_element st;
      parse_content st
  end
  else begin
    parse_text st;
    parse_content st
  end

and parse_element st =
  expect st '<';
  let name = parse_name st in
  let attrs = parse_attrs st in
  st.h.start_element name attrs;
  if peek st = '/' then begin
    advance st;
    expect st '>';
    st.h.end_element name
  end
  else begin
    expect st '>';
    parse_content st;
    expect_str st "</";
    let close = parse_name st in
    if close <> name then
      fail st (Printf.sprintf "mismatched end tag </%s> for <%s>" close name);
    skip_ws st;
    expect st '>';
    st.h.end_element name
  end

let parse_prolog st =
  let rec loop () =
    skip_ws st;
    if (not (eof st)) && peek st = '<' then
      match peek2 st with
      | '?' ->
        st.pos <- st.pos + 2;
        let _target = parse_name st in
        skip_until st "?>";
        loop ()
      | '!' ->
        if looking_at st "<!--" then begin
          st.pos <- st.pos + 4;
          skip_until st "-->";
          loop ()
        end
        else begin
          expect_str st "<!";
          let _ = parse_name st in
          skip_doctype st;
          loop ()
        end
      | _ -> ()
  in
  loop ()

let parse ?(strip_ws = true) h src =
  let st = { src; pos = 0; strip_ws; h } in
  parse_prolog st;
  if eof st then fail st "no root element";
  (* allow a forest at top level (used when shredding message fragments) *)
  parse_content st;
  skip_ws st;
  if not (eof st) then fail st "trailing content after document"
