(** Recursive-descent parser producing XCore ASTs.

    Surface XQuery conveniences are desugared at parse time so downstream
    analysis sees only Table II constructs:
    - predicates [E[p]] become [for $dot in E return if (p') then $dot
      else ()] (integer-literal predicates use the [item-at] builtin);
    - [where] clauses become conditionals;
    - [//], [@name], [..], [.] expand to explicit steps;
    - direct constructors become computed constructors;
    - [execute at {h} {f(a)}] becomes an [Execute_at] with fresh
      parameters (rules 27/28).

    Keywords are recognized contextually; the [fn:] prefix of builtin
    calls is stripped (see {!Builtin_names}). *)

exception Error of string * int
(** Message and byte offset. *)

val parse_query : string -> Ast.query
(** Parse [declare function …;]* followed by the query body.

    Memoised: a text seen before may return the physically same AST as
    its earlier parse, and the decomposer and executor memoise on that
    identity. The result is therefore shared and must be treated as
    immutable. Rewrites build new trees (as {!Ast.with_children} does);
    a caller that fills [execute_at] projection paths in place only
    costs itself the memo entry (a stamp check re-parses the text). A
    text is kept from its second sighting, a fixed number of texts at
    most (least recently used evicted); first sightings keep only a
    digest. Single-domain: do not call from two domains at once. *)

val memo_size : unit -> int
(** Texts the parse memo currently holds (never more than its fixed
    bound). *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression (no prolog). *)
