(** Compiled per-call-site message codecs, generated from
    {!Xd_shape.Shape} wire-shape descriptors (PROTOCOL.md, "Compiled
    codecs").

    Every compiled path is a strict specialization of the generic one:
    it either produces/accepts byte-identical wire content or returns
    [None] and the caller falls back (counted in [codec.bailouts]). *)

type t

val compile :
  passing:Message.passing ->
  caller:string ->
  Xd_shape.Shape.result ->
  Xd_lang.Ast.query ->
  t
(** Generate encoder/decoder tables for every descriptor that is
    {!Xd_shape.Shape.encoder_applicable} / [decoder_applicable]. *)

val descriptors : t -> Xd_shape.Shape.descriptor list
(** The descriptors codegen consumed — handed to the verifier, which
    re-derives them independently and rejects disagreement. *)

(** {2 Compiled request encoders} *)

type compiled_call

val find_call : t -> int -> compiled_call option
(** By call-site key (the remote body's vertex id). *)

val encode_request :
  compiled_call ->
  caller:string ->
  ?req_id:string ->
  ?txn:string ->
  ?epoch:int ->
  ?deadline:float ->
  (Xd_lang.Ast.var * Xd_lang.Value.t) list ->
  string option
(** Emit the full request envelope from precomputed constant segments,
    or [None] on any runtime shape mismatch (a node item in a supposedly
    atomic parameter, argument-list drift, wrong session). [deadline] is
    the already-network-adjusted budget value the generic writer would
    stamp. *)

(** {2 Compiled response decoder} *)

type compiled_resp

val find_resp : t -> int -> compiled_resp option

val decode_response : compiled_resp -> string -> Xd_lang.Value.t option
(** Exact prefix/suffix match around a flat scan of [<atomic>] items.
    Accepts a strict subset of the language of the generic reader
    ({!Message.parse}) and agrees with it on every accepted string;
    faults, forwards, txn attributes and trace headers miss the prefix
    and return [None]. *)
