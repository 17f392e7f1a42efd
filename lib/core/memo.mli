(** Identity-keyed memo tables for the compile pipeline.

    A table maps a physical key (a parsed query, a plan) plus a small
    structural sub-key (the options the computation depends on) to a
    value. Keys are held weakly, through an ephemeron: an entry dies
    with its key, so a table needs no bound of its own. Equal but
    distinct keys never share an entry. Single-domain. *)

module Make (K : sig
  type t

  val id : t -> int
  (** A hash that stays fixed for the key's lifetime. *)
end) : sig
  type ('s, 'v) t

  val create : unit -> ('s, 'v) t

  val find_or_add :
    ('s, 'v) t -> K.t -> 's -> valid:('v -> bool) -> (unit -> 'v) -> 'v
  (** [find_or_add t key sub ~valid compute] returns the value stored
      for [(key, sub)] if [valid] still accepts it; otherwise it stores
      and returns [compute ()]. Sub-keys compare structurally. An
      exception from [compute] stores nothing. *)
end
