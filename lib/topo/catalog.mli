(** Replicated peer registry: which peer owns which document, with optional
    replicas, versioned by an epoch counter so stale routing is detectable.

    The catalog is the runtime story for computed [execute at] hosts (ROADMAP
    "Dynamic topology", in the spirit of the DXQ distributed query network):
    callers resolve document names to owners at call time, a peer that no
    longer owns the data answers with a [<forward>] redirect, and the epoch
    lets 2PC refuse to commit across a membership change.

    Ownership changes ([move]/[join]/[leave]) bump the epoch; liveness changes
    ([mark_down]/[mark_up]) do not — a crashed owner still owns its documents,
    it just cannot serve them, which is what replica failover is for. *)

type entry = { doc : string; owner : string; replicas : string list }

type t

val create : unit -> t

(** [of_spec s] parses the [--catalog] mini-language: ';'-separated
    [OWNER/DOC[+REPLICA...]] entries, e.g. ["peer1/d.xml+peer2;peer2/e.xml"].
    The empty string yields a trivial catalog. *)
val of_spec : string -> (t, string) result

(** Rebuild a catalog from its parts, exactly as received on the wire. *)
val of_parts :
  epoch:int -> entries:entry list -> members:(string * bool) list -> t

val epoch : t -> int

(** A stamp that changes on every change to membership or to the
    document-to-owner map, initial placement ({!register}) included —
    which {!epoch} does not see. Versions are unique across all catalogs
    of the process, so a version also tells two catalogs apart: caches
    of judgments made against a catalog key on it. Liveness marks keep
    it. *)
val version : t -> int

(** A trivial catalog has no entries; installing one changes nothing
    observable (the wire stays byte-identical to the static build). *)
val trivial : t -> bool

(** [register] maps [doc] to [owner] (replacing any previous entry) and
    enrolls owner and replicas as members. Initial placement: no epoch bump. *)
val register : t -> doc:string -> owner:string -> ?replicas:string list -> unit -> unit

val resolve : t -> string -> entry option
val owner_of : t -> string -> string option

(** [serves t ~peer ~doc] — is [peer] the owner or a replica of [doc]? *)
val serves : t -> peer:string -> doc:string -> bool

(** [move t ~doc ~owner] transfers ownership and bumps the epoch. The old
    owner is dropped entirely (it will forward, not serve); the new owner is
    removed from the replica list if present. *)
val move : t -> doc:string -> owner:string -> unit

(** [join t peer] enrolls [peer] (up) and bumps the epoch. *)
val join : t -> string -> unit

(** [leave t peer] removes [peer] from membership and from every replica
    list; entries it owned promote their first live replica (entries with no
    live replica keep the departed owner on record — unroutable until it
    rejoins). One epoch bump for the whole departure. *)
val leave : t -> string -> unit

(** Liveness marks; no epoch bump. Unknown peers are presumed up. *)
val mark_down : t -> string -> unit

val mark_up : t -> string -> unit
val is_up : t -> string -> bool

(** Sorted views (deterministic, for dumps and tests). *)
val entries : t -> entry list

val members : t -> (string * bool) list

(** Deterministic dump, pinned by [test/cram/topo.t]. *)
val pp : Format.formatter -> t -> unit
