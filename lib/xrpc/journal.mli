(** Per-peer write-ahead journal for distributed XQUF transactions.

    Participants journal staged PULs and prepare/commit/abort progress;
    coordinators journal the transaction outline (begun, participants,
    decision, resolution). {!crash_restart} discards all volatile state
    and replays the records with presumed abort: staged-but-unprepared
    transactions are aborted, prepared ones stay in doubt awaiting the
    coordinator's decision. See PROTOCOL.md ("Transactions"). *)

type record =
  | Staged of { txn : string; req : string; pul : string }
      (** participant: a PUL staged for [txn] by request [req] ("" when the
          request carried no id) *)
  | Prepared of { txn : string }  (** participant voted yes *)
  | Committed of { txn : string }  (** staged PULs applied to the store *)
  | Aborted of { txn : string }  (** staged PULs discarded *)
  | Begun of { txn : string }  (** coordinator: 2PC started *)
  | Participant of { txn : string; host : string }
  | Decided of { txn : string }
      (** coordinator: commit decided (aborts are presumed, never journaled
          as decisions) *)
  | Resolved of { txn : string }
      (** coordinator: outcome propagated to every participant *)

type t

exception Corrupt of { file : string; line : int; text : string }
(** A complete line of a journal file that is no record: the file, the
    line's number (from 1) and its text. *)

val in_memory : peer:string -> t
val open_file : dir:string -> peer:string -> t
(** File-backed journal at [<dir>/<peer>.journal]; existing records are
    replayed as a crash-restart (presumed abort for unprepared stages).
    Every record is one newline-terminated line, so an unterminated last
    line is an append a crash cut short: it is dropped, and the file is
    cut back to its last newline before anything is appended.
    @raise Corrupt on a complete line that is no record. *)

val records : t -> record list
(** Oldest first. *)

val append : t -> record -> unit
(** Append a raw record (used by the coordinator for outline records). *)

val on_append : t -> (record -> unit) -> unit
(** Install a telemetry observer called for every appended record
    (replay during {!open_file} happens before any observer can be
    installed and is not reported). One observer at a time; the default
    ignores. *)

val fresh_txn : t -> string
(** The next transaction id for this peer as coordinator,
    ["<peer>:txn<N>"]: [N] is one past the highest sequence number this
    journal has handed out or (for a reopened file) recorded. Every
    session of the peer shares the journal, so ids never repeat across
    sessions; a fresh peer's first id is [txn1]. *)

(** {2 Participant operations} *)

val stage : t -> txn:string -> req:string -> pul:string -> bool
(** Stage a serialized PUL. [false] (and no journaling) when [req] was
    already staged for this transaction — retry dedup — or the transaction
    already finished. *)

val prepare : t -> txn:string -> bool
(** Vote: [true] pins the staged PULs until a decision arrives; [false]
    (unknown or aborted transaction) is a no vote — presumed abort. *)

val commit : t -> txn:string -> [ `Apply of string list | `Already | `Unknown ]
(** [`Apply puls]: apply these staged PULs, then call {!committed}.
    [`Already]: a duplicate commit — ack idempotently. [`Unknown]: no such
    live transaction (never staged, or presumed-aborted). *)

val committed : t -> txn:string -> unit
val abort : t -> txn:string -> unit

val in_doubt : t -> string list
(** Prepared transactions awaiting a decision, sorted. *)

val crash_restart : t -> unit
(** Simulate a crash: wipe all volatile state and replay the journal with
    presumed abort. *)

(** {2 Coordinator analysis} *)

val unresolved : t -> (string * string list * [ `Commit | `Abort ]) list
(** Transactions this coordinator began but never fully resolved, with
    their journaled participants and the decision to re-drive: [`Commit]
    iff a decision record was journaled, otherwise presumed [`Abort]. *)
