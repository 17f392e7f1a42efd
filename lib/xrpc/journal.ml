(* Per-peer write-ahead journal for distributed XQUF transactions.

   Every peer owns one journal. A participant journals staged PULs and its
   prepare/commit/abort progress; a coordinator additionally journals the
   transaction outline (begun, participants, decision, resolution). The
   journal is the *only* transaction state that survives a crash-restart:
   [crash_restart] throws away the volatile staged table and rebuilds it by
   replaying the records, applying presumed abort — a transaction that was
   staged but never prepared is aborted on recovery; a prepared one stays
   in doubt until the coordinator's decision arrives (or is re-driven by
   [Session.recover] from the coordinator's own journal).

   Records are one line each, tab-separated, with the serialized PUL
   escaped via [String.escaped]. A journal is in-memory by default and
   file-backed (append-only, [<dir>/<peer>.journal]) when the network was
   created with a journal directory. *)

type record =
  | Staged of { txn : string; req : string; pul : string }
  | Prepared of { txn : string }
  | Committed of { txn : string }
  | Aborted of { txn : string }
  | Begun of { txn : string }
  | Participant of { txn : string; host : string }
  | Decided of { txn : string }
  | Resolved of { txn : string }

let record_to_line = function
  | Staged { txn; req; pul } ->
    Printf.sprintf "staged\t%s\t%s\t%s" txn req (String.escaped pul)
  | Prepared { txn } -> "prepared\t" ^ txn
  | Committed { txn } -> "committed\t" ^ txn
  | Aborted { txn } -> "aborted\t" ^ txn
  | Begun { txn } -> "begun\t" ^ txn
  | Participant { txn; host } -> Printf.sprintf "participant\t%s\t%s" txn host
  | Decided { txn } -> "decided\t" ^ txn
  | Resolved { txn } -> "resolved\t" ^ txn

let record_of_line line =
  match String.split_on_char '\t' line with
  | [ "staged"; txn; req; pul ] -> (
    match Scanf.unescaped pul with
    | pul -> Some (Staged { txn; req; pul })
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
  | [ "prepared"; txn ] -> Some (Prepared { txn })
  | [ "committed"; txn ] -> Some (Committed { txn })
  | [ "aborted"; txn ] -> Some (Aborted { txn })
  | [ "begun"; txn ] -> Some (Begun { txn })
  | [ "participant"; txn; host ] -> Some (Participant { txn; host })
  | [ "decided"; txn ] -> Some (Decided { txn })
  | [ "resolved"; txn ] -> Some (Resolved { txn })
  | _ -> None

exception Corrupt of { file : string; line : int; text : string }

let () =
  Printexc.register_printer (function
    | Corrupt { file; line; text } ->
      Some (Printf.sprintf "%s:%d: corrupt journal record %S" file line text)
    | _ -> None)

(* Volatile staged-transaction state, rebuilt from records on restart. *)
type staged = {
  mutable puls : string list; (* staging order *)
  mutable reqs : string list; (* request-ids already staged (retry dedup) *)
  mutable prepared : bool;
  mutable outcome : [ `Pending | `Committed | `Aborted ];
}

type t = {
  peer : string;
  file : out_channel option;
  mutable recs : record list; (* newest first *)
  table : (string, staged) Hashtbl.t;
  mutable observer : record -> unit; (* telemetry hook, see on_append *)
  mutable last_txn : int; (* highest sequence number of our own txn ids *)
}

let on_append t f = t.observer <- f

let records t = List.rev t.recs

let append t r =
  t.recs <- r :: t.recs;
  t.observer r;
  match t.file with
  | None -> ()
  | Some oc ->
    output_string oc (record_to_line r);
    output_char oc '\n';
    flush oc

let entry t txn =
  match Hashtbl.find_opt t.table txn with
  | Some s -> s
  | None ->
    let s = { puls = []; reqs = []; prepared = false; outcome = `Pending } in
    Hashtbl.replace t.table txn s;
    s

(* ---- participant operations ------------------------------------------ *)

let stage t ~txn ~req ~pul =
  let s = entry t txn in
  match s.outcome with
  | `Committed | `Aborted -> false (* late staging for a finished txn *)
  | `Pending ->
    if req <> "" && List.mem req s.reqs then false (* retried request *)
    else begin
      s.puls <- s.puls @ [ pul ];
      if req <> "" then s.reqs <- req :: s.reqs;
      append t (Staged { txn; req; pul });
      true
    end

let prepare t ~txn =
  match Hashtbl.find_opt t.table txn with
  | None -> false (* unknown: presumed abort — vote no *)
  | Some s -> (
    match s.outcome with
    | `Aborted -> false
    | `Committed -> true (* late duplicate; the decision already stuck *)
    | `Pending ->
      if not s.prepared then begin
        s.prepared <- true;
        append t (Prepared { txn })
      end;
      true)

let commit t ~txn =
  match Hashtbl.find_opt t.table txn with
  | None -> `Unknown
  | Some s -> (
    match s.outcome with
    | `Committed -> `Already
    | `Aborted -> `Unknown
    | `Pending -> `Apply s.puls)

let committed t ~txn =
  let s = entry t txn in
  if s.outcome <> `Committed then begin
    s.outcome <- `Committed;
    s.puls <- [];
    append t (Committed { txn })
  end

let abort t ~txn =
  let s = entry t txn in
  match s.outcome with
  | `Committed -> () (* abort-after-commit: a protocol violation; keep it *)
  | `Aborted -> ()
  | `Pending ->
    s.outcome <- `Aborted;
    s.puls <- [];
    append t (Aborted { txn })

let in_doubt t =
  Hashtbl.fold
    (fun txn s acc ->
      if s.outcome = `Pending && s.prepared then txn :: acc else acc)
    t.table []
  |> List.sort compare

(* ---- crash-restart ---------------------------------------------------- *)

let crash_restart t =
  Hashtbl.reset t.table;
  List.iter
    (fun r ->
      match r with
      | Staged { txn; req; pul } ->
        let s = entry t txn in
        if s.outcome = `Pending then begin
          s.puls <- s.puls @ [ pul ];
          if req <> "" then s.reqs <- req :: s.reqs
        end
      | Prepared { txn } -> (entry t txn).prepared <- true
      | Committed { txn } ->
        let s = entry t txn in
        s.outcome <- `Committed;
        s.puls <- []
      | Aborted { txn } ->
        let s = entry t txn in
        s.outcome <- `Aborted;
        s.puls <- []
      | Begun _ | Participant _ | Decided _ | Resolved _ -> ())
    (records t);
  (* presumed abort: staged but never prepared => gone *)
  let doomed =
    Hashtbl.fold
      (fun txn s acc ->
        if s.outcome = `Pending && not s.prepared then txn :: acc else acc)
      t.table []
  in
  List.iter (fun txn -> abort t ~txn) (List.sort compare doomed)

(* ---- coordinator analysis --------------------------------------------- *)

let unresolved t =
  let outlines = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun r ->
      let outline txn =
        match Hashtbl.find_opt outlines txn with
        | Some o -> o
        | None ->
          let o = (ref [], ref false, ref false) in
          order := txn :: !order;
          Hashtbl.replace outlines txn o;
          o
      in
      match r with
      | Begun { txn } -> ignore (outline txn)
      | Participant { txn; host } ->
        let parts, _, _ = outline txn in
        if not (List.mem host !parts) then parts := !parts @ [ host ]
      | Decided { txn } ->
        let _, decided, _ = outline txn in
        decided := true
      | Resolved { txn } ->
        let _, _, resolved = outline txn in
        resolved := true
      | Staged _ | Prepared _ | Committed _ | Aborted _ -> ())
    (records t);
  List.filter_map
    (fun txn ->
      let parts, decided, resolved = Hashtbl.find outlines txn in
      if !resolved then None
      else Some (txn, !parts, if !decided then `Commit else `Abort))
    (List.rev !order)

(* ---- transaction ids -------------------------------------------------- *)

(* A coordinator's transaction ids are "<peer>:txn<N>". The counter lives
   here, not in a session: every session of the peer shares the journal,
   and a reopened file-backed journal resumes past every id it recorded,
   so no participant ever sees an id twice. *)
let txn_prefix t = t.peer ^ ":txn"

let fresh_txn t =
  t.last_txn <- t.last_txn + 1;
  txn_prefix t ^ string_of_int t.last_txn

let txn_of_record = function
  | Staged { txn; _ }
  | Prepared { txn }
  | Committed { txn }
  | Aborted { txn }
  | Begun { txn }
  | Participant { txn; _ }
  | Decided { txn }
  | Resolved { txn } ->
    txn

let resume_txn_ids t =
  let prefix = txn_prefix t in
  let n = String.length prefix in
  List.iter
    (fun r ->
      let txn = txn_of_record r in
      if String.starts_with ~prefix txn then
        match int_of_string_opt (String.sub txn n (String.length txn - n)) with
        | Some k when k > t.last_txn -> t.last_txn <- k
        | _ -> ())
    t.recs

(* ---- construction ----------------------------------------------------- *)

let in_memory ~peer =
  {
    peer;
    file = None;
    recs = [];
    table = Hashtbl.create 4;
    observer = ignore;
    last_txn = 0;
  }

(* The records of a journal file, newest first. Every append ends in a
   newline, so bytes after the last one are an append that a crash cut
   short: they are dropped, and cut off the file before it is appended
   to. A complete line that is no record is corruption. *)
let read_records path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let complete =
      match String.rindex_opt data '\n' with Some k -> k + 1 | None -> 0
    in
    if complete < String.length data then Unix.truncate path complete;
    let lines = String.split_on_char '\n' (String.sub data 0 complete) in
    List.fold_left
      (fun (acc, n) text ->
        if text = "" then (acc, n + 1)
        else
          match record_of_line text with
          | Some r -> (r :: acc, n + 1)
          | None -> raise (Corrupt { file = path; line = n; text }))
      ([], 1) lines
    |> fst
  end

let open_file ~dir ~peer =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (peer ^ ".journal") in
  let existing = read_records path in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let t =
    {
      peer;
      file = Some oc;
      recs = existing;
      table = Hashtbl.create 4;
      observer = ignore;
      last_txn = 0;
    }
  in
  resume_txn_ids t;
  (* opening after a process restart IS a crash-restart: rebuild the staged
     table with presumed abort *)
  crash_restart t;
  t
