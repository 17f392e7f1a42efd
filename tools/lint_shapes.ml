(* Source lint for the library tree, wired into `dune build @lint`.

   The codec layer generates wire bytes from compiled closures, which
   makes a handful of shortcuts uniquely dangerous there — and cheap to
   ban everywhere:

   - `Obj.magic`: defeats the type system; a shape descriptor that lies
     about a value's type must be a bailout, never a cast.
   - `Printf.printf` in lib/: libraries must not write to stdout; all
     diagnostics go through Xd_obs or a Format.formatter the caller
     picks (bin/ and bench/ own stdout, so they are not scanned).
   - catch-all `with _ ->`: swallows Stack_overflow / Out_of_memory and
     turns codec bugs into silent generic fallbacks instead of faults;
     handlers must name the exceptions they mean.
   - the metrics registry (`Xd_obs.Metrics`, or `Metrics` under an open
     `Xd_obs`) outside lib/obs/ and lib/xrpc/stats.ml{,i}: run
     accounting is declared once in Stats, and everything else reads and
     writes it through Stats' generic operations.
   - a `<request` literal, or the deadline or retry-after attribute
     marker, outside lib/xrpc/message.ml: one writer builds every
     request and stamps every header, and reports where it put them, so
     no other module writes those bytes or searches for them.

   Usage: lint_shapes.exe DIR...  — scans every .ml/.mli under each DIR
   and exits non-zero with file:line diagnostics on any hit. Paths are
   matched relative to DIR. *)

let everywhere _ = true

let outside_stats rel =
  not
    (String.starts_with ~prefix:"obs/" rel
    || rel = "xrpc/stats.ml" || rel = "xrpc/stats.mli")

let outside_writer rel = rel <> "xrpc/message.ml"

let writer_only =
  "request bytes outside the one writer (write them in lib/xrpc/message.ml)"

(* (pattern, where it is banned, why) *)
let banned =
  [
    ("Obj.magic", everywhere, "unsafe cast (use a typed bailout instead)");
    ( "Printf.printf",
      everywhere,
      "stdout write in library code (use Xd_obs or a formatter)" );
    ( "with _ ->",
      everywhere,
      "catch-all exception handler (name the exceptions)" );
    ( "Metrics",
      outside_stats,
      "metrics registry outside Stats (declare metrics in lib/xrpc/stats.ml)"
    );
    ("\"<request\"", outside_writer, writer_only);
    ("\"<request ", outside_writer, writer_only);
    ("deadline=\\\"", outside_writer, writer_only);
    ("retry-after=\\\"", outside_writer, writer_only);
  ]

let violations = ref 0

let scan_line ~rel file lineno line =
  List.iter
    (fun (pat, banned_in, why) ->
      let plen = String.length pat in
      let llen = String.length line in
      let rec find i =
        if i + plen > llen then ()
        else if String.sub line i plen = pat then begin
          incr violations;
          Printf.eprintf "%s:%d: banned construct %S — %s\n" file lineno pat
            why
        end
        else find (i + 1)
      in
      if banned_in rel then find 0)
    banned

let scan_file ~rel file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      try
        while true do
          incr lineno;
          scan_line ~rel file !lineno (input_line ic)
        done
      with End_of_file -> ())

let is_source file =
  Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"

(* [rel] is [dir]'s path below the scanned root, "" for the root *)
let rec scan_dir ?(rel = "") dir =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      let rel = if rel = "" then entry else rel ^ "/" ^ entry in
      if Sys.is_directory path then scan_dir ~rel path
      else if is_source entry then scan_file ~rel path)
    (Sys.readdir dir)

let () =
  let dirs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as dirs) -> dirs
    | _ ->
      prerr_endline "usage: lint_shapes.exe DIR...";
      exit 2
  in
  List.iter (fun dir -> scan_dir dir) dirs;
  if !violations > 0 then begin
    Printf.eprintf "lint_shapes: %d violation(s)\n" !violations;
    exit 1
  end
