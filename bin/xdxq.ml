(* xdxq — run an XQuery over simulated XRPC peers under a chosen
   distribution strategy.

     xdxq [--doc HOST/NAME=FILE]... [--strategy STRAT] [--explain]
          [--types] [--effects] [--shapes] [--no-parallel] [--no-codec]
          [--no-typing] [--verify-plan] [--plan] [--force]
          [--fault-spec SPEC] [--fault-seed N] [--timeout S] [--retries N]
          [--txn] [--journal-dir DIR] [--trace] [--trace-out FILE]
          [--trace-format jsonl|chrome] [--metrics]
          [--catalog SPEC] [--topo-churn SPEC] [--show-catalog] QUERY

   QUERY is a file name, or a literal query with --query. Documents are
   loaded onto named peers; the query addresses them as
   doc("xrpc://HOST/NAME"). Documents for the special host "client" are
   local to the querying peer and addressed as doc("NAME"). *)

open Cmdliner

let strategy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "data-shipping" | "ds" -> Ok (`Fixed Xd_core.Strategy.Data_shipping)
    | "by-value" | "value" -> Ok (`Fixed Xd_core.Strategy.By_value)
    | "by-fragment" | "fragment" -> Ok (`Fixed Xd_core.Strategy.By_fragment)
    | "by-projection" | "projection" ->
      Ok (`Fixed Xd_core.Strategy.By_projection)
    | "auto" -> Ok `Auto
    | _ -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print fmt = function
    | `Fixed s -> Format.pp_print_string fmt (Xd_core.Strategy.to_string s)
    | `Auto -> Format.pp_print_string fmt "auto"
  in
  Arg.conv (parse, print)

let docs_arg =
  let doc = "Load FILE onto peer HOST as document NAME (HOST/NAME=FILE)." in
  Arg.(value & opt_all string [] & info [ "doc"; "d" ] ~docv:"HOST/NAME=FILE" ~doc)

let strategy_arg =
  let doc =
    "Distribution strategy: data-shipping, by-value, by-fragment, \
     by-projection, or auto (pick by the cost model)."
  in
  Arg.(
    value
    & opt strategy_conv (`Fixed Xd_core.Strategy.By_projection)
    & info [ "strategy"; "s" ] ~docv:"STRATEGY" ~doc)

let explain_arg =
  let doc =
    "Print the decomposed plan before executing, then an explain-analyze \
     table after it: per d-graph vertex, the cost model's estimated wire \
     bytes next to the measured actuals (folded from an internal trace), \
     with misestimate ratios — vertices off by more than 4x are flagged."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let stats_arg =
  let doc = "Print transfer and timing statistics after executing." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let code_motion_arg =
  let doc = "Apply distributed code motion." in
  Arg.(value & flag & info [ "code-motion" ] ~doc)

let types_arg =
  let doc =
    "Print the inferred static sequence type of every query vertex (item \
     kinds × occurrence) and exit without executing. Definite type errors \
     still fail the run."
  in
  Arg.(value & flag & info [ "types" ] ~doc)

let effects_arg =
  let doc =
    "Print the static effect analysis — per-vertex read/write footprints \
     over (document, projection-path) pairs, per-function summaries, and \
     the overlap schedule of provably non-interfering execute-at calls — \
     and exit without executing."
  in
  Arg.(value & flag & info [ "effects" ] ~doc)

let shapes_arg =
  let doc =
    "Print the static wire-shape analysis — the fixed envelope layout, \
     then per call site the inferred response shape and whether a \
     compiled decoder applies beside its compiled request writer — plus \
     the codec-priced cost estimate, and exit without executing."
  in
  Arg.(value & flag & info [ "shapes" ] ~doc)

let no_parallel_arg =
  let doc =
    "Disable the effect-analysis overlap schedule: every remote call runs \
     (and bills the simulated clock) sequentially, with no batched \
     envelopes. Reproduces the pre-scheduling baseline exactly."
  in
  Arg.(value & flag & info [ "no-parallel" ] ~doc)

let no_codec_arg =
  let doc =
    "Disable plan-time codec compilation: each call compiles its request \
     writer when it is sent instead of with the plan, and atomic \
     responses are read by the one message reader, which reads every \
     other message either way. The wire is byte-identical either way; \
     this is the ablation baseline for 'bench codec'."
  in
  Arg.(value & flag & info [ "no-codec" ] ~doc)

let no_typing_arg =
  let doc =
    "Disable type-based widening of the decomposition conditions and the \
     cardinality-aware cost model (the safety verifier always keeps its \
     own, independently derived typing)."
  in
  Arg.(value & flag & info [ "no-typing" ] ~doc)

let verify_plan_arg =
  let doc =
    "Run the distribution-safety verifier on the plan and print its full \
     report (errors and warnings) before executing."
  in
  Arg.(value & flag & info [ "verify-plan" ] ~doc)

let plan_arg =
  let doc =
    "Treat the query as an already-decomposed plan: skip decomposition and \
     execute its execute-at calls as written (they are still verified)."
  in
  Arg.(value & flag & info [ "plan" ] ~doc)

let force_arg =
  let doc = "Execute even when the verifier rejects the plan." in
  Arg.(value & flag & info [ "force" ] ~doc)

let fault_spec_arg =
  let doc =
    "Inject deterministic wire faults. SPEC is ';'-separated rules \
     [PEER:]KIND[=PARAM][@PROB][#LIMIT][%SKIP] with KIND one of drop, \
     dup, truncate, delay, crash, restart, down (e.g. \
     'peer1:drop@0.2#3;delay=0.5@0.1')."
  in
  Arg.(
    value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Seed for the fault schedule (same spec+seed => same faults)." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let timeout_arg =
  let doc = "Per-call timeout in simulated seconds." in
  Arg.(value & opt float 1.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc = "Retry budget per call (re-sends after the first attempt)." in
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)

let txn_arg =
  let doc =
    "Always run the query as a distributed transaction (two-phase commit \
     across update-carrying peers). Without this flag, 2PC is used \
     automatically when updates may span several peers."
  in
  Arg.(value & flag & info [ "txn" ] ~doc)

let journal_dir_arg =
  let doc =
    "Write per-peer transaction journals under DIR (created if missing), \
     so staged updates and commit decisions survive simulated \
     crash-restarts. Without it, journals are kept in memory."
  in
  Arg.(
    value & opt (some string) None & info [ "journal-dir" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Record a distributed trace of the execution: hierarchical spans for \
     every call, attempt, (de)serialization, evaluation and 2PC exchange, \
     across every peer the query touches. Written to --trace-out, or to \
     stderr."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_out_arg =
  let doc = "Write the trace to FILE (implies --trace)." in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace export format: $(b,jsonl) (one JSON object per span per line) \
     or $(b,chrome) (trace_event JSON for chrome://tracing / Perfetto)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let metrics_arg =
  let doc =
    "Dump the full metrics registry (counters, gauges, histograms) to \
     stderr after executing."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_format_arg =
  let doc =
    "Metrics output format: $(b,dump) (the legacy registry dump) or \
     $(b,prom) (Prometheus/OpenMetrics text exposition; each histogram \
     carries the trace id of its extreme observation as an exemplar, \
     when the run was traced)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("dump", `Dump); ("prom", `Prom) ]) `Dump
    & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

let query_log_arg =
  let doc =
    "Append one structured JSON record per executed query to FILE: the \
     strategy chosen, the cost-model estimate (total and per vertex), \
     measured transfer/time actuals, fault/retry/shed counts, and the \
     catalog epoch."
  in
  Arg.(
    value & opt (some string) None & info [ "query-log" ] ~docv:"FILE" ~doc)

let catalog_arg =
  let doc =
    "Install a dynamic-topology catalog: ';'-separated \
     OWNER/DOC[+REPLICA...] entries mapping documents to owning peers \
     (e.g. 'peer1/d.xml+peer2;peer2/e.xml'). Computed execute-at hosts \
     resolve against it at call time; peers forward calls for documents \
     they no longer own; reads fail over to replicas of down owners."
  in
  Arg.(value & opt (some string) None & info [ "catalog" ] ~docv:"SPEC" ~doc)

let topo_churn_arg =
  let doc =
    "Scripted membership churn over the catalog (requires --catalog). \
     SPEC is ';'-separated N:EVENT rules fired when the N-th message \
     hits the wire, with EVENT one of move=DOC/PEER, join=PEER, \
     leave=PEER, down=PEER, up=PEER (e.g. '2:move=d.xml/peer2')."
  in
  Arg.(
    value & opt (some string) None & info [ "topo-churn" ] ~docv:"SPEC" ~doc)

let show_catalog_arg =
  let doc =
    "Print the catalog (entries, members, epoch) after executing — \
     post-churn state, when --topo-churn fired events."
  in
  Arg.(value & flag & info [ "show-catalog" ] ~doc)

let peer_capacity_arg =
  let doc =
    "Give every peer a bounded-capacity server model: N concurrent \
     service slots on the simulated clock. Admitted requests queue \
     (bounded by --queue-cap) and are charged their queueing delay; a \
     full queue sheds with a retryable xrpc:server.overloaded fault \
     carrying a server-suggested retry-after. 0 (the default) disables \
     the model and keeps the wire byte-identical."
  in
  Arg.(value & opt int 0 & info [ "peer-capacity" ] ~docv:"N" ~doc)

let queue_cap_arg =
  let doc =
    "Admission queue bound per peer (waiting requests beyond the busy \
     slots; requires --peer-capacity)."
  in
  Arg.(value & opt int 8 & info [ "queue-cap" ] ~docv:"N" ~doc)

let service_time_arg =
  let doc =
    "Minimum service time per admitted call unit in simulated seconds \
     (requires --peer-capacity)."
  in
  Arg.(
    value & opt float 0.001 & info [ "service-time" ] ~docv:"SECONDS" ~doc)

let deadline_arg =
  let doc =
    "End-to-end deadline budget for the query in simulated seconds. \
     Every message carries the remaining budget, decremented across \
     every hop; callees refuse work the budget cannot cover with a \
     non-retryable xrpc:deadline.exceeded fault."
  in
  Arg.(
    value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let retry_budget_arg =
  let doc =
    "Shared retry pool for the whole query execution: all calls of the \
     plan draw re-sends from this one budget (per-call --retries still \
     applies on top)."
  in
  Arg.(
    value & opt (some int) None & info [ "retry-budget" ] ~docv:"N" ~doc)

let show_breakers_arg =
  let doc =
    "Print the per-peer circuit-breaker states after executing \
     (requires --peer-capacity)."
  in
  Arg.(value & flag & info [ "show-breakers" ] ~doc)

let query_string_arg =
  let doc = "Give the query inline instead of in a file." in
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"QUERY" ~doc)

let query_file_arg =
  let doc = "Query file." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_doc_spec s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad --doc %S (expected HOST/NAME=FILE)" s)
  | Some eq -> (
    let target = String.sub s 0 eq in
    let file = String.sub s (eq + 1) (String.length s - eq - 1) in
    match String.index_opt target '/' with
    | None -> Error (Printf.sprintf "bad --doc %S (expected HOST/NAME=FILE)" s)
    | Some sl ->
      Ok
        ( String.sub target 0 sl,
          String.sub target (sl + 1) (String.length target - sl - 1),
          file ))

let run docs strategy explain stats code_motion types effects shapes
    no_parallel no_codec
    no_typing verify_plan as_plan force fault_spec fault_seed timeout_s
    retries txn journal_dir trace trace_out trace_format metrics
    metrics_format query_log catalog_spec topo_churn show_catalog
    peer_capacity queue_cap service_time deadline retry_budget show_breakers
    query_string query_file =
  let typing = not no_typing in
  let query_src =
    match (query_string, query_file) with
    | Some q, _ -> Ok q
    | None, Some f -> Ok (read_file f)
    | None, None -> Error "no query given (positional FILE or --query)"
  in
  match query_src with
  | Error e ->
    prerr_endline e;
    1
  | Ok src -> (
    let fault =
      match fault_spec with
      | None -> Xd_xrpc.Fault.none
      | Some s -> (
        match Xd_xrpc.Fault.parse s with
        | Ok spec -> Xd_xrpc.Fault.create ~seed:fault_seed spec
        | Error e ->
          Printf.eprintf "bad --fault-spec: %s\n" e;
          exit 1)
    in
    let net = Xd_xrpc.Network.create ~fault ?journal_dir () in
    (match catalog_spec with
    | None ->
      if Option.is_some topo_churn then begin
        prerr_endline "bad --topo-churn: requires --catalog";
        exit 1
      end
    | Some s -> (
      match Xd_topo.Catalog.of_spec s with
      | Error e ->
        Printf.eprintf "bad --catalog: %s\n" e;
        exit 1
      | Ok cat -> (
        Xd_xrpc.Network.set_catalog net cat;
        match topo_churn with
        | None -> ()
        | Some cs -> (
          match Xd_topo.Churn.parse cs with
          | Error e ->
            Printf.eprintf "bad --topo-churn: %s\n" e;
            exit 1
          | Ok events ->
            Xd_xrpc.Network.set_churn net (Xd_topo.Churn.create events)))));
    if peer_capacity < 0 then begin
      prerr_endline "bad --peer-capacity: must be >= 0";
      exit 1
    end;
    if peer_capacity > 0 then begin
      match
        Xd_xrpc.Overload.create ~capacity:peer_capacity ~queue_cap
          ~service_s:service_time ()
      with
      | ov -> Xd_xrpc.Network.set_overload net ov
      | exception Invalid_argument m ->
        Printf.eprintf "bad overload config: %s\n" m;
        exit 1
    end
    else if show_breakers then begin
      prerr_endline "bad --show-breakers: requires --peer-capacity";
      exit 1
    end;
    let client = Xd_xrpc.Network.new_peer net "client" in
    (* --explain needs the span tree to fold measured per-vertex actuals,
       so it runs the query under an internal tracer; the trace is only
       *exported* when the user asked for it *)
    let user_trace = trace || trace_out <> None in
    let tracer =
      if user_trace || explain then Some (Xd_obs.Trace.create ()) else None
    in
    (* the trace is exported even when execution ends in a typed fault or
       timeout — failed runs are the ones worth looking at *)
    let export_trace () =
      if user_trace then
        match tracer with
        | None -> ()
        | Some tr -> (
          let contents =
            match trace_format with
            | `Jsonl -> Xd_obs.Sink.jsonl tr
            | `Chrome -> Xd_obs.Sink.chrome tr
          in
          match trace_out with
          | Some path -> Xd_obs.Sink.write_file path contents
          | None -> prerr_string contents)
    in
    let dump_metrics () =
      if metrics then
        let registry = Xd_xrpc.Stats.registry net.Xd_xrpc.Network.stats in
        match metrics_format with
        | `Dump -> Format.eprintf "%a@?" Xd_obs.Metrics.dump registry
        | `Prom -> Format.eprintf "%a@?" Xd_obs.Metrics.prom registry
    in
    let trace_id () =
      match tracer with
      | None -> None
      | Some tr -> (
        match Xd_obs.Trace.spans tr with
        | [] -> None
        | s :: _ -> Some s.Xd_obs.Trace.trace_id)
    in
    (* breaker states are worth seeing on failed runs too — an open
       breaker is usually why the run failed *)
    let print_breakers () =
      if show_breakers then
        Option.iter
          (Format.printf "%a" Xd_xrpc.Overload.pp_breakers)
          net.Xd_xrpc.Network.overload
    in
    let load spec =
      match parse_doc_spec spec with
      | Error e ->
        prerr_endline e;
        exit 1
      | Ok (host, name, file) ->
        let peer =
          if host = "client" then client
          else
            match Hashtbl.find_opt net.Xd_xrpc.Network.peers host with
            | Some p -> p
            | None -> Xd_xrpc.Network.new_peer net host
        in
        match Xd_xrpc.Peer.load_xml peer ~doc_name:name (read_file file) with
        | _ -> ()
        | exception Xd_xml.Parser.Error (msg, pos) ->
          Printf.eprintf "xdxq: %s: XML error at byte %d: %s\n" file pos msg;
          exit 1
        | exception Sys_error msg ->
          Printf.eprintf "xdxq: %s\n" msg;
          exit 1
    in
    List.iter load docs;
    match Xd_lang.Parser.parse_query src with
    | exception Xd_lang.Parser.Error (msg, pos) ->
      Printf.eprintf "parse error at offset %d: %s\n" pos msg;
      1
    | exception Xd_lang.Lexer.Error (msg, pos) ->
      Printf.eprintf "lex error at offset %d: %s\n" pos msg;
      1
    | q -> (
      (match Xd_lang.Static.check q with
      | [] -> ()
      | errors ->
        List.iter
          (fun e -> Format.eprintf "static error: %a@." Xd_lang.Static.pp_error e)
          errors;
        exit 1);
      (* definite type errors join the static gate: a provably atomic,
         provably non-empty value in a node-requiring position fails
         every evaluation that reaches it *)
      let tres = Xd_types.Infer.infer_query q in
      if types then Format.printf "%a" (fun fmt () -> Xd_types.Infer.pp_dump fmt q tres) ();
      (match tres.Xd_types.Infer.errors with
      | [] -> ()
      | errors ->
        List.iter
          (fun e ->
            Format.eprintf "type error: %a@." Xd_types.Infer.pp_error e)
          errors;
        exit 1);
      if types then exit 0;
      if effects then begin
        let eres = Xd_effects.Effects.analyze q in
        Format.printf "%a" (fun fmt () -> Xd_effects.Effects.pp_dump fmt q eres) ();
        exit 0
      end;
      let strategy =
        match strategy with
        | `Fixed s -> s
        | `Auto ->
          let s = Xd_core.Cost.choose ~code_motion ~typing net q in
          Format.eprintf "auto strategy: %s@."
            (Xd_core.Strategy.to_string s);
          List.iter
            (fun e -> Format.eprintf "  %a@." Xd_core.Cost.pp_estimate e)
            (Xd_core.Cost.estimate_all ~code_motion ~typing net q);
          s
      in
      let plan =
        if as_plan then Xd_core.Decompose.plan_of_query strategy q
        else Xd_core.Decompose.decompose ~code_motion ~typing strategy q
      in
      if explain then Format.printf "%a@." Xd_core.Decompose.explain plan;
      if shapes then begin
        let sres = Xd_shape.Shape.analyze plan.Xd_core.Decompose.query in
        Format.printf "%a" (fun fmt () -> Xd_shape.Shape.pp_dump fmt sres) ();
        let est =
          Xd_core.Cost.estimate ~typing
            ~shapes:sres.Xd_shape.Shape.descriptors net plan
        in
        Format.printf "%a@." Xd_core.Cost.pp_estimate est;
        exit 0
      end;
      (* the cost model's prediction, taken before execution (updates can
         change document sizes): feeds the explain-analyze table and the
         query log *)
      let est = Xd_core.Cost.estimate ~typing net plan in
      let log_query status =
        match query_log with
        | None -> ()
        | Some path ->
          let module St = Xd_xrpc.Stats in
          let c = St.count net.Xd_xrpc.Network.stats
          and s = St.seconds net.Xd_xrpc.Network.stats in
          let open Xd_obs.Sink in
          let field k v = jstr k ^ ":" ^ v in
          let ints =
            List.map (fun (k, v) -> field k (string_of_int v))
          in
          let per_vertex =
            "{"
            ^ String.concat ","
                (List.map
                   (fun (v, b) ->
                     jstr (string_of_int v) ^ ":" ^ string_of_int b)
                   est.Xd_core.Cost.per_vertex)
            ^ "}"
          in
          let fields =
            [
              field "status" (jstr status);
              field "strategy"
                (jstr
                   (Xd_core.Strategy.to_string
                      plan.Xd_core.Decompose.strategy));
              field "est_total" (string_of_int (Xd_core.Cost.total est));
              field "est_per_vertex" per_vertex;
            ]
            @ ints
                [
                  ("message_bytes", c St.message_bytes);
                  ("document_bytes", c St.document_bytes);
                  ("messages", c St.messages);
                  ("calls", c St.calls);
                ]
            @ [
                field "serialize_s" (jfloat (s St.serialize_s));
                field "shred_s" (jfloat (s St.shred_s));
                field "remote_s" (jfloat (s St.remote_exec_s));
                field "network_s" (jfloat (s St.network_s));
              ]
            @ ints
                [
                  ("faults", c St.faults);
                  ("timeouts", c St.timeouts);
                  ("retries", c St.retries);
                  ("fallbacks", c St.fallbacks);
                  ("shed", c St.ov_shed + c St.breaker_shed);
                  ("forwarded", c St.forwarded);
                  ("failovers", c St.topo_failovers);
                ]
            @ [
                field "catalog_epoch"
                  (match net.Xd_xrpc.Network.catalog with
                  | None -> "null"
                  | Some c -> string_of_int (Xd_topo.Catalog.epoch c));
              ]
            @ (match trace_id () with
              | None -> []
              | Some tid -> [ field "trace" (jstr tid) ])
          in
          append_file path ("{" ^ String.concat "," fields ^ "}\n")
      in
      (* per-vertex explain-analyze: join the cost model's per-vertex
         predictions with the measured actuals the profiler folds out of
         the span tree. Vertex ids are execute-at body ids; -1 is the
         client's own (unattributed) work. *)
      let explain_analyze () =
        match tracer with
        | None -> ()
        | Some tr ->
          let module Ast = Xd_lang.Ast in
          let module P = Xd_obs.Profile in
          let prof = P.of_spans (Xd_obs.Trace.spans tr) in
          let compact s =
            let b = Buffer.create (String.length s) in
            let ws = ref false in
            String.iter
              (fun c ->
                match c with
                | ' ' | '\n' | '\t' ->
                  if not !ws then Buffer.add_char b ' ';
                  ws := true
                | c ->
                  Buffer.add_char b c;
                  ws := false)
              s;
            let s = Buffer.contents b in
            if String.length s > 36 then String.sub s 0 33 ^ "..." else s
          in
          let labels = Hashtbl.create 8 in
          let rec walk (e : Ast.expr) =
            (match e.Ast.desc with
            | Ast.Execute_at x ->
              let host =
                match x.Ast.host.Ast.desc with
                | Ast.Literal (Ast.A_string h) -> h
                | _ -> "(computed)"
              in
              Hashtbl.replace labels x.Ast.body.Ast.id
                (host ^ ": " ^ compact (Xd_lang.Pp.expr_to_string x.Ast.body))
            | _ -> ());
            List.iter walk (Ast.children e)
          in
          let q = plan.Xd_core.Decompose.query in
          walk q.Ast.body;
          List.iter (fun (f : Ast.func) -> walk f.Ast.f_body) q.Ast.funcs;
          let est_of = Hashtbl.create 8 in
          List.iter
            (fun (v, b) -> Hashtbl.replace est_of v b)
            est.Xd_core.Cost.per_vertex;
          let vertices =
            let vs = Hashtbl.create 8 in
            List.iter
              (fun (v, _) -> Hashtbl.replace vs v ())
              est.Xd_core.Cost.per_vertex;
            List.iter
              (fun (r : P.row) -> Hashtbl.replace vs r.P.vertex ())
              (P.rows prof);
            Hashtbl.fold (fun v () acc -> v :: acc) vs []
            |> List.sort compare
          in
          let notes (r : P.row) =
            List.filter_map
              (fun (k, n) ->
                if n > 0 then Some (Printf.sprintf "%s=%d" k n) else None)
              [
                ("retries", r.P.retries);
                ("timeouts", r.P.timeouts);
                ("fallbacks", r.P.fallbacks);
                ("forwards", r.P.forwards);
                ("failovers", r.P.failovers);
                ("shed", r.P.shed);
              ]
            |> String.concat ","
          in
          let row_line name est_s (r : P.row) label =
            let ratio =
              match est_s with
              | Some e when e > 0 && r.P.bytes > 0 ->
                let x = float_of_int r.P.bytes /. float_of_int e in
                Printf.sprintf "%.2f%s" x
                  (if x > 4.0 || x < 0.25 then " !" else "")
              | Some e when e > 0 -> "0.00"
              | Some _ | None -> if r.P.bytes > 0 then "?" else "-"
            in
            let n = notes r in
            let suffix =
              match (label, n) with
              | "", "" -> ""
              | l, "" -> "  " ^ l
              | l, n -> "  " ^ l ^ "  [" ^ n ^ "]"
            in
            Printf.printf "%7s %9s %9d %8s %6d %10.3f %9.3f %9.3f %9.3f%s\n"
              name
              (match est_s with Some e -> string_of_int e | None -> "-")
              r.P.bytes ratio r.P.calls
              (r.P.wire_s *. 1000.)
              (r.P.serialize_s *. 1000.)
              (r.P.shred_s *. 1000.)
              (r.P.remote_s *. 1000.)
              suffix
          in
          Printf.printf
            "\nexplain analyze (cost model vs measured, per vertex):\n";
          Printf.printf "%7s %9s %9s %8s %6s %10s %9s %9s %9s  %s\n"
            "vertex" "est B" "act B" "ratio" "calls" "wire ms" "ser ms"
            "shred ms" "rem ms" "at: body";
          List.iter
            (fun v ->
              let r =
                match P.find prof v with
                | Some r -> r
                | None ->
                  (* estimated but never executed (e.g. shed, fallback):
                     an all-zero row keeps the prediction visible *)
                  {
                    P.vertex = v;
                    serialize_s = 0.;
                    shred_s = 0.;
                    remote_s = 0.;
                    wire_s = 0.;
                    server_s = 0.;
                    queue_wait_s = 0.;
                    bytes = 0;
                    calls = 0;
                    retries = 0;
                    timeouts = 0;
                    fallbacks = 0;
                    forwards = 0;
                    failovers = 0;
                    shed = 0;
                  }
              in
              let label =
                if v = P.local_vertex then "client: (local)"
                else
                  Option.value ~default:"?"
                    (Hashtbl.find_opt labels v)
              in
              row_line (string_of_int v) (Hashtbl.find_opt est_of v) r label)
            vertices;
          let tot = P.totals prof in
          let est_total =
            List.fold_left (fun a (_, b) -> a + b) 0
              est.Xd_core.Cost.per_vertex
          in
          row_line "total" (Some est_total) tot ""
      in
      if verify_plan then begin
        let report =
          Xd_core.Executor.verify_plan
            ?catalog:net.Xd_xrpc.Network.catalog ~client plan
        in
        Format.printf "%a@." Xd_verify.Verify.pp_report report
      end;
      match
        Xd_core.Executor.run_plan ~timeout_s ~retries ?deadline ?retry_budget
          ~txn:(if txn then `Always else `Auto)
          ~parallel:(not no_parallel) ~codec:(not no_codec) ~force
          ?trace:tracer net ~client plan
      with
      | exception Xd_core.Executor.Plan_rejected report ->
        Format.eprintf "plan rejected by the distribution-safety verifier:@.";
        List.iter
          (fun d -> Format.eprintf "  %a@." Xd_verify.Diag.pp d)
          (Xd_verify.Verify.errors report);
        Format.eprintf "(re-run with --force to execute anyway)@.";
        1
      | exception Xd_lang.Env.Dynamic_error msg ->
        Printf.eprintf "dynamic error: %s\n" msg;
        1
      | exception Xd_lang.Value.Type_error msg ->
        Printf.eprintf "type error: %s\n" msg;
        1
      | exception (Xd_xrpc.Journal.Corrupt _ as e) ->
        Printf.eprintf "xdxq: %s\n" (Printexc.to_string e);
        1
      | exception (Xd_xrpc.Message.Xrpc_fault _ as e) ->
        prerr_endline (Printexc.to_string e);
        print_breakers ();
        export_trace ();
        dump_metrics ();
        log_query "fault";
        1
      | exception (Xd_xrpc.Message.Xrpc_timeout _ as e) ->
        prerr_endline (Printexc.to_string e);
        print_breakers ();
        export_trace ();
        dump_metrics ();
        log_query "timeout";
        1
      | r ->
        print_endline (Xd_lang.Value.serialize r.Xd_core.Executor.value);
        if explain then explain_analyze ();
        if show_catalog then
          Option.iter
            (Format.printf "%a@." Xd_topo.Catalog.pp)
            net.Xd_xrpc.Network.catalog;
        if stats then begin
          if Xd_xrpc.Stats.is_empty net.Xd_xrpc.Network.stats then
            Printf.eprintf "strategy: %s\n(no remote activity)\n"
              (Xd_core.Strategy.to_string strategy)
          else begin
          let t = r.Xd_core.Executor.timing in
          Printf.eprintf
            "strategy: %s\nmessages: %d (%d bytes), documents fetched: %d \
             bytes\ntimes: wall %.3fms, serialize %.3fms, shred %.3fms, \
             remote %.3fms, network(sim) %.3fms\n"
            (Xd_core.Strategy.to_string strategy)
            t.Xd_core.Executor.messages t.Xd_core.Executor.message_bytes
            t.Xd_core.Executor.document_bytes
            (t.Xd_core.Executor.wall_s *. 1000.)
            (t.Xd_core.Executor.serialize_s *. 1000.)
            (t.Xd_core.Executor.shred_s *. 1000.)
            (t.Xd_core.Executor.remote_exec_s *. 1000.)
            (t.Xd_core.Executor.network_s *. 1000.);
          Printf.eprintf
            "faults: injected %d, timeouts %d, retries %d, fallbacks %d, \
             dedup-hits %d\n"
            t.Xd_core.Executor.faults t.Xd_core.Executor.timeouts
            t.Xd_core.Executor.retries t.Xd_core.Executor.fallbacks
            t.Xd_core.Executor.dedup_hits;
          if
            t.Xd_core.Executor.txn_commits > 0
            || t.Xd_core.Executor.txn_aborts > 0
            || t.Xd_core.Executor.txn_staged > 0
          then
            Printf.eprintf "txn: staged %d, commits %d, aborts %d\n"
              t.Xd_core.Executor.txn_staged t.Xd_core.Executor.txn_commits
              t.Xd_core.Executor.txn_aborts;
          if
            t.Xd_core.Executor.topo_resolutions > 0
            || t.Xd_core.Executor.forwarded > 0
            || t.Xd_core.Executor.topo_failovers > 0
            || t.Xd_core.Executor.topo_epoch_aborts > 0
          then
            Printf.eprintf
              "topo: resolutions %d, forwarded %d, failovers %d, \
               epoch-aborts %d\n"
              t.Xd_core.Executor.topo_resolutions
              t.Xd_core.Executor.forwarded
              t.Xd_core.Executor.topo_failovers
              t.Xd_core.Executor.topo_epoch_aborts;
          (match Xd_xrpc.Stats.down_peers net.Xd_xrpc.Network.stats with
          | [] -> ()
          | ps -> Printf.eprintf "peers down: %s\n" (String.concat ", " ps));
          if t.Xd_core.Executor.sched_groups > 0 then
            Printf.eprintf
              "sched: groups %d, overlapped calls %d, saved %.3fms \
               (sim)\nbatch: envelopes %d, calls %d\n"
              t.Xd_core.Executor.sched_groups
              t.Xd_core.Executor.sched_overlapped
              (t.Xd_core.Executor.sched_saved_s *. 1000.)
              t.Xd_core.Executor.batch_envelopes
              t.Xd_core.Executor.batch_calls;
          if
            t.Xd_core.Executor.ov_admitted > 0
            || t.Xd_core.Executor.ov_shed > 0
            || t.Xd_core.Executor.ov_deadline_rejects > 0
          then
            Printf.eprintf
              "overload: admitted %d, shed %d, deadline-rejects %d, \
               queue-wait %.3fms (sim)\n"
              t.Xd_core.Executor.ov_admitted t.Xd_core.Executor.ov_shed
              t.Xd_core.Executor.ov_deadline_rejects
              (t.Xd_core.Executor.ov_queue_wait_s *. 1000.);
          if
            t.Xd_core.Executor.breaker_opens > 0
            || t.Xd_core.Executor.breaker_shed > 0
            || t.Xd_core.Executor.breaker_probes > 0
            || t.Xd_core.Executor.retry_budget_stops > 0
          then
            Printf.eprintf
              "breaker: opens %d, shed %d, probes %d, budget-stops %d\n"
              t.Xd_core.Executor.breaker_opens
              t.Xd_core.Executor.breaker_shed
              t.Xd_core.Executor.breaker_probes
              t.Xd_core.Executor.retry_budget_stops;
          if
            t.Xd_core.Executor.codec_compiled > 0
            || t.Xd_core.Executor.codec_bailouts > 0
          then
            Printf.eprintf
              "codec: compiled %d, decodes %d, event-shreds %d, bailouts %d\n"
              t.Xd_core.Executor.codec_compiled
              t.Xd_core.Executor.codec_decodes
              t.Xd_core.Executor.codec_event_shreds
              t.Xd_core.Executor.codec_bailouts
          end
        end;
        print_breakers ();
        export_trace ();
        dump_metrics ();
        log_query "ok";
        0))

let cmd =
  let doc = "distributed XQuery over simulated XRPC peers" in
  let info = Cmd.info "xdxq" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ docs_arg $ strategy_arg $ explain_arg $ stats_arg
      $ code_motion_arg $ types_arg $ effects_arg $ shapes_arg
      $ no_parallel_arg $ no_codec_arg
      $ no_typing_arg $ verify_plan_arg $ plan_arg $ force_arg
      $ fault_spec_arg $ fault_seed_arg $ timeout_arg $ retries_arg
      $ txn_arg $ journal_dir_arg $ trace_arg $ trace_out_arg
      $ trace_format_arg $ metrics_arg $ metrics_format_arg $ query_log_arg
      $ catalog_arg $ topo_churn_arg
      $ show_catalog_arg $ peer_capacity_arg $ queue_cap_arg
      $ service_time_arg $ deadline_arg $ retry_budget_arg
      $ show_breakers_arg $ query_string_arg $ query_file_arg)

let () = exit (Cmd.eval' cmd)
