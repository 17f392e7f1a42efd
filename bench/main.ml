(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section VII) plus ablations and bechamel micro-benchmarks.

     dune exec bench/main.exe            -- all experiments, default scale
     dune exec bench/main.exe fig7       -- a single figure
     dune exec bench/main.exe -- --scale 80   -- bigger documents
     dune exec bench/main.exe micro      -- bechamel micro-benchmarks
     dune exec bench/main.exe -- fig8 --trace-dir traces
                                         -- Chrome trace per strategy
*)

let base_scale = ref 40
let trace_dir = ref None

let run_fig7 () = Experiments.print_fig7 (Experiments.fig7 ~base:!base_scale ())

let run_fig8 () =
  let persons = !base_scale * 16 in
  Experiments.print_fig8 ~persons
    (Experiments.fig8 ?trace_dir:!trace_dir ~persons ());
  match !trace_dir with
  | Some dir ->
    Printf.printf "   (chrome traces written under %s/fig8-*.trace.json)\n\n"
      dir
  | None -> ()

let run_fig9 () = Experiments.print_fig9 (Experiments.fig9 ~base:!base_scale ())

let run_fig10_11 () =
  let rows = Experiments.fig10_11 ~base:(!base_scale / 4 * 10) () in
  Experiments.print_fig10 rows;
  Experiments.print_fig11 rows

let run_fig10 () =
  Experiments.print_fig10 (Experiments.fig10_11 ~base:(!base_scale / 4 * 10) ())

let run_fig11 () =
  Experiments.print_fig11 (Experiments.fig10_11 ~base:(!base_scale / 4 * 10) ())

let run_ablations () =
  Experiments.ablation_code_motion ~persons:(!base_scale * 4) ();
  Experiments.ablation_bulk ~persons:!base_scale ();
  Experiments.ablation_cost_model ~persons:(!base_scale * 2) ()

let run_effects () =
  let persons = !base_scale * 2 in
  let rows = Experiments.effects ~persons () in
  Experiments.print_effects rows;
  Experiments.write_effects_json ~path:"BENCH_effects.json" ~persons rows;
  print_endline "   (written to BENCH_effects.json)\n"

let run_topo () =
  let persons = !base_scale * 2 in
  let rows = Experiments.topo ~persons () in
  Experiments.print_topo rows;
  Experiments.write_topo_json ~path:"BENCH_topo.json" ~persons rows;
  print_endline "   (written to BENCH_topo.json)\n"

let run_overload () =
  (* floor at 200 arrivals: below that the FIFO backlog never outgrows
     the deadline and the saturation comparison is vacuous (the requests
     are cheap — sim-clock only — so the floor costs nothing) *)
  let requests = max 200 (!base_scale * 5) in
  let rows = Experiments.overload ~requests () in
  Experiments.print_overload rows;
  Experiments.write_overload_json ~path:"BENCH_overload.json" rows;
  print_endline "   (written to BENCH_overload.json)\n"

let run_codec () =
  let persons = !base_scale * 2 in
  let rows = Experiments.codec ~persons () in
  Experiments.print_codec ~persons rows;
  Experiments.write_codec_json ~path:"BENCH_codec.json" ~persons rows;
  print_endline "   (written to BENCH_codec.json)\n"

let run_verify () = Experiments.verify ~persons:(!base_scale * 2) ()
let run_workloads () = Experiments.workload_suite ~persons:(!base_scale * 2) ()

(* ---- bechamel micro-benchmarks --------------------------------------------- *)

let micro () =
  let open Bechamel in
  let store () = Xd_xml.Store.create () in
  let people_xml =
    let st = store () in
    Xd_xml.Serializer.doc
      (Xd_xml.Store.add st
         (Xd_xml.Doc.of_tree (Xd_xmark.Generator.people_tree ~seed:1 ~persons:50)))
  in
  let parsed =
    let st = store () in
    Xd_xml.Parser.parse ~store:st ~uri:"p.xml" people_xml
  in
  let persons_nodes =
    List.filter
      (fun n -> Xd_xml.Node.name n = "person")
      (Xd_xml.Node.descendants (Xd_xml.Node.doc_node parsed))
  in
  let test_parse =
    Test.make ~name:"xml-parse-50-persons"
      (Staged.stage (fun () -> Xd_xml.Parser.parse_doc people_xml))
  in
  let test_serialize =
    Test.make ~name:"xml-serialize-50-persons"
      (Staged.stage (fun () -> Xd_xml.Serializer.doc parsed))
  in
  let test_projection =
    Test.make ~name:"runtime-projection-50-persons"
      (Staged.stage (fun () ->
           Xd_projection.Runtime.project ~used:persons_nodes ~returned:[] parsed))
  in
  let q = Xd_lang.Parser.parse_query {|doc("p.xml")/descendant::age|} in
  let test_eval =
    Test.make ~name:"xquery-descendant-age"
      (Staged.stage (fun () ->
           let st = store () in
           let _ = Xd_xml.Parser.parse ~store:st ~uri:"p.xml" people_xml in
           Xd_lang.Eval.run_query st q))
  in
  (* Each run decomposes a fresh physical copy of a query parsed once:
     the parse memo hands a repeated text back as the same AST, and the
     decompose memo then answers from its table, so re-parsing the text
     would time two lookups from the third run on. *)
  let decompose name text =
    let q = Xd_lang.Parser.parse_query text in
    Test.make ~name
      (Staged.stage (fun () ->
           Xd_core.Decompose.decompose Xd_core.Strategy.By_projection
             { q with body = Xd_lang.Ast.refresh_ids q.Xd_lang.Ast.body }))
  in
  let persons_path =
    {|doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person|}
  in
  (* one text of each of bench_e2e's txn-mix and lookup-mix shapes *)
  let txn_text =
    Printf.sprintf
      {|(replace value of node %s[attribute::id = "person7"]/child::name with "n1", replace value of node doc("xrpc://peer2/xmk.auctions.xml")/child::site/child::open_auctions/child::open_auction[attribute::id = "open_auction3"]/child::current with "c1")|}
      persons_path
  in
  let lookup_text =
    Printf.sprintf
      {|for $p in %s return if ($p/attribute::id = "person7") then string($p/child::name) else ()|}
      persons_path
  in
  let tests =
    [
      test_parse;
      test_serialize;
      test_projection;
      test_eval;
      decompose "decompose-benchmark-query" Experiments.benchmark_query;
      decompose "decompose-txn-mix" txn_text;
      decompose "decompose-lookup-mix" lookup_text;
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-34s %12.0f ns/run\n" name est
        | _ -> Printf.printf "  %-34s (no estimate)\n" name)
      results
  in
  print_endline "== bechamel micro-benchmarks ==";
  List.iter (fun t -> benchmark t) tests

(* ---- driver ------------------------------------------------------------------ *)

let all () =
  run_verify ();
  run_fig7 ();
  run_fig8 ();
  run_fig9 ();
  run_fig10_11 ();
  run_workloads ();
  run_effects ();
  run_topo ();
  run_overload ();
  run_codec ();
  run_ablations ()

(* One cheap pass over every experiment — the @bench-smoke alias. Tiny
   scale, every code path: catches bit-rot in the harness without the
   minutes a full run takes. *)
let smoke () =
  base_scale := 4;
  all ()

let () =
  (* bench hygiene: a roomy minor heap (4M words = 32MB) keeps minor
     collections from firing inside the µs-scale timed buckets, where
     their cost would be charged to whichever bucket happened to be
     open. Affects every experiment equally. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> []
    | "--scale" :: n :: rest ->
      base_scale := int_of_string n;
      parse rest
    | "--trace-dir" :: dir :: rest ->
      trace_dir := Some dir;
      parse rest
    | x :: rest -> x :: parse rest
  in
  match parse (List.tl args) with
  | [] | [ "all" ] -> all ()
  | [ "regress"; base; cur ] -> exit (Regress.regress base cur)
  | "regress" :: _ ->
    prerr_endline "usage: bench regress BASE.json CUR.json";
    exit 2
  | cmds ->
    List.iter
      (function
        | "fig7" -> run_fig7 ()
        | "fig8" -> run_fig8 ()
        | "fig9" -> run_fig9 ()
        | "fig10" -> run_fig10 ()
        | "fig11" -> run_fig11 ()
        | "fig10_11" | "fig1011" -> run_fig10_11 ()
        | "ablation" | "ablations" -> run_ablations ()
        | "verify" -> run_verify ()
        | "workloads" -> run_workloads ()
        | "effects" -> run_effects ()
        | "topo" -> run_topo ()
        | "overload" -> run_overload ()
        | "codec" -> run_codec ()
        | "smoke" -> smoke ()
        | "micro" -> micro ()
        | other ->
          Printf.eprintf
            "unknown experiment %S (fig7|fig8|fig9|fig10|fig11|ablation|workloads|effects|topo|overload|codec|smoke|verify|micro|all|regress)\n"
            other;
          exit 1)
      cmds
