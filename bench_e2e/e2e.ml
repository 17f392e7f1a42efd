(* The end-to-end benchmark: query text in, checked value out, timed on a
   monotonic clock, with a traced pass that breaks the time down by layer.

     dune exec bench_e2e/e2e.exe                       all four workloads,
                                                       interleaved; writes
                                                       BENCH_e2e.json
     dune exec bench_e2e/e2e.exe -- --workload lookup-mix --seed 3 \
       --seconds 20 --trace 1                          one workload
     dune exec bench_e2e/e2e.exe -- --trace-dir traces  + Chrome traces
     dune exec bench_e2e/e2e.exe -- --quick --baseline bench_e2e/baselines/BENCH_e2e.json
                                                       CI: one small round,
                                                       exact metrics gated

   One process, one thread, one caller in a closed loop. A run is a
   sequence of rounds; each round builds a fresh network from the seed
   (timed as set-up), runs warm-up queries, then the timed queries. Fresh
   networks per round matter: the client store keeps every shredded
   response and fetched document, so one long-lived network would
   measure that growth instead of the query. Every value is checked
   against [Executor.run_local] (reads) or by reading back every written
   target (updates); the last line of standard output is one JSON object
   with the verdict and the metrics. README.md defines every metric. *)

module E = Xd_core.Executor
module T = Xd_obs.Trace
module W = Workloads

(* ---- clocks and statistics ------------------------------------------------ *)

let now () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

let time f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

(* Words allocated so far by this domain (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let word_bytes = float_of_int (Sys.word_size / 8)

let percentile l p = Xd_obs.Quantile.of_list l p
let median l = percentile l 50.
let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | l -> sum l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b

(* interquartile range over the median *)
let spread l = ratio (percentile l 75. -. percentile l 25.) (median l)

(* A fixed pure-OCaml kernel that calls no library code. Its time moves
   only with the machine (clock frequency, co-tenants); a run whose
   sentinel varies across rounds was measured on a noisy machine. *)
let sentinel_ms () =
  let a = Array.init 4096 (fun i -> i * 7919 land 0xffff) in
  let once () =
    snd
      (time (fun () ->
           let acc = ref 0 in
           for _ = 1 to 256 do
             Array.iter (fun x -> acc := ((!acc * 31) + x) land 0xffffff) a
           done;
           ignore (Sys.opaque_identity !acc)))
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

(* ---- one query ------------------------------------------------------------ *)

type setup = {
  net : Xd_xrpc.Network.t;
  client : Xd_xrpc.Peer.t;
  people : Xd_xml.Doc.t;
}

let make_setup (w : W.t) ~seed =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let peer1 = Xd_xrpc.Network.new_peer net "peer1" in
  let peer2 = Xd_xrpc.Network.new_peer net "peer2" in
  ignore
    (Xd_xmark.Generator.load_pair ~seed ~persons:w.W.persons
       ~people_peer:peer1 ~auctions_peer:peer2 ~people_doc:W.people_doc
       ~auctions_doc:W.auctions_doc ());
  { net; client; people = Option.get (Xd_xrpc.Peer.find_doc peer1 W.people_doc) }

type sample = {
  lat_ms : float;  (** query text to value *)
  parse_us : float;
  decompose_us : float;
  prelude_us : float;  (** [run_plan] outside its own clock *)
  parse_words : float;
  decompose_words : float;
  words : float;  (** allocated by the whole query *)
  timing : E.timing;
  docs_fetched : int;
}

(* With a tracer, each phase runs under a bench span and [run_plan]
   records the program's own spans into the same tracer. *)
let run_query ?trace setup ~client (w : W.t) text =
  let root = T.start trace ~parent:T.Root ~peer:"client" ~cat:"bench.query" "query" in
  let phase cat f =
    match trace with
    | None -> f ()
    | Some _ ->
      T.with_span trace ~parent:(T.Child (Option.get root)) ~peer:"client" ~cat
        cat (fun _ -> f ())
  in
  let a0 = alloc_words () in
  let t0 = now () in
  let q = phase "bench.parse" (fun () -> Xd_lang.Parser.parse_query text) in
  let t1 = now () in
  let a1 = alloc_words () in
  let plan =
    phase "bench.decompose" (fun () -> Xd_core.Decompose.decompose w.W.strategy q)
  in
  let t2 = now () in
  let a2 = alloc_words () in
  let r =
    phase "bench.run_plan" (fun () ->
        E.run_plan ?trace setup.net ~client plan)
  in
  let t3 = now () in
  let a3 = alloc_words () in
  T.finish trace root;
  let span a b = Int64.to_float (Int64.sub b a) in
  ( r.E.value,
    {
      lat_ms = span t0 t3 /. 1e6;
      parse_us = span t0 t1 /. 1e3;
      decompose_us = span t1 t2 /. 1e3;
      prelude_us = (span t2 t3 /. 1e3) -. (r.E.timing.E.wall_s *. 1e6);
      parse_words = a1 -. a0;
      decompose_words = a2 -. a1;
      words = a3 -. a0;
      timing = r.E.timing;
      docs_fetched = Xd_xrpc.Stats.documents_fetched setup.net.Xd_xrpc.Network.stats;
    } )

(* Traced pass only: each compile layer's public entry point, called
   again on the same query under its own bench span. *)
type probe = {
  infer_us : float;
  schedule_us : float;
  shape_us : float;
  codec_us : float;
  verify_us : float;
  cost_ms : float;
  eval_local_ms : float option;  (** reads only *)
}

let probe trace setup (w : W.t) (query : W.query) =
  let client = setup.client in
  let timed cat f =
    time (fun () ->
        T.with_span trace ~parent:T.Root ~peer:"client" ~cat cat (fun _ -> f ()))
  in
  let q = Xd_lang.Parser.parse_query query.W.text in
  let plan = Xd_core.Decompose.decompose w.W.strategy q in
  let pq = plan.Xd_core.Decompose.query in
  let _, infer = timed "bench.types" (fun () -> Xd_types.Infer.infer_query q) in
  let schedule, sched = timed "bench.effects" (fun () -> E.plan_schedule ~client plan) in
  let shapes, shape = timed "bench.shape" (fun () -> Xd_shape.Shape.analyze pq) in
  let codec, codec_ms =
    timed "bench.codec" (fun () ->
        Xd_xrpc.Codec.compile
          ~passing:(Xd_core.Strategy.passing w.W.strategy)
          ~caller:(Xd_xrpc.Peer.name client) shapes pq)
  in
  let _, verify =
    timed "bench.verify" (fun () ->
        E.verify_plan ~schedule ~shapes:(Xd_xrpc.Codec.descriptors codec)
          ?catalog:setup.net.Xd_xrpc.Network.catalog ~client plan)
  in
  let _, cost = timed "bench.cost" (fun () -> Xd_core.Cost.choose setup.net q) in
  let eval_local =
    match query.W.writes with
    | [] -> Some (snd (timed "bench.eval_local" (fun () -> E.run_local setup.net ~client q)))
    | _ -> None
  in
  {
    infer_us = infer *. 1e3;
    schedule_us = sched *. 1e3;
    shape_us = shape *. 1e3;
    codec_us = codec_ms *. 1e3;
    verify_us = verify *. 1e3;
    cost_ms = cost;
    eval_local_ms = eval_local;
  }

(* ---- one round ------------------------------------------------------------ *)

type round = {
  setup_s : float;
  sentinel : float;  (** ms *)
  samples : sample list;  (** timed queries, in order *)
  probes : probe list;
  attempted : int;
  failed : int;
  retained_kb : float;  (** live heap growth per timed query *)
  live_mb : float;  (** live heap the round added by the end of its timed queries *)
  minor_gcs : int;
  major_gcs : int;
  repeats : int;  (** timed texts already sent earlier in the round *)
  parse_mb_s : float;
  serialize_mb_s : float;
  projection_us : float;
  projection_ratio : float;
}

let warmup = 1

(* Probes a query's compile layers in the traced pass; [Cost.choose] is
   ~10x the query on lookup-mix, so they run on a prefix of the round. *)
let probe_cap = 100

(* XML parse and serialize throughput on the round's own people
   document. *)
let xml_probe setup =
  let text, ser_ms = time (fun () -> Xd_xml.Serializer.doc setup.people) in
  let _, parse_ms = time (fun () -> Xd_xml.Parser.parse_doc text) in
  let mb = float_of_int (String.length text) /. 1e6 in
  (mb /. (parse_ms /. 1e3), mb /. (ser_ms /. 1e3))

(* Algorithm 1 on the round's people document, with Qn2's selection:
   persons younger than 40 are used, their ids returned. *)
let projection_probe setup =
  let module P = Xd_projection in
  let doc = setup.people in
  let eval path nodes = P.Path.eval (P.Path.of_string path) nodes in
  let used =
    List.filter
      (fun p ->
        List.exists
          (fun a ->
            match int_of_string_opt (Xd_xml.Node.string_value a) with
            | Some age -> age < 40
            | None -> false)
          (eval "descendant::age" [ p ]))
      (eval "child::site/child::people/child::person"
         [ Xd_xml.Node.doc_node doc ])
  in
  let returned = eval "attribute::id" used in
  let runs = List.init 3 (fun _ -> time (fun () -> P.Runtime.project ~used ~returned doc)) in
  let pr = fst (List.hd runs) in
  ( 1e3 *. List.fold_left (fun m (_, t) -> Float.min m t) infinity runs,
    float_of_int (String.length (Xd_xml.Serializer.doc pr.P.Runtime.doc))
    /. float_of_int (Xd_xml.Serializer.doc_bytes doc) )

let failures_shown = ref 0

let run_round ?trace (w : W.t) ~seed ~round ~n =
  let sentinel = sentinel_ms () in
  Gc.compact ();
  (* the process also holds the samples of earlier rounds *)
  let live_base = (Gc.stat ()).Gc.live_words in
  (* documents differ from round to round, so that a run averages over
     several of them *)
  let setup, setup_ms = time (fun () -> make_setup w ~seed:(Hashtbl.hash (seed, round))) in
  let rng = Xd_xmark.Generator.rng (Hashtbl.hash (seed, w.W.name, round)) in
  let oracle = Hashtbl.create 64 in
  let last_write = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let attempted = ref 0 and repeats = ref 0 in
  let failed = Hashtbl.create 8 in
  let fail op fmt =
    Printf.ksprintf
      (fun msg ->
        Hashtbl.replace failed op ();
        incr failures_shown;
        if !failures_shown <= 5 then
          Printf.eprintf "e2e: %s round %d: %s\n%!" w.W.name round msg)
      fmt
  in
  let local text = E.run_local setup.net ~client:setup.client (Xd_lang.Parser.parse_query text) in
  let expected text =
    match Hashtbl.find_opt oracle text with
    | Some v -> v
    | None ->
      let v = local text in
      Hashtbl.add oracle text v;
      v
  in
  (* one query, checked; [Some sample] when it ran *)
  let one ?trace op =
    let tag = Printf.sprintf "%d_%d" round op in
    let query = w.W.draw rng ~op ~tag in
    if Hashtbl.mem seen query.W.text then (if op >= warmup then incr repeats)
    else Hashtbl.add seen query.W.text ();
    incr attempted;
    let client =
      if w.W.client_per_query then Xd_xrpc.Network.new_peer setup.net ("client-" ^ tag)
      else setup.client
    in
    let fail fmt = fail op fmt in
    match run_query ?trace setup ~client w query.W.text with
    | exception e ->
      fail "%s: %s" query.W.text (Printexc.to_string e);
      None
    | value, s -> (
      match query.W.writes with
      | [] ->
        (match expected query.W.text with
        | exception e -> fail "oracle %s: %s" query.W.text (Printexc.to_string e)
        | v ->
          if not (Xd_lang.Value.deep_equal value v) then
            fail "%s: value differs from run_local" query.W.text);
        Some (query, s)
      | writes ->
        if value <> [] then fail "%s: update returned a value" query.W.text;
        if s.timing.E.txn_commits <> 1 || s.timing.E.txn_aborts <> 0 then
          fail "%s: %d commits, %d aborts" query.W.text s.timing.E.txn_commits
            s.timing.E.txn_aborts;
        List.iter (fun (back, v) -> Hashtbl.replace last_write back (op, v)) writes;
        Some (query, s))
  in
  for op = 0 to warmup - 1 do
    ignore (one op)
  done;
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let gc0 = Gc.quick_stat () in
  let timed = List.filter_map Fun.id (List.init n (fun i -> one ?trace (warmup + i))) in
  let gc1 = Gc.quick_stat () in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  Hashtbl.iter
    (fun back (op, v) ->
      match Xd_lang.Value.string_value (local back) with
      | exception e -> fail op "read-back %s: %s" back (Printexc.to_string e)
      | got -> if got <> v then fail op "read-back %s: %S, last write %S" back got v)
    last_write;
  let probes =
    if Option.is_none trace then []
    else
      List.filteri (fun i _ -> i < probe_cap) timed
      |> List.map (fun (q, _) -> probe trace setup w q)
  in
  let parse_mb_s, serialize_mb_s = xml_probe setup in
  let projection_us, projection_ratio = projection_probe setup in
  {
    setup_s = setup_ms /. 1e3;
    sentinel;
    samples = List.map snd timed;
    probes;
    attempted = !attempted;
    failed = Hashtbl.length failed;
    retained_kb =
      float_of_int (live1 - live0) *. word_bytes /. 1e3 /. float_of_int n;
    live_mb = float_of_int (live1 - live_base) *. word_bytes /. 1e6;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    repeats = !repeats;
    parse_mb_s;
    serialize_mb_s;
    projection_us;
    projection_ratio;
  }

(* ---- metrics -------------------------------------------------------------- *)

type metric = {
  name : string;
  unit : string;
  value : float;
  gated : bool;  (** listed in BENCHMARK.json, so on the result line *)
}

let m ?(gated = true) name unit value = { name; unit; value; gated }

(* The exact metrics depend only on the seed and the run's position, so
   they are taken over the first measured rounds, which every run makes. *)
let exact_rounds = 5

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let samples rounds = List.concat_map (fun r -> r.samples) rounds
let latencies rounds = List.map (fun s -> s.lat_ms) (samples rounds)
let per_query rounds f = mean (List.map f (samples rounds))
let timing_per_query rounds f = per_query rounds (fun s -> f s.timing)
let attempted rounds = List.fold_left (fun a r -> a + r.attempted) 0 rounds
let failed rounds = List.fold_left (fun a r -> a + r.failed) 0 rounds

let bytes (t : E.timing) = float_of_int (t.E.message_bytes + t.E.document_bytes)

let exact rounds =
  let first = take exact_rounds rounds in
  [
    m "wire_sim_ms_per_query" "ms"
      (timing_per_query first (fun t -> t.E.network_s *. 1e3));
    m "bytes_per_query" "B" (timing_per_query first bytes);
    m "xrpc.messages_per_query" "count"
      (timing_per_query first (fun t -> float_of_int t.E.messages));
    m "gc.alloc_mb_per_query" "MB"
      (per_query first (fun s -> s.words *. word_bytes /. 1e6));
    m ~gated:false "failed_share" "ratio"
      (ratio (float_of_int (failed rounds)) (float_of_int (attempted rounds)));
  ]

let pick name ms = List.find (fun x -> x.name = name) ms

(* Contention from the machine's other tenants only ever slows a round
   down. It comes in bursts of a second to minutes and slows every query
   of the round alike, by up to 1.8x. Timings are therefore pooled over
   the quietest third of the rounds, those with the lowest mean latency:
   they measure the program, not its neighbours. The mean, not the
   median, ranks them, so that a round that a burst hit only in part is
   left out too. *)
let quiet_rounds rounds =
  List.map (fun r -> (mean (latencies [ r ]), r)) rounds
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd
  |> take ((List.length rounds + 2) / 3)

(* The tail percentile. Not p95: qn2-ship pools 200-300 queries, and a
   few bursts decide the 10-15 beyond its p95, which then spread more
   from seed to seed than p90 does. *)
let tail = 90.

let end_to_end rounds =
  let quiet = quiet_rounds rounds in
  let lat = latencies quiet in
  let exact = exact rounds in
  [
    m "latency_p50_ms" "ms" (median lat);
    m "latency_p90_ms" "ms" (percentile lat tail);
    m "throughput_qps" "1/s" (float_of_int (List.length lat) /. (sum lat /. 1e3));
    m "paper_total_p50_ms" "ms"
      (median
         (List.map (fun s -> s.lat_ms +. (s.timing.E.network_s *. 1e3)) (samples quiet)));
    m ~gated:false "latency_p50_all_ms" "ms" (median (latencies rounds));
    m ~gated:false "latency_p90_all_ms" "ms" (percentile (latencies rounds) tail);
    pick "wire_sim_ms_per_query" exact;
    pick "bytes_per_query" exact;
    m "retained_kb_per_query" "KB" (median (List.map (fun r -> r.retained_kb) rounds));
    (* not the major heap's size: that never shrinks here (no compaction
       in this OCaml), so it would grow with the number of rounds run *)
    m "live_heap_mb" "MB" (median (List.map (fun r -> r.live_mb) rounds));
    (* set-up is slowed by the same bursts as the queries *)
    m "setup_s" "s" (median (List.map (fun r -> r.setup_s) quiet));
    pick "failed_share" exact;
  ]

(* Self time of a span: its wall duration minus the part its children
   cover. Summed per category over the traced queries. *)
let self_ms_by_cat (spans : T.span list) =
  let kids = Hashtbl.create 4096 in
  List.iter
    (fun (s : T.span) -> Option.iter (fun p -> Hashtbl.add kids p s) s.T.parent_id)
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun (s : T.span) ->
      let children =
        List.sort
          (fun (a : T.span) (b : T.span) -> compare a.T.start_wall b.T.start_wall)
          (Hashtbl.find_all kids s.T.span_id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (c : T.span) ->
            let lo = Float.max hi c.T.start_wall in
            let e = Float.min s.T.end_wall c.T.end_wall in
            if e > lo then (acc +. (e -. lo), e) else (acc, hi))
          (0., s.T.start_wall) children
      in
      let d = s.T.end_wall -. s.T.start_wall -. covered in
      Hashtbl.replace self s.T.cat
        (d +. Option.value ~default:0. (Hashtbl.find_opt self s.T.cat)))
    spans;
  fun cat -> 1e3 *. Option.value ~default:0. (Hashtbl.find_opt self cat)

let span_cats =
  [ "query"; "call"; "attempt"; "serialize"; "shred"; "remote"; "server"; "doc"; "txn"; "txn.rpc" ]

let per_layer all_rounds traced spans =
  let rounds = quiet_rounds all_rounds in
  let t f = timing_per_query rounds f in
  let q f = per_query rounds f in
  let lat = mean (latencies rounds) in
  let parse = q (fun s -> s.parse_us) and decompose = q (fun s -> s.decompose_us) in
  let prelude = q (fun s -> s.prelude_us) and exec = t (fun t -> t.E.wall_s *. 1e3) in
  let kb words = words *. word_bytes /. 1e3 in
  let probes = List.concat_map (fun r -> r.probes) traced in
  let pr f = mean (List.map f probes) in
  let count f = t (fun t -> float_of_int (f t)) in
  let codec_ok =
    count (fun t -> t.E.codec_compiled + t.E.codec_decodes + t.E.codec_event_shreds)
  in
  let codec_bail = count (fun t -> t.E.codec_bailouts) in
  let traced_queries = float_of_int (List.length (samples traced)) in
  let self = self_ms_by_cat spans in
  let program_spans =
    List.filter
      (fun (s : T.span) -> not (String.starts_with ~prefix:"bench." s.T.cat))
      spans
  in
  let n = float_of_int (List.length (samples rounds)) in
  let untraced_p50 = median (latencies rounds) in
  let traced_p50 = median (latencies traced) in
  let sentinels = List.map (fun r -> r.sentinel) all_rounds in
  [
    m "lang.parse_us" "us" parse;
    m "lang.parse_alloc_kb" "KB" (q (fun s -> kb s.parse_words));
    m "lang.eval_local_ms" "ms"
      (mean (List.filter_map (fun p -> p.eval_local_ms) probes));
    m "core.decompose_us" "us" decompose;
    m "core.decompose_alloc_kb" "KB" (q (fun s -> kb s.decompose_words));
    m "core.run_prelude_us" "us" prelude;
    m "core.local_exec_residual_ms" "ms" (t (fun t -> t.E.local_exec_s *. 1e3));
    m "core.cost_choose_ms" "ms" (pr (fun p -> p.cost_ms));
    m "types.infer_us" "us" (pr (fun p -> p.infer_us));
    m "effects.schedule_us" "us" (pr (fun p -> p.schedule_us));
    m "shape.analyze_us" "us" (pr (fun p -> p.shape_us));
    m "xrpc.codec_compile_us" "us" (pr (fun p -> p.codec_us));
    m "verify.verify_us" "us" (pr (fun p -> p.verify_us));
    m "compile.share" "ratio" (ratio ((parse +. decompose +. prelude) /. 1e3) lat);
    m "xrpc.exec_wall_ms" "ms" exec;
    m "xrpc.serialize_ms" "ms" (t (fun t -> t.E.serialize_s *. 1e3));
    m "xml.shred_ms" "ms" (t (fun t -> t.E.shred_s *. 1e3));
    m "xrpc.remote_exec_ms" "ms" (t (fun t -> t.E.remote_exec_s *. 1e3));
    pick "xrpc.messages_per_query" (exact all_rounds);
    m "xrpc.calls_per_query" "count" (count (fun t -> t.E.calls));
    m ~gated:false "xrpc.batch_envelopes" "count" (count (fun t -> t.E.batch_envelopes));
    m "xrpc.codec_hit_ratio" "ratio" (ratio codec_ok (codec_ok +. codec_bail));
    m ~gated:false "xrpc.codec_attempts" "count" (codec_ok +. codec_bail);
    m ~gated:false "xrpc.codec_bailouts" "count" codec_bail;
    m ~gated:false "xrpc.txn_commits" "count" (count (fun t -> t.E.txn_commits));
    m ~gated:false "xrpc.txn_aborts" "count" (count (fun t -> t.E.txn_aborts));
    m ~gated:false "xrpc.retries" "count" (count (fun t -> t.E.retries));
    m "xml.docs_fetched_per_query" "count"
      (q (fun s -> float_of_int s.docs_fetched));
  ]
  @ List.map
      (fun cat ->
        m ("span." ^ cat ^ ".self_ms") "ms" (ratio (self cat) traced_queries))
      span_cats
  @ [
      m "xml.parse_mb_s" "MB/s" (median (List.map (fun r -> r.parse_mb_s) rounds));
      m "xml.serialize_mb_s" "MB/s"
        (median (List.map (fun r -> r.serialize_mb_s) rounds));
      m "projection.runtime_us" "us"
        (median (List.map (fun r -> r.projection_us) rounds));
      m "projection.bytes_ratio" "ratio"
        (median (List.map (fun r -> r.projection_ratio) rounds));
      pick "gc.alloc_mb_per_query" (exact all_rounds);
      m "gc.minor_per_query" "count"
        (ratio (float_of_int (List.fold_left (fun a r -> a + r.minor_gcs) 0 rounds)) n);
      m "gc.major_per_query" "count"
        (ratio (float_of_int (List.fold_left (fun a r -> a + r.major_gcs) 0 rounds)) n);
      m "obs.trace_overhead_pct" "%" (100. *. ratio (traced_p50 -. untraced_p50) untraced_p50);
      m "obs.spans_per_query" "count"
        (ratio (float_of_int (List.length program_spans)) traced_queries);
      (* independently measured parts: bench clock, the executor's
         buckets, and local evaluation straight from the trace *)
      m ~gated:false "recon.ratio" "ratio"
        (ratio
           (((parse +. decompose +. prelude) /. 1e3)
           +. t (fun t -> (t.E.serialize_s +. t.E.shred_s +. t.E.remote_exec_s) *. 1e3)
           +. ratio (self "query") traced_queries)
           lat);
      m ~gated:false "workload.repeat_share" "ratio"
        (ratio
           (float_of_int (List.fold_left (fun a r -> a + r.repeats) 0 all_rounds))
           (float_of_int (List.length (samples all_rounds))));
      m ~gated:false "machine.sentinel_ms" "ms" (median sentinels);
      m ~gated:false "machine.sentinel_spread" "ratio" (spread sentinels);
    ]

(* ---- output --------------------------------------------------------------- *)

let num v = Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit)
         ms)
  ^ "}"

let print_metrics title ms =
  Printf.printf "  %s\n" title;
  List.iter (fun x -> Printf.printf "    %-30s %16.6g %s\n" x.name x.value x.unit) ms

(* The exact metrics of one workload on one line: the line the
   regression gate compares with its baseline. *)
let exact_line (w : W.t) rounds =
  Printf.sprintf "\"exact\": {\"workload\": %S, %s}" w.W.name
    (String.concat ", "
       (List.map (fun x -> Printf.sprintf "%S: %s" x.name (num x.value)) (exact rounds)))

let exact_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (String.starts_with ~prefix:"\"exact\":")
  |> List.map (fun l ->
         if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1)
         else l)

(* ---- main ----------------------------------------------------------------- *)

type result = {
  w : W.t;
  rounds : round list;
  traced : round list;
  spans : T.span list;
}

let all_rounds res = res.rounds @ res.traced

let usage =
  "e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-dir DIR] [--quick] [--baseline FILE]"

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 60. in
  let trace = ref false and trace_dir = ref None and quick = ref false in
  let baseline = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  seed of the documents and query draws");
      ("--seconds", Arg.Set_float seconds, "S  measure for at least S seconds");
      ("--trace", Arg.Int (fun i -> trace := i <> 0), "0|1  add the traced pass");
      ( "--trace-dir",
        Arg.String
          (fun d ->
            trace := true;
            trace_dir := Some d),
        "DIR  traced pass, one Chrome trace per workload in DIR" );
      ("--quick", Arg.Set quick, " one small round per workload (CI)");
      ("--baseline", Arg.String (fun f -> baseline := Some f), "FILE  gate the exact metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let ws =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "e2e: unknown workload %S (%s)\n" !workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
        exit 2
  in
  let seed = !seed and quick = !quick in
  let n (w : W.t) = if quick then w.W.quick_per_round else w.W.per_round in
  (* The first round grows the heap from nothing and runs every code
     path for the first time; a long-lived process pays that once, so it
     is not measured. *)
  let warm_rounds = if quick then 0 else 1 in
  let min_rounds = warm_rounds + if quick then 1 else exact_rounds in
  (* Rounds are interleaved across workloads, so machine drift lands on
     all of them alike. *)
  let rounds = Hashtbl.create 4 in
  let t_start = now () in
  let r = ref 0 in
  while !r < min_rounds || ((not quick) && ms_since t_start < !seconds *. 1e3) do
    List.iteri
      (fun i _ ->
        let w = List.nth ws ((i + !r) mod List.length ws) in
        let round = run_round w ~seed ~round:!r ~n:(n w) in
        if !r >= warm_rounds then
          Hashtbl.replace rounds w.W.name
            (round :: Option.value ~default:[] (Hashtbl.find_opt rounds w.W.name)))
      ws;
    incr r
  done;
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    !trace_dir;
  let results =
    List.map
      (fun (w : W.t) ->
        let rounds = List.rev (Hashtbl.find rounds w.W.name) in
        if not !trace then { w; rounds; traced = []; spans = [] }
        else begin
          let tr = T.create ~cap:(1 lsl 19) () in
          let traced =
            List.init (if quick then 1 else 2) (fun i ->
                run_round ~trace:tr w ~seed ~round:(1000 + i) ~n:(n w))
          in
          if T.dropped tr > 0 then
            Printf.eprintf "e2e: %s: %d spans dropped\n" w.W.name (T.dropped tr);
          Option.iter
            (fun d ->
              Xd_obs.Sink.write_file
                (Filename.concat d ("e2e-" ^ w.W.name ^ ".trace.json"))
                (Xd_obs.Sink.chrome tr))
            !trace_dir;
          { w; rounds; traced; spans = T.spans tr }
        end)
      ws
  in
  let report res =
    let e2e = end_to_end res.rounds in
    let layers = if !trace then per_layer res.rounds res.traced res.spans else [] in
    let quiet = quiet_rounds res.rounds in
    Printf.printf
      "%s (seed %d): %d rounds, %d timed queries, %d attempted, %d failed; \
       timings over the quietest %d rounds (%d queries)\n"
      res.w.W.name seed (List.length res.rounds)
      (List.length (samples res.rounds))
      (attempted (all_rounds res)) (failed (all_rounds res))
      (List.length quiet) (List.length (samples quiet));
    print_metrics "end to end" e2e;
    if layers <> [] then print_metrics "per layer" layers;
    let sentinel = spread (List.map (fun r -> r.sentinel) res.rounds) in
    if sentinel > 0.10 then
      Printf.printf "  warning: noisy machine, sentinel spread %.0f%% across rounds\n"
        (100. *. sentinel);
    (e2e, layers)
  in
  let reports = List.map (fun res -> (res, report res)) results in
  let every_round = List.concat_map all_rounds results in
  let gate_ok =
    match !baseline with
    | None -> true
    | Some path ->
      let want = exact_lines path in
      let got = List.map (fun res -> exact_line res.w res.rounds) results in
      let only a b = List.filter (fun l -> not (List.mem l b)) a in
      List.iter (Printf.printf "regress: baseline %s\n") (only want got);
      List.iter (Printf.printf "regress: current  %s\n") (only got want);
      Printf.printf "regress: %d exact line(s) in %s, %d not matched\n"
        (List.length want) path (List.length (only want got @ only got want));
      want <> [] && only want got = [] && only got want = []
  in
  if !workload = "all" then begin
    let workload_json (res, (e2e, layers)) =
      Printf.sprintf
        "    {\"name\": %S, \"rounds\": %d, \"attempted\": %d, \"failed\": %d,\n\
        \     %s,\n\
        \     \"metrics\": %s,\n\
        \     \"layers\": %s}"
        res.w.W.name (List.length res.rounds)
        (attempted (all_rounds res)) (failed (all_rounds res))
        (exact_line res.w res.rounds) (json_metrics e2e) (json_metrics layers)
    in
    Xd_obs.Sink.write_file "BENCH_e2e.json"
      (Printf.sprintf
         "{\n  \"benchmark\": \"e2e\",\n  \"seed\": %d,\n  \"quick\": %b,\n  \"workloads\": [\n%s\n  ]\n}\n"
         seed quick
         (String.concat ",\n" (List.map workload_json reports)));
    print_endline "(written to BENCH_e2e.json)"
  end;
  let gated =
    List.concat_map
      (fun (_, (e2e, layers)) ->
        List.filter (fun x -> x.gated) (if !trace then layers else e2e))
      reports
  in
  let correct = failed every_round = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    correct (attempted every_round) (failed every_round)
    (if List.length ws = 1 then json_metrics gated else "{}");
  if not (correct && gate_ok) then exit 1
