(* The four workloads of the end-to-end benchmark.

   Each one is a closed loop with a single caller: the next query is sent
   only once the previous value is back and checked. The seed drives the
   XMark generator and every draw of query text; the program under test
   sees only the generated text.

   Why these four: they put the time in different layers, so that a gain
   in one layer shows on one workload and is predicted to leave another
   unchanged (README.md has the full layer -> workload map).
   - qn2-ship: whole documents cross the wire and are parsed, shredded
     and evaluated at the client. XML-layer work shows here; compile is
     under 1% of the time, so a plan cache must show nothing.
   - qn2-proj: the paper's winning strategy. Time goes to remote
     evaluation and Algorithm 1 projection; shred is a few percent, so a
     shred gain must not move it.
   - lookup-mix: sub-millisecond queries whose texts repeat often. The
     compile pipeline (parse, decompose, schedule, shapes, codec, verify)
     is a large share of the latency: this is where a plan cache shows.
   - txn-mix: two-site updates under 2PC, every text unique. Writes run
     beside the reads of the other workloads, and a text-keyed cache is
     bypassed. *)

module G = Xd_xmark.Generator
module S = Xd_core.Strategy

type query = {
  text : string;
  writes : (string * string) list;
      (** for an update: (read-back query, the string it returns while
          this update is the last write to its target) *)
}

type t = {
  name : string;
  persons : int;  (** XMark size of the two generated documents *)
  strategy : S.t;
  per_round : int;  (** timed queries per round *)
  quick_per_round : int;  (** timed queries per round under [--quick] *)
  draw : G.rng -> op:int -> tag:string -> query;
      (** the [op]th query of a round; [tag] is unique across the run *)
  client_per_query : bool;
      (** issue each query from a client peer of its own. A 2PC
          coordinator numbers its transactions per session, from 1, and a
          participant acknowledges a transaction id it has already
          committed without applying it; so on one network only the
          first [run_plan] transaction of a client takes effect (README.md,
          findings). A fresh coordinator per query keeps every
          transaction id unique. *)
}

let people_doc = "xmk.xml"
let auctions_doc = "xmk.auctions.xml"
let persons_path =
  {|doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person|}

(* The paper's Qn2 (Section VII), as bench/experiments.ml runs it. *)
let qn2 =
  {|(let $t := let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
               return for $x in $s return if ($x/descendant::age < 40) then $x else ()
     return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
                       return $c/descendant::open_auction)
            return if ($e/child::seller/attribute::person = $t/attribute::id)
                   then $e/child::annotation else ())/child::author|}

let read text = { text; writes = [] }

(* 70% point lookup by person id, 20% age selection, 10% auction count,
   in a fixed cycle so that every run has the same mix. *)
let lookup ~persons r ~op ~tag:_ =
  match op mod 10 with
  | 0 | 1 | 3 | 4 | 6 | 8 | 9 ->
    read
      (Printf.sprintf
         {|for $p in %s return if ($p/attribute::id = "person%d") then string($p/child::name) else ()|}
         persons_path (G.int r persons))
  | 2 | 7 ->
    read
      (Printf.sprintf
         {|for $p in %s return if ($p/descendant::age < %d) then $p/child::name else ()|}
         persons_path
         (20 + G.int r 50))
  | _ ->
    read
      (Printf.sprintf
         {|count(doc("xrpc://peer2/xmk.auctions.xml")/descendant::open_auction[child::initial > %d])|}
         (10 * G.int r 30))

(* One person's name on peer1 and one auction's current price on peer2,
   in one query: updates at two sites, so [`Auto] runs it under 2PC. *)
let txn ~persons r ~op:_ ~tag =
  let name =
    Printf.sprintf {|%s[attribute::id = "person%d"]/child::name|} persons_path
      (G.int r persons)
  in
  let current =
    Printf.sprintf
      {|doc("xrpc://peer2/xmk.auctions.xml")/child::site/child::open_auctions/child::open_auction[attribute::id = "open_auction%d"]/child::current|}
      (G.int r (persons / 2))
  in
  let new_name = "n" ^ tag and new_current = "c" ^ tag in
  {
    text =
      Printf.sprintf
        {|(replace value of node %s with "%s", replace value of node %s with "%s")|}
        name new_name current new_current;
    writes =
      [
        ("string(" ^ name ^ ")", new_name);
        ("string(" ^ current ^ ")", new_current);
      ];
  }

let all =
  [
    {
      name = "qn2-ship";
      (* not 640 like qn2-proj: at 640 a data-shipping round holds ~230 MB
         of heap, and a run gets too few queries for a steady tail *)
      persons = 320;
      strategy = S.Data_shipping;
      per_round = 12;
      quick_per_round = 2;
      draw = (fun _ ~op:_ ~tag:_ -> read qn2);
      client_per_query = false;
    };
    {
      name = "qn2-proj";
      persons = 640;
      strategy = S.By_projection;
      per_round = 30;
      quick_per_round = 4;
      draw = (fun _ ~op:_ ~tag:_ -> read qn2);
      client_per_query = false;
    };
    {
      name = "lookup-mix";
      persons = 80;
      strategy = S.By_projection;
      per_round = 1500;
      quick_per_round = 100;
      draw = lookup ~persons:80;
      client_per_query = false;
    };
    {
      name = "txn-mix";
      persons = 160;
      strategy = S.By_projection;
      per_round = 200;
      quick_per_round = 40;
      draw = txn ~persons:160;
      client_per_query = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
