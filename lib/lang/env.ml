(* Dynamic evaluation context. The [execute_at] and [resolve_doc] hooks keep
   the language layer transport-agnostic: a purely local engine plugs in
   local implementations, while the XRPC runtime plugs in implementations
   that marshal values through (simulated) network messages — the exact
   place where the paper's pass-by-value / by-fragment / by-projection
   semantics differ. *)

module Smap = Map.Make (String)

exception Dynamic_error of string

let dynamic_error fmt = Format.kasprintf (fun s -> raise (Dynamic_error s)) fmt

type probe = Unbuilt | Strings of (string, unit) Hashtbl.t | Mixed

type invariant = {
  expr : Ast.expr;
  mutable value : Value.t option;
  mutable probe : probe;
}

type t = {
  store : Xd_xml.Store.t;
  vars : Value.t Smap.t;
  funcs : Ast.func Smap.t;
  resolve_doc : t -> string -> Xd_xml.Doc.t;
  execute_at :
    t -> Ast.execute_at -> host:string -> args:(Ast.var * Value.t) list ->
    Value.t;
  builtins : (string, t -> Value.t list -> Value.t) Hashtbl.t;
  schedule : (t -> Ast.expr -> Value.t option) option;
      (* scheduling hook, consulted at Seq/Let/For vertices before normal
         evaluation: the XRPC runtime uses it to overlap and batch groups
         of provably independent execute-at calls. [None] from the hook
         falls back to plain sequential evaluation. *)
  observe : (Xd_xml.Node.t -> unit) option;
      (* node observer, called on every axis-step result: lets the effect
         analysis' soundness harness watch what evaluation actually
         reads. *)
  static_base_uri : string;
  default_collation : string;
  current_datetime : string;
  mutable recursion_depth : int;
  pul : Pul.t option; (* pending update list; None = read-only context *)
  invariants : invariant list;
      (* the loop-invariant subexpressions of the enclosing loop
         instances, keyed by physical identity (Eval, "Loop invariants") *)
}

let default_resolve_doc env uri =
  match Xd_xml.Store.find_uri env.store uri with
  | Some d -> d
  | None -> dynamic_error "fn:doc: document %S not found" uri

let no_execute_at _env _x ~host ~args:_ =
  dynamic_error "execute at {%s}: no RPC handler installed" host

let create ?(vars = Smap.empty) ?(funcs = []) ?(resolve_doc = default_resolve_doc)
    ?(execute_at = no_execute_at) ?builtins ?schedule ?observe
    ?(static_base_uri = "xdx://local/") ?(default_collation = "codepoint")
    ?(current_datetime = "2009-03-29T00:00:00Z") ?pul store =
  let fmap =
    List.fold_left (fun m f -> Smap.add f.Ast.f_name f m) Smap.empty funcs
  in
  {
    store;
    vars;
    funcs = fmap;
    resolve_doc;
    execute_at;
    builtins = (match builtins with Some b -> b | None -> Hashtbl.create 64);
    schedule;
    observe;
    static_base_uri;
    default_collation;
    current_datetime;
    recursion_depth = 0;
    pul;
    invariants = [];
  }

let bind env v value = { env with vars = Smap.add v value env.vars }

let lookup env v =
  match Smap.find_opt v env.vars with
  | Some x -> x
  | None -> dynamic_error "unbound variable $%s" v

let lookup_func env name = Smap.find_opt name env.funcs

let with_funcs env funcs =
  let fmap =
    List.fold_left (fun m f -> Smap.add f.Ast.f_name f m) env.funcs funcs
  in
  { env with funcs = fmap }

let func_list env = List.map snd (Smap.bindings env.funcs)

let register_builtin env name f = Hashtbl.replace env.builtins name f
