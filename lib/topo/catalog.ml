type entry = { doc : string; owner : string; replicas : string list }

type t = {
  entries : (string, entry) Hashtbl.t; (* doc -> entry *)
  members : (string, bool) Hashtbl.t; (* peer -> up *)
  mutable epoch : int;
  mutable version : int; (* unique across catalogs; see [version] *)
}

(* One counter for every catalog in the process, so that a version names
   both a catalog and its state. *)
let last_version = ref 0

let bump_version t =
  incr last_version;
  t.version <- !last_version

let create () =
  let t =
    { entries = Hashtbl.create 8; members = Hashtbl.create 8; epoch = 0; version = 0 }
  in
  bump_version t;
  t

let epoch t = t.epoch
let version t = t.version
let trivial t = Hashtbl.length t.entries = 0

let enroll t peer =
  if not (Hashtbl.mem t.members peer) then Hashtbl.replace t.members peer true

let register t ~doc ~owner ?(replicas = []) () =
  Hashtbl.replace t.entries doc { doc; owner; replicas };
  enroll t owner;
  List.iter (enroll t) replicas;
  bump_version t

let resolve t doc = Hashtbl.find_opt t.entries doc
let owner_of t doc = Option.map (fun e -> e.owner) (resolve t doc)

let serves t ~peer ~doc =
  match resolve t doc with
  | Some e -> e.owner = peer || List.mem peer e.replicas
  | None -> false

let move t ~doc ~owner =
  let replicas =
    match resolve t doc with
    | Some e -> List.filter (fun r -> r <> owner && r <> e.owner) e.replicas
    | None -> []
  in
  Hashtbl.replace t.entries doc { doc; owner; replicas };
  enroll t owner;
  t.epoch <- t.epoch + 1;
  bump_version t

let join t peer =
  Hashtbl.replace t.members peer true;
  t.epoch <- t.epoch + 1;
  bump_version t

let leave t peer =
  Hashtbl.remove t.members peer;
  let live p = match Hashtbl.find_opt t.members p with Some up -> up | None -> false in
  Hashtbl.iter
    (fun doc e ->
      let replicas = List.filter (fun r -> r <> peer) e.replicas in
      if e.owner = peer then
        match List.find_opt live replicas with
        | Some promoted ->
          Hashtbl.replace t.entries doc
            { e with owner = promoted; replicas = List.filter (fun r -> r <> promoted) replicas }
        | None -> Hashtbl.replace t.entries doc { e with replicas }
      else if replicas <> e.replicas then
        Hashtbl.replace t.entries doc { e with replicas })
    (Hashtbl.copy t.entries);
  t.epoch <- t.epoch + 1;
  bump_version t

let mark_down t peer = Hashtbl.replace t.members peer false
let mark_up t peer = Hashtbl.replace t.members peer true

let is_up t peer =
  match Hashtbl.find_opt t.members peer with Some up -> up | None -> true

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> compare a.doc b.doc)

let members t =
  Hashtbl.fold (fun p up acc -> (p, up) :: acc) t.members []
  |> List.sort compare

let of_parts ~epoch ~entries ~members =
  let t = create () in
  List.iter (fun e -> Hashtbl.replace t.entries e.doc e) entries;
  List.iter (fun (p, up) -> Hashtbl.replace t.members p up) members;
  t.epoch <- epoch;
  t

let pp fmt t =
  Format.fprintf fmt "catalog epoch %d" t.epoch;
  List.iter
    (fun e ->
      Format.fprintf fmt "@\n  doc %s owner %s" e.doc e.owner;
      if e.replicas <> [] then
        Format.fprintf fmt " replicas %s" (String.concat "," e.replicas))
    (entries t);
  List.iter
    (fun (p, up) ->
      Format.fprintf fmt "@\n  member %s %s" p (if up then "up" else "down"))
    (members t)

let of_spec s =
  let t = create () in
  let err = ref None in
  let fail fmt = Format.kasprintf (fun m -> if !err = None then err := Some m) fmt in
  String.split_on_char ';' s
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.index_opt item '/' with
           | None ->
             fail "entry %S: expected OWNER/DOC[+REPLICA...]" item
           | Some i ->
             let owner = String.sub item 0 i in
             let rest = String.sub item (i + 1) (String.length item - i - 1) in
             (match String.split_on_char '+' rest with
             | doc :: replicas
               when owner <> "" && doc <> "" && List.for_all (fun r -> r <> "") replicas
               -> register t ~doc ~owner ~replicas ()
             | _ -> fail "entry %S: expected OWNER/DOC[+REPLICA...]" item));
  match !err with Some m -> Error m | None -> Ok t
