(* Identity-keyed memo tables: an ephemeron per physical key, holding an
   association list from sub-key to value. Dead keys are swept when the
   table resizes. *)

module Make (K : sig
  type t

  val id : t -> int
end) =
struct
  module Tbl = Ephemeron.K1.Make (struct
    type t = K.t

    let equal = ( == )
    let hash = K.id
  end)

  type ('s, 'v) t = ('s * 'v) list Tbl.t

  let create () = Tbl.create 64

  let find_or_add t key sub ~valid compute =
    let entries = Option.value ~default:[] (Tbl.find_opt t key) in
    match List.assoc_opt sub entries with
    | Some v when valid v -> v
    | _ ->
      let v = compute () in
      Tbl.replace t key ((sub, v) :: List.remove_assoc sub entries);
      v
end
