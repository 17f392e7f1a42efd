(* Node-sequence operations: document-order sorting, duplicate elimination
   (by node identity), and the three node-set operators. These are the
   operations whose semantics silently change when nodes are copied into
   messages — the crux of the paper. *)

let sort ns = List.stable_sort Node.compare_order ns

let rec strictly_ordered = function
  | a :: (b :: _ as rest) -> Node.compare_order a b < 0 && strictly_ordered rest
  | [] | [ _ ] -> true

(* Path steps from ordered, non-nested contexts already come out in
   document order without duplicates; one linear check spares the sort. *)
let sort_dedup ns =
  if strictly_ordered ns then ns
  else
    let rec dedup acc = function
      | a :: (b :: _ as rest) ->
        dedup (if Node.same a b then acc else a :: acc) rest
      | [ a ] -> List.rev (a :: acc)
      | [] -> List.rev acc
    in
    dedup [] (sort ns)

(* The node-set operators merge their two ordered, duplicate-free
   operands in one pass. [only_a] and [only_b] say whether to emit a node
   found in one operand only; [both] picks which operand's copy of a
   shared node to emit, if any (union keeps [b]'s, as sorting [a @ b] and
   keeping the last of each run did). *)
type side = A | B | Neither

let merge ~only_a ~only_b ~both a b =
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | x :: a', [] -> go (if only_a then x :: acc else acc) a' []
    | [], y :: b' -> go (if only_b then y :: acc else acc) [] b'
    | x :: a', y :: b' ->
      let c = Node.compare_order x y in
      if c < 0 then go (if only_a then x :: acc else acc) a' b
      else if c > 0 then go (if only_b then y :: acc else acc) a b'
      else
        let acc =
          match both with A -> x :: acc | B -> y :: acc | Neither -> acc
        in
        go acc a' b'
  in
  go [] (sort_dedup a) (sort_dedup b)

let union a b = merge ~only_a:true ~only_b:true ~both:B a b
let intersect a b = merge ~only_a:false ~only_b:false ~both:A a b
let except a b = merge ~only_a:true ~only_b:false ~both:Neither a b

let contains_node ns n = List.exists (Node.same n) ns

(* Maximal nodes of a set: drop any node contained in another node of the
   set. Used by pass-by-fragment to avoid serializing a shipped node that is
   a descendant of another shipped node. In document order the nodes a
   node contains follow it as one run, so a single scan drops them. *)
let maximal ns =
  let rec keep acc = function
    | [] -> List.rev acc
    | n :: rest -> keep (n :: acc) (drop n rest)
  and drop n = function
    | m :: rest when Node.contains n m -> drop n rest
    | rest -> rest
  in
  keep [] (sort_dedup ns)

(* Lowest common ancestor of a non-empty set of nodes of one document. *)
let lowest_common_ancestor ns =
  match sort_dedup ns with
  | [] -> invalid_arg "lowest_common_ancestor: empty"
  | first :: rest ->
    let rec meet anc n =
      if Node.contains anc n then anc
      else
        match Node.parent anc with
        | Some p -> meet p n
        | None -> invalid_arg "lowest_common_ancestor: multiple documents"
    in
    List.fold_left meet first rest
