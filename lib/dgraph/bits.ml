(* Sets of vertex ranks (0 .. n-1) as bit vectors, [Sys.int_size] bits
   per word. The d-graph keeps one per vertex for its reverse
   reachability, and the insertion conditions test those rows against
   candidate sets, whole or restricted to one subtree's rank interval,
   without building any intermediate set. *)

type t = int array

let word = Sys.int_size

let create n = Array.make ((n + word - 1) / word) 0
let copy = Array.copy
let mem s i = s.(i / word) land (1 lsl (i mod word)) <> 0

let add s i =
  let k = i / word in
  s.(k) <- s.(k) lor (1 lsl (i mod word))

let union_into ~dst src =
  for k = 0 to Array.length dst - 1 do
    dst.(k) <- dst.(k) lor src.(k)
  done

(* [dst] gains the ranks in both [a] and [b]. *)
let union_inter_into ~dst a b =
  for k = 0 to Array.length dst - 1 do
    dst.(k) <- dst.(k) lor (a.(k) land b.(k))
  done

(* The tests below recurse through top-level functions, so that a test
   allocates nothing. *)

let low j = if j <= 0 then 0 else if j >= word then -1 else (1 lsl j) - 1

(* The bits of word [k] whose ranks lie in [lo, hi). *)
let mask k lo hi =
  let base = k * word in
  low (hi - base) land lnot (low (lo - base))

let rec meets_within_up a b lo hi last k =
  k <= last
  && (a.(k) land b.(k) land mask k lo hi <> 0
     || meets_within_up a b lo hi last (k + 1))

let meets_within a b lo hi =
  lo < hi && meets_within_up a b lo hi ((hi - 1) / word) (lo / word)

let rec meets_outside_down a b lo hi k =
  k >= 0
  && (a.(k) land b.(k) land lnot (mask k lo hi) <> 0
     || meets_outside_down a b lo hi (k - 1))

let meets_outside a b lo hi = meets_outside_down a b lo hi (Array.length a - 1)
let any_within s lo hi = meets_within s s lo hi
