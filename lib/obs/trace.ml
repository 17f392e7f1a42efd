type attr = S of string | I of int | F of float | B of bool

type span = {
  trace_id : string;
  span_id : string;
  parent_id : string option;
  name : string;
  cat : string;
  peer : string;
  start_wall : float;
  start_sim : float;
  mutable end_wall : float;
  mutable end_sim : float;
  mutable attrs : (string * attr) list;
}

type t = {
  ring : span option array;
  mutable head : int; (* next write slot *)
  mutable dropped : int;
  mutable seq : int; (* id counter: deterministic ids *)
  mutable sim : unit -> float;
}

type parent =
  | Root
  | Child of span
  | Remote of { trace_id : string; span_id : string }

let create ?(cap = 65536) ?(sim = fun () -> 0.) () =
  let cap = max 1 cap in
  { ring = Array.make cap None; head = 0; dropped = 0; seq = 0; sim }

let set_sim t f = t.sim <- f

(* Monotonic seconds since an arbitrary origin: immune to wall-clock
   steps, so durations never go negative. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Ids are derived from a per-tracer counter through a multiplicative
   hash, so they look like ids, never collide within a run, and are
   reproducible across runs — which lets tests pin them after a trivial
   normalization. *)
let span_id_of seq = Printf.sprintf "%08x" (seq * 0x9E3779B1 land 0xFFFFFFFF)

let trace_id_of seq =
  Printf.sprintf "%016x" (seq * 0x2545F4914F6CDD1D land max_int)

let next t =
  t.seq <- t.seq + 1;
  t.seq

let start topt ~parent ~peer ~cat name =
  match topt with
  | None -> None
  | Some t ->
      let trace_id, parent_id =
        match parent with
        | Root -> (trace_id_of (next t), None)
        | Child s -> (s.trace_id, Some s.span_id)
        | Remote { trace_id; span_id } -> (trace_id, Some span_id)
      in
      let now_sim = t.sim () in
      Some
        {
          trace_id;
          span_id = span_id_of (next t);
          parent_id;
          name;
          cat;
          peer;
          start_wall = now ();
          start_sim = now_sim;
          end_wall = nan;
          end_sim = nan;
          attrs = [];
        }

let add_attr sp key v =
  match sp with None -> () | Some s -> s.attrs <- (key, v) :: s.attrs

let push t s =
  if t.ring.(t.head) <> None then t.dropped <- t.dropped + 1;
  t.ring.(t.head) <- Some s;
  t.head <- (t.head + 1) mod Array.length t.ring

let finish topt sp =
  match (topt, sp) with
  | Some t, Some s ->
      s.end_wall <- now ();
      s.end_sim <- t.sim ();
      s.attrs <- List.rev s.attrs;
      push t s
  | _ -> ()

let with_span topt ~parent ~peer ~cat name f =
  match start topt ~parent ~peer ~cat name with
  | None -> f None
  | Some _ as sp -> (
      match f sp with
      | v ->
          finish topt sp;
          v
      | exception e ->
          add_attr sp "error" (S (Printexc.to_string e));
          finish topt sp;
          raise e)

let ambient = function Some s -> Child s | None -> Root

let spans t =
  let cap = Array.length t.ring in
  let out = ref [] in
  for i = 0 to cap - 1 do
    (* oldest-first: start just past the head (next overwrite victim) *)
    match t.ring.((t.head + i) mod cap) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  List.rev !out

let dropped t = t.dropped

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.head <- 0;
  t.dropped <- 0

let valid_id s =
  let n = String.length s in
  n >= 1 && n <= 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
