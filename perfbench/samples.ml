(* Raw samples with exact order statistics: every recorded value is
   kept, so a percentile is a value that was measured (nearest rank),
   not a histogram bucket bound. *)

type chunk = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable full : chunk list;  (** filled chunks, newest first *)
  mutable cur : chunk;
  mutable fill : int;  (** samples in [cur] *)
  mutable len : int;
}

(* Chunks double up to [max_chunk] and are never copied, and they live
   outside the OCaml heap, so the store occupies [bytes] and no more and
   does not grow the heap the collector paces: the in-process workloads
   take it out of the peak RSS of the process that holds it. *)
let max_chunk = 65536

let chunk n : chunk = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n
let dim = Bigarray.Array1.dim

let create () = { full = []; cur = chunk 256; fill = 0; len = 0 }

let add t x =
  if t.fill = dim t.cur then begin
    t.full <- t.cur :: t.full;
    t.cur <- chunk (min max_chunk (2 * dim t.cur));
    t.fill <- 0
  end;
  Bigarray.Array1.unsafe_set t.cur t.fill x;
  t.fill <- t.fill + 1;
  t.len <- t.len + 1

let length t = t.len

(* Bytes the store holds, filled or not. *)
let bytes t = 8 * List.fold_left (fun acc c -> acc + dim c) (dim t.cur) t.full

let to_array t =
  let a = Float.Array.create t.len in
  let k = ref 0 in
  List.iter
    (fun (c, m) -> for i = 0 to m - 1 do Float.Array.set a (!k + i) (Bigarray.Array1.get c i) done; k := !k + m)
    (List.rev ((t.cur, t.fill) :: List.map (fun c -> (c, dim c)) t.full));
  a

let to_list t = Float.Array.to_list (to_array t)
let sum t = Float.Array.fold_left ( +. ) 0.0 (to_array t)
let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

let sorted t =
  let a = to_array t in
  Float.Array.sort Float.compare a;
  a

(* Nearest-rank index of percentile [p] in [n] sorted samples. *)
let rank n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let percentile t p =
  if t.len = 0 then 0.0
  else
    Float.Array.get (sorted t) (rank t.len p)

let median t = percentile t 0.5

type tail = { p : float; value : float; n : int; beyond : int }

(* [p], or the highest percentile below it that still leaves [min_beyond]
   samples above its rank; [None] with fewer than [min_beyond + 1]
   samples. *)
let tail ?(min_beyond = 10) t p =
  let n = t.len in
  if n <= min_beyond then None
  else
    let a = sorted t in
    let i = min (rank n p) (n - 1 - min_beyond) in
    Some { p = float_of_int (i + 1) /. float_of_int n; value = Float.Array.get a i; n; beyond = n - 1 - i }
