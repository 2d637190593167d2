(* The traced run: benchmark-side spans around the public calls that
   [Containment.decide] and [Maxii.decide] make, in the same order.

   [decide] is the root span of each instance; its children are
   [core.eq8] ([Containment.eq8]), [entropy.normal]
   ([Maxii.valid_over Cones.Normal]), [entropy.gamma]
   ([Cones.valid_max_cert Cones.Gamma]), [core.witness]
   ([Containment.witness_from_normal]) and [entropy.cert_check]
   ([Certificate.check]).  All spans of one instance share its request
   id.  Each child records its [Gc.minor_words] delta and the delta of
   every registry counter in [counter_names] across its call.

   Reading counters and the allocation clock costs time of its own; the
   span clock is read around those reads, and that instrumentation time
   is kept apart from every span's self time.  Registry counters are
   process-wide, so under jobs > 1 a child's counter deltas can include
   another worker's increments; per-decision totals come from phase
   deltas instead. *)

open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
module Metrics = Bagcqc_obs.Metrics

let counter_names =
  [ "hom.enumerations"; "solver.cache.hits"; "solver.cache.misses"; "lp.solves";
    "lp.pivots"; "lp.float.probes"; "lp.hybrid.float_solves"; "lp.hybrid.repairs";
    "lp.hybrid.fallbacks"; "cone.lazy.rounds"; "cone.lazy.cuts"; "cone.orbit.cuts";
    "cone.lazy.fallbacks" ]

let counters = Array.of_list (List.map Metrics.counter counter_names)
let ncounters = Array.length counters
let read_counters () = Array.map Metrics.count counters

type layer = Decide | Eq8 | Normal | Gamma | Witness | Cert_check

let layers = [ Decide; Eq8; Normal; Gamma; Witness; Cert_check ]

let layer_name = function
  | Decide -> "decide"
  | Eq8 -> "core.eq8"
  | Normal -> "entropy.normal"
  | Gamma -> "entropy.gamma"
  | Witness -> "core.witness"
  | Cert_check -> "entropy.cert_check"

let index = function
  | Decide -> 0 | Eq8 -> 1 | Normal -> 2 | Gamma -> 3 | Witness -> 4 | Cert_check -> 5

let nlayers = List.length layers

type span = {
  rid : int;
  layer : layer;
  start_ns : int64;
  dur_ns : float;
  self_ns : float;
  words : float;
  deltas : int array;  (** indexed like [counter_names] *)
}

(* Per-layer totals, plus the first [keep] spans verbatim (with their
   counter deltas). *)
type acc = {
  count : int array;
  total_ns : float array;
  self_ns : float array;
  words : float array;
  sizes : int array;  (** Eq. 8 sides built, certificate sizes checked *)
  mutable instr_ns : float;  (** instrumentation time, outside every span *)
  mutable kept : span list;
  mutable nkept : int;
  mutable dropped : int;
}

let keep = 20_000

let new_acc () =
  { count = Array.make nlayers 0;
    total_ns = Array.make nlayers 0.0;
    self_ns = Array.make nlayers 0.0;
    words = Array.make nlayers 0.0;
    sizes = Array.make nlayers 0;
    instr_ns = 0.0;
    kept = []; nkept = 0; dropped = 0 }

(* One accumulator per domain; [merged] folds them after the phase. *)
let all_accs = ref []
let accs_mutex = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = new_acc () in
      Mutex.protect accs_mutex (fun () -> all_accs := a :: !all_accs);
      a)

let reset () =
  Mutex.protect accs_mutex (fun () ->
      List.iter
        (fun a ->
          Array.fill a.count 0 nlayers 0;
          Array.fill a.total_ns 0 nlayers 0.0;
          Array.fill a.self_ns 0 nlayers 0.0;
          Array.fill a.words 0 nlayers 0.0;
          Array.fill a.sizes 0 nlayers 0;
          a.instr_ns <- 0.0;
          a.kept <- []; a.nkept <- 0; a.dropped <- 0)
        !all_accs)

let merged () =
  let m = new_acc () in
  Mutex.protect accs_mutex (fun () ->
      List.iter
        (fun a ->
          for i = 0 to nlayers - 1 do
            m.count.(i) <- m.count.(i) + a.count.(i);
            m.total_ns.(i) <- m.total_ns.(i) +. a.total_ns.(i);
            m.self_ns.(i) <- m.self_ns.(i) +. a.self_ns.(i);
            m.words.(i) <- m.words.(i) +. a.words.(i);
            m.sizes.(i) <- m.sizes.(i) + a.sizes.(i)
          done;
          m.instr_ns <- m.instr_ns +. a.instr_ns;
          m.kept <- List.rev_append a.kept m.kept;
          m.nkept <- m.nkept + a.nkept;
          m.dropped <- m.dropped + a.dropped)
        !all_accs);
  m

let record a sp =
  let i = index sp.layer in
  a.count.(i) <- a.count.(i) + 1;
  a.total_ns.(i) <- a.total_ns.(i) +. sp.dur_ns;
  a.self_ns.(i) <- a.self_ns.(i) +. sp.self_ns;
  a.words.(i) <- a.words.(i) +. sp.words;
  if a.nkept < keep then begin
    a.kept <- sp :: a.kept;
    a.nkept <- a.nkept + 1
  end
  else a.dropped <- a.dropped + 1

let ns t0 t1 = Int64.to_float (Int64.sub t1 t0)

(* The decision whose root span is open: its children add their time
   here. *)
type root = { r_rid : int; mutable child_ns : float; mutable r_instr_ns : float }

(* [size r] measures the result (sides of an inequality, size of a
   certificate) on instrumentation time. *)
let span_child ?size a root layer f =
  let ta = Clock.now_ns () in
  let c0 = read_counters () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let c1 = read_counters () in
  Option.iter (fun size -> a.sizes.(index layer) <- a.sizes.(index layer) + size r) size;
  let tb = Clock.now_ns () in
  let dur = ns t0 t1 in
  root.child_ns <- root.child_ns +. dur;
  root.r_instr_ns <- root.r_instr_ns +. ns ta t0 +. ns t1 tb;
  record a
    { rid = root.r_rid; layer; start_ns = t0; dur_ns = dur; self_ns = dur;
      words = w1 -. w0; deltas = Array.init ncounters (fun c -> c1.(c) - c0.(c)) };
  r

let unknown reason refuter = Containment.Unknown { reason; refuter = Some refuter }

let sides (_, _, ineq) = List.length (Maxii.sides ineq)

(* Containment.decide's sequential path, one span per public call; the
   core.eq8 span also covers the duplicate-atom removal that precedes
   Eq. 8's construction. *)
let decide_check a root q1 q2 =
  let q1, q2, ineq =
    span_child ~size:sides a root Eq8 (fun () ->
        let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
        (q1, q2, Containment.eq8 q1 q2))
  in
  match span_child a root Normal (fun () -> Maxii.valid_over Cones.Normal ineq) with
  | Error h -> (
    match span_child a root Witness (fun () -> Containment.witness_from_normal q1 q2 h) with
    | Some w -> Containment.Not_contained w
    | None -> unknown "witness search exceeded its budget" h)
  | Ok () -> (
    match
      span_child a root Gamma (fun () ->
          Cones.valid_max_cert Cones.Gamma ~n:(Maxii.n_vars ineq) (Maxii.sides ineq))
    with
    | Ok (Some cert) ->
      if span_child ~size:(fun _ -> Certificate.size cert) a root Cert_check (fun () ->
             Certificate.check cert)
      then
        Containment.Contained cert
      else unknown "certificate failed its check" (Polymatroid.zero (Maxii.n_vars ineq))
    | Ok None -> failwith "Gamma cone returned no certificate"
    | Error h -> unknown "refuted over the Shannon cone only" h)

(* Maxii.decide's sequential path. *)
let decide_iip a root ii =
  match span_child a root Normal (fun () -> Maxii.valid_over Cones.Normal ii) with
  | Error h -> Maxii.Invalid h
  | Ok () -> (
    match
      span_child a root Gamma (fun () ->
          Cones.valid_max_cert Cones.Gamma ~n:(Maxii.n_vars ii) (Maxii.sides ii))
    with
    | Ok (Some cert) ->
      ignore
        (span_child ~size:(fun _ -> Certificate.size cert) a root Cert_check (fun () ->
             Certificate.check cert));
      Maxii.Valid cert
    | Ok None -> failwith "Gamma cone returned no certificate"
    | Error h -> Maxii.Unknown h)

(* One traced decision under request id [rid]. *)
let decide rid (input : Decision.input) =
  let a = Domain.DLS.get acc_key in
  let root = { r_rid = rid; child_ns = 0.0; r_instr_ns = 0.0 } in
  let c0 = read_counters () and w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let outcome =
    match input with
    | Decision.Pair (q1, q2) -> Recheck.Check (decide_check a root q1 q2)
    | Decision.Ineq ii -> Recheck.Iip (decide_iip a root ii)
  in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () and c1 = read_counters () in
  let dur = ns t0 t1 -. root.r_instr_ns in
  a.instr_ns <- a.instr_ns +. root.r_instr_ns;
  record a
    { rid; layer = Decide; start_ns = t0; dur_ns = dur; self_ns = dur -. root.child_ns;
      words = w1 -. w0; deltas = Array.init ncounters (fun c -> c1.(c) - c0.(c)) };
  outcome
