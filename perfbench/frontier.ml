(* Frontier instances: decisions the solver cache cannot answer.

   Max-IIPs at n = 6 and n = 7, built the way the check corpus builds
   its IIP strata (a non-negative combination of elemental Shannon
   inequalities for the valid strata, random sides for the invalid
   ones), and cyclic containment pairs whose Q2 is an R-triangle plus
   random atoms over 5-7 variables and whose Q1 collapses Q2 onto 5-6
   variables.  [generate] is a pure function of the seed and consults
   no solver; labels come from [label]. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_check

type spec =
  | Iip of { verdict : string; n : int; elementals : int; extra_side : bool }
      (** a valid instance's first side combines 1 to [elementals]
          elemental inequalities; with [extra_side] it may carry one
          more random side, as in the check corpus *)
  | Cyclic_pair

(* Per-seed quotas are fixed, so every seed runs the same mix.  The
   valid n=7 stratum is one-sided and combines at most two elemental
   inequalities: with a third elemental or a random second side, single
   n=7 decisions take from 2 ms to 1.5 s (the top 1% hold a third of
   the stratum's time), so the few such instances a seed draws would
   decide every figure and no two seeds could be compared. *)
let strata =
  [
    ("frontier/iip/valid/n6", 480, Iip { verdict = "valid"; n = 6; elementals = 3; extra_side = true });
    ("frontier/iip/invalid/n6", 480, Iip { verdict = "invalid"; n = 6; elementals = 0; extra_side = false });
    ("frontier/iip/valid/n7", 480, Iip { verdict = "valid"; n = 7; elementals = 2; extra_side = false });
    ("frontier/iip/invalid/n7", 480, Iip { verdict = "invalid"; n = 7; elementals = 0; extra_side = false });
    ("frontier/chk/cyclic", 960, Cyclic_pair);
  ]

let vocab = [ ("R", 2); ("S", 2); ("T", 1) ]

let random_atoms rng ~nv ~natoms =
  List.init natoms (fun _ ->
      let rel, arity = Rng.choose rng vocab in
      (rel, List.init arity (fun _ -> Rng.int rng nv)))

let random_side rng ~n =
  List.init (Rng.range rng 1 3) (fun _ ->
      let mask = Rng.range rng 1 ((1 lsl n) - 1) in
      let c = Rat.of_ints (Rng.range rng (-3) 3) (Rng.range rng 1 3) in
      (mask, if Rat.is_zero c then Rat.one else c))

let iip_sides rng ~n ~verdict ~elementals ~extra_side =
  let sides =
    if verdict = "valid" then
      let elems = Cones.elemental ~n in
      let combo =
        List.fold_left
          (fun acc _ ->
            let c = Rat.of_ints (Rng.range rng 1 3) (Rng.range rng 1 2) in
            Linexpr.add acc (Linexpr.scale c (Rng.choose rng elems)))
          Linexpr.zero
          (List.init (Rng.range rng 1 elementals) Fun.id)
      in
      let extra = if extra_side then Rng.int rng 2 else 0 in
      Linexpr.terms combo :: List.init extra (fun _ -> random_side rng ~n)
    else List.init (Rng.range rng 1 3) (fun _ -> random_side rng ~n)
  in
  List.filter (fun s -> s <> []) sides

(* Q2: an R-triangle on variables 0,1,2 plus 4-6 random atoms over
   5-7 variables.  Q1: Q2's atoms pushed through a random map onto 5-6
   variables (a homomorphism Q2 -> Q1 by construction, which biases the
   pair toward containment), plus one extra atom half of the time. *)
let cyclic_pair rng =
  let nv2 = Rng.range rng 5 7 in
  let tri = [ ("R", [ 0; 1 ]); ("R", [ 1; 2 ]); ("R", [ 2; 0 ]) ] in
  let q2 = Gen.compact_atoms (tri @ random_atoms rng ~nv:nv2 ~natoms:(Rng.range rng 4 6)) in
  let target = Rng.range rng 5 6 in
  let map = Array.init (Query.nvars q2) (fun _ -> Rng.int rng target) in
  let image =
    List.map
      (fun a -> (a.Query.rel, List.map (fun v -> map.(v)) (Array.to_list a.Query.args)))
      (Query.atoms q2)
  in
  let extra = if Rng.bool rng then random_atoms rng ~nv:target ~natoms:1 else [] in
  (Gen.compact_atoms (image @ extra), q2)

let max_arity q1 q2 =
  List.fold_left (fun a (_, ar) -> max a ar) 0 (Query.vocabulary q1 @ Query.vocabulary q2)

(* One structural candidate; [None] when Q1 missed the 5-6 variable
   window or Q2 came out acyclic. *)
let candidate rng = function
  | Iip { verdict; n; elementals; extra_side } ->
    let sides = iip_sides rng ~n ~verdict ~elementals ~extra_side in
    if sides = [] then None
    else
      let arity = List.fold_left (fun a s -> max a (List.length s)) 0 sides in
      Some
        { Corpus.id = 0; stratum = ""; n; arity; acyclic = false; verdict;
          payload = Corpus.Iip_sides { n; sides } }
  | Cyclic_pair ->
    let q1, q2 = cyclic_pair rng in
    let n = Query.nvars q1 in
    if n < 5 || n > 6 || Treedec.is_acyclic q2 then None
    else
      Some
        { Corpus.id = 0; stratum = ""; n; arity = max_arity q1 q2; acyclic = false;
          verdict = ""; payload = Corpus.Check_pair { q1; q2 } }

(* The label of a candidate, or [None] to reject it.  Valid IIPs are
   valid over Γn by construction.  An invalid IIP must be refuted over
   the normal cone (a tiny LP whose refuter is entropic).  A containment
   pair is labelled by the production oracle, as the check corpus is
   (the full Γn engine would take five times as long); pairs it leaves
   unknown are rejected.  The measured verdicts are also re-checked
   independently of any solver, so a label is never the only check. *)
let label inst =
  match inst.Corpus.payload with
  | Corpus.Iip_sides _ when inst.Corpus.verdict = "valid" -> Some "valid"
  | Corpus.Iip_sides { n; sides } -> (
    match Maxii.valid_over Cones.Normal (Maxii.general ~n (List.map Corpus.build_side sides)) with
    | Error _ -> Some "invalid"
    | Ok () -> None)
  | Corpus.Check_pair _ -> (
    match Corpus.oracle inst.Corpus.payload with "unknown" -> None | v -> Some v)

let attempt_budget = 500

(* Stratum streams are offset past the check corpus's stream indices. *)
let stream_offset = 1000

let fill ~seed ~index (name, quota, spec) =
  let rng = Rng.derive seed (stream_offset + index) in
  let rec go acc got attempts =
    if got = quota then List.rev acc
    else if attempts > attempt_budget * quota then
      failwith (Printf.sprintf "frontier: stratum %s exhausted its budget (seed %d)" name seed)
    else
      match candidate rng spec with
      | None -> go acc got (attempts + 1)
      | Some inst -> (
        match label inst with
        | None -> go acc got (attempts + 1)
        | Some verdict ->
          go ({ inst with Corpus.stratum = name; verdict } :: acc) (got + 1) (attempts + 1))
  in
  go [] 0 0

(* Fisher-Yates with the seed's own stream, so the strata interleave
   across the pool's contiguous chunks. *)
let shuffle ~seed arr =
  let rng = Rng.derive seed (stream_offset + List.length strata) in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

let generate ~seed =
  let insts = List.concat (List.mapi (fun index s -> fill ~seed ~index s) strata) in
  let arr = Array.of_list insts in
  shuffle ~seed arr;
  Array.to_list (Array.mapi (fun id inst -> { inst with Corpus.id }) arr)
