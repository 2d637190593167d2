(* Independent re-checks of every verdict.  None of them re-solves an
   LP: certificates are re-verified in exact arithmetic against the
   instance's own inequality, witnesses by counting homomorphisms, and
   refuters by evaluating the sides on them. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
open Bagcqc_check

type outcome = Check of Containment.verdict | Iip of Maxii.verdict

let name = function
  | Check (Containment.Contained _) -> "contained"
  | Check (Containment.Not_contained _) -> "not_contained"
  | Check (Containment.Unknown _) -> "unknown"
  | Iip (Maxii.Valid _) -> "valid"
  | Iip (Maxii.Invalid _) -> "invalid"
  | Iip (Maxii.Unknown _) -> "unknown"

let iip_of_payload ~n sides = Maxii.general ~n (List.map Corpus.build_side sides)

(* The inequality a certificate must prove: Eq. 8 over the deduplicated
   queries, exactly as [Containment.decide] builds it. *)
let inequality = function
  | Corpus.Check_pair { q1; q2 } -> Containment.eq8 (Query.dedup_atoms q1) (Query.dedup_atoms q2)
  | Corpus.Iip_sides { n; sides } -> iip_of_payload ~n sides

let proves cert payload =
  let ii = inequality payload in
  Certificate.proves cert ~n:(Maxii.n_vars ii) (Maxii.sides ii)

(* [None] when the verdict matches the label and its evidence checks;
   otherwise the reason it failed. *)
let check (inst : Corpus.instance) outcome =
  let got = name outcome in
  if got <> inst.verdict then Some (Printf.sprintf "verdict %s, label %s" got inst.verdict)
  else
    match (inst.payload, outcome) with
    | _, Check (Containment.Contained cert) | _, Iip (Maxii.Valid cert) ->
      if proves cert inst.payload then None else Some "certificate does not prove the inequality"
    | Corpus.Check_pair { q1; q2 }, Check (Containment.Not_contained w) ->
      let h1 = Hom.count q1 w.Containment.db and h2 = Hom.count q2 w.Containment.db in
      if h1 > h2 then None
      else Some (Printf.sprintf "witness: hom(Q1,D) = %d <= hom(Q2,D) = %d" h1 h2)
    | Corpus.Iip_sides { n; sides }, Iip (Maxii.Invalid h) ->
      let negative e = Rat.sign (Polymatroid.eval h e) < 0 in
      if not (Polymatroid.is_normal h) then Some "refuter is not normal"
      else if not (List.for_all negative (Maxii.sides (iip_of_payload ~n sides))) then
        Some "refuter leaves a side non-negative"
      else None
    | _ -> Some ("verdict " ^ got ^ " has no evidence to check")
