(* A decision's prepared input and the untraced call that decides it. *)

open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
open Bagcqc_check

type input = Pair of Query.t * Query.t | Ineq of Maxii.t

let of_payload = function
  | Corpus.Check_pair { q1; q2 } -> Pair (q1, q2)
  | Corpus.Iip_sides { n; sides } -> Ineq (Recheck.iip_of_payload ~n sides)

let run = function
  | Pair (q1, q2) -> Recheck.Check (Containment.decide q1 q2)
  | Ineq ii -> Recheck.Iip (Maxii.decide ii)
