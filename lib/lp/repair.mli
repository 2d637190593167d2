(** Exact repair of a float-proposed simplex basis.

    The "exact" half of the hybrid LP pipeline (DESIGN.md §4f): given a
    basis proposed by {!Fsimplex}, reconstruct the exact rational basic
    solution [x_B = B⁻¹b] and dual multipliers [y = B⁻ᵀc_B] (one sparse
    Gauss–Jordan solve each, no pivoting search; a phase-2 basis with
    [c_B = 0] takes [y = 0] without a solve) and accept the proposed
    verdict only if it verifies in exact arithmetic:

    - an optimal basis must have [x_B ≥ 0], every basic artificial at 0,
      and all nonbasic reduced costs [c_j − y·A_j ≥ 0] — then the value
      and point returned are the exact optimum, with [y] the optimality
      proof;
    - an infeasible (phase-1) basis must yield a [y] that is
      dual-feasible for the phase-1 LP over every column with [y·b > 0]
      — an exact Farkas certificate of infeasibility.

    No tolerances: every comparison is on [Rat].  A rejected repair
    costs the caller one exact fallback solve, never a wrong answer. *)

open Bagcqc_num

type verdict =
  | Repaired_optimal of Rat.t * Rat.t array
      (** exact optimal value and structural solution, interchangeable
          with an exact engine's [Optimal] *)
  | Repaired_infeasible
  | Rejected of string
      (** stable reason tag for the fallback taxonomy: ["unbounded"],
          ["bad_basis"], ["singular_basis"], ["infeasible_point"],
          ["artificial_nonzero"], ["dual_infeasible"],
          ["not_infeasible"] *)

val repair :
  Lp_layout.problem -> Lp_layout.layout -> Fsimplex.proposal -> verdict
(** [repair p (Lp_layout.layout_of p) proposal] — the layout must be the
    one the proposal's basis indices refer to. *)
