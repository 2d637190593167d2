(** Floating-point simplex proposing a basis for exact repair.

    The "float" half of the hybrid LP pipeline (DESIGN.md §4f): runs the
    same two-phase primal simplex as the exact engines — same
    {!Lp_layout} column layout, same pricing and ratio rules — over
    machine floats with tolerance-based comparisons, and returns only a
    {e basis proposal}.  {!Repair} reconstructs the exact rational
    solution for that basis and verifies it; this module therefore
    affects performance and the fallback rate, never correctness.

    Pivots touch only the pivot row's nonzero support, and an [Eq]/[Ge]
    row with a positive singleton structural column starts with that
    column basic instead of its artificial. *)

type proposal =
  | Optimal_basis of int array
      (** Phase-2 terminated optimal; [basis.(r)] is the column basic in
          row [r] of the proposed optimal basis. *)
  | Infeasible_basis of int array
      (** Phase-1 terminated with a clearly positive artificial sum; the
          phase-1 basis supports an exact dual infeasibility proof. *)
  | Unbounded_direction
      (** Phase 2 found no blocking row.  Unboundedness is not repaired
          (there is no finite basis to certify); callers fall back to the
          exact engine. *)

val propose :
  ?warm:int array ->
  Lp_layout.problem -> Lp_layout.layout -> (proposal, Bagcqc_num.Bagcqc_error.t) result
(** [propose p (Lp_layout.layout_of p)] runs the float simplex.

    [?warm] is a basis (column indices) from a previous solve of a
    related problem under the {e same column layout} (e.g. the previous
    round of a cutting-plane loop, whose old rows kept their structural
    and slack columns).  Before phase 1 each warm column is crashed into
    the basis by a guided minimum-ratio pivot, which preserves phase-1
    feasibility; unusable hints are skipped.  Warm-starting affects only
    how many pivots the search needs — never which verdict is proposed,
    and {!Repair} re-verifies whatever basis comes out.

    Returns [Error] with kind [Overflow] — never a silent NaN/inf
    propagated into pricing — when float arithmetic fails: a coefficient
    of [p] overflows to infinity on lowering ([Rat.to_float] of a huge
    rational), a pivot produces a non-finite tableau entry, or the pivot
    budget is exhausted (tolerance-masked cycling).  Callers treat any
    [Error] as "fall back to the exact engine". *)

type probe =
  | Probe_optimal of { basis : int array; point : float array }
      (** Phase 2 ended optimal: the proposed basis, and the float primal
          values of the structural variables at its vertex. *)
  | Probe_infeasible of { basis : int array; duals : float array }
      (** Phase 1 ended with a clearly positive artificial sum: the
          phase-1 basis, and one float dual per constraint, in the order
          and orientation the caller wrote them.  Up to tolerance,
          [duals.(i) ≤ 0] on [Le] rows and [≥ 0] on [Ge] rows,
          [Σᵢ duals.(i)·aᵢ ≤ 0] on every structural column and
          [Σᵢ duals.(i)·bᵢ > 0] — a Farkas proof that the rows are
          infeasible over [x ≥ 0]. *)
  | Probe_unbounded  (** Phase 2 found no blocking row. *)

val propose_point :
  ?warm:int array ->
  Lp_layout.problem -> Lp_layout.layout ->
  (probe, Bagcqc_num.Bagcqc_error.t) result
(** {!propose} with the float data of its final tableau: the primal
    point of an optimal basis, or the row duals of an infeasible phase
    1.  Both are {e heuristic} data and never a verdict — tolerances
    make them at best approximately feasible.  A cutting-plane loop
    reads the point to pick its next cuts, and rationalizes the duals
    into a Farkas certificate that an exact checker then judges. *)
