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

val propose_point :
  ?warm:int array ->
  Lp_layout.problem -> Lp_layout.layout ->
  (proposal * float array option, Bagcqc_num.Bagcqc_error.t) result
(** {!propose} that additionally returns, for [Optimal_basis], the float
    primal values of the structural variables at the proposed vertex
    ([None] otherwise).  The point is {e heuristic} data — a
    cutting-plane loop reads it to pick the next cuts without paying for
    an exact repair — and never a verdict: tolerances make it at best an
    approximately feasible, approximately optimal point. *)
