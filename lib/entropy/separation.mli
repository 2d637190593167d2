(** Lazy constraint generation + symmetry reduction for the Shannon
    cone — the [--cone-engine lazy] driver behind {!Cones} (DESIGN.md
    §4i).

    Instead of materializing all [n + C(n,2)·2^(n−2)] elemental
    inequalities into every Γn LP, the instance is canonicalized modulo
    variable permutation ({!Symmetry.analyze}) and decided by a
    cutting-plane loop: solve the refutation LP over a small working
    set W of elemental inequalities (monotonicity + two submodularity
    slices), separate over the {e implicit} family
    ({!Elemental.eval_desc} — exact rationals, nothing materialized),
    add the most-violated cut orbit-at-a-time, and re-solve
    warm-starting the float probe ({!Bagcqc_lp.Simplex.solve_float})
    from the previous round's basis.  The float probes bypass the
    solver cache; the exact rounds (and the restricted Farkas LP, when
    it runs) go through {!Bagcqc_engine.Solver.solve_using}, so they hit
    the sharded cache and the persistent store — across restarts {e and}
    across symmetric instances.

    Soundness is engine-independent: "valid" means the refutation LP
    over W ⊇'s cone is infeasible (a cone {e containing} Γn, so the
    verdict transfers), and carries a Farkas certificate over W ⊆
    elemental family that the unchanged exact
    {!Certificate.check} judges.  The certificate is read off the
    infeasible float probe's phase-1 duals ({!certificate_of_duals});
    the restricted Farkas LP is solved only when those do not certify
    or an exact round proved validity, so a valid verdict usually
    persists no Farkas LP.  "refuted" returns a point that passed
    the full separation scan, i.e. satisfies {e every} elemental
    inequality.  The full-materialization driver in {!Cones} stays
    available as the cross-checked oracle. *)

val valid_max_cert :
  n:int -> Linexpr.t list -> (Certificate.t, Polymatroid.t) result
(** Decide [∀h ∈ Γn. 0 ≤ max_ℓ es_ℓ(h)] for a non-empty [es] whose
    variables all lie below [n] (the {!Cones} driver enforces both).
    [Ok cert] proves validity — [cert] passes {!Certificate.check} and
    cites the caller's expressions verbatim; [Error h] is a polymatroid
    with [es_ℓ(h) < 0] for all ℓ. *)

val valid_max_quick : n:int -> Linexpr.t list -> bool
(** Verdict only: runs the separation loop but confirms the valid side
    with an exact solve of the pruned refutation LP instead of
    assembling a certificate. *)

(** {2 Certificates from float duals}

    Exposed for tests: the step that turns a float probe's phase-1 duals
    into a certificate. *)

val multiplier_of_float : float -> Bagcqc_num.Rat.t option
(** The first continued-fraction convergent p/q of a non-negative
    multiplier that lies within [1e-9] of it, provided [q ≤ 2²⁰].  A
    value within [1e-9] of zero gives [Some 0]; NaN, ±inf, a value
    beyond [1e9], a value below [−1e-9], and one with no such
    convergent give [None]. *)

val certificate_of_duals :
  n:int -> Linexpr.t list -> Elemental.desc list -> float array ->
  Certificate.t option
(** [certificate_of_duals ~n es w duals] reads [duals] as the row duals
    of the refutation LP R(W) — rows [Eℓ(h) ≤ −1] for [es] in order,
    then [−a_d(h) ≤ 0] for [w] in order, oriented as
    {!Bagcqc_lp.Simplex.Float_infeasible} reports them — rationalizes
    each negated dual with {!multiplier_of_float}, normalizes the
    target multipliers to sum 1, and expands the exact slack
    ν = Σμ·E − Σλ·a through h(S) ≥ 0's elemental decomposition.
    [Some c] only if every multiplier rationalized, ν ≥ 0, and [c]
    passes {!Certificate.check}. *)
