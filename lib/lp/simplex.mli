(** Exact linear programming over rationals.

    Two-phase primal simplex with Bland's anti-cycling fallback, computing
    over {!Bagcqc_num.Rat} so every answer is exact — the decidability
    results of the paper (Theorem 3.1, Theorem 3.6) reduce validity of
    (max-)information inequalities to LPs over the polyhedral cones Γn,
    Nn, Mn, and a floating-point solver could misclassify inequalities
    that hold with slack 0 (most interesting ones do).

    Two interchangeable engines are provided.  {!Sparse} (the default)
    ingests constraints as [(column, coefficient)] pairs, pivots only over
    the nonzero columns of the pivot row, and finds entering columns by
    block partial pricing — built for the entropic LPs of this project,
    whose elemental rows have at most 4 nonzeros.  {!Dense} is the
    original straightforward tableau implementation, kept as a reference
    oracle; the test suite checks the two agree on randomized problems.

    All variables are implicitly constrained to be non-negative; callers
    model free variables by splitting into differences (none of the cones
    used in this project need that). *)

open Bagcqc_num

type op = Le | Ge | Eq

type constr
(** One linear constraint [row · x op rhs].  Stored sparsely regardless of
    how it was built. *)

type problem = {
  num_vars : int;
  (** Objective to {b minimize}. *)
  objective : Rat.t array;
  constraints : constr list;
}

type outcome =
  | Optimal of Rat.t * Rat.t array  (** optimal value and a primal solution *)
  | Unbounded
  | Infeasible

val constr : Rat.t array -> op -> Rat.t -> constr
(** Dense row of length [num_vars]; zero coefficients are dropped on
    ingestion. *)

val sparse_constr : (int * Rat.t) list -> op -> Rat.t -> constr
(** Sparse row as [(column, coefficient)] pairs in any order; columns not
    mentioned are zero.
    @raise Invalid_argument on a negative or duplicated column. *)

type engine = Dense | Sparse

val default_engine : engine ref
(** Engine used when {!solve}, {!feasible} or {!maximize} is called without
    an explicit [?engine].  Defaults to [Sparse].

    {b Mutation discipline (test/bench only).}  This global exists solely
    so the benchmark harness and the dense/sparse agreement tests can run
    the same call tree under both engines.  Library code must never write
    to it: a library caller that flips the engine mid-pipeline silently
    changes the behaviour of every other caller in the process
    (action-at-a-distance).  Production callers that need a specific
    engine pass [?engine] explicitly; anything that does flip this ref
    must restore the previous value with [Fun.protect]. *)

type mode = Exact | Float_first

val mode_name : mode -> string
(** ["exact"] / ["float_first"] — the spellings accepted by
    {!mode_of_string}, [BAGCQC_LP] and the [--lp-engine] CLI flag. *)

val mode_of_string : string -> mode option

val default_mode : mode ref
(** Solving strategy used when {!solve}, {!feasible} or {!maximize} is
    called without an explicit [?mode].  Initialized from the
    [BAGCQC_LP] environment variable ([exact] or [float_first]; an
    invalid value is reported on stderr and ignored); defaults to
    [Float_first].

    [Exact] runs today's exact simplex unchanged.  [Float_first] runs
    the hybrid pipeline (DESIGN.md §4f): {!Fsimplex} proposes a basis in
    machine floats, {!Repair} reconstructs the exact rational solution
    and dual multipliers for that basis and verifies them exactly, and
    any failure falls back to the exact engine — so both modes return
    exact, certified outcomes; [Float_first] only changes which (equally
    optimal) vertex may be reported and how fast the answer arrives.

    Same mutation discipline as {!default_engine}: the CLI entry points
    and the test/bench harnesses may set it once at startup or around a
    measured region ([Fun.protect]); library code must pass [?mode]
    instead of writing here. *)

val solve : ?engine:engine -> ?mode:mode -> problem -> outcome
(** Solves with [engine] (default [!default_engine]) under [mode]
    (default [!default_mode]).
    @raise Invalid_argument if a dense row length differs from [num_vars]
    or a sparse row mentions a column [>= num_vars]. *)

val solve_warm :
  ?engine:engine -> ?mode:mode -> ?warm:int array -> problem ->
  outcome * int array option
(** {!solve} extended for cutting-plane loops: [?warm] is the basis
    returned by a previous [solve_warm] on a related problem sharing
    the column layout of its common rows (see {!Fsimplex.propose}), and
    the returned basis is the one the hybrid pipeline accepted after
    exact repair ([None] on an exact-engine fallback).  Under [Exact]
    mode the hint is ignored and no basis is returned — the exact
    engines expose none; verdicts are identical to {!solve} in both
    modes. *)

type float_outcome =
  | Float_optimal of float array * int array
      (** Float primal values of the structural variables at the proposed
          vertex, and the basis (feed it back as [?warm]). *)
  | Float_infeasible of { basis : int array; duals : float array }
      (** Phase 1 saw a clearly positive artificial sum.  The basis is
          returned for warm reuse; [duals] are the phase-1 row duals, one
          per constraint in the caller's order and orientation (see
          {!Fsimplex.probe}) — float Farkas multipliers that a caller
          may rationalize into a certificate it then checks exactly. *)
  | Float_unknown  (** Unbounded direction or numerical failure. *)

val solve_float : ?warm:int array -> problem -> float_outcome
(** The floating-point half of the hybrid pipeline alone — no exact
    repair, no fallback, {e never a verdict}.  A cutting-plane loop runs
    its intermediate rounds on this: the returned point only steers
    which cuts are added next, so tolerance noise costs extra rounds,
    never soundness; the loop's terminal rounds must re-derive their
    verdicts exactly ({!solve} / a Farkas certificate).  Ignores
    [!default_mode] by design — callers opt into float arithmetic
    explicitly and locally. *)

val solve_with : engine -> problem -> outcome
(** [solve_with e p = solve ~engine:e ~mode:Exact p]: always the exact
    engine, bypassing [!default_mode] — kept for the cross-check tests,
    where [e] is the oracle under test. *)

val solve_result :
  ?engine:engine -> ?mode:mode -> problem -> (outcome, Bagcqc_error.t) result
(** {!solve} with internal invariant violations (a pivoting bug making a
    bounded phase-1 objective look unbounded, …) reified as a typed
    [Error] instead of an exception.  Caller-precondition violations
    still raise [Invalid_argument]. *)

val feasible :
  ?engine:engine -> ?mode:mode -> num_vars:int -> constr list -> Rat.t array option
(** [feasible ~num_vars cs] is a point of the polyhedron
    [{x >= 0 | cs}] if one exists. *)

val maximize : ?engine:engine -> ?mode:mode -> problem -> outcome
(** Same problem record, but the objective is maximized.  The reported
    optimal value is the maximum. *)

val pivot_count : unit -> int
(** Monotonically increasing count of Gaussian pivots performed by either
    engine {e on the calling domain} since that domain started.
    Instrumentation reads deltas around a solve; the odometer is
    per-domain ([Domain.DLS]) and never reset, so a delta window is never
    polluted by another domain's pivots. *)
