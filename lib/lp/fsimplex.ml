(* Floating-point two-phase simplex: the "float-first" half of the hybrid
   LP pipeline (DESIGN.md §4f).

   This solver never answers a query by itself.  It runs the same
   two-phase primal simplex as the exact engines — same column layout
   (via {!Lp_layout}), same Dantzig-with-Bland-fallback pricing, same
   minimum-ratio leaving rule with smallest-basis-column tie-break — but
   over machine floats with tolerance-based comparisons, and returns only
   the final {e basis} (an array of column indices).  {!Repair} then
   reconstructs the exact rational solution and dual multipliers for that
   basis and accepts the verdict only if it verifies exactly; anything
   this module gets wrong costs a fallback to the exact engine, never a
   wrong answer.  [propose_point] also hands back the float data of the
   final tableau — the primal point of an optimal basis, or the row
   duals of an infeasible phase 1 — for callers that check whatever
   they build from it exactly.

   Sparsity: the Γn systems this project solves have sparse rows (a
   probe's pivot row has about a dozen nonzeros out of a hundred-odd
   columns), so a pivot gathers the pivot row's support once and
   updates the other rows and the objective over that support only.
   And an Eq/Ge row whose structural part contains a positive singleton
   column starts with that column basic instead of its artificial (the
   restricted Farkas system's ν columns), so phase 1 only drives out
   the artificials no such column covers.

   Total-error discipline: floats fail in ways exact rationals cannot —
   overflow to [infinity] on ingestion of huge rationals, NaN out of
   inf/inf pivots, and cycling that Bland's rule cannot see through
   tolerances.  All three surface as a typed {!Bagcqc_error} with kind
   [Overflow] (never a NaN silently poisoning the pricing loop, which
   would make every comparison false and stall the solve): every
   coefficient is checked finite on ingestion, every entry a pivot (or
   a start-basis scaling) writes is checked finite as it is written —
   so the whole tableau stays finite, eliminated rows included — and a
   pivot-count cap bounds the search. *)

open Bagcqc_num

type proposal =
  | Optimal_basis of int array
  | Infeasible_basis of int array
  | Unbounded_direction

type probe =
  | Probe_optimal of { basis : int array; point : float array }
  | Probe_infeasible of { basis : int array; duals : float array }
  | Probe_unbounded

let where = "Fsimplex.propose"

(* An entering reduced cost must clear [eps_price] to be considered
   negative, a pivot element must clear [eps_pivot] to be usable, and the
   phase-1 objective must exceed [eps_feas] for the float solver to claim
   infeasibility.  The values are conventional simplex tolerances; they
   affect only which basis gets proposed (and hence the fallback rate),
   never the final verdict. *)
let eps_price = 1e-9
let eps_pivot = 1e-9
let eps_feas = 1e-7

let degenerate_limit = 60

exception Numerical of string
exception Infeasible_at of int array * float array

let check_finite_row ~what row =
  let n = Array.length row in
  for j = 0 to n - 1 do
    let v = Array.unsafe_get row j in
    if v -. v <> 0.0 then
      raise (Numerical (Printf.sprintf "non-finite %s entry" what))
  done

(* [v -. v] is 0.0 for every finite [v] and NaN for ±inf and NaN, so one
   subtraction and one comparison check a value as it is written. *)
let[@inline] finite what v =
  if v -. v <> 0.0 then raise (Numerical what);
  v

(* The working tableau: [rows.(i).(ncols)] is row [i]'s right-hand side,
   [basis.(i)] its basic column, and [supp] scratch space for the pivot
   row's support (at most [ncols + 1] indices). *)
type tableau = {
  rows : float array array;
  basis : int array;
  ncols : int;
  supp : int array;
}

(* Gaussian pivot on (r, c) that touches only the pivot row's support:
   the row is scanned once, scaled, and its nonzero columns gathered;
   every other row and the objective are then updated over those
   columns alone.  Skipping a zero column j leaves target.(j) as it was,
   which is exactly what the dense update x − f·0 = x writes, so the
   pivot sequence is the dense one.  Every entry the pivot writes is
   checked finite as it is written, which with the ingestion checks
   keeps the whole tableau finite. *)
let pivot t obj r c =
  Lp_layout.note_pivot ();
  let row = t.rows.(r) and supp = t.supp in
  let inv_p = 1.0 /. row.(c) in
  let nnz = ref 0 in
  for j = 0 to t.ncols do
    let v = Array.unsafe_get row j in
    if v <> 0.0 then begin
      Array.unsafe_set row j (finite "non-finite pivot-row entry" (v *. inv_p));
      Array.unsafe_set supp !nnz j;
      incr nnz
    end
  done;
  let nnz = !nnz in
  let eliminate target =
    let f = target.(c) in
    if f <> 0.0 then begin
      for k = 0 to nnz - 1 do
        let j = Array.unsafe_get supp k in
        Array.unsafe_set target j
          (finite "non-finite eliminated entry"
             (Array.unsafe_get target j -. (f *. Array.unsafe_get row j)))
      done;
      (* Clamp the pivot column exactly: the algebraic value is 0, and
         leaving the rounding residue in place would let later ratio
         tests divide by it. *)
      target.(c) <- 0.0
    end
  in
  let rows = t.rows in
  for i = 0 to Array.length rows - 1 do
    if i <> r then eliminate (Array.unsafe_get rows i)
  done;
  eliminate obj;
  row.(c) <- 1.0;
  t.basis.(r) <- c

let run_phase t obj ~allowed ~budget =
  let { rows; basis; ncols; _ } = t in
  let m = Array.length rows in
  let bland = ref false in
  let degenerate_run = ref 0 in
  let rec iterate () =
    if !budget <= 0 then raise (Numerical "pivot budget exhausted");
    let entering = ref (-1) in
    if !bland then begin
      (try
         for j = 0 to ncols - 1 do
           if allowed j && obj.(j) < -.eps_price then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ())
    end
    else begin
      let best = ref (-.eps_price) in
      for j = 0 to ncols - 1 do
        if allowed j && obj.(j) < !best then begin
          best := obj.(j);
          entering := j
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let c = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref 0.0 in
      for i = 0 to m - 1 do
        let a = rows.(i).(c) in
        if a > eps_pivot then begin
          let ratio = rows.(i).(ncols) /. a in
          if !best_row < 0
             || ratio < !best_ratio
             || (ratio = !best_ratio && basis.(i) < basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        if !best_ratio <= eps_pivot then begin
          incr degenerate_run;
          if !degenerate_run > degenerate_limit then bland := true
        end
        else degenerate_run := 0;
        decr budget;
        pivot t obj !best_row c;
        iterate ()
      end
    end
  in
  iterate ()

(* Warm-start crash: before phase 1, try to pivot each remembered basis
   column into the basis with a {e guided} primal pivot — entering
   column fixed, leaving row by the usual minimum-ratio rule.  Min-ratio
   preserves the phase-1 invariant (all right-hand sides ≥ 0), so this
   only relocates the starting vertex closer to the previous optimum;
   arbitrary crash pivoting would break phase-1 feasibility.  Columns
   with no usable pivot element are skipped, and every crash pivot draws
   on the same budget as the solve proper, so a useless hint degrades
   into at worst a slightly shorter search, never a hang. *)
let crash_warm t ~art_start ~budget warm =
  let { rows; basis; ncols; _ } = t in
  let m = Array.length rows in
  let scratch_obj = Array.make (ncols + 1) 0.0 in
  let in_basis = Array.make (ncols + 1) false in
  Array.iter (fun c -> if c >= 0 && c <= ncols then in_basis.(c) <- true) basis;
  Array.iter
    (fun c ->
      if c >= 0 && c < art_start && not in_basis.(c) && !budget > 1 then begin
        let best_row = ref (-1) and best_ratio = ref 0.0 in
        for i = 0 to m - 1 do
          let a = rows.(i).(c) in
          if a > eps_pivot then begin
            let ratio = rows.(i).(ncols) /. a in
            if !best_row < 0 || ratio < !best_ratio
               || (ratio = !best_ratio
                   (* Prefer evicting an artificial over a structural/
                      slack column the hint may still want basic. *)
                   && basis.(i) >= art_start && basis.(!best_row) < art_start)
            then begin
              best_row := i;
              best_ratio := ratio
            end
          end
        done;
        if !best_row >= 0 then begin
          decr budget;
          in_basis.(basis.(!best_row)) <- false;
          in_basis.(c) <- true;
          pivot t scratch_obj !best_row c
        end
      end)
    warm

(* Row duals of an infeasible phase 1, read off its final objective row.
   Phase 1 prices the artificials at 1 and everything else at 0, so a
   column's reduced cost is d = c − yᵀA: a Le row's slack (+eᵢ) gives
   yᵢ = −d, a Ge row's surplus (−eᵢ) gives yᵢ = d, and an Eq row's
   artificial (+eᵢ, cost 1) gives yᵢ = 1 − d.  A singleton start scales
   its row by 1/a together with that row's slack and artificial entries,
   so the same readings come out in the unscaled row's units.  Rows the
   layout flipped to a non-negative right-hand side get their sign back,
   so the duals speak of the constraints as the caller wrote them. *)
let phase1_duals (p : Lp_layout.problem) (lay : Lp_layout.layout) obj dual_col =
  let flipped =
    Array.of_list
      (List.map (fun c -> Rat.sign c.Lp_layout.rhs < 0) p.Lp_layout.constraints)
  in
  Array.mapi
    (fun i (_, _, op, _) ->
      let d = obj.(dual_col.(i)) in
      let y =
        match op with
        | Lp_layout.Le -> -.d
        | Lp_layout.Ge -> d
        | Lp_layout.Eq -> 1.0 -. d
      in
      if flipped.(i) then -.y else y)
    lay.Lp_layout.rows_data

let propose_point ?warm p (lay : Lp_layout.layout) =
  Bagcqc_error.protect @@ fun () ->
  let { Lp_layout.m; ncols; art_start; rows_data; _ } = lay in
  try
    let rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
    let basis = Array.make m (-1) in
    let t = { rows; basis; ncols; supp = Array.make (ncols + 1) 0 } in
    let ingest v = finite "non-finite ingested entry" (Rat.to_float v) in
    (* Singleton start: a Ge/Eq row that would start on its artificial
       starts instead on a structural column whose only nonzero in the
       whole matrix is a usable positive entry in that row, with the row
       scaled so the entry is 1.  Every other row has a 0 there, so the
       start tableau is still the identity on the basis, and the basic
       value rhs/a is non-negative, so phase 1 starts feasible with one
       artificial fewer to drive out.  The artificial stays in the
       layout, nonbasic.  {!Repair} re-verifies whatever basis comes
       out, so this changes the search, never a verdict. *)
    let col_nnz = Array.make p.Lp_layout.num_vars 0 in
    Array.iter
      (fun (cols, _, _, _) ->
        Array.iter (fun j -> col_nnz.(j) <- col_nnz.(j) + 1) cols)
      rows_data;
    let singleton_start i cols =
      let row = rows.(i) in
      let usable j = col_nnz.(j) = 1 && row.(j) > eps_pivot in
      match Array.find_opt usable cols with
      | None -> ()
      | Some j ->
        let inv_a = 1.0 /. row.(j) in
        for k = 0 to ncols do
          let v = row.(k) in
          if v <> 0.0 then
            row.(k) <- finite "non-finite scaled entry" (v *. inv_a)
        done;
        row.(j) <- 1.0;
        basis.(i) <- j
    in
    let next_slack = ref p.Lp_layout.num_vars and next_art = ref art_start in
    (* Each row's slack/surplus column (Le/Ge) or artificial column (Eq):
       where its phase-1 dual is read off the objective row. *)
    let dual_col = Array.make m (-1) in
    Array.iteri
      (fun i (cols, vals, op, rhs) ->
        Array.iteri (fun k j -> rows.(i).(j) <- ingest vals.(k)) cols;
        rows.(i).(ncols) <- ingest rhs;
        (match op with
         | Lp_layout.Le ->
           rows.(i).(!next_slack) <- 1.0;
           basis.(i) <- !next_slack;
           dual_col.(i) <- !next_slack;
           incr next_slack
         | Lp_layout.Ge ->
           rows.(i).(!next_slack) <- -1.0;
           dual_col.(i) <- !next_slack;
           incr next_slack;
           rows.(i).(!next_art) <- 1.0;
           basis.(i) <- !next_art;
           incr next_art
         | Lp_layout.Eq ->
           rows.(i).(!next_art) <- 1.0;
           basis.(i) <- !next_art;
           dual_col.(i) <- !next_art;
           incr next_art);
        if basis.(i) >= art_start then singleton_start i cols)
      rows_data;
    (* Pivot cap: generous for any LP this project builds (the exact
       engines finish these in far fewer), tight enough that tolerance-
       blinded cycling degrades into a fallback instead of a hang. *)
    let budget = ref (200 + (50 * (m + ncols))) in
    Option.iter (crash_warm t ~art_start ~budget) warm;
    (* Phase 1: minimize the sum of the basic artificials. *)
    if Array.exists (fun c -> c >= art_start) basis then begin
      let obj = Array.make (ncols + 1) 0.0 in
      for j = art_start to ncols - 1 do
        obj.(j) <- 1.0
      done;
      Array.iteri
        (fun i c ->
          if c >= art_start then
            for j = 0 to ncols do
              obj.(j) <- obj.(j) -. rows.(i).(j)
            done)
        basis;
      check_finite_row ~what:"objective" obj;
      (match run_phase t obj ~allowed:(fun _ -> true) ~budget with
       | `Unbounded -> raise (Numerical "phase-1 objective looked unbounded")
       | `Optimal -> ());
      (* obj.(ncols) holds -(phase-1 value). *)
      if -.obj.(ncols) > eps_feas then
        raise (Infeasible_at (Array.copy basis, phase1_duals p lay obj dual_col));
      (* Drive remaining artificials out of the basis where the pivot
         element is numerically usable; rows where it is not are either
         redundant or will be caught by the repair step. *)
      Array.iteri
        (fun r c ->
          if c >= art_start then begin
            let found = ref (-1) in
            (try
               for j = 0 to art_start - 1 do
                 if Float.abs rows.(r).(j) > eps_pivot then begin
                   found := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found >= 0 then begin
              decr budget;
              if !budget <= 0 then raise (Numerical "pivot budget exhausted");
              pivot t obj r !found
            end
          end)
        basis
    end;
    (* Phase 2: the real objective. *)
    let obj = Array.make (ncols + 1) 0.0 in
    Array.iteri (fun j c -> obj.(j) <- Rat.to_float c) p.Lp_layout.objective;
    check_finite_row ~what:"objective" obj;
    Array.iteri
      (fun i c ->
        if c < ncols && obj.(c) <> 0.0 then begin
          let f = obj.(c) in
          for j = 0 to ncols do
            obj.(j) <- obj.(j) -. (f *. rows.(i).(j))
          done
        end)
      basis;
    check_finite_row ~what:"objective" obj;
    let allowed j = j < art_start in
    match run_phase t obj ~allowed ~budget with
    | `Unbounded -> Probe_unbounded
    | `Optimal ->
      (* The float primal point of the final basis: each basic structural
         column reads its row's right-hand side, every nonbasic variable
         is 0.  Heuristic data for cutting-plane separation — verdicts
         still come only from exact repair of the proposed basis. *)
      let point = Array.make p.Lp_layout.num_vars 0.0 in
      Array.iteri
        (fun i c ->
          if c >= 0 && c < p.Lp_layout.num_vars then point.(c) <- rows.(i).(ncols))
        basis;
      Probe_optimal { basis = Array.copy basis; point }
  with
  | Numerical msg -> Bagcqc_error.overflow ~where msg
  | Infeasible_at (basis, duals) -> Probe_infeasible { basis; duals }

let propose ?warm p lay =
  Result.map
    (function
      | Probe_optimal { basis; _ } -> Optimal_basis basis
      | Probe_infeasible { basis; _ } -> Infeasible_basis basis
      | Probe_unbounded -> Unbounded_direction)
    (propose_point ?warm p lay)
