(* Exact repair of a float-proposed simplex basis (DESIGN.md §4f).

   Given a basis B (as column indices, one per row) proposed by
   {!Fsimplex}, reconstruct in exact rational arithmetic everything the
   verdict depends on — one linear solve per side, no pivoting:

   - the primal basic solution   x_B = B⁻¹ b,
   - the dual multipliers        y   = B⁻ᵀ c_B,

   and accept only if the (x, y) pair verifies the claim exactly:

   {e Optimality} (phase-2 basis): x_B ≥ 0; every basic artificial is 0
   (so x solves the original system, not the phase-1 relaxation); and
   every nonbasic non-artificial column j has reduced cost
   c_j − y·A_j ≥ 0.  Then x is feasible, y proves no descent direction
   exists, and c·x = y·b is the exact optimum.

   {e Infeasibility} (phase-1 basis): y is dual-feasible for the phase-1
   LP over {b all} columns (y·A_j ≤ 1 for artificials, ≤ 0 otherwise)
   and y·b > 0.  Then for any x ≥ 0 over the original columns with
   Ax = b we would get 0 ≥ Σ (y·A_j)x_j = y·b > 0 — a Farkas
   contradiction, so the original system is infeasible.

   Both solves are sparse Gauss–Jordan eliminations that touch only the
   pivot row's nonzero support.  A phase-2 basis with c_B = 0 (every
   feasibility LP) skips the transposed solve and takes y = 0, which is
   B⁻ᵀ·0 whenever B is regular; a singular B is still caught, as
   [singular_basis], by the B·x = b solve.

   Every check is an exact [Rat] comparison; no tolerance anywhere.  Any
   failure — singular basis, negative basic variable, nonzero basic
   artificial, negative reduced cost, non-positive phase-1 dual value —
   is reported as [Rejected reason] and costs the caller one exact solve
   (the fallback), never a wrong answer.  The reason strings are stable
   tags, surfaced as span attributes for the fallback taxonomy. *)

open Bagcqc_num
open Rat.Infix

type verdict =
  | Repaired_optimal of Rat.t * Rat.t array
      (** exact optimal value and structural solution *)
  | Repaired_infeasible
  | Rejected of string  (** stable reason tag, e.g. ["dual_infeasible"] *)

(* Solve the square system [a · x = b] by Gauss–Jordan elimination with
   first-nonzero pivoting, destructively on copies.  Returns [None] when
   [a] is singular.  Exactness makes partial pivoting for stability
   unnecessary; any nonzero pivot is as good as any other.

   Sparse: each pivot row's nonzero columns are gathered once, and the
   other rows are updated over those columns only, so a zero entry costs
   no [Rat] arithmetic (and no allocation).  Columns left of [k] are
   already zero in row [k] — every earlier column was eliminated from
   all rows but its own — so the support is collected from [k] on. *)
let solve_square a b =
  let m = Array.length b in
  let a = Array.init m (fun i -> Array.copy a.(i)) in
  let b = Array.copy b in
  let supp = Array.make m 0 in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       (* Find a row with a nonzero entry in column k. *)
       let piv = ref (-1) in
       (try
          for i = k to m - 1 do
            if not (Rat.is_zero a.(i).(k)) then begin
              piv := i;
              raise Exit
            end
          done
        with Exit -> ());
       if !piv < 0 then begin
         ok := false;
         raise Exit
       end;
       if !piv <> k then begin
         let t = a.(k) in
         a.(k) <- a.(!piv);
         a.(!piv) <- t;
         let t = b.(k) in
         b.(k) <- b.(!piv);
         b.(!piv) <- t
       end;
       let row = a.(k) in
       let inv_p = Rat.inv row.(k) in
       let nnz = ref 0 in
       for j = k to m - 1 do
         if not (Rat.is_zero row.(j)) then begin
           row.(j) <- row.(j) */ inv_p;
           supp.(!nnz) <- j;
           incr nnz
         end
       done;
       let nnz = !nnz in
       let bk = b.(k) */ inv_p in
       b.(k) <- bk;
       let bk_zero = Rat.is_zero bk in
       for i = 0 to m - 1 do
         if i <> k then begin
           let target = a.(i) in
           let f = target.(k) in
           if not (Rat.is_zero f) then begin
             for s = 0 to nnz - 1 do
               let j = supp.(s) in
               target.(j) <- target.(j) -/ (f */ row.(j))
             done;
             if not bk_zero then b.(i) <- b.(i) -/ (f */ bk)
           end
         end
       done
     done
   with Exit -> ());
  if !ok then Some b else None

let dot_col y entries =
  List.fold_left (fun acc (i, v) -> acc +/ (y.(i) */ v)) Rat.zero entries

let repair (p : Lp_layout.problem) (lay : Lp_layout.layout) proposal =
  let { Lp_layout.m; ncols; art_start; rows_data; _ } = lay in
  let num_vars = p.Lp_layout.num_vars in
  match (proposal : Fsimplex.proposal) with
  | Fsimplex.Unbounded_direction -> Rejected "unbounded"
  | Fsimplex.Optimal_basis basis | Fsimplex.Infeasible_basis basis ->
    let phase1 =
      match proposal with Fsimplex.Infeasible_basis _ -> true | _ -> false
    in
    (* Defensive shape check: the basis came from the float world. *)
    let shape_ok =
      Array.length basis = m
      && Array.for_all (fun c -> c >= 0 && c < ncols) basis
      &&
      let seen = Array.make ncols false in
      Array.for_all
        (fun c ->
          if seen.(c) then false
          else begin
            seen.(c) <- true;
            true
          end)
        basis
    in
    if not shape_ok then Rejected "bad_basis"
    else begin
      let cols = Lp_layout.columns lay ~num_vars in
      let cost j =
        if phase1 then if j >= art_start then Rat.one else Rat.zero
        else if j < num_vars then p.Lp_layout.objective.(j)
        else Rat.zero
      in
      let c_b = Array.map cost basis in
      (* A phase-2 basis with c_B = 0 has y = 0 whenever B is regular,
         so the transposed solve is skipped; a singular B is still
         caught by the B·x = b solve below, under the same tag.  Phase 1
         has no such second solve, so it always solves for y. *)
      let y_zero = (not phase1) && Array.for_all Rat.is_zero c_b in
      (* B in row-major: bm.(i).(r) = entry of basis column r in row i. *)
      let bm = Array.init m (fun _ -> Array.make m Rat.zero) in
      Array.iteri
        (fun r c -> List.iter (fun (i, v) -> bm.(i).(r) <- v) cols.(c))
        basis;
      let b_rhs = Array.map (fun (_, _, _, rhs) -> rhs) rows_data in
      let y =
        if y_zero then Some (Array.make m Rat.zero)
        else
          let bt = Array.init m (fun r -> Array.init m (fun i -> bm.(i).(r))) in
          solve_square bt c_b
      in
      match y with
      | None -> Rejected "singular_basis"
      | Some y ->
        let reduced_cost j =
          if y_zero then cost j else cost j -/ dot_col y cols.(j)
        in
        if phase1 then begin
          (* Dual feasibility over every column, basic ones included
             (for those the reduced cost is 0 by construction; checking
             them costs little and catches solve bugs). *)
          let dual_ok = ref true in
          for j = 0 to ncols - 1 do
            if !dual_ok && Rat.sign (reduced_cost j) < 0 then
              dual_ok := false
          done;
          if not !dual_ok then Rejected "dual_infeasible"
          else begin
            let value = ref Rat.zero in
            for i = 0 to m - 1 do
              value := !value +/ (y.(i) */ b_rhs.(i))
            done;
            let value = !value in
            (* y·b is the exact phase-1 dual objective; the Farkas
               argument needs it strictly positive. *)
            if Rat.sign value > 0 then Repaired_infeasible
            else Rejected "not_infeasible"
          end
        end
        else begin
          match solve_square bm b_rhs with
          | None -> Rejected "singular_basis"
          | Some x_b ->
            if Array.exists (fun v -> Rat.sign v < 0) x_b then
              Rejected "infeasible_point"
            else begin
              let art_zero = ref true in
              Array.iteri
                (fun r c ->
                  if c >= art_start && not (Rat.is_zero x_b.(r)) then
                    art_zero := false)
                basis;
              if not !art_zero then Rejected "artificial_nonzero"
              else begin
                let basic = Array.make ncols false in
                Array.iter (fun c -> basic.(c) <- true) basis;
                let dual_ok = ref true in
                for j = 0 to art_start - 1 do
                  if (not basic.(j)) && !dual_ok
                     && Rat.sign (reduced_cost j) < 0
                  then dual_ok := false
                done;
                if not !dual_ok then Rejected "dual_infeasible"
                else begin
                  let value = ref Rat.zero in
                  let x = Array.make num_vars Rat.zero in
                  Array.iteri
                    (fun r c ->
                      value := !value +/ (c_b.(r) */ x_b.(r));
                      if c < num_vars then x.(c) <- x_b.(r))
                    basis;
                  Repaired_optimal (!value, x)
                end
              end
            end
        end
    end
