(* Tests for the exact simplex solver. *)

open Bagcqc_num
open Bagcqc_lp

let q = Rat.of_int
let qa l = Array.of_list (List.map q l)
let qf a b = Rat.of_ints a b

let rt = Alcotest.testable Rat.pp Rat.equal

let check_optimal msg expected = function
  | Simplex.Optimal (v, _) -> Alcotest.check rt msg expected v
  | Simplex.Unbounded -> Alcotest.failf "%s: unexpected Unbounded" msg
  | Simplex.Infeasible -> Alcotest.failf "%s: unexpected Infeasible" msg

let test_basic_min () =
  (* min x + y  s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
     Optimum at intersection: x = 8/5, y = 6/5, value = 14/5. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1; 1];
      constraints =
        [ constr (qa [1; 2]) Ge (q 4);
          constr (qa [3; 1]) Ge (q 6) ];
    }
  in
  check_optimal "min value" (qf 14 5) (Simplex.solve p);
  (match Simplex.solve p with
   | Simplex.Optimal (_, x) ->
     Alcotest.check rt "x" (qf 8 5) x.(0);
     Alcotest.check rt "y" (qf 6 5) x.(1)
   | _ -> Alcotest.fail "expected optimal")

let test_basic_max () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: classic, opt 36. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [3; 5];
      constraints =
        [ constr (qa [1; 0]) Le (q 4);
          constr (qa [0; 2]) Le (q 12);
          constr (qa [3; 2]) Le (q 18) ];
    }
  in
  check_optimal "max value" (q 36) (Simplex.maximize p)

let test_infeasible () =
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [1];
      constraints =
        [ constr (qa [1]) Ge (q 3);
          constr (qa [1]) Le (q 2) ];
    }
  in
  (match Simplex.solve p with
   | Simplex.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  (* min -x s.t. x >= 1: unbounded below. *)
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [-1];
      constraints = [ constr (qa [1]) Ge (q 1) ];
    }
  in
  (match Simplex.solve p with
   | Simplex.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

let test_equality () =
  (* min x + 2y s.t. x + y = 10, x - y = 2  =>  x = 6, y = 4, value 14. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1; 2];
      constraints =
        [ constr (qa [1; 1]) Eq (q 10);
          constr (qa [1; -1]) Eq (q 2) ];
    }
  in
  (match Simplex.solve p with
   | Simplex.Optimal (v, x) ->
     Alcotest.check rt "value" (q 14) v;
     Alcotest.check rt "x" (q 6) x.(0);
     Alcotest.check rt "y" (q 4) x.(1)
   | _ -> Alcotest.fail "expected optimal")

let test_degenerate_cycling () =
  (* Beale's classic cycling example: Dantzig's rule cycles on it; Bland's
     rule must terminate.  min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 s.t. ... *)
  let p =
    Simplex.{
      num_vars = 4;
      objective = [| qf (-3) 4; q 150; qf (-1) 50; q 6 |];
      constraints =
        [ constr [| qf 1 4; q (-60); qf (-1) 25; q 9 |] Le Rat.zero;
          constr [| qf 1 2; q (-90); qf (-1) 50; q 3 |] Le Rat.zero;
          constr [| Rat.zero; Rat.zero; Rat.one; Rat.zero |] Le Rat.one ];
    }
  in
  check_optimal "beale optimum" (qf (-1) 20) (Simplex.solve p)

let test_negative_rhs () =
  (* Constraint given with negative rhs must be normalized correctly:
     -x <= -3  <=>  x >= 3. *)
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [1];
      constraints = [ constr (qa [-1]) Le (q (-3)) ];
    }
  in
  check_optimal "value" (q 3) (Simplex.solve p)

let test_zero_objective_feasibility () =
  (match Simplex.feasible ~num_vars:2
           [ Simplex.constr (qa [1; 1]) Simplex.Ge (q 2);
             Simplex.constr (qa [1; -1]) Simplex.Eq (q 0) ]
   with
   | Some x ->
     Alcotest.check rt "x = y" x.(0) x.(1);
     Alcotest.(check bool) "x + y >= 2" true
       Rat.(compare (add x.(0) x.(1)) (q 2) >= 0)
   | None -> Alcotest.fail "expected feasible");
  (match Simplex.feasible ~num_vars:1
           [ Simplex.constr (qa [1]) Simplex.Le (q (-1)) ]
   with
   | None -> ()
   | Some _ -> Alcotest.fail "expected infeasible (x >= 0 and x <= -1)")

let test_redundant_equalities () =
  (* Duplicate equality rows leave a zero artificial in the basis; the
     solver must cope. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1; 1];
      constraints =
        [ constr (qa [1; 1]) Eq (q 4);
          constr (qa [2; 2]) Eq (q 8);
          constr (qa [1; 0]) Ge (q 1) ];
    }
  in
  check_optimal "value" (q 4) (Simplex.solve p)

let test_dimension_mismatch () =
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1];
      constraints = [];
    }
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Simplex.solve: objective length mismatch")
    (fun () -> ignore (Simplex.solve p))

(* Property: on random bounded LPs, the reported solution is feasible and
   attains the reported value; and it is no worse than a sample of random
   feasible points obtained by rounding. *)
let prop_solution_feasible =
  let gen =
    QCheck.Gen.(
      let* nv = int_range 1 4 in
      let* nc = int_range 1 5 in
      let* obj = list_repeat nv (int_range 0 9) in
      let* rows = list_repeat nc (list_repeat nv (int_range 0 5)) in
      let* rhss = list_repeat nc (int_range 1 20) in
      return (nv, obj, rows, rhss))
  in
  let print (nv, obj, rows, rhss) =
    Printf.sprintf "nv=%d obj=[%s] rows=%s rhs=[%s]" nv
      (String.concat ";" (List.map string_of_int obj))
      (String.concat "|"
         (List.map (fun r -> String.concat ";" (List.map string_of_int r)) rows))
      (String.concat ";" (List.map string_of_int rhss))
  in
  QCheck.Test.make ~name:"simplex solution is feasible and attains value" ~count:200
    (QCheck.make ~print gen)
    (fun (nv, obj, rows, rhss) ->
      (* min (non-negative objective) s.t. row·x >= rhs: feasible (large x)
         and bounded (objective >= 0 on x >= 0) unless some row is all
         zeros with positive rhs — then infeasible, also fine. *)
      let constraints =
        List.map2
          (fun row rhs -> Simplex.constr (qa row) Simplex.Ge (q rhs))
          rows rhss
      in
      let p = Simplex.{ num_vars = nv; objective = qa obj; constraints } in
      match Simplex.solve p with
      | Simplex.Unbounded -> false
      | Simplex.Infeasible ->
        (* Only possible when some all-zero row has rhs > 0. *)
        List.exists (fun row -> List.for_all (( = ) 0) row) rows
      | Simplex.Optimal (v, x) ->
        let dot r = Array.fold_left Rat.add Rat.zero (Array.mapi (fun i c -> Rat.mul c x.(i)) r) in
        let feas =
          List.for_all2
            (fun row rhs -> Rat.compare (dot (qa row)) (q rhs) >= 0)
            rows rhss
          && Array.for_all (fun xi -> Rat.sign xi >= 0) x
        in
        feas && Rat.equal v (dot (qa obj)))

(* Property: the sparse engine is a drop-in replacement for the dense
   reference implementation — same verdict and same optimal value on random
   LPs mixing Le/Ge/Eq rows with signed coefficients and right-hand sides
   (the mix produces feasible, infeasible, unbounded, and degenerate
   instances; optimal *points* may legitimately differ when the optimum
   face is not a vertex, so only values are compared). *)
let outcomes_agree a b =
  match a, b with
  | Simplex.Optimal (va, _), Simplex.Optimal (vb, _) -> Rat.equal va vb
  | Simplex.Unbounded, Simplex.Unbounded -> true
  | Simplex.Infeasible, Simplex.Infeasible -> true
  | _ -> false

let random_problem st =
  let rand_rat () =
    Rat.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4)
  in
  let nv = 1 + Random.State.int st 4 in
  let nc = 1 + Random.State.int st 6 in
  let constraints =
    List.init nc (fun _ ->
        let row = Array.init nv (fun _ -> rand_rat ()) in
        let op =
          match Random.State.int st 3 with
          | 0 -> Simplex.Le
          | 1 -> Simplex.Ge
          | _ -> Simplex.Eq
        in
        Simplex.constr row op (rand_rat ()))
  in
  Simplex.{ num_vars = nv;
            objective = Array.init nv (fun _ -> rand_rat ());
            constraints }

let prop_engines_agree =
  QCheck.Test.make ~name:"sparse and dense engines agree" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = random_problem (Random.State.make [| seed |]) in
      outcomes_agree
        (Simplex.solve_with Simplex.Dense p)
        (Simplex.solve_with Simplex.Sparse p))

(* Same LP given densely and as reversed (column, coefficient) pairs must
   solve identically under either engine. *)
let prop_sparse_ingestion =
  QCheck.Test.make ~name:"sparse_constr matches constr" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 17 |] in
      let rand_rat () =
        Rat.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4)
      in
      let nv = 1 + Random.State.int st 4 in
      let nc = 1 + Random.State.int st 6 in
      let dense_rows, sparse_rows =
        List.split
          (List.init nc (fun _ ->
               let row = Array.init nv (fun _ -> rand_rat ()) in
               let op =
                 match Random.State.int st 3 with
                 | 0 -> Simplex.Le
                 | 1 -> Simplex.Ge
                 | _ -> Simplex.Eq
               in
               let rhs = rand_rat () in
               let pairs =
                 (* Reversed order: ingestion must not care about order. *)
                 List.rev (Array.to_list (Array.mapi (fun i c -> (i, c)) row))
               in
               (Simplex.constr row op rhs, Simplex.sparse_constr pairs op rhs)))
      in
      let objective = Array.init nv (fun _ -> rand_rat ()) in
      let pd = Simplex.{ num_vars = nv; objective; constraints = dense_rows } in
      let ps = Simplex.{ num_vars = nv; objective; constraints = sparse_rows } in
      outcomes_agree (Simplex.solve pd) (Simplex.solve ps)
      && outcomes_agree
           (Simplex.solve_with Simplex.Dense pd)
           (Simplex.solve_with Simplex.Sparse ps))

let test_sparse_constr_validation () =
  Alcotest.check_raises "negative column"
    (Invalid_argument "Simplex.sparse_constr: negative column")
    (fun () -> ignore (Simplex.sparse_constr [ (-1, q 1) ] Simplex.Le (q 0)));
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Simplex.sparse_constr: duplicate column")
    (fun () ->
      ignore (Simplex.sparse_constr [ (0, q 1); (0, q 2) ] Simplex.Le (q 0)))

(* ---------------- hybrid (float-first) engine ---------------- *)

let test_mode_selector () =
  Alcotest.(check string) "exact name" "exact" (Simplex.mode_name Simplex.Exact);
  Alcotest.(check string) "float_first name" "float_first"
    (Simplex.mode_name Simplex.Float_first);
  let parses s expected =
    match Simplex.mode_of_string s, expected with
    | Some Simplex.Exact, `Exact | Some Simplex.Float_first, `Float -> ()
    | None, `None -> ()
    | _ -> Alcotest.failf "mode_of_string %S" s
  in
  parses "exact" `Exact;
  parses "float_first" `Float;
  parses "float-first" `Float;
  parses "fast-but-wrong" `None

(* Float-first and exact modes must return the same verdict and the same
   optimal value on random signed LPs, and any hybrid optimum must be an
   exactly feasible point attaining that value — the repair step is what
   makes this a theorem rather than a hope, so the property doubles as a
   regression net for it. *)
let prop_hybrid_agrees =
  QCheck.Test.make ~name:"float_first and exact modes agree" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 211 |] in
      let rand_rat () =
        Rat.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4)
      in
      let nv = 1 + Random.State.int st 4 in
      let nc = 1 + Random.State.int st 6 in
      let rows =
        List.init nc (fun _ ->
            let row = Array.init nv (fun _ -> rand_rat ()) in
            let op =
              match Random.State.int st 3 with
              | 0 -> Simplex.Le
              | 1 -> Simplex.Ge
              | _ -> Simplex.Eq
            in
            (row, op, rand_rat ()))
      in
      let objective = Array.init nv (fun _ -> rand_rat ()) in
      let p =
        Simplex.{ num_vars = nv; objective;
                  constraints =
                    List.map (fun (r, op, b) -> constr r op b) rows }
      in
      let exact = Simplex.solve ~mode:Simplex.Exact p in
      let hybrid = Simplex.solve ~mode:Simplex.Float_first p in
      let dot r x =
        Array.fold_left Rat.add Rat.zero (Array.mapi (fun i c -> Rat.mul c x.(i)) r)
      in
      outcomes_agree exact hybrid
      && (match hybrid with
          | Simplex.Optimal (v, x) ->
            Array.for_all (fun xi -> Rat.sign xi >= 0) x
            && List.for_all
                 (fun (row, op, rhs) ->
                   let lhs = dot row x in
                   match op with
                   | Simplex.Le -> Rat.compare lhs rhs <= 0
                   | Simplex.Ge -> Rat.compare lhs rhs >= 0
                   | Simplex.Eq -> Rat.equal lhs rhs)
                 rows
            && Rat.equal v (dot objective x)
          | Simplex.Unbounded | Simplex.Infeasible -> true))

(* A coefficient of 2^5000 overflows [Rat.to_float] to infinity; the
   float engine must report a typed [Overflow] error from ingestion (not
   propagate inf/NaN into pricing), and the hybrid driver must fall back
   to the exact engine and still return the exact optimum. *)
let huge = Rat.of_bigint (Bigint.shift_left Bigint.one 5000)

let test_float_overflow_is_typed () =
  let p =
    { Lp_layout.num_vars = 1;
      objective = [| Rat.one |];
      constraints = [ Lp_layout.constr [| huge |] Lp_layout.Ge Rat.one ] }
  in
  match Fsimplex.propose p (Lp_layout.layout_of p) with
  | Error { Bagcqc_error.kind = Bagcqc_error.Overflow _; where } ->
    Alcotest.(check string) "where" "Fsimplex.propose" where
  | Error e ->
    Alcotest.failf "expected Overflow, got %s" (Bagcqc_error.to_string e)
  | Ok _ -> Alcotest.fail "expected ingestion overflow, got a proposal"

let test_hybrid_falls_back_on_overflow () =
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [1];
      constraints = [ constr [| huge |] Ge Rat.one ];
    }
  in
  (* min x s.t. 2^5000 x >= 1: optimum x = 2^-5000, far below float range
     in the constraint and subnormal in the answer — only the exact
     fallback can get this right. *)
  match Simplex.solve ~mode:Simplex.Float_first p with
  | Simplex.Optimal (v, x) ->
    Alcotest.check rt "value" (Rat.inv huge) v;
    Alcotest.check rt "point" (Rat.inv huge) x.(0)
  | _ -> Alcotest.fail "expected optimal via exact fallback"

(* An elimination that overflows inside a row other than the pivot row:
   min −x s.t. 1e-8·x + 1e300·y ≤ 1e-8 and 100·x ≤ 1e6.  x enters on the
   1e-8 pivot of row 0, which scales that row's y entry to ~1e308 (still
   finite); eliminating x from row 1 then writes −100·1e308 = −inf into
   row 1's body.  The pivot row, the objective and the right-hand sides
   all stay finite, so only a check on every written entry sees it. *)
(* One sparse problem, built for both interfaces: {!Simplex} for the
   solves, {!Lp_layout} for driving {!Fsimplex} and {!Repair} directly. *)
let both_problems ~num_vars ~objective rows =
  let to_op : Simplex.op -> Lp_layout.op = function
    | Simplex.Le -> Lp_layout.Le
    | Simplex.Ge -> Lp_layout.Ge
    | Simplex.Eq -> Lp_layout.Eq
  in
  ( Simplex.{ num_vars; objective;
              constraints =
                List.map (fun (pairs, op, rhs) -> sparse_constr pairs op rhs) rows },
    { Lp_layout.num_vars; objective;
      constraints =
        List.map
          (fun (pairs, op, rhs) -> Lp_layout.sparse_constr pairs (to_op op) rhs)
          rows } )

let test_float_overflow_in_eliminated_row () =
  let big = Rat.of_bigint (Bigint.of_string ("1" ^ String.make 300 '0')) in
  let tiny = Rat.of_ints 1 100_000_000 in
  let sp, lp =
    both_problems ~num_vars:2 ~objective:[| Rat.minus_one; Rat.zero |]
      [ ([ (0, tiny); (1, big) ], Simplex.Le, tiny);
        ([ (0, q 100) ], Simplex.Le, q 1_000_000) ]
  in
  (match Fsimplex.propose lp (Lp_layout.layout_of lp) with
   | Error { Bagcqc_error.kind = Bagcqc_error.Overflow _; where } ->
     Alcotest.(check string) "where" "Fsimplex.propose" where
   | Error e ->
     Alcotest.failf "expected Overflow, got %s" (Bagcqc_error.to_string e)
   | Ok _ -> Alcotest.fail "expected an elimination overflow, got a proposal");
  match Simplex.solve ~mode:Simplex.Float_first sp with
  | Simplex.Optimal (v, x) ->
    Alcotest.check rt "value" Rat.minus_one v;
    Alcotest.check rt "x" Rat.one x.(0);
    Alcotest.check rt "y" Rat.zero x.(1)
  | _ -> Alcotest.fail "expected optimal via exact fallback"

(* An LP shaped like the restricted Farkas system of the lazy cone
   driver: rows s = 0..r−1 read ν_s + Σ a·λ − Σ e·μ = 0, each ν_s a
   positive unit column found in no other row, plus Σμ = 1.  Every Eq
   row but the last starts on its ν column, so the float solve needs
   only the pivots that drive the Σμ row's artificial out — fewer than
   there are Eq rows, where starting on artificials needs at least one
   pivot per row. *)
let farkas_shaped ~rows ~lambdas ~mus seed =
  let st = Random.State.make [| seed |] in
  let coef () = Random.State.int st 5 - 2 in
  let terms base k =
    List.filter_map
      (fun i ->
        let c = coef () in
        if c = 0 then None else Some (base + i, q c))
      (List.init k Fun.id)
  in
  let eq_rows =
    List.init rows (fun s ->
        ( ((lambdas + mus + s), Rat.one) :: terms 0 lambdas @ terms lambdas mus,
          Simplex.Eq, Rat.zero ))
  in
  let mu_row =
    (List.init mus (fun l -> (lambdas + l, Rat.one)), Simplex.Eq, Rat.one)
  in
  let num_vars = lambdas + mus + rows in
  both_problems ~num_vars ~objective:(Array.make num_vars Rat.zero)
    (eq_rows @ [ mu_row ])

let test_singleton_start () =
  let rows = 8 in
  let outcomes = ref [] in
  for seed = 1 to 40 do
    let sp, lp = farkas_shaped ~rows ~lambdas:4 ~mus:2 seed in
    let exact = Simplex.solve ~mode:Simplex.Exact sp in
    let hybrid = Simplex.solve ~mode:Simplex.Float_first sp in
    if not (outcomes_agree exact hybrid) then
      Alcotest.failf "seed %d: float_first and exact disagree" seed;
    outcomes := exact :: !outcomes;
    let p0 = Lp_layout.pivot_count () in
    (match Fsimplex.propose lp (Lp_layout.layout_of lp) with
     | Ok (Fsimplex.Optimal_basis _ | Fsimplex.Infeasible_basis _) -> ()
     | Ok Fsimplex.Unbounded_direction | Error _ ->
       Alcotest.failf "seed %d: no float proposal" seed);
    let dp = Lp_layout.pivot_count () - p0 in
    if dp >= rows + 1 then
      Alcotest.failf "seed %d: %d pivots for %d Eq rows" seed dp (rows + 1)
  done;
  (* The seeds cover both outcomes, so both proposal kinds were checked. *)
  let has f = List.exists f !outcomes in
  Alcotest.(check bool) "some feasible" true
    (has (function Simplex.Optimal _ -> true | _ -> false));
  Alcotest.(check bool) "some infeasible" true
    (has (function Simplex.Infeasible -> true | _ -> false));
  (* End to end: the lazy driver's Farkas solve starts from its ν
     columns, and its certificate still checks exactly. *)
  let open Bagcqc_entropy in
  let vs = Varset.of_list in
  let subadditive =
    Linexpr.sub
      (Linexpr.sum (List.map (fun i -> Linexpr.term (vs [ i ])) [ 0; 1; 2; 3 ]))
      (Linexpr.term (vs [ 0; 1; 2; 3 ]))
  in
  match Separation.valid_max_cert ~n:4 [ subadditive ] with
  | Ok cert ->
    Alcotest.(check bool) "certificate passes Certificate.check" true
      (Certificate.check cert)
  | Error _ -> Alcotest.fail "subadditivity is Shannon-valid"

(* Repair's phase-2 shortcut (c_B = 0 ⇒ y = 0) must not weaken its
   checks: over x + y = 1, 2x + 2y = 2 with zero objective, the basis
   {x, y} is singular and is rejected as such, while a regular basis is
   accepted.  Phase-1 bases always solve for y and keep their tags. *)
let test_repair_zero_cost_basis () =
  let p =
    { Lp_layout.num_vars = 2; objective = qa [ 0; 0 ];
      constraints = [ Lp_layout.constr (qa [ 1; 1 ]) Lp_layout.Eq (q 1);
                      Lp_layout.constr (qa [ 2; 2 ]) Lp_layout.Eq (q 2) ] }
  in
  let lay = Lp_layout.layout_of p in
  let tag = function
    | Repair.Rejected reason -> reason
    | Repair.Repaired_optimal _ -> "optimal"
    | Repair.Repaired_infeasible -> "infeasible"
  in
  let art0 = lay.Lp_layout.art_start in
  let check msg expected proposal =
    Alcotest.(check string) msg expected (tag (Repair.repair p lay proposal))
  in
  check "phase 2, c_B = 0, singular" "singular_basis"
    (Fsimplex.Optimal_basis [| 0; 1 |]);
  check "phase 2, c_B = 0, regular" "optimal"
    (Fsimplex.Optimal_basis [| 0; art0 + 1 |]);
  check "phase 1, c_B = 0, singular" "singular_basis"
    (Fsimplex.Infeasible_basis [| 0; 1 |]);
  check "phase 1, artificial basis of a feasible system" "dual_infeasible"
    (Fsimplex.Infeasible_basis [| art0; art0 + 1 |]);
  let p1 =
    { Lp_layout.num_vars = 1; objective = qa [ 0 ];
      constraints = [ Lp_layout.constr (qa [ 1 ]) Lp_layout.Eq (q 1) ] }
  in
  Alcotest.(check string) "phase 1, c_B = 0, regular" "not_infeasible"
    (tag (Repair.repair p1 (Lp_layout.layout_of p1)
            (Fsimplex.Infeasible_basis [| 0 |])))

(* An infeasible probe's row duals must be a Farkas proof of the rows as
   written: yᵢ ≤ 0 on Le rows, ≥ 0 on Ge rows, Σ yᵢ·aᵢ ≤ 0 on every
   column (the implicit x ≥ 0) and Σ yᵢ·bᵢ > 0.  The systems cover a
   row the layout flips (negative rhs), a Ge row, and an Eq row whose
   singleton column starts basic with the row scaled by 1/2 — a dual
   read in scaled units would break the column sums. *)
let test_phase1_duals_are_farkas () =
  let farkas name num_vars rows =
    let constraints =
      List.map
        (fun (l, op, r) ->
          Simplex.sparse_constr (List.map (fun (j, c) -> (j, q c)) l) op (q r))
        rows
    in
    let p =
      { Simplex.num_vars; objective = Array.make num_vars Rat.zero;
        constraints }
    in
    match Simplex.solve_float p with
    | Simplex.Float_infeasible { duals; _ } ->
      Alcotest.(check int) (name ^ ": one dual per row") (List.length rows)
        (Array.length duals);
      let tol = 1e-9 in
      let col = Array.make num_vars 0.0 and yb = ref 0.0 in
      List.iteri
        (fun i (l, op, r) ->
          let y = duals.(i) in
          (match op with
           | Simplex.Le ->
             Alcotest.(check bool) (name ^ ": Le dual <= 0") true (y <= tol)
           | Simplex.Ge ->
             Alcotest.(check bool) (name ^ ": Ge dual >= 0") true (y >= -.tol)
           | Simplex.Eq -> ());
          List.iter
            (fun (j, c) -> col.(j) <- col.(j) +. (y *. float_of_int c))
            l;
          yb := !yb +. (y *. float_of_int r))
        rows;
      Array.iteri
        (fun j v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: column %d sum <= 0 (%g)" name j v)
            true (v <= tol))
        col;
      Alcotest.(check bool) (name ^ ": y.b > 0") true (!yb > 1e-6)
    | Simplex.Float_optimal _ | Simplex.Float_unknown ->
      Alcotest.failf "%s: expected a float infeasibility claim" name
  in
  farkas "ge vs two le" 2
    [ ([ (0, 1); (1, 1) ], Simplex.Ge, 3);
      ([ (0, 1) ], Simplex.Le, 1);
      ([ (1, 1) ], Simplex.Le, 1) ];
  farkas "flipped le" 2
    [ ([ (0, -1); (1, -1) ], Simplex.Le, -3);
      ([ (0, 1) ], Simplex.Le, 1);
      ([ (1, 1) ], Simplex.Le, 1) ];
  farkas "scaled singleton eq" 2
    [ ([ (0, 1); (1, 2) ], Simplex.Eq, 4); ([ (0, 1) ], Simplex.Ge, 5) ]

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_solution_feasible; prop_engines_agree; prop_sparse_ingestion;
      prop_hybrid_agrees ]

let suite =
  [ ("basic min", `Quick, test_basic_min);
    ("basic max", `Quick, test_basic_max);
    ("infeasible", `Quick, test_infeasible);
    ("unbounded", `Quick, test_unbounded);
    ("equality", `Quick, test_equality);
    ("beale cycling", `Quick, test_degenerate_cycling);
    ("negative rhs", `Quick, test_negative_rhs);
    ("feasibility", `Quick, test_zero_objective_feasibility);
    ("redundant equalities", `Quick, test_redundant_equalities);
    ("dimension mismatch", `Quick, test_dimension_mismatch);
    ("sparse_constr validation", `Quick, test_sparse_constr_validation);
    ("mode selector", `Quick, test_mode_selector);
    ("float overflow is typed", `Quick, test_float_overflow_is_typed);
    ("hybrid falls back on overflow", `Quick, test_hybrid_falls_back_on_overflow);
    ("float overflow in an eliminated row", `Quick,
     test_float_overflow_in_eliminated_row);
    ("singleton start basis", `Quick, test_singleton_start);
    ("repair with zero basic cost", `Quick, test_repair_zero_cost_basis);
    ("phase-1 duals are a Farkas proof", `Quick, test_phase1_duals_are_farkas) ]
  @ qtests
