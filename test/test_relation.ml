(* Tests for relations: projections, products, step/normal relations,
   domain products, total uniformity, degrees and entropies — the
   machine-checked version of the paper's Table 1. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_relation

let vs = Varset.of_list
let vi i = Value.Int i

let test_basic () =
  let p = Relation.of_int_rows ~arity:2 [ [ 1; 2 ]; [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "set semantics dedups" 2 (Relation.cardinal p);
  Alcotest.(check bool) "mem" true (Relation.mem [| vi 1; vi 2 |] p);
  Alcotest.(check bool) "not mem" false (Relation.mem [| vi 2; vi 1 |] p);
  Alcotest.(check int) "arity" 2 (Relation.arity p);
  Alcotest.check_raises "bad row" (Invalid_argument "Relation: row arity mismatch")
    (fun () -> ignore (Relation.of_list ~arity:2 [ [| vi 1 |] ]))

let test_generalized_projection () =
  (* Section 3.1 example: Q1 = R(x,x,y), P = {(a,b)}: Π_xxy(P) = {(a,a,b)}. *)
  let p = Relation.of_int_rows ~arity:2 [ [ 10; 20 ] ] in
  let r = Relation.project [| 0; 0; 1 |] p in
  Alcotest.(check int) "arity 3" 3 (Relation.arity r);
  Alcotest.(check bool) "row (a,a,b)" true (Relation.mem [| vi 10; vi 10; vi 20 |] r);
  (* Projection onto a set of columns *)
  let p2 = Relation.of_int_rows ~arity:3 [ [ 1; 2; 3 ]; [ 1; 2; 4 ] ] in
  let r2 = Relation.project_set (vs [ 0; 1 ]) p2 in
  Alcotest.(check int) "dedup after projection" 1 (Relation.cardinal r2)

let test_product () =
  let p = Relation.product_of_sizes [ 2; 3; 4 ] in
  Alcotest.(check int) "cardinality" 24 (Relation.cardinal p);
  Alcotest.(check bool) "totally uniform" true (Relation.is_totally_uniform p);
  (* Empty factor *)
  let e = Relation.product [ [ vi 1 ]; [] ] in
  Alcotest.(check bool) "empty product" true (Relation.is_empty e)

let test_step_relation () =
  (* P_W from Sec 3.2: two rows agreeing exactly on W; its entropy is the
     step function h_W. *)
  let n = 3 in
  let w = vs [ 1 ] in
  let p = Relation.step_relation ~n w in
  Alcotest.(check int) "two rows" 2 (Relation.cardinal p);
  let hw = Polymatroid.step n w in
  Varset.iter_subsets (Varset.full n) (fun x ->
      match Relation.entropy_exact p x with
      | None -> Alcotest.fail "step relation must have uniform marginals"
      | Some e ->
        let expected =
          Logint.scale (Polymatroid.value hw x) (Logint.log_int 2)
        in
        Alcotest.(check bool)
          (Format.asprintf "entropy at %a" (Varset.pp ()) x)
          true
          (Logint.equal e expected))

let test_domain_product_entropy_adds () =
  (* Table 1: P = P1 ⊗ P2 has h = h1 + h2. *)
  let p1 = Relation.step_relation ~n:3 (vs [ 0 ]) in
  let p2 = Relation.step_relation ~n:3 (vs [ 1; 2 ]) in
  let p = Relation.domain_product p1 p2 in
  Alcotest.(check int) "4 rows" 4 (Relation.cardinal p);
  Varset.iter_subsets (Varset.full 3) (fun x ->
      let e = Option.get (Relation.entropy_exact p x) in
      let e1 = Option.get (Relation.entropy_exact p1 x) in
      let e2 = Option.get (Relation.entropy_exact p2 x) in
      Alcotest.(check bool) "h = h1 + h2" true
        (Logint.equal e (Logint.add e1 e2)))

let test_normal_relation_def_3_3 () =
  (* Definition 3.3's example: {(uv,u,v,v) | u,v ∈ [n]} with 4 attributes.
     Built as ψ over the product [n] × [n], ψ = [{0,1};{0};{1};{1}]. *)
  let p = Relation.product_of_sizes [ 3; 3 ] in
  let nr = Relation.normal_of_map ~psi:[| vs [ 0; 1 ]; vs [ 0 ]; vs [ 1 ]; vs [ 1 ] |] p in
  Alcotest.(check int) "9 rows" 9 (Relation.cardinal nr);
  Alcotest.(check bool) "totally uniform" true (Relation.is_totally_uniform nr);
  (* First attribute is a key: deg(rest | first) = 1. *)
  Alcotest.(check (option int)) "uv is a key" (Some 1)
    (Relation.degree nr ~y:(vs [ 1; 2; 3 ]) ~x:(vs [ 0 ]));
  (* Last two attributes are equal: deg({3} | {2}) = 1, both columns [n]. *)
  Alcotest.(check (option int)) "v determines v" (Some 1)
    (Relation.degree nr ~y:(vs [ 3 ]) ~x:(vs [ 2 ]))

let test_of_normal_steps () =
  (* Realize 2·h_{W1} + 1·h_{W2}: entropies must match the normal
     polymatroid (in units of log 2). *)
  let n = 3 in
  let coeffs = [ (vs [ 0 ], 2); (vs [ 1; 2 ], 1) ] in
  let p = Relation.of_normal_steps ~n coeffs in
  Alcotest.(check int) "8 rows" 8 (Relation.cardinal p);
  Alcotest.(check bool) "totally uniform" true (Relation.is_totally_uniform p);
  let h =
    Polymatroid.normal_of_steps n
      (List.map (fun (w, c) -> (w, Rat.of_int c)) coeffs)
  in
  Varset.iter_subsets (Varset.full n) (fun x ->
      let e = Option.get (Relation.entropy_exact p x) in
      let expected = Logint.scale (Polymatroid.value h x) (Logint.log_int 2) in
      Alcotest.(check bool) "matches polymatroid" true (Logint.equal e expected))

let test_of_normal_steps_bit_code () =
  (* Row b holds b land maskᵢ on column i, with bit j of maskᵢ set iff
     i ∉ Wⱼ: here W₀ = {0}, W₁ = {1,2}, so mask₀ = 0b10, mask₁ = mask₂ = 0b01. *)
  let p = Relation.of_normal_steps ~n:3 [ (vs [ 0 ], 1); (vs [ 1; 2 ], 1) ] in
  Alcotest.(check (list (list int))) "rows"
    [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 2; 0; 0 ]; [ 2; 1; 1 ] ]
    (List.map
       (fun row ->
         Array.to_list
           (Array.map (function Value.Int i -> i | _ -> -1) row))
       (Relation.to_list p));
  Alcotest.(check int) "no factor: one all-zero row" 1
    (Relation.cardinal (Relation.of_normal_steps ~n:2 []));
  Alcotest.check_raises "too many factors for the bit code"
    (Invalid_argument "Relation.of_normal_steps: too many factors for the bit code")
    (fun () -> ignore (Relation.of_normal_steps ~n:2 [ (vs [ 0 ], 40); (vs [ 1 ], 40) ]));
  Alcotest.check_raises "full W"
    (Invalid_argument "Relation.of_normal_steps: W must be proper")
    (fun () -> ignore (Relation.of_normal_steps ~n:2 [ (vs [ 0; 1 ], 1) ]))

let test_parity_relation () =
  (* Example E.2 / B.4: the parity relation is totally uniform and its
     entropy is the (non-normal) parity function. *)
  let p =
    Relation.of_int_rows ~arity:3
      [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ] ]
  in
  Alcotest.(check bool) "totally uniform" true (Relation.is_totally_uniform p);
  let check_h x expected_pow =
    let e = Option.get (Relation.entropy_exact p (vs x)) in
    Alcotest.(check bool)
      (Printf.sprintf "h = %d bits" expected_pow)
      true
      (Logint.equal e (Logint.scale (Rat.of_int expected_pow) (Logint.log_int 2)))
  in
  check_h [ 0 ] 1;
  check_h [ 0; 1 ] 2;
  check_h [ 0; 1; 2 ] 2

let test_not_totally_uniform () =
  let p = Relation.of_int_rows ~arity:2 [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ] ] in
  Alcotest.(check bool) "not totally uniform" false (Relation.is_totally_uniform p);
  Alcotest.(check (option int)) "degree undefined" None
    (Relation.degree p ~y:(vs [ 1 ]) ~x:(vs [ 0 ]));
  (* Float entropy of the skewed marginal: H(2/3,1/3) ≈ 0.918. *)
  let h = Relation.entropy_float p (vs [ 0 ]) in
  Alcotest.(check bool) "entropy in range" true (h > 0.91 && h < 0.93);
  Alcotest.(check bool) "no exact entropy" true
    (Relation.entropy_exact p (vs [ 0 ]) = None)

let test_degree_lemma_4_6 () =
  (* Lemma 4.6(2): for totally uniform P, deg(Y|X) = |Π_XY P| / |Π_X P|. *)
  let p = Relation.of_normal_steps ~n:4 [ (vs [ 0; 1 ], 1); (vs [ 2 ], 2) ] in
  Alcotest.(check bool) "totally uniform" true (Relation.is_totally_uniform p);
  let check_pair y x =
    let d = Option.get (Relation.degree p ~y ~x) in
    let num = Relation.cardinal (Relation.project_set (Varset.union x y) p) in
    let den = Relation.cardinal (Relation.project_set x p) in
    Alcotest.(check int) "deg = |XY|/|X|" (num / den) d;
    Alcotest.(check int) "divides evenly" 0 (num mod den)
  in
  check_pair (vs [ 1 ]) (vs [ 0 ]);
  check_pair (vs [ 2; 3 ]) (vs [ 0 ]);
  check_pair (vs [ 3 ]) (vs [ 0; 1; 2 ])

(* Property: domain products of random step relations (i.e. normal
   relations) are always totally uniform, and entropies always add. *)
let prop_normal_relations_uniform =
  let n = 3 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4) (int_range 0 ((1 lsl n) - 2))
      |> map (fun ws -> List.map (fun w -> (w, 1)) ws))
  in
  QCheck.Test.make ~name:"normal relations are totally uniform" ~count:100
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map (fun (w, _) -> string_of_int w) l))
       gen)
    (fun coeffs ->
      let merged =
        (* of_normal_steps requires positive multiplicities; merge dups. *)
        List.sort_uniq compare coeffs
      in
      let p = Relation.of_normal_steps ~n merged in
      Relation.is_totally_uniform p)

(* The bit-coded of_normal_steps against Definition B.1's reference
   construction, the fold of domain_product over step_relation: same
   cardinality and the same |Π_X P| for every column set X. *)
let prop_bit_coded_matches_domain_product =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* steps =
        list_size (int_range 0 4)
          (pair (int_range 0 ((1 lsl n) - 2)) (int_range 1 2))
      in
      return (n, steps))
  in
  QCheck.Test.make ~name:"bit-coded normal relation = domain-product fold"
    ~count:100
    (QCheck.make
       ~print:(fun (n, l) ->
         Printf.sprintf "n=%d [%s]" n
           (String.concat "; "
              (List.map (fun (w, c) -> Printf.sprintf "%d×%d" w c) l)))
       gen)
    (fun (n, steps) ->
      let p = Relation.of_normal_steps ~n steps in
      let reference =
        match
          List.concat_map
            (fun (w, c) -> List.init c (fun _ -> Relation.step_relation ~n w))
            steps
        with
        | [] -> Relation.of_int_rows ~arity:n [ List.init n (fun _ -> 0) ]
        | first :: rest -> List.fold_left Relation.domain_product first rest
      in
      let same = ref (Relation.cardinal p = Relation.cardinal reference) in
      Varset.iter_subsets (Varset.full n) (fun x ->
          if
            Relation.cardinal (Relation.project_set x p)
            <> Relation.cardinal (Relation.project_set x reference)
          then same := false);
      !same)

let prop_projection_composes =
  QCheck.Test.make ~name:"projection composes: Π_ψ(Π_φ P) = Π_{φ∘ψ} P" ~count:100
    (QCheck.make
       ~print:(fun _ -> "rows")
       QCheck.Gen.(
         let* rows = list_size (int_range 1 8) (list_repeat 3 (int_range 0 3)) in
         let* phi = list_repeat 4 (int_range 0 2) in
         let* psi = list_repeat 2 (int_range 0 3) in
         return (rows, phi, psi)))
    (fun (rows, phi, psi) ->
      let p = Relation.of_int_rows ~arity:3 rows in
      let phi = Array.of_list phi and psi = Array.of_list psi in
      let lhs = Relation.project psi (Relation.project phi p) in
      let rhs = Relation.project (Array.map (fun j -> phi.(j)) psi) p in
      Relation.equal lhs rhs)

let prop_tag_columns_matches_rebuild =
  QCheck.Test.make ~name:"tag_columns = of_list rebuild of the tagged rows"
    ~count:200
    (QCheck.make
       ~print:(fun _ -> "rows")
       QCheck.Gen.(
         let* rows = list_size (int_range 0 12) (list_repeat 3 (int_range (-2) 3)) in
         let* tags = list_repeat 3 (oneofl [ "a"; "b"; "x1"; "" ]) in
         return (rows, tags)))
    (fun (rows, tags) ->
      let p = Relation.of_int_rows ~arity:3 rows in
      let tags = Array.of_list tags in
      let tagged = Relation.tag_columns tags p in
      let rebuilt =
        Relation.of_list ~arity:3
          (List.map
             (Array.mapi (fun j v -> Value.Tag (tags.(j), v)))
             (Relation.to_list p))
      in
      Relation.equal tagged rebuilt
      && List.equal
           (fun r1 r2 -> Array.for_all2 Value.equal r1 r2)
           (Relation.to_list tagged) (Relation.to_list rebuilt)
      && Relation.cardinal tagged = Relation.cardinal p)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_normal_relations_uniform; prop_bit_coded_matches_domain_product;
      prop_projection_composes; prop_tag_columns_matches_rebuild ]

let test_value_hash () =
  let open Value in
  (* The pre-mixer hash was symmetric in nested annotations:
     Tag ("a", Tag ("b", v)) and Tag ("b", Tag ("a", v)) always collided,
     and hom-counting hash tables over twice-annotated databases
     degenerated to linear probes.  Pin the separation down. *)
  let v = Int 7 in
  Alcotest.(check bool) "nested tag swap separates" true
    (hash (Tag ("a", Tag ("b", v))) <> hash (Tag ("b", Tag ("a", v))));
  Alcotest.(check bool) "pair swap separates" true
    (hash (Pair (Int 1, Int 2)) <> hash (Pair (Int 2, Int 1)));
  Alcotest.(check bool) "constructors separate" true
    (hash (Pair (Int 1, Int 2)) <> hash (Tuple [ Int 1; Int 2 ]));
  (* Large ints used to drive the product into the sign bit. *)
  let samples =
    [ Int max_int; Int min_int; Int (-1); Str "x";
      Tag ("a", Tag ("b", Tag ("c", Int max_int)));
      Tuple [ Pair (Int max_int, Str "y"); Tag ("t", Int 3) ] ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "hash is non-negative" true (hash s >= 0))
    samples;
  (* Consistency with equal: structurally equal values hash equal. *)
  Alcotest.(check int) "equal values collide"
    (hash (Tag ("a", Pair (Int 1, Str "s"))))
    (hash (Tag ("a", Pair (Int 1, Str "s"))))

let suite =
  [ ("basic", `Quick, test_basic);
    ("value hash mixing", `Quick, test_value_hash);
    ("generalized projection", `Quick, test_generalized_projection);
    ("product", `Quick, test_product);
    ("step relation (Table 1)", `Quick, test_step_relation);
    ("domain product adds entropies (Table 1)", `Quick, test_domain_product_entropy_adds);
    ("normal relation (Def 3.3)", `Quick, test_normal_relation_def_3_3);
    ("of_normal_steps", `Quick, test_of_normal_steps);
    ("of_normal_steps bit code", `Quick, test_of_normal_steps_bit_code);
    ("parity relation (Ex E.2)", `Quick, test_parity_relation);
    ("non-uniform relation", `Quick, test_not_totally_uniform);
    ("degree (Lemma 4.6)", `Quick, test_degree_lemma_4_6) ]
  @ qtests
