open Bagcqc_relation

module SMap = Map.Make (String)

type t = Relation.t SMap.t

let empty = SMap.empty

let add_relation name r db = SMap.add name r db

let add_row name row db =
  let r =
    match SMap.find_opt name db with
    | Some r -> Relation.add row r
    | None -> Relation.of_list ~arity:(Array.length row) [ row ]
  in
  SMap.add name r db

let relation db name ~arity =
  match SMap.find_opt name db with
  | Some r -> r
  | None -> Relation.of_list ~arity []

let relations db = SMap.bindings db

let total_rows db =
  SMap.fold (fun _ r acc -> acc + Relation.cardinal r) db 0

let of_int_rows l =
  List.fold_left
    (fun db (name, rows) ->
      match rows with
      | [] -> db
      | first :: _ ->
        add_relation name
          (Relation.of_int_rows ~arity:(List.length first) rows)
          db)
    empty l

let canonical q =
  List.fold_left
    (fun db a ->
      add_row a.Query.rel
        (Array.map (fun v -> Value.Str (Query.var_name q v)) a.Query.args)
        db)
    empty (Query.atoms q)

let project_annotated q cols p =
  Relation.tag_columns (Array.map (Query.var_name q) cols)
    (Relation.project cols p)

let of_vrelation ?(annotate = false) q p =
  if Relation.arity p <> Query.nvars q then
    invalid_arg "Database.of_vrelation: arity must equal the query's variable count";
  let project =
    if annotate then project_annotated q else Relation.project
  in
  List.fold_left
    (fun db a ->
      let proj = project a.Query.args p in
      let prev = relation db a.Query.rel ~arity:(Relation.arity proj) in
      add_relation a.Query.rel (Relation.union prev proj) db)
    empty (Query.atoms q)

let pp fmt db =
  SMap.iter
    (fun name r -> Format.fprintf fmt "%s = %a@." name Relation.pp r)
    db
