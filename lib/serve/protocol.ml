open Bagcqc_cq
open Bagcqc_core
open Bagcqc_entropy
module Json = Bagcqc_obs.Json

type addr = Unix_path of string | Tcp of string * int

let pp_addr fmt = function
  | Unix_path p -> Format.fprintf fmt "unix:%s" p
  | Tcp (h, p) -> Format.fprintf fmt "tcp:%s:%d" h p

type error_kind =
  | Parse
  | Bad_request
  | Deadline_exceeded
  | Overloaded
  | Shutting_down
  | Internal

let kind_name = function
  | Parse -> "parse"
  | Bad_request -> "bad_request"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let kind_of_name = function
  | "parse" -> Some Parse
  | "bad_request" -> Some Bad_request
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

type request =
  | Check of {
      q1 : Query.t;
      q2 : Query.t;
      max_factors : int;
      want_certificate : bool;
    }
  | Stats
  | Ping
  | Shutdown

type envelope = {
  id : Json.t;
  deadline_ms : float option;
  request : request;
}

type error = { id : Json.t; kind : error_kind; message : string }

(* ---------------- request parsing ---------------- *)

let parse_line line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
    Error { id = Json.Null; kind = Parse; message = "invalid JSON: " ^ msg }
  | Json.Obj _ as j ->
    (* The id is echoed verbatim, so any JSON scalar works; composite
       ids are refused to keep replies greppable. *)
    let id =
      match Json.find_opt "id" j with
      | Some ((Json.Str _ | Json.Num _ | Json.Null) as v) -> v
      | Some _ | None -> Json.Null
    in
    let bad message = Error { id; kind = Bad_request; message } in
    (match Json.find_opt "id" j with
     | Some (Json.Obj _ | Json.Arr _ | Json.Bool _) ->
       bad "\"id\" must be a string, number or null"
     | _ ->
       let deadline_ms =
         match Json.find_opt "deadline_ms" j with
         | Some (Json.Num ms) when ms >= 0.0 -> Ok (Some ms)
         | None -> Ok None
         | Some _ -> Error ()
       in
       (match deadline_ms with
        | Error () -> bad "\"deadline_ms\" must be a non-negative number"
        | Ok deadline_ms ->
          (match Json.find_opt "op" j with
           | Some (Json.Str "ping") ->
             Ok { id; deadline_ms; request = Ping }
           | Some (Json.Str "stats") ->
             Ok { id; deadline_ms; request = Stats }
           | Some (Json.Str "shutdown") ->
             Ok { id; deadline_ms; request = Shutdown }
           | Some (Json.Str "check") ->
             let query field =
               match Json.find_opt field j with
               | Some (Json.Str s) ->
                 (match Parser.parse_result s with
                  | Ok q -> Ok q
                  | Error msg ->
                    Error
                      (Printf.sprintf "%S: query syntax: %s" field msg))
               | Some _ -> Error (Printf.sprintf "%S must be a string" field)
               | None -> Error (Printf.sprintf "missing %S" field)
             in
             (match (query "q1", query "q2") with
              | Error m, _ | _, Error m -> bad m
              | Ok q1, Ok q2 ->
                let max_factors =
                  match Json.find_opt "max_factors" j with
                  | Some (Json.Num f)
                    when Float.is_integer f && f >= 1.0
                         && f <= float_of_int Containment.max_factors_cap ->
                    Ok (int_of_float f)
                  | None -> Ok Containment.default_max_factors
                  | Some _ -> Error ()
                in
                let want_certificate =
                  match Json.find_opt "certificate" j with
                  | Some (Json.Bool b) -> Ok b
                  | None -> Ok false
                  | Some _ -> Error ()
                in
                (match (max_factors, want_certificate) with
                 | Error (), _ ->
                   bad
                     (Printf.sprintf
                        "\"max_factors\" must be an integer in [1,%d]"
                        Containment.max_factors_cap)
                 | _, Error () -> bad "\"certificate\" must be a boolean"
                 | Ok max_factors, Ok want_certificate ->
                   Ok
                     { id; deadline_ms;
                       request =
                         Check { q1; q2; max_factors; want_certificate } }))
           | Some (Json.Str op) -> bad ("unknown op " ^ op)
           | Some _ -> bad "\"op\" must be a string"
           | None -> bad "missing \"op\"")))
  | _ ->
    Error
      { id = Json.Null; kind = Parse;
        message = "request must be a JSON object" }

(* ---------------- replies ---------------- *)

let ok id fields = Json.Obj (("id", id) :: ("ok", Json.Bool true) :: fields)

let error_reply { id; kind; message } =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false);
      ("error",
       Json.Obj
         [ ("kind", Json.Str (kind_name kind));
           ("message", Json.Str message) ]) ]

let internal_error ~id e =
  error_reply
    { id; kind = Internal;
      message = Format.asprintf "%a" Bagcqc_num.Bagcqc_error.pp e }

let verdict_name = function
  | Containment.Contained _ -> "contained"
  | Containment.Not_contained _ -> "not_contained"
  | Containment.Unknown _ -> "unknown"

let verdict_fields ~want_certificate = function
  | Containment.Contained cert ->
    ("verdict", Json.Str "contained")
    :: ("certificate_size",
        Json.Num (float_of_int (Certificate.size cert)))
    :: (if want_certificate then
          (* Same discipline as the CLI's --certificate: a certificate
             is only ever shown after the exact independent check. *)
          if Certificate.check cert then
            [ ("certificate",
               Json.Str (Format.asprintf "%a" (Certificate.pp ()) cert)) ]
          else
            [ ("certificate_error",
               Json.Str "certificate failed independent verification") ]
        else [])
  | Containment.Not_contained w ->
    [ ("verdict", Json.Str "not_contained");
      ("card_p", Json.Num (float_of_int w.Containment.card_p));
      ("hom2", Json.Num (float_of_int w.Containment.hom2)) ]
  | Containment.Unknown { reason; _ } ->
    [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]
