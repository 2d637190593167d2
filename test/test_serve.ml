(* The serve daemon: wire-protocol codec and an end-to-end scripted
   session against an in-process server. *)

open Bagcqc_serve
module Json = Bagcqc_obs.Json

let kind_t =
  Alcotest.testable
    (fun fmt k -> Format.pp_print_string fmt (Protocol.kind_name k))
    ( = )

(* ---------------- request parsing ---------------- *)

let test_parse_check () =
  match
    Protocol.parse_line
      {|{"id":1,"op":"check","q1":"R(x,y), R(y,z)","q2":"R(x,y)"}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e.Protocol.message
  | Ok env ->
    (match env.Protocol.id with
     | Json.Num 1.0 -> ()
     | j -> Alcotest.failf "id not echoed: %s" (Json.to_string j));
    Alcotest.(check (option (float 0.0))) "no deadline" None env.Protocol.deadline_ms;
    (match env.Protocol.request with
     | Protocol.Check { max_factors; want_certificate; _ } ->
       Alcotest.(check int) "default max_factors" 14 max_factors;
       Alcotest.(check bool) "default certificate" false want_certificate
     | _ -> Alcotest.fail "not parsed as check")

let test_parse_options () =
  match
    Protocol.parse_line
      {|{"id":"a","op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":5,"certificate":true,"deadline_ms":250}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e.Protocol.message
  | Ok env ->
    Alcotest.(check (option (float 0.0))) "deadline" (Some 250.0)
      env.Protocol.deadline_ms;
    (match env.Protocol.request with
     | Protocol.Check { max_factors; want_certificate; _ } ->
       Alcotest.(check int) "max_factors" 5 max_factors;
       Alcotest.(check bool) "certificate" true want_certificate
     | _ -> Alcotest.fail "not parsed as check")

let expect_kind msg kind line =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" msg
  | Error e -> Alcotest.check kind_t msg kind e.Protocol.kind

let test_parse_errors () =
  expect_kind "not JSON" Protocol.Parse "this is not JSON";
  expect_kind "not an object" Protocol.Parse "[1,2,3]";
  expect_kind "missing op" Protocol.Bad_request {|{"id":1}|};
  expect_kind "unknown op" Protocol.Bad_request {|{"id":1,"op":"frobnicate"}|};
  expect_kind "composite id" Protocol.Bad_request {|{"id":[1],"op":"ping"}|};
  expect_kind "missing q2" Protocol.Bad_request {|{"op":"check","q1":"R(x,y)"}|};
  expect_kind "query syntax" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,","q2":"R(x,y)"}|};
  expect_kind "max_factors zero" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":0}|};
  expect_kind "max_factors over the cap" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":17}|};
  (match
     Protocol.parse_line
       {|{"op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":16}|}
   with
   | Ok { Protocol.request = Protocol.Check { max_factors = 16; _ }; _ } -> ()
   | _ -> Alcotest.fail "max_factors at the cap must parse");
  expect_kind "max_factors fractional" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":3.5}|};
  expect_kind "negative deadline" Protocol.Bad_request
    {|{"op":"ping","deadline_ms":-5}|};
  (* The id must still be echoed on a bad request when extractable. *)
  (match Protocol.parse_line {|{"id":"req-7","op":"frobnicate"}|} with
   | Error { Protocol.id = Json.Str "req-7"; _ } -> ()
   | Error e -> Alcotest.failf "id lost: %s" (Json.to_string e.Protocol.id)
   | Ok _ -> Alcotest.fail "unexpectedly parsed")

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Protocol.kind_of_name (Protocol.kind_name k) with
      | Some k' -> Alcotest.check kind_t (Protocol.kind_name k) k k'
      | None -> Alcotest.failf "%s does not round-trip" (Protocol.kind_name k))
    [ Protocol.Parse; Protocol.Bad_request; Protocol.Deadline_exceeded;
      Protocol.Overloaded; Protocol.Shutting_down; Protocol.Internal ]

let test_reply_shapes () =
  let reply =
    Protocol.error_reply
      { Protocol.id = Json.Str "r"; kind = Protocol.Overloaded;
        message = "queue full" }
  in
  (* Replies must round-trip through our own parser: the wire format is
     self-hosting. *)
  let j = Json.parse (Json.to_string reply) in
  (match Json.find_opt "ok" j with
   | Some (Json.Bool false) -> ()
   | _ -> Alcotest.fail "error reply not ok:false");
  (match Json.find_opt "error" j with
   | Some e ->
     (match Json.find_opt "kind" e with
      | Some (Json.Str "overloaded") -> ()
      | _ -> Alcotest.fail "kind not serialized")
   | None -> Alcotest.fail "no error object");
  let ok = Protocol.ok (Json.Num 3.0) [ ("pong", Json.Bool true) ] in
  match Json.find_opt "ok" (Json.parse (Json.to_string ok)) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "ok reply not ok:true"

(* ---------------- end to end ---------------- *)

let test_selftest () =
  match Selftest.run () with
  | Error msg -> Alcotest.failf "serve selftest: %s" msg
  | Ok steps ->
    Alcotest.(check (list string)) "all steps ran"
      [ "ping"; "check contained"; "cached re-check"; "check not contained";
        "check with heads"; "malformed line"; "bad query"; "unknown op";
        "deadline exceeded"; "extended stats"; "graceful drain" ]
      steps

let suite =
  [ Alcotest.test_case "parse check defaults" `Quick test_parse_check;
    Alcotest.test_case "parse check options" `Quick test_parse_options;
    Alcotest.test_case "parse typed errors" `Quick test_parse_errors;
    Alcotest.test_case "error kind names" `Quick test_kind_names_roundtrip;
    Alcotest.test_case "reply shapes" `Quick test_reply_shapes;
    Alcotest.test_case "end-to-end selftest" `Quick test_selftest ]
