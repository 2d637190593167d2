(* The result of one run, and the JSON helpers the workloads share. *)

module Json = Bagcqc_obs.Json

type t = {
  attempted : int;
  failed : int;
  selfchecks : (string * bool) list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  detail : (string * Json.t) list;
}
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let line r =
  let correct = r.failed = 0 && List.for_all snd r.selfchecks in
  let metrics =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v) u)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed (String.concat ", " metrics)

let num v = Json.Num v
let inum i = Json.Num (float_of_int i)

let tail_json (s : Samples.t) p =
  match Samples.tail s p with
  | None -> Json.Null
  | Some t ->
    Json.Obj [ ("percentile", num t.p); ("value", num t.value); ("samples", inum t.n);
               ("beyond", inum t.beyond) ]

let tail_value s p = match Samples.tail s p with Some t -> t.Samples.value | None -> 0.0

(* Restart a process's VmHWM at its current RSS, so the peak covers the
   measured phase rather than set-up. *)
let reset_peak_rss pid =
  try Out_channel.with_open_text (Printf.sprintf "/proc/%s/clear_refs" pid) (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' text)


(* Every per-layer metric, in output order. *)
let per_layer_names =
  [ ("decide.self_us", "us"); ("core.eq8.us", "us"); ("core.eq8.alloc_words", "words");
    ("core.eq8.sides", "count"); ("cq.hom.enumerations", "count"); ("core.witness.us", "us");
    ("entropy.normal.us", "us"); ("entropy.gamma.us", "us");
    ("entropy.gamma.alloc_words", "words"); ("cone.lazy.rounds", "count");
    ("cone.lazy.cuts", "count"); ("cone.orbit.cuts", "count"); ("cone.lazy.fallbacks", "count");
    ("entropy.cert_check.us", "us"); ("entropy.cert.size", "count"); ("lp.solves", "count");
    ("lp.pivots", "count"); ("lp.float.probes", "count"); ("lp.hybrid.repairs", "count");
    ("lp.hybrid.float_solves", "count"); ("lp.hybrid.fallback_ratio", "share");
    ("engine.cache.hit_ratio", "share"); ("engine.cache.hits", "count");
    ("engine.cache.misses", "count"); ("engine.cache.size", "count");
    ("par.busy_share", "share"); ("par.straggler_ms", "ms"); ("serve.queue_us.mean", "us");
    ("serve.solve_us.mean", "us"); ("serve.client_overhead_us", "us");
    ("serve.errors", "count"); ("serve.overloaded", "count");
    ("serve.deadline_expired", "count"); ("bench.client_gap_us.p99", "us");
    ("trace.overhead", "share"); ("trace.span_coverage", "share"); ("peak_rss_mb", "MB") ]

(* [ms] completed to every per-layer metric, 0 where the workload does
   not measure it. *)
let all_layers ms =
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n per_layer_names) then invalid_arg ("unlisted per-layer metric " ^ n))
    ms;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun (m, _, _) -> m = n) ms with Some x -> x | None -> (n, 0.0, u))
    per_layer_names
