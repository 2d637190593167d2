(* bagbench: the repository benchmark (see README.md).

     bagbench --workload fleet|frontier|serve --seed N --seconds S --trace 0|1

   One workload per run, under a pinned engine configuration (cone lazy,
   LP float_first, the workload's jobs, solver cache on; the BAGCQC_*
   environment switches are overridden).  Every output is checked.  The
   last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1.
   A human-readable report goes to standard error and a detailed record
   to OUT_DIR. *)

open Bagcqc_check
module Json = Bagcqc_obs.Json
open Report

let fleet_total = 10_000
let frontier_jobs = 2

(* The checked-in corpus the fleet generator must reproduce, and its seed. *)
let reference_corpus = "corpus/check-10k.jsonl"
let reference_seed = 42

let config_json ~jobs ~transport =
  Json.Obj (Sweep_lib.config_fields ~transport ~jobs @ [ ("cache", Json.Str "on") ])

let corpus_text kind ~seed insts =
  Corpus.header_line kind ~seed ~count:(List.length insts) ^ "\n" ^ Inproc.instance_lines insts

let failures_json fs =
  Json.Arr (List.map (fun (reason, line) -> Json.Obj [ ("reason", Json.Str reason); ("instance", Json.Str line) ]) fs)

(* ---------------- set-up ---------------- *)

(* Generation and labelling run at jobs=1 in every workload: at jobs > 1
   the oracle's speculative Γn solve would only add set-up work. *)
let fleet_setup ~seed () =
  Inproc.pin ~jobs:1;
  let insts = Corpus.generate Corpus.Check ~seed ~total:fleet_total in
  (* generation ran the oracle, which filled the cache and the counters *)
  Inproc.pin ~jobs:1;
  let items = Inproc.items_of insts in
  Inproc.untimed_pass items;
  (insts, items)

let frontier_setup ~seed () =
  Inproc.pin ~jobs:1;
  let insts = Frontier.generate ~seed in
  Inproc.pin ~jobs:frontier_jobs;
  let items = Inproc.items_of insts in
  Inproc.untimed_pass items;
  (insts, items)

let fleet_reference_check () =
  Inproc.pin ~jobs:1;
  let seed = reference_seed in
  let expected =
    corpus_text Corpus.Check ~seed (Corpus.generate Corpus.Check ~seed ~total:fleet_total)
  in
  match In_channel.with_open_bin reference_corpus In_channel.input_all with
  | exception Sys_error msg ->
    prerr_endline ("bagbench: " ^ msg);
    false
  | actual -> actual = expected

(* ---------------- in-process workloads ---------------- *)

let write_spans path (m : Tracer.acc) =
  let spans = List.sort (fun a b -> Int64.compare a.Tracer.start_ns b.Tracer.start_ns) m.Tracer.kept in
  let epoch = match spans with s :: _ -> s.Tracer.start_ns | [] -> 0L in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (s : Tracer.span) ->
          let counters =
            List.filteri (fun _ (_, d) -> d <> 0) (List.combine Tracer.counter_names (Array.to_list s.deltas))
          in
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("rid", inum s.rid);
                    ("name", Json.Str (Tracer.layer_name s.layer));
                    ("parent", if s.layer = Tracer.Decide then Json.Null else Json.Str "decide");
                    ("start_us", num (Clock.us_between epoch s.start_ns));
                    ("dur_us", num (s.dur_ns /. 1e3));
                    ("self_us", num (s.self_ns /. 1e3));
                    ("minor_words", num s.words);
                    ("counters", Json.Obj (List.map (fun (n, d) -> (n, inum d)) counters)) ]));
          output_char oc '\n')
        spans)

let per_decision phase name =
  float_of_int (Sweep_lib.lookup name phase.Inproc.counters) /. float_of_int (max 1 phase.Inproc.decisions)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-layer figures of a traced phase; [plain] is the untraced phase
   run just before it on the same inputs. *)
let layer_metrics ~jobs ~(plain : Inproc.phase) ~(traced : Inproc.phase) (m : Tracer.acc) =
  let d = float_of_int (max 1 m.count.(Tracer.index Tracer.Decide)) in
  let self l = m.self_ns.(Tracer.index l) /. 1e3 /. d in
  let words l = m.words.(Tracer.index l) /. d in
  let total l = m.total_ns.(Tracer.index l) in
  let children = List.filter (fun l -> l <> Tracer.Decide) Tracer.layers in
  let coverage = List.fold_left (fun acc l -> acc +. total l) 0.0 children /. total Tracer.Decide in
  let cert_s = total Tracer.Cert_check /. 1e9 in
  let traced_dps = d /. (traced.wall_s -. (cert_s /. float_of_int jobs)) in
  let plain_dps = float_of_int plain.decisions /. plain.wall_s in
  let c = Sweep_lib.lookup and tc = traced.counters in
  let hits = c "solver.cache.hits" tc and misses = c "solver.cache.misses" tc in
  let per_call l = ratio m.sizes.(Tracer.index l) m.count.(Tracer.index l) in
  let pd = per_decision traced in
  [ ("decide.self_us", self Tracer.Decide, "us");
    ("core.eq8.us", self Tracer.Eq8, "us");
    ("core.eq8.alloc_words", words Tracer.Eq8, "words");
    ("core.eq8.sides", per_call Tracer.Eq8, "count");
    ("cq.hom.enumerations", pd "hom.enumerations", "count");
    ("core.witness.us", self Tracer.Witness, "us");
    ("entropy.normal.us", self Tracer.Normal, "us");
    ("entropy.gamma.us", self Tracer.Gamma, "us");
    ("entropy.gamma.alloc_words", words Tracer.Gamma, "words");
    ("cone.lazy.rounds", pd "cone.lazy.rounds", "count");
    ("cone.lazy.cuts", pd "cone.lazy.cuts", "count");
    ("cone.orbit.cuts", pd "cone.orbit.cuts", "count");
    ("cone.lazy.fallbacks", pd "cone.lazy.fallbacks", "count");
    ("entropy.cert_check.us", self Tracer.Cert_check, "us");
    ("entropy.cert.size", per_call Tracer.Cert_check, "count");
    ("lp.solves", pd "lp.solves", "count");
    ("lp.pivots", pd "lp.pivots", "count");
    ("lp.float.probes", pd "lp.float.probes", "count");
    ("lp.hybrid.repairs", pd "lp.hybrid.repairs", "count");
    ("lp.hybrid.float_solves", pd "lp.hybrid.float_solves", "count");
    ("lp.hybrid.fallback_ratio", ratio (c "lp.hybrid.fallbacks" tc) (c "lp.hybrid.float_solves" tc), "share");
    ("engine.cache.hit_ratio", Sweep_lib.rate hits misses, "share");
    ("engine.cache.hits", pd "solver.cache.hits", "count");
    ("engine.cache.misses", pd "solver.cache.misses", "count");
    ("engine.cache.size", float_of_int (Bagcqc_engine.Solver.cache_size ()), "count");
    ("par.busy_share", plain.busy_share, "share");
    ("par.straggler_ms", plain.straggler_ms, "ms");
    ("trace.overhead", (plain_dps /. traced_dps) -. 1.0, "share");
    ("trace.span_coverage", coverage, "share");
    ("peak_rss_mb", plain.peak_rss_mb, "MB") ]

let strata_json insts =
  let groups = Sweep_lib.group_by_stratum insts in
  Json.Obj (List.map (fun (name, l) -> (name, inum (List.length l))) groups)

let latency_json (s : Samples.t) =
  Json.Obj
    [ ("samples", inum (Samples.length s)); ("p50", num (Samples.median s));
      ("p99", tail_json s 0.99); ("max", num (Samples.percentile s 1.0)) ]

let phase_json (ph : Inproc.phase) =
  Json.Obj
    [ ("decisions", inum ph.decisions); ("failed", inum ph.failed);
      ("fail_share", num (ratio ph.failed ph.decisions));
      ("passes", inum (Samples.length ph.pass_dps)); ("decide_wall_s", num ph.wall_s);
      ("latency_us", latency_json ph.latency_us);
      ("pass_dps", Json.Arr (List.map num (Samples.to_list ph.pass_dps)));
      ("par_busy_share", num ph.busy_share);
      ("par_straggler_ms", num ph.straggler_ms);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, inum v)) ph.counters));
      ("latency_us_by_stratum", Json.Obj (List.map (fun (n, s) -> (n, latency_json s)) ph.by_stratum));
      ("slowest", Json.Arr (List.map (fun (us, line) -> Json.Obj [ ("us", num us); ("instance", Json.Str line) ]) ph.slowest));
      ("failures", failures_json ph.failures) ]

let run_inproc ~workload ~seed ~seconds ~trace ~out_dir =
  let name, jobs, setup =
    match workload with
    | `Fleet -> ("fleet", 1, fleet_setup ~seed)
    | `Frontier -> ("frontier", frontier_jobs, frontier_setup ~seed)
  in
  let reference =
    match workload with
    | `Fleet when not trace -> [ ("fleet_seed42_matches_corpus", fleet_reference_check ()) ]
    | _ -> []
  in
  let reps = if trace then 1 else Inproc.setup_reps in
  let (insts, items), setup_s, same =
    Inproc.repeated_setup ~reps ~text:(fun (insts, _) -> Inproc.instance_lines insts) setup
  in
  let selfchecks = ("setup_repetitions_identical", same) :: reference in
  (* the measured phase starts from a compact heap, and its own peak *)
  Gc.compact ();
  reset_peak_rss "self";
  let common =
    [ ("workload", Json.Str name); ("seed", inum seed); ("holdout_seed", inum Inproc.holdout_seed);
      ("config", config_json ~jobs ~transport:"inproc");
      ("instances", inum (Array.length items)); ("strata", strata_json insts);
      ("setup_reps", inum reps); ("setup_s", num setup_s);
      ("selfchecks", Json.Obj (List.map (fun (n, b) -> (n, Json.Bool b)) selfchecks)) ]
  in
  if not trace then begin
    let ph = Inproc.run_phase ~seconds ~decide:Inproc.untraced items in
    let p99 = tail_value ph.latency_us 0.99 in
    { attempted = ph.decisions;
      failed = ph.failed;
      selfchecks;
      metrics =
        [ ("throughput_dps", float_of_int ph.decisions /. ph.wall_s, "1/s");
          ("latency_p50_us", Samples.median ph.latency_us, "us");
          ("latency_p99_us", p99, "us");
          (* in process every decision runs unqueued: the low-load p99 *)
          ("latency_p99_us_low", p99, "us");
          ("setup_s", setup_s, "s") ];
      detail = common @ [ ("measured", phase_json ph) ] }
  end
  else begin
    let half = seconds /. 2.0 in
    let plain = Inproc.run_phase ~seconds:half ~decide:Inproc.untraced items in
    Tracer.reset ();
    let traced = Inproc.run_phase ~seconds:half ~decide:Inproc.traced items in
    let m = Tracer.merged () in
    let spans_path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed) in
    write_spans spans_path m;
    { attempted = plain.decisions + traced.decisions;
      failed = plain.failed + traced.failed;
      selfchecks;
      metrics = all_layers (layer_metrics ~jobs ~plain ~traced m);
      detail =
        common
        @ [ ("untraced", phase_json plain); ("traced", phase_json traced);
            ("spans_file", Json.Str spans_path); ("spans_kept", inum m.nkept);
            ("spans_dropped", inum m.dropped);
            ("instrumentation_s", num (m.instr_ns /. 1e9)) ] }
  end

(* ---------------- entry point ---------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "perfbench/_out" and main_exe = ref "_build/default/bin/main.exe" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME fleet, frontier or serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the detailed record and spans go");
      ("--main-exe", Arg.Set_string main_exe, "PATH the bagcqc binary the serve workload boots") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bagbench [options]";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "bagbench: --trace must be 0 or 1"; exit 2);
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and out_dir = !out_dir in
  let r =
    match !workload with
    | "fleet" -> run_inproc ~workload:`Fleet ~seed ~seconds ~trace ~out_dir
    | "frontier" -> run_inproc ~workload:`Frontier ~seed ~seconds ~trace ~out_dir
    | "serve" -> Serve_load.run ~seed ~seconds ~trace ~out_dir ~main_exe:!main_exe
    | w -> prerr_endline ("bagbench: unknown workload " ^ w); exit 2
  in
  let detail_path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.json" !workload seed (Bool.to_int trace))
  in
  let detail =
    Json.Obj
      (r.detail
      @ [ ("attempted", inum r.attempted); ("failed", inum r.failed);
          ("metrics", Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str u) ])) r.metrics)) ])
  in
  Out_channel.with_open_bin detail_path (fun oc -> output_string oc (Json.to_string detail ^ "\n"));
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-30s %14.3f %s\n" n v u) r.metrics;
  List.iter (fun (n, ok) -> if not ok then Printf.eprintf "bagbench: SELF-CHECK FAILED: %s\n" n) r.selfchecks;
  Printf.eprintf "bagbench: %s seed %d: %d attempted, %d failed; detail in %s\n%!" !workload seed
    r.attempted r.failed detail_path;
  print_endline (Report.line r)
