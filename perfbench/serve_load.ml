(* The serve workload: one Unix-socket connection to a freshly booted
   `bagcqc serve --jobs 1` child with its default admission bound.

   The connection carries fleet pairs, in passes over the pairs, each
   pass in its own seeded order, in two phases: first with one request
   in flight at a time (a request never waits behind another), then with
   [high_window] in flight (the admission queue and the dispatcher's
   batches are never empty).  A request's latency runs from the moment
   it was written to the moment its reply was read, so it covers the
   whole request path: socket I/O, parsing, the admission queue, the
   wait behind earlier requests of a batch, the solve and the reply's
   encoding.  Each reply's own queue and solve times, and the daemon's
   [stats] verb read before, between and after the two phases, give the
   per-layer split.

   `run.py` pins this process, and so the daemon it starts, to one CPU:
   a request then never waits for the host to wake a second, idle CPU. *)

open Bagcqc_check
module Json = Bagcqc_obs.Json
module Client = Bagcqc_serve.Client
module Protocol = Bagcqc_serve.Protocol

(* Requests in flight in the high phase: well under the daemon's default
   admission bound of 256, so no request is refused as overloaded. *)
let high_window = 32
(* Share of the measured seconds spent with one request in flight. *)
let low_share = 0.4
let reply_timeout_s = 30.0

type request = { inst : Corpus.instance; body : string  (** the line after its id *) }

let request_of inst =
  match inst.Corpus.payload with
  | Corpus.Check_pair { q1; q2 } ->
    let tail =
      Json.to_string
        (Json.Obj
           [ ("op", Json.Str "check");
             ("q1", Json.Str (Bagcqc_cq.Query.to_string q1));
             ("q2", Json.Str (Bagcqc_cq.Query.to_string q2)) ])
    in
    (* {"op":...} -> ,"op":...} so that {"id":N is prepended per send *)
    { inst; body = "," ^ String.sub tail 1 (String.length tail - 1) }
  | Corpus.Iip_sides _ -> invalid_arg "serve workload: containment pairs only"

(* The requests in order: passes over [reqs], each pass in its own
   seeded order, so every pair is sent as often as every other (give or
   take one). *)
let request_stream ~seed reqs =
  let rng = Rng.derive seed 2000 in
  let order = Array.copy reqs and k = ref (Array.length reqs) in
  fun () ->
    if !k = Array.length order then begin
      for i = Array.length order - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      k := 0
    end;
    incr k;
    order.(!k - 1)

(* ---------------- the daemon child ---------------- *)

type daemon = { pid : int; socket : string; client : Client.t }

(* Daemons not yet reaped; killed and reaped at exit if the run dies. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.length kv >= 7 && String.sub kv 0 7 = "BAGCQC_"))
  |> Array.of_list

let boot ~main_exe ~out_dir =
  let socket = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log = Unix.openfile (Filename.concat out_dir "serve-daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| main_exe; "serve"; "--socket"; socket; "--jobs"; "1"; "--lp-engine"; "float_first";
       "--cone-engine"; "lazy" |]
  in
  let pid = Unix.create_process_env main_exe argv (child_env ()) devnull log log in
  live := pid :: !live;
  Unix.close log;
  Unix.close devnull;
  { pid; socket; client = Client.connect ~retry_ms:20_000 (Protocol.Unix_path socket) }

(* Ask the daemon to drain, read its end of the connection, and return
   its pid for [reap]. *)
let stop d =
  (try Client.send_line d.client {|{"id":-99,"op":"shutdown"}|} with Sys_error _ -> ());
  let rec read () = match Client.recv_line d.client with Some _ -> read () | None -> () in
  (try read () with Sys_error _ -> ());
  d.pid

(* Waits up to 10 s for the daemon to exit, then kills it; a clean drain
   exits 0. *)
let reap d pid =
  Client.close d.client;
  let rec wait k =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when k > 0 -> Thread.delay 0.05; wait (k - 1)
    | 0, _ -> Unix.kill pid Sys.sigkill; snd (Unix.waitpid [] pid)
    | _, status -> status
  in
  let status = wait 200 in
  live := List.filter (( <> ) pid) !live;
  (try Unix.unlink d.socket with Unix.Unix_error _ -> ());
  status = Unix.WEXITED 0

(* ---------------- the measured connection ---------------- *)

(* One thread writes the requests and reads the replies, from a
   non-blocking socket: the client adds no second thread or domain for
   the scheduler to wake. *)
type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;  (** a reply line not yet complete *)
  mutable out : string;  (** requests not yet written *)
  mutable off : int;
  mutable eof : bool;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096; out = ""; off = 0; eof = false }

let pending c = c.off < String.length c.out

let flush c =
  try
    while pending c do
      c.off <- c.off + Unix.single_write_substring c.fd c.out c.off (String.length c.out - c.off)
    done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let send c line =
  c.out <- (if pending c then String.sub c.out c.off (String.length c.out - c.off) else "") ^ line ^ "\n";
  c.off <- 0;
  flush c

(* Reads what the socket holds and hands each complete line to [f]. *)
let receive c f =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> c.eof <- true
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes c.partial c.chunk !start (i - !start);
        f (Buffer.contents c.partial);
        Buffer.clear c.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.partial c.chunk !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

(* Waits until a reply comes, the socket takes more of the pending
   requests, or [deadline] passes. *)
let wait c deadline f =
  let timeout = Float.max 0.0 (Clock.s_between (Clock.now_ns ()) deadline) in
  let r, w, _ =
    try Unix.select (if c.eof then [] else [ c.fd ]) (if pending c then [ c.fd ] else []) [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if r <> [] then receive c f;
  if w <> [] then flush c

let after_s s = Int64.add (Clock.now_ns ()) (Int64.of_float (s *. 1e9))

(* Reads the connection to its end (the daemon closes it when it
   drains), for at most 10 s. *)
let finish c =
  let give_up = after_s 10.0 in
  while not c.eof && Clock.now_ns () < give_up do wait c give_up ignore done;
  Unix.close c.fd

(* The string field [key] of a reply line, found without building the
   JSON tree, so that reading a reply allocates little. *)
let field line key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then Some (i + lp)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i when i < n && line.[i] = '"' -> (
    match String.index_from_opt line (i + 1) '"' with
    | Some j -> Some (String.sub line (i + 1) (j - i - 1))
    | None -> None)
  | Some i ->
    let j = ref i in
    let numeric c = c = '-' || c = '.' || c = 'e' || c = 'E' || c = '+' || (c >= '0' && c <= '9') in
    while !j < n && numeric line.[!j] do incr j done;
    Some (String.sub line i (!j - i))

(* What one phase measured. *)
type phase = {
  latency_us : Samples.t;  (** write to reply; [lost_us] for a failed request *)
  daemon_us : Samples.t;  (** the replies' own queue_ms + solve_ms *)
  gap_us : Samples.t;  (** reply read to the request that refilled its slot *)
  mutable sent : int;
  mutable answered : int;  (** correct replies *)
  mutable failed : int;
  mutable first_ns : int64;
  mutable last_ns : int64;
}

let new_phase () =
  { latency_us = Samples.create (); daemon_us = Samples.create (); gap_us = Samples.create ();
    sent = 0; answered = 0; failed = 0; first_ns = 0L; last_ns = 0L }

type flight = { req : request; sent_ns : int64; ph : phase }

(* A failed or missing reply misses every latency limit. *)
let lost_us = reply_timeout_s *. 1e6

let run_loop ~seconds d next_request =
  let c = connect d.socket in
  let low = new_phase () and high = new_phase () in
  let in_flight = Hashtbl.create 64 and stats = Hashtbl.create 4 in
  let failures = ref [] and next_id = ref 0 and read_ns = ref 0L in
  let fail ph req answer =
    ph.failed <- ph.failed + 1;
    Samples.add ph.latency_us lost_us;
    if List.length !failures < Inproc.max_failures_kept then begin
      let line = Corpus.instance_line req.inst in
      Printf.eprintf "bagbench: FAILED (got %s): %s\n%!" answer line;
      failures := (answer, line) :: !failures
    end
  in
  let on_reply line =
    let now = Clock.now_ns () in
    read_ns := now;
    let id = match field line "id" with Some v -> int_of_string_opt v | None -> None in
    match Option.bind id (Hashtbl.find_opt in_flight) with
    | Some f ->
      Hashtbl.remove in_flight (Option.get id);
      let answer =
        match (field line "verdict", field line "kind") with
        | Some v, _ -> v
        | None, Some kind -> "error:" ^ kind
        | None, None -> "error:malformed_reply"
      in
      if answer <> f.req.inst.Corpus.verdict then fail f.ph f.req answer
      else begin
        let ms k = match field line k with Some v -> Option.value (float_of_string_opt v) ~default:0.0 | None -> 0.0 in
        Samples.add f.ph.latency_us (Clock.us_between f.sent_ns now);
        f.ph.answered <- f.ph.answered + 1;
        Samples.add f.ph.daemon_us ((ms "queue_ms" +. ms "solve_ms") *. 1e3);
        f.ph.last_ns <- now
      end
    | None -> (
      (* stats replies carry negative ids *)
      match id with
      | Some id when id < 0 -> Hashtbl.replace stats id (Json.parse line)
      | _ -> failwith ("serve workload: unexpected reply " ^ line))
  in
  let ask id = send c (Printf.sprintf {|{"id":%d,"op":"stats"}|} id) in
  let await_stats id =
    let give_up = after_s reply_timeout_s in
    while not (Hashtbl.mem stats id || c.eof) && Clock.now_ns () < give_up do wait c give_up on_reply done;
    match Hashtbl.find_opt stats id with Some j -> j | None -> failwith "serve workload: no stats reply"
  in
  (* Keeps [window] requests of [ph] in flight until [until]. *)
  let phase ph ~window ~until =
    ph.first_ns <- Clock.now_ns ();
    while Clock.now_ns () < until && not c.eof do
      if Hashtbl.length in_flight < window then begin
        let req = next_request () and id = !next_id in
        incr next_id;
        let now = Clock.now_ns () in
        if Int64.compare !read_ns ph.first_ns > 0 then Samples.add ph.gap_us (Clock.us_between !read_ns now);
        Hashtbl.replace in_flight id { req; sent_ns = now; ph };
        ph.sent <- ph.sent + 1;
        send c ("{\"id\":" ^ string_of_int id ^ req.body)
      end
      else wait c until on_reply
    done
  in
  (* start on a compact heap with a roomy minor heap, so the client's
     own collections stay short *)
  Gc.compact ();
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  ask (-1);
  let s0 = await_stats (-1) in
  let start = Clock.now_ns () in
  let s_at share = Int64.add start (Int64.of_float (seconds *. share *. 1e9)) in
  phase low ~window:1 ~until:(s_at low_share);
  ask (-2);
  phase high ~window:high_window ~until:(s_at 1.0);
  let give_up = after_s reply_timeout_s in
  while Hashtbl.length in_flight > 0 && not c.eof && Clock.now_ns () < give_up do
    wait c give_up on_reply
  done;
  (* a request still in flight got no reply *)
  Hashtbl.iter (fun _ f -> fail f.ph f.req "error:no_reply") in_flight;
  ask (-3);
  let s1 = await_stats (-2) in
  let s2 = await_stats (-3) in
  (c, low, high, s0, s1, s2, List.rev !failures)

(* ---------------- the workload ---------------- *)

let setup ~seed ~main_exe ~out_dir () =
  Inproc.pin ~jobs:1;
  let fleet = Corpus.generate Corpus.Check ~seed ~total:10_000 in
  Inproc.pin ~jobs:1;
  let d = boot ~main_exe ~out_dir in
  (* warm-up: every fleet pair once, closed loop, verdicts checked *)
  let _, _, _, _, mismatches, _ =
    Sweep_lib.serve_stratum d.client ~window:64 ~observe_hist:ignore ("warmup", fleet)
  in
  (fleet, d, mismatches = [])

let hist stats name field =
  Json.as_num (Json.member field (Json.member name (Json.member "histograms" stats)))

(* Mean of a daemon histogram between two stats snapshots. *)
let delta_mean s0 s1 name =
  let c0 = hist s0 name "count" and c1 = hist s1 name "count" in
  if c1 <= c0 then 0.0 else ((hist s1 name "mean" *. c1) -. (hist s0 name "mean" *. c0)) /. (c1 -. c0)

let delta s0 s1 field = Json.as_num (Json.member field s1) -. Json.as_num (Json.member field s0)

let run ~seed ~seconds ~trace ~out_dir ~main_exe =
  let reps = if trace then 1 else Inproc.setup_reps in
  let previous = ref None in
  let (fleet, d, warm_ok), setup_s, same =
    Inproc.repeated_setup ~reps
      ~text:(fun (fleet, _, _) -> Inproc.instance_lines fleet)
      (fun () ->
        (* a repetition replaces the previous daemon *)
        Option.iter (fun d -> ignore (reap d (stop d))) !previous;
        let (_, d, _) as r = setup ~seed ~main_exe ~out_dir () in
        previous := Some d;
        r)
  in
  let next_request = request_stream ~seed (Array.of_list (List.map request_of fleet)) in
  let c, low, high, s0, s1, s2, failures = run_loop ~seconds d next_request in
  let rss = Report.peak_rss_mb (string_of_int d.pid) in
  let pid = stop d in
  finish c;
  let clean_exit = reap d pid in
  let throughput =
    float_of_int high.answered /. Clock.s_between high.first_ns high.last_ns
  in
  let gap = Samples.create () in
  List.iter (fun ph -> Float.Array.iter (Samples.add gap) (Samples.to_array ph.gap_us)) [ low; high ];
  let queue_us = delta_mean s1 s2 "serve.queue_us" and solve_us = delta_mean s1 s2 "serve.solve_us" in
  let attempted = low.sent + high.sent in
  let per_request field = delta s0 s2 field /. float_of_int attempted in
  let hits = delta s0 s2 "cache_hits" and misses = delta s0 s2 "cache_misses" in
  let pooled_json s = Json.Obj [ ("samples", Report.inum (Samples.length s)); ("p50", Report.num (Samples.median s)); ("p99", Report.tail_json s 0.99) ] in
  let phase_json ~window ph =
    Json.Obj
      [ ("window", Report.inum window); ("sent", Report.inum ph.sent); ("failed", Report.inum ph.failed);
        ("replies_per_s", Report.num (float_of_int ph.answered /. Clock.s_between ph.first_ns ph.last_ns));
        ("latency_us", pooled_json ph.latency_us); ("daemon_us", pooled_json ph.daemon_us);
        ("client_gap_us", pooled_json ph.gap_us) ]
  in
  let detail =
    [ ("workload", Json.Str "serve"); ("seed", Report.inum seed);
      ("holdout_seed", Report.inum Inproc.holdout_seed);
      ("config", Json.Obj
                   [ ("cone", Json.Str "lazy"); ("lp", Json.Str "float_first"); ("jobs", Report.inum 1);
                     ("transport", Json.Str "serve"); ("cache", Json.Str "on");
                     ("max_queue", Json.Str "default");
                     ("low_window", Report.inum 1); ("high_window", Report.inum high_window) ]);
      ("fleet_pairs", Report.inum (List.length fleet)); ("requests", Report.inum attempted);
      ("setup_reps", Report.inum reps); ("setup_s", Report.num setup_s);
      ("low", phase_json ~window:1 low); ("high", phase_json ~window:high_window high);
      ("queue_depth_after_high", Json.member "queue_depth" s2);
      ("overloaded", Report.num (delta s0 s2 "overloaded"));
      ("daemon_peak_rss_mb", Report.num rss);
      ("daemon_clean_exit", Json.Bool clean_exit);
      ("failures", Json.Arr (List.map (fun (r, l) -> Json.Obj [ ("reason", Json.Str r); ("instance", Json.Str l) ]) failures)) ]
  in
  let selfchecks =
    [ ("setup_repetitions_identical", same); ("warmup_verdicts_match_labels", warm_ok);
      ("daemon_clean_exit", clean_exit) ]
  in
  let metrics =
    if not trace then
      [ ("throughput_dps", throughput, "1/s");
        ("latency_p50_us", Samples.median high.latency_us, "us");
        ("latency_p99_us", Report.tail_value high.latency_us 0.99, "us");
        ("latency_p99_us_low", Report.tail_value low.latency_us 0.99, "us");
        ("setup_s", setup_s, "s") ]
    else
      Report.all_layers
        [ ("serve.queue_us.mean", queue_us, "us"); ("serve.solve_us.mean", solve_us, "us");
          ("serve.client_overhead_us",
           Samples.mean high.latency_us -. queue_us -. solve_us, "us");
          ("serve.errors", delta s0 s2 "errors", "count");
          ("serve.overloaded", delta s0 s2 "overloaded", "count");
          ("serve.deadline_expired", delta s0 s2 "deadline_expired", "count");
          ("bench.client_gap_us.p99", Report.tail_value gap 0.99, "us");
          ("engine.cache.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "share");
          ("engine.cache.hits", per_request "cache_hits", "count");
          ("engine.cache.misses", per_request "cache_misses", "count");
          ("engine.cache.size", Json.as_num (Json.member "cache_size" s2), "count");
          ("lp.solves", per_request "lp_solves", "count");
          ("lp.pivots", per_request "lp_pivots", "count");
          ("peak_rss_mb", rss, "MB") ]
  in
  { Report.attempted; failed = low.failed + high.failed; selfchecks; metrics; detail }
