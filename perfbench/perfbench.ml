(* One benchmark campaign per process.

     perfbench.exe --workload NAME --seed N [--iterations N] [--trace]
                   [--no-observer] [--spans FILE]

   Sets the workload up (timed), runs one complete exploration campaign
   and prints one JSON object on stdout: the campaign's measurements, the
   counts behind them and an MD5 digest of its exported history. The
   untraced campaign runs through the public [Pool.create]/[Pool.session]
   path; [--trace] runs the same campaign through the traced loop
   ([Traced]) and adds per-layer measurements. [run.py] aggregates many
   campaigns into the benchmark's result. Checkpoints go under
   .bench_build/perfbench, relative to the working directory. *)

module Pool = Afex_cluster.Pool
module Runtime = Afex_cluster.Runtime
module Checkpoint = Afex_cluster.Checkpoint
module Remote_manager = Afex_cluster.Remote_manager
module Async_executor = Afex_cluster.Async_executor
module Message = Afex_cluster.Message
module Session = Afex.Session
module Test_case = Afex.Test_case
module Index = Afex_quality.Index
module Trace_intern = Afex_quality.Trace_intern

let now = Unix.gettimeofday
let inflight = 8
let work_dir = Filename.concat ".bench_build" "perfbench"

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let num f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
let opt_num = function Some f -> num f | None -> "null"
let opt_int = function Some i -> string_of_int i | None -> "null"

let obj fields =
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  Printf.sprintf "{%s}" (String.concat ", " (List.map field fields))

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

type setup = {
  built : Workload.built;
  target_build_s : float;
  pool_s : float;
  started : float;  (* when set-up began *)
}

let build (w : Workload.t) =
  let started = now () in
  let built = w.Workload.build () in
  { built; target_build_s = now () -. started; pool_s = 0.0; started }

(* Remove a checkpoint directory the campaign created (flat: the snapshot,
   its temp file and the journal). *)
let remove_dir dir =
  if Sys.file_exists dir then (
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755)

let checkpoint_dir () =
  Filename.concat work_dir (Printf.sprintf "ckpt-%d" (Unix.getpid ()))

let open_checkpoint ?(hooks = Checkpoint.no_hooks) ~dir w ~seed =
  let meta = [ ("workload", w.Workload.name); ("seed", string_of_int seed) ] in
  remove_dir dir;
  match Checkpoint.start ~hooks ~dir meta with
  | Ok cp -> cp
  | Error e -> failwith ("checkpoint: " ^ e)

(* ------------------------------------------------------------------ *)
(* What every campaign reports                                          *)
(* ------------------------------------------------------------------ *)

let digest (w : Workload.t) (r : Session.result) =
  let csv = Afex_report.Export.records_to_csv r in
  let json = Afex_report.Export.summary_to_json ~target:w.Workload.name r in
  Digest.to_hex (Digest.string (csv ^ json))

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The index of the merged case at which the crash-cluster count first
   reaches [k], replaying the crash stacks in merge order into a fresh
   redundancy index. The replayed final count must equal the explorer's. *)
let kth_cluster (r : Session.result) ~k =
  let index = Index.create ~intern:(Trace_intern.create ()) () in
  let reached = ref None in
  List.iteri
    (fun i (c : Test_case.t) ->
      match c.Test_case.crash_stack with
      | None -> ()
      | Some stack ->
          Index.observe index stack;
          if !reached = None && Index.cluster_count index >= k then
            reached := Some i)
    r.Session.executed;
  if Index.cluster_count index <> r.Session.crash_clusters then
    failwith "crash clusters: the replay disagrees with the session";
  !reached

let first_index p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l

(* What a campaign measured. [stamps.(i)] is the wall time, in seconds
   since the session started, at which the i-th case merged; it is absent
   when no observer watched the merges. *)
type measured = {
  setup_s : float;
  session_s : float;
  result : Session.result;
  executed : int;
  cache_hits : int;
  stamps : float array option;
  op_failures : int;
  remote_runs : int;
}

let campaign_fields (w : Workload.t) (s : setup) ~seed ~iterations m =
  let cases = m.result.Session.executed in
  let ttfv_test = first_index s.built.Workload.planted cases in
  let clusters_test = kth_cluster m.result ~k:w.Workload.cluster_target in
  let at i =
    match (i, m.stamps) with Some i, Some st -> Some st.(i) | _ -> None
  in
  let execution =
    match w.Workload.execution with
    | Workload.Inline -> "inline"
    | Workload.Fleet -> "fleet"
  in
  let rate = float_of_int m.executed /. m.session_s in
  [
    ("workload", Printf.sprintf "%S" w.Workload.name);
    ("seed", string_of_int seed);
    ("observer", string_of_bool (m.stamps <> None));
    ("digest", Printf.sprintf "%S" (digest w m.result));
    ("budget", string_of_int iterations);
    ("execution", Printf.sprintf "%S" execution);
    ("attempted", string_of_int m.result.Session.iterations);
    ("executed", string_of_int m.executed);
    ("cache_hits", string_of_int m.cache_hits);
    ("op_failures", string_of_int m.op_failures);
    ("remote_runs", string_of_int m.remote_runs);
    ("setup_s", num m.setup_s);
    ("session_s", num m.session_s);
    ("distinct_tests_per_s", num rate);
    ("ttfv_test", opt_int ttfv_test);
    ("ttfv_s", opt_num (at ttfv_test));
    ("clusters_test", opt_int clusters_test);
    ("clusters_s", opt_num (at clusters_test));
    ("crash_clusters", string_of_int m.result.Session.crash_clusters);
    ("failure_clusters", string_of_int m.result.Session.failure_clusters);
    ("peak_heap_mb", num (peak_heap_mb ()));
  ]

let op_failures (stats : (string * Remote_manager.stats) list) ~fallbacks =
  let add acc (_, r) = acc + r.Remote_manager.manager_errors in
  List.fold_left add fallbacks stats

(* ------------------------------------------------------------------ *)
(* The untraced campaign: Pool.create / Pool.session                    *)
(* ------------------------------------------------------------------ *)

let untraced (w : Workload.t) s ~seed ~iterations ~observer =
  let b = s.built in
  (* The observer only stamps the wall clock at each merge; which case
     merged is read back from the chronological history afterwards. *)
  let stamps = Array.make iterations Float.nan and merged = ref 0 in
  let started = ref 0.0 in
  let stamp () =
    if !merged < iterations then stamps.(!merged) <- now () -. !started;
    incr merged
  in
  let t0 = now () in
  let server, pool =
    match w.Workload.execution with
    | Workload.Inline ->
        (None, Pool.create ~jobs:1 (Pool.Pure b.Workload.executor))
    | Workload.Fleet ->
        let executor = b.Workload.executor in
        let server = Remote_manager.Loopback.create ~executor () in
        let remotes = [ Remote_manager.Loopback.spec server ] in
        ( Some server,
          Pool.create ~remotes ~inflight ~jobs:0 (Pool.Pure executor) )
  in
  let s = { s with pool_s = now () -. t0 } in
  let dir = checkpoint_dir () in
  (* Pool.session refuses a stop predicate together with a checkpoint, so
     the fleet workload observes merges through the journal hook. *)
  let on_append _ = stamp () in
  let checkpoint =
    match w.Workload.execution with
    | Workload.Inline -> None
    | Workload.Fleet ->
        let hooks =
          if observer then { Checkpoint.on_append; after_rename = ignore }
          else Checkpoint.no_hooks
        in
        Some (open_checkpoint ~hooks ~dir w ~seed)
  in
  let never _ =
    stamp ();
    false
  in
  let stop =
    match w.Workload.execution with
    | Workload.Inline when observer ->
        Some { Session.matches = never; count = 1 }
    | Workload.Inline | Workload.Fleet -> None
  in
  let config = b.Workload.config seed in
  let setup_s = now () -. s.started in
  started := now ();
  let result, stats =
    Pool.session ?stop ?checkpoint ~iterations pool config b.Workload.sub
  in
  let remote = Pool.remote_stats pool in
  Pool.shutdown pool;
  Option.iter Remote_manager.Loopback.shutdown server;
  Option.iter Checkpoint.close checkpoint;
  remove_dir dir;
  let attempted = result.Session.iterations in
  if observer && !merged <> attempted then
    Printf.ksprintf failwith "observer saw %d merges of %d" !merged attempted;
  let fallbacks = stats.Pool.remote_fallbacks in
  let m =
    {
      setup_s;
      session_s = stats.Pool.wall_ms /. 1000.0;
      result;
      executed = stats.Pool.executed;
      cache_hits = stats.Pool.cache_hits;
      stamps = (if observer then Some stamps else None);
      op_failures = op_failures remote ~fallbacks;
      remote_runs = stats.Pool.remote_runs;
    }
  in
  campaign_fields w s ~seed ~iterations m

(* ------------------------------------------------------------------ *)
(* The traced campaign                                                  *)
(* ------------------------------------------------------------------ *)

let p99 a =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1))

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* Message.V2 on the campaign's own traffic: every request and reply
   encoded and decoded once, through fresh per-connection codec state,
   and checked to round-trip. Returns (encode, decode) seconds. *)
let codec_replay traffic =
  let module V2 = Message.V2 in
  let buf = Buffer.create 256 in
  let timed f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let encode_request enc (seq, scenario, _) =
    Buffer.clear buf;
    V2.encode_request enc buf ~seq scenario;
    Buffer.contents buf
  in
  let encode_reply enc (seq, _, outcome) =
    let report = Message.report_of_outcome ~seq outcome in
    Buffer.clear buf;
    V2.encode_reply enc buf (Message.Scenario_result report);
    Buffer.contents buf
  in
  let key = Afex_faultspace.Scenario.to_string in
  let request_ok (seq, scenario, _) = function
    | Ok [ Message.Run_scenario { seq = s; scenario = sc } ] ->
        s = seq && String.equal (key sc) (key scenario)
    | Ok _ | Error _ -> false
  in
  let reply_ok (seq, _, _) = function
    | Ok [ Message.Scenario_result r ] -> r.Message.seq = seq
    | Ok _ | Error _ -> false
  in
  let requests, enc_req =
    timed (fun () -> List.map (encode_request (V2.client_enc ())) traffic)
  in
  let decoded, dec_req =
    timed (fun () -> List.map (V2.decode_requests (V2.server_dec ())) requests)
  in
  if not (List.for_all2 request_ok traffic decoded) then
    failwith "wire replay: a request did not round-trip";
  let replies, enc_rep =
    timed (fun () -> List.map (encode_reply (V2.server_enc ())) traffic)
  in
  let decoded, dec_rep =
    timed (fun () -> List.map (V2.decode_replies (V2.client_dec ())) replies)
  in
  if not (List.for_all2 reply_ok traffic decoded) then
    failwith "wire replay: a reply did not round-trip";
  (enc_req +. enc_rep, dec_req +. dec_rep)

let traced (w : Workload.t) s ~seed ~iterations ~spans_path =
  let b = s.built in
  let exec = b.Workload.executor in
  let spans = Spans.create () in
  (* Executions on the loopback manager's domain get their own recorder;
     the lock only guards against a reconnect briefly running two
     manager domains. *)
  let server_spans = Spans.create () and server_lock = Mutex.create () in
  let timed_run sc =
    Mutex.protect server_lock (fun () ->
        Spans.span server_spans "executor.run" ~seq:0 (fun () ->
            exec.Afex.Executor.run_scenario sc))
  in
  let t0 = now () in
  let server, runtime =
    match w.Workload.execution with
    | Workload.Inline -> (None, Runtime.inline ())
    | Workload.Fleet ->
        let executor = { exec with Afex.Executor.run_scenario = timed_run } in
        let server = Remote_manager.Loopback.create ~executor () in
        let remotes = [ Remote_manager.Loopback.spec server ] in
        let total_blocks = exec.Afex.Executor.total_blocks in
        let async = Async_executor.create ~remotes ~inflight ~total_blocks () in
        (Some server, Runtime.event_loop async)
  in
  let s = { s with pool_s = now () -. t0 } in
  let fleet = Option.is_some server in
  let dir = checkpoint_dir () in
  let checkpoint =
    if fleet then Some (open_checkpoint ~dir w ~seed) else None
  in
  let run_scenario ~seq sc =
    Spans.span spans "executor.run" ~seq (fun () ->
        exec.Afex.Executor.run_scenario sc)
  in
  let config = b.Workload.config seed in
  let setup_s = now () -. s.started in
  let root = Spans.enter spans "session" ~seq:0 in
  let tr =
    Traced.run ~spans ~runtime ?checkpoint ~keep_traffic:fleet ~iterations
      ~run_scenario config b.Workload.sub exec
  in
  Spans.leave spans root;
  let wall = Spans.duration spans root in
  let remote = Runtime.remote_stats runtime in
  let fallbacks = Runtime.remote_fallbacks runtime in
  let remote_runs = Runtime.remote_runs runtime in
  Runtime.shutdown runtime;
  Option.iter Remote_manager.Loopback.shutdown server;
  Option.iter Checkpoint.close checkpoint;
  remove_dir dir;
  let m =
    {
      setup_s;
      session_s = wall;
      result = tr.Traced.session;
      executed = tr.Traced.executed;
      cache_hits = tr.Traced.cache_hits;
      stamps = None;
      op_failures = op_failures remote ~fallbacks;
      remote_runs;
    }
  in
  let fields = campaign_fields w s ~seed ~iterations m in
  Option.iter (Spans.write spans) spans_path;
  (* Per-layer measurements. *)
  let merged = float_of_int tr.Traced.session.Session.iterations in
  let by = Spans.by_name spans in
  let calls name =
    match List.assoc_opt name by with Some (c, _, _) -> c | None -> 0
  in
  let total name =
    match List.assoc_opt name by with Some (_, t, _) -> t | None -> 0.0
  in
  let self name =
    match List.assoc_opt name by with Some (_, _, o) -> o | None -> 0.0
  in
  let per_call name =
    if calls name = 0 then 0.0 else self name /. float_of_int (calls name)
  in
  let p99_of name = p99 (Spans.durations spans name) in
  let exec_durations =
    Array.append
      (Spans.durations server_spans "executor.run")
      (Spans.durations spans "executor.run")
  in
  Array.sort compare exec_durations;
  let m = Afex.Explorer.mutator_stats tr.Traced.explorer in
  let proposals = float_of_int (max 1 m.Afex.Mutator.proposals) in
  let rejects = m.Afex.Mutator.rejects + m.Afex.Mutator.masked_rejects in
  let fallback_share = float_of_int m.Afex.Mutator.random_fallbacks in
  let encode_s, decode_s = codec_replay tr.Traced.traffic in
  let per_wire_test x =
    match tr.Traced.traffic with
    | [] -> 0.0
    | l -> 1e6 *. x /. float_of_int (List.length l)
  in
  let wire f =
    float_of_int (List.fold_left (fun n (_, r) -> n + f r) 0 remote)
  in
  let bytes r = r.Remote_manager.bytes_in + r.Remote_manager.bytes_out in
  let frames r = r.Remote_manager.frames_in + r.Remote_manager.frames_out in
  let snapshots = calls "checkpoint.snapshot" in
  let journal_s = total "checkpoint.append" in
  let checkpoint_s = journal_s +. total "checkpoint.snapshot" in
  let bookkeeping = self "session" +. self "submit" +. self "release" in
  let outstanding = float_of_int tr.Traced.outstanding_sum in
  let layers =
    [
      ("explorer.next_us", 1e6 *. per_call "explorer.next");
      ("explorer.next_p99_us", 1e6 *. p99_of "explorer.next");
      ("explorer.scenario_for_us", 1e6 *. per_call "explorer.scenario_for");
      ("mutator.rejects_per_proposal", float_of_int rejects /. proposals);
      ("mutator.fallback_share", fallback_share /. proposals);
      ("executor.run_us", 1e6 *. mean exec_durations);
      ("executor.run_p99_us", 1e6 *. p99 exec_durations);
      ("pool.cache_hit_share", float_of_int tr.Traced.cache_hits /. merged);
      ("pool.merged", merged);
      ("pool.executed", float_of_int tr.Traced.executed);
      ("pool.cache_hits", float_of_int tr.Traced.cache_hits);
      ("explorer.report_us", 1e6 *. per_call "explorer.report");
      ("explorer.report_p99_us", 1e6 *. p99_of "explorer.report");
      ("session.summarize_ms", 1e3 *. total "session.summarize");
      ("runtime.merge_wait_us", 1e6 *. tr.Traced.wait_s /. merged);
      ("runtime.outstanding_mean", outstanding /. merged);
      ("message.encode_us", per_wire_test encode_s);
      ("message.decode_us", per_wire_test decode_s);
      ("remote_manager.bytes_per_test", wire bytes /. merged);
      ("remote_manager.frames_per_test", wire frames /. merged);
      ("remote_manager.retries", wire (fun r -> r.Remote_manager.retries));
      ("checkpoint.append_us", 1e6 *. per_call "checkpoint.append");
      ("checkpoint.snapshot_ms", 1e3 *. per_call "checkpoint.snapshot");
      ("checkpoint.snapshots", float_of_int snapshots);
      ("checkpoint.wall_share", checkpoint_s /. wall);
      ("setup.target_build_s", s.target_build_s);
      ("setup.pool_s", s.pool_s);
      ("trace.unaccounted_share", bookkeeping /. wall);
    ]
  in
  let self_s = List.map (fun (name, (_, _, own)) -> (name, num own)) by in
  fields
  @ [
      ("layers", obj (List.map (fun (k, v) -> (k, num v)) layers));
      ("self_s", obj self_s);
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and iterations = ref 0 in
  let trace = ref false and observer = ref true and spans_path = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N explorer seed");
      ("--iterations", Arg.Set_int iterations, "N override the test budget");
      ("--trace", Arg.Set trace, " run the traced loop");
      ("--no-observer", Arg.Clear observer, " run without the merge observer");
      ("--spans", Arg.String (fun p -> spans_path := Some p), "FILE span dump");
    ]
  in
  let anon a = raise (Arg.Bad ("unexpected argument " ^ a)) in
  Arg.parse specs anon "perfbench.exe --workload NAME --seed N [options]";
  match Workload.find !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w ->
      let iterations =
        if !iterations > 0 then !iterations else w.Workload.iterations
      in
      let seed = !seed in
      mkdir_p work_dir;
      let s = build w in
      let fields =
        if !trace then traced w s ~seed ~iterations ~spans_path:!spans_path
        else untraced w s ~seed ~iterations ~observer:!observer
      in
      print_endline (obj fields)
