(* The traced loop: the campaign [Pool.session] runs, re-issued from
   the benchmark through the layers' public functions so every call can
   be timed from outside the library.

   It keeps the pool's schedule exactly — a sliding window of 32
   submissions, a quiescent sync watermark every 512 releases, releases
   in submission order through a [Runtime.Reorder] buffer, the
   scenario-keyed outcome cache with in-flight duplicates deferred to
   release, and (when a checkpoint is armed) a base snapshot, a journal
   append before each report, cadence snapshots at watermarks and a
   final snapshot. The explored history is a function of that schedule
   alone, so the export of a traced campaign must be byte-identical to
   the untraced one; the benchmark checks that it is. *)

module Explorer = Afex.Explorer
module Session = Afex.Session
module Runtime = Afex_cluster.Runtime
module Checkpoint = Afex_cluster.Checkpoint
module Outcome = Afex_injector.Outcome
module Scenario = Afex_faultspace.Scenario
module Point = Afex_faultspace.Point
module Rng = Afex_stats.Rng

let window = 32
let sync_every = 512

type slot = Ready of (Outcome.t, exn) result | Dup of string

(* [worker]: the test occupies a runtime worker until it completes. *)
type meta = { proposal : Afex.Mutator.proposal; key : string; worker : bool }

(* [wait_s] is the time blocked in [Runtime.poll] on the head of line,
   [outstanding_sum] is [Runtime.outstanding] summed over releases and
   [traffic] the fresh executions in submission order: what crossed the
   wire. *)
type result = {
  session : Session.result;
  explorer : Explorer.t;
  executed : int;
  cache_hits : int;
  wait_s : float;
  outstanding_sum : int;
  traffic : (int * Scenario.t * Outcome.t) list;
}

let run ~spans ~runtime ?checkpoint ?(keep_traffic = false) ~iterations
    ~run_scenario config sub (executor : Afex.Executor.t) =
  let span name ~seq f = Spans.span spans name ~seq f in
  let explorer = Explorer.create config sub executor in
  let master = Rng.create config.Afex.Config.seed in
  let rounds = ref 0 in
  let snapshot cp =
    {
      Checkpoint.Snapshot.meta = Checkpoint.meta cp;
      batches = !rounds;
      master_state = Rng.state master;
      scheduler = None;
      explorer = Explorer.capture explorer;
    }
  in
  let write_snapshot () =
    match checkpoint with
    | None -> ()
    | Some cp ->
        let iterations = Explorer.iterations explorer in
        span "checkpoint.snapshot" ~seq:0 (fun () ->
            Checkpoint.write_snapshot cp ~iterations (snapshot cp))
  in
  let snapshot_due () =
    match checkpoint with
    | Some cp -> Checkpoint.due cp ~iterations:(Explorer.iterations explorer)
    | None -> false
  in
  write_snapshot ();
  let cache : (string, Outcome.t) Hashtbl.t = Hashtbl.create 256 in
  let inflight_keys : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let metas : (int, meta) Hashtbl.t = Hashtbl.create 64 in
  (* Scenarios of fresh executions awaiting release, kept only when the
     caller wants the wire traffic replayed afterwards. *)
  let wire_scenarios : (int, Scenario.t) Hashtbl.t = Hashtbl.create 64 in
  let traffic = ref [] in
  let executed = ref 0 and cache_hits = ref 0 in
  let wait_s = ref 0.0 and outstanding_sum = ref 0 in
  let submitted = ref 0 and released = ref 0 and exhausted = ref false in
  let reorder : slot Runtime.Reorder.t = Runtime.Reorder.create ~next:1 () in
  let next_sync = ref sync_every in
  let round_releases = ref 0 in
  let finish_round () =
    incr rounds;
    round_releases := 0
  in
  (* The pool's memo cache: the key, and the slot when no execution is
     needed (a cached outcome or an in-flight duplicate). *)
  let lookup scenario =
    let key = Scenario.to_string scenario in
    match Hashtbl.find_opt cache key with
    | Some o -> (key, Some (Ready (Ok o)))
    | None when Hashtbl.mem inflight_keys key -> (key, Some (Dup key))
    | None ->
        Hashtbl.replace inflight_keys key ();
        (key, None)
  in
  let execute seq p scenario key =
    Hashtbl.replace metas seq { proposal = p; key; worker = true };
    if keep_traffic then Hashtbl.replace wire_scenarios seq scenario;
    let run () = run_scenario ~seq scenario in
    let start () = Afex.Executor.job_done (run ()) in
    let task = { Runtime.seq; scenario = Some scenario; run; start } in
    span "runtime.submit" ~seq (fun () -> Runtime.submit runtime task)
  in
  let propose seq p =
    let scenario =
      span "explorer.scenario_for" ~seq (fun () ->
          Explorer.scenario_for explorer p)
    in
    match span "pool.cache" ~seq (fun () -> lookup scenario) with
    | key, Some slot ->
        incr cache_hits;
        Hashtbl.replace metas seq { proposal = p; key; worker = false };
        Runtime.Reorder.offer reorder ~seq slot
    | key, None -> execute seq p scenario key
  in
  let submit_one () =
    let seq = !submitted + 1 in
    let next () = Explorer.next explorer in
    span "submit" ~seq (fun () ->
        match span "explorer.next" ~seq next with
        | None -> exhausted := true
        | Some p ->
            propose seq p;
            submitted := seq)
  in
  let absorb =
    List.iter (fun (seq, r) -> Runtime.Reorder.offer reorder ~seq (Ready r))
  in
  let poll block () = Runtime.poll runtime ~block in
  (* Brings the head-of-line outcome into the reorder buffer, blocking on
     the runtime if it has not completed yet. *)
  let await_head seq =
    absorb (span "runtime.poll" ~seq (poll false));
    let t0 = Unix.gettimeofday () in
    while Runtime.Reorder.peek reorder = None do
      if Runtime.outstanding runtime = 0 then
        failwith "traced loop: a submitted task produced no completion";
      absorb (span "runtime.wait" ~seq (poll true))
    done;
    wait_s := !wait_s +. (Unix.gettimeofday () -. t0)
  in
  let retire seq m outcome =
    incr executed;
    Hashtbl.remove inflight_keys m.key;
    match Hashtbl.find_opt wire_scenarios seq with
    | Some scenario ->
        traffic := (seq, scenario, outcome) :: !traffic;
        Hashtbl.remove wire_scenarios seq
    | None -> ()
  in
  let append seq m outcome =
    match checkpoint with
    | None -> ()
    | Some cp ->
        let point_key = Point.key m.proposal.Afex.Mutator.point in
        span "checkpoint.append" ~seq (fun () ->
            Checkpoint.append_outcome cp ~point_key ~seq outcome)
  in
  let release_one () =
    let seq = Runtime.Reorder.watermark reorder in
    span "release" ~seq (fun () ->
        if Runtime.Reorder.peek reorder = None then await_head seq;
        outstanding_sum := !outstanding_sum + Runtime.outstanding runtime;
        let slot = Option.get (Runtime.Reorder.pop reorder) in
        let m = Hashtbl.find metas seq in
        Hashtbl.remove metas seq;
        let outcome =
          match slot with
          | Ready (Ok o) -> o
          | Ready (Error e) -> raise e
          | Dup key -> Hashtbl.find cache key
        in
        if m.worker then retire seq m outcome;
        append seq m outcome;
        Hashtbl.replace cache m.key outcome;
        let report () = Explorer.report explorer m.proposal outcome in
        ignore (span "explorer.report" ~seq report);
        incr released;
        incr round_releases;
        if !round_releases >= window then finish_round ())
  in
  let sync () =
    if !round_releases > 0 then finish_round ();
    if snapshot_due () then write_snapshot ();
    next_sync := !next_sync + sync_every
  in
  let can_submit () = (not !exhausted) && !submitted < iterations in
  let has_room () =
    !submitted - !released < window && !submitted < !next_sync
  in
  let running = ref true in
  while !running do
    if !released >= !next_sync then sync ()
    else if can_submit () && has_room () then submit_one ()
    else if !released < !submitted then release_one ()
    else running := false
  done;
  if !round_releases > 0 then finish_round ();
  write_snapshot ();
  let total_blocks = executor.Afex.Executor.total_blocks in
  let stopped_early = false and stop_iteration = None in
  let summarize () =
    Session.summarize explorer ~total_blocks ~stopped_early ~stop_iteration
  in
  let session = span "session.summarize" ~seq:0 summarize in
  {
    session;
    explorer;
    executed = !executed;
    cache_hits = !cache_hits;
    wait_s = !wait_s;
    outstanding_sum = !outstanding_sum;
    traffic = List.rev !traffic;
  }
