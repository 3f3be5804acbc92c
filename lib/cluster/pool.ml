module Rng = Afex_stats.Rng
module Scenario = Afex_faultspace.Scenario
module Point = Afex_faultspace.Point
module Outcome = Afex_injector.Outcome

type executor =
  | Pure of Afex.Executor.t
  | Seeded of {
      total_blocks : int;
      description : string;
      run : Rng.t -> Scenario.t -> Outcome.t;
    }
  | Async of Afex.Executor.async

let total_blocks = function
  | Pure e -> e.Afex.Executor.total_blocks
  | Seeded s -> s.total_blocks
  | Async a -> a.Afex.Executor.async_total_blocks

(* The explorer only uses the executor for sizing its coverage bitset and
   for log lines; all actual execution goes through the pool. *)
let explorer_executor = function
  | Pure e -> e
  | Seeded { total_blocks; description; run = _ } ->
      Afex.Executor.of_scenario_fn ~total_blocks ~description (fun _ ->
          invalid_arg "Pool: a seeded executor only runs on the pool")
  | Async a ->
      Afex.Executor.of_scenario_fn ~total_blocks:a.Afex.Executor.async_total_blocks
        ~description:a.Afex.Executor.async_description (fun _ ->
          invalid_arg "Pool: an async executor only runs on the pool")

type t = {
  jobs : int;
  executor : executor;
  runtime : Runtime.t;
  mutable shut : bool;
}

let create ?(remotes = []) ?(inflight = 1) ?request_timeout_ms ~jobs executor =
  if jobs < 0 then invalid_arg "Pool.create: jobs must be non-negative";
  if inflight < 1 then invalid_arg "Pool.create: inflight must be positive";
  let async_mode =
    inflight > 1 || (match executor with Async _ -> true | Pure _ | Seeded _ -> false)
  in
  let runtime =
    if async_mode then begin
      (* Event-loop concurrency is orthogonal to Domain parallelism; mixing
         them would make the schedule depend on both, for no benefit — an
         async target waits, it doesn't compute. *)
      if jobs > 1 then
        invalid_arg
          "Pool.create: inflight > 1 (or an Async executor) multiplexes on a \
           single domain; use jobs <= 1";
      Runtime.event_loop
        (Async_executor.create ~remotes ?request_timeout_ms ~inflight
           ~total_blocks:(total_blocks executor) ())
    end
    else if jobs = 0 && remotes = [] then
      invalid_arg "Pool.create: need at least one worker (jobs or remotes)"
    else if jobs = 1 && remotes = [] then Runtime.inline ()
    else
      Runtime.domains ~remotes ?request_timeout_ms
        ~total_blocks:(total_blocks executor) ~jobs ()
  in
  { jobs; executor; runtime; shut = false }

let jobs t = t.jobs

let async_stats t = Option.map Async_executor.stats (Runtime.async t.runtime)
let remote_stats t = Runtime.remote_stats t.runtime

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Runtime.shutdown t.runtime
  end

(* ------------------------------------------------------------------ *)
(* The session loop                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  executed : int;
  cache_hits : int;
  batches : int;
  remote_runs : int;
  remote_fallbacks : int;
  gen_ms : float;
  wait_ms : float;
  merge_ms : float;
  wall_ms : float;
}

(* What the reorder buffer holds for one submission: the outcome itself
   when it is known (worker completion, memo-cache hit, journal replay),
   or a deferred duplicate that resolves against the cache at release
   time — its original is an earlier submission, so it has released (and
   populated the cache) by then. *)
type slot =
  | Ready of (Outcome.t, exn) result
  | Dup of string  (* the duplicated scenario's cache key *)

(* Per-submission bookkeeping the release path needs, keyed by sequence
   number and dropped at release. *)
type meta = {
  m_proposal : Afex.Mutator.proposal;
  m_skey : string option;  (* memo-cache key, when memoizing *)
  m_journaled : bool;  (* replayed from the WAL: don't re-journal *)
  m_worker : bool;  (* occupies a runtime worker until it completes *)
}

let session ?transform ?stop ?time_budget_ms ?checkpoint ?(batch_size = 32)
    ?(sync_every = 512) ~iterations t config sub =
  if batch_size < 1 then invalid_arg "Pool.session: batch_size must be positive";
  if sync_every < 1 then invalid_arg "Pool.session: sync_every must be positive";
  (match (stop, checkpoint) with
  | Some _, Some _ ->
      invalid_arg
        "Pool.session: a checkpoint cannot capture a stop predicate; bound a \
         checkpointed campaign with iterations or a time budget"
  | (Some _ | None), _ -> ());
  let started = Unix.gettimeofday () in
  (* A resumed campaign starts from scratch too: it replays the whole
     journal into this fresh explorer before continuing live. *)
  let explorer =
    Afex.Explorer.create ?transform config sub (explorer_executor t.executor)
  in
  (* Seeded executors get one RNG stream per candidate, split off the
     session master at submission time: stream identity depends only on
     (seed, submission index), never on the worker that runs the task or
     the order completions arrive. *)
  let master = Rng.create config.Afex.Config.seed in
  (* Completed windows. *)
  let windows = ref 0 in
  let current cp =
    {
      Checkpoint.Snapshot.meta = Checkpoint.meta cp;
      batches = !windows;
      master_state = Rng.state master;
      scheduler = None;
      explorer = Afex.Explorer.capture explorer;
    }
  in
  let write_snapshot () =
    match checkpoint with
    | None -> ()
    | Some cp ->
        Checkpoint.write_snapshot cp
          ~iterations:(Afex.Explorer.iterations explorer)
          (current cp)
  in
  (* A fresh checkpointed campaign writes its base snapshot before any
     work, so a crash before the first watermark still resumes from
     iteration zero instead of refusing. *)
  (match checkpoint with
  | Some cp when not (Checkpoint.resumed cp) -> write_snapshot ()
  | Some _ | None -> ());
  (* The resumed snapshot's watermark, until the replay reaches it and
     the rebuilt state is checked against the snapshot's fingerprint. *)
  let unverified =
    ref
      (Option.bind checkpoint (fun cp ->
           Option.map
             (fun s ->
               (cp, s.Checkpoint.Snapshot.explorer.Afex.Explorer.Snapshot.iterations))
             (Checkpoint.loaded_snapshot cp)))
  in
  let cache : (string, Outcome.t) Hashtbl.t = Hashtbl.create 256 in
  let memoize =
    match t.executor with Pure _ | Async _ -> true | Seeded _ -> false
  in
  let executed = ref 0 and cache_hits = ref 0 in
  let remote_runs0 = Runtime.remote_runs t.runtime
  and remote_fallbacks0 = Runtime.remote_fallbacks t.runtime in
  (* Stop-target accounting, as in Session.run: distinct points only. *)
  let matched = Hashtbl.create 16 and stop_iteration = ref None in
  let target_met () =
    match stop with
    | Some s -> Hashtbl.length matched >= s.Afex.Session.count
    | None -> false
  in
  let time_exhausted () =
    match time_budget_ms with
    | Some budget -> Afex.Explorer.simulated_ms explorer >= budget
    | None -> false
  in
  (* The deterministic sliding-window schedule. [submitted] and
     [released] are absolute iteration counts; the driver submits while
     the window has room and otherwise releases the head of line, so the
     interleaving of Explorer.next and Explorer.report — and with it the
     whole explored history — is a pure function of (seed, [batch_size],
     iterations), never of completion timing, [jobs] or
     [inflight]. *)
  let submitted = ref 0 and released = ref 0 in
  let exhausted = ref false in
  let reorder : slot Runtime.Reorder.t = Runtime.Reorder.create ~next:1 () in
  let metas : (int, meta) Hashtbl.t = Hashtbl.create 64 in
  (* Scenario keys with a fresh execution submitted but not yet
     released: a later identical candidate piggybacks on it as a [Dup]
     instead of occupying a worker. *)
  let inflight_keys : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Sync watermarks: every [sync_every] releases, the schedule refuses
     to submit past the boundary until everything before it has
     released, so the window drains to quiescence. The drain is part of
     the schedule itself — it happens whether or not a checkpoint is
     armed — so snapshots (which need quiescence: Explorer snapshots
     refuse with candidates in flight) never perturb the explored
     history relative to an uncheckpointed run. *)
  let next_sync = ref sync_every in
  (* A window completes every [batch_size] releases, or earlier at a
     sync watermark; only the count is kept. *)
  let window_releases = ref 0 in
  let finish_window () =
    incr windows;
    window_releases := 0
  in
  (* Session phase totals: generation, head-of-line wait (the only time
     the explorer is blocked on workers) and merge. *)
  let gen_ms = ref 0.0 and wait_ms = ref 0.0 and merge_ms = ref 0.0 in
  let replay_pending () =
    match checkpoint with Some cp -> Checkpoint.replay_pending cp | None -> false
  in
  let can_submit () =
    replay_pending ()
    || (not !exhausted)
       && !submitted < iterations
       && (not (target_met ()))
       && not (time_exhausted ())
  in
  let seeded_rng () =
    match t.executor with
    | Seeded _ -> Some (Rng.split master)
    | Pure _ | Async _ -> None
  in
  (* One submission: consume a journaled outcome if any is queued for
     replay, otherwise generate a fresh candidate and decide — in
     submission order, on the explorer thread — how it is satisfied. *)
  let submit_one () =
    let t0 = Unix.gettimeofday () in
    (match
       match checkpoint with Some cp -> Checkpoint.next_replay cp | None -> None
     with
    | Some (key, report) -> (
        (* The explorer is deterministic, so it must regenerate exactly
           the candidate the journal recorded; a mismatch means the
           checkpoint belongs to a different campaign (and slipped past
           the metadata check) or the journal is corrupt. *)
        match Afex.Explorer.next explorer with
        | None ->
            raise
              (Checkpoint.Cannot_resume
                 "the journal replays beyond the explorer's candidates")
        | Some p ->
            let abs = !submitted + 1 in
            let pkey = Point.key p.Afex.Mutator.point in
            if key <> pkey then
              raise
                (Checkpoint.Cannot_resume
                   (Printf.sprintf
                      "journaled outcome %d is for point %s, but the \
                       explorer regenerated %s"
                      abs key pkey));
            let scenario = Afex.Explorer.scenario_for explorer p in
            ignore (seeded_rng ());
            let outcome =
              match
                Message.outcome_of_report
                  ~total_blocks:(total_blocks t.executor) report
              with
              | Ok o -> o
              | Error m ->
                  raise
                    (Checkpoint.Cannot_resume
                       ("a journaled outcome does not decode: " ^ m))
            in
            let skey =
              if memoize then Some (Scenario.to_string scenario) else None
            in
            Hashtbl.replace metas abs
              { m_proposal = p; m_skey = skey; m_journaled = true;
                m_worker = false };
            Runtime.Reorder.offer reorder ~seq:abs (Ready (Ok outcome));
            submitted := abs)
    | None -> (
        match Afex.Explorer.next explorer with
        | None -> exhausted := true
        | Some p ->
            let abs = !submitted + 1 in
            let scenario = Afex.Explorer.scenario_for explorer p in
            let rng = seeded_rng () in
            let skey =
              if memoize then Some (Scenario.to_string scenario) else None
            in
            let fresh ~wire run start =
              Hashtbl.replace metas abs
                { m_proposal = p; m_skey = skey; m_journaled = false;
                  m_worker = true };
              Runtime.submit t.runtime
                { Runtime.seq = abs; scenario = wire; run; start }
            in
            (* A synchronous thunk as nonblocking work: [start] just runs
               it to completion, so the event loop degenerates
               gracefully. *)
            let sync run =
              (run, fun () -> Afex.Executor.job_done (run ()))
            in
            let immediate slot =
              Hashtbl.replace metas abs
                { m_proposal = p; m_skey = skey; m_journaled = false;
                  m_worker = false };
              Runtime.Reorder.offer reorder ~seq:abs slot
            in
            let memoized wire run start =
              match skey with
              | None -> fresh ~wire run start
              | Some key -> (
                  match Hashtbl.find_opt cache key with
                  | Some outcome ->
                      incr cache_hits;
                      immediate (Ready (Ok outcome))
                  | None ->
                      if Hashtbl.mem inflight_keys key then begin
                        incr cache_hits;
                        immediate (Dup key)
                      end
                      else begin
                        Hashtbl.replace inflight_keys key ();
                        fresh ~wire run start
                      end)
            in
            (match t.executor with
            | Seeded { run; _ } ->
                (* The RNG closure cannot cross the wire: never remoted,
                   never memoized. *)
                let rng = Option.get rng in
                let thunk () = run rng scenario in
                let run, start = sync thunk in
                fresh ~wire:None run start
            | Pure exec ->
                let thunk () = exec.Afex.Executor.run_scenario scenario in
                let run, start = sync thunk in
                memoized (Some scenario) run start
            | Async a ->
                let start () = a.Afex.Executor.start scenario in
                memoized (Some scenario)
                  (fun () -> Afex.Executor.run_job_blocking (start ()))
                  start);
            submitted := abs));
    gen_ms := !gen_ms +. (1000.0 *. (Unix.gettimeofday () -. t0))
  in
  (* Release exactly the next submission, blocking on the runtime while
     the head of line is outstanding (completions for later submissions
     are absorbed into the reorder buffer as they arrive). *)
  let absorb completions =
    List.iter
      (fun (seq, result) -> Runtime.Reorder.offer reorder ~seq (Ready result))
      completions
  in
  let release_one () =
    let seq = Runtime.Reorder.watermark reorder in
    (match Runtime.Reorder.peek reorder with
    | Some _ -> ()
    | None ->
        absorb (Runtime.poll t.runtime ~block:false);
        if Runtime.Reorder.peek reorder = None then begin
          let t0 = Unix.gettimeofday () in
          while Runtime.Reorder.peek reorder = None do
            if Runtime.outstanding t.runtime = 0 then
              failwith "Pool: a submitted task produced no completion";
            absorb (Runtime.poll t.runtime ~block:true)
          done;
          wait_ms := !wait_ms +. (1000.0 *. (Unix.gettimeofday () -. t0))
        end);
    let slot =
      match Runtime.Reorder.pop reorder with Some s -> s | None -> assert false
    in
    let t0 = Unix.gettimeofday () in
    let m = Hashtbl.find metas seq in
    Hashtbl.remove metas seq;
    let outcome =
      match slot with
      | Ready (Ok o) -> o
      | Ready (Error e) -> raise e
      | Dup key -> (
          match Hashtbl.find_opt cache key with
          | Some o -> o
          | None -> raise (Invalid_argument "Pool: duplicate of a failed scenario"))
    in
    if m.m_worker then begin
      incr executed;
      match m.m_skey with
      | Some key -> Hashtbl.remove inflight_keys key
      | None -> ()
    end;
    (* Journal the outcome before the explorer absorbs it: a crash
       between the two re-applies it from the journal on resume, which
       is idempotent — the reverse order would lose it. Replayed
       outcomes are not re-appended. *)
    (match checkpoint with
    | Some cp when not m.m_journaled ->
        Checkpoint.append_outcome cp
          ~point_key:(Point.key m.m_proposal.Afex.Mutator.point)
          ~seq outcome
    | Some _ | None -> ());
    (match m.m_skey with
    | Some key -> Hashtbl.replace cache key outcome
    | None -> ());
    let case = Afex.Explorer.report explorer m.m_proposal outcome in
    (match stop with
    | Some s when s.Afex.Session.matches case ->
        Hashtbl.replace matched (Point.key case.Afex.Test_case.point) ();
        if Hashtbl.length matched >= s.Afex.Session.count && !stop_iteration = None
        then stop_iteration := Some (Afex.Explorer.iterations explorer)
    | Some _ | None -> ());
    merge_ms := !merge_ms +. (1000.0 *. (Unix.gettimeofday () -. t0));
    released := !released + 1;
    incr window_releases;
    if !window_releases >= batch_size then finish_window ()
  in
  (* A resumed campaign drains at its snapshot's watermark, as the run
     that wrote the snapshot had (snapshots are only written quiescent),
     then checks the replayed state against the snapshot. The barrier
     changes nothing when the watermark is a sync watermark or the
     campaign's end; it matters only if [iterations] grew since. *)
  let barrier () =
    match !unverified with
    | Some (_, w) when w < !next_sync -> w
    | Some _ | None -> !next_sync
  in
  let at_watermark () =
    match !unverified with Some (_, w) -> !released = w | None -> false
  in
  let verify_watermark () =
    Option.iter
      (fun (cp, _) ->
        if !window_releases > 0 then finish_window ();
        match Checkpoint.check_replay cp (current cp) with
        | Ok () -> unverified := None
        | Error m -> raise (Checkpoint.Cannot_resume m))
      !unverified
  in
  let rec drive () =
    if at_watermark () then begin
      verify_watermark ();
      drive ()
    end
    else if !released >= !next_sync then begin
      (* Quiescent sync watermark: submissions were capped at the
         boundary, so everything before it has released. Close the
         partial window and write the watermark snapshot if one is
         due. *)
      if !window_releases > 0 then finish_window ();
      (match checkpoint with
      | Some cp
        when Checkpoint.due cp ~iterations:(Afex.Explorer.iterations explorer)
        ->
          write_snapshot ()
      | Some _ | None -> ());
      next_sync := !next_sync + sync_every;
      drive ()
    end
    else if
      can_submit ()
      && !submitted - !released < batch_size
      && !submitted < barrier ()
    then begin
      submit_one ();
      drive ()
    end
    else if !released < !submitted then begin
      release_one ();
      drive ()
    end
    else if can_submit () then begin
      (* Submission was refused with nothing pending: the sync and
         watermark branches above fire first when a boundary is the
         reason, so only a zero-width window could land here — kept
         impossible by the [batch_size >= 1] check. *)
      assert false
    end
  in
  drive ();
  (match !unverified with
  | Some (_, w) ->
      raise
        (Checkpoint.Cannot_resume
           (Printf.sprintf
              "the replay stopped at iteration %d, before the snapshot's \
               watermark %d"
              !released w))
  | None -> ());
  if !window_releases > 0 then finish_window ();
  (* Final snapshot: the completed campaign is itself a resumable (and
     re-resumable) state. *)
  (match checkpoint with Some _ -> write_snapshot () | None -> ());
  let result =
    Afex.Session.summarize explorer
      ~total_blocks:(total_blocks t.executor)
      ~stopped_early:(target_met ()) ~stop_iteration:!stop_iteration
  in
  ( result,
    {
      executed = !executed;
      cache_hits = !cache_hits;
      batches = !windows;
      remote_runs = Runtime.remote_runs t.runtime - remote_runs0;
      remote_fallbacks = Runtime.remote_fallbacks t.runtime - remote_fallbacks0;
      gen_ms = !gen_ms;
      wait_ms = !wait_ms;
      merge_ms = !merge_ms;
      wall_ms = 1000.0 *. (Unix.gettimeofday () -. started);
    } )

let run ?transform ?stop ?time_budget_ms ?checkpoint ?batch_size ?sync_every
    ?remotes ?inflight ?request_timeout_ms ~jobs ~iterations config sub
    executor =
  let t = create ?remotes ?inflight ?request_timeout_ms ~jobs executor in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      session ?transform ?stop ?time_budget_ms ?checkpoint ?batch_size
        ?sync_every ~iterations t config sub)
