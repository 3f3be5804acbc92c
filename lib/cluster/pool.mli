(** Multicore execution backend: the explorer-facing session loop over
    the {!Runtime} (§6.1, §7.7 — the architecture {!Simulation} only
    models).

    The explorer thread keeps a sliding window of up to [batch_size]
    candidates in flight: it submits to the runtime while the window has
    room and otherwise merges the oldest outstanding outcome, released
    by the runtime's reorder buffer strictly in submission order. There
    is no batch barrier — generation overlaps execution, and one slow
    test delays only its own release, not a whole batch. Because
    generation and merging both happen sequentially on the explorer
    thread under a schedule that is a pure function of the seed, the
    window and the iteration count, the explored-point history
    {e never} depends on [jobs], [inflight], completion order or how the
    OS schedules domains. A campaign is therefore replayable at any
    parallelism.

    Deterministic executors additionally get a scenario-keyed outcome
    cache: a repeated candidate (common late in a beam search, and under
    random search on small spaces) is served from the cache without
    occupying a worker. Cache lookups happen on the explorer thread in
    submission order, so hit counts are deterministic too. *)

type executor =
  | Pure of Afex.Executor.t
      (** Deterministic executor: outcome is a function of the scenario
          alone. Eligible for memoization. *)
  | Seeded of {
      total_blocks : int;
      description : string;
      run : Afex_stats.Rng.t -> Afex_faultspace.Scenario.t -> Afex_injector.Outcome.t;
    }
      (** Stochastic executor (e.g. {!Afex_injector.Engine.nondeterminism}
          models): each task receives its own RNG stream, split off the
          session master at submission time in submission order, so runs
          replay exactly for a fixed seed regardless of [jobs]. Never
          memoized. *)
  | Async of Afex.Executor.async
      (** Latency-bound executor with a nonblocking start/poll split
          (e.g. a simulated slow target, or a wrapped fork/exec'd
          process): the pool multiplexes up to [inflight] of these from a
          single-domain event loop ({!Async_executor}) instead of
          burning a worker domain per in-flight test. Deterministic by
          contract — the outcome must be a function of the scenario
          alone — and therefore memoized like [Pure]. *)

type t
(** A running pool: a {!Runtime} handle. With [jobs = 1], no remotes and
    [inflight = 1], no domain is spawned and tasks run inline on the
    caller. *)

val create :
  ?remotes:Remote_manager.spec list ->
  ?inflight:int ->
  ?request_timeout_ms:int ->
  jobs:int ->
  executor ->
  t
(** Spawns [jobs] worker domains popping one shared run queue, plus one
    proxy domain per remote spec popping the same queue. A proxy ships
    each scenario it takes to its manager through a one-slot
    {!Async_executor} and runs it locally when the manager fails (dead,
    refusing, straggling past [request_timeout_ms], byzantine replies)
    or is waiting out its reconnect backoff — so remotes affect
    throughput, never the explored-point history, and a dead manager is
    dialed at most [max_attempts] times in all. Remote connections are
    dialed lazily on first use. [Seeded] tasks are never sent remotely
    (their RNG stream cannot cross the wire).

    [inflight] (default 1) switches the pool to single-domain event-loop
    mode when [> 1] (an [Async] executor switches unconditionally): up to
    [inflight] tests are kept concurrently in flight by {!Async_executor}
    — remotes become pipelined connections on the same loop, each with
    a credit of [inflight]. [request_timeout_ms] (default 10 s) bounds
    how long a straggling manager may hold a request in either mode. The
    explored-point history is identical at every [inflight] value (and
    to the Domain path at equal [batch_size]): results merge in
    submission order regardless of completion order.
    @raise Invalid_argument if [jobs < 0], [jobs = 0] with no remotes,
    [inflight < 1], or event-loop mode is combined with [jobs > 1]. *)

val jobs : t -> int

val async_stats : t -> Async_executor.stats option
(** Event-loop counters, when in event-loop mode. *)

val remote_stats : t -> (string * Remote_manager.stats) list
(** One [(name, stats)] per remote manager, in [create] order. *)

val shutdown : t -> unit
(** Closes the run queue, joins all worker domains and closes remote
    connections. Idempotent. *)

type stats = {
  executed : int;  (** scenarios actually run on a worker *)
  cache_hits : int;  (** outcomes served from the memo cache *)
  batches : int;
      (** windows completed this session: one per [batch_size] releases,
          plus one per sync watermark or session end that closes a
          partial window; a resumed session counts its replayed windows
          too *)
  remote_runs : int;  (** requests put on a manager's wire *)
  remote_fallbacks : int;
      (** tests that ran locally although a manager could have taken
          them — the rule is stated once, at {!Async_executor.stats} *)
  gen_ms : float;
      (** explorer time spent generating candidates (and replaying
          journaled outcomes), session total *)
  wait_ms : float;
      (** explorer time blocked on the reorder buffer's head of line —
          the only time it waits on workers — session total *)
  merge_ms : float;
      (** explorer time merging released outcomes (journal append,
          cache, report), session total *)
  wall_ms : float;
      (** real elapsed time of the session loop; the three phase totals
          are disjoint spans inside it *)
}

val session :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  ?stop:Afex.Session.stop ->
  ?time_budget_ms:float ->
  ?checkpoint:Checkpoint.t ->
  ?batch_size:int ->
  ?sync_every:int ->
  iterations:int ->
  t ->
  Afex.Config.t ->
  Afex_faultspace.Subspace.t ->
  Afex.Session.result * stats
(** Parallel counterpart of {!Afex.Session.run} on an existing pool.

    [batch_size] (default 32) is the in-flight window, fixed for the
    session: the explorer submits a candidate whenever fewer than that
    many are outstanding, and otherwise merges the oldest outstanding
    outcome — generation overlaps execution, with no barrier between
    them. [stop] targets and
    [time_budget_ms] are checked at submission time against the merged
    prefix (plus per-case during the merge for [stop_iteration]), so
    they too are [jobs]-independent. With [batch_size = 1] the schedule
    degenerates to exactly {!Afex.Session.run}'s candidate stream.

    [Pure] and [Async] executors are served through the outcome cache;
    [Seeded] ones never are.

    [sync_every] (default 512) spaces the schedule's quiescent sync
    watermarks: submissions never cross a multiple of [sync_every] until
    everything before it has merged, draining the window there. The
    drain is part of the schedule whether or not a checkpoint is armed —
    it is where watermark snapshots are written — so the explored history
    is a function of (seed, [batch_size], [sync_every], iterations)
    and nothing else.

    [checkpoint] arms crash-safe campaign persistence: a fresh
    {!Checkpoint.start} handle writes a base snapshot before any work,
    journals every merged outcome at release, and writes a watermark
    snapshot at every sync watermark (where nothing is in flight) and at
    the end. A {!Checkpoint.resume} handle replays the whole journal
    from iteration 0 into a fresh explorer — outcomes applied without
    re-execution, flowing through the same sliding-window schedule —
    drains at the snapshot's watermark and checks the rebuilt state
    against the snapshot ({!Checkpoint.check_replay}), then generates
    new work. Because the explorer and the per-candidate RNG streams are
    deterministic, the resulting history (and every export derived from
    it) is byte-for-byte the history the uninterrupted run would have
    produced.
    @raise Invalid_argument when combined with [stop] (a predicate is
    not part of the campaign metadata a resume checks);
    @raise Checkpoint.Cannot_resume when the journal or snapshot
    contradicts the regenerated campaign. *)

val run :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  ?stop:Afex.Session.stop ->
  ?time_budget_ms:float ->
  ?checkpoint:Checkpoint.t ->
  ?batch_size:int ->
  ?sync_every:int ->
  ?remotes:Remote_manager.spec list ->
  ?inflight:int ->
  ?request_timeout_ms:int ->
  jobs:int ->
  iterations:int ->
  Afex.Config.t ->
  Afex_faultspace.Subspace.t ->
  executor ->
  Afex.Session.result * stats
(** [create], {!session}, [shutdown] — the one-shot convenience. *)
