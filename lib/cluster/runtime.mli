(** The unified execution runtime: one [submit]/[poll]/[drain] surface
    over every way AFEX can run a test, plus the reorder buffer the
    barrierless pool is built from.

    The batch-barrier pool alternated generation and execution: the
    explorer generated a whole window, blocked until every slot came
    back, then merged. This module removes the barrier: the explorer
    submits while its window has room and releases completions through
    {!Reorder}, a submission-indexed buffer that hands them back
    strictly in submission order. The explored history, feedback
    weights and exports are therefore bit-identical to the sequential
    run whichever backend executes the tests:

    - {!inline}: the caller runs each task at submission.
    - {!domains}: worker domains pop one shared FIFO run queue. The
      explorer is its only producer and tasks never spawn subtasks, so
      a slow scenario delays only its own release while every other
      worker keeps popping. Each remote manager adds one proxy domain
      that pops the same queue and ships what it takes over a one-slot
      {!Async_executor}.
    - {!event_loop}: the single-domain async event loop, several tests
      in flight at once.

    Every remote path therefore rides the same pipelined client,
    backoff gate, straggler timer and local fallback. *)

(** A submission-indexed reorder buffer: out-of-order [offer]s, strictly
    in-order release. Single-consumer; pure bookkeeping (no locks), so
    it property-tests in isolation. *)
module Reorder : sig
  type 'a t

  val create : ?next:int -> unit -> 'a t
  (** [next] (default 0) is the first sequence number to release. *)

  val offer : 'a t -> seq:int -> 'a -> unit
  (** Buffer the value for [seq]. Sequences may arrive in any order and
      with gaps; each is accepted exactly once.
      @raise Invalid_argument on a duplicate or already-released [seq]. *)

  val pop : 'a t -> 'a option
  (** The value at the release watermark, advancing it — or [None] while
      that sequence has not been offered (a head-of-line gap), no matter
      how many later sequences are buffered. *)

  val peek : 'a t -> 'a option
  (** {!pop} without advancing. *)

  val watermark : 'a t -> int
  (** The next sequence to release. Monotone: grows by exactly 1 per
      successful {!pop}. *)

  val buffered : 'a t -> int
  (** Offered-but-unreleased values (the out-of-order backlog). *)
end

(** {2 The runtime} *)

type task = {
  seq : int;  (** submission index; comes back with the completion *)
  scenario : Afex_faultspace.Scenario.t option;
      (** what a remote proxy ships over the wire; [None] pins the task
          local (seeded executors, whose RNG closure cannot travel) *)
  run : unit -> Afex_injector.Outcome.t;
      (** the synchronous form: Domain workers and the inline backend *)
  start : unit -> Afex.Executor.job;
      (** the nonblocking form an event loop (or a proxy's local
          fallback) runs *)
}

type t

val inline : unit -> t
(** Tasks execute synchronously at {!submit} on the calling domain — the
    [jobs = 1] degenerate case, and the determinism baseline every other
    backend must reproduce. *)

val domains :
  ?remotes:Remote_manager.spec list ->
  ?request_timeout_ms:int ->
  total_blocks:int ->
  jobs:int ->
  unit ->
  t
(** [jobs] local worker domains plus one proxy domain per remote spec,
    all popping one shared FIFO. A proxy runs each task it pops through
    its own one-slot {!Async_executor} over its manager
    ([request_timeout_ms] is that executor's straggler bound): a failed
    or gated remote attempt runs the task locally on the proxy, so a bad
    manager costs throughput, never correctness, and is dialed at most
    [max_attempts] times in all. Tasks without a scenario run locally
    on whichever domain pops them.
    @raise Invalid_argument if [jobs < 0] or there are no workers at
    all. *)

val event_loop : Async_executor.t -> t
(** Wrap the single-domain async event loop: {!submit} enqueues on the
    loop, {!poll} runs it. The runtime owns the executor and closes it
    on {!shutdown}. *)

val submit : t -> task -> unit
(** Hand one task to the backend. Never blocks on execution (the inline
    backend runs the task, by definition). Sequence numbers are the
    caller's; they come back verbatim in completions. *)

val poll : t -> block:bool -> (int * (Afex_injector.Outcome.t, exn) result) list
(** Completions since the last poll, in completion order (not submission
    order — that is {!Reorder}'s job). [block = true] waits until at
    least one completion is available; returns [[]] only when nothing is
    outstanding. [block = false] returns immediately after giving the
    backend a chance to make progress. *)

val outstanding : t -> int
(** Submitted tasks whose completions have not been polled yet. *)

val drain : t -> (int * (Afex_injector.Outcome.t, exn) result) list
(** Block until every outstanding task completes; the tail of
    completions in completion order. The quiescent point the checkpoint
    layer snapshots at. *)

val async : t -> Async_executor.t option
(** The wrapped event loop, when the backend is one. *)

val remote_runs : t -> int
(** Requests put on a manager's wire, summed over the event loop or the
    proxies ({!Async_executor.stats}). *)

val remote_fallbacks : t -> int
(** Tests that ran locally although a manager could have taken them,
    summed the same way; {!Async_executor.stats} states the rule. *)

val remote_stats : t -> (string * Remote_manager.stats) list
(** One entry per manager, in spec order. *)

val shutdown : t -> unit
(** Join worker domains / close remote connections. Outstanding tasks
    are still executed (workers empty the run queue before exiting), but
    their completions are dropped. Idempotent. *)
