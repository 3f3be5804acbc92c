(** Single-domain event loop multiplexing many in-flight test executions.

    The Domain-based {!Pool} buys throughput with CPU parallelism — the
    right tool when each test {e computes} for its whole duration. But
    against a latency-bound target (a VM rebooting, a process crashed by
    fork/exec, a manager across a network) a worker domain spends its
    time {e waiting}, and burning a domain per in-flight test caps
    concurrency at the core count. This executor instead keeps up to
    [inflight] tests outstanding from one domain: each test is a
    nonblocking {!Afex.Executor.job}, completions are discovered by
    [Unix.select] over the jobs' fds and the remote connections' sockets,
    and everything time-based — poll deadlines, request timeouts,
    reconnect backoff — lives on a monotonic {!Timer_wheel}, so nothing
    ever sleeps while other work could progress (§7.7's dispatch-overhead
    model is the prediction this design chases; [bench async] measures
    the distance).

    The loop is driven incrementally: {!submit} enqueues a tagged test
    (dispatched eagerly, up to [inflight] concurrent), {!poll} runs the
    loop and returns whatever completed, in completion order. The
    {!Runtime} wraps this pair as its event-loop backend and restores
    submission order in its reorder buffer; {!exec_batch} is the batch
    convenience built on the same surface, returning a slot-indexed
    array so a caller's merge stays independent of completion order and
    of [inflight] itself. The Domains backend runs one [inflight = 1]
    instance inside each remote proxy domain, so every remote path in
    AFEX shares this loop's client, backoff gate, straggler timer and
    local fallback. *)

(** A monotonic timer wheel: O(1) schedule/cancel, expiry in (deadline,
    scheduling order). Bucketed by coarse ticks; an entry more than a
    full rotation out simply stays in its bucket until the clock reaches
    it. Exposed for tests. *)
module Timer_wheel : sig
  type 'a t
  type 'a entry

  val create :
    ?granularity_ms:float -> ?slots:int -> now_ms:float -> unit -> 'a t
  (** Defaults: 1 ms granularity, 256 slots.
      @raise Invalid_argument on a non-positive granularity or slot
      count. *)

  val schedule : 'a t -> at_ms:float -> 'a -> 'a entry
  (** Deadlines already in the past fire on the next {!advance}. *)

  val cancel : 'a t -> 'a entry -> unit
  (** Idempotent; a cancelled entry never comes out of {!advance}. *)

  val pending : 'a t -> int
  val next_deadline : 'a t -> float option

  val advance : 'a t -> now_ms:float -> 'a list
  (** Every live entry with [deadline <= now_ms], ordered by deadline
      with ties in scheduling order. The clock never goes backwards. *)
end

type t

type task = {
  scenario : Afex_faultspace.Scenario.t option;
      (** What to ship to a remote manager; [None] pins the task local
          (cache probes, non-serialisable work). *)
  start : unit -> Afex.Executor.job;
      (** The local way to run it — also the fallback when every remote
          path fails. *)
}

type stats = {
  local_runs : int;  (** jobs started on this domain (incl. fallbacks) *)
  remote_runs : int;
      (** requests put on a manager's wire; one that then fails is also
          a fallback *)
  remote_fallbacks : int;
      (** The one rule for every backend. A fallback is a test that
          carries a scenario, was dispatched while at least one manager
          was not yet written off, and ran locally: its remote attempt
          failed (refused or dead dial, dropped connection, straggler
          timeout, manager error, undecodable reply), or every live
          manager was waiting out its reconnect backoff. Once every
          manager is written off the remaining tests run locally
          uncounted; the write-off shows in the manager's [dials] and
          [retries]. *)
  max_inflight : int;  (** high-water mark of concurrent tests *)
  wakeups : int;  (** event-loop iterations *)
}

val create :
  ?remotes:Remote_manager.spec list ->
  ?request_timeout_ms:int ->
  ?now_ms:(unit -> float) ->
  inflight:int ->
  total_blocks:int ->
  unit ->
  t
(** Each remote connection gets a credit of [inflight]
    ({!Remote_manager.Pipelined.create}), so no single manager can absorb
    more than the whole window. [request_timeout_ms] (default 10s) is the
    straggler bound per outstanding request: a manager that holds a test
    longer forfeits its connection and everything on it. [now_ms]
    (default {!Afex.Executor.monotonic_ms}) exists so tests can drive the
    clock.
    @raise Invalid_argument if [inflight < 1] or the timeout is not
    positive. *)

val submit : t -> tag:int -> task -> unit
(** Enqueue one test under the caller's [tag] and dispatch eagerly if
    the in-flight window has room (remotes preferred — round-robin over
    dispatchable connections, backoff gates respected — with local
    fallback on any remote failure). The tag comes back from {!poll}.
    @raise Invalid_argument if [tag] is already outstanding. *)

val poll : t -> block:bool -> (int * (Afex_injector.Outcome.t, exn) result) list
(** Run the event loop and return the completions it produced, oldest
    first, in completion order. With [block = true] the loop runs until
    at least one completion is available (immediately returning anything
    already queued); [[]] means nothing was outstanding. With
    [block = false] the loop gets one zero-timeout iteration. Exceptions
    raised by a job are captured per-tag, not thrown. *)

val outstanding : t -> int
(** Submitted tests whose completions {!poll} has not returned yet. *)

val exec_batch : t -> task array -> (Afex_injector.Outcome.t, exn) result array
(** {!submit} every task under its index, {!poll} until all complete:
    the batch convenience. Returns results indexed by submission
    position. @raise Invalid_argument if submissions are already
    outstanding. *)

val stats : t -> stats
(** Cumulative across batches. *)

val remote_stats : t -> (string * Remote_manager.stats) list
(** Per-manager wire counters ([retries] counts connection-level
    failures). *)

val close : t -> unit
(** Closes every remote connection (best-effort [Shutdown]). The
    executor stays usable for local-only batches. *)
