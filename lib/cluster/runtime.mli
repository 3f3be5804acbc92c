(** The unified execution runtime: one [submit]/[poll]/[drain] surface
    over every way AFEX can run a test, plus the two data structures the
    barrierless pool is built from.

    The batch-barrier pool alternated generation and execution: the
    explorer generated a whole window, blocked until every slot came
    back, then merged. Per-phase timings showed that barrier is a
    first-order cost — merge stall comparable to execution wait at large
    windows. This module removes it:

    - {!Deque}: a Chase–Lev-style work-stealing deque per worker. The
      explorer (the single producer) pushes tasks round-robin; a worker
      whose own deque runs dry steals from a random victim, so load
      imbalance — one slow scenario, one stolen worker — never idles the
      rest of the fleet.
    - {!Reorder}: a submission-indexed reorder buffer. Completions
      arrive in whatever order workers finish; the buffer releases them
      to the explorer strictly in submission order, so the explored
      history, feedback weights and exports are bit-identical to the
      sequential run at any parallelism.
    - {!t}: the capability-based runtime handle. Three backends —
      inline (execute on the caller), work-stealing Domains (local
      workers plus remote-manager proxies), and the single-domain async
      event loop — behind one interface, so {!Pool}, {!Checkpoint} and
      the future multi-tenant coordinator schedule
      heterogeneous workers without knowing which backend runs them. *)

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

(** A Chase–Lev-style work-stealing deque, adapted to AFEX's shape: the
    {e explorer} is the single owner ([push]/[pop] at the bottom), and
    every worker — including the deque's nominal owner-worker — takes
    from the top with a CAS {!steal}. Tasks never spawn subtasks, so the
    only contended operation is steal/steal, resolved by the CAS on
    [top]; push and pop stay fence-free single-owner operations. *)
module Deque : sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** Initial ring capacity (default 64); the owner grows it on demand,
      never blocking thieves.
      @raise Invalid_argument if [capacity < 1]. *)

  val push : 'a t -> 'a -> unit
  (** Owner only: append at the bottom. *)

  val pop : 'a t -> 'a option
  (** Owner only: take back the most recently pushed element (LIFO end),
      racing thieves for the last one. *)

  val steal : 'a t -> 'a option
  (** Any domain: take the oldest element (FIFO end). Lock-free; [None]
      when empty or when a race was lost and the deque drained. *)

  val length : 'a t -> int
  (** A snapshot; exact only when quiescent. *)
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
      (** the nonblocking form the event loop multiplexes *)
}

type capabilities = {
  kind : string;  (** ["inline"], ["domains"] or ["event-loop"] *)
  workers : int;
      (** executions the backend holds concurrently: 1 inline, local
          domains + remote proxies for the stealing backend, [inflight]
          for the event loop *)
  stealing : bool;  (** idle workers steal from a random victim *)
  pipelined : bool;  (** completions multiplex on one domain *)
  remote : bool;  (** some tasks may execute across the wire *)
}

type t

val inline : unit -> t
(** Tasks execute synchronously at {!submit} on the calling domain — the
    [jobs = 1] degenerate case, and the determinism baseline every other
    backend must reproduce. *)

val domains :
  ?steal_seed:int ->
  ?remotes:Remote_manager.spec list ->
  total_blocks:int ->
  jobs:int ->
  unit ->
  t
(** The work-stealing backend: [jobs] local worker domains plus one
    proxy domain per remote spec, each owning a deque the explorer feeds
    round-robin. A dry worker steals from a random victim ([steal_seed]
    seeds the per-worker victim streams — placement only, never the
    history). A proxy ships each stolen task's scenario to its manager
    and falls back to running it locally on any remote failure, so a bad
    manager costs throughput, never correctness.
    @raise Invalid_argument if [jobs < 0] or there are no workers at
    all. *)

val event_loop : Async_executor.t -> t
(** Wrap the single-domain async event loop: {!submit} enqueues on the
    loop, {!poll} runs it. The runtime owns the executor and closes it
    on {!shutdown}. *)

val capabilities : t -> capabilities

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
(** Tasks whose outcome came over the wire (both backends). *)

val remote_fallbacks : t -> int
(** Remote attempts that failed and re-ran locally. *)

val remote_stats : t -> (string * Remote_manager.stats) list

val shutdown : t -> unit
(** Join worker domains / close remote connections. Outstanding tasks
    are still executed (domains drain their deques before exiting), but
    their completions are dropped. Idempotent. *)
