(** Crash-safe campaign checkpoints: periodic snapshots plus a
    write-ahead journal of reported outcomes.

    A checkpoint directory holds two files:

    - [snapshot.afex] — the full explorer and pool state at a
      quiescent reorder-buffer watermark (released = submitted), written
      atomically (temp file + [rename]) in a versioned, checksummed,
      line-oriented codec built from the {!Message} field codecs and the
      {!Transport} CRC discipline.
    - [wal.log] — one checksummed line per released outcome since the
      last snapshot, appended {e before} progress is considered durable.
      Outcomes release in submission order, so the journal is strictly
      ascending in the absolute iteration each line carries; no batch
      framing is needed.

    Kill the process anywhere — mid-append, mid-snapshot, between the
    snapshot [rename] and the journal truncation — and [--resume]
    reconstructs the exact state: the snapshot restores the last
    watermark, the journal tail replays the outcomes released after it,
    and the deterministic explorer regenerates everything else. The
    final export is byte-identical to the uninterrupted run's (proven in
    CI by a kill -9 harness).

    Durability is against process death, not media loss: files are
    flushed to the OS on every append but not fsynced. *)

module Snapshot : sig
  type retired = |
  (** Uninhabited: the state of the deleted adaptive window controller. *)

  type t = {
    meta : (string * string) list;
        (** campaign identity: every flag that shapes the search, checked
            on resume so a snapshot cannot silently continue under a
            different configuration *)
    batches : int;  (** completed in-flight windows *)
    master_state : int64;  (** the pool's master RNG position *)
    scheduler : retired option;
        (** always [None]; kept only because [perfbench/traced.ml]
            still builds this record, and to be deleted with the next
            change to the benchmark *)
    explorer : Afex.Explorer.Snapshot.t;
  }

  val encode : t -> string
  (** Versioned ([afex-checkpoint 3]), checksummed, line-oriented; the
      exact bytes written to [snapshot.afex]. Encoding is a pure function
      of the snapshot, so equal states produce equal files. *)

  val decode : string -> (t, string) result
  (** Total inverse of {!encode}: truncation, bit flips, unknown
      versions and structural damage all return [Error], never raise. A
      snapshot carrying an adaptive-controller line ([S]) is refused
      with an [Error] that says so. *)
end

type hooks = {
  on_append : int -> unit;
      (** called after every journal append with the running append
          count — the kill-9 test harness raises from here to simulate a
          crash at a precise write *)
  after_rename : unit -> unit;
      (** called between the snapshot [rename] and the journal
          truncation — the crash window that makes stale journal entries
          possible *)
}

val no_hooks : hooks

type t

val start :
  ?hooks:hooks -> ?every:int -> dir:string -> (string * string) list ->
  (t, string) result
(** Open [dir] (created if missing) for a fresh campaign: an empty
    journal, no snapshot yet. [every] is the snapshot cadence in
    reported outcomes (default 500). [Error] if the directory already
    holds a snapshot — resuming must be explicit. *)

val resume :
  ?hooks:hooks -> ?every:int -> dir:string -> (string * string) list ->
  (t, string) result
(** Load [dir]'s snapshot, verify the campaign metadata matches, parse
    the journal tail (dropping at most one torn final line, rejecting
    any other corruption), and queue the journaled outcomes for replay.
    Journal entries for iterations the snapshot already covers —
    possible when the crash hit between the snapshot rename and the
    journal truncation — are discarded; what remains must continue
    contiguously from the snapshot's iteration count. *)

val resumed : t -> bool
val dir : t -> string
val meta : t -> (string * string) list

val loaded_snapshot : t -> Snapshot.t option
(** The snapshot a {!resume} loaded; [None] after {!start}. *)

val next_replay : t -> (int * string * Message.run_report) option
(** Pop the next journaled outcome to replay, oldest first: the
    absolute iteration number, the candidate's point key, and the
    measured report. *)

val replay_pending : t -> bool

val due : t -> iterations:int -> bool
(** Whether the cadence calls for a snapshot — never while journaled
    outcomes are still waiting to replay (a snapshot truncates the
    journal, which would drop them). *)

val append_outcome :
  t -> point_key:string -> seq:int -> Afex_injector.Outcome.t -> unit
(** Journal one released outcome ([seq] is the absolute iteration
    number). One checksummed line, one [write]. *)

val write_snapshot : t -> iterations:int -> Snapshot.t -> unit
(** Atomically replace [snapshot.afex] and truncate the journal. *)

type stats = {
  was_resumed : bool;
  snapshots_written : int;
  wal_appends : int;
  replayed_records : int;  (** journaled outcomes applied without re-execution *)
}

val stats : t -> stats

val close : t -> unit
(** Close the journal. The checkpoint stays resumable. *)
