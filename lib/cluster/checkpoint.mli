(** Crash-safe campaign checkpoints: a write-ahead journal of every
    released outcome, plus constant-size watermark snapshots.

    The explorer is a pure function of its seed, its configuration and
    the outcomes it is fed, so the journal is the only durable record a
    campaign needs. A checkpoint directory holds two files:

    - [wal.log] — one checksummed line per released outcome, from
      iteration 1 on, appended {e before} the explorer absorbs it and
      never truncated. Outcomes release in submission order, so the
      journal carries iterations 1, 2, 3, ... with no batch framing.
    - [snapshot.afex] — a watermark: the campaign metadata, the window
      count, the pool's master RNG position and a fingerprint of the
      explorer ({!Afex.Explorer.Snapshot.t}) at a quiescent point
      (released = submitted). It is a few hundred bytes whatever the
      campaign's length, written atomically (temp file, then [rename])
      at every sync watermark of the session and at its end.

    [--resume] verifies the metadata, parses the whole journal and
    replays it from iteration 0 into a fresh explorer: each journaled
    outcome is fed back without re-execution, after checking that the
    explorer regenerated the journaled candidate. When the replay
    reaches the snapshot's watermark, the rebuilt state must match the
    fingerprint exactly; the campaign then continues live. Kill the
    process anywhere — mid-append, mid-snapshot — and the final export
    is byte-identical to the uninterrupted run's (proven in CI by a
    kill -9 harness). A resume costs one generate-and-report pass over
    the journal, with no executions.

    Durability is against process death, not media loss: files are
    flushed to the OS on every append but not fsynced. *)

module Snapshot : sig
  type retired = |
  (** Uninhabited: the state of the deleted adaptive window controller. *)

  type t = {
    meta : (string * string) list;
        (** campaign identity: every flag that shapes the search, checked
            on resume so a journal cannot silently continue under a
            different configuration *)
    batches : int;  (** completed in-flight windows *)
    master_state : int64;  (** the pool's master RNG position *)
    scheduler : retired option;
        (** always [None]; kept only because [perfbench/traced.ml]
            still builds this record, and to be deleted with the next
            change to the benchmark *)
    explorer : Afex.Explorer.Snapshot.t;  (** the explorer's fingerprint *)
  }

  val encode : t -> string
  (** Versioned ([afex-checkpoint 4]), checksummed, line-oriented; the
      exact bytes written to [snapshot.afex]. Encoding is a pure function
      of the snapshot, so equal states produce equal files. *)

  val decode : string -> (t, string) result
  (** Total inverse of {!encode}: truncation, bit flips, unknown
      versions and structural damage all return [Error], never raise. A
      format 3 snapshot (a full explorer image over a truncated journal)
      is refused with an [Error] that says so. *)
end

type hooks = {
  on_append : int -> unit;
      (** called after every journal append with the running append
          count — the kill-9 test harness raises from here to simulate a
          crash at a precise write *)
  after_rename : unit -> unit;
      (** called right after a snapshot's [rename] *)
}

val no_hooks : hooks

type t

val start : ?hooks:hooks -> dir:string -> (string * string) list -> (t, string) result
(** Open [dir] (created if missing) for a fresh campaign: an empty
    journal, no snapshot yet. [Error] if the directory already holds a
    snapshot — resuming must be explicit. *)

val resume : ?hooks:hooks -> dir:string -> (string * string) list -> (t, string) result
(** Load [dir]'s snapshot, verify the campaign metadata matches, and
    scan the whole journal: every line's checksum and iteration number
    are checked (dropping at most one torn final line, rejecting any
    other corruption or a gap in the iterations), and every journaled
    outcome is queued for replay. [Error] when the journal ends before
    the snapshot's watermark. *)

val resumed : t -> bool
val dir : t -> string
val meta : t -> (string * string) list

val loaded_snapshot : t -> Snapshot.t option
(** The snapshot a {!resume} loaded; [None] after {!start}. *)

val check_replay : t -> Snapshot.t -> (unit, string) result
(** Compare the state the replay rebuilt at the loaded snapshot's
    watermark with that snapshot: window count, master RNG and every
    fingerprint field. [Error] names the first field that differs.
    [Ok ()] when nothing was loaded. *)

exception Cannot_resume of string
(** A resumed campaign's replay did not reproduce its checkpoint: a
    journal line does not decode, the explorer regenerated a different
    candidate than the journal recorded, or the state at the snapshot's
    watermark differs from the snapshot's fingerprint ({!check_replay}).
    The message says which. *)

val next_replay : t -> (string * Message.run_report) option
(** Read and decode the next journaled outcome to replay, oldest first:
    the candidate's point key and the measured report (its [seq] is the
    replay position). The journal is streamed from disk, one line per
    call, so a resume holds one outcome at a time.
    @raise Cannot_resume if the line does not decode. *)

val replay_pending : t -> bool

val due : t -> iterations:int -> bool
(** Whether a watermark snapshot is due: the campaign has advanced past
    the last one. Called at each quiescent sync watermark, so the
    cadence is one snapshot per sync watermark. *)

val append_outcome :
  t -> point_key:string -> seq:int -> Afex_injector.Outcome.t -> unit
(** Journal one released outcome ([seq] is the absolute iteration
    number). One checksummed line, built in a reused buffer, one
    [write]. *)

val write_snapshot : t -> iterations:int -> Snapshot.t -> unit
(** Atomically replace [snapshot.afex]. The journal is left as is. *)

type stats = {
  was_resumed : bool;
  snapshots_written : int;
  wal_appends : int;
  replayed_records : int;  (** journaled outcomes applied without re-execution *)
  torn_lines : int;  (** torn journal tail lines dropped on resume (0 or 1) *)
}

val stats : t -> stats

val close : t -> unit
(** Close the journal. The checkpoint stays resumable. *)
