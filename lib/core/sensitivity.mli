(** Per-axis sensitivity (§3): the historical benefit of mutating each
    attribute.

    Given a window size n, the sensitivity of axis Xi is the sum of the
    fitness values of the last n executed tests whose creation mutated
    attribute αi. High sensitivity means mutations along that axis kept
    paying off — the dynamic stand-in for relative linear density. *)

type t

val create : ?window:int -> dims:int -> unit -> t
(** [window] defaults to 20 samples per axis. Axes start with a neutral
    optimistic prior so early exploration tries every direction. *)

val record : t -> axis:int -> fitness:float -> unit
val value : t -> int -> float
val values : t -> float array

val probabilities : t -> float array
(** Normalized axis-choice distribution (line 5 of Algorithm 1), with a
    small floor on every axis so no direction is ever abandoned
    completely. Computed once per sample state and cached until the next
    {!record}: the array is shared with later calls and with the mutator,
    so callers must treat it as read-only (copy it before handing it
    out). *)

val dims : t -> int

val mask : t -> bool array
(** Per-axis pin mask for FairFuzz-style masked mutation: [true] on every
    axis whose choice probability strictly exceeds the uniform share —
    the axes whose mutations established the current position and should
    be held fixed while the rest explore. Because the probabilities sum
    to 1, at least one axis is always left unpinned (up to float
    rounding; {!Mutator.mutate} rejects a fully pinned mask). Cached like
    {!probabilities}: shared, read-only. *)
