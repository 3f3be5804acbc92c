(** Online redundancy feedback (§7.4).

    While the search runs, AFEX compares each new test's injection stack
    trace against everything seen so far and scales its fitness on a linear
    scale: an exact repeat of a known trace zeroes the fitness, a trace
    unlike anything seen keeps it unchanged. This steers exploration away
    from re-manifesting the same underlying bug. *)

type t

val create : ?intern:Trace_intern.t -> unit -> t
(** [intern] shares a frame-interning table with the rest of the session
    (the explorer passes the one its cluster indexes use); a private
    table is created otherwise. *)

val seen : t -> int
(** Number of distinct traces registered. *)

val weight : t -> string list -> float
(** [1 - max similarity to any registered trace], in [0, 1]; 1 when
    nothing has been registered yet. *)

val register : t -> string list -> unit
(** Record a trace (duplicates are collapsed). *)

val weigh_fitness : ?bonus:float -> t -> trace:string list option -> float -> float
(** Apply the linear redundancy scale to a fitness value and register the
    trace. [None] traces (fault did not trigger) pass through unchanged.
    [bonus] (the explorer's weighted rarity bonus) is added {e after} the
    scale, so coverage of a rarely-hit block is rewarded even on a
    redundant trace; omitting it leaves results bit-identical to the
    unscaled signature. *)
