(** Hit-count rarity over basic blocks (the FairFuzz signal).

    Recovery code is a sliver of what a target executes (§7.2 counts it at
    0.64% of covered blocks), so the blocks a fitness-guided search most
    wants to grow into are precisely its {e rarely hit} ones. This module
    keeps a global histogram of how often each basic block was covered
    across the session and derives two signals from it: a fitness bonus for
    tests whose coverage reaches rarely-hit blocks, and a rare-block
    predicate the mutator uses to decide when to mask (pin) the axes that
    established the parent's position.

    All state is deterministic in the observation sequence, so a
    checkpointed campaign rebuilds it by replaying its journal. *)

type t

val create : blocks:int -> t
(** Fresh histogram over block ids [0 .. blocks-1], all counts zero. *)

val blocks : t -> int
val tests : t -> int
(** Outcomes observed so far. *)

val hit_count : t -> int -> int
(** @raise Invalid_argument if the block id is out of range. *)

val observe : t -> Afex_stats.Bitset.t -> unit
(** Fold one test's coverage into the histogram and bump the test count.
    @raise Invalid_argument if the bitset capacity differs from [blocks]. *)

val rarest_block : t -> Afex_stats.Bitset.t -> int option
(** The covered block with the fewest prior hits (lowest id on ties);
    [None] on empty coverage. Like {!observe}, one pass over the set bits
    ({!Afex_stats.Bitset.iter}). *)

val bonus : t -> Afex_stats.Bitset.t -> float
(** [1 / (1 + h)] in (0, 1], where [h] is the hit count of the
    {!rarest_block} — monotone non-increasing in that count; 0 for empty
    coverage. Callers scale it by the configured rarity weight and add it
    to fitness. *)

val bonus_of_rarest : t -> int option -> float
(** [bonus_of_rarest t (rarest_block t c) = bonus t c]: the bonus from an
    already computed rarest block, so a caller that also needs the block
    scans the coverage once. *)

val is_rare : t -> cutoff:float -> int -> bool
(** A block is rare while its hit count is below [cutoff] times the tests
    observed (so the threshold adapts as the session grows; nothing is
    rare before the first observation).
    @raise Invalid_argument if the block id is out of range. *)

val rare_count : t -> cutoff:float -> int
(** Number of blocks currently below the rarity cutoff (never-hit blocks
    included). *)
