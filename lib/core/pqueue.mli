(** Q_priority: the bounded pool of executed high-fitness tests.

    Parents are sampled with probability proportional to fitness (line 4 of
    Algorithm 1). When the size limit is hit, a victim is sampled with
    probability {e inversely} proportional to fitness, so average fitness
    rises over time. Aging decays fitness each round and retires tests
    below a threshold; retired tests "can never have offspring" (§3). *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val size : t -> int
val is_empty : t -> bool
val capacity : t -> int

type eviction = Inverse_fitness | Drop_min

val insert :
  ?policy:eviction -> Afex_stats.Rng.t -> t -> Test_case.t -> Test_case.t option
(** Adds a test; if the queue was full, returns the evicted victim. The
    default [Inverse_fitness] policy samples the victim with probability
    inversely proportional to fitness (the paper's rule); [Drop_min]
    deterministically evicts the lowest-fitness entry (ablation). The
    inverse draw walks the list like {!sample}. *)

val sample : Afex_stats.Rng.t -> t -> Test_case.t option
(** Fitness-proportional parent choice; [None] when empty. Tests with
    non-positive fitness are still sampleable with small probability.
    One [Rng.float] draw and two walks of the list (sum, then scan): no
    weight array or distribution is built. *)

val age : t -> decay:float -> retire_below:float -> Test_case.t list
(** Multiplies every fitness by [decay] and removes (returning) tests
    whose fitness dropped below [retire_below]. The queue is rebuilt
    only when some test retires. *)

val mean_fitness : t -> float
val elements : t -> Test_case.t list
(** Unordered. *)
