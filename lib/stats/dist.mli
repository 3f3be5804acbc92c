(** Discrete probability distributions used by the AFEX search.

    The paper's Algorithm 1 needs two sampling primitives: fitness- or
    sensitivity-proportional choice over a finite set (lines 1-6), and a
    discrete approximation of a Gaussian centred on the current attribute
    value (lines 8-9). Both are provided here over index domains
    [0 .. n-1]. *)

type weighted
(** A normalized discrete distribution over indices [0 .. n-1]. *)

val of_weights : float array -> weighted
(** [of_weights w] builds a distribution proportional to [w]. Negative
    weights raise [Invalid_argument]. If every weight is zero the
    distribution is uniform. *)

val weights : weighted -> float array
(** Normalized probabilities (sums to 1 up to rounding). *)

val support : weighted -> int
(** Number of indices. *)

val sample : Rng.t -> weighted -> int
(** Draw an index with its assigned probability. *)

val sample_weighted : Rng.t -> float array -> int
(** Same draw, same result and same RNG use as [sample rng (of_weights w)],
    in one scan of [w] without building the distribution. *)

val uniform : int -> weighted
(** Uniform distribution over [0 .. n-1]. *)

type gaussian
(** The mutation-magnitude density of Algorithm 1, line 9, for one domain
    size and sigma: the Gaussian evaluated at every offset [-(n-1) .. n-1]
    once, so a draw around any centre reads the table instead of
    re-evaluating [n] exponentials. *)

val gaussian : sigma:float -> n:int -> gaussian
(** With [sigma <= 0] all mass sits on offset 0.
    @raise Invalid_argument if [n <= 0] or [sigma] is NaN. *)

val gaussian_size : gaussian -> int
(** The domain size [n]. *)

val sample_gaussian_excluding : Rng.t -> gaussian -> center:int -> int
(** Draw from the density at indices [0 .. n-1], centred on [center],
    truncated to the domain and renormalized, until the index differs
    from [center] (a mutation must change the attribute); after 65 draws
    that all hit
    the centre, a uniform other index. Requires [n >= 2] and [center] in
    the domain. *)

val inverse : float array -> float array
(** [inverse w] maps each weight to a weight inversely proportional to it
    (used for dropping low-fitness tests from the priority queue: the paper
    drops with probability inversely proportional to fitness). Zero weights
    receive the largest inverse weight in the result. *)
