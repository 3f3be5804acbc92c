(** Fixed-capacity bitsets, used for basic-block coverage accounting. *)

type t

val create : int -> t
(** All bits clear. Capacity is fixed. *)

val capacity : t -> int
val copy : t -> t

val set : t -> int -> unit
(** @raise Invalid_argument if out of range. *)

val mem : t -> int -> bool
val count : t -> int

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst]. Capacities must match. *)

val diff_count : t -> t -> int
(** [diff_count a b] is the number of bits set in [a] but not in [b]. *)

val iter : (int -> unit) -> t -> unit
(** Visits the set bits in ascending order. Zero bytes are skipped whole,
    so a sparse set costs its byte length, not one probe per bit. *)

val to_list : t -> int list
val equal : t -> t -> bool
