(** Stack-frame interning.

    Every distinct frame string is assigned a small int id, so a stack trace
    becomes an [int array]: trace equality is an int-array compare, hashing
    never re-walks frame text, and the edit-distance kernels compare tokens
    with [=] on ints instead of [String.equal]. One table is shared by the
    redundancy feedback and both cluster indexes of an exploration session,
    so a frame is tokenized exactly once per campaign no matter how many
    traces contain it. *)

type t

val create : ?size:int -> unit -> t
(** [size] is the initial capacity hint (default 256). *)

val size : t -> int
(** Number of distinct frames interned so far. *)

val intern_frame : t -> string -> int
(** Id of a frame, allocating the next id on first sight. *)

val intern : t -> string list -> int array
(** Tokenize a whole trace, in order. *)

val frame : t -> int -> string
(** Inverse of {!intern_frame}. Raises [Invalid_argument] on unknown ids. *)

val extern : t -> int array -> string list
(** Inverse of {!intern}. *)
