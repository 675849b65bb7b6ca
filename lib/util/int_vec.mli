(** Growable arrays of unboxed integers.

    The columnar storage layer and the worklist engines accumulate tuples one
    attribute at a time; this vector avoids the boxing and indirection of
    ['a list] / [Buffer]-style accumulation. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty vector. *)

val length : t -> int

val push : t -> int -> unit
(** Amortized O(1) append. *)

val get : t -> int -> int
(** [get v i] is the [i]-th element; bounds-checked. *)

val set : t -> int -> int -> unit

val clear : t -> unit
(** Resets length to zero, keeping capacity. *)

val to_array : t -> int array
(** Fresh array copy of the contents. *)

val of_array : int array -> t

val create_sized : int -> t
(** [create_sized n] has length [n], zero-filled (for parallel scatter
    writes into precomputed slices). *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src spos dst dpos len] copies a range; bounds-checked. *)

val unsafe_data : t -> int array
(** The backing array (may be longer than [length]); for tight inner loops in
    the executor only. *)

val iter : (int -> unit) -> t -> unit

val append : t -> t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)

val capacity_bytes : t -> int
(** Bytes currently reserved by the backing array, for memory accounting. *)
