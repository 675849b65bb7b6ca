(** Fixed-size bit sets over [0, n).

    Used for visited-sets in the worklist engines and as the row type of the
    PBME bit matrix. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val test_and_set : t -> int -> bool
(** [test_and_set t i] adds [i] and returns [true] iff it was absent. *)

val cardinal : t -> int
(** Population count; O(n/64). *)

val iter : (int -> unit) -> t -> unit
(** Iterates set members in increasing order. *)

val union_into : t -> t -> bool
(** [union_into dst src] ors [src] into [dst]; returns [true] if [dst]
    changed. Universes must match. *)
