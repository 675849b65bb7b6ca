module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
(** Table catalog with statistics (the backend's [analyze] target).

    The paper's OOF optimization hinges on *which* statistics are collected
    *when*: RecStep re-collects only the cheap statistics the optimizer will
    actually consult (row counts before joins; value bounds before
    aggregations), at every iteration. The ablations are: OOF-NA — never
    refresh, so the optimizer plans against stale counts; OOF-FA — refresh
    the full statistics set (a real extra scan per table per iteration). *)

type full_stats = {
  col_min : int array;
  col_max : int array;
  col_sum : int array;
  distinct_estimate : int;
}

type range = { src : Relation.t; lo : int; hi : int }
(** Rows [\[lo, hi)] of [src]: the table itself, or the changed groups of
    an aggregated IDB, whose table is rebuilt every round. *)

type entry = private {
  mutable rel : Relation.t;
  mutable stat_rows : int;  (** row count as last analyzed (may be stale) *)
  mutable full : full_stats option;
  mutable delta : range option;
      (** the table's Δ since {!set_delta} first gave it one; [None] is
          the empty Δ at the end of a table read whole *)
}
(** A table and its Δ. A recursive IDB's Δ is a row range of its own
    table, so the table holds every row once: {!read} bounds the table at
    the Δ's end [hi] (the round-start rows), and the rows a round derives
    are appended past it until the next {!set_delta}. *)

type t

val create : unit -> t

val register : t -> string -> Relation.t -> unit
(** Registers (or replaces) a table and records its initial row count. It
    has no Δ until {!set_delta} gives it one, and reads see all its rows. *)

val find : t -> string -> entry

val rel : t -> string -> Relation.t

val mem : t -> string -> bool

val drop : t -> string -> unit
(** Removes the table and releases its memory accounting, and that of a Δ
    held in another relation. *)

val set_delta : t -> string -> ?src:Relation.t -> lo:int -> hi:int -> unit -> unit
(** [set_delta t name ?src ~lo ~hi ()] makes rows [\[lo, hi)] of [src]
    (default: the table itself) the table's Δ. Raises [Invalid_argument]
    when the range does not lie in [src] ([0 <= lo <= hi <= nrows src]).
    A previous Δ held in another relation is released. *)

(** What a plan leaf reads of a table. *)
type read =
  | Full  (** rows [\[0, hi)] of a table whose Δ is a range of it, else every row *)
  | Old  (** rows [\[0, lo)]: the table before its Δ *)
  | Delta  (** the Δ: rows [\[lo, hi)] of its relation *)

val read : t -> string -> read -> Relation.t * int * int
(** [read t name what] is the relation a leaf reads and its row range
    [(rel, start, stop)]. [Old] of a table whose Δ lies in another
    relation raises [Invalid_argument]: such a table has no rows before
    its Δ. *)

val delta_rows : t -> string -> int
(** The Δ's row-count statistic, [hi - lo] (0 without a Δ). Unlike
    {!stat_rows} it is never stale: every OOF mode plans against the
    current Δ size, and only the tables' own counts age. *)

val analyze_rows : t -> string -> unit
(** Refresh the row-count statistic (O(1), what OOF collects for joins). *)

val analyze_full : t -> Rs_parallel.Pool.t -> string -> unit
(** Collect the full statistics set with a real parallel scan (what the
    OOF-FA ablation pays for every updated table). *)

val stat_rows : t -> string -> int

val names : t -> string list
