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

type entry = {
  mutable rel : Relation.t;
  mutable stat_rows : int;  (** row count as last analyzed (may be stale) *)
  mutable full : full_stats option;
}

type t

val create : unit -> t

val register : t -> string -> Relation.t -> unit
(** Registers (or replaces) a table and records its initial row count. *)

val find : t -> string -> entry

val rel : t -> string -> Relation.t

val mem : t -> string -> bool

val drop : t -> string -> unit
(** Removes the table and releases its memory accounting. *)

val analyze_rows : t -> string -> unit
(** Refresh the row-count statistic (O(1), what OOF collects for joins). *)

val analyze_full : t -> Rs_parallel.Pool.t -> string -> unit
(** Collect the full statistics set with a real parallel scan (what the
    OOF-FA ablation pays for every updated table). *)

val stat_rows : t -> string -> int

val names : t -> string list
