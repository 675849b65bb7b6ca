(** EXTRA experiment: join-index maintenance on a growing recursive relation.

    Isolates the cost the executor's {!Rs_exec.Index_manager} removes: a full
    relation grows by a delta each iteration (the semi-naive recursive
    shape), and the full-table join index is maintained two ways —

    - rebuild-chained: fresh {!Rs_relation.Hash_index.build_pool} every
      iteration (the pre-manager executor behavior);
    - delta-append: one build, then
      {!Rs_relation.Hash_index.append_pool} over the appended suffix each
      iteration (what the manager does for recursive tables).

    Each iteration the index is probed once per delta row, as in the
    delta-rule join. The report table has one row per iteration with the
    simulated index-maintenance seconds per strategy, plus totals. *)

val exp : scale:int -> unit
