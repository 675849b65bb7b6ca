(** Incremental maintenance vs recompute-per-delta: the same TC workload
    and deterministic churn stream applied through RecStep's counting/DRed
    maintenance and through the generic recompute fallback
    ({!Rs_engines.Engine_intf.maintain_by_recompute}). Prints the paper-style
    table and writes the machine-readable summary — per-side bootstrap and
    apply times, the recompute/incremental ratio, and whether every version's
    outputs were identical — to [BENCH_ivm.json] in the working directory,
    as a {!Report.write_record} record (metrics like [tc.ratio]). *)

val exp : scale:int -> unit

val run : scale:int -> unit
