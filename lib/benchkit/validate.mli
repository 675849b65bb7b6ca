(** The CI check's report validator: one list of claims per report kind,
    over strict reads, so a missing key fails and names the key. The
    [BENCH_*.json] records ({!Report.write_record}) and perfbench's last
    line are read by one function: [correct], [attempted > 0], [failed = 0],
    then each claim on a named metric against a number or another metric. *)

val kinds : string list
(** [profile], [index], [index-off], [kernel-profile] (profiles of
    [recstep run]), [delta-timeline] (a profile with kernels, then one
    without: identical per-round Δ timelines), [delta-sum] (a profile, then
    [{IDB: rows written}] for its non-aggregated IDBs: each IDB's Δ rows
    over the timeline add up to its rows), [fuzz], [delta-fuzz], [serve], [serve-ivm] (a serve
    report with maintenance, then one with [--no-ivm]), [chaos],
    [chaos-kernel], [load], [perfbench], [bench-kernel], [bench-prov],
    [bench-ivm] and [bench-service]. *)

val check : string -> Rs_obs.Json.t list -> (string, string) result
(** [check kind reports]: [Ok summary], or [Error] naming the key of the
    first claim that fails or the first key that is missing. *)

val check_files : string -> string list -> (string, string) result
(** {!check} over JSON files; a [perfbench] file is its stdout, whose last
    line is the record. *)
