(** Why-provenance recording overhead: TC and SG evaluated with a tag
    store attached vs without. Prints the per-workload table and writes
    the machine-readable summary — per-side simulated runtimes, the on/off
    overhead ratio, tag counts and coverage, and whether outputs were
    byte-identical — to [BENCH_prov.json] in the working directory, as a
    {!Report.write_record} record (metrics like [tc.overhead]). The
    acceptance bar ([bench/check.sh]): outputs identical, full coverage
    and overhead at most 2x on every workload. *)

val exp : scale:int -> unit

val run : scale:int -> unit
