(** Million-tenant-shape load benchmark: the autoscaler A/B under a fixed
    Zipf burst train, SLO scorecards per class, outputs proven
    byte-identical across arms. Writes [BENCH_service.json], a
    {!Report.write_record} record (metrics like [on.gold_p95_s]). *)

val exp : scale:int -> unit

val run : scale:int -> unit
