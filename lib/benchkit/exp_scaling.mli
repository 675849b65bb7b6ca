(** Figures 8 and 9: RecStep scalability.

    Figure 8 sweeps the (simulated) core count on CSPA/httpd and
    CC/livejournal and reports speedup over one core: after one discarded
    run per workload, each core count compacts the heap and takes the
    median of three runs. Figure 9 sweeps data
    size: CC on the RMAT series, and Andersen's analysis on the seven
    synthetic datasets with the paper's "theoretical-linear" reference
    line. *)

val fig8 : scale:int -> unit
val fig9 : scale:int -> unit

val run : scale:int -> unit
(** Both figures. *)
