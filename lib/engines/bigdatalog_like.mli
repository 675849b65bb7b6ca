(** BigDatalog-like baseline: bulk-synchronous, Spark-style evaluation.

    Reimplements the behavioural profile of BigDatalog (paper §6.1): each
    semi-naive iteration is a scheduled distributed stage with a fixed
    scheduling overhead, per-iteration shuffle outputs stay cached (RDD
    lineage), and the language fragment excludes mutual recursion (CSPA
    raises {!Engine_intf.Unsupported}, Figure 15c) while supporting
    recursive aggregation (CC, SSSP). Strong on few-iteration bulk
    workloads; the per-stage overhead dominates many-iteration programs and
    the cached shuffles inflate memory — exactly the trade-offs the paper
    measures (Figures 10-15, Table 1 "memory consumption: high").

    {!distributed} is the same engine configured like the paper's
    Distributed-BigDatalog reference cluster: 6x the workers, lower
    scheduling overhead per unit of work. *)

include Engine_intf.S

val options_for :
  ?query_overhead_s:float -> ?timeout_vs:float -> ?trace:Rs_obs.Trace.t -> unit ->
  Recstep.Interpreter.options
(** The interpreter options this engine runs with: no UIE, no OOF, OPSD,
    no PBME, no persistent indexes, a scheduling overhead per query and
    hoarded per-iteration temporaries. *)

val distributed : Engine_intf.engine
