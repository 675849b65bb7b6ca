(** Output formatting shared by all experiment drivers. *)

val section : id:string -> title:string -> unit
(** Prints the experiment banner ("=== fig10: ... ==="). *)

val note : string -> unit

val write_record :
  string -> attempted:int -> failed:int -> (string * float * string) list -> unit
(** [write_record file ~attempted ~failed metrics] writes one benchmark
    record to [file] in the working directory, in perfbench's shape:
    [correct] (true iff [failed = 0]), [attempted], [failed] and
    [metrics], each [(name, value, unit)] as [name: {value, unit}]. Every
    [BENCH_*.json] report is written here, so {!Validate} reads all of
    them, and perfbench's last line, with one function. *)

val run_one :
  ?workers:int ->
  ?mem_budget:int ->
  ?timeout_vs:float ->
  Rs_engines.Engine_intf.engine ->
  Workloads.t ->
  Measure.run
(** One engine on one workload under the harness's budgets. The
    Distributed-BigDatalog configuration automatically gets the paper's
    cluster memory (~2.8x the single node). *)

val cross_table :
  ?workers:int ->
  ?mem_budget:int ->
  ?timeout_vs:float ->
  engines:Rs_engines.Engine_intf.engine list ->
  workloads:Workloads.t list ->
  unit ->
  (string * Measure.run list) list
(** Runs every engine on every workload and prints the paper-style grid
    (rows = engines, columns = workloads, cells = seconds / OOM / timeout /
    "-"). Returns the raw runs per engine. *)

val timeline_table :
  title:string -> unit:string -> (string * (float * float) list) list -> unit
(** Renders time-series (memory or CPU-utilization timelines) as a table
    with ten time columns, resampling each series by
    last-value-carried-forward. *)

val resample : (float * float) list -> span:float -> points:int -> float list
