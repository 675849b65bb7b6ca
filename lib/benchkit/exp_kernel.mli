(** Compiled rule kernels vs the interpreted fixpoint: the same recursive
    workloads (TC, whose delta plan is the fused binary shape, SG, whose
    three-atom rule compiles to an n-way chain, and CSPA, whose non-linear
    rules read old rows through bounded steps) run with
    [compiled_kernels] on and off, PBME held off, on fresh pools. Prints
    the per-workload table and writes the machine-readable summary —
    per-side simulated runtimes, the off/on speedup ratio, kernel counters,
    the dedup probes of each side, and whether outputs were byte-identical —
    to [BENCH_kernel.json] in the working directory. *)

val exp : scale:int -> unit

val run : scale:int -> unit
