(** Souffle-like baseline: compiled, tuple-at-a-time semi-naive evaluation.

    Reimplements the evaluation strategy of Souffle (paper §6.1): each
    semi-naive variant of a rule is compiled ahead of time, atoms ordered
    greedily (most bound arguments first), into the chain steps of
    {!Rs_exec.Chain.drive} — the same row loop RecStep's compiled
    kernels and interpreted operators run — over one {!Rs_relation.Hash_index} per (predicate,
    sorted key positions), our stand-in for Souffle's auto-selected
    B-trees. The indexes are maintained eagerly: a serial
    {!Rs_relation.Hash_index.append} after every insert batch. The outer
    loop over the driving delta is parallelized over the worker pool, and
    there is no per-query overhead — the profile that makes the real
    Souffle win CSDA and lose ground when deltas are small (its
    parallelism is workload-dependent, Figures 12a/15a/16).

    Capability envelope per Table 1: mutual recursion and non-recursive
    aggregation supported; recursive aggregation NOT supported (CC and SSSP
    raise {!Engine_intf.Unsupported}); stratified negation supported. *)

include Engine_intf.S
