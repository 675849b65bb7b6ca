(** Aggregate state of one aggregated IDB: group key -> accumulators.

    The one definition of MIN/MAX/SUM/COUNT/AVG. A group starts at the
    op's init value ([max_int] for MIN, [min_int] for MAX, 0 otherwise);
    MIN/MAX keep the best value, SUM/AVG add it, COUNT adds one. AVG is
    integer division by the group's candidate count, 0 for an empty
    group. Callers fold deduplicated candidates (set semantics).

    Dense fast path: for the recursive-aggregation shape of CC and SSSP,
    [p(key, MIN|MAX(v))] at arity 2, a key in [\[0, bound)] keeps its
    optimum in a flat array (the init value = absent), so a rebuild scans
    it chunk-parallel instead of walking a hash table. [bound] is 1024 plus
    the number of values in the run's input, which dense node ids stay
    under; negative keys and keys from [bound] up live in the hashed
    table. *)

module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation

type t

val create : Analyzer.agg_sig -> arity:int -> edb:(string * Relation.t) list -> t
(** An empty state for a head of [arity] columns laid out as the signature
    says, in a run over [edb]; the dense path is chosen from its shape. *)

val fold : t -> int array -> unit
(** [fold st tuple] folds one candidate, in head layout, into [st]. *)

val absorb : Pool.t -> t -> name:string -> Relation.t -> Relation.t
(** [absorb pool st ~name candidates] is the two-phase group-by of one
    round: chunk-local partial states through {!Pool.parallel_for}, then a
    serial merge of the partials, in chunk order, into [st]. Returns the Δ
    (named [name], accounted): the current row of every group the merge
    made new or improved (a better MIN/MAX, a non-zero SUM/COUNT/AVG
    contribution). *)

val to_relation : Pool.t -> t -> name:string -> Relation.t
(** The finalised state, one row per group, accounted: in key order for
    the dense shape, in table order otherwise. *)

val release : t -> unit
(** Frees the dense array and its [Memtrack] charge (8 bytes a slot, taken
    as the array grows). The state is empty afterwards; call it once the
    state's relation is finalised, on every exit path. *)

val dense_slots : t -> int
(** Slots of the dense array (0 for the hashed shape): at most [bound]. *)
