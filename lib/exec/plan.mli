module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
(** Logical query plans.

    The Datalog query generator emits these plans instead of SQL text; they
    play the role of the SQL queries RecStep issues to QuickStep. A rule
    body becomes a left-deep chain of {!constructor-Join}s with the head's
    projection embedded in the top join ([out]), negated atoms become
    {!constructor-AntiJoin}s, aggregation heads become {!constructor-Aggregate}s,
    and UIE groups the per-rule plans of one IDB under a single
    {!constructor-UnionAll}.

    {b Exact deltas.} A rule with several recursive atoms gets one delta
    plan per recursive occurrence. The plan whose Δ sits at occurrence [i]
    reads every earlier recursive occurrence through {!constructor-Old}
    (the rows before that table's Δ-suffix) and every later one through
    {!constructor-Scan} (the whole table): the product rule
    [Δ(R⋈S) = ΔR⋈S_new ∪ R_old⋈ΔS]. Each combination of rows with at
    least one Δ row is then derived by exactly one plan. Aggregated IDBs
    are rebuilt every round, so their Δ is not a suffix and they always
    stay [Scan]. *)

type agg_op = Min | Max | Sum | Count | Avg

type t =
  | Scan of string  (** named table in the catalog *)
  | Old of { table : string; delta : string }
      (** rows [\[0, nrows table - nrows delta)] of [table]: the rows that
          come before its Δ-suffix. Evaluating it raises [Invalid_argument]
          when [delta] is longer than [table], i.e. when the suffix invariant
          the interpreter keeps (see [Interpreter]) does not hold. *)
  | Rel of Relation.t  (** anonymous materialized input *)
  | Filter of Expr.pred list * t
  | Project of Expr.t array * t
  | Join of join
  | AntiJoin of anti  (** rows of [l] with no key-match in [r] *)
  | UnionAll of t list
  | Aggregate of agg

and join = {
  l : t;
  r : t;
  lkeys : int array;
  rkeys : int array;
  extra : Expr.pred list;  (** residual predicates on the concatenated row *)
  out : Expr.t array option;  (** projection on the concatenated row *)
}

and anti = { al : t; ar : t; alkeys : int array; arkeys : int array }

and agg = { group : Expr.t array; aggs : (agg_op * Expr.t) array; src : t }

val arity : (string -> int) -> t -> int
(** [arity lookup p] is the output arity, where [lookup] gives the arity of
    named tables. *)

val estimate : (string -> int) -> t -> int
(** Cardinality estimate from (possibly stale) catalog row counts — the
    optimizer input that OOF keeps fresh. An {!constructor-Old} is estimated
    as its table's rows minus its Δ's rows, clamped at 0. *)

val to_string : t -> string
(** Multi-line plan rendering, for logging and tests. *)

val join2 : ?extra:Expr.pred list -> ?out:Expr.t array -> t -> int array -> t -> int array -> t
(** [join2 l lkeys r rkeys] is a convenience constructor. *)
