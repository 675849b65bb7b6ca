module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
(** Logical query plans.

    The Datalog query generator emits these plans instead of SQL text; they
    play the role of the SQL queries RecStep issues to QuickStep. A rule
    body becomes a left-deep chain of {!constructor-Join}s with the head's
    projection embedded in the top join ([out]), negated atoms become
    {!constructor-AntiJoin}s, and UIE groups the per-rule plans of one IDB
    under a single {!constructor-UnionAll}. An aggregation head's plans
    produce its candidate rows; the interpreter groups them
    ([Recstep.Aggregate]), so no plan operator aggregates.

    {b Exact deltas.} A recursive IDB's Δ is a row range of its own table
    ([Catalog.set_delta]), so a plan names the rows it reads: the whole
    table ({!constructor-Scan}), the rows before the Δ
    ({!constructor-Old}) or the Δ itself ({!constructor-Delta}). Within a
    round every read ends at the round-start rows, so rows a round
    appends are seen only from the next one. A rule with several
    recursive atoms gets one delta plan per recursive occurrence. The plan
    whose Δ sits at occurrence [i] reads every earlier recursive occurrence
    through {!constructor-Old} and every later one through
    {!constructor-Scan}: the product rule [Δ(R⋈S) = ΔR⋈S_new ∪ R_old⋈ΔS].
    Each combination of rows with at least one Δ row is then derived by
    exactly one plan. Aggregated IDBs are rebuilt every round, so their Δ
    is not a range of their table and they are always read whole. *)

type t =
  | Scan of string
      (** named table in the catalog: rows [\[0, hi)] of a table whose Δ
          is [\[lo, hi)], every row of any other *)
  | Old of string
      (** rows [\[0, lo)] of a recursive table: the rows before its Δ *)
  | Delta of string  (** the table's Δ, rows [\[lo, hi)] *)
  | Rel of Relation.t  (** anonymous materialized input *)
  | Filter of Expr.pred list * t
  | Project of Expr.t array * t
  | Join of join
  | AntiJoin of anti  (** rows of [l] with no key-match in [r] *)
  | UnionAll of t list

and join = {
  l : t;
  r : t;
  lkeys : int array;
  rkeys : int array;
  extra : Expr.pred list;  (** residual predicates on the concatenated row *)
  out : Expr.t array option;  (** projection on the concatenated row *)
}

and anti = { al : t; ar : t; alkeys : int array; arkeys : int array }

val arity : (string -> int) -> t -> int
(** [arity lookup p] is the output arity, where [lookup] gives the arity of
    named tables. *)

val estimate : rows:(string -> int) -> delta_rows:(string -> int) -> t -> int
(** Cardinality estimate from (possibly stale) catalog row counts [rows] —
    the optimizer input that OOF keeps fresh — and the Δ row counts
    [delta_rows]. An {!constructor-Old} is estimated as its table's rows
    minus its Δ's rows, clamped at 0. *)

val to_string : t -> string
(** Multi-line plan rendering, for logging and tests. *)

val join2 : ?extra:Expr.pred list -> ?out:Expr.t array -> t -> int array -> t -> int array -> t
(** [join2 l lkeys r rkeys] is a convenience constructor. *)
