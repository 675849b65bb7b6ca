(** Query generator (paper §4): Datalog rules → relational plans.

    Each rule body compiles to a left-deep join chain in body-atom order,
    with constant and repeated-variable constraints as scan filters,
    comparison literals as residual join predicates, negated atoms as
    anti-joins against lower-stratum tables, and the head projection
    embedded in the top operator. For rules in a recursive stratum the
    semi-naive delta rewriting produces one subplan per occurrence of a
    current-stratum predicate, scanning that occurrence's Δ-table. The
    rewriting is exact: recursive occurrences before the Δ read the rows
    before their table's Δ-suffix ({!Plan.Old}), those after it read the
    full table, so no combination of Δ rows is derived by two subplans.
    Aggregated IDBs are always read in full (their Δ is not a suffix of
    their table); a rule with one recursive atom gets plain full scans,
    exactly as before.

    Aggregate-headed rules compile to *candidate* plans: the aggregate
    argument's value is emitted as a plain column and the engine's aggregate
    state folds it (which is what makes recursive MIN/MAX aggregation
    incremental). *)

module Plan = Rs_exec.Plan

val delta_name : string -> string
(** Catalog name of a predicate's Δ-table ("pred@delta"). *)

type compiled =
  | Fact of int array  (** ground rule: tuple to seed the head relation *)
  | Query of {
      base : Plan.t;  (** all-full-tables version (initialization) *)
      deltas : (string * Plan.t) list;
          (** one per current-stratum atom occurrence, tagged with the
              predicate whose Δ-table the subplan scans — the interpreter
              skips subplans whose Δ went empty; empty list for base rules *)
    }

val cmp_to_exec : (string * int) list -> Ast.cmp * Ast.expr * Ast.expr -> Rs_exec.Expr.pred
(** [cmp_to_exec binds c] translates a comparison literal over the columns
    [binds] gives each variable. Raises [Analyzer.Analysis_error] on a
    variable [binds] lacks. *)

val head_exprs : (string * int) list -> Ast.head_term list -> Rs_exec.Expr.t array
(** A rule head over [binds]' columns, aggregate arguments included. *)

val compile_rule : Analyzer.t -> Analyzer.stratum -> Ast.rule -> compiled
(** Raises [Analyzer.Analysis_error] on rules the translation cannot handle
    (none of the paper's benchmarks do). *)
