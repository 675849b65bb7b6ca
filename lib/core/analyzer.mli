(** Rule analyzer (paper §4): preprocessing before query generation.

    Identifies EDB and IDB relations, verifies syntactic correctness
    (arities, safety, aggregate-signature consistency), builds the rule
    dependency graph, and computes the stratification — the strongly
    connected components of the dependency graph in topological order.
    Also enforces the dialect's semantic restrictions: stratified negation,
    and only monotone aggregates (MIN/MAX) inside recursion. *)

exception Analysis_error of string

type agg_sig = {
  group_positions : int list;  (** head positions holding plain terms *)
  agg_positions : (int * Ast.agg_op) list;  (** head positions holding aggregates *)
}

type stratum = {
  index : int;
  preds : string list;  (** IDB predicates defined in this stratum *)
  rules : Ast.rule list;  (** rules whose head is in this stratum *)
  recursive : bool;
}

type t = {
  program : Ast.program;  (** normalized: wildcards renamed apart *)
  arities : (string * int) list;
  edbs : string list;
  idbs : string list;
  strata : stratum list;  (** bottom-up evaluation order *)
  agg_sigs : (string * agg_sig) list;  (** aggregate IDBs and their shape *)
}

val analyze : Ast.program -> t
(** Raises {!Analysis_error} with a human-readable message on any
    ill-formedness: unsafe rule, arity mismatch, unstratifiable negation,
    non-monotone recursive aggregation, inconsistent aggregate signatures,
    or an input declaration that collides with an IDB. *)

val output_names : ?an:t -> Ast.program -> string list
(** The relations a run of [program] reports: its declared outputs, or
    every IDB when it declares none. [an], the program's analysis, saves
    analyzing it again. *)

val arity : t -> string -> int

val stratum_of : t -> string -> int
(** Stratum index of an IDB predicate. *)

val agg_sig : t -> string -> agg_sig option

val is_recursive_pred : t -> stratum -> string -> bool
(** Whether [pred] is defined in the given stratum (and hence must be
    delta-rewritten when it occurs in a body there). *)
