(** The tuple-at-a-time row-set evaluator shared by incremental view
    maintenance ({!Ivm}) and proof search ({!Explain}): persistent sets of
    [int list] rows, association-list bindings, and rule bodies enumerated
    literal by literal with the naive oracle's semantics. {!Naive} keeps its
    own copy on purpose: as the fuzz oracle it stays independent of the code
    it checks. *)

module Rows : Set.S with type elt = int list
(** Rows of one relation, ordered lexicographically. *)

type env = (string * int) list

val eval_expr : env -> Ast.expr -> int
val cmp_holds : Ast.cmp -> int -> int -> bool

val match_args : env -> Ast.term list -> int list -> env option
(** Extend [env] so the atom arguments equal the row, or [None]. *)

val ground_args : env -> Ast.term list -> int list
(** The row a negated atom names under [env]. *)

val head_env : Ast.head_term list -> int list -> env option
(** Bind a head's variables from a concrete row. Aggregate positions bind
    nothing, so for an aggregate head the env covers the group variables. *)

val head_row : env -> Ast.head_term list -> int list
(** The head row under [env]; aggregate heads are rejected. *)

type lit = { li : int; l : Ast.literal }
(** A body literal with its source position, so the state it reads can be
    chosen by position whatever order evaluation visits it in. *)

val indexed_body : Ast.rule -> lit list

val iter_matches : Rows.t -> Ast.term list -> env -> (int list -> env -> unit) -> unit
(** Every row matching the atom arguments under [env], with its extended
    env, in lexicographic order. Ground leading arguments restrict the scan
    to the range of rows sharing that prefix. *)

val eval_lits :
  ?tick:(unit -> unit) ->
  ?scan:(int -> Ast.atom -> env -> (int list -> env -> unit) -> unit) ->
  state:(int -> string -> Rows.t) ->
  lit list ->
  env ->
  (env -> unit) ->
  unit
(** [eval_lits ~state lits env k] calls [k] on every extension of [env]
    satisfying [lits], positive atoms first, then negations and comparisons.
    [state li pred] is the relation the literal at source position [li]
    reads. [scan] replaces the positive-atom scan ({!iter_matches} over
    [state]); [tick] runs once per matched row and per negation or
    comparison checked. *)

val exists_lits : state:(int -> string -> Rows.t) -> lit list -> env -> bool
(** Whether {!eval_lits} would produce any extension; stops at the first. *)
