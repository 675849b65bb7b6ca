(** Scalar expressions and predicates over relation rows.

    The query generator compiles Datalog terms (variables, constants,
    arithmetic in aggregate arguments, comparison atoms) into these
    expressions. They are evaluated over a frame, an [int array] that holds
    the bound rows' columns side by side: the {!Chain} loop that runs
    every operator tests its predicates and reads its head this way. *)

type t =
  | Col of int  (** column of the operator's input schema *)
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred = Cmp of cmp * t * t

val eval_frame : int array -> t -> int
(** [eval_frame frame e] evaluates [e] where column [c] reads [frame.(c)]. *)

val test_frame : int array -> pred -> bool

val cols : t -> int list
(** Columns referenced by the expression. *)

val pred_cols : pred -> int list

val shift : int -> t -> t
(** [shift k e] adds [k] to every column index (for re-basing expressions
    onto a concatenated join schema). *)

val shift_pred : int -> pred -> pred

val to_string : t -> string

val pred_to_string : pred -> string
