(** Aligned ASCII tables for the benchmark harness output.

    Every paper table and figure is regenerated as text; this module renders
    the rows with a fixed, diff-friendly layout. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] renders a table with column-aligned cells. *)

val print : header:string list -> string list list -> unit
(** [print] is {!render} followed by [print_string]. *)
