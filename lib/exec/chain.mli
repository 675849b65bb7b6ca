(** The chain loop: the one row loop of the compiled kernels ({!Kernel}),
    the Souffle-like engine and every {!Executor} operator.

    A chain is a driver, steps, set checks, a residual and an emit over
    one frame, an [int array] holding the bound atoms' columns side by
    side. {!drive} binds each driver row and walks the steps depth first:
    a probe step walks its index's bucket chain (a direct compare for
    1-column keys), a scan step its rows; each binds a match, tests its
    predicates and descends. Past the last step the set checks look the
    frame's tuple up in a membership set, the residual is tested and the
    emit reads the head off the frame. Nothing is allocated per row or
    match; the emit is the one indirect call per surviving match.

    Walk order is fixed, and every output's row order follows from it:
    driver rows ascending and, within a step, rows newest first — a scan
    walks from its bound down to row 0, the order a one-bucket index
    gives. The caller resolves the steps and owns the frame. No row the
    loop reads, below a step's bound, may change while it runs; the emit
    may append to a table the loop reads, since a push that moves a column
    to a fresh array leaves the fetched one holding every row below it. *)

type step
(** One atom of a chain, resolved: a probe of an index, or a scan. *)

val step :
  Rs_relation.Relation.t ->
  off:int ->
  at:int array ->
  preds:Expr.pred list ->
  bound:int ->
  probe:int array ->
  Rs_relation.Hash_index.view ->
  step
(** [step rel ~off ~at ~preds ~bound ~probe view] reads [rel]'s rows below
    [bound] and binds frame columns [at] (column [c - off] of [rel] fills
    frame column [c]), then tests [preds] over the frame. With [probe] (the
    frame columns of the key, in [view]'s key order) it walks [view]'s
    bucket chain; with [probe = \[||\]] it scans rows [\[0, bound)] newest
    first and [view] is {!Rs_relation.Hash_index.empty_view}. *)

type check
(** A membership check of the frame's tuple against a set. *)

val anti : Rs_relation.Dedup.t -> int array -> check
(** [anti set cols]: a negation. A match survives only if [set] lacks the
    tuple in frame columns [cols]. *)

val semi : Rs_relation.Dedup.t -> int array -> check
(** [semi set cols]: a semi-join, {!anti}'s keep-if-present twin. A match
    survives only if [set] holds the tuple in frame columns [cols]. *)

type t = {
  frame : int array;
  driver : step;  (** a scan step: {!drive} picks its rows *)
  steps : step array;  (** in binding order *)
  checks : check array;  (** tested past the last step, before [residual] *)
  residual : Expr.pred list;
  emit : unit -> unit;  (** reads the head off [frame] *)
}

val drive : t -> int -> int -> unit
(** [drive c lo hi] binds driver rows [\[lo, hi)] in order and, for each
    that passes the driver's preds, walks the steps. The signature of a
    {!Rs_parallel.Pool.parallel_for} chunk. *)
