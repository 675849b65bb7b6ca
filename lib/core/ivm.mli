(** Incremental view maintenance over a stratified program (the typed
    delta-stream consumer behind the serving layer's warm refresh).

    A maintained view holds the full materialized state of every relation
    plus, for non-recursive strata, per-tuple {e derivation counts}.
    {!apply} consumes a typed {!Rs_relation.Delta.t} over the EDB and
    returns the exact net delta it induced on the IDB relations, updating
    the materialized state in place.

    Maintenance mode is chosen {e per stratum}:

    - {b Counting} (non-recursive strata): each rule's contribution to a
      head tuple is a signed derivation count, maintained exactly by the
      telescoping delta-rule expansion
      [Δ(L1 ⋈ … ⋈ Ln) = Σ_i new(L1..L(i-1)) ⋈ ΔLi ⋈ old(L(i+1)..Ln)].
      A tuple enters the view when its count goes 0 → positive and leaves
      when it returns to 0. Counts through a negated literal invert the
      sign of the underlying relation's delta. Counting is exact here
      because a non-recursive stratum is a single SCC with no internal
      edge — no derivation cycles, so counts are finite and well-defined.

    - {b DRed} (recursive strata): derivation counts diverge on cycles
      (a tuple can transitively support itself), so recursive strata keep
      sets only and maintain them by delete-and-rederive: overestimate
      deletions against the old state, remove them, re-derive survivors
      from the remaining database, then propagate insertions semi-naively.

    The initial evaluation is {e not} a special case of [apply]: rules
    whose bodies hold with no positive support over the initial EDB (empty
    bodies, negation over an empty relation) would never be triggered by a
    delta, so {!create} evaluates the program to fixpoint stratum-by-
    stratum and seeds the counts by full enumeration. A recursive stratum
    can instead adopt the rows of an engine run that already reached that
    fixpoint (see [?fixpoint]): evaluation from scratch is then done once,
    by the engine, and the view only maintains. *)

exception Unsupported of string
(** The program uses a feature maintenance does not cover (aggregates —
    the same frontier as the {!Naive} oracle). *)

exception Count_underflow of { pred : string; row : int list; count : int }
(** A derivation count went negative: an internal invariant violation
    (retracting more derivations than were ever counted), never a
    user-input error — user-level over-retraction nets to a no-op during
    delta normalization. *)

type t

val supported : Ast.program -> bool
(** [true] when {!create} would not raise {!Unsupported} (the program has
    no aggregates). Analysis errors are not masked — an ill-formed program
    still raises {!Analyzer.Analysis_error} at {!create}. *)

val create :
  ?prov:Provenance.t ->
  ?fixpoint:(string -> Rs_relation.Relation.t) ->
  edb:(string * int list list) list ->
  Ast.program ->
  t
(** Evaluate the program to fixpoint over [edb] and return the maintained
    view. Raises {!Unsupported} on aggregates, [Analyzer.Analysis_error] /
    [Invalid_argument] on the same ill-formedness the interpreter rejects
    (unknown EDB, arity mismatch). With [prov], every IDB row of the
    bootstrap evaluation is tagged, and each {!apply} afterwards reconciles
    the store against its net change (inserted rows tagged at the apply's
    sequence point, retracted rows dropped) — so a maintained view stays
    {!Explain}-able across EDB deltas.

    [fixpoint] hands over the relations of a completed engine run over the
    same [edb] (an engine result's [relation_of]). A recursive (DRed)
    stratum whose predicates it all returns at the right arity adopts those
    rows as its materialized sets and skips the bootstrap closure; a
    stratum it cannot serve (the call raises, or returns the wrong arity)
    is bootstrapped as without [fixpoint]. Counting strata always
    enumerate, because they need derivation counts, which a set of rows
    does not carry. The caller vouches that the rows are the program's
    least model over [edb]: the view maintains whatever it adopts. *)

val apply : t -> Rs_relation.Delta.t -> Rs_relation.Delta.t
(** [apply t d] folds a typed EDB delta into the view and returns the net
    IDB delta (insertions and retractions across all IDB predicates, in
    stratum order). [d] has set-level semantics: inserting a present tuple
    or retracting an absent one is a counted no-op, and flip-flops within
    the batch net out ({!Rs_relation.Delta.normalize}). Unknown relation
    names and rows whose arity disagrees with the program raise
    [Invalid_argument]; deltas naming IDB predicates are rejected the same
    way (IDBs change only through maintenance). *)

val rows : t -> string -> int list list
(** Current materialized rows of any relation, sorted ascending,
    duplicate-free — same contract as the {!Naive} oracle's lookup. *)

val idbs : t -> string list

val analyzer : t -> Analyzer.t
(** The program analysis backing the view — what {!Explain.explain}
    needs alongside {!rows}. *)

val provenance : t -> Provenance.t option
(** The tag store supplied at {!create}, kept current by every {!apply}. *)

val outputs : t -> (string * int list list) list
(** [rows] for every IDB predicate, in stratum order — the shape the
    serving layer caches. *)

type stats = {
  applies : int;  (** {!apply} calls, including the {!create} bootstrap *)
  count_updates : int;  (** signed derivation-count adjustments *)
  dred_deleted : int;  (** DRed overestimated deletions *)
  dred_rederived : int;  (** deletions taken back by re-derivation *)
  emitted_inserts : int;  (** IDB insertions across all emitted deltas *)
  emitted_retracts : int;  (** IDB retractions across all emitted deltas *)
  seeded_strata : int;  (** recursive strata {!create} adopted from [fixpoint] *)
}

val stats : t -> stats
