(** Why-provenance explanations: reconstruct a full rule + premise chain,
    down to EDB leaves, for any fact in an evaluated database.

    The search is top-down over the {e final} relations: for a derived fact
    it tries the program's rules in source order, binds the head, and
    proves each body literal against the database (candidate rows in
    lexicographic order, success-memoized, cycle-safe via a path-visited
    set). Without tags only the program and the final row sets drive the
    canonical chain, so the rendered explanation is byte-stable across
    every engine that computed the same result — which is what lets the
    frozen corpus in [test/refs.ml] pin chains across engines, and lets
    fuzz divergences ship a chain computed from the reference evaluator.

    A {!Provenance.t} store, when supplied, re-orders candidate premises so
    rows absorbed {e before} the goal (smaller tag sequence) are tried
    first: on a fully-tagged run the chain then follows the actual
    semi-naive derivation order and the search never backtracks. Tags
    change which (still valid) chain is found and how many steps that
    takes, so under the step budget they can decide whether the search
    finishes at all (EXPERIMENTS.md, "What provenance tags buy the proof
    search"). A predicate whose rows were all tagged in one batch in
    lexicographic order — by a PBME solve, or by an {!Ivm} bootstrap
    before its first apply — keeps exactly its untagged candidate order:
    splitting a sorted list at one point of that same order changes
    nothing.

    Soundness: every reported chain is a path-acyclic proof tree — a
    well-founded derivation for positive literals by induction on height;
    negated premises render as absence leaves, sound under stratification
    because the negated relation is fully computed below the fact's
    stratum. Aggregate heads are explained through a witness match (for
    MIN/MAX: a body match attaining the aggregate value, recursively
    explained) or the contributing-match count (SUM/COUNT/AVG); witnesses
    are tried in order until one proves. *)

type node =
  | N_edb of { pred : string; row : int list }  (** input leaf *)
  | N_rule of {
      pred : string;
      row : int list;
      rule_index : int;  (** 1-based position in the normalized program *)
      rule : Ast.rule;
      agg : string option;  (** e.g. ["min witness of 4 matches"] *)
      premises : premise list;  (** body literals in proof order *)
    }

and premise =
  | P_fact of node  (** positive literal, recursively explained *)
  | P_absent of { pred : string; row : int list }  (** negated literal *)
  | P_cmp of string  (** satisfied comparison, rendered *)

type outcome =
  | Explained of node
  | Absent  (** the fact is not in the database *)
  | No_proof
      (** present but no proof found — an inconsistent database, i.e.
          exactly what a fuzz divergence looks like from the extra side *)
  | Budget_exceeded of int  (** search steps spent before giving up *)

val explain :
  ?prov:Provenance.t ->
  ?max_steps:int ->
  an:Analyzer.t ->
  rows:(string -> int list list) ->
  string ->
  int list ->
  outcome
(** [explain ~an ~rows pred row] proves [pred(row)] from the database
    [rows] (every EDB and IDB predicate must be resolvable; order of the
    returned lists is irrelevant). [max_steps] bounds candidate-match
    attempts (default 200_000). *)

val rules_used : node -> int list
(** Distinct 1-based rule indexes on the chain, ascending. *)

val depth : node -> int
(** Height of the proof tree; an EDB leaf has depth 0. *)

val fact_to_string : string -> int list -> string
(** ["tc(1, 3)"]. *)

val render : ?tags:Provenance.t -> node -> string
(** Multi-line rendering of the chain, two-space indentation per level.
    With [tags], derived facts carry their recorded
    [@stratum/iteration/seq] marker when one exists. Deterministic:
    identical trees render identically. *)

val outcome_to_string : ?tags:Provenance.t -> pred:string -> row:int list -> outcome -> string
(** Render any outcome, including the non-[Explained] ones, as a short
    human-readable report. *)

val node_json : node -> Rs_obs.Json.t
(** Nested object: [{"fact"; "rule"; "rule_index"; "agg"?; "premises"}];
    EDB leaves are [{"fact"; "edb": true}]. *)
