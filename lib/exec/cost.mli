(** Cost model for Dynamic Set Difference (paper §5.1 and Appendix A).

    Semi-naive evaluation computes [ΔR ← Rδ − R] every iteration. Two
    translations exist: OPSD builds one hash table on the ever-growing [R];
    TPSD first intersects ([r ← Rδ ∩ R], building on the smaller input) and
    then subtracts the intersection. With [α = C_build/C_probe],
    [β = |R|/|Rδ|] and [µ = |Rδ|/|r|], the appendix derives:

    - [β ≤ 1] → OPSD;
    - [β ≥ 2α/(α−1)] → TPSD;
    - otherwise the sign of [β(α−1) − (α + α/µ)] decides, approximating [µ]
      by its value in the previous iteration. *)

val calibrate : Rs_parallel.Pool.t -> unit -> float
(** [calibrate pool ()] estimates α by offline training (the paper
    pre-computes α from join runs on table pairs of several sizes): both
    set-difference translations are timed on synthetic (R, Rδ) pairs of
    growing β, the cost crossover β* is located, and α is recovered from the
    model's own threshold [β* = 2α/(α-1)]. This measures the ratio the model
    actually consumes, rather than assuming per-tuple build/probe costs
    transfer from isolated joins. *)

val default_alpha : float
(** Fallback α when no calibration has run (a typical measured value). *)

type choice = Opsd | Tpsd

val choose :
  alpha:float ->
  r_index_persists:bool ->
  r_rows:int ->
  rdelta_rows:int ->
  mu_prev:float option ->
  choice
(** The DSD decision rule above. [mu_prev] is |Rδ|/|r| from the previous
    iteration, unknown on the first ([None] → OPSD in the uncertain band,
    since small [µ] favours OPSD and the first iterations have small [R]).

    [r_index_persists] says R's membership set outlives the query and is
    only delta-appended (the executor's {!Index_manager}). Then OPSD's build
    term — the whole premise of the model — costs nothing, and TPSD's first
    phase is OPSD's entire probe loop, so the answer is OPSD without
    consulting α. The model runs when R is re-indexed per query, the
    paper's setting. *)

val observed_mu : rdelta_rows:int -> intersection_rows:int -> float
(** Helper to fold this iteration's µ for the next decision. *)

(** {2 Compiled-kernel admission gate} *)

val kernel_max_arity : int
(** Largest head arity with a monomorphized emit path (3). *)

val kernel_gate :
  recursive:bool -> has_agg:bool -> head_arity:int -> (unit, string) result
(** Whether a rule is worth compiling to a fused kernel. [Error reason]
    (["cold"] — non-recursive stratum, runs once; ["aggregate"];
    ["arity"] — head wider than {!kernel_max_arity}) means: stay on the
    interpreted path. Shape restrictions (negation, disconnected bodies)
    are decided later by [Kernel.compile], which sees the plans. *)
