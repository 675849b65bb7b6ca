(** Virtual-time worker pool.

    QuickStep parallelizes each relational operator over a pool of worker
    threads. The evaluation container for this reproduction has a single CPU
    core, so instead of wall-clock multi-threading this pool executes task
    batches deterministically and *simulates* a [k]-worker machine: each
    task's measured cost is assigned to the least-loaded virtual worker
    (greedy LPT-style scheduling) and the batch advances the simulated clock
    by the resulting makespan. Time outside batches (serial sections) passes
    through at its real cost, occupying one virtual worker.

    All engines in this repository — RecStep and the reimplemented baselines —
    run on the same pool, so their reported times are comparable simulated
    wall-clocks of the same k-core machine, and CPU utilization is
    [busy / (k * elapsed)] exactly as in the paper's Figures 7 and 16. *)

type t

type stats = {
  workers : int;
  vtime : float;  (** simulated elapsed seconds since {!begin_run} *)
  busy : float;  (** total worker-busy seconds (batches + serial) *)
  wall : float;  (** real elapsed seconds *)
  utilization : float;  (** busy / (workers * vtime) *)
}

type event = {
  ev_vstart : float;  (** batch start on the simulated clock *)
  ev_vlen : float;  (** batch length on the simulated clock (makespan) *)
  ev_busy : float;  (** total task-seconds inside the batch *)
}
(** One parallel batch, for reconstructing utilization timelines. *)

val create : ?workers:int -> unit -> t
(** [create ~workers ()] makes a pool simulating [workers] cores (default 16,
    overridable with the [RECSTEP_WORKERS] environment variable). *)

val workers : t -> int

val set_workers : t -> int -> unit
(** Change the simulated core count (used by the core-scaling experiment).
    Takes effect from the next batch. *)

val begin_run : t -> unit
(** Resets the simulated clock and counters; call before a measured run. *)

val batch : t -> ?chunks:int -> (int * int * (int -> int -> unit)) list -> unit
(** [batch t ranges] runs several ranges as {e one} batch, with one barrier
    at its end: each range [(lo, hi, f)] is covered by [min chunks (hi - lo)]
    subranges of equal size (the last one shorter; [chunks] defaults to
    [4 * workers]), and [f sub_lo sub_hi] runs for each. Ranges run in list
    order, each range's chunks in ascending order, so the rows a range's
    [f] writes come in the order of separate {!parallel_for} calls. Empty
    ranges are skipped, and a list with no non-empty range records no
    batch.

    The batch is charged like any other: its chunk durations go to
    {!makespan} newest first (the last chunk run leads the list), and the
    batch's makespan advances the simulated clock once. Over several
    ranges that makespan is at most the sum of the ranges' separate
    makespans, since no worker waits at a barrier between them.

    Called from inside a chunk (a nested batch), each non-empty range runs
    inline as one call [f lo hi], charged to the enclosing chunk. An
    exception from a chunk ([pool.parallel_for] chaos crashes included)
    unwinds with the nesting depth restored and records no batch. *)

val parallel_for : t -> ?chunks:int -> int -> int -> (int -> int -> unit) -> unit
(** [parallel_for t lo hi f] is [batch t \[(lo, hi, f)\]]: it covers
    [\[lo, hi)] with [chunks] subranges (default [4 * workers]), invoking
    [f sub_lo sub_hi] for each and charging each subrange's measured cost
    to a virtual worker. *)

val add_serial : t -> float -> unit
(** [add_serial t s] advances the simulated clock by [s] seconds of modeled
    serial work (occupying one worker) without consuming real wall time.
    Used for modeled fixed costs: per-query dispatch overhead in the RDBMS
    backend, per-stage scheduling overhead in the BigDatalog-like engine. *)

val consumed : t -> float * float * float
(** [(real, sim, busy)] accumulated since {!begin_run}: the wall seconds
    spent inside batches, the simulated seconds charged for batches and
    {!add_serial} charges, and the worker-busy seconds. Its caller is the
    benchmark program ([perfbench]), which splits simulated time into its
    serial, batch-makespan and charged parts from it. *)

val map_tasks : t -> (unit -> 'a) list -> 'a list
(** Runs heterogeneous tasks as one batch and returns their results in
    order. *)

val makespan : workers:int -> float list -> float
(** The scheduling kernel behind batch accounting: greedily assigns each
    duration (in list order) to the least-loaded of [workers] virtual
    workers — a binary min-heap of loads, O(log workers) per task — and
    returns the maximum worker load. Exposed for testing the scheduler
    against a reference implementation. *)

val vtime_now : t -> float
(** Current simulated clock (seconds since {!begin_run}). *)

val on_progress : t -> (float -> unit) -> unit
(** [on_progress t f] registers [f] to be called with the simulated clock
    after every batch — the hook used by memory/CPU samplers. *)

val clear_progress : t -> unit

val stats : t -> stats

val events : t -> event list
(** Batches of the current run, oldest first. *)
