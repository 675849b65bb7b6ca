(** Scoped, deterministic activation of a {!Fault.plan}.

    The instrumented layers (Memtrack, Txn, Pool, Dedup, Hash_index, the
    result cache) call the probe functions below at their named fault
    points. With no plan active every probe is a single ref read returning
    "don't fire", so production runs pay nothing.

    Activation is dynamically scoped: {!with_plan} arms a plan for the
    duration of a callback and restores the previous state on {e every}
    exit path ([Fun.protect]), including exceptions — an interrupted chaos
    run can never leave injection armed for later runs in the process.
    Decisions are deterministic: each class draws from its own stream
    seeded by [(plan.seed, class)], and a decision depends only on the
    probe's ordinal within the scope (for {!Fault.Dedup_drop}, only on the
    probed key), never on wall-clock time. *)

val active : unit -> bool

val with_plan : Fault.plan -> (unit -> 'a) -> 'a
(** Nests: an inner [with_plan] shadows the outer plan and restores it on
    exit. Probe and fire counters start at zero for each activation. *)

val fires : unit -> (Fault.cls * int) list
(** Fire counts of the innermost active plan (classes that never fired are
    omitted); [[]] when no plan is active. Read it {e inside} the
    [with_plan] callback — the counters vanish with the scope. *)

val plan_label : unit -> string option
(** [Fault.plan_to_string] of the active plan, for reports. *)

(** {2 Probes} — one per fault point; no-ops without an active plan. *)

val mem_should_fail : live:int -> bool
(** {!Fault.Mem}: [true] when the allocation that raised [live] to the
    given level should fail. Probes below the spec's [threshold] don't
    count. The caller (Memtrack) raises its own [Simulated_oom]. *)

val txn_should_abort : point:string -> unit
(** {!Fault.Txn}: raises {!Fault.Injected} when the flush should abort. *)

val stall_factor : unit -> float
(** {!Fault.Stall}: the virtual-makespan multiplier for this batch
    ([1.0] = no stall). One probe per pool batch. *)

val crash_point : point:string -> unit
(** {!Fault.Crash}: raises {!Fault.Injected} when this worker chunk should
    die. *)

val dedup_should_fail : point:string -> unit
(** {!Fault.Dedup_fail}: raises {!Fault.Injected} when a fast dedup table
    creation/growth should fail. *)

val dedup_drops : key:int -> bool
(** {!Fault.Dedup_drop}: [true] when a fresh key should be silently claimed
    a duplicate. Per-key deterministic (a dropped key is dropped at every
    probe), replacing the old global [Dedup.chaos_drop] flag. *)

val index_should_fail : point:string -> unit
(** {!Fault.Index_fail}: raises {!Fault.Injected} when a hash-index
    build/append should fail. *)

val cache_should_corrupt : unit -> bool
(** {!Fault.Cache_corrupt}: [true] when the entry being inserted should be
    stored corrupted. *)

val delta_should_abort : point:string -> unit
(** {!Fault.Delta_abort}: raises {!Fault.Injected} when an EDB delta
    application should abort mid-flight. The probe sits between the staging
    steps of [Edb_store.apply], before anything commits — firing must be
    indistinguishable from the delta never having arrived. *)

val kernel_should_fail : point:string -> unit
(** {!Fault.Kernel_fail}: raises {!Fault.Injected} when a compiled rule
    kernel should fail at the given point ([kernel.compile] /
    [kernel.exec]). The interpreter recovers by evaluating the rule's
    interpreted plan instead — results are never affected. *)
