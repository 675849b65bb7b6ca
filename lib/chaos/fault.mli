(** Typed fault vocabulary for deterministic chaos injection.

    A {!plan} names which fault classes are armed, how often they fire and
    with what parameters; {!Inject} activates a plan for a dynamic scope and
    answers the probes threaded through the stack. The classes map onto the
    failure modes a memory-bound Datalog service actually has:

    - {!Mem} — an allocation pushes {!Rs_storage.Memtrack} past a live-bytes
      threshold (fires as the existing [Simulated_oom]);
    - {!Txn} — the storage transaction's flush is force-aborted;
    - {!Stall} — a pool batch's virtual makespan is inflated (a straggling
      worker), driving deadline misses without any exception;
    - {!Crash} — a worker raises from inside [parallel_for] / [map_tasks];
    - {!Dedup_fail} — a {!Rs_relation.Dedup} fast table fails to
      create/grow (typed failure, recoverable by falling back to Boxed);
    - {!Dedup_drop} — the fast dedup paths silently claim a fraction of
      fresh keys are duplicates. The only {e silent-corruption} class: it is
      what the differential oracle must catch, never a typed failure;
    - {!Index_fail} — a {!Rs_relation.Hash_index} or membership-set
      build/append fails;
    - {!Cache_corrupt} — a result-cache entry is corrupted at insert (the
      cache's checksum must detect it on the next hit);
    - {!Delta_abort} — a typed EDB delta fails mid-application. The store
      stages every relation's change before committing any, so a fired
      probe must leave the store (and hence the version-keyed result cache
      and maintained views) exactly at the pre-delta state;
    - {!Kernel_fail} — a compiled rule kernel fails to compile or to
      execute. Typed and fully recoverable: the interpreter falls back to
      the interpreted plan for that rule, so a fired probe can change
      counters and simulated time but never the answer. *)

type cls =
  | Mem
  | Txn
  | Stall
  | Crash
  | Dedup_fail
  | Dedup_drop
  | Index_fail
  | Cache_corrupt
  | Delta_abort
  | Kernel_fail

exception Injected of { cls : cls; point : string }
(** Raised by the probes of the typed-failure classes ({!Txn}, {!Crash},
    {!Dedup_fail}, {!Index_fail}). [point] names the instrumented site
    (e.g. ["pool.parallel_for"]). Folded to [Fault] at the engine guard,
    never caught anywhere else. *)

val all_classes : cls list

val n_classes : int

val cls_index : cls -> int
(** Dense [0 .. n_classes-1] index, for per-class counter arrays. *)

val cls_name : cls -> string
(** "mem" / "txn" / "stall" / "crash" / "dedup" / "dedup_drop" / "index" /
    "cache" / "delta" / "kernel" — the
    plan-syntax and report vocabulary. *)

val cls_of_name : string -> cls option

type spec = {
  cls : cls;
  p : float;  (** per-probe firing probability, in [0, 1] *)
  after : int;  (** probes to let through before arming *)
  limit : int;  (** max fires; -1 = unlimited *)
  threshold : int;  (** {!Mem}: live-bytes floor below which probes don't count *)
  factor : float;  (** {!Stall}: virtual-makespan multiplier, >= 1 *)
}

val spec :
  ?p:float -> ?after:int -> ?limit:int -> ?threshold:int -> ?factor:float -> cls -> spec
(** Defaults: always fire ([p = 1.0], [after = 0], [limit = -1]),
    [threshold = 0], [factor = 4.0]. *)

type plan = { seed : int; specs : spec list }

val plan : ?seed:int -> spec list -> plan
(** At most one spec per class; raises [Invalid_argument] on duplicates. *)

val with_seed : int -> plan -> plan

exception Parse_error of string

val plan_of_string : ?seed:int -> string -> plan
(** Parses the CLI plan syntax: ';'-separated specs, each
    [class] or [class:key=value,...] — e.g.
    ["mem:p=1,threshold=4096;crash:limit=1;stall:factor=8"]. Raises
    {!Parse_error} with a one-line diagnosis. *)

val plan_to_string : plan -> string
(** Round-trips through {!plan_of_string} (default-valued parameters are
    omitted). *)
