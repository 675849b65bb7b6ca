(** Named, versioned EDB snapshots shared by the queries of a service.

    A serving process holds its input databases resident: many queries run
    against the same facts, so the store keeps one relation set per database
    name and a monotone {e version} that bumps on every redefinition or
    applied delta. The (name, version) pair is what the result cache keys
    on; on a delta the service either incrementally refreshes cached entries
    to the new version or drops them (see {!Result_cache}).

    {b API change}: the old append-only [delta : int array list -> unit]
    surface is gone. Updates arrive as a typed {!Rs_relation.Delta.t} of
    inserts {e and retracts} through {!apply}, which is atomic and reports
    the net change it committed. *)

module Relation = Rs_relation.Relation

type t

exception Unknown_edb of string

val create : unit -> t

val attach_index_manager : t -> string -> Rs_exec.Index_manager.t -> unit
(** [attach_index_manager t name im] attaches a store-lifetime persistent
    index manager to database [name]. From then on every committed
    {!apply} to [name] keeps the manager's entries for the touched
    relations live: an insert-only replacement is {e rebased} (the staged
    copy preserves the old row order as a prefix, so indexes re-point and
    later extend over the inserted suffix), anything with retractions is
    invalidated. {!define} of [name] always invalidates the redefined
    names. The manager keys indexes by relation name only, so it must
    serve [name] alone: two databases that both hold an [arc] each need
    their own, or a delta on one would rebase the other's index. *)

val define : t -> string -> (string * Relation.t) list -> unit
(** [define t name rels] installs (or replaces) database [name]. The
    version starts at 1 and bumps on redefinition. *)

val apply : t -> string -> Rs_relation.Delta.t -> int * Rs_relation.Delta.t
(** [apply t name d] applies a typed delta to database [name] and returns
    [(version, net)] — the database's version after the apply and the net
    delta actually committed.

    Set-level semantics: inserting a row already present or retracting one
    that is absent is a counted no-op, and flip-flops within [d] cancel
    ({!Rs_relation.Delta.normalize}); a retraction removes {e every} stored
    duplicate of its row. When the whole delta nets to nothing the version
    is unchanged and [net] is empty.

    Atomicity: replacement relations are fully staged before anything
    becomes visible, then committed with a single pointer swap and one
    version bump. A chaos-injected abort ({!Rs_chaos.Fault.Delta_abort}) or
    an OOM while accounting the staged copies leaves the store — version,
    rows, and Memtrack accounting — exactly at its pre-delta state.

    Raises {!Unknown_edb} if [name] or a relation named in [d] is not
    defined, [Invalid_argument] on arity mismatch. *)

val lookup : t -> string -> (string * Relation.t) list
(** Raises {!Unknown_edb}. *)

val version : t -> string -> int
(** Current version of a database; raises {!Unknown_edb}. *)

val mem : t -> string -> bool

val names : t -> string list
(** Defined database names, sorted. *)
