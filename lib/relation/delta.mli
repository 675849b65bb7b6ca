(** Typed delta streams: the mutation vocabulary of the serving layer.

    A delta is an ordered sequence of insert {e and retract} operations
    against named relations — the unit of change that flows from an EDB
    store through the engines' incremental-maintenance API and back out as
    an IDB change (deltas in, deltas out). It replaces the old append-only
    [int array list] surface of [Edb_store.delta]: retraction is first-class
    and carries the same type all the way down.

    Semantics are {e set-level}: relations under maintenance are sets of
    tuples, an insert of a present tuple and a retract of an absent tuple
    are both no-ops (counted, never errors), and within one delta the
    operations apply in order — retract-then-reinsert of the same tuple
    nets out to nothing against a state that already held it.
    {!normalize} computes that net set-level change against a membership
    oracle; the normalized form (disjoint insert/retract row sets, every
    insert absent before, every retract present before) is what the IVM
    machinery consumes. *)

type sign = Insert | Retract

type op = { sign : sign; row : int array }

type t = (string * op list) list
(** Ordered operations per relation, in application order. Relations are
    independent; operations on one relation apply in list order. *)

(** Net set-level change for one relation: [insert] rows were absent before
    and present after, [retract] rows present before and absent after; the
    two lists are disjoint and duplicate-free. *)
type change = { insert : int array list; retract : int array list }

val empty : t

val is_empty : t -> bool

val size : t -> int
(** Total number of operations (inserts + retracts) across relations. *)

val rels : t -> string list
(** Touched relation names, in first-touch order, without duplicates. *)

val ops : t -> string -> op list
(** All operations on one relation, in order ([[]] if untouched). *)

val of_inserts : string -> int array list -> t
(** The old append-only surface as a typed delta: insert every row into one
    relation. *)

val of_retracts : string -> int array list -> t

val merge : t -> t -> t
(** [merge a b] applies [a] then [b] (per-relation op lists concatenate). *)

val normalize : mem:(string -> int array -> bool) -> t -> (string * change) list
(** Net set-level change of applying [t] in order to a state whose
    membership is [mem]. Ops that do not change membership (duplicate
    inserts, missing retracts, retract-then-reinsert of a held tuple) are
    dropped. Relations whose net change is empty are omitted. *)

val of_changes : (string * change) list -> t
(** A delta performing exactly the given net changes (retracts first, then
    inserts — already normalized, order is immaterial). *)

val count : t -> sign -> int
(** Number of operations with the given sign. *)
