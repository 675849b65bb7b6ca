(** In-memory columnar relations over integer attributes.

    Mirrors QuickStep's storage model at the granularity this reproduction
    needs: a relation is a bag of fixed-arity integer tuples stored column
    by column. Datalog inputs are integer-mapped (paper §5.2 footnote), so
    integer columns suffice for every benchmark. Deduplication is a separate
    concern ({!Dedup}); relations themselves are bags, matching the paper's
    use of [UNION ALL] plus an explicit dedup step. *)

type t

val create : ?name:string -> int -> t
(** [create arity] makes an empty relation. *)

val create_sized : ?name:string -> int -> int -> t
(** [create_sized arity n] has [n] zero rows, to be filled in place via
    {!col} — a single exact allocation for producers that know their output
    cardinality. *)

val name : t -> string

val arity : t -> int

val nrows : t -> int

val generation : t -> int
(** Destructive-mutation counter. Appends ([push_*], {!append_all}) leave it
    unchanged — growth is tracked by {!nrows} — while {!clear} (and any
    in-place rewrite, via {!touch}) bumps it. A persistent index built at
    [(generation, nrows)] therefore remains valid while the generation is
    unchanged, and only rows [\[nrows_at_build, nrows)] need appending. *)

val touch : t -> unit
(** Bump {!generation}. Writers that mutate existing rows in place (e.g.
    through {!col}) on a relation that may be indexed must call this;
    appends need not. *)

val push_row : t -> int array -> unit
(** Appends a tuple; [Array.length] must equal the arity. *)

val push1 : t -> int -> unit

val push2 : t -> int -> int -> unit

val push3 : t -> int -> int -> int -> unit

val get : t -> row:int -> col:int -> int

val col : t -> int -> Rs_util.Int_vec.t
(** Direct access to a column for tight executor loops. *)

val of_rows : ?name:string -> int -> int array list -> t

val to_rows : t -> int array list
(** All tuples, in storage order (testing helper). *)

val copy : ?name:string -> t -> t

val append_all : t -> t -> unit
(** [append_all dst src] appends every tuple of [src] to [dst]. *)

val concat_parallel : Rs_parallel.Pool.t -> int -> t list -> t
(** [concat_parallel pool arity fragments] materializes the concatenation of
    [fragments] with one parallel pass (each fragment copied into its
    precomputed slice) — how the backend merges per-worker output blocks
    without a serial step. The result is accounted. *)

val clear : t -> unit

val account : t -> unit
(** Reconciles this relation's reserved bytes with {!Rs_storage.Memtrack}.
    Called by operators after bulk appends; may raise
    [Rs_storage.Memtrack.Simulated_oom]. *)

val release : t -> unit
(** Returns the relation's accounted bytes to the tracker. The relation may
    still be read afterwards; accounting is simply dropped (used when the
    interpreter deletes per-iteration temporaries). *)

val bytes : t -> int
(** Currently reserved bytes of the backing columns — the {!account}ed
    figure, capacity included. *)

val row_bytes : t -> int
(** Bytes of the rows themselves, 8 per attribute: what writing the
    relation back to storage writes. *)

val sorted_distinct_rows : t -> int array list
(** Tuples sorted lexicographically with duplicates removed — the canonical
    form used by tests, cross-engine result comparison and every served
    answer. Arity 1, and arity 2 when every pair fits {!Rs_util.Int_key.fits2},
    radix-sort packed keys without boxing a row before its output cell;
    other relations box their rows and sort them with polymorphic compare. *)
