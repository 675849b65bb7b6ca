(** Workload scripts for the CLI's serve mode.

    A script is a line-oriented replay of service traffic — the databases to
    install, then a stream of submissions and EDB deltas in simulated time:

    {v
    # settings the CLI takes as defaults (flags override)
    set workers 8
    set cache_bytes 67108864

    # databases: inline rows, or a fact file (same TSV format as --fact)
    edb g1 arc:2 = 0 1; 1 2; 2 3; 3 4
    edb g2 arc:2 @ facts/arc.tsv

    # submissions; repeat/every expand into a train of identical queries
    submit at=0 tenant=alice edb=g1 program=tc.datalog repeat=3 every=0.01
    submit at=0 tenant=bob edb=g1 program=sg.datalog deadline=5 mem=medium

    # updates at t=1: a typed delta stream — inserts and retracts
    delta at=1 g1 arc = 4 5; 5 6
    retract at=1.5 g1 arc = 0 1
    v}

    [set] keys and their value types: [workers], [queue], [cache_bytes],
    [seed], [budget], [ivm_max_delta], [autoscale_min], [autoscale_max]
    (integers); [hit_cost], [autoscale_target_ms] (numbers); [ivm],
    [kernels], [autoscale] ([true]/[false]). Any other key, or a value
    that does not parse as its key's type, is a {!Script_error}.

    [delta] inserts rows, [retract] removes them (both net out against the
    store's current contents — see {!Edb_store.apply}); each line becomes
    one {!Service.Delta} event.

    [submit] keys: [tenant], [edb], [program] (path, relative to the
    script) are required; [at], [deadline], [mem] (small/medium/large),
    [engine], [id], [repeat], [every] are optional. Program files are
    parsed once and shared across submissions. *)

exception Script_error of { path : string; line : int; msg : string }
(** Malformed script line, with its position — reported by the CLI as a
    one-line error, like [Recstep.Frontend.Parse_error]. *)

type t = {
  settings : (string * string) list;
      (** [set] lines, in order; keys and values already validated *)
  defs : (string * (string * Rs_relation.Relation.t) list) list;
      (** databases to install in the {!Edb_store}, in order *)
  events : Service.event list;  (** submissions and deltas, in script order *)
}

val parse : ?path:string -> string -> t
(** Parse script text; [path] is used in errors and as the base directory
    for [program] and [@] fact-file references (default: current dir). *)

val int_setting : t -> string -> int option
(** [int_setting t key] is the first [set key] value, or [None]. Raises
    [Invalid_argument] when [key] is not an integer setting. *)

val float_setting : t -> string -> float option
(** As {!int_setting}, for the number-valued keys. *)

val bool_setting : t -> string -> bool option
(** As {!int_setting}, for the [true]/[false] keys. *)

val load : string -> t
(** Read and {!parse} a script file. *)

val render_delta : at:float -> edb:string -> Rs_relation.Delta.t -> string list
(** Script lines ([delta] / [retract], one per relation and sign) that
    parse back to events with the same timestamp, database and ops — the
    renderer half of the DSL round-trip. *)
