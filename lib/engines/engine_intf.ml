(** Common interface of the Datalog engines under comparison.

    Each baseline from the paper's evaluation (§6.1) is reimplemented on the
    same substrates (relations, worker pool, memory tracker) so that the
    cross-system experiments compare *techniques*, not incidental runtime
    differences. [capabilities] carries the qualitative rows of the paper's
    Table 1; [run] raises {!Unsupported} exactly where the paper reports a
    system cannot express a workload.

    [run] returns a structured {!run_result} (not a bare lookup function):
    besides the result relations, every engine reports how many fixpoint
    iterations it took, how many backend queries it issued, the pool's timing
    statistics, and the trace it was asked to record into.

    The simulated failure modes still travel as exceptions inside an
    engine ([Unsupported], [Recstep.Interpreter.Timeout_simulated],
    [Rs_storage.Memtrack.Simulated_oom]) — but callers should
    never catch them directly. {!run_guarded} (or the lower-level {!guard},
    which [Measure.run] shares) folds them all into the documented
    {!outcome} variant at the single boundary where a run's fate is
    decided. *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type capabilities = {
  scale_up : bool;
  scale_out : bool;
  memory_consumption : string;  (** "low" / "medium" / "high" *)
  cpu_utilization : string;  (** "poor" / "medium" / "high" *)
  cpu_efficiency : string;  (** "-" / "low" / "medium" / "high" *)
  tuning_required : string;  (** hyperparameter-tuning burden *)
  mutual_recursion : bool;
  nonrecursive_aggregation : bool;
  recursive_aggregation : bool;
  incremental : bool;
      (** true incremental view maintenance (deltas in, deltas out without
          re-running the fixpoint); engines without it still serve
          {!S.maintain} by recompute-and-diff *)
}

type run_result = {
  relation_of : string -> Rs_relation.Relation.t;  (** any result relation by name *)
  iterations : int;  (** fixpoint iterations (engine's own notion of a round) *)
  queries : int;  (** backend queries / rule evaluations issued *)
  pool_stats : Rs_parallel.Pool.stats;  (** simulated-time statistics of the run *)
  trace : Rs_obs.Trace.t option;  (** the trace passed in, for convenience *)
}

(** A materialized evaluation under maintenance: deltas in, deltas out.

    [m_apply] takes a typed EDB delta ({!Rs_relation.Delta.t}) and returns
    the net delta of the program's {e output} relations — exactly the rows
    that appeared and disappeared, in stratum order. [m_outputs] reads the
    current materialized outputs (name → sorted distinct rows), always
    consistent with the deltas applied so far. [m_incremental] tells how the
    handle maintains: [true] is genuine IVM (counting / DRed over the
    semi-naive loop), [false] is the generic recompute-and-diff fallback —
    same contract, full fixpoint per delta. *)
type maintained = {
  m_outputs : unit -> (string * int array list) list;
  m_apply : Rs_relation.Delta.t -> Rs_relation.Delta.t;
  m_incremental : bool;
}

module type S = sig
  val name : string

  val capabilities : capabilities

  val run :
    pool:Rs_parallel.Pool.t ->
    ?deadline_vs:float ->
    ?trace:Rs_obs.Trace.t ->
    edb:(string * Rs_relation.Relation.t) list ->
    Recstep.Ast.program ->
    run_result
  (** Evaluates the program to fixpoint. Raises {!Unsupported} for programs
      outside the engine's fragment, [Recstep.Interpreter.Timeout_simulated]
      past [deadline_vs], and [Rs_storage.Memtrack.Simulated_oom] over the
      memory budget — prefer {!run_guarded}, which folds all three into
      {!outcome}. *)

  val maintain :
    pool:Rs_parallel.Pool.t ->
    ?trace:Rs_obs.Trace.t ->
    edb:(string * Rs_relation.Relation.t) list ->
    Recstep.Ast.program ->
    maintained
  (** Materializes the program over [edb] and returns a {!maintained}
      handle. Raises exactly where {!run} would (the initial evaluation runs
      under the same fragment and budget rules); [m_apply] additionally
      raises [Invalid_argument] for deltas naming unknown relations or rows
      of the wrong arity. *)
end

type engine = (module S)

(** How a guarded run ended — the paper's cross-system result vocabulary
    (Tables 5–7: a time, "OOM", a dash for timeout, "not supported"). *)
type 'a outcome =
  | Done of 'a
  | Oom  (** exceeded the simulated memory budget *)
  | Timeout  (** passed the simulated-seconds deadline *)
  | Unsupported of string  (** program outside the engine's fragment *)
  | Fault of { cls : Rs_chaos.Fault.cls; point : string }
      (** an injected chaos fault escaped the run (see {!Rs_chaos}) *)

let outcome_map f = function
  | Done v -> Done (f v)
  | Oom -> Oom
  | Timeout -> Timeout
  | Unsupported m -> Unsupported m
  | Fault f -> Fault f

(* The one place the simulated-failure exceptions are caught. *)
let guard (f : unit -> 'a) : 'a outcome =
  match f () with
  | v -> Done v
  | exception Unsupported m -> Unsupported m
  | exception Recstep.Interpreter.Timeout_simulated _ -> Timeout
  | exception Rs_storage.Memtrack.Simulated_oom _ -> Oom
  | exception Rs_chaos.Fault.Injected { cls; point } -> Fault { cls; point }

let run_guarded (module E : S) ~pool ?deadline_vs ?trace ~edb program =
  guard (fun () -> E.run ~pool ?deadline_vs ?trace ~edb program)

(* Shared helper for engines assembling their run_result. *)
let mk_result ~pool ?trace ~iterations ~queries relation_of =
  { relation_of; iterations; queries; pool_stats = Rs_parallel.Pool.stats pool; trace }

(* --- generic maintenance by recompute ----------------------------------- *)

module Delta = Rs_relation.Delta
module Relation = Rs_relation.Relation
module Row_set = Set.Make (struct
  type t = int list

  let compare = compare
end)

(* [maintain_by_recompute run ...] gives any engine the {!maintained}
   contract without incremental machinery: keep the EDB contents (set-level,
   mirroring [Edb_store.apply] semantics), re-run the engine from scratch on
   every delta, and diff the outputs against the previous materialization.
   Semantically indistinguishable from true IVM — that equivalence is what
   the delta-sequence fuzz oracle leans on — just paying a full fixpoint per
   delta. *)
let maintain_by_recompute
    (run :
      pool:Rs_parallel.Pool.t ->
      ?deadline_vs:float ->
      ?trace:Rs_obs.Trace.t ->
      edb:(string * Rs_relation.Relation.t) list ->
      Recstep.Ast.program ->
      run_result) ~pool ?trace ~edb program =
  let outs = Recstep.Analyzer.output_names program in
  let tables =
    List.map
      (fun (name, r) ->
        let tbl = Hashtbl.create 64 in
        List.iter (fun row -> Hashtbl.replace tbl (Array.to_list row) ()) (Relation.to_rows r);
        (name, Relation.arity r, tbl))
      edb
  in
  let snapshot () =
    List.map
      (fun (name, arity, tbl) ->
        let rows = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
        (name, Relation.of_rows ~name arity (List.map Array.of_list rows)))
      tables
  in
  let current () =
    let result = run ~pool ?trace ~edb:(snapshot ()) program in
    List.map (fun n -> (n, Relation.sorted_distinct_rows (result.relation_of n))) outs
  in
  let state = ref (current ()) in
  let apply d =
    List.iter
      (fun rel ->
        match List.find_opt (fun (n, _, _) -> n = rel) tables with
        | None -> invalid_arg (Printf.sprintf "maintain: unknown EDB relation %S" rel)
        | Some (_, arity, tbl) ->
            List.iter
              (fun (o : Delta.op) ->
                if Array.length o.Delta.row <> arity then
                  invalid_arg
                    (Printf.sprintf "maintain: arity mismatch on %S (%d, expected %d)" rel
                       (Array.length o.Delta.row) arity);
                let k = Array.to_list o.Delta.row in
                match o.Delta.sign with
                | Delta.Insert -> Hashtbl.replace tbl k ()
                | Delta.Retract -> Hashtbl.remove tbl k)
              (Delta.ops d rel))
      (Delta.rels d);
    let next = current () in
    let changes =
      List.filter_map
        (fun ((n, old_rows), (_, new_rows)) ->
          let olds = Row_set.of_list (List.map Array.to_list old_rows) in
          let news = Row_set.of_list (List.map Array.to_list new_rows) in
          let ins = Row_set.diff news olds and del = Row_set.diff olds news in
          if Row_set.is_empty ins && Row_set.is_empty del then None
          else
            Some
              ( n,
                {
                  Delta.insert = List.map Array.of_list (Row_set.elements ins);
                  retract = List.map Array.of_list (Row_set.elements del);
                } ))
        (List.combine !state next)
    in
    state := next;
    Delta.of_changes changes
  in
  { m_outputs = (fun () -> !state); m_apply = apply; m_incremental = false }
