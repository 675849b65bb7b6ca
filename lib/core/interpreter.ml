module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Catalog = Rs_exec.Catalog
module Executor = Rs_exec.Executor
module Plan = Rs_exec.Plan
module Cost = Rs_exec.Cost
module Kernel = Rs_exec.Kernel
module Txn = Rs_storage.Txn

type oof_mode = Oof_off | Oof_normal | Oof_full

type dsd_mode = Dsd_dynamic | Dsd_force_opsd | Dsd_force_tpsd

type options = {
  uie : bool;
  oof : oof_mode;
  dsd : dsd_mode;
  eost : bool;
  fast_dedup : bool;
  pbme : bool;
  persistent_indexes : bool;
  compiled_kernels : bool;
  shared_indexes : Rs_exec.Index_manager.t option;
  query_overhead_s : float;
  timeout_vs : float option;
  hoard_memory : bool;
  share_builds : bool;
  trace : Rs_obs.Trace.t option;
  provenance : Provenance.t option;
}

let options ?(uie = true) ?(oof = Oof_normal) ?(dsd = Dsd_dynamic) ?(eost = true)
    ?(fast_dedup = true) ?(pbme = true) ?(persistent_indexes = true)
    ?(compiled_kernels = true) ?shared_indexes
    ?(query_overhead_s = 0.002) ?timeout_vs
    ?(hoard_memory = false) ?(share_builds = true) ?trace ?provenance () =
  {
    uie;
    oof;
    dsd;
    eost;
    fast_dedup;
    pbme;
    persistent_indexes;
    compiled_kernels;
    shared_indexes;
    query_overhead_s;
    timeout_vs;
    hoard_memory;
    share_builds;
    trace;
    provenance;
  }

let default_options = options ()

type iteration_info = {
  it_stratum : int;
  it_iteration : int;
  it_idb : string;
  it_delta_rows : int;
  it_vtime : float;
}

type result = {
  outputs : (string * Relation.t) list;
  relation_of : string -> Relation.t;
  iterations : int;
  queries : int;
  pbme_strata : int;
  io_bytes : int;
  dsd_choices : (Cost.choice * int) list;
}

exception Timeout_simulated of float

(* --- interpreter --- *)

type idb_state = {
  name : string;
  arity : int;
  compiled : Planner.compiled list;  (* one per rule for this head *)
  agg : Aggregate.t option;
  kernels : Kernel.t list option;
      (* compiled fused kernels, aligned 1:1 with the concatenation of the
         rules' delta plans; [None] = stay on the interpreted path *)
  mutable mu_prev : float option;  (* DSD µ from the previous iteration *)
}

(* What one IDB produced in a recursive round, before absorption. *)
type eval_result =
  | Ev_none  (* every subplan skipped *)
  | Ev_raw of Relation.t  (* interpreted bag; dedup and set difference pending *)
  | Ev_delta of { claimed : int }
      (* kernel output, already appended to R past its round-start rows:
         the Δ; [claimed] the fresh candidates it was cut from *)

let run ?(options = default_options) ?on_iteration ~pool ~edb program =
  let an = Analyzer.analyze program in
  let catalog = Catalog.create () in
  let trace = options.trace in
  (* Persistent join indexes live for the whole run: EDBs are indexed once;
     a recursive IDB's full table is delta-appended each iteration.
     Aggregated IDBs are excluded (their full table is rebuilt from the
     aggregate state every iteration, so an index could never be
     reused). *)
  let index_manager =
    if not options.persistent_indexes then None
    else begin
      let stable = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace stable n ()) an.Analyzer.edbs;
      List.iter
        (fun n -> if Analyzer.agg_sig an n = None then Hashtbl.replace stable n ())
        an.Analyzer.idbs;
      Some
        (Rs_exec.Index_manager.create ?trace ?parent:options.shared_indexes
           ~persistent:(Hashtbl.mem stable) pool)
    end
  in
  let exec =
    Executor.create ~query_overhead_s:options.query_overhead_s
      ~share_builds:options.share_builds ?index_manager ?trace pool catalog
  in
  (* Modeled disk: 0.5 ms seek + 300 MB/s bandwidth per physical flush
     (the container's page cache hides the real cost QuickStep pays). *)
  let on_flush bytes =
    Pool.add_serial pool (0.0005 +. (float_of_int bytes /. 300e6))
  in
  let txn = Txn.create ~on_flush ?trace (if options.eost then Txn.Eost else Txn.Per_query) in
  (* Every aggregate state made so far: a stratum releases its own when it
     ends, and the exit path below releases any that a failed stratum
     left charged. *)
  let aggregates = ref [] in
  (* From here on, every exit path (fixpoint reached, simulated OOM,
     timeout or injected fault) must hand the managed indexes' bytes back to
     the tracker and drop the transaction's scratch state. [Txn.discard] is
     a no-op after the normal-path [Txn.finish], but on an exceptional exit
     it closes the scratch channel and removes the file — the seed leaked
     both whenever a run died mid-fixpoint. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter Aggregate.release !aggregates;
      Txn.discard txn;
      (match index_manager with
      | Some m -> Rs_exec.Index_manager.release_all m
      | None -> ()))
  @@ fun () ->
  let queries = ref 0 in
  let total_iterations = ref 0 in
  let pbme_strata = ref 0 in
  let dsd_hist = Hashtbl.create 4 in
  let note_dsd c = Hashtbl.replace dsd_hist c (1 + Option.value ~default:0 (Hashtbl.find_opt dsd_hist c)) in
  (* [name ()] is built only when a trace is attached: it runs once per
     iteration. *)
  let with_span name f =
    match trace with
    | Some tr -> Rs_obs.Trace.span tr ~kind:"interpreter" (name ()) f
    | None -> f ()
  in
  (* Every fixpoint iteration reports per-IDB delta cardinality both to the
     caller's [on_iteration] and to the trace timeline. *)
  let note_iteration info =
    (match trace with
    | Some tr ->
        Rs_obs.Trace.iteration tr
          {
            Rs_obs.Trace.it_stratum = info.it_stratum;
            it_iteration = info.it_iteration;
            it_idb = info.it_idb;
            it_delta_rows = info.it_delta_rows;
            it_vtime = info.it_vtime;
          }
    | None -> ());
    match on_iteration with Some f -> f info | None -> ()
  in
  let count_iteration () =
    incr total_iterations;
    match trace with Some tr -> Rs_obs.Trace.count tr "interpreter.iterations" 1 | None -> ()
  in
  let check_timeout () =
    match options.timeout_vs with
    | Some budget ->
        let v = Pool.vtime_now pool in
        if v > budget then raise (Timeout_simulated v)
    | None -> ()
  in
  (* Why-provenance recording: every tuple that enters an IDB relation does
     so through exactly one absorption point per path — the Δ range
     [absorb_range] moves over (interpreted plans reach it through dedup and
     DSD, compiled kernels append it to R directly), an aggregated IDB's Δ
     in [absorb_candidates], or the PBME solve's output relation.
     Tagging the absorbed rows therefore covers every derived tuple with no
     per-path special cases: with sampling at 1.0 an IDB can never end up
     half-tagged, whichever mix of kernels, degraded rounds and retries
     produced it. Recording is charged to the simulated clock so the
     benchmark arm measures an honest overhead. *)
  let prov_scan_cost = 2e-9 and prov_tag_cost = 16e-9 in
  let prov_record ~pred ~stratum ~iteration ?(lo = 0) ?hi rel =
    match options.provenance with
    | None -> ()
    | Some p ->
        let hi = Option.value hi ~default:(Relation.nrows rel) in
        let n = hi - lo in
        if n > 0 then begin
          let before = Provenance.recorded p in
          Provenance.record_relation p ~pred ~stratum ~iteration ~lo ~hi rel;
          let tagged = Provenance.recorded p - before in
          Pool.add_serial pool
            ((float_of_int n *. prov_scan_cost) +. (float_of_int tagged *. prov_tag_cost));
          match trace with
          | Some tr -> Rs_obs.Trace.count tr "provenance.recorded" tagged
          | None -> ()
        end
  in
  (* Register EDBs. *)
  List.iter
    (fun name ->
      match List.assoc_opt name edb with
      | Some r ->
          if Relation.arity r <> Analyzer.arity an name then
            raise
              (Analyzer.Analysis_error
                 (Printf.sprintf "input %s has arity %d, program expects %d" name
                    (Relation.arity r) (Analyzer.arity an name)));
          Relation.account r;
          Catalog.register catalog name r
      | None ->
          raise (Analyzer.Analysis_error (Printf.sprintf "missing input relation %s" name)))
    an.Analyzer.edbs;
  (* Register empty IDB tables; each one's Δ is a row range of it. *)
  List.iter
    (fun name -> Catalog.register catalog name (Relation.create ~name (Analyzer.arity an name)))
    an.Analyzer.idbs;
  let analyze_updated names =
    match options.oof with
    | Oof_off -> ()
    | Oof_normal -> List.iter (fun n -> Catalog.analyze_rows catalog n) names
    | Oof_full -> List.iter (fun n -> Catalog.analyze_full catalog pool n) names
  in
  (* Initial statistics are always collected once at load time. *)
  List.iter (fun n -> Catalog.analyze_rows catalog n) (Catalog.names catalog);
  let dedup_mode = if options.fast_dedup then Dedup.Fast else Dedup.Boxed in
  (* Under per-query transactions every query's output pages are written
     back immediately (and get rewritten by later transactions touching the
     same tables); under EOST nothing is dirty until the end, when only the
     final tables are written once. *)
  let issue plan =
    incr queries;
    let r = Executor.run_query exec plan in
    if not options.eost then begin
      Txn.note_dirty txn (Relation.row_bytes r);
      Txn.query_boundary txn
    end;
    r
  in
  (* The dedup table is pre-allocated from the optimizer's cardinality
     estimate (paper §5.1: "the size of the hash table needs to be
     estimated in order to pre-allocate memory") — with stale statistics
     (OOF-NA) the estimate degrades and the table pays for rehashing. For
     a delta join the estimate is max(|Δ|, |build side|), which can be
     thousands of times the rows a round emits; [Dedup.create] clamps it
     at a ceiling of 2^14 entries, which bounds that overshoot, so the
     stale-statistics rehash acts only below the ceiling. *)
  let dedup_expected plans =
    max 16 (Executor.estimate exec (Plan.UnionAll plans))
  in
  (* Evaluate the given plans for one IDB into a deduplicated relation. *)
  let eval_plans plans =
    match plans with
    | [] -> None
    | _ ->
        let rt =
          if options.uie then issue (Plan.UnionAll plans)
          else begin
            (* one query per subquery, materialized, then a merge query *)
            let temps = List.map (fun p -> issue p) plans in
            let merged = issue (Plan.UnionAll (List.map (fun r -> Plan.Rel r) temps)) in
            if not options.hoard_memory then List.iter Relation.release temps;
            merged
          end
        in
        Some rt
  in
  let replace_table name rel =
    Catalog.drop catalog name;
    Catalog.register catalog name rel
  in
  let count_kernel name n =
    match trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()
  in
  (* Compile this IDB's delta plans into fused kernels — all-or-nothing: a
     rule set evaluates either entirely through kernels or entirely through
     the interpreter, so the two paths never interleave within one IDB and
     results stay bit-for-bit comparable. The cost gate screens out rules
     that can never win (cold strata, aggregates, wide heads) before any
     plan is inspected. *)
  let compile_kernels ~arity ~agg ~compiled ~recursive =
    let rule_deltas =
      List.filter_map
        (function
          | Planner.Fact _ -> None
          | Planner.Query { deltas; _ } -> if deltas = [] then None else Some deltas)
        compiled
    in
    let n_rules = List.length rule_deltas in
    if (not options.compiled_kernels) || n_rules = 0 then None
    else
      let ks =
        match Cost.kernel_gate ~recursive ~has_agg:(agg <> None) ~head_arity:arity with
        | Error _reason -> None
        | Ok () ->
            let rec go acc = function
              | [] -> Some (List.rev acc)
              | (_, plan) :: rest -> (
                  match Kernel.compile exec plan with
                  | Ok k -> go (k :: acc) rest
                  | Error _reason -> None)
            in
            go [] (List.concat rule_deltas)
      in
      (* every counter is recorded, at 0 if need be, so a fully compiled (or
         fully refused) run still reports the others, and a clean run
         reports its degraded executions as 0 rather than not at all *)
      let compiled = match ks with Some _ -> n_rules | None -> 0 in
      count_kernel "kernel.compiled_rules" compiled;
      count_kernel "kernel.fallback_rules" (n_rules - compiled);
      count_kernel "kernel.fallbacks" 0;
      ks
  in
  (* Kernel-path evaluation of one IDB's live delta plans: matches stream
     straight through one two-table claim — FAST-DEDUP, then R's
     membership set — into R itself, past its round-start rows: no query
     issued, no intermediate bag, no separate set difference and no second
     copy of the Δ. The set is R's full-column set, the one OPSD's
     [full_table_set] probes, so R has one persistent membership set
     whichever path produced its Δ. It is claimed for writing before the
     dedup table is made, so an index fault raises before any allocation
     or write; the kernels add every tuple they append to R to it, and the
     absorb then only records that it covers R's new rows ([cover_r_set]).
     A chaos-degraded kernel re-evaluates interpreted — its probe fires
     before any write, so falling back can never double-count — but an
     earlier kernel of the round may already have appended rows to R and
     claimed them into R's set: any exit without a Δ truncates R back to
     its round-start rows, which bumps its generation so R's managed
     indexes are rebuilt from the rows R keeps, and drops the set, which
     the fallback's set difference rebuilds. *)
  let r_set_keys arity = Array.init arity Fun.id in
  (* The rows of [name]'s table the round reads: where its Δ ends. *)
  let round_start name =
    let _, _, n = Catalog.read catalog name Catalog.Full in
    n
  in
  let eval_kernels plans ks ~name ~arity =
    let r = Catalog.rel catalog name in
    let start_rows = round_start name in
    let r_set, owned = Executor.claim_set exec ~scan_name:name r (r_set_keys arity) in
    Fun.protect ~finally:(fun () -> if owned then Dedup.release r_set)
    @@ fun () ->
    let abandon dd =
      Dedup.release dd;
      if Relation.nrows r > start_rows then Relation.truncate r start_rows;
      if not owned then
        Option.iter (fun m -> Rs_exec.Index_manager.drop_set m ~name (r_set_keys arity)) index_manager
    in
    let dd = Dedup.create ~expected:(dedup_expected plans) dedup_mode arity in
    match List.fold_left (fun n k -> n + Kernel.run exec k ~dedup:dd ~r_set ~head:r) 0 ks with
    | claimed ->
        Dedup.release dd;
        (* the kernel stands in for a query: under per-query transactions its
           output is written back at its boundary, as [issue] does *)
        if not options.eost then begin
          Txn.note_dirty txn (8 * arity * (Relation.nrows r - start_rows));
          Txn.query_boundary txn
        end;
        Ev_delta { claimed }
    | exception Kernel.Degraded _ ->
        abandon dd;
        count_kernel "kernel.fallbacks" 1;
        (match eval_plans plans with Some rt -> Ev_raw rt | None -> Ev_none)
    | exception e ->
        abandon dd;
        raise e
  in
  (* After a kernel round's Δ is absorbed, R's managed set (which the
     kernels claimed the Δ into) covers R again. *)
  let cover_r_set (st : idb_state) =
    Option.iter
      (fun m ->
        Rs_exec.Index_manager.cover_set m ~name:st.name (Catalog.rel catalog st.name)
          (r_set_keys st.arity))
      index_manager
  in
  (* The DSD decision for one absorb, on the stats and trace. *)
  let note_choice (st : idb_state) choice ~r_rows ~rdelta_rows =
    note_dsd choice;
    match trace with
    | Some tr ->
        (* OPSD/TPSD decision with the cost-model inputs that drove it *)
        Rs_obs.Trace.event tr ~kind:"dsd"
          (match choice with Cost.Opsd -> "opsd" | Cost.Tpsd -> "tpsd")
          (("r_rows", float_of_int r_rows)
          :: ("rdelta_rows", float_of_int rdelta_rows)
          :: ("alpha", Cost.default_alpha)
          :: (match st.mu_prev with Some m -> [ ("mu_prev", m) ] | None -> []))
    | None -> ()
  in
  (* Make the rows a non-aggregated IDB's table gained this round its Δ;
     returns |Δ|. Nothing is copied: the range moves over the rows the
     kernels or [absorb_delta] appended past the round-start rows, and R's
     growth is charged here. [stratum]/[iteration] locate the absorption on
     the fixpoint timeline for provenance tags. [claimed] is |Rδ|, the
     candidate set the Δ was cut from, for the next DSD µ.

     Range invariant: whenever delta plans run, every recursive,
     non-aggregated IDB's Δ is rows [lo, hi) of its own table, [hi] is
     where the round started, and the planner's [Plan.Old] reads [0, lo),
     the table as it stood before the last absorb. Every read of a round
     ends at [hi], so rows appended during the round are seen only from
     the next one. Four things keep it true:
     - absorb moves the range to [hi, nrows) (below);
     - the [Ev_none] drain empties a Δ at its table's end;
     - each stratum ends with every Δ empty at its table's end;
     - a Jacobi round evaluates every IDB before it absorbs any, and a
       degraded kernel round truncates its table back to [hi].
     Aggregated IDBs rebuild their table every round and keep their Δ in
     the changed-groups relation, so the planner never reads their old
     rows. [Catalog.set_delta] refuses a range outside its relation. *)
  let absorb_range ~stratum ~iteration (st : idb_state) ~claimed ~lo =
    let r = Catalog.rel catalog st.name in
    let hi = Relation.nrows r in
    st.mu_prev <-
      Some (Cost.observed_mu ~rdelta_rows:claimed ~intersection_rows:(claimed - (hi - lo)));
    Relation.account r;
    if not options.eost then begin
      Txn.note_dirty txn (8 * st.arity * (hi - lo));
      Txn.query_boundary txn
    end;
    prov_record ~pred:st.name ~stratum ~iteration ~lo ~hi r;
    Catalog.set_delta catalog st.name ~lo ~hi ();
    hi - lo
  in
  (* The interpreted path's Δ, fresh from a set difference: appended to R
     once, then released, as R's rows hold it. *)
  let absorb_delta ~stratum ~iteration (st : idb_state) ~claimed delta =
    let lo = round_start st.name in
    Relation.append_all (Catalog.rel catalog st.name) delta;
    Relation.release delta;
    absorb_range ~stratum ~iteration st ~claimed ~lo
  in
  (* An empty Δ at the end of its table. For an aggregated IDB this
     releases the changed-groups relation the Δ lay in. *)
  let drain_delta name =
    let n = round_start name in
    Catalog.set_delta catalog name ~lo:n ~hi:n ()
  in
  (* Process the deduplicated candidates [rdelta] of one IDB; returns |Δ|. *)
  let absorb_candidates ~stratum ~iteration (st : idb_state) rdelta =
    match st.agg with
    | Some ag ->
        let delta = Aggregate.absorb pool ag ~name:st.name rdelta in
        (* Tag the changed groups with their current merged value: the tuple
           a group holds in the final relation is exactly the one recorded
           at its last improvement, so every surviving aggregate row carries
           a tag (superseded values keep stale tags that no live row ever
           looks up). *)
        prov_record ~pred:st.name ~stratum ~iteration delta;
        (* The previous changed groups go before R is rebuilt. R is the
           finalized view of the state, and its Δ lies in the changed
           groups. *)
        drain_delta st.name;
        replace_table st.name (Aggregate.to_relation pool ag ~name:st.name);
        Catalog.set_delta catalog st.name ~src:delta ~lo:0 ~hi:(Relation.nrows delta) ();
        Relation.nrows delta
    | None ->
        let r = Catalog.rel catalog st.name in
        let r_rows = Catalog.stat_rows catalog st.name in
        let rdelta_rows = Relation.nrows rdelta in
        let choice =
          match options.dsd with
          | Dsd_force_opsd -> Cost.Opsd
          | Dsd_force_tpsd -> Cost.Tpsd
          | Dsd_dynamic ->
              Cost.choose ~alpha:Cost.default_alpha ~r_index_persists:(index_manager <> None)
                ~r_rows ~rdelta_rows ~mu_prev:st.mu_prev
        in
        note_choice st choice ~r_rows ~rdelta_rows;
        let delta =
          match choice with
          | Cost.Opsd -> Executor.opsd exec ~name:st.name ~rdelta ~r ()
          | Cost.Tpsd -> Executor.tpsd exec ~name:st.name ~rdelta ~r ()
        in
        absorb_delta ~stratum ~iteration st ~claimed:rdelta_rows delta
  in
  (* --- per-stratum evaluation --- *)
  let eval_stratum (stratum : Analyzer.stratum) =
    let idb_states =
      List.map
        (fun name ->
          let rules = List.filter (fun r -> r.Ast.head_pred = name) stratum.rules in
          let arity = Analyzer.arity an name in
          let compiled = List.map (Planner.compile_rule an stratum) rules in
          let agg = Option.map (Aggregate.create ~arity ~edb) (Analyzer.agg_sig an name) in
          Option.iter (fun ag -> aggregates := ag :: !aggregates) agg;
          {
            name;
            arity;
            compiled;
            agg;
            kernels = compile_kernels ~arity ~agg ~compiled ~recursive:stratum.recursive;
            mu_prev = None;
          })
        stratum.preds
    in
    (* Facts seed the candidate stream of iteration 0. *)
    let facts_of st =
      List.filter_map (function Planner.Fact t -> Some t | Planner.Query _ -> None) st.compiled
    in
    let base_plans st =
      List.filter_map
        (function
          | Planner.Fact _ -> None
          | Planner.Query { base; deltas } -> if deltas = [] then Some base else None)
        st.compiled
    in
    (* In a recursive stratum, rules with recursive occurrences contribute
       nothing at iteration 0 (their IDB inputs are empty), so [base_plans]
       runs only the delta-free rules there; in a non-recursive stratum that
       is every rule. *)
    let delta_plans st =
      List.concat_map
        (function Planner.Fact _ -> [] | Planner.Query { deltas; _ } -> deltas)
        st.compiled
    in
    let iteration0 st =
      let candidates = Relation.create ~name:(st.name ^ "@cand") st.arity in
      List.iter (fun t -> Relation.push_row candidates t) (facts_of st);
      (match eval_plans (base_plans st) with
      | Some rt ->
          Relation.append_all candidates rt;
          if not options.hoard_memory then Relation.release rt
      | None -> ());
      Relation.account candidates;
      let expected =
        match base_plans st with
        | [] -> Relation.nrows candidates
        | plans -> dedup_expected plans
      in
      let rdelta = Dedup.dedup_relation_parallel ~expected ?trace ~pool dedup_mode candidates in
      if not options.hoard_memory then Relation.release candidates;
      let d = absorb_candidates ~stratum:stratum.index ~iteration:0 st rdelta in
      if not options.hoard_memory then Relation.release rdelta;
      analyze_updated [ st.name ];
      d
    in
    count_iteration ();
    let deltas0 =
      with_span (fun () -> "iter-0") (fun () -> List.map (fun st -> (st, iteration0 st)) idb_states)
    in
    List.iter
      (fun (st, d) ->
        note_iteration
          {
            it_stratum = stratum.index;
            it_iteration = 0;
            it_idb = st.name;
            it_delta_rows = d;
            it_vtime = Pool.vtime_now pool;
          })
      deltas0;
    if stratum.recursive then begin
      let iteration = ref 0 in
      let continue_ = ref (List.exists (fun (_, d) -> d > 0) deltas0) in
      while !continue_ do
        incr iteration;
        count_iteration ();
        check_timeout ();
        let any = ref false in
        with_span
          (fun () -> Printf.sprintf "iter-%d" !iteration)
          (fun () ->
            (* Jacobi rounds: evaluate every IDB's queries against the previous
               iteration's Δs FIRST, then absorb. Absorbing one IDB before
               evaluating the next would move a Δ that mutually recursive
               rules of later IDBs still need to consume; kernels append to
               their table during the evaluation, but every read ends at the
               round-start rows. *)
            let produced =
              List.map
                (fun st ->
                  (* Empty-delta skip: a subplan scanning a Δ that went
                     empty cannot derive anything, so it is never issued —
                     a stratum whose deltas all drain terminates without
                     evaluating the remaining rule subplans. The kernel path
                     honors the same skip (its kernels are aligned 1:1 with
                     the delta plans). *)
                  let dps = delta_plans st in
                  let is_live (dpred, _) = Catalog.delta_rows catalog dpred > 0 in
                  let plans = List.map snd (List.filter is_live dps) in
                  let result =
                    if plans = [] then Ev_none
                    else
                      match st.kernels with
                      | Some ks ->
                          let live_ks =
                            List.filter_map
                              (fun (dp, k) -> if is_live dp then Some k else None)
                              (List.combine dps ks)
                          in
                          eval_kernels plans live_ks ~name:st.name ~arity:st.arity
                      | None -> (
                          match eval_plans plans with
                          | Some rt -> Ev_raw rt
                          | None -> Ev_none)
                  in
                  (st, plans, result))
                idb_states
            in
            List.iter
              (fun (st, plans, result) ->
                let note d =
                  note_iteration
                    {
                      it_stratum = stratum.index;
                      it_iteration = !iteration;
                      it_idb = st.name;
                      it_delta_rows = d;
                      it_vtime = Pool.vtime_now pool;
                    }
                in
                let absorbed d =
                  analyze_updated [ st.name ];
                  if d > 0 then any := true;
                  note d
                in
                match result with
                | Ev_none ->
                    (* Every subplan was skipped, but this IDB's own Δ may
                       still hold the previous round's rows; drain it so
                       mutually recursive consumers don't re-read it next
                       round. *)
                    drain_delta st.name;
                    note 0
                | Ev_raw rt ->
                    let rdelta =
                      Dedup.dedup_relation_parallel ~expected:(dedup_expected plans) ?trace ~pool
                        dedup_mode rt
                    in
                    if not options.hoard_memory then Relation.release rt;
                    let d = absorb_candidates ~stratum:stratum.index ~iteration:!iteration st rdelta in
                    if not options.hoard_memory then Relation.release rdelta;
                    absorbed d
                | Ev_delta { claimed } ->
                    (* kernel output is already the Δ, in R: no dedup pass
                       and no set difference. The kernel ran OPSD's probe of
                       R's set inside its claims, so the absorb records an
                       OPSD choice. *)
                    note_choice st Cost.Opsd ~r_rows:(Catalog.stat_rows catalog st.name)
                      ~rdelta_rows:claimed;
                    let d =
                      absorb_range ~stratum:stratum.index ~iteration:!iteration st ~claimed
                        ~lo:(round_start st.name)
                    in
                    cover_r_set st;
                    absorbed d)
              produced);
        continue_ := !any
      done
    end;
    (* Empty every Δ at its table's end, so later strata read whole tables,
       and free the aggregate states, whose relations are final. *)
    List.iter
      (fun st ->
        drain_delta st.name;
        Option.iter Aggregate.release st.agg)
      idb_states
  in
  (* PBME dispatch: a TC/SG-shaped stratum over a fitting domain uses the
     bit-matrix kernels instead of the relational loop. *)
  let try_pbme (stratum : Analyzer.stratum) =
    if not options.pbme then false
    else
      match Pattern.match_stratum an stratum with
      | None -> false
      | Some shape ->
          let edb_name = match shape with Pattern.Tc { edb; _ } | Pattern.Sg { edb; _ } -> edb in
          let idb_name = match shape with Pattern.Tc { idb; _ } | Pattern.Sg { idb; _ } -> idb in
          let e = Catalog.rel catalog edb_name in
          let n_rows = Relation.nrows e in
          let domain = ref 0 in
          let ok = ref (n_rows > 0) in
          for row = 0 to n_rows - 1 do
            let x = Relation.get e ~row ~col:0 and y = Relation.get e ~row ~col:1 in
            if x < 0 || y < 0 then ok := false;
            if x >= !domain then domain := x + 1;
            if y >= !domain then domain := y + 1
          done;
          let n = !domain in
          let budget =
            match Rs_storage.Memtrack.budget () with
            | Some b -> b
            | None -> Rs_storage.Memtrack.machine_bytes ()
          in
          let fits =
            !ok
            && Rs_bitmatrix.Bitmatrix.required_bytes n + (16 * n_rows)
               < budget - Rs_storage.Memtrack.live ()
          in
          if not fits then false
          else begin
            let m =
              match shape with
              | Pattern.Tc _ -> Rs_bitmatrix.Pbme.tc pool ~n ~arc:e
              | Pattern.Sg _ -> Rs_bitmatrix.Pbme.sg pool ~n ~arc:e
            in
            let r = Rs_bitmatrix.Bitmatrix.to_relation ~name:idb_name m in
            Rs_bitmatrix.Bitmatrix.release m;
            (* The bit-matrix solve collapses the whole stratum, so the
               per-iteration timeline is gone: tag its output wholesale at
               iteration 0. Evaluation is identical with recording on or
               off — tags are a side table — so PBME stays enabled and the
               outputs remain byte-identical. *)
            prov_record ~pred:idb_name ~stratum:stratum.index ~iteration:0 r;
            replace_table idb_name r;
            if not options.eost then begin
              Txn.note_dirty txn (Relation.row_bytes r);
              Txn.query_boundary txn
            end;
            analyze_updated [ idb_name ];
            incr pbme_strata;
            count_iteration ();
            (match trace with
            | Some tr -> Rs_obs.Trace.count tr "interpreter.pbme_strata" 1
            | None -> ());
            (* the whole stratum collapses into one bit-matrix solve; report
               it as a single iteration so the timeline stays complete *)
            note_iteration
              {
                it_stratum = stratum.index;
                it_iteration = 0;
                it_idb = idb_name;
                it_delta_rows = Relation.nrows r;
                it_vtime = Pool.vtime_now pool;
              };
            true
          end
  in
  List.iter
    (fun stratum ->
      check_timeout ();
      with_span
        (fun () -> Printf.sprintf "stratum-%d" stratum.Analyzer.index)
        (fun () -> if not (try_pbme stratum) then eval_stratum stratum))
    an.Analyzer.strata;
  if options.eost then
    (* one final write-back of the result tables *)
    List.iter
      (fun name -> Txn.note_dirty txn (Relation.row_bytes (Catalog.rel catalog name)))
      an.Analyzer.idbs;
  Txn.finish txn;
  let output_names = if program.Ast.outputs = [] then an.Analyzer.idbs else program.Ast.outputs in
  {
    outputs = List.map (fun n -> (n, Catalog.rel catalog n)) output_names;
    relation_of = (fun n -> Catalog.rel catalog n);
    iterations = !total_iterations;
    queries = !queries;
    pbme_strata = !pbme_strata;
    io_bytes = Txn.bytes_written txn;
    dsd_choices = Hashtbl.fold (fun k v acc -> (k, v) :: acc) dsd_hist [];
  }
