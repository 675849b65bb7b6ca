module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Catalog = Rs_exec.Catalog
module Executor = Rs_exec.Executor
module Plan = Rs_exec.Plan
module Cost = Rs_exec.Cost
module Kernel = Rs_exec.Kernel
module Txn = Rs_storage.Txn
module Int_vec = Rs_util.Int_vec

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
  alpha : float;
  timeout_vs : float option;
  hoard_memory : bool;
  share_builds : bool;
  trace : Rs_obs.Trace.t option;
  provenance : Provenance.t option;
}

let options ?(uie = true) ?(oof = Oof_normal) ?(dsd = Dsd_dynamic) ?(eost = true)
    ?(fast_dedup = true) ?(pbme = true) ?(persistent_indexes = true)
    ?(compiled_kernels = true) ?shared_indexes
    ?(query_overhead_s = 0.002) ?(alpha = Cost.default_alpha) ?timeout_vs
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
    alpha;
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

(* --- aggregate state: group key -> per-agg (acc, count) --- *)

type agg_state = {
  sig_ : Analyzer.agg_sig;
  table : (int list, int array * int array) Hashtbl.t;
  mutable dense : int array option;
      (* Fast path for the recursive-aggregation shape of CC and SSSP:
         [p(key, MIN/MAX(v))] with one integer group column. [dense.(key)]
         holds the current optimum (the op's init value = absent), so state
         rebuilds scan an array chunk-parallel instead of walking a hash
         table serially. *)
}

let agg_init_value = function
  | Ast.Min -> max_int
  | Ast.Max -> min_int
  | Ast.Sum | Ast.Count | Ast.Avg -> 0

(* Fold one candidate tuple (full head layout) into the state; returns true
   iff any accumulator changed (the tuple contributes to Δ). *)
let agg_fold st tuple =
  let key = List.map (fun p -> tuple.(p)) st.sig_.group_positions in
  let ops = st.sig_.agg_positions in
  let vals, counts =
    match Hashtbl.find_opt st.table key with
    | Some acc -> acc
    | None ->
        let acc =
          ( Array.of_list (List.map (fun (_, op) -> agg_init_value op) ops),
            Array.make (List.length ops) 0 )
        in
        Hashtbl.add st.table key acc;
        acc
  in
  let changed = ref false in
  List.iteri
    (fun i (pos, op) ->
      let v = tuple.(pos) in
      counts.(i) <- counts.(i) + 1;
      match op with
      | Ast.Min -> if v < vals.(i) then begin vals.(i) <- v; changed := true end
      | Ast.Max -> if v > vals.(i) then begin vals.(i) <- v; changed := true end
      | Ast.Sum | Ast.Avg ->
          vals.(i) <- vals.(i) + v;
          changed := true
      | Ast.Count ->
          vals.(i) <- vals.(i) + 1;
          changed := true)
    ops;
  !changed

let dense_shape sig_ =
  match (sig_.Analyzer.group_positions, sig_.Analyzer.agg_positions) with
  | [ 0 ], [ (1, (Ast.Min | Ast.Max)) ] -> true
  | _ -> false

let dense_op st =
  match st.sig_.agg_positions with [ (_, op) ] -> op | _ -> assert false

let dense_ensure st key =
  let a = Option.get st.dense in
  if key < Array.length a then a
  else begin
    let cap = max (key + 1) (2 * Array.length a) in
    let b = Array.make cap (agg_init_value (dense_op st)) in
    Array.blit a 0 b 0 (Array.length a);
    st.dense <- Some b;
    b
  end

let dense_merge st key v =
  let a = dense_ensure st key in
  let better =
    match dense_op st with
    | Ast.Min -> v < a.(key)
    | Ast.Max -> v > a.(key)
    | _ -> assert false
  in
  if better then a.(key) <- v;
  better

let agg_merge_generic st key (pvals, pcounts) =
  let ops = st.sig_.agg_positions in
  match Hashtbl.find_opt st.table key with
  | None ->
      Hashtbl.add st.table key (Array.copy pvals, Array.copy pcounts);
      true
  | Some (vals, counts) ->
      let changed = ref false in
      List.iteri
        (fun i (_, op) ->
          counts.(i) <- counts.(i) + pcounts.(i);
          match op with
          | Ast.Min -> if pvals.(i) < vals.(i) then begin vals.(i) <- pvals.(i); changed := true end
          | Ast.Max -> if pvals.(i) > vals.(i) then begin vals.(i) <- pvals.(i); changed := true end
          | Ast.Sum | Ast.Avg | Ast.Count ->
              if pvals.(i) <> 0 then begin
                vals.(i) <- vals.(i) + pvals.(i);
                changed := true
              end)
        ops;
      !changed

(* Merge a chunk-local accumulator into the state (two-phase parallel
   aggregation); returns true iff the global accumulator changed. *)
let agg_merge st key acc =
  match st.dense with
  | Some _ -> (
      match key with [ k ] -> dense_merge st k (fst acc).(0) | _ -> assert false)
  | None -> agg_merge_generic st key acc

(* Rebuild the head-layout tuple for a state entry (finalizing AVG). *)
let agg_tuple st key (vals, counts) arity =
  let tuple = Array.make arity 0 in
  List.iteri (fun i p -> tuple.(p) <- List.nth key i) st.sig_.group_positions;
  List.iteri
    (fun i (p, op) ->
      tuple.(p) <-
        (match op with
        | Ast.Avg -> if counts.(i) = 0 then 0 else vals.(i) / counts.(i)
        | _ -> vals.(i)))
    st.sig_.agg_positions;
  tuple

let agg_rebuild_relation pool st name arity =
  match st.dense with
  | Some a ->
      let absent = agg_init_value (dense_op st) in
      let fragments = ref [] in
      Rs_parallel.Pool.parallel_for pool 0 (Array.length a) (fun lo hi ->
          let frag = Relation.create 2 in
          for k = lo to hi - 1 do
            if a.(k) <> absent then Relation.push2 frag k a.(k)
          done;
          fragments := frag :: !fragments);
      let r = Relation.concat_parallel pool 2 (List.rev !fragments) in
      ignore name;
      r
  | None ->
      let r = Relation.create ~name arity in
      Hashtbl.iter (fun key acc -> Relation.push_row r (agg_tuple st key acc arity)) st.table;
      Relation.account r;
      r

(* --- interpreter --- *)

type idb_state = {
  name : string;
  arity : int;
  compiled : Planner.compiled list;  (* one per rule for this head *)
  agg : agg_state option;
  kernels : Kernel.t list option;
      (* compiled fused kernels, aligned 1:1 with the concatenation of the
         rules' delta plans; [None] = stay on the interpreted path *)
  mutable mu_prev : float option;  (* DSD µ from the previous iteration *)
}

(* What one IDB produced in a recursive round, before absorption. *)
type eval_result =
  | Ev_none  (* every subplan skipped *)
  | Ev_raw of Relation.t  (* interpreted bag; dedup and set difference pending *)
  | Ev_delta of { delta : Relation.t; claimed : int }
      (* kernel output: already the Δ, [claimed] the fresh candidates it
         was cut from *)

let run ?(options = default_options) ?on_iteration ~pool ~edb program =
  let an = Analyzer.analyze program in
  let catalog = Catalog.create () in
  let trace = options.trace in
  (* Persistent join indexes live for the whole run: EDBs are indexed once;
     a recursive IDB's full table is delta-appended each iteration. Delta
     tables are excluded (their backing relation is replaced every
     iteration), and so are aggregated IDBs (their full table is rebuilt
     from the aggregate state every iteration, so an index could never be
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
  (* From here on, every exit path (fixpoint reached, simulated OOM,
     timeout or injected fault) must hand the managed indexes' bytes back to
     the tracker and drop the transaction's scratch state. [Txn.discard] is
     a no-op after the normal-path [Txn.finish], but on an exceptional exit
     it closes the scratch channel and removes the file — the seed leaked
     both whenever a run died mid-fixpoint. *)
  Fun.protect
    ~finally:(fun () ->
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
  let with_span name f =
    match trace with
    | Some tr -> Rs_obs.Trace.span tr ~kind:"interpreter" name f
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
     so through exactly one absorption point per path — the Δ appended by
     [absorb_delta] (interpreted plans reach it through dedup and DSD,
     compiled kernels hand it their Δ directly), an aggregated IDB's Δ in
     [absorb_candidates], or the PBME solve's output relation.
     Tagging the absorbed rows therefore covers every derived tuple with no
     per-path special cases: with sampling at 1.0 an IDB can never end up
     half-tagged, whichever mix of kernels, degraded rounds and retries
     produced it. Recording is charged to the simulated clock so the
     benchmark arm measures an honest overhead. *)
  let prov_scan_cost = 2e-9 and prov_tag_cost = 16e-9 in
  let prov_record ~pred ~stratum ~iteration rel =
    match options.provenance with
    | None -> ()
    | Some p ->
        let n = Relation.nrows rel in
        if n > 0 then begin
          let before = Provenance.recorded p in
          Provenance.record_relation p ~pred ~stratum ~iteration rel;
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
  (* Register empty IDB and Δ tables. *)
  List.iter
    (fun name ->
      Catalog.register catalog name (Relation.create ~name (Analyzer.arity an name));
      let d = Planner.delta_name name in
      Catalog.register catalog d (Relation.create ~name:d (Analyzer.arity an name)))
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
      Txn.note_dirty txn (Relation.bytes r);
      Txn.query_boundary txn
    end;
    r
  in
  (* The dedup table is pre-allocated from the optimizer's cardinality
     estimate (paper §5.1: "the size of the hash table needs to be
     estimated in order to pre-allocate memory") — with stale statistics
     (OOF-NA) the estimate degrades and the table pays for rehashing. *)
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
              | (dpred, plan) :: rest -> (
                  match Kernel.compile exec ~probe_table:(Planner.delta_name dpred) plan with
                  | Ok k -> go (k :: acc) rest
                  | Error _reason -> None)
            in
            go [] (List.concat rule_deltas)
      in
      (* both counters are recorded, one of them 0, so a fully compiled (or
         fully refused) run still reports the other *)
      let compiled = match ks with Some _ -> n_rules | None -> 0 in
      count_kernel "kernel.compiled_rules" compiled;
      count_kernel "kernel.fallback_rules" (n_rules - compiled);
      ks
  in
  (* Kernel-path evaluation of one IDB's live delta plans: matches stream
     straight through one two-table claim — FAST-DEDUP, then R's
     membership set — into the Δ, no query issued, no intermediate bag and
     no separate set difference. The set is R's full-column set, the one
     OPSD's [full_table_set] probes, so R has one persistent membership set
     whichever path produced its Δ. It is claimed for writing before the
     dedup table is made, so an index fault raises before any allocation
     or write; the kernels add every tuple they emit to it, and the absorb
     then only records that it covers R's new rows ([cover_r_set]).
     A chaos-degraded kernel re-evaluates interpreted — its probe fires
     before any write, so falling back can never double-count — but an
     earlier kernel of the round may already have claimed tuples into R's
     set that R will not receive through this Δ: any exit without a Δ
     drops the set, and the fallback's set difference rebuilds it. *)
  let r_set_keys arity = Array.init arity Fun.id in
  let eval_kernels plans ks ~name ~arity =
    let r = Catalog.rel catalog name in
    let r_set, owned = Executor.claim_set exec ~scan_name:name r (r_set_keys arity) in
    Fun.protect ~finally:(fun () -> if owned then Dedup.release r_set)
    @@ fun () ->
    let abandon dd out =
      Dedup.release dd;
      Relation.release out;
      if not owned then
        Option.iter (fun m -> Rs_exec.Index_manager.drop_set m ~name (r_set_keys arity)) index_manager
    in
    let dd = Dedup.create ~expected:(dedup_expected plans) dedup_mode arity in
    let out = Relation.create ~name:(Planner.delta_name name) arity in
    match List.fold_left (fun n k -> n + Kernel.run exec k ~dedup:dd ~r_set ~out) 0 ks with
    | claimed ->
        Dedup.release dd;
        Relation.account out;
        (* the kernel stands in for a query: under per-query transactions its
           output is written back at its boundary, as [issue] does *)
        if not options.eost then begin
          Txn.note_dirty txn (Relation.bytes out);
          Txn.query_boundary txn
        end;
        Ev_delta { delta = out; claimed }
    | exception Kernel.Degraded _ ->
        abandon dd out;
        count_kernel "kernel.fallbacks" 1;
        (match eval_plans plans with Some rt -> Ev_raw rt | None -> Ev_none)
    | exception e ->
        abandon dd out;
        raise e
  in
  (* After a kernel round's Δ is appended to R, R's managed set (which the
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
          :: ("alpha", options.alpha)
          :: (match st.mu_prev with Some m -> [ ("mu_prev", m) ] | None -> []))
    | None -> ()
  in
  (* Append one non-aggregated IDB's Δ to its table and make it the
     Δ-table; returns |Δ|. [stratum]/[iteration] locate the absorption on
     the fixpoint timeline for provenance tags. [claimed] is |Rδ|, the
     candidate set the Δ was cut from, for the next DSD µ.

     Suffix invariant: whenever delta plans run, every recursive,
     non-aggregated IDB table ends with exactly its Δ-table's rows, so the
     planner's [Plan.Old] reads (the rows before the Δ-suffix) are the table
     as it stood before the last absorb. Four things keep it true:
     - absorb appends Δ to the table (below) and makes it the Δ-table;
     - the [Ev_none] drain empties a Δ-table and leaves its table alone;
     - each stratum ends with every Δ-table emptied;
     - a Jacobi round evaluates every IDB before it absorbs any.
     Aggregated IDBs rebuild their table every round, so the planner never
     reads their old rows. [Executor.old_bound] raises when a Δ-table is
     longer than its table. *)
  let absorb_delta ~stratum ~iteration (st : idb_state) ~claimed delta =
    st.mu_prev <-
      Some
        (Cost.observed_mu ~rdelta_rows:claimed
           ~intersection_rows:(claimed - Relation.nrows delta));
    let r = Catalog.rel catalog st.name in
    Relation.append_all r delta;
    Relation.account r;
    if not options.eost then begin
      Txn.note_dirty txn (Relation.bytes delta);
      Txn.query_boundary txn
    end;
    prov_record ~pred:st.name ~stratum ~iteration delta;
    replace_table (Planner.delta_name st.name) delta;
    Relation.nrows delta
  in
  (* Process the deduplicated candidates [rdelta] of one IDB; returns |Δ|. *)
  let absorb_candidates ~stratum ~iteration (st : idb_state) rdelta =
    match st.agg with
    | Some ag ->
        (* Two-phase parallel aggregation (like the backend's group-by):
           chunk-local folds through the pool, then a serial merge into the
           global state. Improved groups become Δ (full head layout). *)
        let delta = Relation.create ~name:(Planner.delta_name st.name) st.arity in
        let n = Relation.nrows rdelta in
        let partials = ref [] in
        Pool.parallel_for pool 0 n (fun lo hi ->
            let local = { sig_ = ag.sig_; table = Hashtbl.create 256; dense = None } in
            let tuple = Array.make st.arity 0 in
            for row = lo to hi - 1 do
              for c = 0 to st.arity - 1 do
                tuple.(c) <- Relation.get rdelta ~row ~col:c
              done;
              ignore (agg_fold local tuple)
            done;
            partials := local :: !partials);
        let changed_keys = Hashtbl.create 64 in
        List.iter
          (fun (local : agg_state) ->
            Hashtbl.iter
              (fun key acc -> if agg_merge ag key acc then Hashtbl.replace changed_keys key ())
              local.table)
          (List.rev !partials);
        (match ag.dense with
        | Some a ->
            Hashtbl.iter
              (fun key () ->
                match key with
                | [ k ] -> Relation.push2 delta k a.(k)
                | _ -> assert false)
              changed_keys
        | None ->
            Hashtbl.iter
              (fun key () ->
                match Hashtbl.find_opt ag.table key with
                | Some acc -> Relation.push_row delta (agg_tuple ag key acc st.arity)
                | None -> ())
              changed_keys);
        Relation.account delta;
        (* Tag the changed groups with their current merged value: the tuple
           a group holds in the final relation is exactly the one recorded
           at its last improvement, so every surviving aggregate row carries
           a tag (superseded values keep stale tags that no live row ever
           looks up). *)
        prov_record ~pred:st.name ~stratum ~iteration delta;
        replace_table (Planner.delta_name st.name) delta;
        (* R is the finalized view of the state. *)
        replace_table st.name (agg_rebuild_relation pool ag st.name st.arity);
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
              Cost.choose ~alpha:options.alpha ~r_index_persists:(index_manager <> None) ~r_rows
                ~rdelta_rows ~mu_prev:st.mu_prev
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
          let agg =
            Option.map
              (fun s ->
                {
                  sig_ = s;
                  table = Hashtbl.create 256;
                  dense = (if dense_shape s && arity = 2 then Some [||] else None);
                })
              (Analyzer.agg_sig an name)
          in
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
      analyze_updated [ st.name; Planner.delta_name st.name ];
      d
    in
    count_iteration ();
    let deltas0 = with_span "iter-0" (fun () -> List.map (fun st -> (st, iteration0 st)) idb_states) in
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
          (Printf.sprintf "iter-%d" !iteration)
          (fun () ->
            (* Jacobi rounds: evaluate every IDB's queries against the previous
               iteration's Δ-tables FIRST, then absorb. Absorbing one IDB before
               evaluating the next would replace a Δ-table that mutually
               recursive rules of later IDBs still need to consume. *)
            let produced =
              List.map
                (fun st ->
                  (* Empty-delta skip: a subplan scanning a Δ-table that went
                     empty cannot derive anything, so it is never issued —
                     a stratum whose deltas all drain terminates without
                     evaluating the remaining rule subplans. The kernel path
                     honors the same skip (its kernels are aligned 1:1 with
                     the delta plans). *)
                  let dps = delta_plans st in
                  let is_live (dpred, _) =
                    Relation.nrows (Catalog.rel catalog (Planner.delta_name dpred)) > 0
                  in
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
                  analyze_updated [ st.name; Planner.delta_name st.name ];
                  if d > 0 then any := true;
                  note d
                in
                match result with
                | Ev_none ->
                    (* Every subplan was skipped, but this IDB's own Δ-table
                       may still hold the previous round's delta; drain it so
                       mutually recursive consumers don't re-read it next
                       round. *)
                    let dn = Planner.delta_name st.name in
                    if Relation.nrows (Catalog.rel catalog dn) > 0 then begin
                      replace_table dn (Relation.create ~name:dn st.arity);
                      analyze_updated [ dn ]
                    end;
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
                | Ev_delta { delta; claimed } ->
                    (* kernel output is already the Δ: no dedup pass and no
                       set difference. The kernel ran OPSD's probe of R's
                       set inside its claims, so the absorb records an OPSD
                       choice. *)
                    note_choice st Cost.Opsd ~r_rows:(Catalog.stat_rows catalog st.name)
                      ~rdelta_rows:claimed;
                    let d = absorb_delta ~stratum:stratum.index ~iteration:!iteration st ~claimed delta in
                    cover_r_set st;
                    absorbed d)
              produced);
        continue_ := !any
      done
    end;
    (* Clear Δ tables so later strata see empty deltas. *)
    List.iter
      (fun st ->
        let d = Planner.delta_name st.name in
        replace_table d (Relation.create ~name:d st.arity))
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
              Txn.note_dirty txn (Relation.bytes r);
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
        (Printf.sprintf "stratum-%d" stratum.Analyzer.index)
        (fun () -> if not (try_pbme stratum) then eval_stratum stratum))
    an.Analyzer.strata;
  if options.eost then
    (* one final write-back of the result tables *)
    List.iter
      (fun name -> Txn.note_dirty txn (Relation.bytes (Catalog.rel catalog name)))
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
