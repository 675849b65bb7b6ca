module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Catalog = Rs_exec.Catalog
module Executor = Rs_exec.Executor
module Plan = Rs_exec.Plan
module Cost = Rs_exec.Cost
module Kernel = Rs_exec.Kernel
module Txn = Rs_storage.Txn
module Index_manager = Rs_exec.Index_manager

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

type iteration_info = Rs_obs.Trace.iteration = {
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

exception Timeout_simulated = Fixpoint.Timeout_simulated

(* --- the run and its strata --- *)

(* Everything one run's stages share. *)
type run = {
  options : options;
  an : Analyzer.t;
  edb : (string * Relation.t) list;
  pool : Pool.t;
  trace : Rs_obs.Trace.t option;
  catalog : Catalog.t;
  index_manager : Index_manager.t option;
  exec : Executor.t;
  txn : Txn.t;
  fx : Fixpoint.t;
  dedup_mode : Dedup.mode;
  mutable aggregates : Aggregate.t list;
      (* every aggregate state made so far: a stratum releases its own when
         it ends, and [release_run] any that a failed stratum left charged *)
  mutable queries : int;
  mutable pbme_strata : int;
  dsd_hist : (Cost.choice, int) Hashtbl.t;
}

type idb_state = {
  name : string;
  arity : int;
  facts : int array list;  (* ground rules: they seed iteration 0 *)
  base : Plan.t list;
      (* the delta-free rules' plans. In a recursive stratum, rules with
         recursive occurrences contribute nothing at iteration 0 (their IDB
         inputs are empty), so only these run there; in a non-recursive
         stratum that is every rule. *)
  deltas : (string * Plan.t) list;  (* every delta plan, with the Δ it scans *)
  agg : Aggregate.t option;
  kernels : Kernel.t list option;
      (* compiled fused kernels, aligned 1:1 with [deltas]; [None] = stay on
         the interpreted path *)
  mutable mu_prev : float option;  (* DSD µ from the previous iteration *)
}

(* One stratum under evaluation; its IDBs are evaluated and noted in this
   order. *)
type stratum = { index : int; recursive : bool; idbs : idb_state list }

(* What one IDB produced in a recursive round, before absorption. *)
type eval_result =
  | Ev_none  (* every subplan skipped *)
  | Ev_raw of { bag : Relation.t; plans : Plan.t list }
      (* interpreted bag of [plans]; dedup and set difference pending *)
  | Ev_delta of { claimed : int }
      (* kernel output, already appended to R past its round-start rows:
         the Δ; [claimed] the fresh candidates it was cut from *)

let create_run (options : options) ?on_iteration ~pool ~edb an =
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
      List.iter
        (fun n -> if Analyzer.agg_sig an n = None then Hashtbl.replace stable n ())
        (an.Analyzer.edbs @ an.Analyzer.idbs);
      Some
        (Index_manager.create ?trace ?parent:options.shared_indexes ~persistent:(Hashtbl.mem stable)
           pool)
    end
  in
  let exec =
    Executor.create ~query_overhead_s:options.query_overhead_s
      ~share_builds:options.share_builds ?index_manager ?trace pool catalog
  in
  (* Modeled disk: 0.5 ms seek + 300 MB/s bandwidth per physical flush
     (the container's page cache hides the real cost QuickStep pays). *)
  let on_flush bytes = Pool.add_serial pool (0.0005 +. (float_of_int bytes /. 300e6)) in
  { options; an; edb; pool; trace; catalog; index_manager; exec;
    txn = Txn.create ~on_flush ?trace (if options.eost then Txn.Eost else Txn.Per_query);
    fx = Fixpoint.create ?trace ?on_iteration ?deadline:options.timeout_vs ~kind:"interpreter" pool;
    dedup_mode = (if options.fast_dedup then Dedup.Fast else Dedup.Boxed);
    aggregates = []; queries = 0; pbme_strata = 0; dsd_hist = Hashtbl.create 4 }

(* Every exit path (fixpoint reached, simulated OOM, timeout or injected
   fault) must hand the managed indexes' bytes back to the tracker and drop
   the transaction's scratch state. [Txn.discard] is a no-op after the
   normal-path [Txn.finish], but on an exceptional exit it closes the
   scratch channel and removes the file. *)
let release_run r =
  List.iter Aggregate.release r.aggregates;
  Txn.discard r.txn;
  Option.iter Index_manager.release_all r.index_manager

let count r name n = match r.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

(* Under per-query transactions every query's output pages are written
   back at its boundary (and get rewritten by later transactions touching
   the same tables); under EOST nothing is dirty until the end, when only
   the final tables are written once. *)
let query_boundary r bytes =
  if not r.options.eost then begin
    Txn.note_dirty r.txn bytes;
    Txn.query_boundary r.txn
  end

(* A per-iteration temporary goes once consumed, unless the run hoards
   memory. *)
let release_temp r rel = if not r.options.hoard_memory then Relation.release rel

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
let prov_scan_cost = 2e-9
let prov_tag_cost = 16e-9

let prov_record r ~pred ~stratum ~iteration ?(lo = 0) ?hi rel =
  match r.options.provenance with
  | None -> ()
  | Some p ->
      let hi = Option.value hi ~default:(Relation.nrows rel) in
      let n = hi - lo in
      if n > 0 then begin
        let before = Provenance.recorded p in
        Provenance.record_relation p ~pred ~stratum ~iteration ~lo ~hi rel;
        let tagged = Provenance.recorded p - before in
        Pool.add_serial r.pool
          ((float_of_int n *. prov_scan_cost) +. (float_of_int tagged *. prov_tag_cost));
        count r "provenance.recorded" tagged
      end

(* --- inputs, statistics and queries --- *)

let register_inputs r =
  let an = r.an in
  List.iter
    (fun name ->
      match List.assoc_opt name r.edb with
      | Some rel ->
          if Relation.arity rel <> Analyzer.arity an name then
            raise
              (Analyzer.Analysis_error
                 (Printf.sprintf "input %s has arity %d, program expects %d" name
                    (Relation.arity rel) (Analyzer.arity an name)));
          Relation.account rel;
          Catalog.register r.catalog name rel
      | None -> raise (Analyzer.Analysis_error (Printf.sprintf "missing input relation %s" name)))
    an.Analyzer.edbs;
  (* Empty IDB tables; each one's Δ is a row range of it. *)
  List.iter
    (fun name -> Catalog.register r.catalog name (Relation.create ~name (Analyzer.arity an name)))
    an.Analyzer.idbs;
  (* Initial statistics are always collected once at load time. *)
  List.iter (fun n -> Catalog.analyze_rows r.catalog n) (Catalog.names r.catalog)

let analyze_updated r name =
  match r.options.oof with
  | Oof_off -> ()
  | Oof_normal -> Catalog.analyze_rows r.catalog name
  | Oof_full -> Catalog.analyze_full r.catalog r.pool name

let issue r plan =
  r.queries <- r.queries + 1;
  let rel = Executor.run_query r.exec plan in
  query_boundary r (Relation.row_bytes rel);
  rel

(* The dedup table is pre-allocated from the optimizer's cardinality
   estimate (paper §5.1: "the size of the hash table needs to be
   estimated in order to pre-allocate memory") — with stale statistics
   (OOF-NA) the estimate degrades and the table pays for rehashing. For
   a delta join the estimate is max(|Δ|, |build side|), which can be
   thousands of times the rows a round emits; [Dedup.create] clamps it
   at a ceiling of 2^14 entries, which bounds that overshoot, so the
   stale-statistics rehash acts only below the ceiling. *)
let dedup_expected r plans = max 16 (Executor.estimate r.exec (Plan.UnionAll plans))

(* The bag of a non-empty list of one IDB's plans: one UNION ALL query
   under UIE, else one query per subquery, materialized, then a merge
   query. *)
let eval_plans r plans =
  if r.options.uie then issue r (Plan.UnionAll plans)
  else begin
    let temps = List.map (issue r) plans in
    let merged = issue r (Plan.UnionAll (List.map (fun t -> Plan.Rel t) temps)) in
    List.iter (release_temp r) temps;
    merged
  end

let replace_table r name rel =
  Catalog.drop r.catalog name;
  Catalog.register r.catalog name rel

(* --- compiling a stratum --- *)

(* Compile an IDB's delta plans (grouped by rule) into fused kernels —
   all-or-nothing: a rule set evaluates either entirely through kernels or
   entirely through the interpreter, so the two paths never interleave
   within one IDB and results stay bit-for-bit comparable. The cost gate
   screens out rules that can never win (cold strata, aggregates, wide
   heads) before any plan is inspected. *)
let compile_kernels r ~arity ~agg ~recursive rule_deltas =
  let n_rules = List.length rule_deltas in
  if (not r.options.compiled_kernels) || n_rules = 0 then None
  else
    let ks =
      match Cost.kernel_gate ~recursive ~has_agg:(agg <> None) ~head_arity:arity with
      | Error _reason -> None
      | Ok () ->
          let rec go acc = function
            | [] -> Some (List.rev acc)
            | (_, plan) :: rest -> (
                match Kernel.compile r.exec plan with
                | Ok k -> go (k :: acc) rest
                | Error _reason -> None)
          in
          go [] (List.concat rule_deltas)
    in
    (* every counter is recorded, at 0 if need be, so a fully compiled (or
       fully refused) run still reports the others, and a clean run
       reports its degraded executions as 0 rather than not at all *)
    let compiled = match ks with Some _ -> n_rules | None -> 0 in
    count r "kernel.compiled_rules" compiled;
    count r "kernel.fallback_rules" (n_rules - compiled);
    count r "kernel.fallbacks" 0;
    ks

let compile_idb r (stratum : Analyzer.stratum) name =
  let rules = List.filter (fun ru -> ru.Ast.head_pred = name) stratum.rules in
  let arity = Analyzer.arity r.an name in
  let compiled = List.map (Planner.compile_rule r.an stratum) rules in
  let agg = Option.map (Aggregate.create ~arity ~edb:r.edb) (Analyzer.agg_sig r.an name) in
  Option.iter (fun ag -> r.aggregates <- ag :: r.aggregates) agg;
  let facts = List.filter_map (function Planner.Fact t -> Some t | Planner.Query _ -> None) compiled in
  let base =
    List.filter_map
      (function Planner.Query { base; deltas = [] } -> Some base | _ -> None)
      compiled
  in
  let rule_deltas =
    List.filter_map
      (function Planner.Query { deltas = _ :: _ as deltas; _ } -> Some deltas | _ -> None)
      compiled
  in
  { name; arity; facts; base; deltas = List.concat rule_deltas; agg;
    kernels = compile_kernels r ~arity ~agg ~recursive:stratum.recursive rule_deltas; mu_prev = None }

let compile_stratum r (stratum : Analyzer.stratum) =
  let idbs = List.map (compile_idb r stratum) stratum.preds in
  { index = stratum.index; recursive = stratum.recursive; idbs }

(* --- absorbing a round's output --- *)

(* The rows of [name]'s table the round reads: where its Δ ends. *)
let round_start r name =
  let _, _, n = Catalog.read r.catalog name Catalog.Full in
  n

let r_set_keys arity = Array.init arity Fun.id

(* After a kernel round's Δ is absorbed, R's managed set (which the
   kernels claimed the Δ into) covers R again. *)
let cover_r_set r st =
  Option.iter
    (fun m ->
      Index_manager.cover_set m ~name:st.name (Catalog.rel r.catalog st.name) (r_set_keys st.arity))
    r.index_manager

(* The DSD decision for one absorb, on the stats and trace. *)
let note_choice r st choice ~r_rows ~rdelta_rows =
  Hashtbl.replace r.dsd_hist choice (1 + Option.value ~default:0 (Hashtbl.find_opt r.dsd_hist choice));
  match r.trace with
  | Some tr ->
      (* OPSD/TPSD decision with the cost-model inputs that drove it *)
      Rs_obs.Trace.event tr ~kind:"dsd"
        (match choice with Cost.Opsd -> "opsd" | Cost.Tpsd -> "tpsd")
        (("r_rows", float_of_int r_rows)
        :: ("rdelta_rows", float_of_int rdelta_rows)
        :: ("alpha", Cost.default_alpha)
        :: (match st.mu_prev with Some m -> [ ("mu_prev", m) ] | None -> []))
  | None -> ()

(* Make the rows a non-aggregated IDB's table gained this round its Δ;
   returns |Δ|. Nothing is copied: the range moves over the rows the
   kernels or a set difference appended past the round-start rows, and R's
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
   - a Jacobi round evaluates every IDB before it absorbs any, and every
     kernel of a round is resolved before any writes, so a degraded
     kernel finds its table still at [hi].
   Aggregated IDBs rebuild their table every round and keep their Δ in
   the changed-groups relation, so the planner never reads their old
   rows. [Catalog.set_delta] refuses a range outside its relation. *)
let absorb_range r ~stratum ~iteration st ~claimed ~lo =
  let rel = Catalog.rel r.catalog st.name in
  let hi = Relation.nrows rel in
  st.mu_prev <- Some (Cost.observed_mu ~rdelta_rows:claimed ~intersection_rows:(claimed - (hi - lo)));
  Relation.account rel;
  query_boundary r (8 * st.arity * (hi - lo));
  prov_record r ~pred:st.name ~stratum ~iteration ~lo ~hi rel;
  Catalog.set_delta r.catalog st.name ~lo ~hi ();
  hi - lo

(* An empty Δ at the end of its table. For an aggregated IDB this
   releases the changed-groups relation the Δ lay in. *)
let drain_delta r name =
  let n = round_start r name in
  Catalog.set_delta r.catalog name ~lo:n ~hi:n ()

(* Absorb the deduplicated candidates [rdelta] of one IDB; returns |Δ|. *)
let absorb_candidates r ~stratum ~iteration st rdelta =
  match st.agg with
  | Some ag ->
      let delta = Aggregate.absorb r.pool ag ~name:st.name rdelta in
      (* Tag the changed groups with their current merged value: the tuple
         a group holds in the final relation is exactly the one recorded
         at its last improvement, so every surviving aggregate row carries
         a tag (superseded values keep stale tags that no live row ever
         looks up). *)
      prov_record r ~pred:st.name ~stratum ~iteration delta;
      (* The previous changed groups go before R is rebuilt. R is the
         finalized view of the state, and its Δ lies in the changed
         groups. *)
      drain_delta r st.name;
      replace_table r st.name (Aggregate.to_relation r.pool ag ~name:st.name);
      Catalog.set_delta r.catalog st.name ~src:delta ~lo:0 ~hi:(Relation.nrows delta) ();
      Relation.nrows delta
  | None ->
      let rel = Catalog.rel r.catalog st.name in
      let r_rows = Catalog.stat_rows r.catalog st.name in
      let rdelta_rows = Relation.nrows rdelta in
      let choice =
        match r.options.dsd with
        | Dsd_force_opsd -> Cost.Opsd
        | Dsd_force_tpsd -> Cost.Tpsd
        | Dsd_dynamic ->
            Cost.choose ~alpha:Cost.default_alpha ~r_index_persists:(r.index_manager <> None) ~r_rows
              ~rdelta_rows ~mu_prev:st.mu_prev
      in
      note_choice r st choice ~r_rows ~rdelta_rows;
      let delta =
        match choice with
        | Cost.Opsd -> Executor.opsd r.exec ~name:st.name ~rdelta ~r:rel ()
        | Cost.Tpsd -> Executor.tpsd r.exec ~name:st.name ~rdelta ~r:rel ()
      in
      (* the interpreted path's Δ, fresh from a set difference: appended
         to R once, then released, as R's rows hold it *)
      let lo = round_start r st.name in
      Relation.append_all rel delta;
      Relation.release delta;
      absorb_range r ~stratum ~iteration st ~claimed:rdelta_rows ~lo

(* Deduplicate an IDB's candidate [bag] and absorb what is left; returns
   |Δ|. *)
let dedup_absorb r ~stratum ~iteration st ~expected bag =
  let rdelta =
    Dedup.dedup_relation_parallel ~expected ?trace:r.trace ~pool:r.pool r.dedup_mode bag
  in
  release_temp r bag;
  let d = absorb_candidates r ~stratum ~iteration st rdelta in
  release_temp r rdelta;
  d

(* --- the rounds --- *)

(* Iteration 0 of one IDB: its facts and its delta-free rules' bag,
   deduplicated and absorbed; returns |Δ|. *)
let iteration0 r (s : stratum) st =
  let candidates = Relation.create ~name:(st.name ^ "@cand") st.arity in
  List.iter (Relation.push_row candidates) st.facts;
  if st.base <> [] then begin
    let rt = eval_plans r st.base in
    Relation.append_all candidates rt;
    release_temp r rt
  end;
  Relation.account candidates;
  let expected = if st.base = [] then Relation.nrows candidates else dedup_expected r st.base in
  let d = dedup_absorb r ~stratum:s.index ~iteration:0 st ~expected candidates in
  analyze_updated r st.name;
  d

let base_round r s =
  let deltas = List.map (fun st -> (st, iteration0 r s st)) s.idbs in
  List.iter (fun (st, d) -> Fixpoint.note r.fx ~stratum:s.index ~iteration:0 st.name d) deltas;
  List.exists (fun (_, d) -> d > 0) deltas

(* Kernel-path evaluation of one IDB's live delta plans: matches stream
   straight through one two-table claim — FAST-DEDUP, then R's
   membership set — into R itself, past its round-start rows: no query
   issued, no intermediate bag, no separate set difference and no second
   copy of the Δ. The set is R's full-column set, the one OPSD's
   [full_table_set] probes, so R has one persistent membership set
   whichever path produced its Δ. It is claimed for writing before the
   dedup table is made, so an index fault raises before any allocation
   or write; the kernels add every tuple they append to R to it, and the
   absorb then only records that it covers R's new rows ([cover_set]).

   A round runs in three phases ([delta_round]): every IDB is staged
   (its kernels resolved, or its plans evaluated interpreted), then every
   staged kernel of every IDB runs in one pool batch, then each IDB is
   finished and absorbed. A [staged] IDB holds what its kernels need
   until the batch is over: R's set ([owned] when transient), the dedup
   table and the resolved kernels, in delta-plan order. *)
type staged = {
  rel : Relation.t;
  r_set : Dedup.t;
  owned : bool;
  dd : Dedup.t;
  ks : Kernel.resolved list;
}

let release_staged sg =
  List.iter Kernel.release sg.ks;
  Dedup.release sg.dd;
  if sg.owned then Dedup.release sg.r_set

(* Stage one IDB's live kernels [ks]; on any exception, what was acquired
   is released before it propagates. A chaos-degraded kernel raises
   [Kernel.Degraded] from its resolve, before any acquisition — and, as
   every resolve of the round precedes the batch, before any kernel of
   the round has written: R still holds its round-start rows and R's set
   covers exactly them, so the interpreted fallback needs no repair. *)
let stage_kernels r st plans ks =
  let rel = Catalog.rel r.catalog st.name in
  let r_set, owned = Executor.claim_set r.exec ~scan_name:st.name rel (r_set_keys st.arity) in
  let dd =
    match Dedup.create ~expected:(dedup_expected r plans) r.dedup_mode st.arity with
    | dd -> dd
    | exception e ->
        if owned then Dedup.release r_set;
        raise e
  in
  let rec resolve acc = function
    | [] -> { rel; r_set; owned; dd; ks = List.rev acc }
    | k :: rest -> (
        match Kernel.resolve r.exec k ~dedup:dd ~r_set ~head:rel with
        | rk -> resolve (rk :: acc) rest
        | exception e ->
            release_staged { rel; r_set; owned; dd; ks = acc };
            raise e)
  in
  resolve [] ks

(* What one IDB's round holds between its staging and its finish. *)
type prepared =
  | Evaluated of eval_result  (* nothing left to run *)
  | Staged of staged  (* kernels to run in the round's batch *)

(* One IDB's live delta plans, against the previous round's Δs: staged
   kernels, or the interpreted bag. Empty-delta skip: a subplan scanning
   a Δ that went empty cannot derive anything, so it is never issued — a
   stratum whose deltas all drain terminates without evaluating the
   remaining rule subplans. The kernel path honors the same skip (its
   kernels are aligned 1:1 with the delta plans). *)
let prepare r st =
  let is_live (dpred, _) = Catalog.delta_rows r.catalog dpred > 0 in
  let plans = List.map snd (List.filter is_live st.deltas) in
  if plans = [] then Evaluated Ev_none
  else
    let interpreted () = Evaluated (Ev_raw { bag = eval_plans r plans; plans }) in
    match st.kernels with
    | Some ks -> (
        let live_ks =
          List.filter_map
            (fun (dp, k) -> if is_live dp then Some k else None)
            (List.combine st.deltas ks)
        in
        match stage_kernels r st plans live_ks with
        | sg -> Staged sg
        | exception Kernel.Degraded _ ->
            count r "kernel.fallbacks" 1;
            interpreted ())
    | None -> interpreted ()

(* What an IDB's round held, given up when the round raises. The batch
   may have claimed rows into R's managed set that the failed run never
   absorbs, so that set is dropped rather than left half-filled in a
   manager that can outlive the run ([shared_indexes]); R itself goes
   with the run. *)
let abandon r st = function
  | Staged sg ->
      release_staged sg;
      if not sg.owned then
        Option.iter
          (fun m -> Index_manager.drop_set m ~name:st.name (r_set_keys st.arity))
          r.index_manager
  | Evaluated (Ev_raw { bag; _ }) -> release_temp r bag
  | Evaluated (Ev_none | Ev_delta _) -> ()

(* After the batch: a staged IDB's counters, and its output written back
   at its boundary under per-query transactions, as [issue] does for a
   query. Its Δ is already in R. *)
let finish r st = function
  | Evaluated result -> result
  | Staged sg ->
      let claimed = List.fold_left (fun n rk -> n + Kernel.finish rk) 0 sg.ks in
      query_boundary r (8 * st.arity * (Relation.nrows sg.rel - round_start r st.name));
      Ev_delta { claimed }

(* Absorb what one IDB produced in round [iteration] and note its Δ;
   returns |Δ|. *)
let absorb r (s : stratum) ~iteration st result =
  let note d =
    Fixpoint.note r.fx ~stratum:s.index ~iteration st.name d;
    d
  in
  let absorbed d =
    analyze_updated r st.name;
    note d
  in
  match result with
  | Ev_none ->
      (* Every subplan was skipped, but this IDB's own Δ may still hold the
         previous round's rows; drain it so mutually recursive consumers
         don't re-read it next round. *)
      drain_delta r st.name;
      note 0
  | Ev_raw { bag; plans } ->
      absorbed (dedup_absorb r ~stratum:s.index ~iteration st ~expected:(dedup_expected r plans) bag)
  | Ev_delta { claimed } ->
      (* kernel output is already the Δ, in R: no dedup pass and no set
         difference. The kernel ran OPSD's probe of R's set inside its
         claims, so the absorb records an OPSD choice. *)
      note_choice r st Cost.Opsd ~r_rows:(Catalog.stat_rows r.catalog st.name) ~rdelta_rows:claimed;
      let d = absorb_range r ~stratum:s.index ~iteration st ~claimed ~lo:(round_start r st.name) in
      cover_r_set r st;
      absorbed d

(* Jacobi rounds: evaluate every IDB's queries against the previous
   iteration's Δs FIRST, then absorb. Absorbing one IDB before evaluating
   the next would move a Δ that mutually recursive rules of later IDBs
   still need to consume; kernels append to their table during the
   evaluation, but every read ends at the round-start rows.

   Every IDB is staged first, so each kernel is resolved — its indexes
   acquired, its views fetched — before any kernel writes. Then every
   staged kernel of the round, across all rules and IDBs, runs in one
   pool batch (IDB, then kernel, then chunk: the rows each kernel
   appends, and their order, are those of one batch per kernel), with one
   barrier at its end instead of one per kernel — the UIE idea of
   scheduling all of an IDB's rules together, across IDBs. With UIE off
   each rule stays a unit of its own, as its interpreted subqueries are:
   every kernel's range is a batch of its own, after the same staging.
   Staging runs from the last IDB to the first, so the IDB whose kernels
   run first is the one staged last: its dedup table, its set and the
   indexes it extended are the most recently touched when the batch
   starts. Whatever the staging acquired is released before the finish,
   or on any exception: a worker crash in the batch unwinds the run
   ([abandon]). *)
let delta_round r s iteration =
  let staging = ref [] in
  let prepared =
    match
      List.iter (fun st -> staging := (st, prepare r st) :: !staging) (List.rev s.idbs);
      let prepared = !staging in
      let ranges =
        List.concat_map
          (function _, Staged sg -> List.map Kernel.range sg.ks | _, Evaluated _ -> [])
          prepared
      in
      if r.options.uie then Pool.batch r.pool ranges
      else List.iter (fun range -> Pool.batch r.pool [ range ]) ranges;
      prepared
    with
    | prepared ->
        List.iter (function _, Staged sg -> release_staged sg | _, Evaluated _ -> ()) prepared;
        prepared
    | exception e ->
        List.iter (fun (st, p) -> abandon r st p) !staging;
        raise e
  in
  let produced = List.map (fun (st, p) -> (st, finish r st p)) prepared in
  List.fold_left (fun any (st, result) -> absorb r s ~iteration st result > 0 || any) false produced

(* Empty every Δ at its table's end, so later strata read whole tables,
   and free the aggregate states, whose relations are final. *)
let finish_stratum r s =
  List.iter
    (fun st ->
      drain_delta r st.name;
      Option.iter Aggregate.release st.agg)
    s.idbs

let eval_stratum r stratum =
  let s = compile_stratum r stratum in
  Fixpoint.run r.fx ~recursive:s.recursive ~base:(fun () -> base_round r s) ~delta:(delta_round r s);
  finish_stratum r s

(* --- PBME --- *)

(* The bit-matrix domain of a TC/SG arc relation: one past its largest
   vertex, if it has rows and no negative vertex. *)
let pbme_domain e =
  let domain = ref 0 and ok = ref (Relation.nrows e > 0) in
  for row = 0 to Relation.nrows e - 1 do
    let x = Relation.get e ~row ~col:0 and y = Relation.get e ~row ~col:1 in
    if x < 0 || y < 0 then ok := false;
    domain := max !domain (1 + max x y)
  done;
  if !ok then Some !domain else None

(* PBME dispatch: a TC/SG-shaped stratum whose bit matrix fits in memory
   is solved by the bit-matrix kernels instead of the relational loop;
   returns whether it was. *)
let try_pbme r (stratum : Analyzer.stratum) =
  let shape = if r.options.pbme then Pattern.match_stratum r.an stratum else None in
  match shape with
  | None -> false
  | Some shape -> (
      let edb_name, idb_name =
        match shape with Pattern.Tc { edb; idb } | Pattern.Sg { edb; idb } -> (edb, idb)
      in
      let e = Catalog.rel r.catalog edb_name in
      let budget =
        match Rs_storage.Memtrack.budget () with
        | Some b -> b
        | None -> Rs_storage.Memtrack.machine_bytes ()
      in
      match pbme_domain e with
      | Some n
        when Rs_bitmatrix.Bitmatrix.required_bytes n + (16 * Relation.nrows e)
             < budget - Rs_storage.Memtrack.live () ->
          let m =
            match shape with
            | Pattern.Tc _ -> Rs_bitmatrix.Pbme.tc r.pool ~n ~arc:e
            | Pattern.Sg _ -> Rs_bitmatrix.Pbme.sg r.pool ~n ~arc:e
          in
          let rel = Rs_bitmatrix.Bitmatrix.to_relation ~name:idb_name m in
          Rs_bitmatrix.Bitmatrix.release m;
          (* The bit-matrix solve collapses the whole stratum, so the
             per-iteration timeline is gone: tag its output wholesale at
             iteration 0. Evaluation is identical with recording on or
             off — tags are a side table — so PBME stays enabled and the
             outputs remain byte-identical. *)
          prov_record r ~pred:idb_name ~stratum:stratum.index ~iteration:0 rel;
          replace_table r idb_name rel;
          query_boundary r (Relation.row_bytes rel);
          analyze_updated r idb_name;
          r.pbme_strata <- r.pbme_strata + 1;
          (* the solve is reported as a single iteration, so the timeline
             stays complete *)
          Fixpoint.count_iteration r.fx;
          count r "interpreter.pbme_strata" 1;
          Fixpoint.note r.fx ~stratum:stratum.index ~iteration:0 idb_name (Relation.nrows rel);
          true
      | _ -> false)

(* --- the run --- *)

(* Under EOST, one final write-back of the result tables. *)
let write_back r =
  if r.options.eost then
    List.iter
      (fun name -> Txn.note_dirty r.txn (Relation.row_bytes (Catalog.rel r.catalog name)))
      r.an.Analyzer.idbs;
  Txn.finish r.txn

(* [relation_of] keeps the catalog alive, not the run record: a caller
   that holds results holds no executor, index manager or transaction. *)
let result r program =
  let catalog = r.catalog in
  {
    outputs =
      List.map (fun n -> (n, Catalog.rel catalog n)) (Analyzer.output_names ~an:r.an program);
    relation_of = (fun n -> Catalog.rel catalog n);
    iterations = Fixpoint.iterations r.fx;
    queries = r.queries;
    pbme_strata = r.pbme_strata;
    io_bytes = Txn.bytes_written r.txn;
    dsd_choices = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.dsd_hist [];
  }

let run ?(options = default_options) ?on_iteration ~pool ~edb program =
  let an = Analyzer.analyze program in
  let r = create_run options ?on_iteration ~pool ~edb an in
  Fun.protect ~finally:(fun () -> release_run r) @@ fun () ->
  register_inputs r;
  List.iter
    (fun (stratum : Analyzer.stratum) ->
      Fixpoint.stratum r.fx stratum.index (fun () ->
          if not (try_pbme r stratum) then eval_stratum r stratum))
    an.Analyzer.strata;
  write_back r;
  result r program
