module Trace = Rs_obs.Trace
module Json = Rs_obs.Json
module Histogram = Rs_obs.Histogram
module Pool = Rs_parallel.Pool
module Memtrack = Rs_storage.Memtrack
module Engine_intf = Rs_engines.Engine_intf
module Engines = Rs_engines.Engines
module Relation = Rs_relation.Relation
module Ast = Recstep.Ast
module Interpreter = Recstep.Interpreter
module Ivm = Recstep.Ivm
module Provenance = Recstep.Provenance
module Explain = Recstep.Explain
module Delta = Rs_relation.Delta
module Fault = Rs_chaos.Fault

type submission = {
  sub_id : string;
  tenant : string;
  program : Ast.program;
  edb : string;
  at : float;
  deadline_vs : float option;
  mem : Admission.memclass;
  engine : string option;
}

let submission ?(id = "") ?(at = 0.0) ?deadline_vs ?(mem = Admission.Small) ?engine
    ~tenant ~edb program =
  { sub_id = id; tenant; program; edb; at; deadline_vs; mem; engine }

type explain_request = {
  ex_at : float;
  ex_tenant : string;
  ex_edb : string;
  ex_program : Ast.program;
  ex_pred : string;
  ex_row : int list;
}

type event =
  | Submit of submission
  | Delta of { at : float; edb : string; delta : Delta.t }
  | Explain of explain_request

let event_time = function Submit s -> s.at | Delta d -> d.at | Explain r -> r.ex_at

let delta_event ~at ~edb delta = Delta { at; edb; delta }

let explain_event ?(at = 0.0) ~tenant ~edb ~pred ~row program =
  Explain { ex_at = at; ex_tenant = tenant; ex_edb = edb; ex_program = program; ex_pred = pred; ex_row = row }

type outcome =
  | Done of Result_cache.value
  | Oom
  | Timeout
  | Unsupported of string
  | Fault of { cls : Fault.cls; point : string }
  | Rejected of Admission.reason

let outcome_label = function
  | Done _ -> "done"
  | Oom -> "oom"
  | Timeout -> "timeout"
  | Unsupported _ -> "unsupported"
  | Fault _ -> "fault"
  | Rejected _ -> "rejected"

type completion = {
  c_id : string;
  c_tenant : string;
  c_edb : string;
  c_at : float;
  c_started : float option;
  c_finished : float;
  c_outcome : outcome;
  c_cache_hit : bool;
  c_retries : int;
  c_degraded : string option;
      (* rung name when the final attempt ran below Retry.Full *)
}

type config = {
  workers : int;
  queue_capacity : int;
  mem_budget : int option;
  cache_bytes : int;
  cache_hit_cost_s : float;
  seed : int;
  retry : Retry.policy;
  ivm : bool;
  ivm_max_delta : int;
  kernels : bool;
  autoscale : Autoscale.policy option;
}

let config ?(workers = 8) ?(queue_capacity = 64) ?mem_budget
    ?(cache_bytes = 64 * 1024 * 1024) ?(cache_hit_cost_s = 1e-4) ?(seed = 1)
    ?(retry = Retry.default) ?(ivm = true) ?(ivm_max_delta = 512)
    ?(kernels = true) ?autoscale () =
  {
    workers;
    queue_capacity;
    mem_budget;
    cache_bytes;
    cache_hit_cost_s;
    seed;
    retry;
    ivm;
    ivm_max_delta;
    kernels;
    autoscale;
  }

type latency_note = {
  ln_query : string;
  ln_outcome : string;
  ln_latency : float;
  ln_spans : (string * float) list;
}

type explanation = {
  x_at : float;
  x_tenant : string;
  x_edb : string;
  x_fact : string;
  x_status : string;
  x_rules : int list;
  x_depth : int;
  x_from_view : bool;
  x_text : string;
  x_latency : latency_note option;
}

type report = {
  completions : completion list;
  explanations : explanation list;
  counters : (string * int) list;
  cache : Result_cache.stats;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  p999_latency : float;
  served_degraded : int;
  throughput : float;
  vtime : float;
  trace : Trace.t;
}

let counter_names =
  [
    "submitted"; "admitted"; "rejected"; "done"; "oom"; "timeout"; "unsupported";
    "fault"; "cache_hit"; "cache_miss"; "retried"; "degraded"; "deadline_miss";
    "delta_applied"; "delta_noop"; "delta_fault"; "refreshed"; "view_built";
    "view_seeded"; "view_dropped"; "explain"; "autoscale.evals"; "autoscale.up";
    "autoscale.down"; "autoscale.cache_up"; "autoscale.cache_down";
  ]

(* A maintained view: the incremental twin of one (edb, canonical program)
   cache-entry family. [v_edbs] is the program's own input set — a store
   delta is filtered to it before Ivm.apply, so deltas touching relations
   the program never reads refresh its entries for free. *)
type view = { v_ivm : Ivm.t; v_edbs : string list; v_outputs : string list }

let view_value v = List.map (fun n -> (n, List.map Array.of_list (Ivm.rows v.v_ivm n))) v.v_outputs

(* --- the service state and the per-query record -------------------------- *)

(* Everything one {!run} owns. [clock] is the service's virtual clock. While
   an engine attempt runs, [attempt_base] holds the attempt's start on that
   clock and the trace reads [base + pool vtime], so engine spans and pool
   batches land in place on the service timeline. *)
type state = {
  config : config;
  store : Edb_store.t;
  pool : Pool.t;
  clock : float ref;
  attempt_base : float option ref;
  trace : Trace.t;
  cache : Result_cache.t;
  scaler : Autoscale.t option;  (* owns the base worker count when set *)
  db_indexes : (string, Rs_exec.Index_manager.t) Hashtbl.t;
  views : (string * string, view) Hashtbl.t;  (* by (database, canonical program) *)
  sched : submission Scheduler.t;
  mutable pending : event list;  (* not yet due, in time order *)
  mutable completions : completion list;  (* newest first *)
  mutable explanations : explanation list;  (* newest first *)
}

(* One dispatched query. The stages fill in the mutable half; [cost] sums
   the simulated seconds they charged, and the clock reads
   [started +. cost]. *)
type query = {
  sub : submission;
  started : float;
  canonical : string;  (* verified on lookup: a hash collision never serves foreign rows *)
  key : Result_cache.key;
  budget : float option;  (* deadline left at dispatch, after the queue wait *)
  mutable outcome : outcome;  (* stays [Timeout] if the deadline expired in the queue *)
  mutable cost : float;
  mutable cache_hit : bool;
  mutable retries : int;
  mutable rung : Retry.rung;  (* of the final attempt *)
}

let bump st name n =
  if not (List.mem name counter_names) then invalid_arg ("Service: undeclared counter " ^ name);
  Trace.count st.trace ("service." ^ name) n

let base_workers st =
  match st.scaler with Some s -> Autoscale.workers s | None -> st.config.workers

(* Runs [f] under the memory budget [b] and restores the caller's budget on
   every exit. Deltas and cold explains are operator actions: they run with
   [None], off the query budget. *)
let with_budget b f =
  let saved = Memtrack.budget () in
  Memtrack.set_budget b;
  Fun.protect ~finally:(fun () -> Memtrack.set_budget saved) f

(* Records one disposition, finished now. *)
let complete st sub ?started ?(cache_hit = false) ?(retries = 0) ?degraded outcome =
  let c_finished = !(st.clock) in
  st.completions <-
    { c_id = sub.sub_id; c_tenant = sub.tenant; c_edb = sub.edb; c_at = sub.at;
      c_started = started; c_finished; c_outcome = outcome; c_cache_hit = cache_hit;
      c_retries = retries; c_degraded = degraded }
    :: st.completions

let create config store events =
  let pool = Pool.create ~workers:config.workers () in
  let clock = ref 0.0 and attempt_base = ref None in
  let now () = match !attempt_base with Some b -> b +. Pool.vtime_now pool | None -> !clock in
  let trace = Trace.create ~now () in
  let cache = Result_cache.create ~budget_bytes:config.cache_bytes in
  let scale p = Autoscale.create p ~workers:config.workers ~cache_bytes:config.cache_bytes in
  let scaler = Option.map scale config.autoscale in
  (* Store-lifetime persistent join indexes, one manager per database:
     shared across every interpreter run on that database and kept live
     across its deltas by the store's rebase/invalidate commit hook. A
     manager keys indexes by relation name, so one manager for the whole
     store would let a delta on one database rebase another database's
     index of the same name and serve its rows. *)
  let db_indexes = Hashtbl.create 8 in
  List.iter
    (fun db ->
      let names = List.map fst (Edb_store.lookup store db) in
      let im = Rs_exec.Index_manager.create ~trace ~persistent:(fun n -> List.mem n names) pool in
      Edb_store.attach_index_manager store db im;
      Hashtbl.replace db_indexes db im)
    (Edb_store.names store);
  (* auto ids in event order, before time-sorting *)
  let next_id = ref 0 in
  let name = function
    | Submit s when s.sub_id = "" ->
        incr next_id;
        Submit { s with sub_id = Printf.sprintf "q%d" !next_id }
    | e -> e
  in
  let events = List.map name events in
  {
    config; store; pool; clock; attempt_base; trace; cache; scaler; db_indexes;
    views = Hashtbl.create 16;
    sched = Scheduler.create ~seed:config.seed;
    pending = List.stable_sort (fun a b -> compare (event_time a) (event_time b)) events;
    completions = [];
    explanations = [];
  }

(* --- stages ---------------------------------------------------------------
   Each stage returns the simulated seconds it charged and the caller
   advances the clock by them, so a served query's latency is its queue
   wait plus the sum of its stages' charges. *)

(* Admission: EDB existence, queue bound, memory headroom. *)
let admit st sub =
  bump st "submitted" 1;
  let decision =
    if not (Edb_store.mem st.store sub.edb) then
      Admission.Reject (Admission.Unknown_edb sub.edb)
    else
      Admission.decide ~queue_len:(Scheduler.length st.sched)
        ~queue_capacity:st.config.queue_capacity ~mem:sub.mem ~budget:st.config.mem_budget
        ~live:(Memtrack.live ())
  in
  (match decision with
  | Admission.Admit ->
      bump st "admitted" 1;
      Scheduler.push st.sched ~tenant:sub.tenant sub
  | Admission.Reject reason ->
      bump st "rejected" 1;
      complete st sub (Rejected reason));
  0.0

(* Warm path of a committed delta: fold the net change into every view of
   [edb], then re-key its cache entries to [version]; returns how many were
   refreshed. A view whose maintenance raises — Ivm.Unsupported from a
   program the support check mispredicted, a count underflow, an arity
   clash — degrades to invalidation of that one view, never surfaces to the
   tenant: the store commit already happened, and the refresher recomputes
   anything the dropped view can no longer answer. *)
let refresh_views st ~edb ~version net =
  let doomed =
    Hashtbl.fold
      (fun (e, c) v acc ->
        if e <> edb then acc
        else
          let mine = List.filter (fun (rl, _) -> List.mem rl v.v_edbs) net in
          match Ivm.apply v.v_ivm mine with _ -> acc | exception _ -> (e, c) :: acc)
      st.views []
  in
  List.iter
    (fun key ->
      Hashtbl.remove st.views key;
      bump st "view_dropped" 1;
      Trace.event st.trace ~kind:"service" "view_maintenance_failed" [])
    doomed;
  let refreshed =
    Result_cache.refresh_edb st.cache edb ~version (fun ~canonical ->
        Option.map view_value (Hashtbl.find_opt st.views (edb, canonical)))
  in
  bump st "refreshed" refreshed;
  ("refreshed", refreshed)

(* Cold path: the delta is too large for incremental refresh to pay off (or
   maintenance is off). Views and entries of [edb] are dropped; queries
   recompute against the new version. *)
let invalidate_views st ~edb =
  let doomed =
    Hashtbl.fold (fun (e, c) _ acc -> if e = edb then (e, c) :: acc else acc) st.views []
  in
  List.iter (Hashtbl.remove st.views) doomed;
  bump st "view_dropped" (List.length doomed);
  ("invalidated", Result_cache.invalidate_edb st.cache edb)

(* Apply delta: commit to the store, then refresh or invalidate. *)
let apply_delta st ~edb delta =
  let applied =
    with_budget None (fun () ->
        match Edb_store.apply st.store edb delta with
        | r -> Ok r
        | exception Fault.Injected { cls; _ } -> Error cls
        | exception Memtrack.Simulated_oom _ ->
            (* a chaos Mem probe tripped while accounting the staged
               relations; the store released them and rolled back *)
            Error Fault.Mem)
  in
  (match applied with
  | Error cls ->
      (* the store rolled back atomically: version, cache and views all
         still agree on the pre-delta state *)
      bump st "delta_fault" 1;
      Trace.event st.trace ~kind:"service" "edb_delta_fault"
        [ ("cls", float_of_int (Fault.cls_index cls)) ]
  | Ok (_, net) when Delta.is_empty net ->
      (* insert-of-present / retract-of-absent: no version bump, every
         cached result is still exact *)
      bump st "delta_noop" 1
  | Ok (version, net) ->
      bump st "delta_applied" 1;
      let what, n =
        if st.config.ivm && Delta.size net <= st.config.ivm_max_delta then
          refresh_views st ~edb ~version net
        else invalidate_views st ~edb
      in
      Trace.event st.trace ~kind:"service" "edb_delta"
        [ ("ops", float_of_int (Delta.size net)); (what, float_of_int n) ]);
  0.0

(* Join the derivation answer with the serving timeline: the tenant's latest
   dispatched query on this database, its end-to-end latency, and the
   slowest spans nested under its service span — "why is this fact here"
   and "where did the time go" in one report entry. *)
let latency_note st (r : explain_request) =
  List.find_opt
    (fun c -> c.c_tenant = r.ex_tenant && c.c_edb = r.ex_edb && c.c_started <> None)
    st.completions
  |> Option.map (fun c ->
         let name = c.c_tenant ^ "/" ^ c.c_id in
         (* the spans after the query's own (its last, should the name
            repeat), up to the next one no deeper than it *)
         let rec last_own found = function
           | [] -> found
           | (s : Trace.span) :: rest ->
               last_own
                 (if s.sp_kind = "service" && s.sp_name = name then Some (s, rest) else found)
                 rest
         in
         let rec nested depth = function
           | (s : Trace.span) :: rest when s.sp_depth > depth ->
               let dur = match s.sp_stop with Some e -> e -. s.sp_start | None -> 0.0 in
               (s.sp_kind ^ ":" ^ s.sp_name, dur) :: nested depth rest
           | _ -> []
         in
         let children =
           match last_own None (Trace.spans st.trace) with
           | None -> []
           | Some (me, rest) -> List.rev (nested me.sp_depth rest)
         in
         {
           ln_query = c.c_id;
           ln_outcome = outcome_label c.c_outcome;
           ln_latency = c.c_finished -. c.c_at;
           ln_spans =
             List.filteri
               (fun i _ -> i < 3)
               (List.sort (fun (_, a) (_, b) -> compare (b : float) a) children);
         })

(* The database an explain request searches: the maintained view's rows and
   tag store when one exists (kept current across deltas by Ivm.apply),
   otherwise one provenance-enabled evaluation against the current store
   version. *)
let explain_source st (r : explain_request) =
  match Hashtbl.find_opt st.views (r.ex_edb, Program_key.canonical r.ex_program) with
  | Some v -> Ok (Ivm.analyzer v.v_ivm, Ivm.rows v.v_ivm, Ivm.provenance v.v_ivm, true)
  | None when not (Edb_store.mem st.store r.ex_edb) ->
      Error (Printf.sprintf "unknown EDB %S" r.ex_edb)
  | None ->
      let prov = Provenance.create () in
      with_budget None (fun () ->
          Pool.begin_run st.pool;
          let options = Interpreter.options ~provenance:prov () in
          match
            Interpreter.run ~options ~pool:st.pool ~edb:(Edb_store.lookup st.store r.ex_edb)
              r.ex_program
          with
          | result ->
              let rows p =
                List.map Array.to_list
                  (Relation.sorted_distinct_rows (result.Interpreter.relation_of p))
              in
              Ok (Recstep.Analyzer.analyze r.ex_program, rows, Some prov, false)
          | exception Recstep.Analyzer.Analysis_error m -> Error ("analysis error: " ^ m))

(* Explain: answer one "why is this fact here?" request. *)
let explain st (r : explain_request) =
  bump st "explain" 1;
  let status, rules, depth, from_view, text =
    match explain_source st r with
    | Error m -> ("error", [], 0, false, m)
    | Ok (an, rows, prov, from_view) -> (
        let failed status o =
          (status, [], 0, from_view, Explain.outcome_to_string ~pred:r.ex_pred ~row:r.ex_row o)
        in
        match Explain.explain ?prov ~an ~rows r.ex_pred r.ex_row with
        | Explain.Explained n ->
            let rules = Explain.rules_used n and text = Explain.render ?tags:prov n in
            ("explained", rules, Explain.depth n, from_view, text)
        | Explain.Absent as o -> failed "absent" o
        | Explain.No_proof as o -> failed "no_proof" o
        | Explain.Budget_exceeded _ as o -> failed "budget" o
        | exception exn -> ("error", [], 0, from_view, Printexc.to_string exn))
  in
  let x_fact = Explain.fact_to_string r.ex_pred r.ex_row and x_latency = latency_note st r in
  st.explanations <-
    { x_at = !(st.clock); x_tenant = r.ex_tenant; x_edb = r.ex_edb; x_fact; x_status = status;
      x_rules = rules; x_depth = depth; x_from_view = from_view; x_text = text; x_latency }
    :: st.explanations;
  0.0

(* Dispatch: open the query's service span and key it for the cache. *)
let start st sub =
  let started = !(st.clock) in
  Trace.begin_span st.trace ~kind:"service" (sub.tenant ^ "/" ^ sub.sub_id);
  let canonical = Program_key.canonical sub.program in
  let key =
    {
      Result_cache.program = Program_key.hash_of_canonical canonical;
      edb = sub.edb;
      edb_version = Edb_store.version st.store sub.edb;
    }
  in
  let budget = Option.map (fun d -> d -. (started -. sub.at)) sub.deadline_vs in
  { sub; started; canonical; key; budget; outcome = Timeout; cost = 0.0; cache_hit = false;
    retries = 0; rung = Retry.Full }

(* Cache lookup: a hit settles the query at the configured hit cost. *)
let lookup st q =
  match Result_cache.find st.cache q.key ~canonical:q.canonical with
  | Some v ->
      bump st "cache_hit" 1;
      q.cache_hit <- true;
      q.outcome <- Done v;
      st.config.cache_hit_cost_s
  | None ->
      bump st "cache_miss" 1;
      0.0

(* One engine attempt under the rung's knobs, starting at [base] on the
   service clock; returns the engine outcome and its simulated makespan. *)
let run_attempt st sub rels (knobs : Retry.knobs) deadline_left base =
  Pool.set_workers st.pool knobs.Retry.k_workers;
  Pool.begin_run st.pool;
  st.attempt_base := Some base;
  let trace = st.trace and pool = st.pool in
  let res =
    try
      match sub.engine with
      | None ->
          (* Default path: drive the RecStep interpreter directly, so the
             ladder's lower rungs can turn engine structures off. At
             {!Retry.Full} the options equal Engines.recstep's. *)
          Engine_intf.guard (fun () ->
              let options =
                Interpreter.options ?timeout_vs:deadline_left ~trace
                  ~persistent_indexes:knobs.Retry.k_persistent_indexes
                  ~shared_indexes:(Hashtbl.find st.db_indexes sub.edb)
                  ~pbme:knobs.Retry.k_fast_path ~fast_dedup:knobs.Retry.k_fast_path
                  ~compiled_kernels:(st.config.kernels && knobs.Retry.k_fast_path) ()
              in
              let r = Interpreter.run ~options ~pool ~edb:rels sub.program in
              Engine_intf.mk_result ~pool ~trace ~iterations:r.Interpreter.iterations
                ~queries:r.Interpreter.queries r.Interpreter.relation_of)
      | Some name -> (
          match Engines.by_name name with
          | None -> Engine_intf.Unsupported (Printf.sprintf "unknown engine %S" name)
          | Some e ->
              (* named baseline engines have no knob surface; the ladder
                 degrades them through the pool's worker count only *)
              Engine_intf.run_guarded e ~pool ?deadline_vs:deadline_left ~trace ~edb:rels
                sub.program)
    with Recstep.Analyzer.Analysis_error m -> Engine_intf.Unsupported ("analysis error: " ^ m)
  in
  st.attempt_base := None;
  List.iter
    (fun (e : Pool.event) ->
      Trace.add_batch trace ~start:(base +. e.Pool.ev_vstart) ~len:e.Pool.ev_vlen
        ~busy:e.Pool.ev_busy)
    (Pool.events pool);
  (res, (Pool.stats pool).Pool.vtime)

(* The retry ladder around [run_attempt]: walks [config.retry] down from
   {!Retry.Full} and records the retries and the final rung on [q]. Returns
   the last attempt's outcome and the simulated seconds since dispatch,
   backoffs included. *)
let ladder st q rels =
  let indexes = Hashtbl.find st.db_indexes q.sub.edb in
  let mem_before = Memtrack.live () in
  let shared_before = Rs_exec.Index_manager.bytes indexes in
  let left_after elapsed = Option.map (fun d -> d -. elapsed) q.budget in
  let finish res elapsed retries rung =
    q.retries <- retries;
    q.rung <- rung;
    (res, elapsed)
  in
  (* [attempt] is 1-based; [elapsed] counts from [q.started] *)
  let rec go rung attempt elapsed =
    let res, cost =
      run_attempt st q.sub rels
        (Retry.knobs ~workers:(base_workers st) rung)
        (left_after elapsed) (q.started +. elapsed)
    in
    (* every exit path — success or any fault class — restores the tracker
       to the pre-query baseline immediately, so a retry never runs with the
       failed attempt's leak still counted against its headroom; bytes the
       shared index manager deliberately grew by are not a leak and stay
       accounted *)
    let shared_growth = Rs_exec.Index_manager.bytes indexes - shared_before in
    let leak = Memtrack.live () - mem_before - max 0 shared_growth in
    if leak > 0 then Memtrack.free leak;
    let elapsed = elapsed +. cost in
    let failure =
      match res with
      | Engine_intf.Oom -> Some Retry.Oom_failure
      | Engine_intf.Fault { cls; _ } -> Some (Retry.Fault_failure cls)
      | Engine_intf.Done _ | Engine_intf.Timeout | Engine_intf.Unsupported _ -> None
    in
    match Option.map (Retry.next st.config.retry ~attempt ~rung) failure with
    | None | Some Retry.Give_up -> finish res elapsed (attempt - 1) rung
    | Some (Retry.Retry { rung = rung'; backoff_s }) -> (
        bump st "retried" 1;
        let elapsed = elapsed +. backoff_s in
        match left_after elapsed with
        | Some d when d <= 0.0 ->
            (* retry budget exhausted: typed, not an exception — the attempt
               count includes the retry we could not afford *)
            finish Engine_intf.Timeout elapsed attempt rung
        | _ -> go rung' (attempt + 1) elapsed)
  in
  go Retry.Full 1 0.0

(* Register view: the incremental twin of a full-confidence result of a
   maintainable program, tracking future deltas. It adopts the run's
   fixpoint instead of deriving it again. The build is off the query's
   clock. *)
let register_view st q rels (result : Engine_intf.run_result) =
  if
    st.config.ivm
    && (not (Hashtbl.mem st.views (q.sub.edb, q.canonical)))
    && Ivm.supported q.sub.program
  then begin
    let edb_rows =
      List.map (fun (n, r) -> (n, List.map Array.to_list (Relation.to_rows r))) rels
    in
    (* engines that materialize a relation per read account it, and the
       view keeps only its own sets, so those bytes go back *)
    let live0 = Memtrack.live () in
    let built =
      match
        Ivm.create ~prov:(Provenance.create ()) ~fixpoint:result.Engine_intf.relation_of
          ~edb:edb_rows q.sub.program
      with
      | ivm -> Some ivm
      | exception Ivm.Unsupported _ -> None
    in
    let read = Memtrack.live () - live0 in
    if read > 0 then Memtrack.free read;
    match built with
    | Some ivm ->
        Hashtbl.replace st.views (q.sub.edb, q.canonical)
          {
            v_ivm = ivm;
            v_edbs = (Recstep.Analyzer.analyze q.sub.program).Recstep.Analyzer.edbs;
            v_outputs = Recstep.Analyzer.output_names q.sub.program;
          };
        bump st "view_built" 1;
        if (Ivm.stats ivm).Ivm.seeded_strata > 0 then bump st "view_seeded" 1
    | None -> ()
  end;
  0.0

(* Evaluate on a cache miss: the ladder, then the served result enters the
   cache and gets a view. A result that lands after its deadline, or from a
   degraded rung, is served but neither cached nor viewed. *)
let evaluate st q =
  let rels = Edb_store.lookup st.store q.sub.edb in
  let res, elapsed = ladder st q rels in
  match res with
  | Engine_intf.Done result ->
      let rows =
        List.map
          (fun n -> (n, Relation.sorted_distinct_rows (result.Engine_intf.relation_of n)))
          (Recstep.Analyzer.output_names q.sub.program)
      in
      let stale =
        match q.sub.deadline_vs with
        | Some d -> q.started +. elapsed -. q.sub.at > d
        | None -> false
      in
      let degraded = q.rung <> Retry.Full in
      Result_cache.add st.cache q.key rows ~canonical:q.canonical ~stale ~degraded;
      q.outcome <- Done rows;
      if stale || degraded then elapsed else elapsed +. register_view st q rels result
  | Engine_intf.Oom -> q.outcome <- Oom; elapsed
  | Engine_intf.Timeout -> q.outcome <- Timeout; elapsed
  | Engine_intf.Unsupported m -> q.outcome <- Unsupported m; elapsed
  | Engine_intf.Fault { cls; point } -> q.outcome <- Fault { cls; point }; elapsed

(* Feed one completion to the autoscaler and apply what it decides. *)
let autoscale st q =
  match st.scaler with
  | None -> ()
  | Some s -> (
      let before = Autoscale.evals s in
      let decision =
        Autoscale.note s ~queue_depth:(Scheduler.length st.sched)
          ~latency_s:(!(st.clock) -. q.sub.at)
      in
      let evaluated = Autoscale.evals s - before in
      if evaluated > 0 then bump st "autoscale.evals" evaluated;
      match decision with
      | None -> ()
      | Some d ->
          bump st
            (match d.Autoscale.d_dir with Autoscale.Up -> "autoscale.up" | Down -> "autoscale.down")
            1;
          (* a zero initial budget means the cache is off for the whole run
             — the scaler must not resurrect it *)
          if st.config.cache_bytes > 0 && d.Autoscale.d_cache_to <> d.Autoscale.d_cache_from
          then begin
            Result_cache.set_budget st.cache d.Autoscale.d_cache_to;
            bump st
              (if d.Autoscale.d_cache_to > d.Autoscale.d_cache_from then "autoscale.cache_up"
               else "autoscale.cache_down")
              1
          end;
          Trace.event st.trace ~kind:"service" "autoscale"
            [
              ("workers", float_of_int d.Autoscale.d_workers_to);
              ("cache_bytes", float_of_int d.Autoscale.d_cache_to);
              ("p95", d.Autoscale.d_p95_s);
              ("queue_per_worker", d.Autoscale.d_queue_per_worker);
            ])

(* Respond: close the query's span, count its outcome, record its
   completion and feed the autoscaler. *)
let respond st q =
  Trace.end_span st.trace;
  bump st (outcome_label q.outcome) 1;
  (match q.outcome with Timeout -> bump st "deadline_miss" 1 | _ -> ());
  let degraded = if q.rung = Retry.Full then None else Some (Retry.rung_name q.rung) in
  if degraded <> None then bump st "degraded" 1;
  complete st q.sub ~started:q.started ~cache_hit:q.cache_hit ~retries:q.retries ?degraded
    q.outcome;
  autoscale st q;
  0.0

(* One dispatched query through its stages. *)
let serve st sub =
  let q = start st sub in
  let charge seconds =
    q.cost <- q.cost +. seconds;
    st.clock := q.started +. q.cost
  in
  (match q.budget with
  | Some d when d <= 0.0 -> () (* expired in the queue *)
  | _ ->
      charge (lookup st q);
      if not q.cache_hit then charge (evaluate st q));
  charge (respond st q)

(* The event loop: events that are due first, then the next queued query;
   when both wait, the clock jumps to the next event. *)
let rec loop st =
  match st.pending with
  | e :: rest when event_time e <= !(st.clock) ->
      st.pending <- rest;
      let charged =
        match e with
        | Submit s -> admit st s
        | Delta { edb; delta; _ } -> apply_delta st ~edb delta
        | Explain r -> explain st r
      in
      st.clock := !(st.clock) +. charged;
      loop st
  | pending -> (
      match (Scheduler.pop st.sched, pending) with
      | Some (_, sub), _ ->
          serve st sub;
          loop st
      | None, [] -> ()
      | None, e :: _ ->
          st.clock := max !(st.clock) (event_time e);
          loop st)

let report_of st =
  let completions = List.rev st.completions in
  (* every served result counts toward the latency distribution, degraded
     ones included — the tenant waited for those bytes too; the report
     carries [served_degraded] so SLO accounting can split them out *)
  let served =
    List.filter (fun c -> match c.c_outcome with Done _ -> true | _ -> false) completions
  in
  let served_latencies =
    List.map (fun c -> c.c_finished -. c.c_at) served |> List.sort compare |> Array.of_list
  in
  let vtime = !(st.clock) in
  {
    completions;
    explanations = List.rev st.explanations;
    counters =
      List.sort compare
        (List.map (fun n -> (n, Trace.counter st.trace ("service." ^ n))) counter_names);
    cache = Result_cache.stats st.cache;
    p50_latency = Histogram.percentile_sorted served_latencies 50.0;
    p95_latency = Histogram.percentile_sorted served_latencies 95.0;
    p99_latency = Histogram.percentile_sorted served_latencies 99.0;
    p999_latency = Histogram.percentile_sorted served_latencies 99.9;
    served_degraded = List.length (List.filter (fun c -> c.c_degraded <> None) served);
    throughput = (if vtime > 0.0 then float_of_int (List.length served) /. vtime else 0.0);
    vtime;
    trace = st.trace;
  }

let run ?(config = config ()) ~edb:store events =
  let st = create config store events in
  with_budget config.mem_budget (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Hashtbl.iter (fun _ im -> Rs_exec.Index_manager.release_all im) st.db_indexes)
        (fun () -> loop st));
  report_of st

let counter (report : report) name = Option.value ~default:0 (List.assoc_opt name report.counters)

let latency c = match c.c_outcome with Rejected _ -> None | _ -> Some (c.c_finished -. c.c_at)

let outcome_detail = function
  | Unsupported m -> Some m
  | Rejected r -> Some (Admission.reason_to_string r)
  | Fault { cls; point } -> Some (Fault.cls_name cls ^ "@" ^ point)
  | Done _ | Oom | Timeout -> None

let report_json (r : report) =
  let query c =
    Json.Obj
      ([
         ("id", Json.String c.c_id);
         ("tenant", Json.String c.c_tenant);
         ("edb", Json.String c.c_edb);
         ("at", Json.Float c.c_at);
         ("started", match c.c_started with Some s -> Json.Float s | None -> Json.Null);
         ("finished", Json.Float c.c_finished);
         ("outcome", Json.String (outcome_label c.c_outcome));
         ("cache_hit", Json.Bool c.c_cache_hit);
         ("retries", Json.Int c.c_retries);
         ( "degraded",
           match c.c_degraded with Some d -> Json.String d | None -> Json.Null );
         ("latency", match latency c with Some l -> Json.Float l | None -> Json.Null);
       ]
      @ (match c.c_outcome with
        | Done v ->
            (* row count and content fingerprint of the served value, so an
               external check can assert that incrementally-refreshed
               results are byte-identical to recomputed ones *)
            [
              ( "rows",
                Json.Int (List.fold_left (fun a (_, rs) -> a + List.length rs) 0 v) );
              ( "checksum",
                Json.String (Printf.sprintf "%x" (Result_cache.value_checksum v)) );
            ]
        | _ -> [])
      @ match outcome_detail c.c_outcome with
        | Some d -> [ ("detail", Json.String d) ]
        | None -> [])
  in
  let cache = r.cache in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("vtime", Json.Float r.vtime);
      ("throughput", Json.Float r.throughput);
      ( "latency",
        Json.Obj
          [
            ("p50", Json.Float r.p50_latency);
            ("p95", Json.Float r.p95_latency);
            ("p99", Json.Float r.p99_latency);
            ("p999", Json.Float r.p999_latency);
            ("served_degraded", Json.Int r.served_degraded);
          ] );
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Int cache.Result_cache.entries);
            ("bytes", Json.Int cache.Result_cache.bytes);
            ("hits", Json.Int cache.Result_cache.hits);
            ("misses", Json.Int cache.Result_cache.misses);
            ("insertions", Json.Int cache.Result_cache.insertions);
            ("evictions", Json.Int cache.Result_cache.evictions);
            ("invalidations", Json.Int cache.Result_cache.invalidations);
            ("collisions", Json.Int cache.Result_cache.collisions);
            ("corruptions", Json.Int cache.Result_cache.corruptions);
            ("skipped", Json.Int cache.Result_cache.skipped);
            ("refreshes", Json.Int cache.Result_cache.refreshes);
          ] );
      ("queries", Json.List (List.map query r.completions));
      ( "explanations",
        Json.List
          (List.map
             (fun x ->
               Json.Obj
                 ([
                    ("at", Json.Float x.x_at);
                    ("tenant", Json.String x.x_tenant);
                    ("edb", Json.String x.x_edb);
                    ("fact", Json.String x.x_fact);
                    ("status", Json.String x.x_status);
                    ("rules", Json.List (List.map (fun i -> Json.Int i) x.x_rules));
                    ("depth", Json.Int x.x_depth);
                    ("from_view", Json.Bool x.x_from_view);
                    ("chain", Json.String x.x_text);
                  ]
                 @
                 match x.x_latency with
                 | None -> []
                 | Some ln ->
                     [
                       ( "latest_query",
                         Json.Obj
                           [
                             ("id", Json.String ln.ln_query);
                             ("outcome", Json.String ln.ln_outcome);
                             ("latency", Json.Float ln.ln_latency);
                             ( "slowest_spans",
                               Json.List
                                 (List.map
                                    (fun (n, d) ->
                                      Json.Obj
                                        [ ("span", Json.String n); ("seconds", Json.Float d) ])
                                    ln.ln_spans) );
                           ] );
                     ]))
             r.explanations) );
    ]

let report_summary (r : report) =
  let rows =
    List.map
      (fun c ->
        [
          c.c_id;
          c.c_tenant;
          c.c_edb;
          outcome_label c.c_outcome;
          (if c.c_cache_hit then "hit" else "-");
          string_of_int c.c_retries;
          Option.value ~default:"-" c.c_degraded;
          (match latency c with Some l -> Printf.sprintf "%.4f" l | None -> "-");
        ])
      r.completions
  in
  let table =
    Rs_util.Table_printer.render
      ~header:
        [ "query"; "tenant"; "edb"; "outcome"; "cache"; "retries"; "degraded"; "latency (s)" ]
      rows
  in
  let counters =
    String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counters)
  in
  let explanations =
    match r.explanations with
    | [] -> ""
    | xs ->
        String.concat ""
          (List.map
             (fun x ->
               let note =
                 match x.x_latency with
                 | None -> ""
                 | Some ln ->
                     Printf.sprintf "  latest query %s: %s in %.4fs%s\n" ln.ln_query
                       ln.ln_outcome ln.ln_latency
                       (match ln.ln_spans with
                       | [] -> ""
                       | (n, d) :: _ -> Printf.sprintf " (slowest span %s %.4fs)" n d)
               in
               Printf.sprintf "explain %s for %s@%s: %s%s\n%s%s" x.x_fact x.x_tenant
                 x.x_edb x.x_status
                 (if x.x_from_view then " [warm view]" else "")
                 (if x.x_status = "explained" then x.x_text else "  " ^ x.x_text ^ "\n")
                 note)
             xs)
  in
  Printf.sprintf
    "%s%s\n%slatency p50=%.4fs p95=%.4fs p99=%.4fs  throughput=%.2f q/s  vtime=%.4fs\n"
    table counters explanations r.p50_latency r.p95_latency r.p99_latency
    r.throughput r.vtime
