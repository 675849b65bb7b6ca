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
  shards : int;
  kernels : bool;
  autoscale : Autoscale.policy option;
}

let config ?(workers = 8) ?(queue_capacity = 64) ?mem_budget
    ?(cache_bytes = 64 * 1024 * 1024) ?(cache_hit_cost_s = 1e-4) ?(seed = 1)
    ?(retry = Retry.default) ?(ivm = true) ?(ivm_max_delta = 512) ?(shards = 1)
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
    shards = max 1 shards;
    kernels;
    autoscale;
  }

type shard_stat = {
  sh_shard : int;
  sh_queries : int;
  sh_busy_s : float;
  sh_sim_s : float;
  sh_rows : int;
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
  shard_stats : shard_stat list;
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

(* The declared outputs of a program, or all its IDBs — same convention as
   the CLI's run command. *)
let output_names program =
  if program.Ast.outputs <> [] then program.Ast.outputs
  else (Recstep.Analyzer.analyze program).Recstep.Analyzer.idbs

(* A maintained view: the incremental twin of one (edb, canonical program)
   cache-entry family. [v_edbs] is the program's own input set — a store
   delta is filtered to it before Ivm.apply, so deltas touching relations
   the program never reads refresh its entries for free. *)
type view = { v_ivm : Ivm.t; v_edbs : string list; v_outputs : string list }

let view_value v =
  List.map
    (fun n -> (n, List.map Array.of_list (Ivm.rows v.v_ivm n)))
    v.v_outputs

let run ?(config = config ()) ~edb:store events =
  let pool = Pool.create ~workers:config.workers () in
  let clock = ref 0.0 in
  let now_impl = ref (fun () -> !clock) in
  let trace = Trace.create ~now:(fun () -> !now_impl ()) () in
  let counts = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace counts n 0) counter_names;
  let bump name n =
    Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name));
    Trace.count trace ("service." ^ name) n
  in
  let cache = Result_cache.create ~budget_bytes:config.cache_bytes in
  (* The autoscaler owns the base worker count when enabled; the retry
     ladder's knobs derive from it per attempt, so [Half_workers] halves
     whatever the scaler has currently granted. *)
  let scaler =
    Option.map
      (fun p -> Autoscale.create p ~workers:config.workers ~cache_bytes:config.cache_bytes)
      config.autoscale
  in
  let base_workers () =
    match scaler with Some s -> Autoscale.workers s | None -> config.workers
  in
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
  let shared_indexes db = Hashtbl.find db_indexes db in
  (* per-shard utilization across every sharded run of the session *)
  let shard_queries = Array.make config.shards 0 in
  let shard_busy = Array.make config.shards 0.0 in
  let shard_sim = Array.make config.shards 0.0 in
  let shard_rows = Array.make config.shards 0 in
  let note_shards (stats : Rs_shard.Shard_exec.node_stats list) =
    List.iter
      (fun (ns : Rs_shard.Shard_exec.node_stats) ->
        let i = ns.Rs_shard.Shard_exec.ns_node in
        if i < config.shards then begin
          shard_queries.(i) <- shard_queries.(i) + ns.Rs_shard.Shard_exec.ns_queries;
          shard_busy.(i) <- shard_busy.(i) +. ns.Rs_shard.Shard_exec.ns_busy_s;
          shard_sim.(i) <- shard_sim.(i) +. ns.Rs_shard.Shard_exec.ns_sim_s;
          shard_rows.(i) <- ns.Rs_shard.Shard_exec.ns_rows
        end)
      stats
  in
  (* Maintained views: one {!Recstep.Ivm} instance per (database, canonical
     program) that has produced a cacheable result. On a registered delta
     the views absorb the net change and hand the result cache its entries'
     rows at the new version — warm refresh instead of cold invalidation. *)
  let views : (string * string, view) Hashtbl.t = Hashtbl.create 16 in
  let sched = Scheduler.create ~seed:config.seed in
  let completions = ref [] in
  (* auto ids in event order, before time-sorting *)
  let next_id = ref 0 in
  let events =
    List.map
      (function
        | Submit s when s.sub_id = "" ->
            incr next_id;
            Submit { s with sub_id = Printf.sprintf "q%d" !next_id }
        | e -> e)
      events
  in
  let pending = ref (List.stable_sort (fun a b -> compare (event_time a) (event_time b)) events) in
  let reject sub reason =
    bump "rejected" 1;
    completions :=
      {
        c_id = sub.sub_id;
        c_tenant = sub.tenant;
        c_edb = sub.edb;
        c_at = sub.at;
        c_started = None;
        c_finished = !clock;
        c_outcome = Rejected reason;
        c_cache_hit = false;
        c_retries = 0;
        c_degraded = None;
      }
      :: !completions
  in
  let admit sub =
    bump "submitted" 1;
    let decision =
      if not (Edb_store.mem store sub.edb) then
        Admission.Reject (Admission.Unknown_edb sub.edb)
      else
        Admission.decide ~queue_len:(Scheduler.length sched)
          ~queue_capacity:config.queue_capacity ~mem:sub.mem ~budget:config.mem_budget
          ~live:(Memtrack.live ())
    in
    match decision with
    | Admission.Admit ->
        bump "admitted" 1;
        Scheduler.push sched ~tenant:sub.tenant sub
    | Admission.Reject reason -> reject sub reason
  in
  let drop_views edb =
    let doomed =
      Hashtbl.fold (fun (e, c) _ acc -> if e = edb then (e, c) :: acc else acc) views []
    in
    List.iter (Hashtbl.remove views) doomed;
    List.length doomed
  in
  let apply_delta d =
    match d with
    | Delta { edb; delta; _ } ->
        (* operator-applied state change: not subject to the query budget *)
        let saved = Memtrack.budget () in
        Memtrack.set_budget None;
        let applied =
          match Edb_store.apply store edb delta with
          | r -> Ok r
          | exception Fault.Injected { cls; point } -> Error (cls, point)
          | exception Memtrack.Simulated_oom _ ->
              (* a chaos Mem probe tripped while accounting the staged
                 relations; the store released them and rolled back *)
              Error (Fault.Mem, "edb_store.apply")
        in
        Memtrack.set_budget saved;
        (match applied with
        | Error (cls, point) ->
            (* the store rolled back atomically: version, cache and views
               all still agree on the pre-delta state *)
            bump "delta_fault" 1;
            Trace.event trace ~kind:"service" "edb_delta_fault"
              [ ("cls", float_of_int (Fault.cls_index cls)) ];
            ignore point
        | Ok (_, net) when Delta.is_empty net ->
            (* insert-of-present / retract-of-absent: no version bump, every
               cached result is still exact *)
            bump "delta_noop" 1
        | Ok (version, net) ->
            bump "delta_applied" 1;
            if config.ivm && Delta.size net <= config.ivm_max_delta then begin
              (* warm path: fold the net change into every view of this
                 database, then re-key its cache entries to [version]. A
                 view whose maintenance raises — Ivm.Unsupported from a
                 program the support check mispredicted, a count underflow,
                 an arity clash — must degrade to invalidation of that one
                 view, never surface to the tenant: the store commit already
                 happened, and the refresher below recomputes anything the
                 dropped view can no longer answer *)
              let doomed = ref [] in
              Hashtbl.iter
                (fun (e, c) v ->
                  if e = edb then
                    let mine = List.filter (fun (rl, _) -> List.mem rl v.v_edbs) net in
                    match Ivm.apply v.v_ivm mine with
                    | _ -> ()
                    | exception _ -> doomed := (e, c) :: !doomed)
                views;
              List.iter
                (fun key ->
                  Hashtbl.remove views key;
                  bump "view_dropped" 1;
                  Trace.event trace ~kind:"service" "view_maintenance_failed" [])
                !doomed;
              let refreshed =
                Result_cache.refresh_edb cache edb ~version (fun ~canonical ->
                    Option.map view_value (Hashtbl.find_opt views (edb, canonical)))
              in
              bump "refreshed" refreshed;
              Trace.event trace ~kind:"service" "edb_delta"
                [
                  ("ops", float_of_int (Delta.size net));
                  ("refreshed", float_of_int refreshed);
                ]
            end
            else begin
              (* fallback: the delta is too large for incremental refresh to
                 pay off (or maintenance is off) — drop views and entries,
                 queries recompute against the new version *)
              bump "view_dropped" (drop_views edb);
              let dropped = Result_cache.invalidate_edb cache edb in
              Trace.event trace ~kind:"service" "edb_delta"
                [
                  ("ops", float_of_int (Delta.size net));
                  ("invalidated", float_of_int dropped);
                ]
            end)
    | Submit _ | Explain _ -> assert false
  in
  let explanations = ref [] in
  (* Join the derivation answer with the serving timeline: the tenant's
     latest dispatched query on this database, its end-to-end latency, and
     the slowest spans nested under its service span — "why is this fact
     here" and "where did the time go" in one report entry. *)
  let latency_note (r : explain_request) =
    match
      List.find_opt
        (fun c -> c.c_tenant = r.ex_tenant && c.c_edb = r.ex_edb && c.c_started <> None)
        !completions
    with
    | None -> None
    | Some c ->
        let name = c.c_tenant ^ "/" ^ c.c_id in
        let arr = Array.of_list (Trace.spans trace) in
        let idx = ref (-1) in
        Array.iteri
          (fun i (s : Trace.span) ->
            if s.Trace.sp_kind = "service" && s.Trace.sp_name = name then idx := i)
          arr;
        let spans =
          if !idx < 0 then []
          else begin
            let me = arr.(!idx) in
            let dur (s : Trace.span) =
              match s.Trace.sp_stop with Some e -> e -. s.Trace.sp_start | None -> 0.0
            in
            let children = ref [] in
            (try
               for i = !idx + 1 to Array.length arr - 1 do
                 let s = arr.(i) in
                 if s.Trace.sp_depth <= me.Trace.sp_depth then raise Exit;
                 children := (s.Trace.sp_kind ^ ":" ^ s.Trace.sp_name, dur s) :: !children
               done
             with Exit -> ());
            List.filteri
              (fun i _ -> i < 3)
              (List.sort (fun (_, a) (_, b) -> compare (b : float) a) !children)
          end
        in
        Some
          {
            ln_query = c.c_id;
            ln_outcome = outcome_label c.c_outcome;
            ln_latency = c.c_finished -. c.c_at;
            ln_spans = spans;
          }
  in
  let explain_one (r : explain_request) =
    bump "explain" 1;
    let canonical = Program_key.canonical r.ex_program in
    let answer () =
      match Hashtbl.find_opt views (r.ex_edb, canonical) with
      | Some v ->
          (* warm: the maintained view's materialized rows and its tag
             store, kept current across deltas by Ivm.apply *)
          Ok (Ivm.analyzer v.v_ivm, Ivm.rows v.v_ivm, Ivm.provenance v.v_ivm, true)
      | None ->
          if not (Edb_store.mem store r.ex_edb) then
            Error (Printf.sprintf "unknown EDB %S" r.ex_edb)
          else begin
            (* cold: one provenance-enabled evaluation against the current
               store version — an operator/debug action, off the query
               budget like the delta path *)
            let prov = Provenance.create () in
            let saved = Memtrack.budget () in
            Memtrack.set_budget None;
            Fun.protect
              ~finally:(fun () -> Memtrack.set_budget saved)
              (fun () ->
                Pool.begin_run pool;
                match
                  Interpreter.run
                    ~options:(Interpreter.options ~provenance:prov ())
                    ~pool
                    ~edb:(Edb_store.lookup store r.ex_edb)
                    r.ex_program
                with
                | result ->
                    let an = Recstep.Analyzer.analyze r.ex_program in
                    let rows p =
                      List.map Array.to_list
                        (Relation.sorted_distinct_rows (result.Interpreter.relation_of p))
                    in
                    Ok (an, rows, Some prov, false)
                | exception Recstep.Analyzer.Analysis_error m ->
                    Error ("analysis error: " ^ m))
          end
    in
    let fact = Explain.fact_to_string r.ex_pred r.ex_row in
    let status, rules, depth, from_view, text =
      match answer () with
      | Error m -> ("error", [], 0, false, m)
      | Ok (an, rows, prov, from_view) -> (
          match Explain.explain ?prov ~an ~rows r.ex_pred r.ex_row with
          | Explain.Explained n ->
              ( "explained",
                Explain.rules_used n,
                Explain.depth n,
                from_view,
                Explain.render ?tags:prov n )
          | Explain.Absent as o ->
              ("absent", [], 0, from_view, Explain.outcome_to_string ~pred:r.ex_pred ~row:r.ex_row o)
          | Explain.No_proof as o ->
              ("no_proof", [], 0, from_view, Explain.outcome_to_string ~pred:r.ex_pred ~row:r.ex_row o)
          | Explain.Budget_exceeded _ as o ->
              ("budget", [], 0, from_view, Explain.outcome_to_string ~pred:r.ex_pred ~row:r.ex_row o)
          | exception exn -> ("error", [], 0, from_view, Printexc.to_string exn))
    in
    explanations :=
      {
        x_at = !clock;
        x_tenant = r.ex_tenant;
        x_edb = r.ex_edb;
        x_fact = fact;
        x_status = status;
        x_rules = rules;
        x_depth = depth;
        x_from_view = from_view;
        x_text = text;
        x_latency = latency_note r;
      }
      :: !explanations
  in
  let apply_due () =
    let rec go () =
      match !pending with
      | e :: rest when event_time e <= !clock ->
          pending := rest;
          (match e with
          | Submit s -> admit s
          | Delta _ -> apply_delta e
          | Explain r -> explain_one r);
          go ()
      | _ -> ()
    in
    go ()
  in
  (* one engine attempt under the rung's knobs; engine spans and pool batches
     land on the service timeline at offset [base] *)
  let run_attempt sub rels (knobs : Retry.knobs) deadline_left base =
    Pool.set_workers pool knobs.Retry.k_workers;
    Pool.begin_run pool;
    now_impl := (fun () -> base +. Pool.vtime_now pool);
    let res =
      match
        match sub.engine with
        | None when config.shards > 1 ->
            (* Sharded default path: the distributed executor with the
               ladder's degradable knobs mapped onto its options. *)
            Engine_intf.guard (fun () ->
                let options =
                  Rs_shard.Shard_exec.options ~shards:config.shards
                    ?timeout_vs:deadline_left ~trace
                    ~persistent_indexes:knobs.Retry.k_persistent_indexes
                    ~fast_dedup:knobs.Retry.k_fast_path ()
                in
                match Rs_shard.Shard_exec.run ~options ~pool ~edb:rels sub.program with
                | r ->
                    note_shards r.Rs_shard.Shard_exec.node_stats;
                    Engine_intf.mk_result ~pool ~trace
                      ~iterations:r.Rs_shard.Shard_exec.iterations
                      ~queries:r.Rs_shard.Shard_exec.queries
                      r.Rs_shard.Shard_exec.relation_of
                | exception Rs_shard.Shard_exec.Unsupported m ->
                    Engine_intf.unsupported "%s" m)
        | None ->
            (* Default path: drive the RecStep interpreter directly, so the
               ladder's lower rungs can turn engine structures off. At
               {!Retry.Full} the options equal Engines.recstep's. *)
            Engine_intf.guard (fun () ->
                let options =
                  Interpreter.options ?timeout_vs:deadline_left ~trace
                    ~persistent_indexes:knobs.Retry.k_persistent_indexes
                    ~shared_indexes:(shared_indexes sub.edb) ~pbme:knobs.Retry.k_fast_path
                    ~fast_dedup:knobs.Retry.k_fast_path
                    ~compiled_kernels:(config.kernels && knobs.Retry.k_fast_path) ()
                in
                let r = Interpreter.run ~options ~pool ~edb:rels sub.program in
                Engine_intf.mk_result ~pool ~trace ~iterations:r.Interpreter.iterations
                  ~queries:r.Interpreter.queries r.Interpreter.relation_of)
        | Some name -> (
            match Engines.by_name name with
            | None ->
                Engine_intf.Unsupported (Printf.sprintf "unknown engine %S" name)
            | Some e ->
                (* named baseline engines have no knob surface; the ladder
                   degrades them through the pool's worker count only *)
                Engine_intf.run_guarded e ~pool ?deadline_vs:deadline_left ~trace
                  ~edb:rels sub.program)
      with
      | o -> o
      | exception Recstep.Analyzer.Analysis_error m ->
          Engine_intf.Unsupported ("analysis error: " ^ m)
    in
    now_impl := (fun () -> !clock);
    List.iter
      (fun (e : Pool.event) ->
        Trace.add_batch trace ~start:(base +. e.Pool.ev_vstart) ~len:e.Pool.ev_vlen
          ~busy:e.Pool.ev_busy)
      (Pool.events pool);
    (res, (Pool.stats pool).Pool.vtime)
  in
  let execute sub =
    let started = !clock in
    Trace.begin_span trace ~kind:"service" (sub.tenant ^ "/" ^ sub.sub_id);
    let version = Edb_store.version store sub.edb in
    (* hash once, keep the canonical text: the cache verifies it on lookup
       so an FNV-1a collision between tenants can never serve foreign rows *)
    let canonical = Program_key.canonical sub.program in
    let key =
      {
        Result_cache.program = Program_key.hash_of_canonical canonical;
        edb = sub.edb;
        edb_version = version;
      }
    in
    let deadline0 = Option.map (fun d -> d -. (started -. sub.at)) sub.deadline_vs in
    let outcome, cost, cache_hit, retries, degraded =
      match deadline0 with
      | Some d when d <= 0.0 -> (Timeout, 0.0, false, 0, None)
      | _ -> (
          match Result_cache.find cache key ~canonical with
          | Some v ->
              bump "cache_hit" 1;
              (Done v, config.cache_hit_cost_s, true, 0, None)
          | None ->
              bump "cache_miss" 1;
              let rels = Edb_store.lookup store sub.edb in
              let mem_before = Memtrack.live () in
              let shared_before = Rs_exec.Index_manager.bytes (shared_indexes sub.edb) in
              let left_after elapsed = Option.map (fun d -> d -. elapsed) deadline0 in
              (* Walk the retry policy. [attempt] is 1-based; [elapsed] is
                 simulated seconds since [started] including backoffs. *)
              let rec attempts rung attempt elapsed =
                let res, cost =
                  run_attempt sub rels
                    (Retry.knobs ~workers:(base_workers ()) rung)
                    (left_after elapsed) (started +. elapsed)
                in
                (* every exit path — success or any fault class — restores
                   the tracker to the pre-query baseline immediately, so a
                   retry never runs with the failed attempt's leak still
                   counted against its headroom (the seed freed it only
                   after the last attempt); bytes the shared index manager
                   deliberately grew by are not a leak and stay accounted *)
                let shared_growth =
                  Rs_exec.Index_manager.bytes (shared_indexes sub.edb) - shared_before
                in
                let leak = Memtrack.live () - mem_before - max 0 shared_growth in
                if leak > 0 then Memtrack.free leak;
                let elapsed = elapsed +. cost in
                match res with
                | Engine_intf.Done _ | Engine_intf.Timeout | Engine_intf.Unsupported _ ->
                    (res, elapsed, attempt - 1, rung)
                | Engine_intf.Oom | Engine_intf.Fault _ -> (
                    let failure =
                      match res with
                      | Engine_intf.Oom -> Retry.Oom_failure
                      | Engine_intf.Fault { cls; _ } -> Retry.Fault_failure cls
                      | _ -> assert false
                    in
                    match Retry.next config.retry ~attempt ~rung failure with
                    | Retry.Give_up -> (res, elapsed, attempt - 1, rung)
                    | Retry.Retry { rung = rung'; backoff_s } -> (
                        bump "retried" 1;
                        let elapsed = elapsed +. backoff_s in
                        match left_after elapsed with
                        | Some d when d <= 0.0 ->
                            (* retry budget exhausted: typed, not an
                               exception — attempt count includes the retry
                               we could not afford *)
                            (Engine_intf.Timeout, elapsed, attempt, rung)
                        | _ -> attempts rung' (attempt + 1) elapsed))
              in
              let res, cost, retries, rung = attempts Retry.Full 1 0.0 in
              let degraded =
                if rung <> Retry.Full then Some (Retry.rung_name rung) else None
              in
              let outcome =
                match res with
                | Engine_intf.Done result ->
                    let rows =
                      List.map
                        (fun n ->
                          (n, Relation.sorted_distinct_rows (result.Engine_intf.relation_of n)))
                        (output_names sub.program)
                    in
                    (* a result that lands after its deadline, or from a
                       degraded rung, is returned to the client but must not
                       enter the cache *)
                    let stale =
                      match sub.deadline_vs with
                      | Some d -> started +. cost -. sub.at > d
                      | None -> false
                    in
                    Result_cache.add cache key rows ~canonical ~stale
                      ~degraded:(degraded <> None);
                    (* register the incremental twin for whatever entered
                       the cache: a full-confidence result of a maintainable
                       program gets a view that will track future deltas *)
                    if
                      config.ivm && (not stale) && degraded = None
                      && (not (Hashtbl.mem views (sub.edb, canonical)))
                      && Ivm.supported sub.program
                    then begin
                      let edb_rows =
                        List.map
                          (fun (n, r) ->
                            (n, List.map Array.to_list (Relation.to_rows r)))
                          rels
                      in
                      (* seed the view from this run's fixpoint instead of
                         deriving it again; engines that materialize a
                         relation per read account it, and the view keeps
                         only its own sets, so those bytes go back *)
                      let live0 = Memtrack.live () in
                      let built =
                        match
                          Ivm.create ~prov:(Provenance.create ())
                            ~fixpoint:result.Engine_intf.relation_of ~edb:edb_rows sub.program
                        with
                        | ivm -> Some ivm
                        | exception Ivm.Unsupported _ -> None
                      in
                      let read = Memtrack.live () - live0 in
                      if read > 0 then Memtrack.free read;
                      match built with
                      | Some ivm ->
                          Hashtbl.replace views (sub.edb, canonical)
                            {
                              v_ivm = ivm;
                              v_edbs =
                                (Recstep.Analyzer.analyze sub.program)
                                  .Recstep.Analyzer.edbs;
                              v_outputs = output_names sub.program;
                            };
                          bump "view_built" 1;
                          if (Ivm.stats ivm).Ivm.seeded_strata > 0 then bump "view_seeded" 1
                      | None -> ()
                    end;
                    Done rows
                | Engine_intf.Oom -> Oom
                | Engine_intf.Timeout -> Timeout
                | Engine_intf.Unsupported m -> Unsupported m
                | Engine_intf.Fault { cls; point } -> Fault { cls; point }
              in
              (outcome, cost, false, retries, degraded))
    in
    clock := started +. cost;
    Trace.end_span trace;
    bump (outcome_label outcome) 1;
    (match outcome with Timeout -> bump "deadline_miss" 1 | _ -> ());
    if degraded <> None then bump "degraded" 1;
    completions :=
      {
        c_id = sub.sub_id;
        c_tenant = sub.tenant;
        c_edb = sub.edb;
        c_at = sub.at;
        c_started = Some started;
        c_finished = !clock;
        c_outcome = outcome;
        c_cache_hit = cache_hit;
        c_retries = retries;
        c_degraded = degraded;
      }
      :: !completions;
    match scaler with
    | None -> ()
    | Some s ->
        let before = Autoscale.evals s in
        let decision =
          Autoscale.note s ~queue_depth:(Scheduler.length sched)
            ~latency_s:(!clock -. sub.at)
        in
        let evaluated = Autoscale.evals s - before in
        if evaluated > 0 then bump "autoscale.evals" evaluated;
        (match decision with
        | None -> ()
        | Some d ->
            (match d.Autoscale.d_dir with
            | Autoscale.Up -> bump "autoscale.up" 1
            | Autoscale.Down -> bump "autoscale.down" 1);
            (* a zero initial budget means the cache is off for the whole
               run — the scaler must not resurrect it *)
            if config.cache_bytes > 0 && d.Autoscale.d_cache_to <> d.Autoscale.d_cache_from
            then begin
              Result_cache.set_budget cache d.Autoscale.d_cache_to;
              bump
                (if d.Autoscale.d_cache_to > d.Autoscale.d_cache_from then
                   "autoscale.cache_up"
                 else "autoscale.cache_down")
                1
            end;
            Trace.event trace ~kind:"service" "autoscale"
              [
                ("workers", float_of_int d.Autoscale.d_workers_to);
                ("cache_bytes", float_of_int d.Autoscale.d_cache_to);
                ("p95", d.Autoscale.d_p95_s);
                ("queue_per_worker", d.Autoscale.d_queue_per_worker);
              ])
  in
  let prev_budget = Memtrack.budget () in
  Memtrack.set_budget config.mem_budget;
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun _ im -> Rs_exec.Index_manager.release_all im) db_indexes;
      Memtrack.set_budget prev_budget)
    (fun () ->
      let rec loop () =
        apply_due ();
        match Scheduler.pop sched with
        | Some (_, sub) ->
            execute sub;
            loop ()
        | None -> (
            match !pending with
            | [] -> ()
            | e :: _ ->
                clock := max !clock (event_time e);
                loop ())
      in
      loop ());
  let completions = List.rev !completions in
  (* every served result counts toward the latency distribution, degraded
     ones included — the tenant waited for those bytes too; the report
     carries [served_degraded] so SLO accounting can split them out *)
  let served_latencies =
    List.filter_map
      (fun c -> match c.c_outcome with Done _ -> Some (c.c_finished -. c.c_at) | _ -> None)
      completions
    |> List.sort compare |> Array.of_list
  in
  let served_degraded =
    List.fold_left
      (fun acc c ->
        match c.c_outcome with
        | Done _ when c.c_degraded <> None -> acc + 1
        | _ -> acc)
      0 completions
  in
  let counters =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  let served = Array.length served_latencies in
  let shard_stats =
    if config.shards <= 1 then []
    else
      List.init config.shards (fun i ->
          {
            sh_shard = i;
            sh_queries = shard_queries.(i);
            sh_busy_s = shard_busy.(i);
            sh_sim_s = shard_sim.(i);
            sh_rows = shard_rows.(i);
          })
  in
  {
    completions;
    explanations = List.rev !explanations;
    counters;
    cache = Result_cache.stats cache;
    p50_latency = Histogram.percentile_sorted served_latencies 50.0;
    p95_latency = Histogram.percentile_sorted served_latencies 95.0;
    p99_latency = Histogram.percentile_sorted served_latencies 99.0;
    p999_latency = Histogram.percentile_sorted served_latencies 99.9;
    served_degraded;
    throughput = (if !clock > 0.0 then float_of_int served /. !clock else 0.0);
    vtime = !clock;
    shard_stats;
    trace;
  }

let counter report name = Option.value ~default:0 (List.assoc_opt name report.counters)

let outcome_detail = function
  | Unsupported m -> Some m
  | Rejected r -> Some (Admission.reason_to_string r)
  | Fault { cls; point } -> Some (Fault.cls_name cls ^ "@" ^ point)
  | Done _ | Oom | Timeout -> None

let report_json r =
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
         ( "latency",
           match c.c_outcome with
           | Rejected _ -> Json.Null
           | _ -> Json.Float (c.c_finished -. c.c_at) );
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
    ([
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
    @
    match r.shard_stats with
    | [] -> []
    | stats ->
        [
          ( "shards",
            Json.List
              (List.map
                 (fun s ->
                   Json.Obj
                     [
                       ("shard", Json.Int s.sh_shard);
                       ("queries", Json.Int s.sh_queries);
                       ("busy_s", Json.Float s.sh_busy_s);
                       ("sim_s", Json.Float s.sh_sim_s);
                       ("rows", Json.Int s.sh_rows);
                       ( "utilization",
                         Json.Float
                           (if s.sh_sim_s > 0.0 then s.sh_busy_s /. s.sh_sim_s else 0.0) );
                     ])
                 stats) );
        ])

let report_summary r =
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
          (match c.c_outcome with
          | Rejected _ -> "-"
          | _ -> Printf.sprintf "%.4f" (c.c_finished -. c.c_at));
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
  let shards =
    match r.shard_stats with
    | [] -> ""
    | stats ->
        "shards: "
        ^ String.concat "  "
            (List.map
               (fun s ->
                 Printf.sprintf "s%d q=%d rows=%d util=%.2f" s.sh_shard s.sh_queries
                   s.sh_rows
                   (if s.sh_sim_s > 0.0 then s.sh_busy_s /. s.sh_sim_s else 0.0))
               stats)
        ^ "\n"
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
    "%s%s\n%s%slatency p50=%.4fs p95=%.4fs p99=%.4fs  throughput=%.2f q/s  vtime=%.4fs\n"
    table counters shards explanations r.p50_latency r.p95_latency r.p99_latency
    r.throughput r.vtime
