(* The RecStep command-line interface.

     recstep run program.datalog --fact arc=edges.tsv --out results/
     recstep run program.datalog --fact arc=edges.tsv --engine Souffle-like
     recstep serve workload.serve --report report.json
     recstep gen gnp -n 1000 -p 0.01 -o arc.tsv
     recstep gen rmat -n 65536 -m 655360 -o arc.tsv

   Programs use the paper's syntax (see lib/core/parser.mli); facts are
   whitespace-separated integer tuples, one per line; serve replays a
   workload script (see lib/service/script.mli) through the multi-tenant
   query service. *)

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("recstep: " ^ msg);
      exit 1)
    fmt

let load_facts an specs =
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          let arity = Recstep.Analyzer.arity an name in
          (name, Recstep.Frontend.load_tsv ~name ~arity path)
      | None -> die "bad --fact %S (expected name=path)" spec)
    specs

let explain_plan program =
  let an = Recstep.Analyzer.analyze program in
  List.iter
    (fun (s : Recstep.Analyzer.stratum) ->
      Printf.printf "stratum %d%s: %s\n" s.Recstep.Analyzer.index
        (if s.Recstep.Analyzer.recursive then " (recursive)" else "")
        (String.concat ", " s.Recstep.Analyzer.preds);
      List.iter
        (fun rule ->
          Printf.printf "  rule: %s\n" (Recstep.Ast.rule_to_string rule);
          match Recstep.Planner.compile_rule an s rule with
          | Recstep.Planner.Fact t ->
              Printf.printf "    fact (%s)\n"
                (String.concat ", " (Array.to_list (Array.map string_of_int t)))
          | Recstep.Planner.Query { base; deltas } ->
              Printf.printf "    base plan:\n%s" (Rs_exec.Plan.to_string base);
              List.iteri
                (fun i (dpred, d) ->
                  Printf.printf "    delta plan %d (Δ%s):\n%s" i dpred
                    (Rs_exec.Plan.to_string d))
                deltas)
        s.Recstep.Analyzer.rules)
    an.Recstep.Analyzer.strata

(* Malformed inputs are user errors: one precise line on stderr, exit 1. *)
let with_input_errors f =
  try f () with
  | Recstep.Frontend.Parse_error { path; line; msg } ->
      die "parse error: %s:%d: %s" path line msg
  | Rs_service.Script.Script_error { path; line; msg } ->
      die "script error: %s:%d: %s" path line msg

(* Parser/lexer errors carry a line but no path; attach it here so every
   syntax error reaches the user as path:line. *)
let parse_program path =
  try Recstep.Parser.parse_file path with
  | Recstep.Parser.Error { line; message } ->
      raise (Recstep.Frontend.Parse_error { path; line; msg = message })
  | Recstep.Lexer.Error { line; message } ->
      raise (Recstep.Frontend.Parse_error { path; line; msg = message })

let run_cmd program_path facts out_dir engine workers verbose explain_only profile dsd
    no_pbme no_kernels no_persistent_indexes =
  with_input_errors @@ fun () ->
  let program = parse_program program_path in
  if explain_only then explain_plan program
  else begin
  let an = Recstep.Analyzer.analyze program in
  let edb = load_facts an facts in
  let pool = Rs_parallel.Pool.create ~workers () in
  Rs_parallel.Pool.begin_run pool;
  let trace =
    match profile with
    | Some _ ->
        Some (Rs_obs.Trace.create ~now:(fun () -> Rs_parallel.Pool.vtime_now pool) ())
    | None -> None
  in
  let dsd =
    match dsd with
    | "dynamic" -> Recstep.Interpreter.Dsd_dynamic
    | "opsd" -> Recstep.Interpreter.Dsd_force_opsd
    | "tpsd" -> Recstep.Interpreter.Dsd_force_tpsd
    | other -> die "bad --dsd %S (expected dynamic, opsd or tpsd)" other
  in
  let lookup =
    match engine with
    | None ->
        let options =
          Recstep.Interpreter.options ~dsd ~pbme:(not no_pbme)
            ~compiled_kernels:(not no_kernels)
            ~persistent_indexes:(not no_persistent_indexes) ?trace ()
        in
        let result = Recstep.Interpreter.run ~options ~pool ~edb program in
        if verbose then
          Printf.printf "iterations=%d queries=%d pbme_strata=%d io_bytes=%d\n"
            result.Recstep.Interpreter.iterations result.Recstep.Interpreter.queries
            result.Recstep.Interpreter.pbme_strata result.Recstep.Interpreter.io_bytes;
        result.Recstep.Interpreter.relation_of
    | Some name -> (
        match Rs_engines.Engines.by_name name with
        | Some engine -> (
            match Rs_engines.Engine_intf.run_guarded engine ~pool ?trace ~edb program with
            | Rs_engines.Engine_intf.Done result ->
                if verbose then
                  Printf.printf "iterations=%d queries=%d\n"
                    result.Rs_engines.Engine_intf.iterations
                    result.Rs_engines.Engine_intf.queries;
                result.Rs_engines.Engine_intf.relation_of
            | Oom -> die "%s: out of (simulated) memory" name
            | Timeout -> die "%s: simulated deadline exceeded" name
            | Unsupported m -> die "unsupported program: %s" m
            | Fault { cls; point } ->
                die "%s: injected fault %s at %s" name (Rs_chaos.Fault.cls_name cls) point)
        | None ->
            die "unknown engine %S (known: %s)" name
              (String.concat ", " (List.map Rs_engines.Engines.name Rs_engines.Engines.all)))
  in
  let stats = Rs_parallel.Pool.stats pool in
  (match (profile, trace) with
  | Some path, Some tr ->
      List.iter
        (fun e ->
          Rs_obs.Trace.add_batch tr ~start:e.Rs_parallel.Pool.ev_vstart
            ~len:e.Rs_parallel.Pool.ev_vlen ~busy:e.Rs_parallel.Pool.ev_busy)
        (Rs_parallel.Pool.events pool);
      (try Rs_obs.Trace.dump tr ~path
       with Sys_error msg -> die "cannot write profile: %s" msg);
      if verbose then print_string (Rs_obs.Trace.summary tr)
  | _ -> ());
  let outputs = if program.Recstep.Ast.outputs = [] then an.Recstep.Analyzer.idbs else program.Recstep.Ast.outputs in
  List.iter
    (fun name ->
      let rel = lookup name in
      (match out_dir with
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Recstep.Frontend.save_tsv rel (Filename.concat dir (name ^ ".tsv"))
      | None -> ());
      Printf.printf "%-16s %d tuples\n" name (Rs_relation.Relation.nrows rel))
    outputs;
  Printf.printf "done in %.4fs simulated on %d workers (%.4fs wall)\n" stats.Rs_parallel.Pool.vtime
    stats.Rs_parallel.Pool.workers stats.Rs_parallel.Pool.wall
  end

(* "tc(1, 3)" → ("tc", [1; 3]) *)
let parse_fact spec =
  let malformed () = die "bad FACT %S (expected pred(v1, ..., vk))" spec in
  match String.index_opt spec '(' with
  | None -> malformed ()
  | Some i ->
      let pred = String.trim (String.sub spec 0 i) in
      let rest = String.trim (String.sub spec (i + 1) (String.length spec - i - 1)) in
      let n = String.length rest in
      if pred = "" || n = 0 || rest.[n - 1] <> ')' then malformed ();
      let inner = String.trim (String.sub rest 0 (n - 1)) in
      let row =
        if inner = "" then []
        else
          List.map
            (fun f ->
              match int_of_string_opt (String.trim f) with
              | Some v -> v
              | None -> die "bad FACT %S (non-integer field %S)" spec f)
            (String.split_on_char ',' inner)
      in
      (pred, row)

(* Why-provenance: evaluate once with tagging on, then walk the derivation
   chain of one fact down to its EDB leaves. Exit 0 iff the fact is
   explained; 1 for absent / no proof / budget, so CI can smoke it. *)
let explain_cmd program_path fact_spec facts workers sample no_provenance max_steps
    json_out verbose =
  with_input_errors @@ fun () ->
  let program = parse_program program_path in
  let pred, row = parse_fact fact_spec in
  let an = Recstep.Analyzer.analyze program in
  let edb = load_facts an facts in
  let pool = Rs_parallel.Pool.create ~workers () in
  Rs_parallel.Pool.begin_run pool;
  let prov =
    if no_provenance then None else Some (Recstep.Provenance.create ~sample ())
  in
  let options = Recstep.Interpreter.options ?provenance:prov () in
  let result = Recstep.Interpreter.run ~options ~pool ~edb program in
  let rows p =
    List.map Array.to_list
      (Rs_relation.Relation.sorted_distinct_rows (result.Recstep.Interpreter.relation_of p))
  in
  if verbose then
    Printf.printf "evaluated: iterations=%d queries=%d%s\n"
      result.Recstep.Interpreter.iterations result.Recstep.Interpreter.queries
      (match prov with
      | Some p ->
          Printf.sprintf " tagged=%d (sample %g)" (Recstep.Provenance.recorded p)
            (Recstep.Provenance.sample p)
      | None -> "");
  let outcome = Recstep.Explain.explain ?prov ~max_steps ~an ~rows pred row in
  (match outcome with
  | Recstep.Explain.Explained node ->
      if json_out then
        print_endline
          (Rs_obs.Json.to_string
             (Rs_obs.Json.Obj
                [
                  ("fact", Rs_obs.Json.String (Recstep.Explain.fact_to_string pred row));
                  ("status", Rs_obs.Json.String "explained");
                  ( "rules",
                    Rs_obs.Json.List
                      (List.map
                         (fun i -> Rs_obs.Json.Int i)
                         (Recstep.Explain.rules_used node)) );
                  ("depth", Rs_obs.Json.Int (Recstep.Explain.depth node));
                  ("chain", Recstep.Explain.node_json node);
                ]))
      else begin
        print_string (Recstep.Explain.render ?tags:prov node);
        Printf.printf "rules used: %s  depth: %d\n"
          (String.concat ", "
             (List.map string_of_int (Recstep.Explain.rules_used node)))
          (Recstep.Explain.depth node)
      end
  | o ->
      print_endline (Recstep.Explain.outcome_to_string ~pred ~row o);
      exit 1);
  ignore (Rs_parallel.Pool.stats pool)

let serve_cmd script_path workers queue cache_bytes no_cache seed mem_budget no_ivm
    ivm_max_delta no_kernels autoscale_flag autoscale_min autoscale_max
    report_path verbose =
  with_input_errors @@ fun () ->
  let script = Rs_service.Script.load script_path in
  let int_setting = Rs_service.Script.int_setting script in
  let float_setting = Rs_service.Script.float_setting script in
  let bool_setting = Rs_service.Script.bool_setting script in
  (* precedence: explicit flag > script [set] line > built-in default *)
  let pick cli s default = match cli with Some v -> v | None -> Option.value s ~default in
  let workers = pick workers (int_setting "workers") 8 in
  let queue_capacity = pick queue (int_setting "queue") 64 in
  let cache_bytes =
    if no_cache then 0 else pick cache_bytes (int_setting "cache_bytes") (64 * 1024 * 1024)
  in
  let seed = pick seed (int_setting "seed") 1 in
  let mem_budget =
    match mem_budget with Some b -> Some b | None -> int_setting "budget"
  in
  let cache_hit_cost_s = Option.value (float_setting "hit_cost") ~default:1e-4 in
  let ivm = (not no_ivm) && Option.value (bool_setting "ivm") ~default:true in
  let ivm_max_delta = pick ivm_max_delta (int_setting "ivm_max_delta") 512 in
  let kernels = (not no_kernels) && Option.value (bool_setting "kernels") ~default:true in
  let autoscale_on =
    autoscale_flag || Option.value (bool_setting "autoscale") ~default:false
  in
  let autoscale =
    if not autoscale_on then None
    else begin
      let min_workers = pick autoscale_min (int_setting "autoscale_min") 1 in
      let max_workers =
        pick autoscale_max (int_setting "autoscale_max") (max workers (4 * workers))
      in
      let tail_target_s =
        Option.value (float_setting "autoscale_target_ms") ~default:500.0 /. 1000.0
      in
      Some
        (Rs_service.Autoscale.policy ~min_workers ~max_workers ~tail_target_s
           ~cache_max_bytes:(max cache_bytes (4 * cache_bytes)) ())
    end
  in
  let store = Rs_service.Edb_store.create () in
  List.iter
    (fun (name, rels) -> Rs_service.Edb_store.define store name rels)
    script.Rs_service.Script.defs;
  let config =
    Rs_service.Service.config ~workers ~queue_capacity ?mem_budget ~cache_bytes
      ~cache_hit_cost_s ~seed ~ivm ~ivm_max_delta ~kernels ?autoscale ()
  in
  let report = Rs_service.Service.run ~config ~edb:store script.Rs_service.Script.events in
  print_string (Rs_service.Service.report_summary report);
  (match report_path with
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc (Rs_obs.Json.to_string (Rs_service.Service.report_json report));
        output_char oc '\n';
        close_out oc
      with Sys_error msg -> die "cannot write report: %s" msg)
  | None -> ());
  if verbose then print_string (Rs_obs.Trace.summary report.Rs_service.Service.trace)

(* "gold=50,silver=200,bronze=1000" → per-class SLO targets in seconds *)
let parse_slo_ms spec (dg, ds, db) =
  let gold = ref dg and silver = ref ds and bronze = ref db in
  String.split_on_char ',' spec
  |> List.iter (fun part ->
         if String.trim part <> "" then
           match String.index_opt part '=' with
           | Some i ->
               let k = String.trim (String.sub part 0 i) in
               let v = String.sub part (i + 1) (String.length part - i - 1) in
               let ms =
                 match float_of_string_opt (String.trim v) with
                 | Some f when f > 0.0 -> f
                 | _ -> die "bad --slo-ms %S (positive milliseconds expected)" part
               in
               let s = ms /. 1000.0 in
               (match k with
               | "gold" -> gold := s
               | "silver" -> silver := s
               | "bronze" -> bronze := s
               | _ -> die "bad --slo-ms class %S (gold, silver or bronze)" k)
           | None -> die "bad --slo-ms %S (expected class=ms)" part);
  (!gold, !silver, !bronze)

let load_cmd tenants queries seed duration skew burstiness bursts deltas slo_ms
    workers max_workers no_autoscale cache_bytes queue deadlines plan report_path
    verbose =
  with_input_errors @@ fun () ->
  let slo_gold_s, slo_silver_s, slo_bronze_s =
    parse_slo_ms slo_ms (0.05, 0.2, 1.0)
  in
  let spec =
    Rs_load.Load.spec ~tenants ~queries ~seed ~duration_s:duration ~skew ~burstiness
      ~bursts ~deltas ~slo_gold_s ~slo_silver_s ~slo_bronze_s ~deadlines ()
  in
  let load = Rs_load.Load.generate spec in
  let autoscale =
    if no_autoscale then None
    else
      Some
        (Rs_service.Autoscale.policy ~min_workers:workers
           ~max_workers:(max workers max_workers) ~window:16 ~queue_hi:2.0
           ~queue_lo:0.5 ~tail_target_s:slo_gold_s ~cooldown:2
           ~cache_min_bytes:(min cache_bytes (1 * 1024 * 1024))
           ~cache_max_bytes:(max cache_bytes (4 * cache_bytes)) ())
  in
  let config =
    Rs_service.Service.config ~workers
      ~queue_capacity:(match queue with Some q -> q | None -> queries + 8)
      ~cache_bytes ~seed ?autoscale ()
  in
  (* build the store before arming any fault plan: dataset generation is
     setup, not the system under test — only the serve loop (whose retry
     ladder and typed outcomes absorb the faults) runs inside the storm *)
  let store = load.Rs_load.Load.make_store () in
  let run_service () =
    Rs_service.Service.run ~config ~edb:store load.Rs_load.Load.events
  in
  let report =
    match plan with
    | None -> run_service ()
    | Some p -> (
        (* fault storm under load: the SLO scorecard shows what the burst
           train looks like through a chaos plan *)
        match Rs_chaos.Fault.plan_of_string ~seed p with
        | plan -> Rs_chaos.Inject.with_plan plan run_service
        | exception Rs_chaos.Fault.Parse_error m -> die "bad --plan: %s" m)
  in
  print_string (Rs_load.Load.slo_summary load report);
  (match report_path with
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc (Rs_obs.Json.to_string (Rs_load.Load.slo_json load report));
        output_char oc '\n';
        close_out oc
      with Sys_error msg -> die "cannot write report: %s" msg)
  | None -> ());
  if verbose then print_string (Rs_service.Service.report_summary report)

(* Delta-sequence mode: random insert/retract streams maintained through the
   IVM and diffed against a from-scratch recompute at every version. *)
let delta_fuzz_cmd seed iters deltas report_path verbose =
  let log = if verbose then prerr_endline else fun (_ : string) -> () in
  let report = Rs_fuzz.Delta_fuzz.run ~log ~seed ~iters ~deltas () in
  Printf.printf
    "fuzz --delta-stream: seed=%d cases=%d (invalid=%d) versions=%d ops=%d diverged=%d\n"
    report.Rs_fuzz.Delta_fuzz.seed report.Rs_fuzz.Delta_fuzz.cases
    report.Rs_fuzz.Delta_fuzz.invalid report.Rs_fuzz.Delta_fuzz.versions
    report.Rs_fuzz.Delta_fuzz.ops
    (List.length report.Rs_fuzz.Delta_fuzz.divergences);
  List.iter
    (fun (d : Rs_fuzz.Delta_fuzz.divergence) ->
      Printf.printf "  DIVERGENCE seed=%d version=%d pred=%s missing=%d extra=%d\n"
        d.Rs_fuzz.Delta_fuzz.div_seed d.Rs_fuzz.Delta_fuzz.div_version
        d.Rs_fuzz.Delta_fuzz.div_pred
        (List.length d.Rs_fuzz.Delta_fuzz.div_missing)
        (List.length d.Rs_fuzz.Delta_fuzz.div_extra))
    report.Rs_fuzz.Delta_fuzz.divergences;
  (match report_path with
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc (Rs_obs.Json.to_string (Rs_fuzz.Delta_fuzz.report_json report));
        output_char oc '\n';
        close_out oc
      with Sys_error msg -> die "cannot write report: %s" msg)
  | None -> ());
  if not (Rs_fuzz.Delta_fuzz.clean report) then exit 1

let fuzz_cmd seed iters out_dir report_path verbose inject_dedup_fault delta_stream
    deltas =
  if delta_stream then delta_fuzz_cmd seed iters deltas report_path verbose
  else
  let log = if verbose then prerr_endline else fun (_ : string) -> () in
  let campaign () = Rs_fuzz.Fuzz.run ~log ~seed ~iters () in
  let report =
    (* self-test: arm a scoped dedup-drop plan for exactly the campaign; the
       scope (not a bare global flag) guarantees nothing stays injected if
       the campaign dies halfway *)
    if inject_dedup_fault then
      Rs_chaos.Inject.with_plan
        (Rs_chaos.Fault.plan ~seed
           [ Rs_chaos.Fault.spec ~p:0.25 Rs_chaos.Fault.Dedup_drop ])
        campaign
    else campaign ()
  in
  Printf.printf
    "fuzz: seed=%d cases=%d (invalid=%d) runners=%d runs=%d: ok=%d skipped=%d \
     diverged=%d failed=%d\n"
    report.Rs_fuzz.Fuzz.seed report.Rs_fuzz.Fuzz.cases report.Rs_fuzz.Fuzz.invalid
    report.Rs_fuzz.Fuzz.n_runners report.Rs_fuzz.Fuzz.runs_total report.Rs_fuzz.Fuzz.runs_ok
    report.Rs_fuzz.Fuzz.runs_skipped report.Rs_fuzz.Fuzz.runs_diverged
    report.Rs_fuzz.Fuzz.runs_failed;
  (match out_dir with
  | Some dir ->
      List.iter
        (fun path -> Printf.printf "reproducer: %s\n" path)
        (Rs_fuzz.Fuzz.dump_divergences ~dir report)
  | None -> ());
  (match report_path with
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc (Rs_obs.Json.to_string (Rs_fuzz.Fuzz.report_json report));
        output_char oc '\n';
        close_out oc
      with Sys_error msg -> die "cannot write report: %s" msg)
  | None -> ());
  if not (Rs_fuzz.Fuzz.clean report) then exit 1

let chaos_cmd seed iters plan report_path verbose =
  let log = if verbose then prerr_endline else fun (_ : string) -> () in
  let report =
    match Rs_fuzz.Chaos_harness.run ~log ?plan ~seed ~iters () with
    | r -> r
    | exception Rs_chaos.Fault.Parse_error m -> die "bad --plan: %s" m
  in
  Printf.printf
    "chaos: seed=%d cases=%d (invalid=%d) classes=%d recovered=%d typed_rejections=%d \
     leaks=%d violations=%d\n"
    report.Rs_fuzz.Chaos_harness.seed report.Rs_fuzz.Chaos_harness.cases
    report.Rs_fuzz.Chaos_harness.invalid
    (List.length report.Rs_fuzz.Chaos_harness.injected)
    report.Rs_fuzz.Chaos_harness.recovered report.Rs_fuzz.Chaos_harness.rejected_typed
    report.Rs_fuzz.Chaos_harness.leaks
    (List.length report.Rs_fuzz.Chaos_harness.violations);
  List.iter
    (fun (c, n) -> Printf.printf "  injected %-10s %d\n" (Rs_chaos.Fault.cls_name c) n)
    report.Rs_fuzz.Chaos_harness.injected;
  List.iter
    (fun v ->
      Printf.printf "  VIOLATION case %d (seed %d, plan %s): %s\n"
        v.Rs_fuzz.Chaos_harness.v_iter v.Rs_fuzz.Chaos_harness.v_seed
        v.Rs_fuzz.Chaos_harness.v_plan v.Rs_fuzz.Chaos_harness.v_msg;
      List.iter
        (fun w ->
          List.iter
            (fun line -> if line <> "" then Printf.printf "    why: %s\n" line)
            (String.split_on_char '\n' w))
        v.Rs_fuzz.Chaos_harness.v_why)
    report.Rs_fuzz.Chaos_harness.violations;
  (match report_path with
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc
          (Rs_obs.Json.to_string (Rs_fuzz.Chaos_harness.report_json report));
        output_char oc '\n';
        close_out oc
      with Sys_error msg -> die "cannot write report: %s" msg)
  | None -> ());
  if not (Rs_fuzz.Chaos_harness.clean report) then exit 1

let gen_cmd kind n m p seed out =
  let rel =
    match kind with
    | "gnp" -> Rs_datagen.Graphs.gnp ~seed ~n ~p
    | "rmat" -> Rs_datagen.Graphs.rmat ~seed ~n ~m:(if m = 0 then 10 * n else m)
    | other -> (
        match List.assoc_opt other Rs_datagen.Graphs.real_world_profiles with
        | Some _ -> Rs_datagen.Graphs.real_world_like ~seed ~scale:1 other
        | None -> failwith (Printf.sprintf "unknown generator %S (gnp, rmat, or a preset)" other))
  in
  Recstep.Frontend.save_tsv rel out;
  Printf.printf "wrote %d edges to %s\n" (Rs_relation.Relation.nrows rel) out

(* --- cmdliner wiring --- *)

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Datalog program file")

let facts_arg =
  Arg.(value & opt_all string [] & info [ "fact"; "f" ] ~docv:"NAME=PATH" ~doc:"input relation from a TSV file")

let out_arg = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR" ~doc:"write output relations as TSV under DIR")

let engine_arg =
  Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"NAME" ~doc:"evaluate with one of the six registry engines instead of the stock interpreter: RecStep, Souffle-like, bddbddb-like, Graspan-like, BigDatalog-like, Distributed-BigDatalog")

let workers_arg = Arg.(value & opt int 16 & info [ "workers"; "j" ] ~doc:"simulated worker count")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print engine statistics")

let explain_arg =
  Arg.(value & flag & info [ "explain" ] ~doc:"print the stratification and generated query plans instead of evaluating")

let profile_arg =
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc:"record an execution trace (spans, counters, per-iteration deltas) and write it to FILE as JSON; with --verbose also print a summary")

let dsd_arg =
  Arg.(value & opt string "dynamic" & info [ "dsd" ] ~docv:"MODE" ~doc:"set-difference strategy of interpreted strata: dynamic (the cost model; OPSD whenever the table's index persists), opsd, or tpsd. Compiled kernels do the set difference themselves.")

let no_pbme_arg =
  Arg.(value & flag & info [ "no-pbme" ] ~doc:"disable the bit-matrix kernels for TC/SG-shaped strata (forces the relational path)")

let no_kernels_arg =
  Arg.(value & flag & info [ "no-kernels" ] ~doc:"disable the compiled rule kernels (fused join-project-dedup closures for hot recursive rules); every rule takes the interpreted plan path")

let no_persistent_indexes_arg =
  Arg.(value & flag & info [ "no-persistent-indexes" ] ~doc:"disable the fixpoint-lifetime index manager (rebuild join indexes per query, the pre-optimization behavior)")

let run_term =
  Term.(const run_cmd $ program_arg $ facts_arg $ out_arg $ engine_arg $ workers_arg $ verbose_arg $ explain_arg $ profile_arg $ dsd_arg $ no_pbme_arg $ no_kernels_arg $ no_persistent_indexes_arg)

let fact_pos_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"FACT" ~doc:"the fact to explain, e.g. 'tc(1, 3)'")

let sample_arg =
  Arg.(value & opt float 1.0 & info [ "sample" ] ~docv:"RATE" ~doc:"provenance sampling rate in [0,1]: the fraction of tuples tagged (deterministic per tuple content); explain still works below 1.0, tags just stop guiding the search")

let no_provenance_arg =
  Arg.(value & flag & info [ "no-provenance" ] ~doc:"evaluate without recording derivation tags; the explanation is reconstructed by top-down search alone (results are byte-identical either way)")

let max_steps_arg =
  Arg.(value & opt int 200_000 & info [ "max-steps" ] ~docv:"N" ~doc:"proof-search step budget before giving up")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"print the derivation chain as JSON instead of the indented rendering")

let explain_term =
  Term.(
    const explain_cmd $ program_arg $ fact_pos_arg $ facts_arg $ workers_arg
    $ sample_arg $ no_provenance_arg $ max_steps_arg $ json_arg $ verbose_arg)

let script_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"workload script: EDB definitions plus a stream of submit/delta events (see lib/service/script.mli)")

let serve_workers_arg =
  Arg.(value & opt (some int) None & info [ "workers"; "j" ] ~doc:"simulated worker count (default: script setting or 8)")

let queue_arg =
  Arg.(value & opt (some int) None & info [ "queue" ] ~docv:"N" ~doc:"admission queue capacity (default: script setting or 64)")

let cache_bytes_arg =
  Arg.(value & opt (some int) None & info [ "cache-bytes" ] ~docv:"BYTES" ~doc:"result-cache budget in bytes (default: script setting or 64 MiB)")

let no_cache_arg = Arg.(value & flag & info [ "no-cache" ] ~doc:"disable the result cache")

let serve_seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"scheduler seed (default: script setting or 1)")

let mem_budget_arg =
  Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"BYTES" ~doc:"admission + OOM memory budget in bytes (default: script setting or unlimited)")

let report_arg =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc:"write the service report (counters, latency percentiles, per-query dispositions) to FILE as JSON")

let no_ivm_arg =
  Arg.(value & flag & info [ "no-ivm" ] ~doc:"disable incremental view maintenance: deltas always invalidate cached results instead of refreshing them")

let ivm_max_delta_arg =
  Arg.(value & opt (some int) None & info [ "ivm-max-delta" ] ~docv:"OPS" ~doc:"net delta size above which warm refresh falls back to invalidation (default: script setting or 512)")

let serve_no_kernels_arg =
  Arg.(value & flag & info [ "no-kernels" ] ~doc:"disable the compiled rule kernels for engine-less submissions (default: script 'kernels' setting or enabled)")

let serve_autoscale_arg =
  Arg.(value & flag & info [ "autoscale" ] ~doc:"let the service resize its virtual worker pool and cache budget from queue depth and windowed tail latency (default: script 'autoscale' setting or off); --workers becomes the starting size")

let serve_autoscale_min_arg =
  Arg.(value & opt (some int) None & info [ "autoscale-min" ] ~docv:"N" ~doc:"autoscaler worker floor (default: script setting or 1)")

let serve_autoscale_max_arg =
  Arg.(value & opt (some int) None & info [ "autoscale-max" ] ~docv:"N" ~doc:"autoscaler worker ceiling (default: script setting or 4x --workers)")

let serve_term =
  Term.(
    const serve_cmd $ script_arg $ serve_workers_arg $ queue_arg $ cache_bytes_arg
    $ no_cache_arg $ serve_seed_arg $ mem_budget_arg $ no_ivm_arg $ ivm_max_delta_arg
    $ serve_no_kernels_arg $ serve_autoscale_arg
    $ serve_autoscale_min_arg $ serve_autoscale_max_arg $ report_arg $ verbose_arg)

let tenants_arg =
  Arg.(value & opt int 10_000 & info [ "tenants" ] ~docv:"N" ~doc:"tenant population size (Zipf ranks)")

let load_queries_arg =
  Arg.(value & opt int 400 & info [ "queries"; "n" ] ~docv:"K" ~doc:"total submissions over the horizon")

let load_seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"workload + scheduler seed")

let duration_arg =
  Arg.(value & opt float 0.5 & info [ "duration" ] ~docv:"S" ~doc:"arrival horizon in simulated seconds")

let skew_arg =
  Arg.(value & opt float 1.1 & info [ "skew" ] ~docv:"S" ~doc:"Zipf exponent of the tenant traffic distribution (0 = uniform)")

let burstiness_arg =
  Arg.(value & opt float 0.7 & info [ "burstiness" ] ~docv:"F" ~doc:"fraction of arrivals inside burst windows (0..1)")

let bursts_arg =
  Arg.(value & opt int 4 & info [ "bursts" ] ~docv:"K" ~doc:"burst windows across the horizon")

let load_deltas_arg =
  Arg.(value & opt int 4 & info [ "deltas" ] ~docv:"K" ~doc:"EDB churn events spread over the horizon")

let slo_ms_arg =
  Arg.(value & opt string "" & info [ "slo-ms" ] ~docv:"SPEC" ~doc:"per-class SLO latency targets in milliseconds, e.g. 'gold=50,silver=200,bronze=1000' (defaults 50/200/1000)")

let load_workers_arg =
  Arg.(value & opt int 2 & info [ "workers"; "j" ] ~doc:"initial (and autoscaler floor) simulated worker count")

let load_max_workers_arg =
  Arg.(value & opt int 16 & info [ "max-workers" ] ~docv:"N" ~doc:"autoscaler worker ceiling")

let no_autoscale_arg =
  Arg.(value & flag & info [ "no-autoscale" ] ~doc:"hold the worker count and cache budget fixed at their initial sizes")

let load_cache_bytes_arg =
  Arg.(value & opt int (1 * 1024 * 1024) & info [ "cache-bytes" ] ~docv:"BYTES" ~doc:"initial result-cache budget (0 disables)")

let load_queue_arg =
  Arg.(value & opt (some int) None & info [ "queue" ] ~docv:"N" ~doc:"admission queue capacity (default: admit the whole workload)")

let deadlines_arg =
  Arg.(value & flag & info [ "deadlines" ] ~doc:"attach hard per-query deadlines at 8x the class SLO target")

let load_report_arg =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc:"write the SLO report (per-class latency histograms, attainment, autoscale counters, busiest tenants) to FILE as JSON")

let kind_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND" ~doc:"gnp | rmat | livejournal | orkut | arabic | twitter")

let n_arg = Arg.(value & opt int 1000 & info [ "n"; "num-vertices" ] ~doc:"vertex count")

let m_arg = Arg.(value & opt int 0 & info [ "m"; "num-edges" ] ~doc:"edge count (rmat; default 10n)")

let p_arg = Arg.(value & opt float 0.001 & info [ "p"; "prob" ] ~doc:"edge probability (gnp)")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed")

let gen_out_arg = Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"PATH" ~doc:"output TSV path")

let gen_term = Term.(const gen_cmd $ kind_arg $ n_arg $ m_arg $ p_arg $ seed_arg $ gen_out_arg)

let fuzz_seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"campaign seed (per-case seeds derive from it deterministically)")

let iters_arg = Arg.(value & opt int 50 & info [ "iters"; "n" ] ~docv:"K" ~doc:"number of random cases to generate and diff")

let fuzz_out_arg =
  Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc:"dump each shrunk reproducer under DIR as a runnable .dl plus one .tsv per input relation")

let fuzz_report_arg =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc:"write the campaign report (counters, divergences, failures) to FILE as JSON")

let inject_dedup_fault_arg =
  Arg.(value & flag & info [ "inject-dedup-fault" ] ~doc:"self-test: deterministically drop a fraction of fresh keys in the fast dedup paths; the campaign must catch and shrink the resulting divergences")

let delta_stream_arg =
  Arg.(value & flag & info [ "delta-stream" ] ~doc:"delta-sequence mode: per case, stream random insert/retract deltas through incremental view maintenance and diff the maintained IDBs against a from-scratch recompute at every version")

let deltas_arg =
  Arg.(value & opt int 8 & info [ "deltas" ] ~docv:"K" ~doc:"delta-stream mode: versions (deltas) per case")

let fuzz_term =
  Term.(
    const fuzz_cmd $ fuzz_seed_arg $ iters_arg $ fuzz_out_arg $ fuzz_report_arg
    $ verbose_arg $ inject_dedup_fault_arg $ delta_stream_arg $ deltas_arg)

let chaos_iters_arg =
  Arg.(value & opt int 50 & info [ "iters"; "n" ] ~docv:"K" ~doc:"number of chaos cases (program x fault plan) to run")

let plan_arg =
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN" ~doc:"force one fault plan for every case instead of the builtin rotation; syntax: 'class:key=value,...;class:...' with classes mem, txn, stall, crash, dedup, dedup_drop, index, cache, delta, kernel — e.g. 'mem:p=1,threshold=65536,limit=1;crash:p=0.5'")

let chaos_report_arg =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc:"write the campaign report (per-class fire counts, outcome histogram, violations, leaks) to FILE as JSON")

let chaos_term =
  Term.(
    const chaos_cmd $ fuzz_seed_arg $ chaos_iters_arg $ plan_arg $ chaos_report_arg
    $ verbose_arg)

let load_term =
  Term.(
    const load_cmd $ tenants_arg $ load_queries_arg $ load_seed_arg $ duration_arg
    $ skew_arg $ burstiness_arg $ bursts_arg $ load_deltas_arg $ slo_ms_arg
    $ load_workers_arg $ load_max_workers_arg $ no_autoscale_arg
    $ load_cache_bytes_arg $ load_queue_arg $ deadlines_arg $ plan_arg
    $ load_report_arg $ verbose_arg)

let () =
  let run = Cmd.v (Cmd.info "run" ~doc:"evaluate a Datalog program") run_term in
  let serve =
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "replay a multi-tenant query workload through the serving layer (admission \
            control, tenant-fair scheduling, result cache)")
      serve_term
  in
  let explain =
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "why-provenance: evaluate the program and print the full rule + premise \
            derivation chain of one fact, down to the EDB leaves (exit 1 if the fact \
            is absent or underivable)")
      explain_term
  in
  let gen = Cmd.v (Cmd.info "gen" ~doc:"generate benchmark datasets") gen_term in
  let fuzz =
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "differential fuzzing: random stratified programs diffed against a naive \
            reference evaluator across every baseline engine and the full \
            optimization-toggle matrix; failing cases are shrunk to minimal \
            reproducers (exit 1 on any divergence or failure)")
      fuzz_term
  in
  let chaos =
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "chaos campaign: generated programs run through the serving stack under \
            seeded fault plans (allocation failures, txn aborts, worker stalls and \
            crashes, dedup/index failures, cache corruption); every case must end in \
            a correct result or a typed rejection with no memory leaked (exit 1 \
            otherwise)")
      chaos_term
  in
  let load =
    Cmd.v
      (Cmd.info "load"
         ~doc:
           "drive the serving layer with a synthetic multi-tenant load model: \
            Zipf-skewed tenant traffic in bursty open-loop arrivals over shared \
            size-class databases, per-class SLO targets, and (by default) the \
            autoscaler resizing workers and cache from queue depth and tail \
            latency; prints the per-class SLO scorecard")
      load_term
  in
  let main = Cmd.group (Cmd.info "recstep" ~doc:"RecStep: Datalog on a parallel relational backend") [ run; explain; serve; load; gen; fuzz; chaos ] in
  exit (Cmd.eval main)
