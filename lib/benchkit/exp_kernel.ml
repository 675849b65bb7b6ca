(** Compiled rule kernels vs the interpreted fixpoint.

    The interpreter's relational loop pays a fixed per-query dispatch
    overhead and materializes an intermediate bag per delta plan per
    iteration; the compiled kernels ({!Rs_exec.Kernel}) fuse
    join→project→dedup→set difference into one loop that appends the Δ to
    the head table itself, and skip both. This experiment runs
    the same recursive workloads with [compiled_kernels] on and off (PBME
    held off, so the relational path under test actually executes) on fresh
    pools and compares {e simulated} runtimes. TC's delta plan is exactly
    the fused binary shape, so its speedup is the headline number; SG's
    recursive rule is a three-atom join driven from its middle Δ-atom, so
    it exercises the n-way chain shape: one compiled rule whose two steps
    probe [arc]'s index on its first column. CSPA's non-linear, mutually
    recursive rules read the old rows of the atoms before their Δ
    ([Rs_exec.Plan.Old], the rows of the table below its Δ range), as a
    bounded build side or chain step, while the round's kernels append to
    those same tables; its
    dedup probe counts must be equal on both sides, which shows both paths
    run the same exact delta plans. Outputs must be byte-identical on both
    sides of every row. Results land in [BENCH_kernel.json], one record
    whose [failed] counts the workloads whose outputs diverged. *)

module Interpreter = Recstep.Interpreter
module Programs = Recstep.Programs
module Relation = Rs_relation.Relation
module Graphs = Rs_datagen.Graphs
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace

let canon rel = List.map Array.to_list (Relation.sorted_distinct_rows rel)

(* Layered random DAG (forward edges only): the closure is deep — ~n
   semi-naive iterations — which is precisely the regime the kernels
   target; a dense or shallow graph would hide the per-iteration overhead
   they remove. Same shape as the IVM experiment's generator. TC runs it at
   1024 nodes, so that the kernels-on side takes about a quarter of a
   simulated second and host-timing noise stays small beside it (at 192
   nodes it took under 10 ms). *)
let dag ~seed ~n ~deg =
  let state = ref seed in
  let rand m =
    state := (!state * 48271) mod 0x7fffffff;
    !state mod m
  in
  let rows = ref [] in
  for u = 0 to n - 2 do
    for _ = 1 to deg do
      let v = u + 1 + rand (min 3 (n - 1 - u)) in
      rows := [| u; v |] :: !rows
    done
  done;
  Relation.of_rows ~name:"arc" 2 !rows

let run_side ~kernels program edb =
  let pool = Pool.create ~workers:8 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let options =
    Interpreter.options ~pbme:false ~compiled_kernels:kernels ~trace ()
  in
  let result =
    Interpreter.run ~options ~pool
      ~edb:(List.map (fun (name, rel) -> (name, Relation.copy rel)) edb)
      program
  in
  let outputs =
    List.map
      (fun name -> (name, canon (result.Interpreter.relation_of name)))
      (List.sort compare program.Recstep.Ast.outputs)
  in
  (outputs, (Pool.stats pool).Pool.vtime, trace)

let workload ~name ~src ~edb =
  let program = Programs.parsed src in
  let on_out, on_s, on_tr = run_side ~kernels:true program edb in
  let off_out, off_s, off_tr = run_side ~kernels:false program edb in
  let edges = List.fold_left (fun acc (_, rel) -> acc + Relation.nrows rel) 0 edb in
  let identical = on_out = off_out in
  let ratio = if on_s > 0. then off_s /. on_s else 0. in
  let compiled = Trace.counter on_tr "kernel.compiled_rules" in
  let row =
    [
      name;
      string_of_int edges;
      string_of_int compiled;
      Printf.sprintf "%.4f" off_s;
      Printf.sprintf "%.4f" on_s;
      Printf.sprintf "%.1fx" ratio;
      (if identical then "yes" else "NO");
    ]
  in
  let count n = float_of_int n in
  let metrics =
    List.map
      (fun (m, v, u) -> (name ^ "." ^ m, v, u))
      [
        ("edges", count edges, "count");
        ("compiled_rules", count compiled, "count");
        ("fallback_rules", count (Trace.counter on_tr "kernel.fallback_rules"), "count");
        ("fused_probes", count (Trace.counter on_tr "kernel.fused_probes"), "count");
        ("emitted", count (Trace.counter on_tr "kernel.emitted"), "count");
        ("dedup_probes_on", count (Trace.counter on_tr "dedup.probes"), "count");
        ("dedup_probes_off", count (Trace.counter off_tr "dedup.probes"), "count");
        ("kernels_off_s", off_s, "sim_s");
        ("kernels_on_s", on_s, "sim_s");
        ("ratio", ratio, "ratio");
      ]
  in
  (row, metrics, (name, ratio, identical, compiled))

let exp ~scale =
  Report.section ~id:"kernel"
    ~title:"EXTRA: compiled rule kernels vs interpreted fixpoint";
  let tc_arc = dag ~seed:11 ~n:(1024 * scale) ~deg:2 in
  let sg_arc = Graphs.gnp ~seed:3 ~n:(48 * scale) ~p:0.06 in
  let results =
    [
      workload ~name:"tc" ~src:Programs.tc ~edb:[ ("arc", tc_arc) ];
      workload ~name:"sg" ~src:Programs.sg ~edb:[ ("arc", sg_arc) ];
      workload ~name:"cspa" ~src:Programs.cspa
        ~edb:(Rs_datagen.Prog_analysis.cspa_input ~seed:3 ~scale "httpd");
    ]
  in
  Rs_util.Table_printer.print
    ~header:
      [ "workload"; "edges"; "compiled"; "interp (s)"; "kernels (s)"; "speedup";
        "identical" ]
    (List.map (fun (row, _, _) -> row) results);
  List.iter
    (fun (_, _, (name, ratio, identical, compiled)) ->
      Report.note
        (Printf.sprintf "(%s: %d compiled rules, %.1fx, outputs %s)" name compiled
           ratio
           (if identical then "identical" else "DIVERGED")))
    results;
  Report.write_record "BENCH_kernel.json" ~attempted:(List.length results)
    ~failed:(List.length (List.filter (fun (_, _, (_, _, identical, _)) -> not identical) results))
    (List.concat_map (fun (_, m, _) -> m) results)

let run ~scale = exp ~scale
