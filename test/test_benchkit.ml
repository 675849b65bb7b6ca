module Measure = Rs_benchkit.Measure
module Report = Rs_benchkit.Report
module Workloads = Rs_benchkit.Workloads
module Registry = Rs_benchkit.Registry

let check = Alcotest.(check bool)

let test_measure_done () =
  let r =
    Measure.run ~name:"ok" ~make_inputs:(fun () -> ()) (fun () pool ~deadline_vs ~trace:_ ->
        ignore deadline_vs;
        Rs_parallel.Pool.add_serial pool 0.5)
  in
  (match r.Measure.outcome with
  | Measure.Done t -> check "time includes modeled serial" true (t >= 0.5)
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check string) "cell" "0.500"
    (Measure.outcome_cell (Measure.Done 0.4999999))

let test_measure_oom () =
  let r =
    Measure.run ~mem_budget:100 ~name:"oom" ~make_inputs:(fun () -> ())
      (fun () _pool ~deadline_vs ~trace:_ ->
        ignore deadline_vs;
        Rs_storage.Memtrack.alloc 1000)
  in
  check "oom" true (r.Measure.outcome = Measure.Oom);
  Alcotest.(check string) "cell" "OOM" (Measure.outcome_cell r.Measure.outcome)

let test_measure_timeout_and_unsupported () =
  let r =
    Measure.run ~timeout_vs:0.1 ~name:"to" ~make_inputs:(fun () -> ())
      (fun () _pool ~deadline_vs ~trace:_ ->
        match deadline_vs with
        | Some d -> raise (Recstep.Interpreter.Timeout_simulated d)
        | None -> Alcotest.fail "deadline not passed through")
  in
  check "timeout" true (r.Measure.outcome = Measure.Timeout);
  let r2 =
    Measure.run ~name:"unsup" ~make_inputs:(fun () -> ())
      (fun () _ ~deadline_vs ~trace:_ ->
        ignore deadline_vs;
        raise (Rs_engines.Engine_intf.Unsupported "x"))
  in
  Alcotest.(check string) "cell" "-" (Measure.outcome_cell r2.Measure.outcome)

let test_measure_repeats_average () =
  let calls = ref 0 in
  let r =
    Measure.run ~repeats:3 ~name:"rep" ~make_inputs:(fun () -> incr calls)
      (fun () pool ~deadline_vs ~trace:_ ->
        ignore deadline_vs;
        Rs_parallel.Pool.add_serial pool 0.2)
  in
  Alcotest.(check int) "warmup + 3 runs" 4 !calls;
  match r.Measure.outcome with
  | Measure.Done t -> check "avg near 0.2" true (t >= 0.2 && t < 0.25)
  | _ -> Alcotest.fail "expected Done"

let test_resample () =
  let series = [ (0.0, 1.0); (0.5, 2.0); (0.9, 3.0) ] in
  Alcotest.(check (list (float 1e-9))) "lvcf resample" [ 1.0; 2.0; 2.0; 3.0 ]
    (Report.resample series ~span:1.0 ~points:4)

let test_registry () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "24 experiments" 24 (List.length ids);
  check "unique ids" true (List.length (List.sort_uniq compare ids) = List.length ids);
  check "find" true (Registry.find "fig10" <> None);
  check "find missing" true (Registry.find "fig99" = None);
  List.iter
    (fun id -> check ("has " ^ id) true (List.mem id ids))
    [ "table1"; "fig2"; "fig3"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
      "fig13"; "fig14"; "fig15"; "fig16"; "table4"; "costmodel"; "coord_sweep"; "uie_sharing";
      "service"; "load"; "join"; "ivm"; "kernel" ]

let test_workload_catalog () =
  let gn = Workloads.gn_series ~scale:1 in
  Alcotest.(check int) "seven Gn graphs" 7 (List.length gn);
  let rw = Workloads.real_world ~scale:1 in
  Alcotest.(check (list string)) "presets"
    [ "livejournal"; "orkut"; "arabic"; "twitter" ]
    (List.map fst rw);
  let w = Workloads.tc (List.hd gn) in
  check "label" true (w.Workloads.label = "TC/G100");
  let edb = w.Workloads.make_edb () in
  check "arc input" true (List.mem_assoc "arc" edb);
  let r = Workloads.reach (List.hd gn) in
  let redb = r.Workloads.make_edb () in
  check "id input" true (List.mem_assoc "id" redb);
  let s = Workloads.sssp (List.hd gn) in
  let sedb = s.Workloads.make_edb () in
  Alcotest.(check int) "weighted arc" 3
    (Rs_relation.Relation.arity (List.assoc "arc" sedb))

let test_run_one_engine () =
  let w = Workloads.tc ("tiny", fun () -> Recstep.Frontend.edges [ (0, 1); (1, 2) ]) in
  let r = Report.run_one Rs_engines.Engines.recstep w in
  check "engine ran" true (match r.Measure.outcome with Measure.Done _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "measure done" `Quick test_measure_done;
    Alcotest.test_case "measure OOM" `Quick test_measure_oom;
    Alcotest.test_case "measure timeout/unsupported" `Quick test_measure_timeout_and_unsupported;
    Alcotest.test_case "measure repeats" `Quick test_measure_repeats_average;
    Alcotest.test_case "resample" `Quick test_resample;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "workload catalog" `Quick test_workload_catalog;
    Alcotest.test_case "run_one engine" `Quick test_run_one_engine;
  ]
