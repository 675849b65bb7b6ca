(** Table 1 (qualitative system matrix), Table 4 (CPU efficiency) and the
    Appendix-A DSD cost-model validation. *)

module Engines = Rs_engines.Engines
module Engine_intf = Rs_engines.Engine_intf
module Cost = Rs_exec.Cost

let table1 () =
  Report.section ~id:"table1" ~title:"Summary of comparison between systems (paper Table 1)";
  let engines =
    [ Engines.graspan_like; Engines.bddbddb_like; Engines.bigdatalog_like;
      Engines.souffle_like; Engines.recstep ]
  in
  let yn b = if b then "yes" else "no" in
  let row label f =
    label :: List.map (fun (module E : Engine_intf.S) -> f E.capabilities) engines
  in
  Rs_util.Table_printer.print
    ~header:("aspect" :: List.map (fun (module E : Engine_intf.S) -> E.name) engines)
    [
      row "Scale-Up" (fun c -> yn c.Engine_intf.scale_up);
      row "Scale-Out" (fun c -> yn c.Engine_intf.scale_out);
      row "Memory Consumption" (fun c -> c.Engine_intf.memory_consumption);
      row "CPU Utilization" (fun c -> c.Engine_intf.cpu_utilization);
      row "CPU Efficiency" (fun c -> c.Engine_intf.cpu_efficiency);
      row "Hyperparameter Tuning" (fun c -> c.Engine_intf.tuning_required);
      row "Mutual Recursion" (fun c -> yn c.Engine_intf.mutual_recursion);
      row "Non-Recursive Aggregation" (fun c -> yn c.Engine_intf.nonrecursive_aggregation);
      row "Recursive Aggregation" (fun c -> yn c.Engine_intf.recursive_aggregation);
      row "Incremental Maintenance" (fun c ->
          if c.Engine_intf.incremental then "yes" else "recompute");
    ]

(* Table 4: ce = 1 / (time * cores) on representative workloads. *)
let table4 ~scale =
  Report.section ~id:"table4" ~title:"CPU efficiency ce = 1/(t*n) (paper Table 4)";
  let orkut = ("orkut", List.assoc "orkut" (Workloads.real_world ~scale)) in
  let dense = List.nth (Workloads.gn_series ~scale) 3 in
  let rows =
    [
      ("TC (dense G)", Workloads.tc dense,
       [ Engines.bigdatalog_like; Engines.distributed_bigdatalog; Engines.souffle_like; Engines.recstep ]);
      ("SG (dense G)", Workloads.sg (List.nth (Workloads.gn_series ~scale) 2),
       [ Engines.bigdatalog_like; Engines.distributed_bigdatalog; Engines.souffle_like; Engines.recstep ]);
      ("REACH (orkut)", Workloads.reach orkut,
       [ Engines.bigdatalog_like; Engines.distributed_bigdatalog; Engines.souffle_like; Engines.recstep ]);
      ("CC (orkut)", Workloads.cc orkut,
       [ Engines.bigdatalog_like; Engines.distributed_bigdatalog; Engines.recstep ]);
      ("SSSP (orkut)", Workloads.sssp orkut,
       [ Engines.bigdatalog_like; Engines.distributed_bigdatalog; Engines.recstep ]);
      ("AA (dataset 5)", Workloads.andersen ~scale 5,
       [ Engines.bigdatalog_like; Engines.souffle_like; Engines.recstep ]);
      ("CSDA (linux)", Workloads.csda ~scale "linux",
       [ Engines.graspan_like; Engines.bigdatalog_like; Engines.souffle_like; Engines.recstep ]);
      ("CSPA (linux)", Workloads.cspa ~scale "linux",
       [ Engines.graspan_like; Engines.souffle_like; Engines.recstep ]);
    ]
  in
  let all_names = List.map Engines.name Engines.all in
  let cells =
    List.map
      (fun (label, w, engines) ->
        let by_engine =
          List.map
            (fun (module E : Engine_intf.S) ->
              let r = Report.run_one ~timeout_vs:60.0 (module E) w in
              let cell =
                match r.Measure.outcome with
                | Measure.Done t -> Printf.sprintf "%.2e" (1.0 /. (t *. float_of_int r.Measure.workers))
                | o -> Measure.outcome_cell o
              in
              (E.name, cell))
            engines
        in
        (label, by_engine))
      rows
  in
  Rs_util.Table_printer.print ~header:("workload" :: all_names)
    (List.map
       (fun (label, by_engine) ->
         label
         :: List.map (fun n -> Option.value (List.assoc_opt n by_engine) ~default:"-") all_names)
       cells)

(* Appendix A: calibrate alpha, then verify that the cost model picks the
   faster set-difference translation across beta. *)
let costmodel () =
  Report.section ~id:"costmodel"
    ~title:"DSD cost model (Appendix A): measured OPSD vs TPSD against the model's choice";
  let pool = Rs_parallel.Pool.create () in
  Rs_parallel.Pool.begin_run pool;
  let alpha = Cost.calibrate pool () in
  Printf.printf "calibrated alpha = %.2f (threshold beta >= %.2f favours TPSD)\n" alpha
    (2.0 *. alpha /. (alpha -. 1.0));
  let n_delta = 20000 in
  let rng = Rs_util.Rng.create 4242 in
  let betas = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ] in
  let rows =
    List.map
      (fun beta ->
        let n_r = int_of_float (beta *. float_of_int n_delta) in
        let r = Rs_relation.Relation.create ~name:"R" 2 in
        for i = 0 to n_r - 1 do
          Rs_relation.Relation.push2 r i (Rs_util.Rng.int rng 1000000)
        done;
        (* half of Rdelta intersects R *)
        let rdelta = Rs_relation.Relation.create ~name:"Rdelta" 2 in
        for i = 0 to n_delta - 1 do
          if i mod 2 = 0 && n_r > 0 then begin
            let row = Rs_util.Rng.int rng n_r in
            Rs_relation.Relation.push2 rdelta
              (Rs_relation.Relation.get r ~row ~col:0)
              (Rs_relation.Relation.get r ~row ~col:1)
          end
          else
            Rs_relation.Relation.push2 rdelta (1000000 + i) (Rs_util.Rng.int rng 1000000)
        done;
        let catalog = Rs_exec.Catalog.create () in
        let exec = Rs_exec.Executor.create ~query_overhead_s:0.0 pool catalog in
        let time f =
          let t0 = Rs_util.Clock.now () in
          let delta = f () in
          let t = Rs_util.Clock.now () -. t0 in
          Rs_relation.Relation.release delta;
          t
        in
        let t_opsd = time (fun () -> Rs_exec.Executor.opsd exec ~rdelta ~r ()) in
        let t_tpsd = time (fun () -> Rs_exec.Executor.tpsd exec ~rdelta ~r ()) in
        let model =
          Cost.choose ~alpha ~r_index_persists:false ~r_rows:n_r ~rdelta_rows:n_delta
            ~mu_prev:(Some 2.0)
        in
        [
          Printf.sprintf "%.1f" beta;
          Printf.sprintf "%.4f" t_opsd;
          Printf.sprintf "%.4f" t_tpsd;
          (match model with Cost.Opsd -> "OPSD" | Cost.Tpsd -> "TPSD");
          (if t_opsd <= t_tpsd then "OPSD" else "TPSD");
        ])
      betas
  in
  Rs_util.Table_printer.print
    ~header:[ "beta=|R|/|Rd|"; "OPSD (s)"; "TPSD (s)"; "model picks"; "measured winner" ]
    rows

let run ~scale =
  table1 ();
  table4 ~scale;
  costmodel ()
