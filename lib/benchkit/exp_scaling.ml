(** Figures 8 and 9: RecStep scalability.

    Figure 8 sweeps the (simulated) core count on CSPA/httpd and
    CC/livejournal and reports speedup over one core. Figure 9 sweeps data
    size: CC on the RMAT series, and Andersen's analysis on the seven
    synthetic datasets with the paper's "theoretical-linear" reference
    line. *)

module Interpreter = Recstep.Interpreter

let core_counts = [ 1; 2; 4; 8; 16; 20; 32; 40 ]

let time_of (r : Measure.run) =
  match r.Measure.outcome with Measure.Done t -> t | _ -> nan

let run_at (w : Workloads.t) workers =
  time_of
    (Measure.run ~workers ~name:(Printf.sprintf "%s @%d" w.Workloads.label workers)
       ~make_inputs:w.Workloads.make_edb
       (fun edb pool ~deadline_vs ~trace ->
         let options = Interpreter.options ?timeout_vs:deadline_vs ?trace () in
         ignore (Interpreter.run ~options ~pool ~edb w.Workloads.program)))

(* The median of three runs at each core count, each count after a heap
   compaction; [nan] if any of the three failed. *)
let speedup_series (w : Workloads.t) =
  List.map
    (fun workers ->
      Gc.compact ();
      let times = List.sort compare (List.init 3 (fun _ -> run_at w workers)) in
      (workers, if List.exists Float.is_nan times then nan else List.nth times 1))
    core_counts

let fig8 ~scale =
  Report.section ~id:"fig8" ~title:"Scaling-up cores: speedup over 1 thread";
  (* fixed per-query overheads dominate tiny inputs, so the core sweep uses
     4x the harness scale — the paper's inputs are minutes long *)
  let scale = 12 * scale in
  let workloads =
    [
      Workloads.cspa ~scale "httpd";
      Workloads.cc (List.assoc "livejournal" (Workloads.real_world ~scale)
                    |> fun f -> ("livejournal", f));
    ]
  in
  (* one discarded run per workload, so that the sweep starts on a warm
     heap rather than its first core count paying for the warm-up *)
  List.iter (fun w -> ignore (run_at w 1)) workloads;
  let header = "workload" :: List.map string_of_int core_counts in
  Rs_util.Table_printer.print ~header
    (List.map
       (fun w ->
         let series = speedup_series w in
         let t1 = List.assoc 1 series in
         w.Workloads.label
         :: List.map (fun (_, t) -> Printf.sprintf "%.2fx" (t1 /. t)) series)
       workloads)

let fig9 ~scale =
  Report.section ~id:"fig9" ~title:"Scaling-up data: CC on RMAT; AA on datasets 1-7";
  let rmat = Workloads.rmat_series ~scale ~points:6 in
  let cc_rows =
    List.map
      (fun g ->
        let w = Workloads.cc g in
        let r =
          Measure.run ~name:w.Workloads.label ~make_inputs:w.Workloads.make_edb
            (fun edb pool ~deadline_vs ~trace ->
              let options = Interpreter.options ?timeout_vs:deadline_vs ?trace () in
              ignore (Interpreter.run ~options ~pool ~edb w.Workloads.program))
        in
        (fst g, time_of r))
      rmat
  in
  Rs_util.Table_printer.print ~header:("CC on" :: List.map fst cc_rows)
    [ "time (s)" :: List.map (fun (_, t) -> Printf.sprintf "%.3f" t) cc_rows ];
  let aa_rows =
    List.map
      (fun n ->
        let w = Workloads.andersen ~scale n in
        let r =
          Measure.run ~name:w.Workloads.label ~make_inputs:w.Workloads.make_edb
            (fun edb pool ~deadline_vs ~trace ->
              let options = Interpreter.options ?timeout_vs:deadline_vs ?trace () in
              ignore (Interpreter.run ~options ~pool ~edb w.Workloads.program))
        in
        (n, time_of r))
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  let t1 = snd (List.hd aa_rows) in
  Rs_util.Table_printer.print
    ~header:("AA dataset" :: List.map (fun (n, _) -> string_of_int n) aa_rows)
    [
      "actual time (s)" :: List.map (fun (_, t) -> Printf.sprintf "%.3f" t) aa_rows;
      (* dataset n has n times the variables of dataset 1 *)
      "theoretical-linear"
      :: List.map (fun (n, _) -> Printf.sprintf "%.3f" (t1 *. float_of_int n)) aa_rows;
    ]

let run ~scale =
  fig8 ~scale;
  fig9 ~scale
