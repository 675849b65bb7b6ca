module Table_printer = Rs_util.Table_printer
module Engine_intf = Rs_engines.Engine_intf

let section ~id ~title =
  Printf.printf "\n=== %s: %s ===\n%!" id title

let note msg = Printf.printf "%s\n%!" msg

let write_record file ~attempted ~failed metrics =
  let module Json = Rs_obs.Json in
  let metric (name, value, unit_) =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  let record =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj (List.map metric metrics));
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string record);
  output_char oc '\n';
  close_out oc;
  note (Printf.sprintf "(wrote %s)" file)

let run_one ?workers ?mem_budget ?timeout_vs (module E : Engine_intf.S) (w : Workloads.t) =
  let mem_budget =
    (* the paper's Distributed-BigDatalog cluster has 450 GB vs the server's
       160 GB: scale the budget accordingly *)
    let base = Option.value mem_budget ~default:(Rs_storage.Memtrack.machine_bytes ()) in
    if E.name = "Distributed-BigDatalog" then
      int_of_float (2.8 *. float_of_int base)
    else base
  in
  Measure.run ?workers ~mem_budget ?timeout_vs
    ~name:(Printf.sprintf "%s on %s" E.name w.Workloads.label)
    ~make_inputs:w.Workloads.make_edb
    (fun edb pool ~deadline_vs ~trace ->
      let result = E.run ~pool ?deadline_vs ?trace ~edb w.Workloads.program in
      (* touch the output so lazy engines cannot cheat *)
      ignore
        (Rs_relation.Relation.nrows
           (result.Engine_intf.relation_of w.Workloads.output)))

let cross_table ?workers ?mem_budget ?timeout_vs ~engines ~workloads () =
  let rows =
    List.map
      (fun (module E : Engine_intf.S) ->
        let runs = List.map (run_one ?workers ?mem_budget ?timeout_vs (module E)) workloads in
        (E.name, runs))
      engines
  in
  let header = "system" :: List.map (fun w -> w.Workloads.label) workloads in
  Table_printer.print ~header
    (List.map
       (fun (name, runs) -> name :: List.map (fun r -> Measure.outcome_cell r.Measure.outcome) runs)
       rows);
  rows

let resample series ~span ~points =
  let arr = Array.of_list series in
  List.init points (fun i ->
      let t = span *. float_of_int (i + 1) /. float_of_int points in
      (* last value at or before t *)
      let v = ref 0.0 in
      Array.iter (fun (ts, vs) -> if ts <= t then v := vs) arr;
      !v)

let timeline_table ~title ~unit series =
  let span =
    List.fold_left
      (fun acc (_, s) -> List.fold_left (fun a (t, _) -> max a t) acc s)
      1e-9 series
  in
  let points = 10 in
  let header =
    title
    :: List.init points (fun i ->
           Printf.sprintf "%.2fs" (span *. float_of_int (i + 1) /. float_of_int points))
  in
  let rows =
    List.map
      (fun (name, s) ->
        name :: List.map (fun v -> Printf.sprintf "%.1f%s" v unit) (resample s ~span ~points))
      series
  in
  Table_printer.print ~header rows
