(** Why-provenance recording overhead: the same recursive workloads run
    with a tag store attached and without one.

    Tags are recorded out of band at the absorption point, so the only
    legitimate costs are the per-candidate sampling scan and the per-tag
    hash insert — both charged to the simulated clock. The contract this
    experiment pins: outputs byte-identical on both sides (tags never touch
    the relations), full tag coverage at sample 1.0, and simulated runtime
    within 2x of the untagged run — cheap enough to leave on in a serving
    deployment, which is what makes [recstep explain] answerable from a
    warm view instead of a dedicated debug rerun. Results land in
    [BENCH_prov.json]. *)

module Interpreter = Recstep.Interpreter
module Provenance = Recstep.Provenance
module Programs = Recstep.Programs
module Relation = Rs_relation.Relation
module Graphs = Rs_datagen.Graphs
module Pool = Rs_parallel.Pool

let canon rel = List.map Array.to_list (Relation.sorted_distinct_rows rel)

(* Same deep layered DAG as the kernel experiment: many semi-naive
   iterations, so per-absorption costs actually accumulate. *)
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

(* The clock covers [Interpreter.run] and nothing else: each side starts
   from a collected heap, so neither pays for the other's garbage, and the
   outputs are canonicalised after the clock is read. *)
let run_side ?prov program arc =
  let edb = [ ("arc", Relation.copy arc) ] in
  Gc.full_major ();
  let pool = Pool.create ~workers:8 () in
  Pool.begin_run pool;
  let options =
    match prov with
    | Some p -> Interpreter.options ~provenance:p ()
    | None -> Interpreter.options ()
  in
  let result = Interpreter.run ~options ~pool ~edb program in
  let vtime = (Pool.stats pool).Pool.vtime in
  let outputs =
    List.map
      (fun name -> (name, canon (result.Interpreter.relation_of name)))
      (List.sort compare program.Recstep.Ast.outputs)
  in
  (outputs, vtime)

let workload ~name ~src ~arc =
  let program = Programs.parsed src in
  (* The first run of a workload grows the heap for it; run once untimed
     so that neither timed side pays for that. *)
  ignore (run_side program arc);
  let prov = Provenance.create () in
  let on_out, on_s = run_side ~prov program arc in
  let off_out, off_s = run_side program arc in
  let identical = on_out = off_out in
  let overhead = if off_s > 0. then on_s /. off_s else 0. in
  let out_rows = List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 on_out in
  let full_coverage =
    List.for_all
      (fun (p, rows) -> Provenance.tagged prov ~pred:p = List.length rows)
      on_out
  in
  let row =
    [
      name;
      string_of_int (Relation.nrows arc);
      string_of_int out_rows;
      string_of_int (Provenance.recorded prov);
      Printf.sprintf "%.4f" off_s;
      Printf.sprintf "%.4f" on_s;
      Printf.sprintf "%.2fx" overhead;
      (if identical then "yes" else "NO");
    ]
  in
  let flag b = if b then 1. else 0. and count n = float_of_int n in
  let metrics =
    List.map
      (fun (m, v, u) -> (name ^ "." ^ m, v, u))
      [
        ("edges", count (Relation.nrows arc), "count");
        ("output_rows", count out_rows, "count");
        ("recorded", count (Provenance.recorded prov), "count");
        ("full_coverage", flag full_coverage, "bool");
        ("prov_off_s", off_s, "sim_s");
        ("prov_on_s", on_s, "sim_s");
        ("overhead", overhead, "ratio");
      ]
  in
  (row, metrics, (name, overhead, identical, full_coverage))

let exp ~scale =
  Report.section ~id:"prov"
    ~title:"EXTRA: why-provenance recording overhead, tags on vs off";
  let tc_arc = dag ~seed:11 ~n:(192 * scale) ~deg:2 in
  let sg_arc = Graphs.gnp ~seed:3 ~n:(48 * scale) ~p:0.06 in
  let results =
    [
      workload ~name:"tc" ~src:Programs.tc ~arc:tc_arc;
      workload ~name:"sg" ~src:Programs.sg ~arc:sg_arc;
    ]
  in
  Rs_util.Table_printer.print
    ~header:
      [ "workload"; "edges"; "out rows"; "tagged"; "off (s)"; "on (s)";
        "overhead"; "identical" ]
    (List.map (fun (row, _, _) -> row) results);
  List.iter
    (fun (_, _, (name, overhead, identical, _)) ->
      Report.note
        (Printf.sprintf "(%s: %.2fx with tags on, outputs %s)" name overhead
           (if identical then "identical" else "DIVERGED")))
    results;
  Report.write_record "BENCH_prov.json" ~attempted:(List.length results)
    ~failed:(List.length (List.filter (fun (_, _, (_, _, same, covered)) -> not (same && covered)) results))
    (List.concat_map (fun (_, m, _) -> m) results)

let run ~scale = exp ~scale
