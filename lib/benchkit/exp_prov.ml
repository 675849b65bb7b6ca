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
module Json = Rs_obs.Json

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
  let json =
    Json.Obj
      [
        ("workload", Json.String name);
        ("edges", Json.Int (Relation.nrows arc));
        ("output_rows", Json.Int out_rows);
        ("recorded", Json.Int (Provenance.recorded prov));
        ("full_coverage", Json.Bool full_coverage);
        ("prov_off_s", Json.Float off_s);
        ("prov_on_s", Json.Float on_s);
        ("overhead", Json.Float overhead);
        ("identical", Json.Bool identical);
      ]
  in
  (row, json, (name, overhead, identical))

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
    (fun (_, _, (name, overhead, identical)) ->
      Report.note
        (Printf.sprintf "(%s: %.2fx with tags on, outputs %s)" name overhead
           (if identical then "identical" else "DIVERGED")))
    results;
  let json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("scale", Json.Int scale);
        ("workloads", Json.List (List.map (fun (_, j, _) -> j) results));
      ]
  in
  let oc = open_out "BENCH_prov.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Report.note "(wrote BENCH_prov.json)"

let run ~scale = exp ~scale
