module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
module Rng = Rs_util.Rng

type strategy = Rebuild_chained | Delta_append

let strategy_name = function
  | Rebuild_chained -> "rebuild-chained"
  | Delta_append -> "delta-append"

type iteration_sample = { ix_index_s : float; ix_probe_s : float }

(* One simulated fixpoint: a full relation growing by a fresh delta each
   iteration (the shape of a recursive IDB absorbing its delta), with the
   full-table join index maintained by [strategy] and then probed once per
   delta row (the delta-rule join). Returns one sample per iteration, in
   iteration order; the index/probe split is what the table reports. *)
let run_strategy pool ~iters ~base_rows ~delta_rows strategy =
  let rng = Rng.create 42 in
  let key_space = 4 * (base_rows + (iters * delta_rows)) in
  let full = Relation.create ~name:"full" 2 in
  let push n =
    for _ = 1 to n do
      Relation.push2 full (Rng.int rng key_space) (Rng.int rng key_space)
    done
  in
  push base_rows;
  let appended = ref None in
  let samples = ref [] in
  for _it = 1 to iters do
    push delta_rows;
    let t0 = Pool.vtime_now pool in
    let idx =
      match (strategy, !appended) with
      | Rebuild_chained, _ -> Hash_index.build_pool pool full [| 0 |]
      | Delta_append, Some idx ->
          ignore (Hash_index.append_pool pool idx);
          idx
      | Delta_append, None ->
          let idx = Hash_index.build_pool pool full [| 0 |] in
          appended := Some idx;
          idx
    in
    let t1 = Pool.vtime_now pool in
    (* probe with the delta suffix, chunk-parallel like the executor's join *)
    let n = Relation.nrows full in
    let hits = ref 0 in
    Pool.parallel_for pool (n - delta_rows) n (fun lo hi ->
        let local = ref 0 in
        for row = lo to hi - 1 do
          Hash_index.iter_matches1 idx (Relation.get full ~row ~col:0) (fun _ -> incr local)
        done;
        hits := !hits + !local);
    ignore !hits;
    let t2 = Pool.vtime_now pool in
    samples := { ix_index_s = t1 -. t0; ix_probe_s = t2 -. t1 } :: !samples
  done;
  List.rev !samples

let total f samples = List.fold_left (fun a s -> a +. f s) 0.0 samples

let exp ~scale =
  Report.section ~id:"join"
    ~title:"EXTRA: join-index maintenance — rebuild vs delta-append";
  let iters = 12 in
  let base_rows = 20_000 * scale and delta_rows = 4_000 * scale in
  let strategies = [ Rebuild_chained; Delta_append ] in
  let runs =
    List.map
      (fun strategy ->
        let per_iter = ref [] in
        let r =
          Measure.run ~repeats:2 ~name:(strategy_name strategy) ~make_inputs:(fun () -> ())
            (fun () pool ~deadline_vs:_ ~trace:_ ->
              per_iter := run_strategy pool ~iters ~base_rows ~delta_rows strategy)
        in
        (strategy, r, !per_iter))
      strategies
  in
  let header =
    "iteration" :: List.map (fun s -> strategy_name s ^ " idx (s)") strategies
  in
  let cell v = Printf.sprintf "%.5f" v in
  let rows =
    List.init iters (fun i ->
        string_of_int (i + 1)
        :: List.map (fun (_, _, samples) -> cell (List.nth samples i).ix_index_s) runs)
    @ [
        "total index"
        :: List.map (fun (_, _, samples) -> cell (total (fun s -> s.ix_index_s) samples)) runs;
        "total probe"
        :: List.map (fun (_, _, samples) -> cell (total (fun s -> s.ix_probe_s) samples)) runs;
        "run time (s)"
        :: List.map (fun (_, r, _) -> Measure.outcome_cell r.Measure.outcome) runs;
      ]
  in
  Rs_util.Table_printer.print ~header rows;
  Report.note
    "(rebuild pays O(|full|) every iteration; delta-append pays O(|delta|) amortized, \
     with occasional doubling rehashes)";
  let total_of strategy =
    let _, _, samples = List.find (fun (s, _, _) -> s = strategy) runs in
    total (fun s -> s.ix_index_s) samples
  in
  if total_of Delta_append < total_of Rebuild_chained then
    Report.note "(delta-append beat rebuild-chained on total index time, as expected)"
  else
    Report.note
      "(WARNING: delta-append did not beat rebuild-chained — timing noise or a regression)"
