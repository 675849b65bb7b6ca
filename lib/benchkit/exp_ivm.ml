(** Incremental maintenance vs recompute across a delta stream.

    The serving layer's warm-refresh path rests on one claim: applying a
    small typed delta through a maintained view ({!Recstep.Ivm}) is much
    cheaper than re-running the program from scratch. This experiment
    measures that claim directly through the engine-level maintenance API:
    the same TC workload and the same deterministic churn stream (each
    delta retracts one original edge and inserts one fresh edge) are
    applied once through RecStep's counting/DRed maintenance
    ([m_incremental = true]) and once through the generic
    recompute-per-delta fallback every baseline engine gets
    ({!Rs_engines.Engine_intf.maintain_by_recompute}). Outputs must be
    identical at every version; the wall-clock ratio is the speedup the
    cache refresh path buys. Results land in [BENCH_ivm.json]. *)

module Graphs = Rs_datagen.Graphs
module Programs = Recstep.Programs
module Relation = Rs_relation.Relation
module Delta = Rs_relation.Delta
module Engine_intf = Rs_engines.Engine_intf

let normalize outputs =
  List.sort compare
    (List.map
       (fun (name, rows) ->
         (name, List.sort compare (List.map Array.to_list rows)))
       outputs)

(* Layered random DAG: every edge goes forward (u < v), so the closure is
   big but acyclic. On a cyclic graph one retraction makes DRed's
   overestimate the entire strongly-connected closure — deletion is
   recompute-shaped no matter how it is maintained. Acyclic reachability
   (provenance, build graphs, dataflow) is the structure incremental
   maintenance is actually deployed on: a retraction's cone stays local. *)
let dag ~seed ~n ~deg =
  let state = ref seed in
  let rand m =
    state := (!state * 48271) mod 0x7fffffff;
    !state mod m
  in
  let rows = ref [] in
  for u = 0 to n - 2 do
    for _ = 1 to deg do
      let v = u + 1 + rand (n - 1 - u) in
      rows := [| u; v |] :: !rows
    done
  done;
  Relation.of_rows ~name:"arc" 2 !rows

(* Deterministic serving-shaped churn: every delta inserts a fresh forward
   edge; every fourth also retracts the edge inserted two deltas earlier —
   new facts dominate, corrections hit recent tuples. *)
let delta_stream ~n ~count =
  let edge i =
    let a = i * 17 mod (n - 1) in
    [| a; a + 1 + (((i * 29) + 5) mod (n - 1 - a)) |]
  in
  List.init count (fun i ->
      let ins = Delta.of_inserts "arc" [ edge i ] in
      if i mod 4 = 3 then
        Delta.merge ins (Delta.of_retracts "arc" [ edge (i - 2) ])
      else ins)

let time f =
  let t0 = Rs_util.Clock.now () in
  let r = f () in
  (r, Rs_util.Clock.now () -. t0)

let exp ~scale =
  Report.section ~id:"ivm"
    ~title:"EXTRA: incremental maintenance vs recompute-per-delta";
  let program = Programs.parsed Programs.tc in
  let n = 256 * scale in
  let arc = dag ~seed:7 ~n ~deg:3 in
  let count = 24 in
  let deltas = delta_stream ~n ~count in
  let pool = Rs_parallel.Pool.create ~workers:8 () in
  Rs_parallel.Pool.begin_run pool;
  let module E = (val Rs_engines.Engines.recstep : Engine_intf.S) in
  let edb () = [ ("arc", Relation.copy arc) ] in
  let run_side maintain =
    let m, boot_s = time (fun () -> maintain ~edb:(edb ()) program) in
    let states = ref [ normalize (m.Engine_intf.m_outputs ()) ] in
    let (), apply_s =
      time (fun () ->
          List.iter
            (fun d ->
              ignore (m.Engine_intf.m_apply d);
              states := normalize (m.Engine_intf.m_outputs ()) :: !states)
            deltas)
    in
    (m.Engine_intf.m_incremental, boot_s, apply_s, List.rev !states)
  in
  let inc, inc_boot, inc_apply, inc_states =
    run_side (fun ~edb program -> E.maintain ~pool ~edb program)
  in
  let rc, rc_boot, rc_apply, rc_states =
    run_side (fun ~edb program ->
        Engine_intf.maintain_by_recompute E.run ~pool ~edb program)
  in
  assert (inc && not rc);
  (* one comparison per version: the bootstrap and each delta *)
  let diverged =
    List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 inc_states rc_states
  in
  let identical = diverged = 0 in
  let ratio = if inc_apply > 0. then rc_apply /. inc_apply else 0. in
  let row name boot apply =
    [ name; Printf.sprintf "%.4f" boot; Printf.sprintf "%.4f" apply;
      Printf.sprintf "%.5f" (apply /. float_of_int count) ]
  in
  Rs_util.Table_printer.print
    ~header:[ "maintenance"; "bootstrap (s)"; "apply total (s)"; "per delta (s)" ]
    [ row "incremental (counting/DRed)" inc_boot inc_apply;
      row "recompute per delta" rc_boot rc_apply ];
  Report.note
    (Printf.sprintf
       "(%d deltas over TC on a layered DAG, n=%d; outputs %s at every version; recompute/incremental = %.1fx)"
       count n
       (if identical then "identical" else "DIVERGED")
       ratio);
  Report.write_record "BENCH_ivm.json" ~attempted:(count + 1) ~failed:diverged
    [
      ("tc.vertices", float_of_int n, "count");
      ("tc.edges", float_of_int (Relation.nrows arc), "count");
      ("tc.deltas", float_of_int count, "count");
      ("tc.incremental_bootstrap_s", inc_boot, "s");
      ("tc.incremental_apply_s", inc_apply, "s");
      ("tc.recompute_bootstrap_s", rc_boot, "s");
      ("tc.recompute_apply_s", rc_apply, "s");
      ("tc.ratio", ratio, "ratio");
    ]

let run ~scale = exp ~scale
