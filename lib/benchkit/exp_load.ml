(** The serving layer under production-shape load (ROADMAP item 5).

    One fixed-seed {!Rs_load.Load} workload — Zipf tenant skew, bursty
    open-loop arrivals, three SLO classes over shared size-class databases
    — replayed through {!Rs_service.Service.run} twice: a fixed-size arm
    (the configured worker floor, no scaling) and an autoscaled arm
    ({!Rs_service.Autoscale}) growing the virtual machine and cache budget
    from queue depth and windowed tail latency. No deltas and no deadlines
    in this spec, so both arms must serve byte-identical rows per query id
    — the run asserts it via the served checksums — and the arms differ
    only in {e when} results land: makespan and tail latency. Per-class
    p50/p95/p99/p999 for both arms go to [BENCH_service.json], as metrics
    named like [on.gold_p95_s]. *)

module Service = Rs_service.Service
module Autoscale = Rs_service.Autoscale
module Load = Rs_load.Load
module Result_cache = Rs_service.Result_cache
module Histogram = Rs_obs.Histogram

let base_workers = 2

(* Arrivals crowd a short horizon so the burst windows genuinely queue
   behind [base_workers] — the regime the autoscaler exists for. *)
let load_spec ~scale =
  Load.spec ~tenants:20_000 ~queries:(150 * scale) ~seed:42 ~duration_s:0.5
    ~skew:1.1 ~burstiness:0.8 ~bursts:3 ~deltas:0 ()

let policy () =
  Autoscale.policy ~min_workers:base_workers ~max_workers:16 ~window:16
    ~queue_hi:2.0 ~queue_lo:0.5 ~tail_target_s:0.05 ~cooldown:2
    ~cache_min_bytes:(1 * 1024 * 1024) ~cache_max_bytes:(16 * 1024 * 1024) ()

let run_arm (load : Load.t) ?autoscale () =
  let config =
    Service.config ~workers:base_workers
      ~queue_capacity:(load.Load.spec.Load.queries + 8)
      ~cache_bytes:(1 * 1024 * 1024) ~seed:1 ?autoscale ()
  in
  Service.run ~config ~edb:(load.Load.make_store ()) load.Load.events

(* id → checksum of the served rows; the cross-arm identity oracle *)
let checksums (r : Service.report) =
  List.filter_map
    (fun (c : Service.completion) ->
      match c.Service.c_outcome with
      | Service.Done v -> Some (c.Service.c_id, Result_cache.value_checksum v)
      | _ -> None)
    r.Service.completions
  |> List.sort compare

let exp ~scale =
  Report.section ~id:"load"
    ~title:"EXTRA: SLO scorecard under Zipf burst load, autoscaler on vs off";
  let load = Load.generate (load_spec ~scale) in
  let off = run_arm load () in
  let on = run_arm load ~autoscale:(policy ()) () in
  (* query ids whose served rows differ between the arms, or that only one
     arm served *)
  let sums_on = checksums on and sums_off = checksums off in
  let diverged =
    List.sort_uniq compare (List.map fst sums_on @ List.map fst sums_off)
    |> List.filter (fun id -> List.assoc_opt id sums_on <> List.assoc_opt id sums_off)
  in
  let identical = diverged = [] in
  let stats_off = Load.slo_stats load off and stats_on = Load.slo_stats load on in
  let pct h p =
    if Histogram.count h = 0 then "-"
    else Printf.sprintf "%.4f" (Histogram.percentile h p)
  in
  Rs_util.Table_printer.print
    ~header:
      [ "class"; "served"; "slo (s)"; "attain off"; "attain on"; "p95 off";
        "p95 on"; "p99 off"; "p99 on" ]
    (List.map2
       (fun (o : Load.class_stats) (n : Load.class_stats) ->
         [
           Load.class_name o.Load.cs_class;
           string_of_int o.Load.cs_served;
           Printf.sprintf "%.3f" o.Load.cs_target_s;
           Printf.sprintf "%.1f%%" (100.0 *. Load.attainment o);
           Printf.sprintf "%.1f%%" (100.0 *. Load.attainment n);
           pct o.Load.cs_hist 95.0;
           pct n.Load.cs_hist 95.0;
           pct o.Load.cs_hist 99.0;
           pct n.Load.cs_hist 99.0;
         ])
       stats_off stats_on);
  Report.note
    (Printf.sprintf
       "(fixed %d workers vs autoscaled %d..16: makespan %.3fs -> %.3fs, \
        %d scale-ups, %d scale-downs, outputs %s)"
       base_workers base_workers off.Service.vtime on.Service.vtime
       (Service.counter on "autoscale.up")
       (Service.counter on "autoscale.down")
       (if identical then "identical" else "DIVERGED"));
  (* per arm: makespan, scaler counters, and per class the served count,
     attainment and latency quantiles (none for a class that served nothing) *)
  let arm_metrics arm (r : Service.report) stats =
    let m name v unit_ = (arm ^ "." ^ name, v, unit_) in
    m "makespan_s" r.Service.vtime "s"
    :: List.map
         (fun k -> m ("autoscale_" ^ k) (float_of_int (Service.counter r ("autoscale." ^ k))) "count")
         [ "evals"; "up"; "down" ]
    @ List.concat_map
        (fun (cs : Load.class_stats) ->
          let c = Load.class_name cs.Load.cs_class and h = cs.Load.cs_hist in
          let pct (q, p) = m (c ^ "_" ^ q ^ "_s") (Histogram.percentile h p) "s" in
          m (c ^ "_served") (float_of_int cs.Load.cs_served) "count"
          :: m (c ^ "_attainment") (Load.attainment cs) "ratio"
          :: (if Histogram.count h = 0 then []
              else List.map pct [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0); ("p999", 99.9) ]))
        stats
  in
  Report.write_record "BENCH_service.json" ~attempted:load.Load.spec.Load.queries
    ~failed:(List.length diverged)
    (arm_metrics "off" off stats_off @ arm_metrics "on" on stats_on)

let run ~scale = exp ~scale
