(* The CI check's report validator (Rs_benchkit.Validate), kind by kind: a
   well-formed report passes, and a doctored copy fails with a message
   naming the doctored key, once with one gate's value flipped and once
   with a key removed. The well-formed reports come from the same library
   calls the CLI makes, at the CLI's settings in bench/check.sh, except the
   host-timed BENCH_*.json records, which are the committed snapshots. *)

module Json = Rs_obs.Json
module Validate = Rs_benchkit.Validate
module Pool = Rs_parallel.Pool
module Interpreter = Recstep.Interpreter
module Service = Rs_service.Service

(* [doctor path f v] rewrites the value at [path] with [f] ([None] removes
   the key). A path segment ["*"] visits every element of a list. *)
let rec doctor path f v =
  match (path, v) with
  | [ k ], Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k', x) -> if k' <> k then Some (k', x) else Option.map (fun y -> (k, y)) (f x))
           kvs)
  | k :: rest, Json.Obj kvs ->
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then doctor rest f x else x)) kvs)
  | "*" :: rest, Json.List xs -> Json.List (List.map (doctor rest f) xs)
  | _ -> Alcotest.failf "doctor: no path %s" (String.concat "." path)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* One kind: [reports] pass; setting [flip] (report index, path, value) or
   removing [remove] (report index, path) fails naming [key]. *)
let case kind reports ~flip:(fi, fpath, value, fkey) ~remove:(ri, rpath, rkey) =
  kind, fun () ->
  let reports = reports () in
  (match Validate.check kind reports with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: well-formed report refused: %s" kind m);
  let refused what i path f key =
    let doctored = List.mapi (fun j r -> if j = i then doctor path f r else r) reports in
    match Validate.check kind doctored with
    | Ok _ -> Alcotest.failf "%s: %s report passed" kind what
    | Error m ->
        if not (contains m key) then Alcotest.failf "%s: %s report refused without naming %s: %s" kind what key m
  in
  refused "flipped" fi fpath (fun _ -> Some value) fkey;
  refused "stripped" ri rpath (fun _ -> None) rkey

(* --- reports, built as the CLI builds them --- *)

(* a file of the repository: [dune runtest] runs in the test directory *)
let repo_file f = if Sys.file_exists (Filename.concat ".." f) then Filename.concat ".." f else f

let arc () = Rs_datagen.Graphs.gnp ~seed:7 ~n:200 ~p:0.03

let profile ?(pbme = true) ?(kernels = true) ?(persistent_indexes = true) src () =
  let pool = Pool.create ~workers:16 () in
  Pool.begin_run pool;
  let trace = Rs_obs.Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let options = Interpreter.options ~pbme ~compiled_kernels:kernels ~persistent_indexes ~trace () in
  ignore (Interpreter.run ~options ~pool ~edb:[ ("arc", arc ()) ] (Recstep.Parser.parse src));
  [ Rs_obs.Trace.to_json trace ]

(* A profile, then the rows the run wrote for each of its outputs. *)
let delta_sum ?kernels src () =
  let pool = Pool.create ~workers:16 () in
  Pool.begin_run pool;
  let trace = Rs_obs.Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let options = Interpreter.options ~pbme:false ?compiled_kernels:kernels ~trace () in
  let r = Interpreter.run ~options ~pool ~edb:[ ("arc", arc ()) ] (Recstep.Parser.parse src) in
  [ Rs_obs.Trace.to_json trace;
    Json.Obj (List.map (fun (n, rel) -> (n, Json.Int (Rs_relation.Relation.nrows rel))) r.outputs) ]

let tc = ".input arc\ntc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).\n.output tc\n"
let tc_twohop = tc ^ "twohop(x, y) :- tc(x, z), tc(z, y).\n.output twohop\n"

let serve ?(ivm = true) () =
  let script = Rs_service.Script.load (repo_file "programs/serve_demo.workload") in
  let store = Rs_service.Edb_store.create () in
  List.iter (fun (name, rels) -> Rs_service.Edb_store.define store name rels) script.Rs_service.Script.defs;
  let config = Service.config ~workers:8 ~queue_capacity:32 ~seed:1 ~ivm () in
  Service.report_json (Service.run ~config ~edb:store script.Rs_service.Script.events)

let chaos ?plan ~iters () =
  [ Rs_fuzz.Chaos_harness.report_json (Rs_fuzz.Chaos_harness.run ?plan ~seed:42 ~iters ()) ]

let load () =
  let spec = Rs_load.Load.spec ~tenants:20_000 ~queries:120 ~seed:42 ~duration_s:0.5 ~deltas:2 () in
  let load = Rs_load.Load.generate spec in
  let autoscale =
    Rs_service.Autoscale.policy ~min_workers:2 ~max_workers:16 ~window:16 ~queue_hi:2.0 ~queue_lo:0.5
      ~tail_target_s:0.05 ~cooldown:2 ~cache_min_bytes:(1 lsl 20) ~cache_max_bytes:(4 lsl 20) ()
  in
  let config = Service.config ~workers:2 ~queue_capacity:128 ~cache_bytes:(1 lsl 20) ~seed:42 ~autoscale () in
  [ Rs_load.Load.slo_json load (Service.run ~config ~edb:(load.Rs_load.Load.make_store ()) load.Rs_load.Load.events) ]

let snapshot file () = [ Json.of_string (In_channel.with_open_bin (repo_file file) In_channel.input_all) ]

let perfbench () =
  [ Json.of_string
      {|{"correct":true,"attempted":16,"failed":0,"metrics":{"pool.batches":{"value":90.0,"unit":"count"},"trace.drifting_counters":{"value":0.0,"unit":"count"}}}|} ]

let metric name = [ "metrics"; name; "value" ]

let cases =
  [ case "profile" (profile tc_twohop) ~flip:(0, [ "iterations" ], Json.List [], "iterations")
      ~remove:(0, [ "spans" ], "spans");
    case "index" (profile ~pbme:false tc)
      ~flip:(0, [ "counters"; "executor.index_builds" ], Json.Int 99, "executor.index_builds")
      ~remove:(0, [ "counters"; "executor.index_reuse_hits" ], "executor.index_reuse_hits");
    case "index-off" (profile ~pbme:false ~persistent_indexes:false tc)
      ~flip:(0, [ "counters"; "executor.index_builds" ], Json.Int 0, "executor.index_builds")
      ~remove:(0, [ "counters"; "interpreter.iterations" ], "interpreter.iterations");
    case "kernel-profile" (profile ~pbme:false tc)
      ~flip:(0, [ "counters"; "kernel.fallbacks" ], Json.Int 1, "kernel.fallbacks")
      ~remove:(0, [ "counters"; "kernel.fallbacks" ], "kernel.fallbacks");
    case "delta-timeline"
      (fun () -> profile ~pbme:false tc () @ profile ~pbme:false ~kernels:false tc ())
      ~flip:(1, [ "iterations"; "*"; "delta_rows" ], Json.Int 7, "delta_rows")
      ~remove:(0, [ "iterations"; "*"; "idb" ], "idb");
    case "delta-sum" (delta_sum tc)
      ~flip:(0, [ "iterations"; "*"; "delta_rows" ], Json.Int 7, "tc")
      ~remove:(0, [ "iterations"; "*"; "idb" ], "idb");
    case "fuzz" (fun () -> [ Rs_fuzz.Fuzz.report_json (Rs_fuzz.Fuzz.run ~seed:42 ~iters:25 ()) ])
      ~flip:(0, [ "runs"; "diverged" ], Json.Int 1, "diverged")
      ~remove:(0, [ "by_runner" ], "by_runner");
    case "delta-fuzz"
      (fun () -> [ Rs_fuzz.Delta_fuzz.report_json (Rs_fuzz.Delta_fuzz.run ~seed:42 ~iters:20 ~deltas:6 ()) ])
      ~flip:(0, [ "ops" ], Json.Int 0, "ops") ~remove:(0, [ "versions" ], "versions");
    case "serve" (fun () -> [ serve () ])
      ~flip:(0, [ "counters"; "cache_hit" ], Json.Int 0, "cache_hit")
      ~remove:(0, [ "counters"; "autoscale.cache_down" ], "autoscale.cache_down");
    case "serve-ivm" (fun () -> [ serve (); serve ~ivm:false () ])
      ~flip:(1, [ "counters"; "refreshed" ], Json.Int 1, "refreshed")
      ~remove:(0, [ "queries"; "*"; "checksum" ], "checksum");
    case "chaos" (chaos ~iters:50) ~flip:(0, [ "leaks" ], Json.Int 1, "leaks")
      ~remove:(0, [ "fault_classes" ], "fault_classes");
    case "chaos-kernel" (chaos ~plan:"kernel:p=0.5" ~iters:30) ~flip:(0, [ "clean" ], Json.Bool false, "clean")
      ~remove:(0, [ "injected"; "kernel" ], "kernel");
    case "load" load ~flip:(0, [ "autoscale"; "evals" ], Json.Int 0, "evals")
      ~remove:(0, [ "spec"; "queries" ], "queries");
    case "perfbench" perfbench
      ~flip:(0, metric "trace.drifting_counters", Json.Float 2.0, "trace.drifting_counters")
      ~remove:(0, [ "metrics"; "trace.drifting_counters" ], "trace.drifting_counters");
    case "bench-kernel" (snapshot "BENCH_kernel.json")
      ~flip:(0, metric "tc.fallback_rules", Json.Float 1.0, "tc.fallback_rules")
      ~remove:(0, [ "metrics"; "cspa.fallback_rules" ], "cspa.fallback_rules");
    case "bench-prov" (snapshot "BENCH_prov.json")
      ~flip:(0, metric "sg.overhead", Json.Float 2.5, "sg.overhead")
      ~remove:(0, [ "metrics"; "tc.full_coverage" ], "tc.full_coverage");
    case "bench-ivm" (snapshot "BENCH_ivm.json")
      ~flip:(0, metric "tc.ratio", Json.Float 0.9, "tc.ratio")
      ~remove:(0, [ "failed" ], "failed");
    case "bench-service" (snapshot "BENCH_service.json")
      ~flip:(0, metric "on.gold_p95_s", Json.Float 99.0, "on.gold_p95_s")
      ~remove:(0, [ "metrics"; "off.autoscale_evals" ], "off.autoscale_evals") ]

let test_every_kind_covered () =
  Alcotest.(check (list string)) "one case per kind" (List.sort compare Validate.kinds)
    (List.sort compare (List.map fst cases))

let test_record_shape () =
  (* the shared record fields are gates too: a failed operation fails *)
  match Validate.check "perfbench" [ doctor [ "failed" ] (fun _ -> Some (Json.Int 1)) (List.hd (perfbench ())) ] with
  | Ok _ -> Alcotest.fail "a record with a failed operation passed"
  | Error m -> Alcotest.(check bool) ("names failed: " ^ m) true (contains m "failed")

(* an IDB the run wrote but the timeline never noted fails, naming it *)
let test_delta_sum_missing_idb () =
  match delta_sum ~kernels:false tc () with
  | [ p; Json.Obj rows ] -> (
      match Validate.check "delta-sum" [ p; Json.Obj (("ghost", Json.Int 0) :: rows) ] with
      | Ok _ -> Alcotest.fail "an IDB with no rounds passed"
      | Error m -> Alcotest.(check bool) ("names ghost: " ^ m) true (contains m "ghost"))
  | _ -> Alcotest.fail "delta_sum: expected a profile and its rows"

let suite =
  Alcotest.test_case "one case per report kind" `Quick test_every_kind_covered
  :: Alcotest.test_case "delta-sum: an IDB with no rounds fails" `Quick test_delta_sum_missing_idb
  :: Alcotest.test_case "record: failed operations fail" `Quick test_record_shape
  :: List.map (fun (kind, f) -> Alcotest.test_case kind `Quick f) cases
