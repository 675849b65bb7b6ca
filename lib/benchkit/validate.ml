module Json = Rs_obs.Json

let claim ok fmt = Printf.ksprintf (fun s -> if not ok then failwith s) fmt

(* Strict reads: a missing key fails naming it ({!Json.field}), and so does
   a value of the wrong type. *)
let read conv k v =
  let x = Json.field k v in
  try conv x with Json.Parse_error m | Failure m -> failwith (k ^ ": " ^ m)

let int = read Json.to_int
let num = read Json.to_float
let bool = read Json.to_bool
let str = read Json.to_str
let list = read (function Json.List xs -> xs | _ -> failwith "not a list")
let keys = read (function Json.Obj kvs -> List.map fst kvs | _ -> failwith "not an object")
let equal k v n = claim (int k v = n) "%s = %d, expected %d" k (int k v) n
let positive k v = claim (int k v > 0) "%s = %d, expected > 0" k (int k v)
let sum f xs = List.fold_left (fun n x -> n + f x) 0 xs
let count p xs = List.length (List.filter p xs)

(* --- named-metric records: the BENCH_*.json reports, perfbench's last line --- *)

type cmp = Eq | Gt | Ge | Lt | Le
type bound = Num of float | Metric of string

let record claims r =
  claim (bool "correct" r) "correct is false";
  positive "attempted" r;
  equal "failed" r 0;
  let value name = num "value" (Json.field name (Json.field "metrics" r)) in
  let check (name, cmp, b) =
    let x = value name in
    let y, what = match b with Num y -> (y, "") | Metric m -> (value m, m ^ " = ") in
    let ok, op =
      match cmp with
      | Eq -> (x = y, "=") | Gt -> (x > y, ">") | Ge -> (x >= y, ">=")
      | Lt -> (x < y, "<") | Le -> (x <= y, "<=")
    in
    claim ok "%s = %g, expected %s %s%g" name x op what y;
    Printf.sprintf "%s = %g" name x
  in
  String.concat ", " (List.map check claims)

let per ws claims =
  List.concat_map (fun w -> List.map (fun (m, c, b) -> (w ^ "." ^ m, c, b)) claims) ws

let bench_kernel =
  record
    (per [ "tc"; "sg"; "cspa" ] [ ("fallback_rules", Eq, Num 0.); ("compiled_rules", Gt, Num 0.) ]
    @ [ ("tc.ratio", Ge, Num 2.0); ("cspa.dedup_probes_on", Gt, Num 0.);
        ("cspa.dedup_probes_on", Eq, Metric "cspa.dedup_probes_off") ])

let bench_prov = record (per [ "tc"; "sg" ] [ ("full_coverage", Eq, Num 1.); ("overhead", Le, Num 2.0) ])

let bench_ivm = record [ ("tc.ratio", Gt, Num 1.0) ]

let bench_service =
  record
    [ ("on.autoscale_up", Gt, Num 0.); ("off.autoscale_evals", Eq, Num 0.);
      ("on.gold_p95_s", Lt, Metric "off.gold_p95_s"); ("on.makespan_s", Le, Metric "off.makespan_s") ]

let perfbench = record [ ("trace.drifting_counters", Eq, Num 0.) ]

(* --- profiles of recstep run --- *)

let profile p =
  let kinds = List.sort_uniq compare (List.map (str "kind") (list "spans" p)) in
  let need = [ "storage"; "dedup"; "executor"; "interpreter" ] in
  let missing = List.filter (fun k -> not (List.mem k kinds)) need in
  claim (missing = []) "spans: missing span kinds %s" (String.concat ", " missing);
  claim (list "iterations" p <> []) "iterations: no per-iteration records";
  Printf.sprintf "span kinds %s" (String.concat ", " kinds)

(* A TC fixpoint has two persistent access patterns (arc's join index, tc's
   membership set): builds stay O(patterns), not O(iterations), with a small
   slack for transient builds. The ablation rebuilds every iteration. *)
let index ~persistent p =
  let c = Json.field "counters" p in
  let iters = int "interpreter.iterations" c and builds = int "executor.index_builds" c in
  if persistent then begin
    claim (iters >= 5) "interpreter.iterations = %d, expected >= 5" iters;
    positive "executor.index_reuse_hits" c;
    claim (builds <= 4) "executor.index_builds = %d over %d iterations, expected <= 4" builds iters;
    positive "executor.index_appends" c
  end
  else claim (builds >= iters) "executor.index_builds = %d, expected >= %d iterations" builds iters;
  Printf.sprintf "%d index builds over %d iterations" builds iters

(* The kernels do the set difference themselves: only iteration 0's absorb
   runs an OPSD/TPSD pass, and nothing rebuilds an index per iteration. *)
let kernel_profile p =
  let c = Json.field "counters" p in
  positive "kernel.compiled_rules" c;
  positive "kernel.execs" c;
  equal "kernel.fallbacks" c 0;
  let set_difference s = str "kind" s = "executor" && List.mem (str "name" s) [ "opsd"; "tpsd" ] in
  let sd = count set_difference (list "spans" p) in
  claim (sd <= 1) "spans: %d opsd/tpsd passes with kernels on, expected <= 1" sd;
  let builds = int "executor.index_builds" c in
  claim (builds <= 2) "executor.index_builds = %d with kernels on, expected <= 2" builds;
  Printf.sprintf "%d kernel executions, %d index builds" (int "kernel.execs" c) builds

(* Kernels change how a round derives its Δ, never the Δ: the kernels-on
   profile (whose kernels must have run) and the kernels-off one record the
   same rounds, in order, with the same |Δ| for every IDB. *)
let delta_timeline on off =
  positive "kernel.execs" (Json.field "counters" on);
  let timeline p =
    List.map
      (fun it -> (int "stratum" it, int "iteration" it, str "idb" it, int "delta_rows" it))
      (list "iterations" p)
  in
  let t_on = timeline on and t_off = timeline off in
  claim (t_on <> []) "iterations: no per-iteration records";
  let rec same = function
    | (s, i, idb, d) :: ons, (s', i', idb', d') :: offs ->
        claim
          ((s, i, idb) = (s', i', idb'))
          "iterations: stratum %d iteration %d %s with kernels on, stratum %d iteration %d %s off"
          s i idb s' i' idb';
        claim (d = d')
          "iterations: stratum %d iteration %d %s: delta_rows = %d with kernels on, %d off" s i idb
          d d';
        same (ons, offs)
    | [], [] -> ()
    | _ ->
        failwith
          (Printf.sprintf "iterations: %d rounds with kernels on, %d off" (List.length t_on)
             (List.length t_off))
  in
  same (t_on, t_off);
  Printf.sprintf "%d rounds, %d Δ rows, identical" (List.length t_on)
    (sum (fun (_, _, _, d) -> d) t_on)

(* Every row of a non-aggregated IDB entered it through exactly one Δ, so
   over the profile's timeline the IDB's Δ rows add up to the rows the run
   wrote for it. [written] maps each such IDB to that row count. *)
let delta_sum p written =
  let timeline = list "iterations" p in
  let idbs = match written with Json.Obj kvs -> List.map fst kvs | _ -> failwith "rows: not an object" in
  claim (idbs <> []) "rows: no IDB written";
  let check idb =
    let rounds = List.filter (fun it -> str "idb" it = idb) timeline in
    claim (rounds <> []) "iterations: no rounds of %s" idb;
    let total = sum (int "delta_rows") rounds and n = int idb written in
    claim (total = n) "iterations: %s's delta_rows sum to %d, the run wrote %d rows" idb total n;
    Printf.sprintf "%s %d rows" idb n
  in
  String.concat ", " (List.map check idbs)

(* --- fuzz campaigns --- *)

(* At seed 42 all 54 runners (6 engines + 48 toggle configurations) agree
   with the oracle on some case, so a runner that silently stops running
   fails here instead of passing by default. *)
let fuzz r =
  let runs = Json.field "runs" r and parts = [ "ok"; "skipped"; "diverged"; "failed" ] in
  equal "diverged" runs 0;
  equal "failed" runs 0;
  let total = int "total" runs and runners = int "runners" r in
  let want = (int "cases" r - int "invalid" r) * runners in
  claim (total = want) "runs.total = %d, expected (cases - invalid) x runners = %d" total want;
  claim (total = sum (fun k -> int k runs) parts) "runs.total = %d, expected their sum" total;
  let by = list "by_runner" r in
  claim (List.length by = runners && runners = 54) "by_runner: %d rows, runners = %d, expected 54"
    (List.length by) runners;
  List.iter (fun k -> claim (sum (int k) by = int k runs) "by_runner: %s does not add up" k) parts;
  claim (List.exists (fun b -> str "runner" b = "Souffle-like") by) "by_runner: no Souffle-like";
  let idle = List.filter (fun b -> int "ok" b = 0) by in
  claim (idle = []) "by_runner: ok = 0 for %s" (String.concat ", " (List.map (str "runner") idle));
  Printf.sprintf "%d runs, %d ok, every runner ok > 0" total (int "ok" runs)

let delta_fuzz r =
  claim (list "divergences" r = []) "divergences: delta-stream campaign diverged";
  let versions = int "versions" r and ops = int "ops" r in
  let want = (int "cases" r - int "invalid" r) * 6 in
  claim (versions >= want) "versions = %d, expected >= (cases - invalid) x 6 = %d" versions want;
  claim (ops > versions) "ops = %d, expected > versions = %d" ops versions;
  Printf.sprintf "%d versions, %d ops, 0 divergences" versions ops

(* --- serving --- *)

let serve r =
  let c = Json.field "counters" r in
  let n k = int k c in
  List.iter
    (fun k -> ignore (n k))
    [ "cache_miss"; "deadline_miss"; "delta_applied"; "delta_noop"; "delta_fault"; "refreshed";
      "view_built"; "view_seeded"; "view_dropped"; "explain"; "autoscale.evals"; "autoscale.up";
      "autoscale.down"; "autoscale.cache_up"; "autoscale.cache_down" ];
  claim (n "submitted" = n "admitted" + n "rejected") "submitted = %d, expected admitted + rejected"
    (n "submitted");
  let outcomes = [ "done"; "oom"; "timeout"; "unsupported"; "fault" ] in
  claim (n "admitted" = sum n outcomes) "admitted = %d, expected the outcomes' sum" (n "admitted");
  positive "cache_hit" c;
  let qs = list "queries" r in
  claim (List.length qs = n "submitted") "queries: %d for %d submissions" (List.length qs)
    (n "submitted");
  let agree k counted = claim (counted = n k) "%s = %d, but %d in the query list" k (n k) counted in
  List.iter (fun o -> agree o (count (fun q -> str "outcome" q = o) qs)) ("rejected" :: outcomes);
  agree "cache_hit" (count (bool "cache_hit") qs);
  agree "retried" (sum (int "retries") qs);
  agree "degraded" (count (fun q -> Json.field "degraded" q <> Json.Null) qs);
  Printf.sprintf "%d submitted, %d cache hits" (n "submitted") (n "cache_hit")

(* Maintenance on vs --no-ivm over the same delta-carrying workload: the
   warm refresh must save a recompute and serve exactly what it would. *)
let serve_ivm warm cold =
  let wc = Json.field "counters" warm and cc = Json.field "counters" cold in
  positive "delta_applied" wc;
  positive "refreshed" wc;
  equal "refreshed" cc 0;
  claim (int "cache_hit" wc > int "cache_hit" cc) "cache_hit = %d with ivm, expected > %d without"
    (int "cache_hit" wc) (int "cache_hit" cc);
  let sums r =
    List.filter (fun q -> str "outcome" q = "done") (list "queries" r)
    |> List.map (fun q -> (str "id" q, str "checksum" q))
    |> List.sort compare
  in
  let ws = sums warm and cs = sums cold in
  claim (List.map fst ws = List.map fst cs) "queries: served ids differ between ivm and no-ivm";
  claim (ws = cs) "checksum: refreshed results differ from recompute";
  Printf.sprintf "%d queries identical to recompute" (List.length ws)

(* --- chaos campaigns --- *)

(* The kernel arm fires half of all kernel probes: a degraded round must not
   keep the claims its earlier kernels made into the head table's set. *)
let chaos ~arm r =
  claim (bool "clean" r) "clean is false";
  claim (list "violations" r = []) "violations: campaign has violations";
  equal "leaks" r 0;
  if arm then claim (int "kernel" (Json.field "injected" r) >= 1) "injected.kernel: none injected"
  else begin
    claim (int "fault_classes" r >= 5) "fault_classes = %d, expected >= 5" (int "fault_classes" r);
    positive "recovered" r;
    positive "rejected_typed" r
  end;
  Printf.sprintf "injected %s" (String.concat ", " (keys "injected" r))

(* --- load model --- *)

let load r =
  let classes = list "classes" r in
  claim (List.map (str "class") classes = [ "gold"; "silver"; "bronze" ]) "classes: out of order";
  let check c =
    let name = str "class" c and lat = Json.field "latency" c in
    equal "count" lat (int "served" c);
    if int "count" lat = 0 then claim (keys "latency" c = [ "count" ]) "%s latency: quantiles" name
    else begin
      let qs = List.map (fun q -> num q lat) [ "min"; "p50"; "p95"; "p99"; "p999"; "max" ] in
      claim (qs = List.sort compare qs) "%s latency: quantiles not monotone in [min, max]" name
    end;
    let a = num "attainment" c in
    claim (0.0 <= a && a <= 1.0) "%s attainment = %g, expected in [0, 1]" name a;
    claim (int "degraded" c <= int "served" c) "%s degraded exceeds served" name
  in
  List.iter check classes;
  let total = sum (fun c -> sum (fun k -> int k c) [ "served"; "failed"; "rejected" ]) classes in
  let queries = int "queries" (Json.field "spec" r) in
  claim (total = queries) "classes: %d queries accounted, spec.queries = %d" total queries;
  let a = Json.field "autoscale" r in
  positive "evals" a;
  claim (int "up" a + int "down" a > 0) "autoscale: up + down = 0, the scaler never resized";
  positive "tenants_used" r;
  claim (list "top_tenants" r <> []) "top_tenants: no tenant accounting";
  Printf.sprintf "%d queries accounted, autoscale up=%d down=%d" total (int "up" a) (int "down" a)

(* --- dispatch --- *)

let one f = function [ r ] -> f r | _ -> failwith "expected one report"

let checks =
  [ ("profile", one profile); ("index", one (index ~persistent:true));
    ("index-off", one (index ~persistent:false)); ("kernel-profile", one kernel_profile);
    ("delta-timeline",
      function [ on; off ] -> delta_timeline on off | _ -> failwith "expected kernels on, kernels off");
    ("delta-sum", function [ p; rows ] -> delta_sum p rows | _ -> failwith "expected profile, rows");
    ("fuzz", one fuzz); ("delta-fuzz", one delta_fuzz); ("serve", one serve);
    ("serve-ivm", function [ w; c ] -> serve_ivm w c | _ -> failwith "expected ivm, no-ivm");
    ("chaos", one (chaos ~arm:false)); ("chaos-kernel", one (chaos ~arm:true)); ("load", one load);
    ("perfbench", one perfbench); ("bench-kernel", one bench_kernel);
    ("bench-prov", one bench_prov); ("bench-ivm", one bench_ivm);
    ("bench-service", one bench_service) ]

let kinds = List.map fst checks

let check kind reports =
  match List.assoc_opt kind checks with
  | None -> Error (Printf.sprintf "unknown report kind %S" kind)
  | Some f -> (try Ok (kind ^ " OK: " ^ f reports) with Failure m | Json.Parse_error m -> Error m)

(* perfbench prints a table before its record, which is its last line *)
let check_files kind paths =
  let parse p =
    let text = In_channel.with_open_bin p In_channel.input_all in
    let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
    Json.of_string (if kind = "perfbench" && lines <> [] then List.hd (List.rev lines) else text)
  in
  if not (List.mem kind kinds) then check kind []
  else
    match List.map parse paths with
    | reports -> check kind reports
    | exception (Json.Parse_error m | Sys_error m) -> Error m
