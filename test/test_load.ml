(* Load model + serving hot paths at population scale: the 50k-tenant
   scheduler regression (fairness, determinism, sub-quadratic work, ring
   reclamation), Zipf sampling, deterministic load generation, the
   autoscaler policy loop, and the SLO scorecard over a real run. *)

module Rng = Rs_util.Rng
module Scheduler = Rs_service.Scheduler
module Autoscale = Rs_service.Autoscale
module Service = Rs_service.Service
module Json = Rs_obs.Json
module Histogram = Rs_obs.Histogram
module Zipf = Rs_load.Zipf
module Load = Rs_load.Load

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- scheduler at population scale --- *)

let tenants_n = 50_000

(* one item per tenant, a second for every 16th: a drain that retires
   almost the whole ring while it is being walked *)
let fill_sched sched =
  for i = 0 to tenants_n - 1 do
    Scheduler.push sched ~tenant:("t" ^ string_of_int i) i
  done;
  for i = 0 to (tenants_n / 16) - 1 do
    Scheduler.push sched ~tenant:("t" ^ string_of_int (i * 16)) (tenants_n + i)
  done

let drain sched =
  let order = ref [] in
  let rec go () =
    match Scheduler.pop sched with
    | Some (tenant, item) ->
        order := (tenant, item) :: !order;
        go ()
    | None -> ()
  in
  go ();
  List.rev !order

let test_sched_determinism_at_scale () =
  let run () =
    let s = Scheduler.create ~seed:17 in
    fill_sched s;
    drain s
  in
  let a = run () and b = run () in
  check_int "everything popped" (tenants_n + (tenants_n / 16)) (List.length a);
  check "identical pop order across same-seed runs" true (a = b);
  let c =
    let s = Scheduler.create ~seed:18 in
    fill_sched s;
    drain s
  in
  (* different seed rotates the starting point but pops the same multiset *)
  check "seed shifts the order" true (a <> c);
  check "same multiset either way" true
    (List.sort compare a = List.sort compare c)

let test_sched_subquadratic () =
  let s = Scheduler.create ~seed:17 in
  fill_sched s;
  ignore (drain s);
  let pops = Scheduler.pops s and probes = Scheduler.probes s in
  check_int "pops = items" (tenants_n + (tenants_n / 16)) pops;
  (* the seed code rebuilt the ring from a list on every pop: ~n^2/2 =
     1.25e9 slots touched for this drain. The slot ring with lazy
     compaction stays linear: each pop lands on a live slot after an
     amortized O(1) walk over retired ones. *)
  check "probes linear in pops" true (probes < (10 * pops) + 10_000);
  check "nowhere near quadratic" true (probes < 10_000_000)

let test_sched_ring_reclaimed () =
  let s = Scheduler.create ~seed:3 in
  fill_sched s;
  ignore (drain s);
  check_int "no tenants hold work" 0 (Scheduler.tenants s);
  check_int "queue empty" 0 (Scheduler.length s);
  check "ring compacted after full drain" true (Scheduler.ring_slots s < 64);
  (* the scheduler is still usable: re-arriving tenants rejoin cleanly *)
  Scheduler.push s ~tenant:"t7" 1;
  Scheduler.push s ~tenant:"fresh" 2;
  check_int "two tenants back" 2 (Scheduler.tenants s);
  check "pops again" true (Scheduler.pop s <> None);
  check "pops again twice" true (Scheduler.pop s <> None);
  check "empty again" true (Scheduler.pop s = None)

let test_sched_fairness_one_hog () =
  let s = Scheduler.create ~seed:11 in
  let others = 50 in
  for i = 1 to 100 do
    Scheduler.push s ~tenant:"hog" i
  done;
  for i = 1 to others do
    Scheduler.push s ~tenant:("quiet" ^ string_of_int i) 0
  done;
  (* 51 live tenants: one full round-robin cycle serves each exactly once,
     wherever the seeded cursor started — the hog cannot get a second
     query in before every quiet tenant got its first *)
  let counts = Hashtbl.create 64 in
  for _ = 1 to others + 1 do
    match Scheduler.pop s with
    | Some (tenant, _) ->
        Hashtbl.replace counts tenant (1 + Option.value ~default:0 (Hashtbl.find_opt counts tenant))
    | None -> Alcotest.fail "queue drained early"
  done;
  check_int "hog served exactly once in the first cycle" 1
    (Option.value ~default:0 (Hashtbl.find_opt counts "hog"));
  for i = 1 to others do
    check_int "each quiet tenant served exactly once" 1
      (Option.value ~default:0 (Hashtbl.find_opt counts ("quiet" ^ string_of_int i)))
  done;
  (* only the hog remains: the rest of the drain is all hog, in FIFO order *)
  (match Scheduler.pop s with
  | Some ("hog", _) -> ()
  | _ -> Alcotest.fail "expected the hog once others drained");
  check_int "one live tenant left" 1 (Scheduler.tenants s)

(* --- zipf sampling --- *)

let test_zipf () =
  let n = 1000 in
  let z = Zipf.create ~n ~s:1.1 in
  check_int "n" n (Zipf.n z);
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. Zipf.weight z k
  done;
  check "weights sum to 1" true (abs_float (!total -. 1.0) < 1e-9);
  check "rank 0 heaviest" true (Zipf.weight z 0 > Zipf.weight z 1);
  check "long tail decays" true (Zipf.weight z 10 > Zipf.weight z 500);
  let draw seed =
    let rng = Rng.create seed in
    List.init 200 (fun _ -> Zipf.sample z rng)
  in
  let a = draw 7 in
  check "sampling deterministic per seed" true (a = draw 7);
  check "samples in range" true (List.for_all (fun k -> k >= 0 && k < n) a);
  (* skewed traffic concentrates: rank 0 shows up a lot in 200 draws *)
  check "head rank dominates" true
    (List.length (List.filter (fun k -> k = 0) a) > 20);
  let u = Zipf.create ~n:10 ~s:0.0 in
  check "s=0 is uniform" true
    (abs_float (Zipf.weight u 0 -. Zipf.weight u 9) < 1e-9)

(* --- load generation --- *)

let event_sig = function
  | Service.Submit s ->
      (s.Service.at, s.Service.tenant, s.Service.sub_id, s.Service.edb)
  | Service.Delta { at; edb; _ } -> (at, "<delta>", "", edb)
  | Service.Explain r -> (r.Service.ex_at, r.Service.ex_tenant, "<explain>", r.Service.ex_edb)

let test_generate_deterministic () =
  let spec = Load.spec ~tenants:5_000 ~queries:120 ~seed:9 ~deltas:3 () in
  let a = Load.generate spec and b = Load.generate spec in
  let sa = List.map event_sig a.Load.events
  and sb = List.map event_sig b.Load.events in
  check "identical event streams" true (sa = sb);
  check_int "tenants_used agrees" a.Load.tenants_used b.Load.tenants_used;
  check "class populations agree" true
    (a.Load.class_population = b.Load.class_population);
  check_int "submissions + deltas" (120 + 3) (List.length a.Load.events);
  (* arrival-ordered, inside the horizon *)
  let times = List.map (fun e -> Service.event_time e) a.Load.events in
  check "arrival ordered" true (times = List.sort compare times);
  check "inside the horizon" true
    (List.for_all (fun t -> t >= 0.0 && t <= spec.Load.duration_s) times);
  (* class structure: both runs agree tenant-by-tenant, stores replay *)
  List.iter
    (fun e ->
      match e with
      | Service.Submit s ->
          check "classes agree across runs" true
            (a.Load.class_of s.Service.tenant = b.Load.class_of s.Service.tenant)
      | Service.Delta _ | Service.Explain _ -> ())
    a.Load.events;
  check "unknown tenants default bronze" true
    (a.Load.class_of "nobody" = Load.Bronze);
  let s1 = a.Load.make_store () and s2 = a.Load.make_store () in
  let rows st db =
    Rs_relation.Relation.nrows
      (List.assoc "arc" (Rs_service.Edb_store.lookup st db))
  in
  List.iter
    (fun db ->
      check "store replays identically" true (rows s1 db = rows s2 db);
      check "class database non-empty" true (rows s1 db > 0))
    [ "db_gold"; "db_silver"; "db_bronze" ]

(* --- autoscaler policy loop --- *)

let test_autoscale_policy () =
  let pol =
    Autoscale.policy ~min_workers:1 ~max_workers:8 ~queue_hi:2.0
      ~queue_lo:0.5 ~tail_target_s:0.01 ~window:4 ~cooldown:2
      ~cache_min_bytes:100 ~cache_max_bytes:800 ()
  in
  let t = Autoscale.create pol ~workers:2 ~cache_bytes:100 in
  let feed ~queue ~lat =
    Autoscale.note t ~queue_depth:queue ~latency_s:lat
  in
  (* three completions: window not full, no decision yet *)
  for _ = 1 to 3 do
    check "window still filling" true (feed ~queue:100 ~lat:1.0 = None)
  done;
  (match feed ~queue:100 ~lat:1.0 with
  | Some d ->
      check "up" true (d.Autoscale.d_dir = Autoscale.Up);
      check_int "doubles" 4 d.Autoscale.d_workers_to;
      check "cache grows with workers" true
        (d.Autoscale.d_cache_to > d.Autoscale.d_cache_from)
  | None -> Alcotest.fail "hot window must scale up");
  check_int "applied" 4 (Autoscale.workers t);
  (* one calm window is not enough (cooldown 2)... *)
  for _ = 1 to 4 do
    check "first calm window holds" true (feed ~queue:0 ~lat:0.0001 = None)
  done;
  check_int "held through first calm window" 4 (Autoscale.workers t);
  (* ...and a hot window resets the streak *)
  for _ = 1 to 4 do
    ignore (feed ~queue:100 ~lat:1.0)
  done;
  check_int "burst re-doubled" 8 (Autoscale.workers t);
  for _ = 1 to 4 do
    ignore (feed ~queue:100 ~lat:1.0)
  done;
  check_int "clamped at max" 8 (Autoscale.workers t);
  (* two consecutive calm windows finally halve *)
  for _ = 1 to 4 do
    ignore (feed ~queue:0 ~lat:0.0001)
  done;
  check_int "calm streak 1: held" 8 (Autoscale.workers t);
  let down = ref None in
  for _ = 1 to 4 do
    match feed ~queue:0 ~lat:0.0001 with
    | Some d -> down := Some d
    | None -> ()
  done;
  (match !down with
  | Some d ->
      check "down" true (d.Autoscale.d_dir = Autoscale.Down);
      check_int "halves" 4 d.Autoscale.d_workers_to
  | None -> Alcotest.fail "second calm window must scale down");
  (* six full windows were fed, six evaluations happened *)
  check_int "evals counted" 6 (Autoscale.evals t)

(* --- SLO scorecard over a real run --- *)

let test_slo_scorecard () =
  let spec =
    Load.spec ~tenants:400 ~queries:36 ~seed:5 ~duration_s:2.0 ~deltas:2
      ~skew:1.1 ~burstiness:0.6 ~bursts:2 ()
  in
  let t = Load.generate spec in
  let config =
    Service.config ~workers:2 ~queue_capacity:64 ~cache_bytes:(1 lsl 20)
      ~seed:1 ()
  in
  let report = Service.run ~config ~edb:(t.Load.make_store ()) t.Load.events in
  let stats = Load.slo_stats t report in
  check_int "three classes, always" 3 (List.length stats);
  (match stats with
  | [ g; s; b ] ->
      check "gold first" true (g.Load.cs_class = Load.Gold);
      check "targets ordered" true
        (s.Load.cs_target_s > g.Load.cs_target_s
        && b.Load.cs_target_s > s.Load.cs_target_s)
  | _ -> assert false);
  let sum f = List.fold_left (fun acc cs -> acc + f cs) 0 stats in
  check_int "served partitions by class" (Service.counter report "done")
    (sum (fun cs -> cs.Load.cs_served));
  check_int "degraded partitions by class" report.Service.served_degraded
    (sum (fun cs -> cs.Load.cs_degraded));
  check_int "rejections partition by class"
    (Service.counter report "rejected")
    (sum (fun cs -> cs.Load.cs_rejected));
  List.iter
    (fun cs ->
      check "histogram holds every served latency" true
        (Histogram.count cs.Load.cs_hist = cs.Load.cs_served);
      check "within <= served" true (cs.Load.cs_within <= cs.Load.cs_served);
      check "degraded inside served" true
        (cs.Load.cs_degraded <= cs.Load.cs_served);
      let a = Load.attainment cs in
      check "attainment in [0,1]" true (a >= 0.0 && a <= 1.0))
    stats;
  (* the JSON report round-trips and carries the fixed quantile set *)
  let j = Json.of_string (Json.to_string (Load.slo_json t report)) in
  let classes = Json.to_list (Json.member "classes" j) in
  check_int "three classes in json" 3 (List.length classes);
  List.iter
    (fun c ->
      let lat = Json.member "latency" c in
      if Json.to_int (Json.member "count" lat) = 0 then
        (* empty class: quantiles must be omitted, not fabricated zeros *)
        List.iter
          (fun k -> check "empty class omits quantiles" true (Json.member k lat = Json.Null))
          [ "p50"; "p95"; "p99"; "p999"; "min"; "max"; "mean" ]
      else
        List.iter
          (fun k -> ignore (Json.to_float (Json.member k lat)))
          [ "p50"; "p95"; "p99"; "p999"; "min"; "max"; "mean" ])
    classes;
  check "summary renders" true (String.length (Load.slo_summary t report) > 0)

(* --- served rows on the default trace ------------------------------------- *)

(* The default spec sends deltas to all three databases, which share the
   relation name [arc]. Every served result — cold run, cache hit or warm
   refresh — must equal a from-scratch evaluation over the database as it
   stood when the query started: the base graph plus every delta to that
   database due by then. *)
let test_default_trace_matches_scratch () =
  let module Relation = Rs_relation.Relation in
  let module Delta = Rs_relation.Delta in
  let t = Load.generate (Load.spec ()) in
  let subs = Hashtbl.create 512 in
  let n = ref 0 in
  let events =
    List.map
      (function
        | Service.Submit sub ->
            incr n;
            let sub = { sub with Service.sub_id = Printf.sprintf "q%d" !n } in
            Hashtbl.replace subs sub.Service.sub_id sub;
            Service.Submit sub
        | e -> e)
      t.Load.events
  in
  let deltas =
    List.filter_map
      (function Service.Delta { at; edb; delta } -> Some (at, edb, delta) | _ -> None)
      events
  in
  check "deltas reach every database" true
    (List.for_all
       (fun db -> List.exists (fun (_, e, _) -> e = db) deltas)
       [ "db_gold"; "db_silver"; "db_bronze" ]);
  let base = t.Load.make_store () in
  let arc_at db started =
    let rows = Hashtbl.create 4096 in
    List.iter
      (fun row -> Hashtbl.replace rows row ())
      (Relation.to_rows (List.assoc "arc" (Rs_service.Edb_store.lookup base db)));
    List.iter
      (fun (at, e, d) ->
        if e = db && at <= started then
          List.iter (fun (o : Delta.op) -> Hashtbl.replace rows o.Delta.row ()) (Delta.ops d "arc"))
      deltas;
    Relation.of_rows ~name:"arc" 2 (Hashtbl.fold (fun row () acc -> row :: acc) rows [])
  in
  let memo = Hashtbl.create 256 in
  let scratch (sub : Service.submission) started =
    let key =
      ( sub.Service.edb,
        List.length (List.filter (fun (at, e, _) -> e = sub.Service.edb && at <= started) deltas),
        Rs_service.Program_key.canonical sub.Service.program )
    in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let pool = Rs_parallel.Pool.create ~workers:2 () in
        Rs_parallel.Pool.begin_run pool;
        let r =
          Recstep.Interpreter.run ~options:(Recstep.Interpreter.options ()) ~pool
            ~edb:[ ("arc", arc_at sub.Service.edb started) ] sub.Service.program
        in
        let v =
          List.map
            (fun (name, rel) -> (name, Relation.sorted_distinct_rows rel))
            r.Recstep.Interpreter.outputs
        in
        Hashtbl.replace memo key v;
        v
  in
  let report = Service.run ~edb:(t.Load.make_store ()) events in
  check "deltas applied" true (Service.counter report "delta_applied" = List.length deltas);
  let served = ref 0 in
  List.iter
    (fun (c : Service.completion) ->
      match (c.Service.c_outcome, c.Service.c_started) with
      | Service.Done v, Some started ->
          incr served;
          let want = scratch (Hashtbl.find subs c.Service.c_id) started in
          let sum = Rs_service.Result_cache.value_checksum in
          if sum v <> sum want then
            Alcotest.failf "%s on %s: served rows differ from a from-scratch run" c.Service.c_id
              c.Service.c_edb
      | _ -> ())
    report.Service.completions;
  check_int "every query served" (List.length t.Load.events - List.length deltas) !served

let suite =
  [
    Alcotest.test_case "scheduler: 50k-tenant pop order is deterministic"
      `Quick test_sched_determinism_at_scale;
    Alcotest.test_case "scheduler: probes stay linear at 50k tenants" `Quick
      test_sched_subquadratic;
    Alcotest.test_case "scheduler: ring reclaimed after drain" `Quick
      test_sched_ring_reclaimed;
    Alcotest.test_case "scheduler: round-robin bounds a chatty tenant" `Quick
      test_sched_fairness_one_hog;
    Alcotest.test_case "zipf sampling" `Quick test_zipf;
    Alcotest.test_case "load generation is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "autoscaler: hysteresis and clamps" `Quick
      test_autoscale_policy;
    Alcotest.test_case "slo scorecard over a live run" `Quick
      test_slo_scorecard;
    Alcotest.test_case "default trace serves from-scratch rows" `Quick
      test_default_trace_matches_scratch;
  ]
