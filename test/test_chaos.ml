(* rs_chaos: plan syntax, deterministic scoped injection, the instrumented
   fault points, the typed retry ladder, and end-to-end recovery through the
   service — including the frozen chaos corpus. *)

module Fault = Rs_chaos.Fault
module Inject = Rs_chaos.Inject
module Memtrack = Rs_storage.Memtrack
module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Retry = Rs_service.Retry
module Service = Rs_service.Service
module Edb_store = Rs_service.Edb_store
module Result_cache = Rs_service.Result_cache
module Gen = Rs_fuzz.Gen
module Differ = Rs_fuzz.Differ
module Chaos_harness = Rs_fuzz.Chaos_harness
module Parser = Recstep.Parser

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- plan syntax --------------------------------------------------------- *)

let test_plan_syntax () =
  let p = Fault.plan_of_string ~seed:9 "mem:p=0.5,threshold=4096;crash:limit=1;stall:factor=8" in
  check_int "three specs" 3 (List.length p.Fault.specs);
  check_int "seed kept" 9 p.Fault.seed;
  let rt = Fault.plan_of_string ~seed:9 (Fault.plan_to_string p) in
  check "round-trips" true (rt = p);
  let mem = List.find (fun s -> s.Fault.cls = Fault.Mem) p.Fault.specs in
  check "p parsed" true (mem.Fault.p = 0.5);
  check_int "threshold parsed" 4096 mem.Fault.threshold;
  let expect_error s =
    match Fault.plan_of_string s with
    | exception Fault.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted bad plan %S" s)
  in
  expect_error "bogus:p=1";
  expect_error "mem:p=abc";
  expect_error "mem:p=1;mem:p=0.5";
  expect_error "mem:p=2";
  expect_error "node_loss:p=1";
  expect_error "shuffle_drop:p=1";
  (match Fault.plan [ Fault.spec Fault.Txn; Fault.spec Fault.Txn ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate class accepted");
  List.iter
    (fun c -> check "cls_of_name inverts cls_name" true
        (Fault.cls_of_name (Fault.cls_name c) = Some c))
    Fault.all_classes;
  (* per-class injector arrays have length [n_classes]: the index must map
     the class list one-to-one onto [0, n_classes) *)
  check "cls_index is a bijection onto [0, n_classes)" true
    (List.sort compare (List.map Fault.cls_index Fault.all_classes)
    = List.init Fault.n_classes Fun.id)

(* --- deterministic, scoped activation ------------------------------------ *)

let test_inject_determinism () =
  let plan seed = Fault.plan ~seed [ Fault.spec ~p:0.3 Fault.Dedup_drop ] in
  let pattern seed =
    Inject.with_plan (plan seed) (fun () ->
        List.init 512 (fun k -> Inject.dedup_drops ~key:(k * 7919)))
  in
  check "same seed, same decisions" true (pattern 42 = pattern 42);
  check "different seed, different decisions" true (pattern 42 <> pattern 43);
  check "some keys dropped" true (List.exists Fun.id (pattern 42));
  check "some keys kept" true (List.exists not (pattern 42));
  (* probe-ordinal streams are equally reproducible *)
  let stalls () =
    Inject.with_plan (Fault.plan ~seed:7 [ Fault.spec ~p:0.5 ~factor:8.0 Fault.Stall ])
      (fun () -> List.init 64 (fun _ -> Inject.stall_factor ()))
  in
  check "stall stream reproducible" true (stalls () = stalls ())

let test_with_plan_scoping () =
  check "inactive outside" false (Inject.active ());
  (* probes are no-ops without a plan *)
  Inject.txn_should_abort ~point:"t";
  Inject.crash_point ~point:"c";
  check "no drop without plan" false (Inject.dedup_drops ~key:1);
  check "no stall without plan" true (Inject.stall_factor () = 1.0);
  check "no fires without plan" true (Inject.fires () = []);
  let plan = Fault.plan ~seed:1 [ Fault.spec Fault.Txn ] in
  (* restored on normal exit *)
  Inject.with_plan plan (fun () -> check "active inside" true (Inject.active ()));
  check "inactive after" false (Inject.active ());
  (* restored on the exception path too *)
  (match Inject.with_plan plan (fun () -> Inject.txn_should_abort ~point:"x") with
  | () -> Alcotest.fail "armed txn abort did not fire"
  | exception Fault.Injected { cls = Fault.Txn; point = "x" } -> ()
  | exception e -> raise e);
  check "inactive after exception" false (Inject.active ());
  (* nested plans shadow and restore *)
  Inject.with_plan plan (fun () ->
      let inner = Fault.plan ~seed:2 [ Fault.spec ~factor:3.0 Fault.Stall ] in
      Inject.with_plan inner (fun () ->
          check "inner plan shadows" true (Inject.stall_factor () = 3.0));
      check "outer restored" true (Inject.stall_factor () = 1.0))

(* --- instrumented fault points ------------------------------------------- *)

let test_memtrack_probe () =
  Memtrack.hard_reset ();
  Memtrack.set_budget None;
  Memtrack.alloc 512;
  let plan = Fault.plan ~seed:1 [ Fault.spec ~threshold:1000 ~limit:1 Fault.Mem ] in
  Inject.with_plan plan (fun () ->
      (* below the threshold: doesn't count *)
      Memtrack.alloc 100;
      Memtrack.free 100;
      check_int "live intact below threshold" 512 (Memtrack.live ());
      (match Memtrack.alloc 600 with
      | () -> Alcotest.fail "armed mem fault did not fire"
      | exception Memtrack.Simulated_oom { requested; live; _ } ->
          check_int "requested" 600 requested;
          check_int "live reported pre-alloc" 512 live);
      check_int "live rolled back" 512 (Memtrack.live ());
      (* limit=1: the second crossing succeeds *)
      Memtrack.alloc 600;
      check_int "post-limit alloc lands" 1112 (Memtrack.live ());
      check "mem fire counted" true (List.assoc_opt Fault.Mem (Inject.fires ()) = Some 1));
  Memtrack.hard_reset ()

(* Both FAST-DEDUP table fault points: creation, and the growth step of a
   table made before the plan was armed. [expected] 16 gives 32 slots, which
   hold 16 keys at load 1/2, so the 17th claim grows the table. *)
let test_dedup_table_faults () =
  let plan = Fault.plan_of_string "dedup:p=1.0" in
  let expect_fault point f =
    match f () with
    | _ -> Alcotest.fail ("armed dedup fault did not fire at " ^ point)
    | exception Fault.Injected { cls = Fault.Dedup_fail; point = p } ->
        Alcotest.(check string) "fault point" point p
  in
  List.iter
    (fun arity ->
      Inject.with_plan plan (fun () ->
          expect_fault "dedup.create" (fun () -> Dedup.create Dedup.Fast arity));
      let t = Dedup.create ~expected:16 Dedup.Fast arity in
      let row i = Array.make arity i in
      Inject.with_plan plan (fun () ->
          for i = 0 to 15 do
            check "claims below the growth load do not probe" true (Dedup.add_row t (row i))
          done;
          expect_fault "dedup.rehash" (fun () -> Dedup.add_row t (row 16))))
    [ 1; 2; 3 ]

let test_pool_stall_inflates_vtime () =
  let work pool =
    Pool.begin_run pool;
    let acc = Atomic.make 0 in
    Pool.parallel_for pool 0 100_000 (fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + (i land 31)
        done;
        Atomic.set acc (Atomic.get acc + !s));
    Pool.vtime_now pool
  in
  let plain = work (Pool.create ~workers:4 ()) in
  let stalled =
    Inject.with_plan
      (Fault.plan ~seed:1 [ Fault.spec ~factor:1e6 Fault.Stall ])
      (fun () -> work (Pool.create ~workers:4 ()))
  in
  check "stall inflates the virtual clock" true (stalled > plain *. 100.0)

let test_pool_crash_then_recover () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let plan = Fault.plan ~seed:1 [ Fault.spec ~limit:1 Fault.Crash ] in
  Inject.with_plan plan (fun () ->
      (match Pool.parallel_for pool 0 100 (fun _ _ -> ()) with
      | () -> Alcotest.fail "armed crash did not fire"
      | exception Fault.Injected { cls = Fault.Crash; point = "pool.parallel_for" } -> ());
      (* the pool survives its dead chunk: the next batch runs to completion *)
      let acc = Atomic.make 0 in
      Pool.parallel_for pool 0 100 (fun lo hi ->
          Atomic.set acc (Atomic.get acc + (hi - lo)));
      check_int "pool usable after crash" 100 (Atomic.get acc))

(* A large transient build side (OPSD with no index manager: a membership
   set of R) goes through the [index] fault point, as every index and set
   build does. *)
let test_index_fault_on_large_build () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let ex = Rs_exec.Executor.create pool (Rs_exec.Catalog.create ()) in
  let r = Relation.create 2 in
  for i = 0 to 19_999 do
    Relation.push2 r i (i * 7)
  done;
  let rdelta = Relation.of_rows 2 [ [| 1; 7 |]; [| 3; 3 |] ] in
  Inject.with_plan (Fault.plan_of_string ~seed:1 "index:p=1") (fun () ->
      match Rs_exec.Executor.opsd ex ~rdelta ~r () with
      | _ -> Alcotest.fail "armed index fault did not fire on a 20,000-row build"
      | exception Fault.Injected { cls = Fault.Index_fail; point } ->
          Alcotest.(check string) "fault point" "index_set.build" point)

(* Membership sets probe the [index] class at build and at append, each
   before it writes: a fired build leaves the manager holding nothing, a
   fired append leaves the set exactly as it was and the next acquisition
   appends. *)
let test_index_fault_on_sets () =
  Memtrack.hard_reset ();
  let module Index_manager = Rs_exec.Index_manager in
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let m = Index_manager.create ~persistent:(fun _ -> true) pool in
  let r = Relation.of_rows 2 [ [| 1; 2 |]; [| 2; 3 |] ] in
  let get () = Index_manager.get_set m ~name:"r" r [| 0; 1 |] in
  let fires_at point =
    Inject.with_plan (Fault.plan_of_string ~seed:1 "index:p=1") (fun () ->
        match get () with
        | _ -> Alcotest.failf "armed index fault did not fire at %s" point
        | exception Fault.Injected { cls = Fault.Index_fail; point = p } ->
            Alcotest.(check string) "fault point" point p)
  in
  fires_at "index_set.build";
  check_int "a failed build holds nothing" 0 (Index_manager.bytes m);
  check_int "a failed build accounts nothing" 0 (Memtrack.live ());
  let s = get () in
  let card = Dedup.cardinal s and bytes = Index_manager.bytes m in
  Relation.push2 r 3 4;
  fires_at "index_set.append";
  check "a failed append writes nothing" true
    (Dedup.cardinal s = card && (not (Dedup.mem2 s 3 4)) && Index_manager.bytes m = bytes);
  let s' = get () in
  check "the next acquisition appends" true (s == s' && Dedup.mem2 s' 3 4);
  Index_manager.release_all m;
  check_int "all bytes returned" 0 (Memtrack.live ())

(* [Dedup_drop] means "dedup lost a derivation": it never reaches a
   membership set, whose loss would instead mean a wrong set difference. *)
let test_dedup_drop_spares_sets () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let r = Relation.of_rows 2 (List.init 64 (fun i -> [| i; i * 3 |])) in
  Inject.with_plan (Fault.plan_of_string ~seed:1 "dedup_drop:p=1") (fun () ->
      let table = Dedup.create Dedup.Fast 2 in
      check "the plan drops dedup claims" false (Dedup.add2 table 1 3);
      let set = Rs_exec.Index_manager.build_set pool r [| 0; 1 |] in
      check_int "the set holds every row" 64 (Dedup.cardinal set);
      check "every row is a member" true
        (List.for_all (fun i -> Dedup.mem2 set i (i * 3)) (List.init 64 Fun.id));
      let ex = Rs_exec.Executor.create pool (Rs_exec.Catalog.create ()) in
      let rdelta = Relation.of_rows 2 [ [| 1; 3 |]; [| 1; 4 |] ] in
      let diff = Rs_exec.Executor.opsd ex ~rdelta ~r () in
      check "OPSD is exact" true (Relation.to_rows diff = [ [| 1; 4 |] ]))

(* --- the retry policy ---------------------------------------------------- *)

let test_retry_backoff_sequence () =
  let b r = Retry.backoff_s Retry.default ~retry:r in
  check "backoff 1" true (b 1 = 1e-3);
  check "backoff 2" true (b 2 = 2e-3);
  check "backoff 3" true (b 3 = 4e-3);
  check "backoff caps" true (b 9 = 0.25 && b 20 = 0.25);
  match Retry.backoff_s Retry.default ~retry:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "retry 0 accepted"

let test_retry_ladder_knobs () =
  check "ladder chain" true
    (Retry.next_rung Retry.Full = Some Retry.Half_workers
    && Retry.next_rung Retry.Half_workers = Some Retry.No_persistent_indexes
    && Retry.next_rung Retry.No_persistent_indexes = Some Retry.No_fast_path
    && Retry.next_rung Retry.No_fast_path = None);
  let k = Retry.knobs ~workers:8 in
  check "full" true (k Retry.Full = { Retry.k_workers = 8; k_persistent_indexes = true; k_fast_path = true });
  check "half keeps options" true
    (k Retry.Half_workers = { Retry.k_workers = 4; k_persistent_indexes = true; k_fast_path = true });
  check "no indexes keeps half workers" true
    (k Retry.No_persistent_indexes
    = { Retry.k_workers = 4; k_persistent_indexes = false; k_fast_path = true });
  check "bottom rung is cumulative" true
    (k Retry.No_fast_path
    = { Retry.k_workers = 4; k_persistent_indexes = false; k_fast_path = false });
  check "worker floor" true ((Retry.knobs ~workers:1 Retry.Half_workers).Retry.k_workers = 1)

let test_retry_class_retryability () =
  check "oom retryable" true (Retry.retryable Retry.Oom_failure);
  List.iter
    (fun c -> check (Fault.cls_name c ^ " retryable") true
        (Retry.retryable (Retry.Fault_failure c)))
    [ Fault.Txn; Fault.Crash; Fault.Dedup_fail; Fault.Index_fail ];
  List.iter
    (fun c -> check (Fault.cls_name c ^ " not retryable") false
        (Retry.retryable (Retry.Fault_failure c)))
    [ Fault.Mem; Fault.Stall; Fault.Dedup_drop; Fault.Cache_corrupt ]

let test_retry_decisions () =
  let p = Retry.default in
  (* OOM walks down the ladder *)
  check "oom advances rung" true
    (Retry.next p ~attempt:1 ~rung:Retry.Full Retry.Oom_failure
    = Retry.Retry { rung = Retry.Half_workers; backoff_s = 1e-3 });
  check "oom at the bottom gives up" true
    (Retry.next p ~attempt:2 ~rung:Retry.No_fast_path Retry.Oom_failure = Retry.Give_up);
  (* transient faults retry in place, with growing backoff *)
  check "fault retries same rung" true
    (Retry.next p ~attempt:2 ~rung:Retry.Half_workers (Retry.Fault_failure Fault.Crash)
    = Retry.Retry { rung = Retry.Half_workers; backoff_s = 2e-3 });
  (* attempt budget exhausts *)
  check "max attempts gives up" true
    (Retry.next p ~attempt:4 ~rung:Retry.Full (Retry.Fault_failure Fault.Txn)
    = Retry.Give_up);
  (* non-retryable classes give up immediately *)
  check "stall gives up" true
    (Retry.next p ~attempt:1 ~rung:Retry.Full (Retry.Fault_failure Fault.Stall)
    = Retry.Give_up)

(* --- result-cache integrity guards --------------------------------------- *)

let cache_key = { Result_cache.program = "p"; edb = "g"; edb_version = 0 }
let cache_value : Result_cache.value = [ ("out", [ [| 1; 2 |]; [| 3; 4 |] ]) ]

let test_cache_detects_corruption () =
  let c = Result_cache.create ~budget_bytes:(1 lsl 20) in
  Inject.with_plan
    (Fault.plan ~seed:1 [ Fault.spec ~limit:1 Fault.Cache_corrupt ])
    (fun () ->
      Result_cache.add c cache_key cache_value ~canonical:"p";
      check "corrupted entry deflected to miss" true
        (Result_cache.find c cache_key ~canonical:"p" = None);
      check_int "corruption counted" 1 (Result_cache.stats c).Result_cache.corruptions;
      (* limit consumed: a fresh insert is stored intact *)
      Result_cache.add c cache_key cache_value ~canonical:"p";
      check "reinserted entry verifies" true
        (Result_cache.find c cache_key ~canonical:"p" = Some cache_value))

let test_cache_refuses_stale_and_degraded () =
  let c = Result_cache.create ~budget_bytes:(1 lsl 20) in
  Result_cache.add c cache_key cache_value ~canonical:"p" ~stale:true;
  check "stale result not cached" true (Result_cache.find c cache_key ~canonical:"p" = None);
  Result_cache.add c cache_key cache_value ~canonical:"p" ~degraded:true;
  check "degraded result not cached" true
    (Result_cache.find c cache_key ~canonical:"p" = None);
  check_int "both refusals counted" 2 (Result_cache.stats c).Result_cache.skipped;
  Result_cache.add c cache_key cache_value ~canonical:"p";
  check "clean result cached" true
    (Result_cache.find c cache_key ~canonical:"p" = Some cache_value)

(* --- service recovery, end to end ----------------------------------------- *)

let tc = Recstep.Programs.parsed Recstep.Programs.tc

let ring n =
  let rows = List.init n (fun i -> [| i; (i + 1) mod n |]) in
  let r = Relation.of_rows ~name:"arc" 2 rows in
  Relation.account r;
  r

let store () =
  let t = Edb_store.create () in
  Edb_store.define t "g" [ ("arc", ring 6) ];
  t

let counter report name = List.assoc name report.Service.counters

let run_one ?deadline_vs ?retry plan_specs =
  Memtrack.hard_reset ();
  Memtrack.set_budget None;
  let store = store () in
  let baseline = Memtrack.live () in
  let config = Service.config ~workers:8 ~seed:1 ?retry () in
  let sub = Service.Submit (Service.submission ?deadline_vs ~tenant:"t" ~edb:"g" tc) in
  let report =
    Inject.with_plan (Fault.plan ~seed:1 plan_specs) (fun () ->
        Service.run ~config ~edb:store [ sub ])
  in
  check_int "live bytes back to baseline" baseline (Memtrack.live ());
  (report, List.hd report.Service.completions)

(* The kernel path acquires its head table's set before it allocates its
   dedup table or writes its Δ. [reach] runs on compiled kernels in the
   service; firing the [index] class once at each of its probes in turn,
   the engine run dies with the typed fault (one of them a kernel
   iteration's set append), and the service retries it to the unarmed
   answer with every byte returned. *)
let test_index_fault_degrades_kernel () =
  let reach = Recstep.Programs.parsed Recstep.Programs.reach in
  let edb () =
    let id = Relation.of_rows ~name:"id" 1 [ [| 0 |] ] in
    Relation.account id;
    [ ("arc", ring 6); ("id", id) ]
  in
  let once after = Fault.plan ~seed:1 [ Fault.spec ~after ~limit:1 Fault.Index_fail ] in
  (* the engine alone: which point each probe is *)
  let engine () =
    let pool = Pool.create ~workers:4 () in
    Pool.begin_run pool;
    let options = Recstep.Interpreter.options ~pbme:false ~compiled_kernels:true () in
    ignore (Recstep.Interpreter.run ~options ~pool ~edb:(edb ()) reach)
  in
  let rec points after acc =
    match Inject.with_plan (once after) engine with
    | () -> List.rev acc
    | exception Fault.Injected { cls = Fault.Index_fail; point } ->
        points (after + 1) (point :: acc)
  in
  let points = points 0 [] in
  check "set build probed" true (List.mem "index_set.build" points);
  check "set append probed" true (List.mem "index_set.append" points);
  (* the service: every single fault is retried to the unarmed answer *)
  let serve plan =
    Memtrack.hard_reset ();
    Memtrack.set_budget None;
    let s = Edb_store.create () in
    Edb_store.define s "g" (edb ());
    let baseline = Memtrack.live () in
    let config = Service.config ~workers:8 ~seed:1 () in
    let sub = Service.Submit (Service.submission ~tenant:"t" ~edb:"g" reach) in
    let report = Inject.with_plan plan (fun () -> Service.run ~config ~edb:s [ sub ]) in
    check_int "live bytes back to baseline" baseline (Memtrack.live ());
    (List.hd report.Service.completions).Service.c_outcome
  in
  let expected = serve (Fault.plan []) in
  List.iteri
    (fun after point ->
      match serve (once after) with
      | Service.Done _ as o ->
          check (Printf.sprintf "answer after a fault at %s" point) true (o = expected)
      | o -> Alcotest.failf "fault at %s: expected done, got %s" point (Service.outcome_label o))
    points

(* A kernel round whose dedup table must grow. [q]'s rule joins [p]'s
   130-row Δ with [e], whose 16,430 rows put the round's estimate past the
   dedup table's 2^14-entry pre-allocation ceiling, and the round claims
   16,900 distinct pairs, so the table grows inside [Kernel.run]. [p] and
   [q] are mutually recursive so that [q]'s rows are never joined with [e]
   again, which keeps the naive oracle quick. Firing [dedup.rehash] there
   must end the run with the typed fault and drop [q]'s managed membership
   set, into which the kernel had already claimed tuples, rather than leave
   it half-filled; the unarmed re-run must match the oracle. *)
let test_dedup_rehash_in_kernel () =
  let module Engine_intf = Rs_engines.Engine_intf in
  let module Index_manager = Rs_exec.Index_manager in
  let program =
    Parser.parse
      ".input s\n.input e\n.input t\n\
       p(x, y) :- s(x, y).\n\
       q(x, y) :- p(x, z), e(z, y).\n\
       p(x, y) :- q(x, y), t(y).\n\
       .output p\n.output q"
  in
  let fan = List.init 130 Fun.id in
  let edb_rows =
    [
      ("s", List.map (fun a -> [ a; 1000 ]) fan);
      ( "e",
        List.map (fun c -> [ 1000; 2000 + c ]) fan
        @ List.init 16_300 (fun i -> [ 10_000 + (2 * i); 10_001 + (2 * i) ]) );
      ("t", [ [ 99_999 ] ]);
    ]
  in
  let edb () =
    List.map
      (fun (name, rows) ->
        (name, Relation.of_rows ~name (List.length (List.hd rows)) (List.map Array.of_list rows)))
      edb_rows
  in
  let q_keys = [| 0; 1 |] in
  (* the interpreter over a manager the test holds: the outcome, and whether
     [q]'s set is still held when the run ends *)
  let managed plan =
    let pool = Pool.create ~workers:4 () in
    Pool.begin_run pool;
    let shared = Index_manager.create ~persistent:(fun n -> n = "p" || n = "q") pool in
    let options = Recstep.Interpreter.options ~shared_indexes:shared () in
    let outcome =
      Inject.with_plan plan (fun () ->
          Engine_intf.guard (fun () ->
              ignore (Recstep.Interpreter.run ~options ~pool ~edb:(edb ()) program)))
    in
    let held = Index_manager.peek_set shared ~name:"q" q_keys <> None in
    Index_manager.release_all shared;
    (outcome, held)
  in
  let once after = Fault.plan ~seed:1 [ Fault.spec ~after ~limit:1 Fault.Dedup_fail ] in
  let rec points after acc =
    match fst (managed (once after)) with
    | Engine_intf.Done () -> List.rev acc
    | Engine_intf.Fault { point; _ } -> points (after + 1) (point :: acc)
    | _ -> Alcotest.fail "dedup fault ended the run with another outcome"
  in
  let points = points 0 [] in
  let rec index_of i = function
    | [] -> Alcotest.fail "no dedup table grew"
    | "dedup.rehash" :: _ -> i
    | _ :: rest -> index_of (i + 1) rest
  in
  let rehash = once (index_of 0 points) in
  let is_rehash_fault = function
    | Engine_intf.Fault { cls = Fault.Dedup_fail; point = "dedup.rehash" } -> true
    | _ -> false
  in
  let clean, held = managed (Fault.plan []) in
  check "clean run done" true (clean = Engine_intf.Done ());
  check "clean run keeps q's set" true held;
  let faulted, held = managed rehash in
  check "fault at dedup.rehash" true (is_rehash_fault faulted);
  check "q's half-claimed set dropped" false held;
  (* the same fault through the engine interface, then the unarmed re-run *)
  let run () =
    let pool = Pool.create ~workers:4 () in
    Pool.begin_run pool;
    Engine_intf.run_guarded Rs_engines.Engines.recstep ~pool ~edb:(edb ()) program
  in
  check "run_guarded: fault at dedup.rehash" true (is_rehash_fault (Inject.with_plan rehash run));
  (match run () with
  | Engine_intf.Done r ->
      let _, oracle = Recstep.Naive.run ~edb:edb_rows program in
      List.iter
        (fun name ->
          Alcotest.(check (list (list int)))
            ("re-run " ^ name ^ " = naive")
            (oracle name)
            (List.map Array.to_list (Relation.sorted_distinct_rows (r.Engine_intf.relation_of name))))
        [ "p"; "q" ]
  | _ -> Alcotest.fail "unarmed re-run did not finish")

let test_service_retries_txn_abort () =
  let report, c = run_one [ Fault.spec ~limit:1 Fault.Txn ] in
  (match c.Service.c_outcome with
  | Service.Done _ -> ()
  | o -> Alcotest.fail ("expected done, got " ^ Service.outcome_label o));
  check_int "one retry" 1 c.Service.c_retries;
  check "not degraded (same rung)" true (c.Service.c_degraded = None);
  check_int "retried counter" 1 (counter report "retried");
  check_int "no fault surfaced" 0 (counter report "fault")

let test_service_degrades_on_mem_fault () =
  (* one allocation failure past the current working set: attempt 1 dies
     with OOM, attempt 2 runs a rung down and completes *)
  Memtrack.hard_reset ();
  let s = store () in
  let threshold = Memtrack.live () + 256 in
  let config = Service.config ~workers:8 ~seed:1 () in
  let sub = Service.Submit (Service.submission ~tenant:"t" ~edb:"g" tc) in
  let report =
    Inject.with_plan
      (Fault.plan ~seed:1 [ Fault.spec ~threshold ~limit:1 Fault.Mem ])
      (fun () -> Service.run ~config ~edb:s [ sub ])
  in
  let c = List.hd report.Service.completions in
  (match c.Service.c_outcome with
  | Service.Done _ -> ()
  | o -> Alcotest.fail ("expected done, got " ^ Service.outcome_label o));
  check "degraded one rung" true (c.Service.c_degraded = Some "half_workers");
  check_int "degraded counter" 1 (counter report "degraded");
  check_int "degraded run not cached" 0 report.Service.cache.Result_cache.insertions

let test_service_backoff_exhausts_deadline () =
  (* a transient fault is retryable, but the backoff lands past the
     deadline: the service must report a typed Timeout, not sleep through *)
  let retry = Retry.policy ~backoff_base_s:10.0 ~backoff_cap_s:10.0 () in
  let report, c = run_one ~deadline_vs:0.5 ~retry [ Fault.spec Fault.Txn ] in
  check "typed timeout" true (c.Service.c_outcome = Service.Timeout);
  check_int "deadline miss counted" 1 (counter report "deadline_miss")

let test_service_typed_fault_after_budget () =
  let report, c = run_one [ Fault.spec Fault.Crash ] in
  (match c.Service.c_outcome with
  | Service.Fault { cls = Fault.Crash; _ } -> ()
  | o -> Alcotest.fail ("expected fault, got " ^ Service.outcome_label o));
  check_int "fault counter" 1 (counter report "fault");
  check_int "all attempts burned" 3 c.Service.c_retries;
  check "submitted = admitted + rejected" true
    (counter report "submitted" = counter report "admitted" + counter report "rejected");
  check "admitted partitions into outcomes" true
    (counter report "admitted"
    = counter report "done" + counter report "oom" + counter report "timeout"
      + counter report "unsupported" + counter report "fault")

(* --- the harness and the frozen corpus ----------------------------------- *)

let test_harness_small_campaign_clean () =
  let r = Chaos_harness.run ~seed:7 ~iters:5 () in
  check "campaign clean" true (Chaos_harness.clean r);
  check "faults actually fired" true (r.Chaos_harness.injected <> []);
  check_int "no leaks" 0 r.Chaos_harness.leaks

let test_harness_selftest_trips () =
  (* silent dedup corruption must be caught by the oracle: a campaign that
     stays green under it would prove nothing *)
  let r = Chaos_harness.run ~plan:"dedup_drop:p=0.5" ~seed:7 ~iters:5 () in
  check "self-test plan trips violations" false (Chaos_harness.clean r)

let test_chaos_corpus () =
  let case =
    { Gen.case_seed = 0; program = Parser.parse Refs.chaos_src; edb = Refs.chaos_edb }
  in
  let oracle = Differ.oracle_of_case case in
  List.iter
    (fun (tag, plan_str, expected) ->
      let cr, vs = Chaos_harness.run_case ~iter:0 ~cseed:1 ~plan_str case oracle in
      check (tag ^ ": no violations") true (vs = []);
      check (tag ^ ": case ok") true cr.Chaos_harness.cr_ok;
      Alcotest.(check (list string)) (tag ^ ": frozen outcomes") expected
        cr.Chaos_harness.cr_outcomes)
    Refs.chaos_corpus

let suite =
  [
    Alcotest.test_case "plan syntax round-trips and rejects" `Quick test_plan_syntax;
    Alcotest.test_case "injection is deterministic per seed" `Quick test_inject_determinism;
    Alcotest.test_case "with_plan scopes and restores" `Quick test_with_plan_scoping;
    Alcotest.test_case "memtrack probe fires and rolls back" `Quick test_memtrack_probe;
    Alcotest.test_case "dedup table faults at create and growth" `Quick
      test_dedup_table_faults;
    Alcotest.test_case "pool stall inflates the virtual clock" `Quick
      test_pool_stall_inflates_vtime;
    Alcotest.test_case "pool crash is typed and survivable" `Quick
      test_pool_crash_then_recover;
    Alcotest.test_case "index fault reaches a large transient build" `Quick
      test_index_fault_on_large_build;
    Alcotest.test_case "index fault at set build and append" `Quick test_index_fault_on_sets;
    Alcotest.test_case "dedup_drop never reaches a membership set" `Quick
      test_dedup_drop_spares_sets;
    Alcotest.test_case "retry: backoff sequence" `Quick test_retry_backoff_sequence;
    Alcotest.test_case "retry: ladder and knobs are cumulative" `Quick
      test_retry_ladder_knobs;
    Alcotest.test_case "retry: per-class retryability" `Quick test_retry_class_retryability;
    Alcotest.test_case "retry: decisions" `Quick test_retry_decisions;
    Alcotest.test_case "cache detects corrupted entries" `Quick test_cache_detects_corruption;
    Alcotest.test_case "cache refuses stale and degraded results" `Quick
      test_cache_refuses_stale_and_degraded;
    Alcotest.test_case "service retries a txn abort" `Quick test_service_retries_txn_abort;
    Alcotest.test_case "dedup.rehash inside a kernel round" `Quick test_dedup_rehash_in_kernel;
    Alcotest.test_case "index fault degrades a kernel run cleanly" `Quick
      test_index_fault_degrades_kernel;
    Alcotest.test_case "service degrades on memory faults" `Quick
      test_service_degrades_on_mem_fault;
    Alcotest.test_case "service turns exhausted backoff into timeout" `Quick
      test_service_backoff_exhausts_deadline;
    Alcotest.test_case "service types a persistent crash" `Quick
      test_service_typed_fault_after_budget;
    Alcotest.test_case "harness: small campaign is clean" `Quick
      test_harness_small_campaign_clean;
    Alcotest.test_case "harness: dedup_drop self-test trips" `Quick
      test_harness_selftest_trips;
    Alcotest.test_case "frozen chaos corpus" `Quick test_chaos_corpus;
  ]
