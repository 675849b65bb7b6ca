module Pool = Rs_parallel.Pool

let check = Alcotest.(check bool)

let test_parallel_for_covers () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let seen = Array.make 1000 false in
  Pool.parallel_for pool 0 1000 (fun lo hi ->
      for i = lo to hi - 1 do
        check "not visited twice" false seen.(i);
        seen.(i) <- true
      done);
  check "all visited" true (Array.for_all (fun b -> b) seen)

let test_parallel_for_empty () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  Pool.parallel_for pool 5 5 (fun _ _ -> Alcotest.fail "must not run");
  Pool.parallel_for pool 7 3 (fun _ _ -> Alcotest.fail "must not run")

let test_map_tasks_order () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let results = Pool.map_tasks pool (List.init 10 (fun i -> fun () -> i * i)) in
  Alcotest.(check (list int)) "ordered results" (List.init 10 (fun i -> i * i)) results

let test_add_serial_advances_vtime () =
  let pool = Pool.create ~workers:8 () in
  Pool.begin_run pool;
  let v0 = Pool.vtime_now pool in
  Pool.add_serial pool 1.5;
  let v1 = Pool.vtime_now pool in
  check "vtime advanced by ~1.5" true (v1 -. v0 >= 1.5 && v1 -. v0 < 1.6)

let test_makespan_below_total () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let spin () =
    let t0 = Rs_util.Clock.now () in
    while Rs_util.Clock.now () -. t0 < 0.002 do
      ()
    done
  in
  ignore (Pool.map_tasks pool (List.init 8 (fun _ -> spin)));
  let stats = Pool.stats pool in
  (* 8 equal tasks on 4 workers: makespan should be ~busy/4, not ~busy *)
  check "parallel speedup observed" true (stats.Pool.vtime < 0.8 *. stats.Pool.busy)

let test_nested_batches_inline () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let inner_ran = ref 0 in
  Pool.parallel_for pool 0 4 (fun lo hi ->
      for _ = lo to hi - 1 do
        (* nested call must execute inline without corrupting accounting *)
        Pool.parallel_for pool 0 10 (fun l h -> inner_ran := !inner_ran + (h - l))
      done);
  Alcotest.(check int) "nested iterations" 40 !inner_ran;
  let stats = Pool.stats pool in
  check "vtime sane" true (stats.Pool.vtime >= 0.0 && stats.Pool.vtime < 10.0)

let test_events_recorded () =
  let pool = Pool.create ~workers:2 () in
  Pool.begin_run pool;
  Pool.parallel_for pool 0 100 (fun _ _ -> ());
  Pool.add_serial pool 0.25;
  let events = Pool.events pool in
  Alcotest.(check int) "two events" 2 (List.length events);
  let serial = List.nth events 1 in
  check "serial event busy=vlen" true
    (abs_float (serial.Pool.ev_busy -. serial.Pool.ev_vlen) < 1e-9);
  check "event starts within run" true (serial.Pool.ev_vstart >= 0.0)

let test_progress_hook () =
  let pool = Pool.create ~workers:2 () in
  Pool.begin_run pool;
  let calls = ref 0 in
  Pool.on_progress pool (fun _ -> incr calls);
  Pool.parallel_for pool 0 10 (fun _ _ -> ());
  Pool.parallel_for pool 0 10 (fun _ _ -> ());
  Alcotest.(check int) "progress called per batch" 2 !calls;
  Pool.clear_progress pool;
  Pool.parallel_for pool 0 10 (fun _ _ -> ());
  Alcotest.(check int) "cleared" 2 !calls

let test_set_workers () =
  let pool = Pool.create ~workers:3 () in
  Pool.set_workers pool 7;
  Alcotest.(check int) "workers" 7 (Pool.workers pool);
  Pool.set_workers pool 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.workers pool)

(* Reference implementation of the scheduler record_batch used before the
   min-heap: O(workers) linear scan for the least-loaded worker per task.
   The heap must reproduce its makespan exactly — ties may pick a different
   worker index, but the multiset of loads evolves identically. *)
let reference_makespan ~workers durations =
  let loads = Array.make (max 1 workers) 0.0 in
  List.iter
    (fun d ->
      let best = ref 0 in
      for i = 1 to Array.length loads - 1 do
        if loads.(i) < loads.(!best) then best := i
      done;
      loads.(!best) <- loads.(!best) +. d)
    durations;
  Array.fold_left max 0.0 loads

let test_makespan_matches_greedy () =
  let cases =
    [
      (1, [ 1.0; 2.0; 3.0 ]);
      (4, [ 5.0; 4.0; 3.0; 2.0; 1.0; 1.0; 1.0; 1.0 ]);
      (4, List.init 100 (fun i -> float_of_int ((i * 7919) mod 13) /. 3.0));
      (3, [ 2.0; 2.0; 2.0; 2.0; 2.0; 2.0 ]);  (* all ties *)
      (16, [ 0.5 ]);  (* fewer tasks than workers *)
      (8, []);
      (5, List.init 1000 (fun i -> float_of_int ((i * 104729) mod 97) /. 11.0));
    ]
  in
  List.iter
    (fun (workers, durations) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "makespan k=%d n=%d" workers (List.length durations))
        (reference_makespan ~workers durations)
        (Pool.makespan ~workers durations))
    cases

let test_utilization_bounds () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  Pool.parallel_for pool 0 10000 (fun lo hi ->
      let acc = ref 0 in
      for i = lo to hi - 1 do
        acc := !acc + i
      done;
      ignore !acc);
  let stats = Pool.stats pool in
  check "utilization in (0, 1]" true (stats.Pool.utilization > 0.0 && stats.Pool.utilization <= 1.000001)


(* --- one batch over several ranges ---------------------------------------- *)

(* The subranges [f] saw, in call order. *)
let recorder () =
  let seen = ref [] in
  ((fun lo hi -> seen := (lo, hi) :: !seen), fun () -> List.rev !seen)

let test_batch_chunks_like_parallel_for () =
  let ranges = [ (0, 1000); (3, 3); (10, 13); (500, 537); (7, 2); (40, 41); (0, 64) ] in
  List.iter
    (fun chunks ->
      let what = match chunks with Some c -> Printf.sprintf "chunks=%d" c | None -> "default" in
      let alone =
        List.map
          (fun (lo, hi) ->
            let f, seen = recorder () in
            Pool.parallel_for (Pool.create ~workers:4 ()) ?chunks lo hi f;
            seen ())
          ranges
      in
      let pool = Pool.create ~workers:4 () in
      let calls = List.map (fun (lo, hi) -> (lo, hi, recorder ())) ranges in
      let order = ref [] in
      Pool.batch pool ?chunks
        (List.map
           (fun (lo, hi, (f, _)) ->
             ( lo,
               hi,
               fun l h ->
                 order := (l, h) :: !order;
                 f l h ))
           calls);
      List.iter2
        (fun want (lo, hi, (_, seen)) ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: [%d, %d) cut as parallel_for cuts it" what lo hi) want (seen ()))
        alone calls;
      Alcotest.(check (list (pair int int)))
        (what ^ ": ranges in list order, chunks ascending") (List.concat alone) (List.rev !order))
    [ None; Some 1; Some 3; Some 100 ]

(* A wall-clock spin: a chunk whose measured duration is about [s]. *)
let spin s =
  let t0 = Rs_util.Clock.now () in
  while Rs_util.Clock.now () -. t0 < s do
    ()
  done

let test_batch_one_event () =
  let pool = Pool.create ~workers:2 () in
  Pool.begin_run pool;
  (* Chunks run 1, 1, then 3 units. Greedy over them newest first puts 3
     on one worker and 1+1 on the other (makespan 3 units); in run order
     it would end at 4 units. Each duration is timed inside the chunk, a
     few microseconds short of what the pool measures. *)
  let unit = 0.004 in
  let timed = ref [] in
  let chunk units _ _ =
    let t0 = Rs_util.Clock.now () in
    spin (units *. unit);
    timed := (Rs_util.Clock.now () -. t0) :: !timed
  in
  Pool.batch pool ~chunks:1
    [ (0, 1, chunk 1.); (5, 5, chunk 9.); (0, 2, chunk 1.); (3, 4, chunk 3.) ];
  (* [0, 2) with one chunk is one call, and [5, 5) none *)
  let timed = !timed in
  Alcotest.(check int) "three chunks ran" 3 (List.length timed);
  match Pool.events pool with
  | [ ev ] ->
      let newest_first = Pool.makespan ~workers:2 timed in
      let run_order = Pool.makespan ~workers:2 (List.rev timed) in
      check "the orders tell apart" true (run_order -. newest_first > unit /. 2.);
      check
        (Printf.sprintf "makespan %.5f = greedy over durations newest first %.5f" ev.Pool.ev_vlen
           newest_first)
        true
        (Float.abs (ev.Pool.ev_vlen -. newest_first) < unit /. 4.);
      check "busy is every chunk's time" true
        (Float.abs (ev.Pool.ev_busy -. List.fold_left ( +. ) 0. timed) < unit /. 4.)
  | evs -> Alcotest.failf "one batch call recorded %d events" (List.length evs)

let test_batch_empty_ranges () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let ran = ref 0 in
  let never _ _ = Alcotest.fail "an empty range must not run" in
  Pool.batch pool [];
  Pool.batch pool [ (5, 5, never); (9, 2, never) ];
  Alcotest.(check int) "no batch recorded" 0 (List.length (Pool.events pool));
  Pool.batch pool [ (4, 4, never); (0, 10, fun lo hi -> ran := !ran + hi - lo); (3, 1, never) ];
  Alcotest.(check int) "the non-empty range covered" 10 !ran;
  Alcotest.(check int) "one batch" 1 (List.length (Pool.events pool))

let test_batch_nested_inline () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let inner = ref [] in
  Pool.batch pool
    [
      ( 0,
        1,
        fun _ _ ->
          Pool.batch pool
            [ (0, 100, fun lo hi -> inner := (lo, hi) :: !inner); (7, 7, fun _ _ -> assert false);
              (200, 250, fun lo hi -> inner := (lo, hi) :: !inner) ] );
    ];
  Alcotest.(check (list (pair int int)))
    "each nested range runs whole, once" [ (0, 100); (200, 250) ]
    (List.rev !inner);
  Alcotest.(check int) "only the outer batch is recorded" 1 (List.length (Pool.events pool))

(* A crash at any chunk of a several-range batch unwinds with the pool
   usable: the next batch is chunked and recorded, not run inline as it
   would be with the nesting depth left raised. *)
let test_batch_crash_restores_depth () =
  let module Fault = Rs_chaos.Fault in
  let module Inject = Rs_chaos.Inject in
  let pool = Pool.create ~workers:2 () in
  let ranges () = [ (0, 10, fun _ _ -> ()); (0, 0, fun _ _ -> ()); (20, 23, fun _ _ -> ()) ] in
  (* 8 chunks for 2 workers: [0, 10) in 5 chunks of 2, [20, 23) in 3 *)
  let rec go after =
    Pool.begin_run pool;
    match
      Inject.with_plan
        (Fault.plan [ Fault.spec ~after ~limit:1 Fault.Crash ])
        (fun () -> Pool.batch pool (ranges ()))
    with
    | () -> Alcotest.(check int) "a crash point per chunk" 8 after
    | exception Fault.Injected _ ->
        Alcotest.(check int) (Printf.sprintf "crash at chunk %d records nothing" after) 0
          (List.length (Pool.events pool));
        let calls = ref 0 in
        Pool.batch pool [ (0, 16, fun _ _ -> incr calls) ];
        Alcotest.(check int) (Printf.sprintf "after a crash at chunk %d: chunked" after) 8 !calls;
        Alcotest.(check int) (Printf.sprintf "after a crash at chunk %d: recorded" after) 1
          (List.length (Pool.events pool));
        go (after + 1)
  in
  go 0

let suite =
  [
    Alcotest.test_case "parallel_for covers range once" `Quick test_parallel_for_covers;
    Alcotest.test_case "parallel_for empty ranges" `Quick test_parallel_for_empty;
    Alcotest.test_case "map_tasks preserves order" `Quick test_map_tasks_order;
    Alcotest.test_case "add_serial advances vtime" `Quick test_add_serial_advances_vtime;
    Alcotest.test_case "makespan below serial total" `Quick test_makespan_below_total;
    Alcotest.test_case "nested batches run inline" `Quick test_nested_batches_inline;
    Alcotest.test_case "events recorded" `Quick test_events_recorded;
    Alcotest.test_case "progress hooks" `Quick test_progress_hook;
    Alcotest.test_case "set_workers clamps" `Quick test_set_workers;
    Alcotest.test_case "heap makespan matches greedy scan" `Quick test_makespan_matches_greedy;
    Alcotest.test_case "utilization bounded" `Quick test_utilization_bounds;
    Alcotest.test_case "batch: each range chunked as parallel_for" `Quick
      test_batch_chunks_like_parallel_for;
    Alcotest.test_case "batch: one event, durations newest first" `Quick test_batch_one_event;
    Alcotest.test_case "batch: empty ranges skipped" `Quick test_batch_empty_ranges;
    Alcotest.test_case "batch: nested call runs inline" `Quick test_batch_nested_inline;
    Alcotest.test_case "batch: a crash at any chunk restores depth" `Quick
      test_batch_crash_restores_depth;
  ]
