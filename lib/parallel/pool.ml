type event = { ev_vstart : float; ev_vlen : float; ev_busy : float }

type stats = {
  workers : int;
  vtime : float;
  busy : float;
  wall : float;
  utilization : float;
}

type t = {
  mutable workers : int;
  mutable run_start : float;  (* wall clock at begin_run *)
  mutable real_in_batches : float;
  mutable sim_in_batches : float;
  mutable busy : float;
  mutable events : event list;  (* newest first *)
  mutable progress : (float -> unit) list;
  mutable depth : int;  (* nested batches run inline, charged to the enclosing chunk *)
}

let default_workers () =
  match Sys.getenv_opt "RECSTEP_WORKERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 16)
  | None -> 16

let create ?workers () =
  let workers = match workers with Some w -> max 1 w | None -> default_workers () in
  {
    workers;
    run_start = Rs_util.Clock.now ();
    real_in_batches = 0.0;
    sim_in_batches = 0.0;
    busy = 0.0;
    events = [];
    progress = [];
    depth = 0;
  }

let workers t = t.workers

let set_workers t w = t.workers <- max 1 w

let begin_run t =
  t.run_start <- Rs_util.Clock.now ();
  t.real_in_batches <- 0.0;
  t.sim_in_batches <- 0.0;
  t.busy <- 0.0;
  t.events <- []

let vtime_now t =
  Rs_util.Clock.now () -. t.run_start -. t.real_in_batches +. t.sim_in_batches

let on_progress t f = t.progress <- f :: t.progress

let clear_progress t = t.progress <- []

(* Greedy assignment of task durations to the least-loaded virtual worker,
   via a binary min-heap of worker loads: O(log k) per task instead of the
   old O(k) linear scan. Which of several equally-loaded workers receives a
   task is irrelevant to the makespan (the load multiset evolves
   identically), so the heap reproduces the linear scan's makespan
   exactly. *)
let makespan ~workers durations =
  let k = max 1 workers in
  let heap = Array.make k 0.0 in
  (* all-zero loads satisfy the heap property *)
  let sift_down i =
    let i = ref i in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < k && heap.(l) < heap.(!smallest) then smallest := l;
      if r < k && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest = !i then continue_ := false
      else begin
        let tmp = heap.(!i) in
        heap.(!i) <- heap.(!smallest);
        heap.(!smallest) <- tmp;
        i := !smallest
      end
    done
  in
  List.iter
    (fun d ->
      heap.(0) <- heap.(0) +. d;
      sift_down 0)
    durations;
  Array.fold_left max 0.0 heap

let record_batch t durations =
  let makespan = makespan ~workers:t.workers durations in
  (* Chaos fault point: a stalled worker inflates this batch's simulated
     makespan by the plan's factor — the straggler from the paper's skewed
     workloads, reproduced on demand. Real wall time is untouched, so the
     stall only shows up where it should: on the virtual clock (and hence in
     deadline checks). *)
  let makespan = makespan *. Rs_chaos.Inject.stall_factor () in
  let real = List.fold_left ( +. ) 0.0 durations in
  (* The batch's real duration is already on the wall clock but not yet in
     [real_in_batches]; subtract it so the event starts where the batch
     started on the simulated clock. *)
  let vstart = vtime_now t -. real in
  t.real_in_batches <- t.real_in_batches +. real;
  t.sim_in_batches <- t.sim_in_batches +. makespan;
  t.busy <- t.busy +. real;
  t.events <- { ev_vstart = vstart; ev_vlen = makespan; ev_busy = real } :: t.events;
  let v = vtime_now t in
  List.iter (fun f -> f v) t.progress

let consumed t = (t.real_in_batches, t.sim_in_batches, t.busy)

let add_serial t s =
  if s > 0.0 then begin
    let vstart = vtime_now t in
    t.sim_in_batches <- t.sim_in_batches +. s;
    t.busy <- t.busy +. s;
    t.events <- { ev_vstart = vstart; ev_vlen = s; ev_busy = s } :: t.events
  end

(* A non-empty range of [len] rows is cut into subranges of [size] rows,
   the last one shorter: at most [chunks] of them, one per row at most. *)
let chunk_size ~chunks len = (len + min chunks len - 1) / min chunks len

let chunk_count ~chunks (lo, hi, _) =
  if hi > lo then
    let size = chunk_size ~chunks (hi - lo) in
    (hi - lo + size - 1) / size
  else 0

(* Runs every range of [ranges] chunk by chunk, its chunks in ascending
   order, storing the duration of the batch's [i]-th chunk at
   [durations.(i)]: a float array, so a batch of many ranges keeps no boxed
   duration alive across the minor collections its chunks trigger. *)
let rec run_chunks ~chunks durations i = function
  | [] -> ()
  | ((lo, hi, f) as range) :: rest ->
      let n = chunk_count ~chunks range in
      if n > 0 then begin
        let size = chunk_size ~chunks (hi - lo) in
        for c = 0 to n - 1 do
          let sub = lo + (c * size) in
          let t0 = Rs_util.Clock.now () in
          (* Chaos fault point: this worker chunk dies. The exception
             unwinds through the caller's Fun.protect, so the depth guard
             is restored and the pool stays usable for the retry. *)
          Rs_chaos.Inject.crash_point ~point:"pool.parallel_for";
          f sub (min hi (sub + size));
          durations.(i + c) <- Rs_util.Clock.now () -. t0
        done
      end;
      run_chunks ~chunks durations (i + n) rest

let batch t ?chunks ranges =
  let chunks = match chunks with Some c -> max 1 c | None -> 4 * t.workers in
  let n = List.fold_left (fun n range -> n + chunk_count ~chunks range) 0 ranges in
  if n > 0 then
    if t.depth > 0 then List.iter (fun (lo, hi, f) -> if hi > lo then f lo hi) ranges
    else begin
      let durations = Array.make n 0.0 in
      t.depth <- t.depth + 1;
      Fun.protect
        ~finally:(fun () -> t.depth <- t.depth - 1)
        (fun () -> run_chunks ~chunks durations 0 ranges);
      (* newest first: the last chunk run leads the list *)
      record_batch t (Array.fold_left (fun acc d -> d :: acc) [] durations)
    end

let parallel_for t ?chunks lo hi f = batch t ?chunks [ (lo, hi, f) ]

let map_tasks t fs =
  if t.depth > 0 then List.map (fun f -> f ()) fs
  else begin
    t.depth <- t.depth + 1;
    let timed =
      Fun.protect
        ~finally:(fun () -> t.depth <- t.depth - 1)
        (fun () ->
          List.map
            (fun f ->
              let t0 = Rs_util.Clock.now () in
              Rs_chaos.Inject.crash_point ~point:"pool.map_tasks";
              let r = f () in
              (r, Rs_util.Clock.now () -. t0))
            fs)
    in
    record_batch t (List.map snd timed);
    List.map fst timed
  end

let stats t =
  let wall = Rs_util.Clock.now () -. t.run_start in
  let vtime = wall -. t.real_in_batches +. t.sim_in_batches in
  (* Serial time occupies one virtual worker. *)
  let serial = wall -. t.real_in_batches in
  let busy = t.busy +. serial in
  let utilization = if vtime > 0.0 then busy /. (float_of_int t.workers *. vtime) else 0.0 in
  { workers = t.workers; vtime; busy; wall; utilization }

let events t = List.rev t.events
