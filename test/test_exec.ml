module Relation = Rs_relation.Relation
module Expr = Rs_exec.Expr
module Plan = Rs_exec.Plan
module Catalog = Rs_exec.Catalog
module Executor = Rs_exec.Executor
module Cost = Rs_exec.Cost
module Pool = Rs_parallel.Pool

let check = Alcotest.(check bool)

let make_exec () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  (Executor.create ~query_overhead_s:0.0 pool catalog, catalog)

let test_expr_eval () =
  let frame = [| 10; 3 |] in
  Alcotest.(check int) "col" 10 (Expr.eval_frame frame (Expr.Col 0));
  Alcotest.(check int) "arith" 37
    (Expr.eval_frame frame Expr.(Add (Mul (Col 0, Col 1), Sub (Col 0, Const 3))));
  check "test lt" true (Expr.test_frame frame Expr.(Cmp (Lt, Col 1, Col 0)));
  check "test ne" true (Expr.test_frame frame Expr.(Cmp (Ne, Col 0, Col 1)));
  Alcotest.(check (list int)) "cols" [ 0; 1; 0 ]
    (Expr.cols Expr.(Add (Mul (Col 0, Col 1), Col 0)));
  Alcotest.(check int) "shift" 7
    (match Expr.shift 5 (Expr.Col 2) with Expr.Col c -> c | _ -> -1)

let test_plan_arity_estimate () =
  let lookup = function "r" -> 2 | "s" -> 3 | _ -> 0 in
  let rows = function "r" -> 100 | "s" -> 10 | _ -> 0 in
  let j = Plan.join2 (Plan.Scan "r") [| 1 |] (Plan.Scan "s") [| 0 |] in
  Alcotest.(check int) "join arity" 5 (Plan.arity lookup j);
  let delta_rows = function "r" -> 7 | _ -> 0 in
  Alcotest.(check int) "join estimate" 100 (Plan.estimate ~rows ~delta_rows j);
  Alcotest.(check int) "delta estimate" 7 (Plan.estimate ~rows ~delta_rows (Plan.Delta "r"));
  Alcotest.(check int) "old estimate" 93 (Plan.estimate ~rows ~delta_rows (Plan.Old "r"));
  let p = Plan.Project ([| Expr.Col 0 |], j) in
  Alcotest.(check int) "project arity" 1 (Plan.arity lookup p);
  let u = Plan.UnionAll [ Plan.Scan "r"; Plan.Scan "r" ] in
  Alcotest.(check int) "union estimate" 200 (Plan.estimate ~rows ~delta_rows u);
  check "to_string nonempty" true (String.length (Plan.to_string j) > 0)

let gen_rel arity vals =
  QCheck2.Gen.(list_size (int_range 0 25) (list_repeat arity (int_range 0 vals)))

let run_join pairs_l pairs_r lk rk =
  let exec, catalog = make_exec () in
  let l = Relation.of_rows 2 (List.map Array.of_list pairs_l) in
  let r = Relation.of_rows 2 (List.map Array.of_list pairs_r) in
  Catalog.register catalog "l" l;
  Catalog.register catalog "r" r;
  let plan = Plan.join2 (Plan.Scan "l") [| lk |] (Plan.Scan "r") [| rk |] in
  let out = Executor.run_query exec plan in
  List.sort compare (Relation.to_rows out |> List.map Array.to_list)

let nested_loop_join pairs_l pairs_r lk rk =
  List.concat_map
    (fun lrow ->
      List.filter_map
        (fun rrow ->
          if List.nth lrow lk = List.nth rrow rk then Some (lrow @ rrow) else None)
        pairs_r)
    pairs_l
  |> List.sort compare

let prop_hash_join_eq_nested_loop =
  QCheck2.Test.make ~name:"hash join = nested loop" ~count:150
    QCheck2.Gen.(tup4 (gen_rel 2 8) (gen_rel 2 8) (int_range 0 1) (int_range 0 1))
    (fun (l, r, lk, rk) -> run_join l r lk rk = nested_loop_join l r lk rk)

let prop_join_extra_preds =
  QCheck2.Test.make ~name:"join residual predicate" ~count:100
    QCheck2.Gen.(pair (gen_rel 2 6) (gen_rel 2 6))
    (fun (l, r) ->
      let exec, catalog = make_exec () in
      Catalog.register catalog "l" (Relation.of_rows 2 (List.map Array.of_list l));
      Catalog.register catalog "r" (Relation.of_rows 2 (List.map Array.of_list r));
      let plan =
        Plan.Join
          {
            l = Plan.Scan "l";
            r = Plan.Scan "r";
            lkeys = [| 0 |];
            rkeys = [| 0 |];
            extra = [ Expr.Cmp (Expr.Ne, Expr.Col 1, Expr.Col 3) ];
            out = Some [| Expr.Col 1; Expr.Col 3 |];
          }
      in
      let out = Executor.run_query exec plan in
      let expected =
        List.concat_map
          (fun lr ->
            List.filter_map
              (fun rr ->
                if List.nth lr 0 = List.nth rr 0 && List.nth lr 1 <> List.nth rr 1 then
                  Some [ List.nth lr 1; List.nth rr 1 ]
                else None)
              r)
          l
        |> List.sort compare
      in
      List.sort compare (Relation.to_rows out |> List.map Array.to_list) = expected)

let prop_opsd_eq_tpsd =
  QCheck2.Test.make ~name:"OPSD = TPSD = reference set difference" ~count:150
    QCheck2.Gen.(pair (gen_rel 2 6) (gen_rel 2 6))
    (fun (delta_rows, r_rows) ->
      let exec, _ = make_exec () in
      let distinct rows = List.sort_uniq compare rows in
      let rdelta = Relation.of_rows 2 (List.map Array.of_list (distinct delta_rows)) in
      let r = Relation.of_rows 2 (List.map Array.of_list (distinct r_rows)) in
      let o = Executor.opsd exec ~rdelta ~r () in
      let t = Executor.tpsd exec ~rdelta ~r () in
      let norm rel = List.sort compare (Relation.to_rows rel |> List.map Array.to_list) in
      let expected =
        List.filter (fun row -> not (List.mem row (distinct r_rows))) (distinct delta_rows)
        |> List.sort compare
      in
      norm o = expected && norm t = expected)

let test_filter_project_union () =
  let exec, catalog = make_exec () in
  Catalog.register catalog "t"
    (Relation.of_rows 2 [ [| 1; 5 |]; [| 2; 6 |]; [| 3; 7 |] ]);
  let plan =
    Plan.UnionAll
      [
        Plan.Project
          ([| Expr.Col 1 |], Plan.Filter ([ Expr.Cmp (Expr.Gt, Expr.Col 0, Expr.Const 1) ], Plan.Scan "t"));
        Plan.Project ([| Expr.Col 0 |], Plan.Scan "t");
      ]
  in
  let out = Executor.run_query exec plan in
  Alcotest.(check (list int))
    "filter+project+union" [ 1; 2; 3; 6; 7 ]
    (List.sort compare (Relation.to_rows out |> List.map (fun a -> a.(0))))

let test_anti_join () =
  let exec, catalog = make_exec () in
  Catalog.register catalog "l" (Relation.of_rows 2 [ [| 1; 1 |]; [| 2; 2 |]; [| 3; 3 |] ]);
  Catalog.register catalog "r" (Relation.of_rows 1 [ [| 2 |] ]);
  let plan =
    Plan.AntiJoin { al = Plan.Scan "l"; ar = Plan.Scan "r"; alkeys = [| 0 |]; arkeys = [| 0 |] }
  in
  let out = Executor.run_query exec plan in
  Alcotest.(check (list int)) "anti join" [ 1; 3 ]
    (List.sort compare (Relation.to_rows out |> List.map (fun a -> a.(0))))

let test_catalog_stats () =
  let pool = Pool.create ~workers:2 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  let r = Relation.of_rows 2 [ [| 1; 10 |]; [| 5; 2 |] ] in
  Catalog.register catalog "t" r;
  Alcotest.(check int) "initial stat" 2 (Catalog.stat_rows catalog "t");
  Relation.push2 r 9 9;
  Alcotest.(check int) "stale until analyze" 2 (Catalog.stat_rows catalog "t");
  Catalog.analyze_rows catalog "t";
  Alcotest.(check int) "fresh" 3 (Catalog.stat_rows catalog "t");
  Catalog.analyze_full catalog pool "t";
  (match (Catalog.find catalog "t").Catalog.full with
  | Some fs ->
      Alcotest.(check int) "min col0" 1 fs.Catalog.col_min.(0);
      Alcotest.(check int) "max col1" 10 fs.Catalog.col_max.(1)
  | None -> Alcotest.fail "full stats missing");
  Catalog.drop catalog "t";
  check "dropped" false (Catalog.mem catalog "t")

let test_cost_choose_regions () =
  let choose ?(persists = false) ~r_rows ~rdelta_rows mu_prev =
    Cost.choose ~alpha:2.0 ~r_index_persists:persists ~r_rows ~rdelta_rows ~mu_prev
  in
  (* β <= 1 → OPSD regardless *)
  check "beta<=1" true (choose ~r_rows:5 ~rdelta_rows:10 None = Cost.Opsd);
  (* β above threshold 2α/(α-1) = 4 → TPSD *)
  check "beta large" true (choose ~r_rows:100 ~rdelta_rows:10 None = Cost.Tpsd);
  (* uncertain band without µ → OPSD *)
  check "band no mu" true (choose ~r_rows:30 ~rdelta_rows:10 None = Cost.Opsd);
  (* uncertain band, µ large: sign of β(α-1) - (α + α/µ) decides *)
  check "band large mu" true (choose ~r_rows:35 ~rdelta_rows:10 (Some 100.0) = Cost.Tpsd);
  check "empty delta" true (choose ~r_rows:35 ~rdelta_rows:0 None = Cost.Opsd);
  (* a persistent index on R makes OPSD's build free: OPSD in both regions
     the model gives to TPSD *)
  check "persistent index, beta large" true
    (choose ~persists:true ~r_rows:100 ~rdelta_rows:10 None = Cost.Opsd);
  check "persistent index, band large mu" true
    (choose ~persists:true ~r_rows:35 ~rdelta_rows:10 (Some 100.0) = Cost.Opsd)

let test_observed_mu () =
  check "mu" true (abs_float (Cost.observed_mu ~rdelta_rows:10 ~intersection_rows:5 -. 2.0) < 1e-9);
  check "mu no intersection" true (Cost.observed_mu ~rdelta_rows:10 ~intersection_rows:0 = 10.0)

let test_share_builds_cache () =
  (* the same scan+keys twice in one query must reuse the build *)
  let pool = Pool.create ~workers:2 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  Catalog.register catalog "e" (Relation.of_rows 2 [ [| 1; 2 |]; [| 2; 3 |] ]);
  let exec = Executor.create ~query_overhead_s:0.0 ~share_builds:true pool catalog in
  let sub = Plan.join2 (Plan.Scan "e") [| 1 |] (Plan.Scan "e") [| 0 |] in
  let out = Executor.run_query exec (Plan.UnionAll [ sub; sub ]) in
  Alcotest.(check int) "both subplans produced" 2 (Relation.nrows out)

module Index_manager = Rs_exec.Index_manager
module Hash_index = Rs_relation.Hash_index
module Trace = Rs_obs.Trace

(* A manager with its own trace: the manager's work is read back from the
   [executor.index_*] counters it records. *)
let traced_manager ?parent ~persistent pool =
  let tr = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  (Index_manager.create ~trace:tr ?parent ~persistent pool, tr)

let index_count tr what = Trace.counter tr ("executor.index_" ^ what)

(* Whether a one-column index holds a row whose key is [k]. *)
let has_key idx k =
  let found = ref false in
  Hash_index.iter_matches idx [| k |] (fun _ -> found := true);
  !found

let test_index_manager_lifecycle () =
  Rs_storage.Memtrack.hard_reset ();
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let m, tr = traced_manager ~persistent:(fun n -> n = "tc" || n = "arc") pool in
  check "eligible" true (Index_manager.eligible m "tc");
  check "not eligible" false (Index_manager.eligible m "delta_tc");
  let r = Relation.of_rows 2 [ [| 1; 2 |]; [| 2; 3 |] ] in
  let i1 = Index_manager.get m ~name:"tc" r [| 0 |] in
  Alcotest.(check int) "one build" 1 (index_count tr "builds");
  (* unchanged relation: same physical index back, counted as a reuse hit *)
  let i2 = Index_manager.get m ~name:"tc" r [| 0 |] in
  check "reused physically" true (i1 == i2);
  Alcotest.(check int) "reuse hit" 1 (index_count tr "reuse_hits");
  (* grown relation: delta-append, not rebuild *)
  Relation.push2 r 3 4;
  let i3 = Index_manager.get m ~name:"tc" r [| 0 |] in
  check "appended in place" true (i1 == i3);
  Alcotest.(check int) "append counted" 1 (index_count tr "appends");
  Alcotest.(check int) "still one build" 1 (index_count tr "builds");
  Alcotest.(check int) "covers appended row" 3 (Hash_index.indexed_rows i3);
  (* distinct key columns are a distinct entry *)
  ignore (Index_manager.get m ~name:"tc" r [| 1 |]);
  Alcotest.(check int) "second pattern builds" 2 (index_count tr "builds");
  (* generation bump (in-place rewrite) invalidates *)
  Relation.clear r;
  Relation.push2 r 9 9;
  ignore (Index_manager.get m ~name:"tc" r [| 0 |]);
  Alcotest.(check int) "rebuild after clear" 3 (index_count tr "builds");
  (* identity change (catalog replace_table churn) invalidates *)
  let r' = Relation.of_rows 2 [ [| 5; 5 |] ] in
  ignore (Index_manager.get m ~name:"tc" r' [| 0 |]);
  Alcotest.(check int) "rebuild after replace" 4 (index_count tr "builds");
  check "bytes accounted" true (Rs_storage.Memtrack.live () > 0);
  Index_manager.release_all m;
  Alcotest.(check int) "release_all returns bytes" 0 (Rs_storage.Memtrack.live ())

(* Regression for the invalidation contract: a clear-then-repopulate that
   ends at MORE rows than were indexed. Identity is unchanged and
   [indexed_rows <= nrows] holds, so only the generation bump in
   [Relation.clear] forces the rebuild — remove the [touch] there and the
   manager append-extends the stale index: rows 0..1 stay linked under the
   old tuples' hash buckets and the lookups below go wrong. *)
let test_index_manager_clear_repopulate () =
  Rs_storage.Memtrack.hard_reset ();
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let m, tr = traced_manager ~persistent:(fun _ -> true) pool in
  let r = Relation.of_rows 2 [ [| 1; 2 |]; [| 3; 4 |] ] in
  let i1 = Index_manager.get m ~name:"scratch" r [| 0 |] in
  Alcotest.(check int) "initial build" 1 (index_count tr "builds");
  check "old key present" true (has_key i1 1);
  (* scratch-table pattern of a multi-stratum program: same physical
     relation cleared and refilled within one fixpoint, growing past the
     previously indexed count *)
  Relation.clear r;
  Relation.push2 r 5 6;
  Relation.push2 r 7 8;
  Relation.push2 r 9 10;
  let i2 = Index_manager.get m ~name:"scratch" r [| 0 |] in
  Alcotest.(check int) "rewrite forces a rebuild, not an append" 2
    (index_count tr "builds");
  Alcotest.(check int) "no stale append" 0 (index_count tr "appends");
  Alcotest.(check int) "index covers the new rows only" 3 (Hash_index.indexed_rows i2);
  check "new keys found" true
    (has_key i2 5 && has_key i2 7 && has_key i2 9);
  check "old keys gone" false (has_key i2 1);
  Index_manager.release_all m

(* The serving-layer contract behind shared indexes: a store-lifetime parent
   manager holds base-relation indexes across run-local child managers, an
   insert-only replacement is absorbed by rebase + delta-append (generation
   audit: the entry adopts the replacement's generation, no rebuild), and a
   retraction invalidates so the next access rebuilds. *)
let test_index_manager_parent_rebase () =
  Rs_storage.Memtrack.hard_reset ();
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let parent, tr = traced_manager ~persistent:(fun n -> n = "arc") pool in
  let child, child_tr = traced_manager ~parent ~persistent:(fun _ -> true) pool in
  let arc = Relation.of_rows 2 [ [| 1; 2 |]; [| 2; 3 |] ] in
  let i1 = Index_manager.get child ~name:"arc" arc [| 0 |] in
  Alcotest.(check int) "build lands in the parent" 1 (index_count tr "builds");
  Alcotest.(check int) "no build in the child" 0 (index_count child_tr "builds");
  (* a fresh child (the next interpreter run) still sees the parent's entry *)
  Index_manager.release_all child;
  let child2, child2_tr = traced_manager ~parent ~persistent:(fun _ -> true) pool in
  let i2 = Index_manager.get child2 ~name:"arc" arc [| 0 |] in
  check "index survives the child's release" true (i1 == i2);
  Alcotest.(check int) "still one build" 1 (index_count tr "builds");
  Alcotest.(check int) "reuse hit in the parent" 1 (index_count tr "reuse_hits");
  (* insert-only replacement (Edb_store.apply staging keeps old rows as a
     prefix): rebase re-points the entry and adopts the new generation *)
  let arc2 = Relation.copy arc in
  Relation.push2 arc2 3 4;
  Index_manager.rebase_to parent ~name:"arc" arc2;
  Alcotest.(check int) "rebase counted" 1 (index_count tr "rebases");
  let i3 = Index_manager.get child2 ~name:"arc" arc2 [| 0 |] in
  check "rebased entry reused" true (i1 == i3);
  Alcotest.(check int) "suffix covered by append, not rebuild" 1
    (index_count tr "appends");
  Alcotest.(check int) "no rebuild after rebase" 1 (index_count tr "builds");
  check "generation adopted from the replacement" true
    (Hash_index.generation i3 = Relation.generation arc2);
  Alcotest.(check int) "covers the appended row" 3 (Hash_index.indexed_rows i3);
  check "new key reachable" true (has_key i3 3);
  (* a retraction does not preserve the indexed prefix: invalidate, rebuild *)
  let arc3 = Relation.of_rows 2 [ [| 2; 3 |] ] in
  Index_manager.invalidate parent ~name:"arc";
  Alcotest.(check int) "invalidation counted" 1 (index_count tr "invalidations");
  ignore (Index_manager.get child2 ~name:"arc" arc3 [| 0 |]);
  Alcotest.(check int) "rebuild after invalidate" 2 (index_count tr "builds");
  (* rebase refuses a shrinking replacement on its own: the entry is dropped
     and counted as an invalidation instead of silently going stale *)
  Index_manager.rebase_to parent ~name:"arc" (Relation.of_rows 2 []);
  Alcotest.(check int) "refused rebase drops the entry" 2
    (index_count tr "invalidations");
  Alcotest.(check int) "refused rebase is not a rebase" 1 (index_count tr "rebases");
  check "parent bytes tracked" true (Index_manager.bytes parent >= 0);
  Alcotest.(check int) "every build lands in the parent" 0 (index_count child2_tr "builds");
  Index_manager.release_all child2;
  Index_manager.release_all parent;
  Alcotest.(check int) "all bytes returned" 0 (Rs_storage.Memtrack.live ())

let test_executor_uses_manager () =
  (* a join against a managed table twice: second query must be a reuse hit,
     and results must match the unmanaged executor exactly *)
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  Catalog.register catalog "e"
    (Relation.of_rows 2 [ [| 1; 2 |]; [| 2; 3 |]; [| 3; 1 |] ]);
  Catalog.register catalog "d" (Relation.of_rows 2 [ [| 0; 1 |]; [| 0; 2 |] ]);
  let m, tr = traced_manager ~persistent:(fun n -> n = "e") pool in
  let exec = Executor.create ~query_overhead_s:0.0 ~index_manager:m pool catalog in
  let plan = Plan.join2 (Plan.Scan "d") [| 1 |] (Plan.Scan "e") [| 0 |] in
  let out1 = Executor.run_query exec plan in
  let out2 = Executor.run_query exec plan in
  Alcotest.(check int) "one build across two queries" 1 (index_count tr "builds");
  check "second query reused" true (index_count tr "reuse_hits" >= 1);
  let exec_plain = Executor.create ~query_overhead_s:0.0 pool catalog in
  let ref_out = Executor.run_query exec_plain plan in
  let rows rel = Relation.to_rows rel |> List.map Array.to_list in
  (* the manager may flip the build side (it prefers the persistent side),
     which permutes row order but never the bag of rows *)
  Alcotest.(check (list (list int))) "managed = unmanaged rows"
    (List.sort compare (rows ref_out))
    (List.sort compare (rows out1));
  Alcotest.(check (list (list int))) "stable across reuse" (rows out1) (rows out2);
  Index_manager.release_all m

(* --- membership sets: every set-difference path against a List model --- *)

module Dedup = Rs_relation.Dedup
module Kernel = Rs_exec.Kernel

(* Values that reach every layout of a membership set: small ones collide,
   [min_int] is the packed table's empty marker, and negatives, [max_int]
   and 2^31 leave the packed pair range, so an arity-2 set migrates to the
   wide layout — on the build or, when they only occur in R's tail, on an
   append. *)
let gen_member =
  QCheck2.Gen.(
    frequency
      [ (6, int_range (-3) 3); (1, oneofl [ min_int; max_int; (1 lsl 31) - 1; 1 lsl 31 ]) ])

(* (arity, Rδ rows, R's first rows, R's appended rows); Rδ may repeat rows. *)
let gen_setdiff =
  QCheck2.Gen.(
    int_range 1 4 >>= fun arity ->
    let rows = list_size (int_range 0 10) (array_repeat arity gen_member) in
    quad (return arity) rows rows rows)

let print_setdiff (arity, d, r0, r1) =
  let rows l =
    String.concat "; "
      (List.map (fun a -> String.concat "," (List.map string_of_int (Array.to_list a))) l)
  in
  Printf.sprintf "arity %d, delta [%s], r [%s] + [%s]" arity (rows d) (rows r0) (rows r1)

let prop_set_difference_model =
  QCheck2.Test.make ~name:"set-difference paths = List set difference" ~count:300
    ~print:print_setdiff gen_setdiff (fun (arity, d_rows, r_head, r_tail) ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let catalog = Catalog.create () in
      let r = Relation.of_rows ~name:"r" arity r_head in
      let rdelta = Relation.of_rows ~name:"d" arity d_rows in
      Catalog.register catalog "r" r;
      Catalog.register catalog "d" rdelta;
      let m, tr = traced_manager ~persistent:(fun n -> n = "r") pool in
      let managed = Executor.create ~query_overhead_s:0.0 ~index_manager:m pool catalog in
      let plain = Executor.create ~query_overhead_s:0.0 pool catalog in
      (* R's set is built over its first rows; the rest arrive as a delta
         suffix, so every managed probe below goes through an append *)
      ignore (Index_manager.get_set m ~name:"r" r (Array.init arity Fun.id));
      List.iter (Relation.push_row r) r_tail;
      let r_rows = r_head @ r_tail in
      let bag l = List.sort compare (List.map Array.to_list l) in
      let rows rel = bag (Relation.to_rows rel) in
      let expected = bag (List.filter (fun t -> not (List.mem t r_rows)) d_rows) in
      (* R padded with rows Rδ never holds, longer than Rδ: unmanaged TPSD
         then builds on Rδ; the managed one always builds on R *)
      let r_big = Relation.copy r in
      for i = 0 to List.length d_rows do
        Relation.push_row r_big (Array.make arity (100 + i))
      done;
      let all = Array.init arity Fun.id in
      let anti ex ~lk ~rk =
        Executor.run_query ex
          (Plan.AntiJoin { al = Plan.Scan "d"; ar = Plan.Scan "r"; alkeys = lk; arkeys = rk })
      in
      (* a projected anti-join: Rδ's first column against R's last *)
      let last = [| arity - 1 |] in
      let expected_proj =
        bag
          (List.filter
             (fun t -> not (List.exists (fun u -> u.(arity - 1) = t.(0)) r_rows))
             d_rows)
      in
      (* the kernel claims its Δ into R's managed set, so it runs after
         every other managed probe; the set then holds R ∪ Δ. Rδ is all of
         "d"'s Δ range, and the kernel's head a fresh relation. *)
      let kernel () =
        Catalog.set_delta catalog "d" ~lo:0 ~hi:(Relation.nrows rdelta) ();
        match
          Kernel.compile managed
            (Plan.Project (Array.init arity (fun i -> Expr.Col i), Plan.Delta "d"))
        with
        | Ok k ->
            let dedup = Dedup.create Dedup.Fast arity in
            let out = Relation.create arity in
            let r_set, _ = Executor.claim_set managed ~scan_name:"r" r all in
            ignore (Kernel.run managed k ~dedup ~r_set ~head:out);
            Dedup.release dedup;
            rows out = List.sort_uniq compare expected
            && Dedup.cardinal r_set
               = List.length (List.sort_uniq compare (List.map Array.to_list r_rows))
                 + Relation.nrows out
        | Error reason -> failwith reason
      in
      let ok =
        rows (Executor.opsd plain ~rdelta ~r ()) = expected
        && rows (Executor.opsd managed ~name:"r" ~rdelta ~r ()) = expected
        && rows (Executor.tpsd plain ~rdelta ~r:r_big ()) = expected
        && rows (Executor.tpsd managed ~name:"r" ~rdelta ~r ()) = expected
        && rows (anti plain ~lk:all ~rk:all) = expected
        && rows (anti managed ~lk:all ~rk:all) = expected
        && rows (anti managed ~lk:[| 0 |] ~rk:last) = expected_proj
        && kernel ()
      in
      (* one build of R's full-column set and one of its last-column set
         (the same set at arity 1); every other acquisition is a reuse or,
         once when R had a tail, an append *)
      let builds = index_count tr "builds" and appends = index_count tr "appends" in
      Index_manager.release_all m;
      ok && builds = (if arity = 1 then 1 else 2) && appends = if r_tail = [] then 0 else 1)

(* A membership set through its whole life in the manager: build, append,
   reuse, rebuild after a generation bump, rebase through an insert-only
   [Edb_store.apply], invalidation by a retracting one and by hand. *)
let test_index_manager_set_lifecycle () =
  Rs_storage.Memtrack.hard_reset ();
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let m, tr = traced_manager ~persistent:(fun n -> n = "tc") pool in
  let r = Relation.of_rows 2 [ [| 1; 2 |]; [| 2; 3 |] ] in
  let s1 = Index_manager.get_set m ~name:"tc" r [| 0; 1 |] in
  Alcotest.(check int) "one build" 1 (index_count tr "builds");
  check "built rows present" true (Dedup.mem2 s1 1 2 && Dedup.mem2 s1 2 3);
  check "absent row" false (Dedup.mem2 s1 3 4);
  let s2 = Index_manager.get_set m ~name:"tc" r [| 0; 1 |] in
  check "reused physically" true (s1 == s2);
  Alcotest.(check int) "reuse hit" 1 (index_count tr "reuse_hits");
  Relation.push2 r 3 4;
  let s3 = Index_manager.get_set m ~name:"tc" r [| 0; 1 |] in
  check "appended in place" true (s1 == s3);
  Alcotest.(check int) "append counted" 1 (index_count tr "appends");
  check "appended row present" true (Dedup.mem2 s3 3 4);
  (* a projection is a distinct entry, and holds projected tuples *)
  let proj = Index_manager.get_set m ~name:"tc" r [| 1 |] in
  Alcotest.(check int) "second pattern builds" 2 (index_count tr "builds");
  check "projected value present" true (Dedup.mem_row proj [| 4 |] && not (Dedup.mem_row proj [| 1 |]));
  (* a join index on the same key is a separate structure *)
  ignore (Index_manager.get m ~name:"tc" r [| 1 |]);
  Alcotest.(check int) "index is not the set" 3 (index_count tr "builds");
  Relation.clear r;
  Relation.push2 r 9 9;
  let s4 = Index_manager.get_set m ~name:"tc" r [| 0; 1 |] in
  Alcotest.(check int) "rebuild after clear" 4 (index_count tr "builds");
  Alcotest.(check int) "no stale append" 1 (index_count tr "appends");
  check "rewritten rows only" true (Dedup.mem2 s4 9 9 && not (Dedup.mem2 s4 1 2));
  check "bytes accounted" true (Index_manager.bytes m > 0);
  Index_manager.release_all m;
  Alcotest.(check int) "release_all returns bytes" 0 (Rs_storage.Memtrack.live ());
  (* the store's manager keeps a base relation's set live across deltas *)
  let module Edb_store = Rs_service.Edb_store in
  let module Delta = Rs_relation.Delta in
  let store = Edb_store.create () in
  Edb_store.define store "g" [ ("arc", Relation.of_rows ~name:"arc" 2 [ [| 1; 2 |]; [| 2; 3 |] ]) ];
  let sm, str = traced_manager ~persistent:(fun n -> n = "arc") pool in
  Edb_store.attach_index_manager store "g" sm;
  let arc () = List.assoc "arc" (Edb_store.lookup store "g") in
  let a1 = Index_manager.get_set sm ~name:"arc" (arc ()) [| 0; 1 |] in
  ignore (Edb_store.apply store "g" (Delta.of_inserts "arc" [ [| 5; 6 |] ]));
  Alcotest.(check int) "insert-only delta rebases" 1 (index_count str "rebases");
  let a2 = Index_manager.get_set sm ~name:"arc" (arc ()) [| 0; 1 |] in
  check "rebased set reused" true (a1 == a2);
  Alcotest.(check int) "suffix appended, not rebuilt" 1 (index_count str "appends");
  Alcotest.(check int) "still one build" 1 (index_count str "builds");
  check "inserted row present" true (Dedup.mem2 a2 5 6);
  ignore (Edb_store.apply store "g" (Delta.of_retracts "arc" [ [| 1; 2 |] ]));
  Alcotest.(check int) "retraction invalidates" 1 (index_count str "invalidations");
  let a3 = Index_manager.get_set sm ~name:"arc" (arc ()) [| 0; 1 |] in
  Alcotest.(check int) "rebuilt after the retraction" 2 (index_count str "builds");
  check "retracted row gone" false (Dedup.mem2 a3 1 2);
  Index_manager.invalidate sm ~name:"arc";
  Alcotest.(check int) "invalidate drops the set" 2 (index_count str "invalidations");
  Alcotest.(check int) "no bytes held" 0 (Index_manager.bytes sm);
  Index_manager.release_all sm

(* --- every operator against a nested-loop reference, in row order ----- *)

(* Table "a" of arity [aa] and table "b" of arity [ba], whose Δ is its
   rows [lo, hi): rows past [hi] stand for rows appended during the round,
   which no read may reach. [bread] picks the leaf over "b"; [akeys] and
   [bkeys] pair key columns. *)
type op_case = {
  aa : int;
  ba : int;
  a : int list list;
  b : int list list;
  lo : int;
  hi : int;
  bread : int;  (* 0: Scan, 1: Delta, 2: Old *)
  akeys : int array;
  bkeys : int array;
  flip : bool;  (* the "b" leaf on the join's left *)
  residual : bool;
}

let gen_op_case =
  let open QCheck2.Gen in
  let rows arity = list_size (int_range 0 12) (list_repeat arity (int_range (-3) 3)) in
  let* aa = int_range 1 3 in
  let* ba = int_range 1 3 in
  let* a = rows aa in
  let* b = rows ba in
  let* lo = int_range 0 (List.length b) in
  let* hi = int_range lo (List.length b) in
  let* nk = int_range 0 (min 2 (min aa ba)) in
  let* acols = shuffle_l (List.init aa Fun.id) in
  let* bcols = shuffle_l (List.init ba Fun.id) in
  let* bread = int_range 0 2 in
  let* flip = bool in
  let+ residual = bool in
  let take cols = Array.of_list (List.filteri (fun i _ -> i < nk) cols) in
  { aa; ba; a; b; lo; hi; bread; akeys = take acols; bkeys = take bcols; flip; residual }

let print_op_case c =
  let ints l = String.concat "," (List.map string_of_int l) in
  let rows rs = String.concat " " (List.map ints rs) in
  Printf.sprintf "a/%d=[%s] b/%d=[%s] lo=%d hi=%d bread=%d akeys=[%s] bkeys=[%s] flip=%b residual=%b"
    c.aa (rows c.a) c.ba (rows c.b) c.lo c.hi c.bread (ints (Array.to_list c.akeys))
    (ints (Array.to_list c.bkeys)) c.flip c.residual

(* Filter, Project, AntiJoin, Join and — when the two tables share an
   arity — both set differences over the case, each output compared in row
   order with a nested-loop reference: rows in range order, probe rows
   ascending, build rows newest first, the build side picked from the
   executor's own estimates. A set difference keeps [a]'s rows that the
   "b" leaf's rows lack; TPSD's intersection phase probes whichever side
   is larger, so both of its phase-1 builds are drawn. *)
let operators_match_reference c =
  let exec, catalog = make_exec () in
  let reg name arity rows =
    Catalog.register catalog name (Relation.of_rows ~name arity (List.map Array.of_list rows));
    Catalog.analyze_rows catalog name
  in
  reg "a" c.aa c.a;
  reg "b" c.ba c.b;
  Catalog.set_delta catalog "b" ~lo:c.lo ~hi:c.hi ();
  let bleaf, brows =
    let rows_in lo hi = List.filteri (fun i _ -> i >= lo && i < hi) c.b in
    match c.bread with
    | 0 -> (Plan.Scan "b", rows_in 0 c.hi)
    | 1 -> (Plan.Delta "b", rows_in c.lo c.hi)
    | _ -> (Plan.Old "b", rows_in 0 c.lo)
  in
  let got plan = List.map Array.to_list (Relation.to_rows (Executor.run_query exec plan)) in
  let keyed r ks = List.map (List.nth r) (Array.to_list ks) in
  let eval r e = Expr.eval_frame (Array.of_list r) e in
  let filter =
    got (Plan.Filter ([ Expr.Cmp (Expr.Le, Expr.Col 0, Expr.Const 0) ], bleaf))
    = List.filter (fun r -> List.hd r <= 0) brows
  in
  let out = [| Expr.Col (c.ba - 1); Expr.Add (Expr.Col 0, Expr.Const 1) |] in
  let project =
    got (Plan.Project (out, bleaf)) = List.map (fun r -> List.map (eval r) (Array.to_list out)) brows
  in
  let anti =
    got (Plan.AntiJoin { al = Plan.Scan "a"; ar = bleaf; alkeys = c.akeys; arkeys = c.bkeys })
    = List.filter
        (fun ar -> not (List.exists (fun br -> keyed ar c.akeys = keyed br c.bkeys) brows))
        c.a
  in
  let (l, lrows, lkeys, la), (r, rrows, rkeys, _) =
    let sa = (Plan.Scan "a", c.a, c.akeys, c.aa) and sb = (bleaf, brows, c.bkeys, c.ba) in
    if c.flip then (sb, sa) else (sa, sb)
  in
  let extra = if c.residual then [ Expr.Cmp (Expr.Le, Expr.Col 0, Expr.Col la) ] else [] in
  let build_left = Executor.estimate exec l <= Executor.estimate exec r in
  let probe, build = if build_left then (rrows, lrows) else (lrows, rrows) in
  let joined =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun b ->
            let lr, rr = if build_left then (b, p) else (p, b) in
            if keyed lr lkeys = keyed rr rkeys && ((not c.residual) || List.hd lr <= List.hd rr)
            then Some (lr @ rr)
            else None)
          (List.rev build))
      probe
  in
  let set_differences =
    c.aa <> c.ba
    ||
    let rel rows = Relation.of_rows c.aa (List.map Array.of_list rows) in
    let want = List.filter (fun ar -> not (List.mem ar brows)) c.a in
    let rows_of diff = List.map Array.to_list (Relation.to_rows diff) in
    rows_of (Executor.tpsd exec ~rdelta:(rel c.a) ~r:(rel brows) ()) = want
    && rows_of (Executor.opsd exec ~rdelta:(rel c.a) ~r:(rel brows) ()) = want
  in
  filter && project && anti && set_differences
  && got (Plan.join2 ~extra l lkeys r rkeys) = joined

let prop_operators_in_row_order =
  QCheck2.Test.make ~name:"operators = nested-loop reference, in row order" ~count:500
    ~print:print_op_case gen_op_case operators_match_reference

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hash_join_eq_nested_loop;
      prop_join_extra_preds;
      prop_opsd_eq_tpsd;
      prop_set_difference_model;
      prop_operators_in_row_order;
    ]

(* --- Old: the rows before a table's Δ ----------------------------------- *)

(* "t" holds 8 rows, the last 3 of them its Δ range [5, 8). Every plan over
   [Old t] must equal, as a bag, the same plan over the first 5 rows
   materialized as an anonymous relation. [persistent] picks which tables
   the executor's index manager keeps; [d_rows] sizes the other join input
   so that the estimates pick the build side under test. *)
let t_rows = [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 1; 4 ]; [ 3; 1 ]; [ 2; 5 ]; [ 1; 6 ]; [ 0; 7 ] ]

let old_exec ~persistent ~d_rows =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  let reg name rows =
    Catalog.register catalog name (Relation.of_rows ~name 2 (List.map Array.of_list rows));
    Catalog.analyze_rows catalog name
  in
  reg "t" t_rows;
  Catalog.set_delta catalog "t" ~lo:5 ~hi:8 ();
  reg "d" d_rows;
  let index_manager = Rs_exec.Index_manager.create ~persistent pool in
  Executor.create ~query_overhead_s:0.0 ~index_manager pool catalog

let prefix = Plan.Rel (Relation.of_rows 2 (List.map Array.of_list (List.filteri (fun i _ -> i < 5) t_rows)))
let old_t = Plan.Old "t"

let bag rel = List.sort compare (List.map Array.to_list (Relation.to_rows rel))

let test_old_reads () =
  let few = [ [ 1; 0 ]; [ 2; 9 ] ] in
  let many = List.init 12 (fun i -> [ i mod 4; i ]) in
  let none _ = false in
  let rows_of pick =
    Plan.Rel (Relation.of_rows 2 (List.map Array.of_list (List.filteri pick t_rows)))
  in
  let same what exec plan_of ~want ~got =
    Alcotest.(check (list (list int)))
      what
      (bag (Executor.run_query exec (plan_of want)))
      (bag (Executor.run_query exec (plan_of got)))
  in
  List.iter
    (fun (what, (exec : Executor.t), plan_of) ->
      let want = bag (Executor.run_query exec (plan_of prefix)) in
      let got = bag (Executor.run_query exec (plan_of old_t)) in
      check (what ^ ": some rows") true (want <> []);
      Alcotest.(check (list (list int))) (what ^ ": Old = materialized prefix") want got;
      same (what ^ ": Delta = materialized suffix") exec plan_of
        ~want:(rows_of (fun i _ -> i >= 5)) ~got:(Plan.Delta "t");
      (* a row appended during the round: every read ends at the Δ's end *)
      Relation.push2 (Catalog.rel exec.catalog "t") 1 99;
      same (what ^ ": Scan ends at the round-start rows") exec plan_of
        ~want:(rows_of (fun _ _ -> true)) ~got:(Plan.Scan "t");
      same (what ^ ": Delta ends at the round-start rows") exec plan_of
        ~want:(rows_of (fun i _ -> i >= 5)) ~got:(Plan.Delta "t");
      Alcotest.(check (list (list int))) (what ^ ": Old unmoved") want
        (bag (Executor.run_query exec (plan_of old_t))))
    [
      ("bare", old_exec ~persistent:none ~d_rows:few, fun src -> src);
      (* the probe loop stops at the bound *)
      ( "probe side",
        old_exec ~persistent:none ~d_rows:few,
        fun src -> Plan.join2 (Plan.Scan "d") [| 0 |] src [| 0 |] );
      (* a transient index over the whole table, Δ matches skipped *)
      ( "build side",
        old_exec ~persistent:none ~d_rows:many,
        fun src -> Plan.join2 src [| 0 |] (Plan.Scan "d") [| 0 |] );
      (* the managed index of "t", shared with full scans of it *)
      ( "managed build side",
        old_exec ~persistent:(fun n -> n = "t") ~d_rows:few,
        fun src -> Plan.join2 (Plan.Scan "d") [| 0 |] src [| 0 |] );
      (* a constant on the atom: the filter reads the prefix in place *)
      ( "under a filter",
        old_exec ~persistent:none ~d_rows:many,
        fun src ->
          Plan.join2
            (Plan.Filter ([ Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const 1) ], src))
            [| 0 |] (Plan.Scan "d") [| 0 |] );
    ]

let test_delta_range_guard () =
  (* a Δ range past its table breaks the range invariant: the catalog must
     refuse it, not let Old or Delta read a wrong row set *)
  let exec, catalog = make_exec () in
  Catalog.register catalog "t" (Relation.of_rows 2 [ [| 0; 1 |] ]);
  let refused what ~lo ~hi =
    match Catalog.set_delta catalog "t" ~lo ~hi () with
    | () -> Alcotest.fail ("accepted a Δ range " ^ what)
    | exception Invalid_argument _ -> ()
  in
  refused "past its table" ~lo:0 ~hi:2;
  refused "starting before row 0" ~lo:(-1) ~hi:1;
  refused "ending before it starts" ~lo:1 ~hi:0;
  (* the refused ranges left the table without a Δ: Old reads it whole *)
  Alcotest.(check int) "Old after refusals" 1 (Relation.nrows (Executor.run_query exec old_t));
  (* a Δ held in another relation (an aggregated IDB's changed groups)
     has no rows before it in its table *)
  Catalog.set_delta catalog "t" ~src:(Relation.of_rows 2 [ [| 5; 5 |] ]) ~lo:0 ~hi:1 ();
  match Executor.run_query exec old_t with
  | _ -> Alcotest.fail "Old read a table whose Δ lies in another relation"
  | exception Invalid_argument _ -> ()

(* An interpreted run under UIE leaves charged only what it returns: every
   intermediate result of its queries (a UNION ALL's parts, the inputs a
   filter, projection, join or anti-join evaluates) is released once read.
   Kernels and PBME are off so every round runs through the executor; the
   programs cover non-linear recursion, a filter, mutual recursion over
   three-way joins and a negation. *)
let test_uie_releases_intermediates () =
  let module Memtrack = Rs_storage.Memtrack in
  let arc () = Rs_datagen.Graphs.gnp ~seed:3 ~n:40 ~p:0.05 in
  let nonlinear = ".input arc\np(x, y) :- arc(x, y).\np(x, z) :- p(x, y), p(y, z).\n.output p" in
  List.iter
    (fun (what, src, edb) ->
      let live = Memtrack.live () in
      let edb = edb () in
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let options = Recstep.Interpreter.options ~pbme:false ~compiled_kernels:false () in
      let program = Recstep.Parser.parse src in
      let r = Recstep.Interpreter.run ~options ~pool ~edb program in
      let idbs = (Recstep.Analyzer.analyze program).Recstep.Analyzer.idbs in
      let tables = List.map snd edb @ List.map r.relation_of idbs in
      let held = List.fold_left (fun n rel -> n + Relation.bytes rel) 0 tables in
      Alcotest.(check int) (what ^ ": live bytes = bytes of the returned tables") held (Memtrack.live () - live);
      List.iter Relation.release tables)
    [
      ("non-linear tc", nonlinear, fun () -> [ ("arc", arc ()) ]);
      ("sg", Recstep.Programs.sg, fun () -> [ ("arc", arc ()) ]);
      ( "cspa",
        Recstep.Programs.cspa,
        fun () ->
          [ ("assign", Rs_datagen.Graphs.gnp ~seed:5 ~n:40 ~p:0.04);
            ("dereference", Rs_datagen.Graphs.gnp ~seed:6 ~n:40 ~p:0.03) ] );
      ("ntc", Recstep.Programs.ntc, fun () -> [ ("arc", arc ()) ]);
    ]

let suite =
  [
    Alcotest.test_case "expr eval" `Quick test_expr_eval;
    Alcotest.test_case "plan arity/estimate" `Quick test_plan_arity_estimate;
    Alcotest.test_case "filter/project/union" `Quick test_filter_project_union;
    Alcotest.test_case "anti join" `Quick test_anti_join;
    Alcotest.test_case "UIE run releases its intermediates" `Quick test_uie_releases_intermediates;
    Alcotest.test_case "catalog stats" `Quick test_catalog_stats;
    Alcotest.test_case "cost model regions" `Quick test_cost_choose_regions;
    Alcotest.test_case "observed mu" `Quick test_observed_mu;
    Alcotest.test_case "build cache sharing" `Quick test_share_builds_cache;
    Alcotest.test_case "index manager lifecycle" `Quick test_index_manager_lifecycle;
    Alcotest.test_case "index manager clear-repopulate" `Quick
      test_index_manager_clear_repopulate;
    Alcotest.test_case "index manager parent chain and rebase" `Quick
      test_index_manager_parent_rebase;
    Alcotest.test_case "index manager membership-set lifecycle" `Quick
      test_index_manager_set_lifecycle;
    Alcotest.test_case "executor reuses managed index" `Quick test_executor_uses_manager;
    Alcotest.test_case "Old reads the rows before the Δ" `Quick test_old_reads;
    Alcotest.test_case "a Δ range past its table is refused" `Quick test_delta_range_guard;
  ]
  @ qsuite
