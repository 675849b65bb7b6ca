module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Hash_index = Rs_relation.Hash_index
module Cck = Rs_relation.Cck_concurrent
module Pool = Rs_parallel.Pool

let check = Alcotest.(check bool)

let test_relation_basic () =
  let r = Relation.create ~name:"t" 3 in
  Relation.push3 r 1 2 3;
  Relation.push_row r [| 4; 5; 6 |];
  Alcotest.(check int) "nrows" 2 (Relation.nrows r);
  Alcotest.(check int) "get" 5 (Relation.get r ~row:1 ~col:1);
  Alcotest.(check string) "name" "t" (Relation.name r);
  Alcotest.check_raises "arity" (Invalid_argument "Relation.push_row: arity mismatch")
    (fun () -> Relation.push_row r [| 1 |])

let test_relation_roundtrip () =
  let rows = [ [| 3; 1 |]; [| 1; 2 |]; [| 3; 1 |] ] in
  let r = Relation.of_rows 2 rows in
  Alcotest.(check int) "kept duplicates (bag)" 3 (Relation.nrows r);
  Alcotest.(check int) "distinct" 2 (List.length (Relation.sorted_distinct_rows r))

(* The canonical form as it was first written: box every row, polymorphic
   sort, drop adjacent duplicates. [sorted_distinct_rows] must match it. *)
let reference_sorted_distinct r =
  let rec dedup = function
    | a :: b :: rest when a = b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.sort compare (Relation.to_rows r))

(* Small values (many duplicates), the full packable range, or anything:
   negatives, [min_int]/[max_int] and pairs at or above 2^31. *)
let gen_canon_rows =
  let open QCheck2.Gen in
  let edge = Rs_util.Int_key.max_attr in
  let small = int_range 0 20 in
  let packable = oneof [ int_range 0 edge; oneofl [ 0; 1; edge - 1; edge ] ] in
  let any =
    oneof
      [
        small;
        int_range (-50) 50;
        int;
        oneofl [ min_int; max_int; -1; edge; edge + 1; 1 lsl 32; min_int + 1; max_int - 1 ];
      ]
  in
  let* arity = int_range 1 4 in
  let* value = oneofl [ small; packable; any ] in
  let+ rows = list_size (int_range 0 600) (array_size (return arity) value) in
  (arity, rows)

let prop_sorted_distinct_matches_reference =
  QCheck2.Test.make ~name:"sorted_distinct_rows = boxed polymorphic sort" ~count:300
    gen_canon_rows (fun (arity, rows) ->
      let r = Relation.of_rows arity rows in
      Relation.sorted_distinct_rows r = reference_sorted_distinct r)

let test_sorted_distinct_late_unpackable () =
  (* every pair packs except the last row, so the packability scan has to
     reach the end before it may take the packed path *)
  let rows = List.init 1000 (fun i -> [| i mod 37; i mod 11 |]) @ [ [| 1 lsl 31; 0 |] ] in
  let r = Relation.of_rows 2 rows in
  let got = Relation.sorted_distinct_rows r in
  check "equals reference" true (got = reference_sorted_distinct r);
  check "out-of-range row last" true (List.nth got (List.length got - 1) = [| 1 lsl 31; 0 |])

let test_relation_copy_append () =
  let a = Relation.of_rows 2 [ [| 1; 2 |] ] in
  let b = Relation.copy a in
  Relation.push2 b 3 4;
  Alcotest.(check int) "copy isolated" 1 (Relation.nrows a);
  Relation.append_all a b;
  Alcotest.(check int) "appended" 3 (Relation.nrows a)

let test_concat_parallel () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let frags =
    List.init 5 (fun i -> Relation.of_rows 2 (List.init (i + 1) (fun j -> [| i; j |])))
  in
  let merged = Relation.concat_parallel pool 2 frags in
  let expected = List.concat_map Relation.to_rows frags in
  Alcotest.(check int) "rows" (List.length expected) (Relation.nrows merged);
  check "order preserved" true (Relation.to_rows merged = expected)

let test_accounting () =
  Rs_storage.Memtrack.hard_reset ();
  let r = Relation.of_rows 2 (List.init 100 (fun i -> [| i; i |])) in
  Relation.account r;
  check "accounted" true (Rs_storage.Memtrack.live () > 0);
  Relation.release r;
  Alcotest.(check int) "released" 0 (Rs_storage.Memtrack.live ())

(* --- dedup --- *)

let gen_pairs =
  QCheck2.Gen.(list (pair (int_range 0 50) (int_range 0 50)))

let prop_dedup_matches_set mode name =
  QCheck2.Test.make ~name ~count:200 gen_pairs (fun pairs ->
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let d = Dedup.dedup_relation mode r in
      Refs.sorted_pairs (Relation.to_rows d |> List.map (fun a -> a))
      = List.sort_uniq compare pairs)

let prop_dedup_parallel_matches =
  QCheck2.Test.make ~name:"parallel dedup = set" ~count:100 gen_pairs (fun pairs ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let d = Dedup.dedup_relation_parallel ~pool Dedup.Fast r in
      Refs.sorted_pairs (Relation.to_rows d) = List.sort_uniq compare pairs)

(* Model check of Fast against Boxed: interleaved claims and lookups on
   every arity that takes its own Fast path, comparing every return value
   and the cardinality after every call. A small [expected] makes the table grow several
   times. The extreme values include [min_int] (the packed layout's empty
   slot marker, a legal arity-1 key) and the first values outside
   [0, 2^31), which migrate an arity-2 table mid-stream. *)
type dedup_op = Add_row of int array | Add1 of int | Add2 of int * int | Mem_row of int array

let gen_dedup_case =
  let open QCheck2.Gen in
  let extreme = oneofl [ min_int; max_int; (1 lsl 31) - 1; 1 lsl 31; -1; -7; 0 ] in
  let* arity = int_range 1 4 in
  let* expected = int_range 0 8 in
  (* weight 0 keeps a case inside the packed range; otherwise values may be
     negative, and about [weight] in 40 are extreme *)
  let* weight = int_range 0 3 in
  let value =
    if weight = 0 then int_range 0 100 else frequency [ (40, int_range (-5) 100); (weight, extreme) ]
  in
  let row = array_size (return arity) value in
  let op =
    frequency
      ([ (3, map (fun r -> Add_row r) row); (2, map (fun r -> Mem_row r) row) ]
      @ (if arity = 1 then [ (3, map (fun x -> Add1 x) value) ] else [])
      @ if arity = 2 then [ (3, map2 (fun x y -> Add2 (x, y)) value value) ] else [])
  in
  let+ ops = list_size (int_range 0 300) op in
  (arity, expected, ops)

let prop_dedup_fast_eq_boxed =
  QCheck2.Test.make ~name:"fast dedup = boxed dedup" ~count:300 gen_dedup_case
    (fun (arity, expected, ops) ->
      let run mode =
        let t = Dedup.create ~expected mode arity in
        List.map
          (fun op ->
            let answer =
              match op with
              | Add_row r -> Dedup.add_row t r
              | Add1 x -> Dedup.add1 t x
              | Add2 (x, y) -> Dedup.add2 t x y
              | Mem_row r -> Dedup.mem_row t r
            in
            (answer, Dedup.cardinal t))
          ops
      in
      run Dedup.Fast = run Dedup.Boxed)

let test_dedup_wide_membership () =
  let t = Dedup.create Dedup.Fast 4 in
  check "add" true (Dedup.add_row t [| 1; 2; 3; 4 |]);
  check "dup" false (Dedup.add_row t [| 1; 2; 3; 4 |]);
  check "mem" true (Dedup.mem_row t [| 1; 2; 3; 4 |]);
  check "not mem" false (Dedup.mem_row t [| 1; 2; 3; 5 |]);
  Alcotest.(check int) "cardinal" 1 (Dedup.cardinal t)

let test_dedup_rehash_growth () =
  let t = Dedup.create ~expected:4 Dedup.Fast 2 in
  for i = 0 to 9999 do
    check "new" true (Dedup.add2 t i (i * 31))
  done;
  for i = 0 to 9999 do
    check "dup" false (Dedup.add2 t i (i * 31))
  done;
  Alcotest.(check int) "cardinal" 10000 (Dedup.cardinal t)

(* --- CCK concurrent, including a real multi-domain stress test --- *)

let test_cck_sequential () =
  let t = Cck.create ~capacity:1000 ~buckets:64 in
  check "add" true (Cck.add t 42);
  check "dup" false (Cck.add t 42);
  check "mem" true (Cck.mem t 42);
  check "not mem" false (Cck.mem t 43);
  Alcotest.(check int) "cardinal" 1 (Cck.cardinal t)

let test_cck_concurrent_domains () =
  (* Four real OCaml 5 domains hammer one table with overlapping ranges;
     the final set must be exactly [0, 4000). *)
  let t = Cck.create ~capacity:20000 ~buckets:1024 in
  let worker seed () =
    let rng = Rs_util.Rng.create seed in
    for _ = 1 to 8000 do
      ignore (Cck.add t (Rs_util.Rng.int rng 4000))
    done;
    for v = 0 to 3999 do
      ignore (Cck.add t v)
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  Alcotest.(check int) "exactly the range" 4000 (Cck.cardinal t);
  Alcotest.(check (list int)) "sorted contents" (List.init 4000 (fun i -> i)) (Cck.to_sorted_list t)

let test_cck_capacity_exhausted () =
  (* a full table fails with the typed exception (folded into Oom at the
     engine boundary), never a bare [failwith] *)
  let t = Cck.create ~capacity:4 ~buckets:16 in
  for v = 0 to 3 do
    check "add" true (Cck.add t v)
  done;
  Alcotest.check_raises "typed capacity failure"
    (Cck.Capacity_exhausted { capacity = 4 })
    (fun () -> ignore (Cck.add t 99));
  Alcotest.(check bool) "guard folds it to Oom" true
    (Rs_engines.Engine_intf.guard (fun () -> ignore (Cck.add t 100)) = Rs_engines.Engine_intf.Oom)

(* --- hash index --- *)

let prop_index_matches_scan =
  QCheck2.Test.make ~name:"hash index = naive scan" ~count:200
    QCheck2.Gen.(pair gen_pairs (int_range 0 50))
    (fun (pairs, probe) ->
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let idx = Hash_index.build r [| 0 |] in
      let via_index = ref [] in
      Hash_index.iter_matches1 idx probe (fun row -> via_index := row :: !via_index);
      let naive = List.filteri (fun _ _ -> true) pairs in
      let expected =
        List.mapi (fun i (x, _) -> (i, x)) naive
        |> List.filter_map (fun (i, x) -> if x = probe then Some i else None)
      in
      List.sort compare !via_index = List.sort compare expected)

let prop_build_pool_equals_build =
  QCheck2.Test.make ~name:"build_pool = build" ~count:100 gen_pairs (fun pairs ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let a = Hash_index.build r [| 0; 1 |] and b = Hash_index.build_pool pool r [| 0; 1 |] in
      List.for_all
        (fun (x, y) ->
          let ra = ref [] and rb = ref [] in
          Hash_index.iter_matches a [| x; y |] (fun i -> ra := i :: !ra);
          Hash_index.iter_matches b [| x; y |] (fun i -> rb := i :: !rb);
          List.sort compare !ra = List.sort compare !rb)
        pairs)

(* How many indexed rows match [key]. *)
let matches idx key =
  let hits = ref 0 in
  Hash_index.iter_matches idx key (fun _ -> incr hits);
  !hits

let test_index_two_col_and_mem () =
  let r = Relation.of_rows 2 [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 2 |] ] in
  let idx = Hash_index.build r [| 0; 1 |] in
  Alcotest.(check int) "present key" 1 (matches idx [| 1; 3 |]);
  Alcotest.(check int) "absent key" 0 (matches idx [| 3; 1 |]);
  let hits = ref 0 in
  Hash_index.iter_matches2 idx 1 2 (fun _ -> incr hits);
  Alcotest.(check int) "exact match" 1 !hits

let test_index_three_col () =
  (* arity >= 3 exercises the generic fold branch of row_key_hash and the
     array-key iter_matches path (vs the 1/2-column specializations) *)
  let r =
    Relation.of_rows 4
      [ [| 1; 2; 3; 9 |]; [| 1; 2; 4; 8 |]; [| 1; 2; 3; 7 |]; [| 2; 2; 3; 6 |] ]
  in
  let idx = Hash_index.build r [| 0; 1; 2 |] in
  let hits = ref [] in
  Hash_index.iter_matches idx [| 1; 2; 3 |] (fun row -> hits := row :: !hits);
  Alcotest.(check (list int)) "3-col key matches" [ 0; 2 ] (List.sort compare !hits);
  Alcotest.(check int) "3-col present key" 1 (matches idx [| 2; 2; 3 |]);
  Alcotest.(check int) "3-col absent key" 0 (matches idx [| 2; 2; 4 |])

let test_index_memtrack_roundtrip () =
  Rs_storage.Memtrack.hard_reset ();
  let r = Relation.of_rows 3 (List.init 500 (fun i -> [| i mod 17; i mod 5; i |])) in
  let idx = Hash_index.build r [| 0; 1; 2 |] in
  Hash_index.account idx;
  check "chained accounted" true (Rs_storage.Memtrack.live () > 0);
  Hash_index.release idx;
  Alcotest.(check int) "all released" 0 (Rs_storage.Memtrack.live ())

let prop_append_eq_rebuild =
  QCheck2.Test.make ~name:"append_pool = fresh rebuild" ~count:100
    QCheck2.Gen.(pair gen_pairs gen_pairs)
    (fun (base, extra) ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) base;
      let idx = Hash_index.build_pool pool r [| 0 |] in
      List.iter (fun (x, y) -> Relation.push2 r x y) extra;
      let added = Hash_index.append_pool pool idx in
      let fresh = Hash_index.build r [| 0 |] in
      added = List.length extra
      && Hash_index.indexed_rows idx = Relation.nrows r
      && List.for_all
           (fun (x, _) ->
             let a = ref [] and b = ref [] in
             Hash_index.iter_matches1 idx x (fun i -> a := i :: !a);
             Hash_index.iter_matches1 fresh x (fun i -> b := i :: !b);
             !a = !b)
           (base @ extra))

let test_append_rehash_growth () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let r = Relation.create 2 in
  for i = 0 to 15 do
    Relation.push2 r i i
  done;
  let idx = Hash_index.build_pool pool r [| 0 |] in
  Alcotest.(check int) "no rehash yet" 0 (Hash_index.rehashes idx);
  (* grow the relation 64x through repeated appends: the bucket table must
     double (rehash) several times and stay correct throughout *)
  for round = 1 to 6 do
    let n = Relation.nrows r in
    for i = 0 to n - 1 do
      Relation.push2 r (i + (round * 10000)) i
    done;
    ignore (Hash_index.append_pool pool idx)
  done;
  check "rehashed" true (Hash_index.rehashes idx > 0);
  Alcotest.(check int) "covers all rows" (Relation.nrows r) (Hash_index.indexed_rows idx);
  let hits = ref 0 in
  Hash_index.iter_matches1 idx 3 (fun _ -> incr hits);
  let expected = ref 0 in
  for row = 0 to Relation.nrows r - 1 do
    if Relation.get r ~row ~col:0 = 3 then incr expected
  done;
  Alcotest.(check int) "post-rehash probe" !expected !hits

(* Load <= 1 means buckets are shared: rows over a handful of distinct
   keys on 16–32 buckets collide constantly. Every probe, through each
   entry point, must visit exactly the covered rows with its key, newest
   first, and agree with a fresh [build] — after the build, after an
   append that stays under the bucket count and after one that rehashes. *)
let gen_collide_case =
  QCheck2.Gen.(
    let v = frequency [ (8, int_range (-2) 2); (1, oneofl [ min_int; max_int; 1 lsl 31 ]) ] in
    let rows = list_size (int_range 0 24) (triple v v v) in
    quad (int_range 1 3) (list_size (int_range 0 16) (triple v v v)) rows rows)

let prop_index_collisions =
  QCheck2.Test.make ~name:"hash index at load 1: exact, newest first, = fresh build" ~count:300
    gen_collide_case (fun (kw, base, tail1, tail2) ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 3 in
      let push (x, y, z) = Relation.push3 r x y z in
      List.iter push base;
      let keys = Array.init kw Fun.id in
      let idx = Hash_index.build_pool pool r keys in
      let key_of row = Array.map (fun c -> Relation.get r ~row ~col:c) keys in
      (* every probe in visit order, via the entry point for [kw] columns *)
      let visit idx key =
        let acc = ref [] in
        let f row = acc := row :: !acc in
        (match key with
        | [| k |] -> Hash_index.iter_matches1 idx k f
        | [| k1; k2 |] -> Hash_index.iter_matches2 idx k1 k2 f
        | _ -> ());
        Hash_index.iter_matches idx key (fun row -> acc := row :: !acc);
        List.rev !acc
      in
      let exact () =
        let n = Relation.nrows r in
        let probes = List.init n key_of @ [ Array.make kw 7; Array.make kw min_int ] in
        let fresh = Hash_index.build r keys in
        Hash_index.indexed_rows idx = n
        && List.for_all
             (fun key ->
               let want = List.filter (fun row -> key_of row = key) (List.init n (fun i -> n - 1 - i)) in
               let want = if kw <= 2 then want @ want else want in
               visit idx key = want && visit fresh key = want)
             probes
      in
      let ok0 = exact () in
      List.iter push tail1;
      ignore (Hash_index.append_pool pool idx);
      let ok1 = exact () in
      List.iter push tail2;
      ignore (Hash_index.append_pool pool idx);
      let ok2 = exact () in
      (* at most one row per bucket on average: more than 16 rows has grown
         the 16-bucket table built over at most 16 *)
      ok0 && ok1 && ok2 && (Relation.nrows r <= 16 || Hash_index.rehashes idx > 0))

(* The kernels' two-table claim must behave as a claim in the dedup table
   followed, when fresh, by an add to the set — across packed, wide and
   migrating layouts and a boxed dedup table. *)
let prop_two_table_claim =
  QCheck2.Test.make ~name:"two-table claim = dedup claim then set add" ~count:300
    QCheck2.Gen.(
      let v = frequency [ (8, int_range (-2) 3); (1, oneofl [ min_int; max_int; 1 lsl 31 ]) ] in
      int_range 1 3 >>= fun arity ->
      let rows = list_size (int_range 0 30) (array_repeat arity v) in
      triple (return arity) (pair bool rows) rows)
    (fun (arity, (boxed, seed_rows), rows) ->
      let mode = if boxed then Dedup.Boxed else Dedup.Fast in
      let table = Dedup.create ~expected:4 mode arity and set = Dedup.create_set ~expected:4 arity in
      List.iter (fun row -> ignore (Dedup.add_row set row)) seed_rows;
      let seen = Hashtbl.create 16 and members = Hashtbl.create 16 in
      List.iter (fun row -> Hashtbl.replace members (Array.to_list row) ()) seed_rows;
      let claim row =
        match row with
        | [| x |] -> Dedup.claim1 table ~set x
        | [| x; y |] -> Dedup.claim2 table ~set x y
        | _ -> Dedup.claim_row table ~set row
      in
      List.for_all
        (fun row ->
          let k = Array.to_list row in
          let want =
            if Hashtbl.mem seen k then Dedup.Repeat
            else begin
              Hashtbl.replace seen k ();
              if Hashtbl.mem members k then Dedup.Known
              else begin
                Hashtbl.replace members k ();
                Dedup.Added
              end
            end
          in
          claim row = want)
        rows
      && Dedup.cardinal table = Hashtbl.length seen
      && Dedup.cardinal set = Hashtbl.length members
      && Hashtbl.fold (fun k () ok -> ok && Dedup.mem_row set (Array.of_list k)) members true)

let test_generation_tracking () =
  let r = Relation.of_rows 2 [ [| 1; 2 |] ] in
  let g0 = Relation.generation r in
  Relation.push2 r 3 4;
  Alcotest.(check int) "appends do not bump generation" g0 (Relation.generation r);
  Relation.clear r;
  check "clear bumps generation" true (Relation.generation r > g0);
  Alcotest.(check int) "clear empties" 0 (Relation.nrows r)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dedup_matches_set Dedup.Fast "fast dedup = set semantics";
      prop_dedup_matches_set Dedup.Boxed "boxed dedup = set semantics";
      prop_dedup_parallel_matches;
      prop_dedup_fast_eq_boxed;
      prop_index_matches_scan;
      prop_build_pool_equals_build;
      prop_append_eq_rebuild;
      prop_index_collisions;
      prop_two_table_claim;
      prop_sorted_distinct_matches_reference;
    ]

let suite =
  [
    Alcotest.test_case "relation basics" `Quick test_relation_basic;
    Alcotest.test_case "relation bag vs distinct" `Quick test_relation_roundtrip;
    Alcotest.test_case "sorted_distinct late unpackable row" `Quick
      test_sorted_distinct_late_unpackable;
    Alcotest.test_case "relation copy/append" `Quick test_relation_copy_append;
    Alcotest.test_case "concat_parallel order" `Quick test_concat_parallel;
    Alcotest.test_case "memory accounting" `Quick test_accounting;
    Alcotest.test_case "dedup wide rows" `Quick test_dedup_wide_membership;
    Alcotest.test_case "dedup rehash growth" `Quick test_dedup_rehash_growth;
    Alcotest.test_case "cck sequential" `Quick test_cck_sequential;
    Alcotest.test_case "cck 4-domain stress" `Quick test_cck_concurrent_domains;
    Alcotest.test_case "cck capacity exhaustion is typed" `Quick test_cck_capacity_exhausted;
    Alcotest.test_case "index two-column" `Quick test_index_two_col_and_mem;
    Alcotest.test_case "index three-column (fold branch)" `Quick test_index_three_col;
    Alcotest.test_case "index memtrack round-trip" `Quick test_index_memtrack_roundtrip;
    Alcotest.test_case "append rehash growth" `Quick test_append_rehash_growth;
    Alcotest.test_case "relation generation tracking" `Quick test_generation_tracking;
  ]
  @ qsuite
