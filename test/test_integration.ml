(* End-to-end integration tests: multi-stratum programs, the frontend's file
   I/O, engine internals on structured scenarios, and cross-checks between
   the interpreter's statistics and expected behaviour. *)

module Frontend = Recstep.Frontend
module Interpreter = Recstep.Interpreter
module Relation = Rs_relation.Relation

let check = Alcotest.(check bool)

let run ?options src edb = fst (Frontend.run_text ?options ~edb src)

(* --- frontend file I/O --- *)

let test_tsv_roundtrip () =
  let path = Filename.temp_file "recstep_test" ".tsv" in
  let r = Relation.of_rows 3 [ [| 1; 2; 3 |]; [| 40; 50; 60 |]; [| 7; 8; 9 |] ] in
  Frontend.save_tsv r path;
  let back = Frontend.load_tsv ~arity:3 path in
  Sys.remove path;
  check "roundtrip" true (Relation.to_rows r = Relation.to_rows back)

let test_tsv_comments_and_spaces () =
  let path = Filename.temp_file "recstep_test" ".tsv" in
  let oc = open_out path in
  output_string oc "# a comment\n1 2\n\n3\t4\n";
  close_out oc;
  let r = Frontend.load_tsv ~arity:2 path in
  Sys.remove path;
  Alcotest.(check int) "two tuples" 2 (Relation.nrows r);
  Alcotest.(check int) "tab-separated too" 4 (Relation.get r ~row:1 ~col:1)

(* --- multi-stratum programs --- *)

let test_three_strata_negation_chain () =
  (* base <- derived <- doubly-derived with negation at each boundary *)
  let src =
    {|
.input e
a(x) :- e(x, _).
b(x) :- e(_, x), !a(x).
c(x) :- a(x), !b(x).
.output c
|}
  in
  let e = Frontend.edges ~name:"e" [ (1, 2); (2, 3); (4, 5) ] in
  let r = run src [ ("e", e) ] in
  (* a = {1,2,4}; b = targets not in a = {3,5}; c = a minus b = a *)
  Alcotest.(check (list int)) "c" [ 1; 2; 4 ]
    (List.sort compare (List.map (fun t -> t.(0)) (Frontend.result_rows r "c")))

let test_mutual_recursion_even_odd () =
  let src =
    {|
.input next
even(0).
odd(y) :- even(x), next(x, y).
even(y) :- odd(x), next(x, y).
.output even
.output odd
|}
  in
  let next = Frontend.edges ~name:"next" (List.init 9 (fun i -> (i, i + 1))) in
  let r = run src [ ("next", next) ] in
  let vals name = List.sort compare (List.map (fun t -> t.(0)) (Frontend.result_rows r name)) in
  Alcotest.(check (list int)) "even" [ 0; 2; 4; 6; 8 ] (vals "even");
  Alcotest.(check (list int)) "odd" [ 1; 3; 5; 7; 9 ] (vals "odd")

let test_aggregate_after_recursion () =
  (* non-recursive MAX over a recursive relation in a lower stratum *)
  let src =
    {|
.input arc
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
far(x, MAX(y)) :- tc(x, y).
.output far
|}
  in
  let r = run src [ ("arc", Frontend.edges [ (1, 2); (2, 3); (5, 4) ]) ] in
  Alcotest.(check (list (pair int int))) "max reached"
    [ (1, 3); (2, 3); (5, 4) ]
    (List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Frontend.result_rows r "far")))

let test_sum_and_avg_aggregates () =
  let src =
    {|
.input m
s(x, SUM(v)) :- m(x, v).
a(x, AVG(v)) :- m(x, v).
n(x, COUNT(v)) :- m(x, v).
.output s
.output a
.output n
|}
  in
  let m = Frontend.relation_of_list ~name:"m" 2 [ [| 1; 10 |]; [| 1; 20 |]; [| 2; 5 |] ] in
  let r = run src [ ("m", m) ] in
  let get name = List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Frontend.result_rows r name)) in
  Alcotest.(check (list (pair int int))) "sum" [ (1, 30); (2, 5) ] (get "s");
  Alcotest.(check (list (pair int int))) "avg" [ (1, 15); (2, 5) ] (get "a");
  Alcotest.(check (list (pair int int))) "count" [ (1, 2); (2, 1) ] (get "n")

let test_count_is_set_semantics () =
  (* duplicate body derivations must not inflate COUNT *)
  let src =
    {|
.input e1
.input e2
both(x, y) :- e1(x, y).
both(x, y) :- e2(x, y).
deg(x, COUNT(y)) :- both(x, y).
.output deg
|}
  in
  let e = [ (1, 7); (1, 8) ] in
  let r =
    run src
      [ ("e1", Frontend.edges ~name:"e1" e); ("e2", Frontend.edges ~name:"e2" e) ]
  in
  Alcotest.(check (list (pair int int))) "count over distinct" [ (1, 2) ]
    (List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Frontend.result_rows r "deg")))

let test_constants_in_bodies_and_heads () =
  let src =
    {|
.input e
from_two(y) :- e(2, y).
tagged(x, 99) :- e(x, _).
.output from_two
.output tagged
|}
  in
  let r = run src [ ("e", Frontend.edges ~name:"e" [ (1, 5); (2, 6); (2, 7) ]) ] in
  Alcotest.(check (list int)) "constant filter" [ 6; 7 ]
    (List.sort compare (List.map (fun t -> t.(0)) (Frontend.result_rows r "from_two")));
  check "constant head column" true
    (List.for_all (fun t -> t.(1) = 99) (Frontend.result_rows r "tagged"))

let test_cross_product_rule () =
  let src = {|
.input a
.input b
pairs(x, y) :- a(x), b(y).
.output pairs
|} in
  let a = Frontend.relation_of_list ~name:"a" 1 [ [| 1 |]; [| 2 |] ] in
  let b = Frontend.relation_of_list ~name:"b" 1 [ [| 8 |]; [| 9 |] ] in
  let r = run src [ ("a", a); ("b", b) ] in
  Alcotest.(check int) "2x2 pairs" 4 (List.length (Frontend.result_rows r "pairs"))

let test_repeated_var_in_atom () =
  let src = {|
.input e
loop(x) :- e(x, x).
.output loop
|} in
  let r = run src [ ("e", Frontend.edges ~name:"e" [ (1, 1); (1, 2); (3, 3) ]) ] in
  Alcotest.(check (list int)) "self loops" [ 1; 3 ]
    (List.sort compare (List.map (fun t -> t.(0)) (Frontend.result_rows r "loop")))

let test_long_chain_iterations () =
  (* a 120-vertex path: the fixpoint needs ~120 iterations (CSDA shape) *)
  let n = 120 in
  let arc = Frontend.edges (List.init (n - 1) (fun i -> (i, i + 1))) in
  let options = { Interpreter.default_options with pbme = false } in
  let r = run ~options Recstep.Programs.tc [ ("arc", arc) ] in
  Alcotest.(check int) "closure size" (n * (n - 1) / 2)
    (List.length (Frontend.result_rows r "tc"));
  check "many iterations" true (r.Interpreter.iterations >= n - 2)

let test_empty_edb_fixpoint () =
  let r = run Recstep.Programs.tc [ ("arc", Frontend.edges []) ] in
  Alcotest.(check int) "empty closure" 0 (List.length (Frontend.result_rows r "tc"))

(* --- engine internals on structured scenarios --- *)

let test_souffle_long_chain () =
  (* exercises the incremental indices over many iterations *)
  let module E = (val Rs_engines.Engines.souffle_like : Rs_engines.Engine_intf.S) in
  let n = 60 in
  let arc = Frontend.edges (List.init (n - 1) (fun i -> (i, i + 1))) in
  let pool = Rs_parallel.Pool.create ~workers:4 () in
  Rs_parallel.Pool.begin_run pool;
  let result = E.run ~pool ~edb:[ ("arc", arc) ] (Recstep.Parser.parse Recstep.Programs.tc) in
  let lookup = result.Rs_engines.Engine_intf.relation_of in
  Alcotest.(check int) "chain closure" (n * (n - 1) / 2)
    (List.length (Relation.sorted_distinct_rows (lookup "tc")))

let test_graspan_three_atom_chain () =
  (* CSPA's memoryAlias rule normalizes through an auxiliary label *)
  let module E = (val Rs_engines.Engines.graspan_like : Rs_engines.Engine_intf.S) in
  let assign = Frontend.edges ~name:"assign" [ (1, 2) ] in
  let deref = Frontend.edges ~name:"dereference" [ (1, 10); (2, 10) ] in
  let pool = Rs_parallel.Pool.create ~workers:4 () in
  Rs_parallel.Pool.begin_run pool;
  let result =
    E.run ~pool ~edb:[ ("assign", assign); ("dereference", deref) ]
      (Recstep.Parser.parse Recstep.Programs.cspa)
  in
  let lookup = result.Rs_engines.Engine_intf.relation_of in
  check "memoryAlias computed through aux label" true
    (List.length (Relation.sorted_distinct_rows (lookup "memoryAlias")) > 0)

let test_bigdatalog_recursive_aggregation () =
  (* BigDatalog supports recursive MIN (CC) even though mutual recursion is
     out of its fragment *)
  let module E = (val Rs_engines.Engines.bigdatalog_like : Rs_engines.Engine_intf.S) in
  let arc = Frontend.edges [ (3, 1); (1, 3); (5, 6) ] in
  let pool = Rs_parallel.Pool.create ~workers:4 () in
  Rs_parallel.Pool.begin_run pool;
  let result = E.run ~pool ~edb:[ ("arc", arc) ] (Recstep.Parser.parse Recstep.Programs.cc) in
  let lookup = result.Rs_engines.Engine_intf.relation_of in
  Alcotest.(check (list int)) "component labels" [ 1; 5 ]
    (List.sort compare (List.map (fun t -> t.(0)) (Relation.sorted_distinct_rows (lookup "cc"))))

let test_interpreter_dsd_switches () =
  (* every absorb of a long-running TC records its set-difference choice;
     with kernels and persistent indexes on, every one is OPSD — iteration
     0 by the cost model, the rest the set probe inside the kernel *)
  let arc = Rs_datagen.Graphs.gnp ~seed:17 ~n:400 ~p:0.02 in
  let options =
    { Interpreter.default_options with pbme = false; dsd = Interpreter.Dsd_dynamic }
  in
  let r = run ~options Recstep.Programs.tc [ ("arc", arc) ] in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Interpreter.dsd_choices in
  check "dsd consulted every iteration" true (total >= r.Interpreter.iterations - 1)

let test_share_builds_toggle_same_result () =
  let arc () = Rs_datagen.Graphs.gnp ~seed:23 ~n:80 ~p:0.05 in
  let result share =
    let options = { Interpreter.default_options with share_builds = share; pbme = false } in
    let r = run ~options Recstep.Programs.tc [ ("arc", arc ()) ] in
    Frontend.result_rows r "tc"
  in
  check "cache sharing preserves results" true (result true = result false)

let test_workers_do_not_change_results () =
  let arc () = Rs_datagen.Graphs.rmat ~seed:29 ~n:256 ~m:1024 in
  let result workers =
    let r, _ =
      Frontend.run_text ~workers ~edb:[ ("arc", arc ()) ] Recstep.Programs.cc
    in
    Frontend.result_rows r "cc3"
  in
  check "1 worker = 16 workers" true (result 1 = result 16)

let suite =
  [
    Alcotest.test_case "tsv roundtrip" `Quick test_tsv_roundtrip;
    Alcotest.test_case "tsv comments/spaces" `Quick test_tsv_comments_and_spaces;
    Alcotest.test_case "three strata with negation" `Quick test_three_strata_negation_chain;
    Alcotest.test_case "mutual recursion even/odd" `Quick test_mutual_recursion_even_odd;
    Alcotest.test_case "aggregate after recursion" `Quick test_aggregate_after_recursion;
    Alcotest.test_case "SUM/AVG/COUNT" `Quick test_sum_and_avg_aggregates;
    Alcotest.test_case "COUNT set semantics" `Quick test_count_is_set_semantics;
    Alcotest.test_case "constants in bodies/heads" `Quick test_constants_in_bodies_and_heads;
    Alcotest.test_case "cross product rule" `Quick test_cross_product_rule;
    Alcotest.test_case "repeated var in atom" `Quick test_repeated_var_in_atom;
    Alcotest.test_case "long chain iterations" `Quick test_long_chain_iterations;
    Alcotest.test_case "empty EDB" `Quick test_empty_edb_fixpoint;
    Alcotest.test_case "souffle long chain" `Quick test_souffle_long_chain;
    Alcotest.test_case "graspan 3-atom chain" `Quick test_graspan_three_atom_chain;
    Alcotest.test_case "bigdatalog recursive agg" `Quick test_bigdatalog_recursive_aggregation;
    Alcotest.test_case "DSD consulted per iteration" `Quick test_interpreter_dsd_switches;
    Alcotest.test_case "share_builds same results" `Quick test_share_builds_toggle_same_result;
    Alcotest.test_case "worker count invariance" `Quick test_workers_do_not_change_results;
  ]
