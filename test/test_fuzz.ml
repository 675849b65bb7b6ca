(* rs_fuzz: the naive oracle, the differential driver, the shrinker, and the
   regression corpus of minimal reproducers. *)

module Gen = Rs_fuzz.Gen
module Differ = Rs_fuzz.Differ
module Shrink = Rs_fuzz.Shrink
module Fuzz = Rs_fuzz.Fuzz
module Delta_fuzz = Rs_fuzz.Delta_fuzz
module Delta = Rs_relation.Delta
module Naive = Recstep.Naive
module Parser = Recstep.Parser
module Interpreter = Recstep.Interpreter
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool

let check = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let case_of src edb = { Gen.case_seed = 0; program = Parser.parse src; edb }

(* --- the oracle ---------------------------------------------------------- *)

let test_oracle_tc () =
  let edges = [ (0, 1); (1, 2); (2, 3); (5, 6); (6, 5) ] in
  let edb = [ ("arc", List.map (fun (a, b) -> [ a; b ]) edges) ] in
  let program =
    Parser.parse
      ".input arc\ntc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).\n.output tc"
  in
  let idbs, rows_of = Naive.run ~edb program in
  check "tc is the only idb" true (idbs = [ "tc" ]);
  let expect =
    List.sort compare
      (List.map (fun (a, b) -> [ a; b ]) (Refs.IntPairSet.elements (Refs.transitive_closure edges)))
  in
  Alcotest.(check (list (list int))) "tc matches reference" expect (rows_of "tc")

let test_oracle_negation () =
  let edb = [ ("e0", [ [ 0; 1 ]; [ 1; 2 ] ]); ("e1", [ [ 0; 1 ] ]) ] in
  let program =
    Parser.parse
      ".input e0\n.input e1\np0(x, y) :- e0(x, y), !e1(x, y).\n.output p0"
  in
  let _, rows_of = Naive.run ~edb program in
  Alcotest.(check (list (list int))) "negation filters" [ [ 1; 2 ] ] (rows_of "p0")

let test_oracle_rejects_aggregates () =
  let program = Parser.parse ".input e\nh(x, MIN(y)) :- e(x, y).\n.output h" in
  check "aggregates unsupported" true
    (match Naive.run ~edb:[ ("e", [ [ 1; 2 ] ]) ] program with
    | exception Naive.Unsupported_feature _ -> true
    | _ -> false)

(* --- generator determinism ----------------------------------------------- *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.gen_case ~seed and b = Gen.gen_case ~seed in
      check "same seed, same source" true (Gen.case_to_source a = Gen.case_to_source b);
      check "same seed, same edb" true (a.Gen.edb = b.Gen.edb);
      (* the printed case must round-trip through the frontend *)
      let reparsed = Parser.parse (Gen.case_to_source a) in
      check "case reparses" true (List.length reparsed.Recstep.Ast.rules >= 1))
    [ 1; 7; 42; 1000; 424242 ]

(* --- regression corpus across every runner ------------------------------- *)

let test_corpus_all_runners () =
  let runners = Differ.all_runners () in
  List.iter
    (fun (tag, src, edb) ->
      let case = case_of src edb in
      let oracle = Differ.oracle_of_case case in
      List.iter
        (fun (r : Differ.runner) ->
          match r.Differ.run case oracle with
          | Differ.Agree -> ()
          (* every corpus shape is inside the Souffle-like fragment *)
          | Differ.Skipped m when r.Differ.rname = "Souffle-like" ->
              Alcotest.fail (Printf.sprintf "Souffle-like skipped %S: %s" tag m)
          | Differ.Skipped _ -> ()
          | Differ.Diverged ms ->
              Alcotest.fail
                (Printf.sprintf "%s diverged on %S (%s)" r.Differ.rname tag
                   (String.concat ", " (List.map (fun m -> m.Differ.pred) ms)))
          | Differ.Failed m ->
              Alcotest.fail (Printf.sprintf "%s failed on %S: %s" r.Differ.rname tag m))
        runners)
    Refs.fuzz_corpus

(* --- a small fixed-seed campaign ----------------------------------------- *)

let test_campaign_clean () =
  let r = Fuzz.run ~seed:7 ~iters:8 () in
  check "clean" true (Fuzz.clean r);
  Alcotest.(check int) "cases" 8 r.Fuzz.cases;
  (* the counter identities the CI smoke also asserts *)
  Alcotest.(check int) "runs add up" r.Fuzz.runs_total
    (r.Fuzz.runs_ok + r.Fuzz.runs_skipped + r.Fuzz.runs_diverged + r.Fuzz.runs_failed);
  Alcotest.(check int) "total = valid cases x runners"
    ((r.Fuzz.cases - r.Fuzz.invalid) * r.Fuzz.n_runners)
    r.Fuzz.runs_total

(* --- fault injection: the campaign must catch a seeded dedup bug --------- *)

let test_fault_injection_caught_and_shrunk () =
  let runner =
    Differ.toggle_runner
      {
        Differ.persistent_indexes = true;
        dsd = Interpreter.Dsd_dynamic;
        pbme = false;
        fast_dedup = true;
        kernels = true;
      }
  in
  let plan =
    Rs_chaos.Fault.plan ~seed:42
      [ Rs_chaos.Fault.spec ~p:0.25 Rs_chaos.Fault.Dedup_drop ]
  in
  Rs_chaos.Inject.with_plan plan (fun () ->
      let r = Fuzz.run ~runners:[ runner ] ~seed:42 ~iters:15 () in
      check "fault caught" true (r.Fuzz.runs_diverged > 0);
      let shrunk =
        List.filter_map (fun d -> d.Fuzz.div_shrunk) r.Fuzz.divergences
      in
      check "at least one reproducer shrunk" true (shrunk <> []);
      List.iter
        (fun c ->
          let rules, tuples = Gen.size c in
          check "reproducer has <= 3 rules" true (rules <= 3);
          check "reproducer has <= 10 tuples" true (tuples <= 10))
        shrunk;
      (* a divergence ships its explanation: every record carries the
         reference rule chain for what the engine got wrong, and the
         dumped reproducer states it as "% why:" header comments *)
      List.iter
        (fun (d : Fuzz.divergence) ->
          check "divergence carries a why-chain" true (d.Fuzz.div_why <> []))
        r.Fuzz.divergences;
      check "some why-chain names an offending rule" true
        (List.exists
           (fun (d : Fuzz.divergence) ->
             List.exists (fun w -> contains w "<= rule") d.Fuzz.div_why)
           r.Fuzz.divergences);
      let dir = Filename.concat (Filename.get_temp_dir_name ()) "rs_fuzz_why_test" in
      let paths = Fuzz.dump_divergences ~dir r in
      check "reproducers dumped" true (paths <> []);
      List.iter
        (fun p ->
          let ic = open_in p in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check "reproducer explains itself" true (contains s "% why:"))
        paths)

(* --- delta-sequence mode -------------------------------------------------- *)

(* Replay the frozen corpus: every delta applied through the IVM must land
   on the same IDB state as a from-scratch naive recompute on a set-level
   mirror of the EDB, and a twin seeded from an interpreter fixpoint must
   hold the same rows and tagged rows. *)
let test_delta_corpus () =
  List.iter
    (fun (tag, src, edb, deltas) ->
      let program = Parser.parse src in
      let mirror = Hashtbl.create 4 in
      List.iter
        (fun (rel, rows) ->
          let tbl = Hashtbl.create 16 in
          List.iter (fun row -> Hashtbl.replace tbl row ()) rows;
          Hashtbl.add mirror rel tbl)
        edb;
      let mirror_rows () =
        List.map
          (fun (rel, _) ->
            let tbl = Hashtbl.find mirror rel in
            (rel, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])))
          edb
      in
      let prov () = Recstep.Provenance.create () in
      let ivm = Recstep.Ivm.create ~prov:(prov ()) ~edb:(mirror_rows ()) program in
      (* the seeded twin must match the bootstrapped view at every version *)
      let seeded = Delta_fuzz.seeded_view ~prov:(prov ()) ~edb:(mirror_rows ()) program in
      let check_twin v =
        match Delta_fuzz.check_seeded ~cseed:0 ~version:v ~reference:ivm seeded with
        | [] -> ()
        | d :: _ ->
            Alcotest.fail
              (Printf.sprintf "%S: %s diverges at version %d" tag d.Delta_fuzz.div_pred v)
      in
      check_twin 0;
      List.iteri
        (fun v ops ->
          let d =
            List.fold_left
              (fun acc (ins, rel, row) ->
                let mk = if ins then Delta.of_inserts else Delta.of_retracts in
                (if ins then Hashtbl.replace (Hashtbl.find mirror rel) row ()
                 else Hashtbl.remove (Hashtbl.find mirror rel) row);
                Delta.merge acc (mk rel [ Array.of_list row ]))
              Delta.empty ops
          in
          ignore (Recstep.Ivm.apply ivm d);
          ignore (Recstep.Ivm.apply seeded d);
          check_twin (v + 1);
          let idbs, rows_of = Naive.run ~edb:(mirror_rows ()) program in
          List.iter
            (fun pred ->
              let expect = List.sort_uniq compare (rows_of pred) in
              let got = List.sort_uniq compare (Recstep.Ivm.rows ivm pred) in
              if expect <> got then
                Alcotest.fail
                  (Printf.sprintf "%S: %s diverges at version %d" tag pred (v + 1)))
            idbs)
        deltas)
    Refs.delta_corpus

(* A fixed-seed delta-sequence campaign — the same seed the CI smoke pins. *)
let test_delta_campaign_clean () =
  let r = Delta_fuzz.run ~seed:11 ~iters:10 ~deltas:6 () in
  check "clean" true (Delta_fuzz.clean r);
  Alcotest.(check int) "cases" 10 r.Delta_fuzz.cases;
  check "versions actually streamed" true
    (r.Delta_fuzz.versions >= 6 * (r.Delta_fuzz.cases - r.Delta_fuzz.invalid));
  check "ops actually streamed" true (r.Delta_fuzz.ops > r.Delta_fuzz.versions);
  (* determinism: same seed, same campaign *)
  let r2 = Delta_fuzz.run ~seed:11 ~iters:10 ~deltas:6 () in
  check "deterministic per seed" true (r = r2)

(* --- semi-naive: an empty delta skips the plans it drives ----------------- *)

let test_empty_delta_skips_plans () =
  (* p and q are mutually recursive, but c is empty so q never derives a
     tuple: Δq is empty in every round and the Δq-driven variant of the
     third rule must never be issued. Query count: iteration 0 evaluates
     only the delta-free rule (p :- e, 1 query; rules with recursive
     occurrences read empty IDBs there); round 1 evaluates q's live
     Δp-driven plan (1 query, derives nothing) and SKIPS p's Δq-driven
     plan. Without the empty-delta skip the count would be 3. Kernels are
     pinned off: the compiled path honors the same skip but evaluates live
     delta plans without issuing queries, which would hide what this test
     is counting (the kernel-side skip is covered in test_kernel.ml). *)
  let src =
    ".input e\n.input c\n\
     p(x, y) :- e(x, y).\n\
     q(x, y) :- p(x, y), c(x, x).\n\
     p(x, y) :- q(x, z), e(z, y).\n\
     .output p\n.output q"
  in
  let program = Parser.parse src in
  let edb =
    [
      ("e", Relation.of_rows ~name:"e" 2 [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 4 |] ]);
      ("c", Relation.of_rows ~name:"c" 2 []);
    ]
  in
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let result =
    Interpreter.run ~options:(Interpreter.options ~compiled_kernels:false ()) ~pool ~edb program
  in
  check "p = e" true
    (List.map Array.to_list (Relation.sorted_distinct_rows (result.Interpreter.relation_of "p"))
    = [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]);
  check "q empty" true (Relation.nrows (result.Interpreter.relation_of "q") = 0);
  Alcotest.(check int) "dead delta plans are never evaluated" 2 result.Interpreter.queries

let suite =
  [
    Alcotest.test_case "oracle: transitive closure" `Quick test_oracle_tc;
    Alcotest.test_case "oracle: negation" `Quick test_oracle_negation;
    Alcotest.test_case "oracle: rejects aggregates" `Quick test_oracle_rejects_aggregates;
    Alcotest.test_case "generator determinism" `Quick test_gen_deterministic;
    Alcotest.test_case "corpus: all runners agree with the oracle" `Quick test_corpus_all_runners;
    Alcotest.test_case "fixed-seed campaign is clean" `Quick test_campaign_clean;
    Alcotest.test_case "injected dedup fault caught and shrunk" `Quick
      test_fault_injection_caught_and_shrunk;
    Alcotest.test_case "frozen delta corpus replays clean" `Quick test_delta_corpus;
    Alcotest.test_case "fixed-seed delta campaign is clean" `Quick test_delta_campaign_clean;
    Alcotest.test_case "empty delta skips its plans" `Quick test_empty_delta_skips_plans;
  ]
