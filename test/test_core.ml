module Ast = Recstep.Ast
module Lexer = Recstep.Lexer
module Parser = Recstep.Parser
module Analyzer = Recstep.Analyzer
module Planner = Recstep.Planner
module Pattern = Recstep.Pattern
module Interpreter = Recstep.Interpreter
module Frontend = Recstep.Frontend
module Programs = Recstep.Programs

let check = Alcotest.(check bool)

(* --- lexer --- *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "tc(x, 12) :- arc(x, _), x != 3. % c\n.output tc") in
  Alcotest.(check int) "token count" 21 (List.length toks);
  check "implies" true (List.mem Lexer.IMPLIES toks);
  check "directive" true (List.mem (Lexer.DIRECTIVE "output") toks);
  check "wildcard" true (List.mem Lexer.UNDERSCORE toks);
  check "ne" true (List.mem Lexer.NE toks)

let test_lexer_comments_lines () =
  let toks = Lexer.tokenize "// x\n# y\n% z\nfoo(a)." in
  (match toks with
  | (Lexer.IDENT "foo", line) :: _ -> Alcotest.(check int) "line number" 4 line
  | _ -> Alcotest.fail "expected ident");
  Alcotest.check_raises "bad char" (Lexer.Error { line = 1; message = "unexpected character '@'" })
    (fun () -> ignore (Lexer.tokenize "@"))

(* --- parser --- *)

let test_parser_all_programs () =
  List.iter
    (fun (name, src) ->
      let p = Parser.parse src in
      check (name ^ " has rules") true (List.length p.Ast.rules > 0);
      check (name ^ " has outputs") true (p.Ast.outputs <> []))
    Programs.all

let test_parser_roundtrip () =
  List.iter
    (fun (_, src) ->
      let p = Parser.parse src in
      let printed = Ast.program_to_string p in
      let p2 = Parser.parse printed in
      check "rules stable under print+parse" true (p.Ast.rules = p2.Ast.rules))
    Programs.all

let test_parser_features () =
  let r = Parser.parse_rule "h(x, MIN(d1 + d2 * 2)) :- e(x, d1, d2), d1 < d2, !bad(x)." in
  Alcotest.(check int) "body size" 3 (List.length r.Ast.body);
  check "agg head" true (Ast.is_aggregate_rule r);
  let fact = Parser.parse_rule "p(1, -2)." in
  check "fact" true (fact.Ast.body = []);
  Alcotest.check_raises "unclosed" (Parser.Error { line = 1; message = "expected ',' or ')', found ." })
    (fun () -> ignore (Parser.parse "p(x."))

(* --- analyzer --- *)

let test_analyzer_tc () =
  let an = Analyzer.analyze (Parser.parse Programs.tc) in
  Alcotest.(check (list string)) "edbs" [ "arc" ] an.Analyzer.edbs;
  Alcotest.(check (list string)) "idbs" [ "tc" ] an.Analyzer.idbs;
  Alcotest.(check int) "one stratum" 1 (List.length an.Analyzer.strata);
  check "recursive" true (List.hd an.Analyzer.strata).Analyzer.recursive;
  Alcotest.(check int) "arity" 2 (Analyzer.arity an "tc")

let test_analyzer_cspa_mutual () =
  let an = Analyzer.analyze (Parser.parse Programs.cspa) in
  let big = List.find (fun s -> List.length s.Analyzer.preds > 1) an.Analyzer.strata in
  Alcotest.(check (list string)) "mutual SCC"
    [ "memoryAlias"; "valueAlias"; "valueFlow" ]
    (List.sort compare big.Analyzer.preds)

let test_analyzer_ntc_strata_order () =
  let an = Analyzer.analyze (Parser.parse Programs.ntc) in
  let idx p = Analyzer.stratum_of an p in
  check "tc before ntc" true (idx "tc" < idx "ntc");
  check "node before ntc" true (idx "node" < idx "ntc")

let expect_analysis_error src =
  match Analyzer.analyze (Parser.parse src) with
  | exception Analyzer.Analysis_error _ -> ()
  | _ -> Alcotest.fail ("expected Analysis_error for: " ^ src)

let test_analyzer_rejections () =
  expect_analysis_error "p(x, y) :- q(x).  p(x) :- q(x)." (* arity mismatch *);
  expect_analysis_error "p(x, y) :- q(x)." (* unsafe head var *);
  expect_analysis_error "p(x) :- q(x), !r(y)." (* unsafe negated var *);
  expect_analysis_error "p(x) :- q(x), x < y." (* unsafe comparison var *);
  expect_analysis_error "p(x) :- q(x), !p(x)." (* negation in own stratum *);
  expect_analysis_error "p(x) :- !q(x), r(x).  q(x) :- !p(x), r(x)." (* neg cycle *);
  expect_analysis_error "p(x, SUM(y)) :- p(x, y), e(x, y)." (* SUM in recursion *);
  expect_analysis_error "p(x, COUNT(y)) :- e(x, y).  p(x, y) :- e(x, y)." (* mixed agg/plain *);
  expect_analysis_error ".input p 2\np(x, x) :- q(x)." (* input with idb name *);
  expect_analysis_error "p(_) :- q(x)." (* wildcard in head *)

let test_analyzer_agg_sig () =
  let an = Analyzer.analyze (Parser.parse Programs.cc) in
  (match Analyzer.agg_sig an "cc3" with
  | Some s ->
      Alcotest.(check (list int)) "group" [ 0 ] s.Analyzer.group_positions;
      check "agg at 1" true (s.Analyzer.agg_positions = [ (1, Ast.Min) ])
  | None -> Alcotest.fail "cc3 must be aggregate");
  check "cc not aggregate" true (Analyzer.agg_sig an "cc" = None)

(* --- planner --- *)

let test_planner_delta_variants () =
  let program = Parser.parse Programs.andersen in
  let an = Analyzer.analyze program in
  let stratum = List.find (fun s -> s.Analyzer.recursive) an.Analyzer.strata in
  let rules = List.filter (fun r -> r.Ast.head_pred = "pointsTo") stratum.Analyzer.rules in
  let deltas r =
    match Planner.compile_rule an stratum r with
    | Planner.Query { deltas; _ } -> List.length deltas
    | Planner.Fact _ -> -1
  in
  (* addressOf rule: 0 recursive atoms; assign rule: 1; load/store rules: 2 *)
  Alcotest.(check (list int)) "delta plan counts" [ 0; 1; 2; 2 ] (List.map deltas rules)

(* How each delta plan of [head]'s recursive rules reads its atoms, in body
   order: a Δ-table by name, a full table by name, the rows before a
   table's Δ-suffix as "old:<table>". One list per rule, one per plan. *)
let delta_reads src head =
  let module Plan = Rs_exec.Plan in
  let rec reads = function
    | Plan.Scan n -> [ n ]
    | Plan.Old { table; _ } -> [ "old:" ^ table ]
    | Plan.Rel _ -> []
    | Plan.Filter (_, p) | Plan.Project (_, p) -> reads p
    | Plan.Join { l; r; _ } -> reads l @ reads r
    | Plan.AntiJoin { al; ar; _ } -> reads al @ reads ar
    | Plan.UnionAll ps -> List.concat_map reads ps
    | Plan.Aggregate { src; _ } -> reads src
  in
  let an = Analyzer.analyze (Parser.parse src) in
  let stratum = List.find (fun s -> List.mem head s.Analyzer.preds) an.Analyzer.strata in
  List.filter_map
    (fun r ->
      if r.Ast.head_pred <> head then None
      else
        match Planner.compile_rule an stratum r with
        | Planner.Query { deltas = []; _ } | Planner.Fact _ -> None
        | Planner.Query { deltas; _ } -> Some (List.map (fun (_, p) -> reads p) deltas))
    stratum.Analyzer.rules

let test_planner_exact_deltas () =
  let check_reads what want src head =
    Alcotest.(check (list (list (list string)))) what want (delta_reads src head)
  in
  (* Δ at occurrence i: earlier recursive occurrences read the old rows,
     later ones the full table; EDB atoms are never touched *)
  check_reads "three recursive atoms"
    [
      [
        [ "p@delta"; "p"; "p" ];
        [ "old:p"; "p@delta"; "p" ];
        [ "old:p"; "old:p"; "p@delta" ];
      ];
    ]
    ".input e
p(x, y) :- e(x, y).
p(x, w) :- p(x, y), p(y, z), p(z, w).
.output p" "p";
  check_reads "Andersen: EDB atom first"
    [
      [ [ "assign"; "pointsTo@delta" ] ];
      [ [ "load"; "pointsTo@delta"; "pointsTo" ]; [ "load"; "old:pointsTo"; "pointsTo@delta" ] ];
      [ [ "store"; "pointsTo@delta"; "pointsTo" ]; [ "store"; "old:pointsTo"; "pointsTo@delta" ] ];
    ]
    Programs.andersen "pointsTo";
  (* mutual recursion: the old rows of the other IDB, filtered by its
     constant *)
  check_reads "mutual recursion, constant on the earlier atom"
    [ [ [ "q@delta"; "p" ]; [ "old:q"; "p@delta" ] ] ]
    ".input e
p(x, y) :- e(x, y).
q(x, y) :- p(x, y).
     p(x, z) :- q(x, 3), p(x, z).
.output p"
    "p";
  (* an aggregated IDB is rebuilt every round: its Δ is no suffix, so both
     plans read the whole table *)
  check_reads "aggregated IDB keeps full scans"
    [ [ [ "m@delta"; "m" ]; [ "m"; "m@delta" ] ] ]
    ".input e
m(x, MIN(y)) :- e(x, y).
m(x, MIN(y)) :- m(x, z), m(z, y).
.output m" "m";
  (* a rule with one recursive atom plans exactly as before: its delta plan
     is its base plan with that atom's scan moved to the Δ-table *)
  List.iter
    (fun (name, src) ->
      let an = Analyzer.analyze (Parser.parse src) in
      List.iter
        (fun (stratum : Analyzer.stratum) ->
          List.iter
            (fun r ->
              match Planner.compile_rule an stratum r with
              | Planner.Query { base; deltas = [ (dpred, plan) ] } ->
                  let to_delta line =
                    if String.trim line = "Scan " ^ dpred then line ^ "@delta" else line
                  in
                  let want =
                    String.concat "\n"
                      (List.map to_delta (String.split_on_char '\n' (Rs_exec.Plan.to_string base)))
                  in
                  Alcotest.(check string) (name ^ ": delta plan = base plan") want
                    (Rs_exec.Plan.to_string plan)
              | Planner.Query { deltas = []; _ } | Planner.Fact _ -> ()
              | Planner.Query _ -> Alcotest.failf "%s: a rule with two recursive atoms" name)
            stratum.Analyzer.rules)
        an.Analyzer.strata)
    [
      ("tc", Programs.tc);
      ("csda", Programs.csda);
      ("reach", Programs.reach);
      ("sg", Programs.sg);
      ("cc", Programs.cc);
      ("sssp", Programs.sssp);
    ]

let test_planner_fact () =
  let program = Parser.parse "p(1, 2).\np(x, y) :- p(x, y)." in
  let an = Analyzer.analyze program in
  let stratum = List.hd an.Analyzer.strata in
  match Planner.compile_rule an stratum (List.hd stratum.Analyzer.rules) with
  | Planner.Fact t -> Alcotest.(check (array int)) "fact tuple" [| 1; 2 |] t
  | Planner.Query _ -> Alcotest.fail "expected fact"

(* --- pattern --- *)

let stratum_of_program src =
  let an = Analyzer.analyze (Parser.parse src) in
  (an, List.find (fun s -> s.Analyzer.recursive) an.Analyzer.strata)

let test_pattern_tc () =
  let an, s = stratum_of_program Programs.tc in
  (match Pattern.match_stratum an s with
  | Some (Pattern.Tc { idb; edb }) ->
      Alcotest.(check string) "idb" "tc" idb;
      Alcotest.(check string) "edb" "arc" edb
  | _ -> Alcotest.fail "TC shape not matched");
  (* left-linear variant and renamed variables *)
  let an2, s2 =
    stratum_of_program ".input e\nclosure(a, b) :- e(a, b).\nclosure(a, b) :- e(a, m), closure(m, b)."
  in
  check "left-linear matched" true (Pattern.match_stratum an2 s2 <> None)

let test_pattern_sg () =
  let an, s = stratum_of_program Programs.sg in
  (match Pattern.match_stratum an s with
  | Some (Pattern.Sg { idb; edb }) ->
      Alcotest.(check string) "idb" "sg" idb;
      Alcotest.(check string) "edb" "arc" edb
  | _ -> Alcotest.fail "SG shape not matched")

let test_pattern_rejects () =
  let an, s = stratum_of_program Programs.reach in
  check "reach not TC-shaped" true (Pattern.match_stratum an s = None);
  let an2, s2 =
    stratum_of_program ".input e\nt(x, y) :- e(x, y).\nt(x, y) :- t(x, z), t(z, y)."
  in
  check "nonlinear TC not matched" true (Pattern.match_stratum an2 s2 = None)

(* --- frontend fact loading: typed errors with positions --- *)

let test_frontend_parse_error () =
  let write lines =
    let path = Filename.temp_file "facts" ".tsv" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let load ~arity path = ignore (Frontend.load_tsv ~name:"arc" ~arity path) in
  let bad = write [ "1\t2"; "1\tfoo" ] in
  (match load ~arity:2 bad with
  | () -> Alcotest.fail "expected Parse_error"
  | exception Frontend.Parse_error { path; line; msg } ->
      check "path is reported" true (path = bad);
      Alcotest.(check int) "line is reported" 2 line;
      check "message names the field" true (msg = "not an integer: \"foo\""));
  Sys.remove bad;
  let short = write [ "1\t2\t3"; "4\t5" ] in
  (match load ~arity:3 short with
  | () -> Alcotest.fail "expected Parse_error"
  | exception Frontend.Parse_error { line = 2; msg; _ } ->
      check "arity mismatch named" true (msg = "expected 3 fields, got 2"));
  Sys.remove short

(* --- interpreter: correctness against references --- *)

let run_program ?options src edb = fst (Frontend.run_text ?options ~edb src)

let no_pbme = { Interpreter.default_options with pbme = false }

let gen_graph = Refs.arbitrary_edges ~max_nodes:10 ~max_edges:25 ()

let prop_tc_matches_reference =
  QCheck2.Test.make ~name:"TC = reference closure (both paths)" ~count:60 gen_graph
    (fun edges ->
      let expected =
        Refs.IntPairSet.elements (Refs.transitive_closure edges) |> List.sort compare
      in
      let got options =
        let r = run_program ~options Programs.tc [ ("arc", Refs.relation_of_edges edges) ] in
        Refs.sorted_pairs (Frontend.result_rows r "tc")
      in
      got Interpreter.default_options = expected && got no_pbme = expected)

let prop_sg_matches_reference =
  QCheck2.Test.make ~name:"SG = reference (both paths)" ~count:40 gen_graph (fun edges ->
      let expected = Refs.IntPairSet.elements (Refs.same_generation edges) |> List.sort compare in
      let got options =
        let r = run_program ~options Programs.sg [ ("arc", Refs.relation_of_edges edges) ] in
        Refs.sorted_pairs (Frontend.result_rows r "sg")
      in
      got Interpreter.default_options = expected && got no_pbme = expected)

let prop_reach_matches_bfs =
  QCheck2.Test.make ~name:"REACH = BFS" ~count:60
    QCheck2.Gen.(pair gen_graph (int_range 0 9))
    (fun (edges, src) ->
      let expected = Refs.IntSet.elements (Refs.reachable edges [ src ]) |> List.sort compare in
      let id = Frontend.relation_of_list ~name:"id" 1 [ [| src |] ] in
      let r = run_program Programs.reach [ ("arc", Refs.relation_of_edges edges); ("id", id) ] in
      List.sort compare (List.map (fun a -> a.(0)) (Frontend.result_rows r "reach")) = expected)

let prop_cc_matches_reference =
  QCheck2.Test.make ~name:"CC = min-label propagation" ~count:60 gen_graph (fun edges ->
      QCheck2.assume (edges <> []);
      let expected = Refs.cc_min_label edges in
      let r = run_program Programs.cc [ ("arc", Refs.relation_of_edges edges) ] in
      Refs.sorted_pairs (Frontend.result_rows r "cc3") = expected)

let prop_sssp_matches_dijkstra =
  QCheck2.Test.make ~name:"SSSP = Bellman-Ford reference" ~count:60
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 20) (tup3 (int_range 0 8) (int_range 0 8) (int_range 1 9)))
        (int_range 0 8))
    (fun (wedges, src) ->
      let arc = Rs_relation.Relation.create ~name:"arc" 3 in
      List.iter (fun (x, y, d) -> Rs_relation.Relation.push3 arc x y d) wedges;
      let id = Frontend.relation_of_list ~name:"id" 1 [ [| src |] ] in
      let r = run_program Programs.sssp [ ("arc", arc); ("id", id) ] in
      let got = List.sort compare (List.map (fun a -> (a.(0), a.(1))) (Frontend.result_rows r "sssp")) in
      got = Refs.dijkstra wedges src)

let prop_ntc_is_complement =
  QCheck2.Test.make ~name:"NTC = nodes^2 - TC" ~count:40 gen_graph (fun edges ->
      QCheck2.assume (edges <> []);
      let nodes =
        List.concat_map (fun (x, y) -> [ x; y ]) edges |> List.sort_uniq compare
      in
      let tc = Refs.transitive_closure edges in
      let expected =
        List.concat_map (fun x -> List.map (fun y -> (x, y)) nodes) nodes
        |> List.filter (fun p -> not (Refs.IntPairSet.mem p tc))
        |> List.sort compare
      in
      let r = run_program Programs.ntc [ ("arc", Refs.relation_of_edges edges) ] in
      Refs.sorted_pairs (Frontend.result_rows r "ntc") = expected)

let prop_gtc_counts =
  QCheck2.Test.make ~name:"gtc counts reachable vertices" ~count:40 gen_graph (fun edges ->
      QCheck2.assume (edges <> []);
      let tc = Refs.transitive_closure edges in
      let expected =
        Refs.IntPairSet.fold
          (fun (x, _) acc ->
            let n = Refs.IntPairSet.cardinal (Refs.IntPairSet.filter (fun (a, _) -> a = x) tc) in
            (x, n) :: List.remove_assoc x acc)
          tc []
        |> List.sort compare
      in
      let r = run_program Programs.gtc [ ("arc", Refs.relation_of_edges edges) ] in
      Refs.sorted_pairs (Frontend.result_rows r "gtc") = expected)

(* every single-optimization-off configuration computes the same answer *)
let prop_options_preserve_semantics =
  QCheck2.Test.make ~name:"ablation configs agree (CSPA)" ~count:15 gen_graph (fun edges ->
      QCheck2.assume (edges <> []);
      let deref = List.filteri (fun i _ -> i mod 3 = 0) edges in
      let run options =
        let r =
          run_program ~options Programs.cspa
            [
              ("assign", Refs.relation_of_edges edges);
              ("dereference", Refs.relation_of_edges ~name:"dereference" deref);
            ]
        in
        ( Refs.sorted_pairs (Frontend.result_rows r "valueFlow"),
          Refs.sorted_pairs (Frontend.result_rows r "memoryAlias") )
      in
      let base = run Interpreter.default_options in
      List.for_all
        (fun options -> run options = base)
        [
          { Interpreter.default_options with uie = false };
          { Interpreter.default_options with oof = Interpreter.Oof_off };
          { Interpreter.default_options with oof = Interpreter.Oof_full };
          { Interpreter.default_options with dsd = Interpreter.Dsd_force_opsd };
          { Interpreter.default_options with dsd = Interpreter.Dsd_force_tpsd };
          { Interpreter.default_options with eost = false };
          { Interpreter.default_options with fast_dedup = false };
          { Interpreter.default_options with hoard_memory = true };
        ])

let test_interpreter_timeout () =
  let arc = Rs_datagen.Graphs.gnp ~seed:1 ~n:300 ~p:0.05 in
  let options = { no_pbme with timeout_vs = Some 1e-6 } in
  match Frontend.run_text ~options ~edb:[ ("arc", arc) ] Programs.tc with
  | exception Interpreter.Timeout_simulated _ -> ()
  | _ -> Alcotest.fail "expected simulated timeout"

let test_interpreter_oom () =
  let arc = Rs_datagen.Graphs.gnp ~seed:1 ~n:300 ~p:0.05 in
  Rs_storage.Memtrack.hard_reset ();
  Rs_storage.Memtrack.set_budget (Some 50_000);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Rs_storage.Memtrack.set_budget None;
        Rs_storage.Memtrack.hard_reset ())
      (fun () ->
        match Frontend.run_text ~options:no_pbme ~edb:[ ("arc", arc) ] Programs.tc with
        | exception Rs_storage.Memtrack.Simulated_oom _ -> true
        | _ -> false)
  in
  check "expected OOM" true result

let test_interpreter_missing_input () =
  match Frontend.run_text ~edb:[] Programs.tc with
  | exception Analyzer.Analysis_error _ -> ()
  | _ -> Alcotest.fail "expected missing-input error"

let test_interpreter_facts_and_negation () =
  let r =
    run_program
      ".input e\nstart(3).\nreach(x) :- start(x).\nreach(y) :- reach(x), e(x, y).\nmiss(x) :- node(x), !reach(x).\nnode(x) :- e(x, _).\nnode(y) :- e(_, y).\n.output miss"
      [ ("e", Frontend.edges ~name:"e" [ (1, 2); (3, 4) ]) ]
  in
  Alcotest.(check (list int)) "negated complement" [ 1; 2 ]
    (List.sort compare (List.map (fun a -> a.(0)) (Frontend.result_rows r "miss")))

let test_interpreter_stats () =
  let r, _ = Frontend.run_text ~edb:[ ("arc", Frontend.edges [ (0, 1); (1, 2) ]) ] Programs.tc in
  check "pbme used" true (r.Interpreter.pbme_strata = 1);
  check "iterations counted" true (r.Interpreter.iterations >= 1);
  let r2 =
    run_program ~options:no_pbme Programs.tc [ ("arc", Frontend.edges [ (0, 1); (1, 2) ]) ]
  in
  check "queries issued" true (r2.Interpreter.queries > 0);
  check "dsd recorded" true (r2.Interpreter.dsd_choices <> [])

let test_eost_io_accounting () =
  (* needs enough iterations that per-query write-back visibly re-writes
     table pages the single EOST commit writes once *)
  let arc () = Rs_datagen.Graphs.gnp ~seed:4 ~n:60 ~p:0.1 in
  let io eost =
    let options = { no_pbme with eost } in
    let r = run_program ~options Programs.tc [ ("arc", arc ()) ] in
    r.Interpreter.io_bytes
  in
  check "per-query writes more than EOST" true (io false > io true)

(* --- lexer/parser edge cases --------------------------------------------- *)

let test_lexer_comment_at_eof () =
  (* a line comment terminated by end-of-input, not a newline *)
  List.iter
    (fun src ->
      let p = Parser.parse src in
      Alcotest.(check int) "one rule" 1 (List.length p.Ast.rules))
    [ "p(1). % trailing"; "p(1). // trailing"; "p(1). # trailing"; "p(1). %" ]

let test_parser_negative_constants () =
  let r = Parser.parse_rule "p(-3, x) :- e(x, -1), x > -2." in
  (match r.Ast.head_args with
  | [ Ast.H_term (Ast.Const -3); _ ] -> ()
  | _ -> Alcotest.fail "head constant should parse as -3");
  check "negative in body atom" true
    (List.exists
       (function Ast.L_pos a -> List.mem (Ast.Const (-1)) a.Ast.args | _ -> false)
       r.Ast.body);
  check "negative in comparison" true
    (List.exists
       (function Ast.L_cmp (Ast.Gt, _, Ast.T (Ast.Const -2)) -> true | _ -> false)
       r.Ast.body);
  (* negative values survive a full evaluation round-trip *)
  let edb = [ ("e", Rs_relation.Relation.of_rows ~name:"e" 2 [ [| -5; 2 |]; [| 1; 3 |] ]) ] in
  let result, _ = Frontend.run_text ~edb ".input e\nq(x, y) :- e(x, y), x < 0.\n.output q" in
  check "negative tuple kept" true
    (List.map Array.to_list
       (Rs_relation.Relation.sorted_distinct_rows (result.Interpreter.relation_of "q"))
    = [ [ -5; 2 ] ])

let test_parser_duplicate_rules () =
  (* duplicate identical rules are legal and idempotent *)
  let src = ".input e\np(x, y) :- e(x, y).\np(x, y) :- e(x, y).\n.output p" in
  let p = Parser.parse src in
  Alcotest.(check int) "both rules kept" 2 (List.length p.Ast.rules);
  check "rules identical" true (List.nth p.Ast.rules 0 = List.nth p.Ast.rules 1);
  let edb = [ ("e", Rs_relation.Relation.of_rows ~name:"e" 2 [ [| 1; 2 |] ]) ] in
  let result, _ = Frontend.run_text ~edb src in
  Alcotest.(check int) "no duplicate output tuples" 1
    (Rs_relation.Relation.nrows (result.Interpreter.relation_of "p"))

let test_parser_crlf_line_numbers () =
  (* CRLF input must lex cleanly and report errors with the right line *)
  let ok = Parser.parse ".input e\r\np(x, y) :- e(x, y).\r\n.output p\r\n" in
  Alcotest.(check int) "crlf parses" 1 (List.length ok.Ast.rules);
  check "crlf error line" true
    (match Parser.parse "p(1).\r\nq(x" with
    | exception Parser.Error { line = 2; _ } -> true
    | exception Lexer.Error { line = 2; _ } -> true
    | _ -> false);
  check "crlf lexer error line" true
    (match Lexer.tokenize "% c\r\n\r\n@" with
    | exception Lexer.Error { line = 3; _ } -> true
    | _ -> false)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_tc_matches_reference;
      prop_sg_matches_reference;
      prop_reach_matches_bfs;
      prop_cc_matches_reference;
      prop_sssp_matches_dijkstra;
      prop_ntc_is_complement;
      prop_gtc_counts;
      prop_options_preserve_semantics;
    ]

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer comments/lines" `Quick test_lexer_comments_lines;
    Alcotest.test_case "parser accepts all programs" `Quick test_parser_all_programs;
    Alcotest.test_case "parser print round-trip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser features" `Quick test_parser_features;
    Alcotest.test_case "analyzer TC" `Quick test_analyzer_tc;
    Alcotest.test_case "analyzer CSPA mutual recursion" `Quick test_analyzer_cspa_mutual;
    Alcotest.test_case "analyzer NTC strata order" `Quick test_analyzer_ntc_strata_order;
    Alcotest.test_case "analyzer rejections" `Quick test_analyzer_rejections;
    Alcotest.test_case "analyzer aggregate signatures" `Quick test_analyzer_agg_sig;
    Alcotest.test_case "planner delta variants" `Quick test_planner_delta_variants;
    Alcotest.test_case "planner facts" `Quick test_planner_fact;
    Alcotest.test_case "planner exact delta variants" `Quick test_planner_exact_deltas;
    Alcotest.test_case "frontend parse errors are typed" `Quick test_frontend_parse_error;
    Alcotest.test_case "pattern TC" `Quick test_pattern_tc;
    Alcotest.test_case "pattern SG" `Quick test_pattern_sg;
    Alcotest.test_case "pattern rejections" `Quick test_pattern_rejects;
    Alcotest.test_case "interpreter timeout" `Quick test_interpreter_timeout;
    Alcotest.test_case "interpreter OOM" `Quick test_interpreter_oom;
    Alcotest.test_case "interpreter missing input" `Quick test_interpreter_missing_input;
    Alcotest.test_case "facts + negation" `Quick test_interpreter_facts_and_negation;
    Alcotest.test_case "interpreter stats" `Quick test_interpreter_stats;
    Alcotest.test_case "EOST io accounting" `Quick test_eost_io_accounting;
    Alcotest.test_case "lexer comment at EOF" `Quick test_lexer_comment_at_eof;
    Alcotest.test_case "parser negative constants" `Quick test_parser_negative_constants;
    Alcotest.test_case "parser duplicate rules" `Quick test_parser_duplicate_rules;
    Alcotest.test_case "parser CRLF line numbers" `Quick test_parser_crlf_line_numbers;
  ]
  @ qsuite
