module Ast = Recstep.Ast
module Parser = Recstep.Parser
module Analyzer = Recstep.Analyzer
module Interpreter = Recstep.Interpreter
module Frontend = Recstep.Frontend
module Programs = Recstep.Programs
module Provenance = Recstep.Provenance
module Explain = Recstep.Explain
module Relation = Rs_relation.Relation

let check = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Run program text with provenance recording on, return the pieces explain
   needs: the analysis, a rows lookup over the final database, and the tag
   store. *)
let run_with_prov ?options src edges =
  let prov = Provenance.create () in
  let options =
    match options with
    | Some o -> { o with Interpreter.provenance = Some prov }
    | None -> Interpreter.options ~provenance:prov ()
  in
  let result, _ = Frontend.run_text ~options ~edb:[ ("arc", Frontend.edges edges) ] src in
  let an = Analyzer.analyze (Parser.parse src) in
  let rows p =
    Relation.sorted_distinct_rows (result.Interpreter.relation_of p) |> List.map Array.to_list
  in
  (an, rows, prov, result)

let chain = [ (1, 2); (2, 3); (3, 4) ]

let explained = function Explain.Explained n -> n | _ -> Alcotest.fail "expected Explained"

(* --- basic chains --- *)

let test_tc_chain () =
  let an, rows, prov, _ = run_with_prov Programs.tc chain in
  let n = explained (Explain.explain ~prov ~an ~rows "tc" [ 1; 4 ]) in
  check "uses both rules" true (Explain.rules_used n = [ 1; 2 ]);
  check "depth covers the chain" true (Explain.depth n >= 3);
  (* every leaf of the rendering is an EDB arc *)
  let r = Explain.render ~tags:prov n in
  check "mentions base rule" true (contains r "rule 1");
  check "mentions recursive rule" true (contains r "rule 2");
  check "reaches edb" true (contains r "[edb]");
  check "tags rendered" true (contains r "@s");
  (* the same chain renders identically without tags available *)
  let n2 = explained (Explain.explain ~an ~rows "tc" [ 1; 4 ]) in
  check "tag-free search agrees" true (Explain.render n = Explain.render n2)

let test_edb_leaf_and_absent () =
  let an, rows, _, _ = run_with_prov Programs.tc chain in
  (match Explain.explain ~an ~rows "arc" [ 1; 2 ] with
  | Explain.Explained (Explain.N_edb { pred = "arc"; row = [ 1; 2 ] }) -> ()
  | _ -> Alcotest.fail "edb fact should explain as a leaf");
  check "absent fact" true (Explain.explain ~an ~rows "tc" [ 4; 1 ] = Explain.Absent);
  check "absent renders" true
    (contains
       (Explain.outcome_to_string ~pred:"tc" ~row:[ 4; 1 ] Explain.Absent)
       "not in the database")

let test_sg_chain () =
  (* sg needs a sibling structure: 0 -> {1, 2}, 1 -> 3, 2 -> 4 *)
  let an, rows, prov, _ = run_with_prov Programs.sg [ (0, 1); (0, 2); (1, 3); (2, 4) ] in
  check "sg(3,4) present" true (List.mem [ 3; 4 ] (rows "sg"));
  let n = explained (Explain.explain ~prov ~an ~rows "sg" [ 3; 4 ]) in
  check "recursive sg rule on chain" true (List.mem 2 (Explain.rules_used n));
  check "comparison rendered somewhere" true
    (contains (Explain.render n) "[1 != 2]")

let test_negation_chain () =
  let an, rows, prov, _ = run_with_prov Programs.ntc [ (1, 2); (2, 3) ] in
  (* ntc: pairs of nodes not connected by tc *)
  let pick = List.hd (rows "ntc") in
  let n = explained (Explain.explain ~prov ~an ~rows "ntc" pick) in
  check "absence leaf rendered" true (contains (Explain.render n) "[absent]")

let test_aggregate_witness () =
  (* cc propagates MIN labels; the min witness must be recursively explained *)
  let an, rows, prov, _ = run_with_prov Programs.cc [ (1, 2); (2, 3); (5, 3) ] in
  let n = explained (Explain.explain ~prov ~an ~rows "cc3" [ 3; 1 ]) in
  (match n with
  | Explain.N_rule { agg = Some label; _ } ->
      check "witness label" true (contains label "MIN witness")
  | _ -> Alcotest.fail "aggregate head should explain through a rule");
  check "witness chain reaches edb" true (contains (Explain.render n) "[edb]")

let test_aggregate_later_witness () =
  (* cc3(1, 0) has two MIN witnesses: x = 1 (through the self-loop) comes
     first and cycles back through the goal itself; x = 2 proves it *)
  let an, rows, prov, _ = run_with_prov Programs.cc [ (0, 2); (2, 1); (1, 1) ] in
  List.iter
    (fun prov ->
      let n = explained (Explain.explain ?prov ~an ~rows "cc3" [ 1; 0 ]) in
      check "chain through the second witness" true (contains (Explain.render n) "arc(2, 1) [edb]"))
    [ Some prov; None ]

(* Every row of every relation a program derives explains, with tags and
   without, and every leaf of its chain is one of the input arcs. The search
   does not memoize failed subgoals, so SG can exhaust the step budget even
   on five nodes: that outcome is a known cost, not a verdict, and passes
   (a 5,000-step budget keeps those cases cheap); [No_proof] and [Absent]
   never do. *)
let rec edb_leaves = function
  | Explain.N_edb { pred; row } -> [ (pred, row) ]
  | Explain.N_rule { premises; _ } ->
      List.concat_map (function Explain.P_fact n -> edb_leaves n | _ -> []) premises

let prop_explain_complete =
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 10 in
    list_size (int_range 0 20) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  let print = QCheck2.Print.(list (pair int int)) in
  QCheck2.Test.make ~name:"every derived row explains to input arcs" ~count:100 ~print gen
    (fun edges ->
      List.for_all
        (fun src ->
          let an, rows, prov, _ = run_with_prov src edges in
          List.for_all
            (fun p ->
              List.for_all
                (fun row ->
                  List.for_all
                    (fun prov ->
                      match Explain.explain ?prov ~max_steps:5_000 ~an ~rows p row with
                      | Explain.Explained n ->
                          List.for_all
                            (fun (q, leaf) ->
                              q = "arc"
                              && match leaf with [ a; b ] -> List.mem (a, b) edges | _ -> false)
                            (edb_leaves n)
                      | Explain.Budget_exceeded _ -> true
                      | Explain.No_proof | Explain.Absent -> false)
                    [ Some prov; None ])
                (rows p))
            an.Analyzer.idbs)
        [ Programs.tc; Programs.sg; Programs.ntc; Programs.cc ])

(* --- provenance store behavior --- *)

let test_full_coverage () =
  let _, rows, prov, _ = run_with_prov Programs.tc chain in
  List.iter
    (fun row ->
      check "every tc row tagged" true (Provenance.find prov ~pred:"tc" row <> None))
    (rows "tc");
  check "recorded counter" true (Provenance.recorded prov = List.length (rows "tc"));
  check "nothing skipped at sample 1" true (Provenance.skipped prov = 0)

let test_outputs_identical_with_provenance () =
  let run opts =
    let result, _ = Frontend.run_text ~options:opts ~edb:[ ("arc", Frontend.edges chain) ] Programs.tc in
    List.map
      (fun (p, r) -> (p, Relation.sorted_distinct_rows r))
      result.Interpreter.outputs
  in
  let off = run (Interpreter.options ()) in
  let on = run (Interpreter.options ~provenance:(Provenance.create ()) ()) in
  check "provenance-on output byte-identical" true (off = on)

let test_sampling_deterministic () =
  let tagged_rows sample =
    let prov = Provenance.create ~sample () in
    let options = Interpreter.options ~provenance:prov () in
    let result, _ = Frontend.run_text ~options ~edb:[ ("arc", Frontend.edges chain) ] Programs.tc in
    List.filter
      (fun row -> Provenance.find prov ~pred:"tc" row <> None)
      (Relation.sorted_distinct_rows (result.Interpreter.relation_of "tc") |> List.map Array.to_list)
  in
  check "same sampled subset across runs" true (tagged_rows 0.5 = tagged_rows 0.5);
  check "sample 0 tags nothing" true (tagged_rows 0.0 = []);
  (* the sampling decision is per-tuple content, not per-run state *)
  let prov = Provenance.create ~sample:0.5 () in
  List.iter
    (fun row ->
      let a = Provenance.sampled prov ~pred:"tc" row in
      let b = Provenance.sampled prov ~pred:"tc" row in
      check "sampled is pure" true (a = b))
    (List.map Array.to_list (Relation.sorted_distinct_rows (Frontend.edges chain)));
  check "bad sample rejected" true
    (try
       ignore (Provenance.create ~sample:1.5 ());
       false
     with Invalid_argument _ -> true)

(* The tag store against a boxed model: record, batch-record, reserve,
   retract and find over a small domain (many collisions, long probe runs,
   log copies after retractions), checking every tag, [tagged] and
   [recorded]. *)
type store_op =
  | Record of string * int list * int
  | Record_batch of string * int list list * int
  | Retract of string * int list
  | Reserve of string * int

let gen_store_ops =
  let open QCheck2.Gen in
  let* arity = int_range 1 3 in
  let row = list_size (return arity) (int_range (-3) 7) in
  let pred = oneofl [ "p"; "q" ] in
  let op =
    frequency
      [
        (4, map3 (fun p r i -> Record (p, r, i)) pred row (int_range 0 5));
        (1, map3 (fun p rs i -> Record_batch (p, rs, i)) pred (list_size (int_range 0 40) row) (int_range 0 5));
        (3, map2 (fun p r -> Retract (p, r)) pred row);
        (1, map2 (fun p n -> Reserve (p, n)) pred (int_range 0 40));
      ]
  in
  let+ ops = list_size (int_range 0 300) op in
  (arity, ops)

let prop_store_matches_model =
  QCheck2.Test.make ~name:"tag store = boxed model" ~count:300 gen_store_ops (fun (arity, ops) ->
      let prov = Provenance.create () in
      let model = Hashtbl.create 64 and seq = ref 0 and recorded = ref 0 in
      let record p row iteration =
        if not (Hashtbl.mem model (p, row)) then begin
          incr seq;
          incr recorded;
          Hashtbl.replace model (p, row)
            { Provenance.t_stratum = 1; t_iteration = iteration; t_seq = !seq }
        end
      in
      let agrees () =
        List.for_all
          (fun p ->
            Provenance.tagged prov ~pred:p
            = Hashtbl.fold (fun (p', _) _ n -> if p' = p then n + 1 else n) model 0)
          [ "p"; "q" ]
        && Provenance.recorded prov = !recorded
        && Hashtbl.fold
             (fun (p, row) tag ok -> ok && Provenance.find prov ~pred:p row = Some tag)
             model true
      in
      List.for_all
        (fun op ->
          (match op with
          | Record (p, row, iteration) ->
              Provenance.record prov ~pred:p ~stratum:1 ~iteration row;
              record p row iteration
          | Record_batch (p, rows, iteration) ->
              Provenance.record_relation prov ~pred:p ~stratum:1 ~iteration
                (Relation.of_rows arity (List.map Array.of_list rows));
              List.iter (fun row -> record p row iteration) rows
          | Retract (p, row) ->
              Provenance.retract prov ~pred:p row;
              Hashtbl.remove model (p, row)
          | Reserve (p, n) -> Provenance.reserve prov ~pred:p ~arity n);
          (match op with
          | Record (p, row, _) | Retract (p, row) ->
              Provenance.find prov ~pred:p row = Hashtbl.find_opt model (p, row)
          | Record_batch _ | Reserve _ -> true)
          && agrees ())
        ops)

(* --- pathological databases --- *)

let test_no_proof_on_inconsistent_db () =
  let an, rows, _, _ = run_with_prov Programs.tc chain in
  (* inject an underivable tuple, exactly what a fuzz "extra row" looks like *)
  let rows p = if p = "tc" then [ 9; 9 ] :: rows p else rows p in
  check "extra row has no proof" true (Explain.explain ~an ~rows "tc" [ 9; 9 ] = Explain.No_proof)

let test_budget () =
  let edges = List.init 40 (fun i -> (i, i + 1)) in
  let an, rows, _, _ = run_with_prov Programs.tc edges in
  match Explain.explain ~max_steps:3 ~an ~rows "tc" [ 0; 40 ] with
  | Explain.Budget_exceeded n -> check "budget counts steps" true (n >= 3)
  | _ -> Alcotest.fail "expected Budget_exceeded"

let test_json_shape () =
  let an, rows, _, _ = run_with_prov Programs.tc chain in
  let n = explained (Explain.explain ~an ~rows "tc" [ 1; 3 ]) in
  let s = Rs_obs.Json.to_string (Explain.node_json n) in
  check "json has fact" true (contains s "\"fact\"");
  check "json has premises" true (contains s "\"premises\"");
  check "json has edb leaves" true (contains s "\"edb\"")

let suite =
  [
    Alcotest.test_case "tc chain" `Quick test_tc_chain;
    Alcotest.test_case "edb leaf and absent" `Quick test_edb_leaf_and_absent;
    Alcotest.test_case "sg chain" `Quick test_sg_chain;
    Alcotest.test_case "negation chain" `Quick test_negation_chain;
    Alcotest.test_case "aggregate witness" `Quick test_aggregate_witness;
    Alcotest.test_case "aggregate witness after a cyclic one" `Quick test_aggregate_later_witness;
    Alcotest.test_case "full tag coverage" `Quick test_full_coverage;
    Alcotest.test_case "outputs identical with provenance" `Quick test_outputs_identical_with_provenance;
    Alcotest.test_case "sampling deterministic" `Quick test_sampling_deterministic;
    Alcotest.test_case "no proof on inconsistent db" `Quick test_no_proof_on_inconsistent_db;
    Alcotest.test_case "budget" `Quick test_budget;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    QCheck_alcotest.to_alcotest prop_store_matches_model;
    QCheck_alcotest.to_alcotest prop_explain_complete;
  ]
