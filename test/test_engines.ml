module Engines = Rs_engines.Engines
module Engine_intf = Rs_engines.Engine_intf
module Inc_index = Rs_engines.Inc_index
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Programs = Recstep.Programs

let check = Alcotest.(check bool)

let pool () =
  let p = Pool.create ~workers:4 () in
  Pool.begin_run p;
  p

let run_engine engine src edb outs =
  let program = Recstep.Parser.parse src in
  let edb = List.map (fun (n, r) -> (n, Relation.copy r)) edb in
  Engine_intf.outcome_map
    (fun result ->
      List.map
        (fun o ->
          (o, Relation.sorted_distinct_rows (result.Engine_intf.relation_of o)))
        outs)
    (Engine_intf.run_guarded engine ~pool:(pool ()) ~edb program)

let agree ?(engines = Engines.all) src edb outs =
  let results =
    List.filter_map
      (fun ((module E : Engine_intf.S) as engine) ->
        match run_engine engine src edb outs with
        | Engine_intf.Done r -> Some (E.name, r)
        | Engine_intf.Unsupported _ -> None
        | Engine_intf.Oom -> Alcotest.fail (E.name ^ " hit the simulated memory budget")
        | Engine_intf.Timeout -> Alcotest.fail (E.name ^ " hit the simulated deadline")
        | Engine_intf.Fault { cls; point } ->
            Alcotest.fail
              (Printf.sprintf "%s: injected fault %s at %s" E.name
                 (Rs_chaos.Fault.cls_name cls) point))
      engines
  in
  match results with
  | [] -> Alcotest.fail "no engine ran the program"
  | (_, first) :: rest ->
      List.iter
        (fun (name, r) ->
          if r <> first then Alcotest.fail (Printf.sprintf "engine %s disagrees" name))
        rest;
      List.length results

(* --- cross-engine agreement on random instances --- *)

let gen_graph = Refs.arbitrary_edges ~max_nodes:9 ~max_edges:20 ()

let prop_engines_agree_tc =
  QCheck2.Test.make ~name:"all engines agree on TC" ~count:25 gen_graph (fun edges ->
      QCheck2.assume (edges <> []);
      agree Programs.tc [ ("arc", Refs.relation_of_edges edges) ] [ "tc" ] = 6)

let prop_engines_agree_sg =
  QCheck2.Test.make ~name:"all engines agree on SG" ~count:20 gen_graph (fun edges ->
      QCheck2.assume (edges <> []);
      (* Graspan cannot express SG's != literal: 5 engines run *)
      agree Programs.sg [ ("arc", Refs.relation_of_edges edges) ] [ "sg" ] = 5)

let prop_engines_agree_andersen =
  QCheck2.Test.make ~name:"engines agree on Andersen" ~count:15
    QCheck2.Gen.(tup4 gen_graph gen_graph gen_graph gen_graph)
    (fun (a, b, c, d) ->
      QCheck2.assume (a <> [] || b <> []);
      let edb =
        [
          ("addressOf", Refs.relation_of_edges ~name:"addressOf" a);
          ("assign", Refs.relation_of_edges ~name:"assign" b);
          ("load", Refs.relation_of_edges ~name:"load" c);
          ("store", Refs.relation_of_edges ~name:"store" d);
        ]
      in
      (* graspan (3-chain with shared var patterns unsupported) and bddbddb
         may or may not run; at least recstep+souffle+bigdatalog agree *)
      agree
        ~engines:
          [
            Engines.recstep;
            Engines.souffle_like;
            Engines.bigdatalog_like;
            Engines.bddbddb_like;
          ]
        Programs.andersen edb [ "pointsTo" ]
      = 4)

let prop_engines_agree_cspa =
  QCheck2.Test.make ~name:"engines agree on CSPA" ~count:15
    QCheck2.Gen.(pair gen_graph gen_graph)
    (fun (assign, deref) ->
      QCheck2.assume (assign <> []);
      let edb =
        [
          ("assign", Refs.relation_of_edges ~name:"assign" assign);
          ("dereference", Refs.relation_of_edges ~name:"dereference" deref);
        ]
      in
      (* both BigDatalog configurations reject mutual recursion: 4 of 6 run *)
      agree Programs.cspa edb [ "valueFlow"; "memoryAlias"; "valueAlias" ] = 4)

let prop_engines_agree_csda =
  QCheck2.Test.make ~name:"engines agree on CSDA" ~count:20
    QCheck2.Gen.(pair gen_graph gen_graph)
    (fun (null_e, arc) ->
      QCheck2.assume (null_e <> []);
      let edb =
        [
          ("nullEdge", Refs.relation_of_edges ~name:"nullEdge" null_e);
          ("arc", Refs.relation_of_edges arc);
        ]
      in
      agree Programs.csda edb [ "null" ] = 6)

let even_odd =
  {|
.input next
even(0).
odd(y) :- even(x), next(x, y).
even(y) :- odd(x), next(x, y).
.output even
|}

let prop_engines_agree_even_odd =
  QCheck2.Test.make ~name:"engines agree on mutual even/odd" ~count:20 gen_graph
    (fun edges ->
      QCheck2.assume (edges <> []);
      (* graspan rejects (unary head), both bigdatalogs reject (mutual): 3 run *)
      agree
        ~engines:[ Engines.recstep; Engines.souffle_like; Engines.bddbddb_like ]
        even_odd
        [ ("next", Refs.relation_of_edges ~name:"next" edges) ]
        [ "even"; "odd" ]
      = 3)

(* --- capability gating (Table 1) --- *)

let expect_unsupported ((module E : Engine_intf.S) as engine) src edb =
  match run_engine engine src edb [] with
  | Engine_intf.Unsupported _ -> ()
  | _ -> Alcotest.fail (E.name ^ " should have rejected the program")

let some_edges = Refs.relation_of_edges [ (0, 1); (1, 2) ]

let arc3 () =
  Recstep.Frontend.relation_of_list ~name:"arc" 3 [ [| 0; 1; 5 |]; [| 1; 2; 3 |] ]

let id0 () = Recstep.Frontend.relation_of_list ~name:"id" 1 [ [| 0 |] ]

let suite_gating () =
  expect_unsupported Engines.bigdatalog_like Programs.cspa
    [ ("assign", some_edges); ("dereference", Refs.relation_of_edges ~name:"dereference" []) ];
  expect_unsupported Engines.souffle_like Programs.cc [ ("arc", some_edges) ];
  expect_unsupported Engines.souffle_like Programs.sssp
    [ ("arc", arc3 ()); ("id", id0 ()) ];
  expect_unsupported Engines.graspan_like Programs.cc [ ("arc", some_edges) ];
  expect_unsupported Engines.graspan_like Programs.reach
    [ ("arc", some_edges); ("id", id0 ()) ];
  expect_unsupported Engines.bddbddb_like Programs.cc [ ("arc", some_edges) ];
  expect_unsupported Engines.bddbddb_like Programs.ntc [ ("arc", some_edges) ];
  expect_unsupported Engines.bddbddb_like Programs.sssp
    [ ("arc", arc3 ()); ("id", id0 ()) ]

let capability_rows () =
  (* Table 1 invariants *)
  let cap (module E : Engine_intf.S) = E.capabilities in
  check "recstep recursive agg" true (cap Engines.recstep).Engine_intf.recursive_aggregation;
  check "souffle no recursive agg" false (cap Engines.souffle_like).Engine_intf.recursive_aggregation;
  check "bigdatalog no mutual recursion" false (cap Engines.bigdatalog_like).Engine_intf.mutual_recursion;
  check "graspan no aggregation" false (cap Engines.graspan_like).Engine_intf.nonrecursive_aggregation;
  check "bddbddb single-thread" false (cap Engines.bddbddb_like).Engine_intf.scale_up;
  check "only recstep maintains incrementally" true
    (List.for_all
       (fun ((module E : Engine_intf.S) as e) ->
         E.capabilities.Engine_intf.incremental = (e == Engines.recstep))
       Engines.all)

(* --- incremental maintenance: every engine's maintain handle must track
   the same delta sequence to the same outputs and emit the same net output
   deltas, whether it maintains incrementally or by recompute-and-diff --- *)

module Delta = Rs_relation.Delta

let delta_signature d =
  List.map
    (fun rel ->
      ( rel,
        List.sort compare
          (List.map
             (fun (o : Delta.op) -> (o.Delta.sign, Array.to_list o.Delta.row))
             (Delta.ops d rel)) ))
    (List.sort compare (Delta.rels d))

let test_maintain_agree () =
  let program = Recstep.Parser.parse Programs.tc in
  let edb () =
    [ ("arc", Refs.relation_of_edges [ (0, 1); (1, 2); (2, 3) ]) ]
  in
  let steps =
    [
      Delta.of_inserts "arc" [ [| 3; 4 |] ];
      Delta.merge
        (Delta.of_retracts "arc" [ [| 1; 2 |] ])
        (Delta.of_inserts "arc" [ [| 4; 0 |] ]);
      Delta.of_retracts "arc" [ [| 9; 9 |] ] (* never inserted: no-op *);
    ]
  in
  let trail (module E : Engine_intf.S) =
    let m = E.maintain ~pool:(pool ()) ~edb:(edb ()) program in
    ( E.name,
      m.Engine_intf.m_incremental,
      List.map
        (fun d ->
          let out = m.Engine_intf.m_apply d in
          (delta_signature out, m.Engine_intf.m_outputs ()))
        steps )
  in
  match List.map trail Engines.all with
  | (_, inc0, first) :: rest ->
      check "recstep maintains incrementally" true inc0;
      List.iter
        (fun (name, _, tr) ->
          if tr <> first then Alcotest.fail (Printf.sprintf "engine %s diverges" name))
        rest;
      (* the no-op retract emits an empty delta *)
      let last_sig, _ = List.nth first 2 in
      check "no-op retract emits nothing" true (last_sig = [])
  | [] -> Alcotest.fail "no engines"

(* --- inc_index --- *)

let prop_inc_index =
  QCheck2.Test.make ~name:"incremental index = naive scan" ~count:100
    QCheck2.Gen.(list (pair (int_range 0 20) (int_range 0 20)))
    (fun pairs ->
      let r = Relation.create 2 in
      let idx = Inc_index.create [| 0 |] in
      List.iteri
        (fun i (x, y) ->
          Relation.push2 r x y;
          ignore i;
          Inc_index.add idx r (Relation.nrows r - 1))
        pairs;
      List.for_all
        (fun (x, _) ->
          let got = ref [] in
          Inc_index.iter_matches idx r [| x |] (fun row -> got := row :: !got);
          let expected =
            List.mapi (fun i (a, _) -> (i, a)) pairs
            |> List.filter_map (fun (i, a) -> if a = x then Some i else None)
          in
          List.sort compare !got = List.sort compare expected)
        pairs)

(* --- explain corpus: frozen chains, byte-stable across engines --- *)

(* The proof search reads only the final database, so every engine able to
   evaluate a corpus program must reproduce the frozen chain byte for byte
   from its own result relations — the cross-engine guarantee that makes
   `recstep explain` trustworthy no matter which backend served the query. *)
let test_explain_corpus () =
  List.iter
    (fun (tag, src, edb, pred, row, frozen) ->
      let program = Recstep.Parser.parse src in
      let an = Recstep.Analyzer.analyze program in
      let edb_rels =
        List.map
          (fun (n, rows) ->
            ( n,
              Relation.of_rows ~name:n (Recstep.Analyzer.arity an n)
                (List.map Array.of_list rows) ))
          edb
      in
      let outs = program.Recstep.Ast.outputs in
      let supported = ref 0 in
      List.iter
        (fun ((module E : Engine_intf.S) as engine) ->
          match run_engine engine src edb_rels outs with
          | Engine_intf.Unsupported _ -> ()
          | Engine_intf.Done results ->
              incr supported;
              let rows p =
                match List.assoc_opt p results with
                | Some rs -> List.map Array.to_list rs
                | None -> Option.value ~default:[] (List.assoc_opt p edb)
              in
              (match Recstep.Explain.explain ~an ~rows pred row with
              | Recstep.Explain.Explained node ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: %s chain is frozen" E.name tag)
                    frozen
                    (String.trim (Recstep.Explain.render node))
              | o ->
                  Alcotest.fail
                    (Printf.sprintf "%s: %s not explained: %s" E.name tag
                       (Recstep.Explain.outcome_to_string ~pred ~row o)))
          | _ -> Alcotest.fail (Printf.sprintf "%s failed on %S" E.name tag))
        Engines.all;
      check (tag ^ ": several engines support the case") true (!supported >= 2))
    Refs.explain_corpus

let test_engines_registry () =
  Alcotest.(check int) "six engines" 6 (List.length Engines.all);
  check "lookup" true (Engines.by_name "RecStep" <> None);
  check "unknown" true (Engines.by_name "nope" = None)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_engines_agree_tc;
      prop_engines_agree_sg;
      prop_engines_agree_andersen;
      prop_engines_agree_cspa;
      prop_engines_agree_csda;
      prop_engines_agree_even_odd;
      prop_inc_index;
    ]

let suite =
  [
    Alcotest.test_case "capability gating" `Quick suite_gating;
    Alcotest.test_case "Table 1 capability rows" `Quick capability_rows;
    Alcotest.test_case "maintain agrees across engines" `Quick test_maintain_agree;
    Alcotest.test_case "explain corpus is byte-stable across engines" `Quick
      test_explain_corpus;
    Alcotest.test_case "engines registry" `Quick test_engines_registry;
  ]
  @ qsuite
