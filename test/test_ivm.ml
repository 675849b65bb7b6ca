(* Incremental view maintenance vs the naive oracle, plus the retraction
   edge cases: retracting what was never inserted, retract-then-reinsert
   inside one delta, emptying a relation, and the count-underflow
   invariant. Every differential check recomputes from scratch with
   Naive.run on a mirrored EDB — the same oracle rs_fuzz trusts. *)

module Ast = Recstep.Ast
module Parser = Recstep.Parser
module Naive = Recstep.Naive
module Ivm = Recstep.Ivm
module Delta = Rs_relation.Delta
module Delta_fuzz = Rs_fuzz.Delta_fuzz

let check = Alcotest.(check bool)

(* --- a tiny mirrored-EDB driver ----------------------------------------- *)

module Rows = Set.Make (struct
  type t = int list

  let compare = compare
end)

(* Replay a typed delta against a plain set-of-rows mirror of the EDB, the
   reference semantics Ivm.apply must agree with. *)
let mirror_apply edb (d : Delta.t) =
  List.map
    (fun (name, rows) ->
      let s = ref (Rows.of_list rows) in
      List.iter
        (fun (o : Delta.op) ->
          let row = Array.to_list o.Delta.row in
          match o.Delta.sign with
          | Delta.Insert -> s := Rows.add row !s
          | Delta.Retract -> s := Rows.remove row !s)
        (Delta.ops d name);
      (name, Rows.elements !s))
    edb

let sorted rows = List.sort_uniq compare rows

(* Apply [deltas] one at a time; after every version check each IDB against
   a from-scratch naive recompute, and check the emitted delta nets to the
   observed output diff. *)
let recursive_strata program =
  List.length
    (List.filter
       (fun (s : Recstep.Analyzer.stratum) -> s.Recstep.Analyzer.recursive)
       (Recstep.Analyzer.analyze program).Recstep.Analyzer.strata)

(* The seeded twin must hold the bootstrapped view's rows and tagged rows
   exactly, at every version. *)
let check_seeded what ~reference seeded =
  match Delta_fuzz.check_seeded ~cseed:0 ~version:0 ~reference seeded with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: %s differs from the bootstrapped view" what d.Delta_fuzz.div_pred

(* [twin] (default on) also maintains a view seeded from an interpreter
   fixpoint; programs the interpreter rejects (a rule with no positive
   atom) turn it off. *)
let run_sequence ?(twin = true) program_src edb deltas =
  let program = Parser.parse program_src in
  let v = Ivm.create ~prov:(Recstep.Provenance.create ()) ~edb program in
  let seeded =
    if not twin then None
    else begin
      let s = Delta_fuzz.seeded_view ~prov:(Recstep.Provenance.create ()) ~edb program in
      Alcotest.(check int) "every recursive stratum seeded" (recursive_strata program)
        (Ivm.stats s).Ivm.seeded_strata;
      check_seeded "bootstrap" ~reference:v s;
      Some s
    end
  in
  let naive_rows edb' =
    let _, lookup = Naive.run ~edb:edb' program in
    lookup
  in
  let l0 = naive_rows edb in
  List.iter
    (fun p ->
      check ("bootstrap " ^ p) true (sorted (l0 p) = Ivm.rows v p))
    (Ivm.idbs v);
  let edb = ref edb in
  List.iter
    (fun d ->
      let before = List.map (fun p -> (p, Ivm.rows v p)) (Ivm.idbs v) in
      let out = Ivm.apply v d in
      Option.iter
        (fun s ->
          check "seeded twin emits the same delta" true (Ivm.apply s d = out);
          check_seeded "after apply" ~reference:v s)
        seeded;
      edb := mirror_apply !edb d;
      let lookup = naive_rows !edb in
      List.iter
        (fun p ->
          check ("incremental = recompute for " ^ p) true
            (sorted (lookup p) = Ivm.rows v p))
        (Ivm.idbs v);
      (* the emitted delta must be exactly the observed output diff *)
      List.iter
        (fun p ->
          let b = Rows.of_list (List.assoc p before)
          and a = Rows.of_list (Ivm.rows v p) in
          let want_ins = Rows.elements (Rows.diff a b)
          and want_del = Rows.elements (Rows.diff b a) in
          let got_ins = ref [] and got_del = ref [] in
          List.iter
            (fun (o : Delta.op) ->
              let row = Array.to_list o.Delta.row in
              match o.Delta.sign with
              | Delta.Insert -> got_ins := row :: !got_ins
              | Delta.Retract -> got_del := row :: !got_del)
            (Delta.ops out p);
          check ("emitted inserts for " ^ p) true (sorted !got_ins = want_ins);
          check ("emitted retracts for " ^ p) true (sorted !got_del = want_del))
        (Ivm.idbs v))
    deltas;
  v

(* --- programs ------------------------------------------------------------ *)

let tc_src =
  ".input arc\n.output tc\ntc(x, y) :- arc(x, y).\ntc(x, z) :- arc(x, y), tc(y, z).\n"

let join_src = ".input e\n.output two\ntwo(x, z) :- e(x, y), e(y, z).\n"

let neg_src = ".input r 1\n.input s 1\n.output p\np(x) :- r(x), !s(x).\n"

let empty_support_src = ".input q 1\n.output p\np(1) :- !q(1).\n"

(* --- counting (non-recursive) ------------------------------------------- *)

let test_counting_insert_retract () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let deltas =
    [
      Delta.of_inserts "e" [ [| 3; 4 |] ];
      Delta.of_inserts "e" [ [| 2; 2 |] ];  (* self-join both positions *)
      Delta.of_retracts "e" [ [| 2; 3 |] ];
      Delta.of_retracts "e" [ [| 2; 2 |] ];
    ]
  in
  ignore (run_sequence join_src edb deltas)

let test_counting_shared_support () =
  (* two(1,3) has two derivations once e(2,3) and e(2,3)'s sibling path
     exist; retracting one support must not retract the tuple *)
  let edb = [ ("e", [ [ 1; 2 ]; [ 1; 4 ]; [ 2; 3 ]; [ 4; 3 ] ]) ] in
  let v =
    run_sequence join_src edb [ Delta.of_retracts "e" [ [| 2; 3 |] ] ]
  in
  check "two(1,3) survives on the other support" true
    (List.mem [ 1; 3 ] (Ivm.rows v "two"))

(* --- recursion (DRed) ---------------------------------------------------- *)

let test_dred_chain () =
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]) ] in
  let deltas =
    [
      Delta.of_retracts "arc" [ [| 2; 3 |] ];  (* cuts the chain *)
      Delta.of_inserts "arc" [ [| 2; 3 |] ];  (* heals it *)
      Delta.merge
        (Delta.of_inserts "arc" [ [| 4; 1 |] ])  (* closes a cycle *)
        (Delta.of_retracts "arc" [ [| 1; 2 |] ]);
      Delta.of_retracts "arc" [ [| 4; 1 |] ];
    ]
  in
  ignore (run_sequence tc_src edb deltas)

let test_dred_cycle () =
  (* inside a cycle every tuple transitively supports itself — the exact
     case where counting diverges and sets + DRed are required *)
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 1 ]; [ 2; 3 ] ]) ] in
  let v = run_sequence tc_src edb [ Delta.of_retracts "arc" [ [| 2; 3 |] ] ] in
  check "cycle survives" true (List.mem [ 1; 1 ] (Ivm.rows v "tc"));
  check "dred ran" true ((Ivm.stats v).Ivm.dred_deleted > 0)

let test_dred_rederivation () =
  (* retracting arc(1,2) overestimates tc(1,3) as deleted; the direct edge
     arc(1,3) must give it back in the re-derivation phase *)
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ]) ] in
  let v = run_sequence tc_src edb [ Delta.of_retracts "arc" [ [| 1; 2 |] ] ] in
  check "tc(1,3) survives via direct edge" true (List.mem [ 1; 3 ] (Ivm.rows v "tc"));
  let st = Ivm.stats v in
  check "overdeletion happened" true (st.Ivm.dred_deleted > 0);
  check "rederivation gave tuples back" true (st.Ivm.dred_rederived > 0)

(* --- negation ------------------------------------------------------------ *)

let test_negation_flip () =
  let edb = [ ("r", [ [ 1 ]; [ 2 ] ]); ("s", [ [ 2 ] ]) ] in
  let deltas =
    [
      Delta.of_inserts "s" [ [| 1 |] ];  (* kills p(1) *)
      Delta.of_retracts "s" [ [| 1 |] ];  (* revives it *)
      Delta.of_retracts "s" [ [| 2 |] ];  (* revives p(2) *)
    ]
  in
  ignore (run_sequence neg_src edb deltas)

let test_empty_support_bootstrap () =
  (* p(1) :- !q(1). with q empty: no delta ever references q at bootstrap,
     so only a full initial evaluation can derive p(1) *)
  let v = run_sequence ~twin:false empty_support_src [ ("q", []) ]
      [ Delta.of_inserts "q" [ [| 1 |] ]; Delta.of_retracts "q" [ [| 1 |] ] ]
  in
  check "p(1) back after q emptied again" true (Ivm.rows v "p" = [ [ 1 ] ])

(* --- retraction edge cases ----------------------------------------------- *)

let test_retract_never_inserted () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let program = Parser.parse join_src in
  let v = Ivm.create ~edb program in
  let before = Ivm.rows v "two" in
  (* over-retraction is a counted no-op, not an underflow *)
  let out = Ivm.apply v (Delta.of_retracts "e" [ [| 9; 9 |]; [| 9; 9 |] ]) in
  check "no output delta" true (Delta.is_empty out);
  check "state untouched" true (Ivm.rows v "two" = before)

let test_retract_then_reinsert_one_delta () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let program = Parser.parse join_src in
  let v = Ivm.create ~edb program in
  let d =
    Delta.merge
      (Delta.of_retracts "e" [ [| 1; 2 |] ])
      (Delta.of_inserts "e" [ [| 1; 2 |] ])
  in
  let out = Ivm.apply v d in
  check "flip-flop nets to nothing" true (Delta.is_empty out);
  check "two(1,3) still there" true (List.mem [ 1; 3 ] (Ivm.rows v "two"));
  (* and the inverse order: insert-then-retract of a new tuple *)
  let d2 =
    Delta.merge
      (Delta.of_inserts "e" [ [| 7; 8 |] ])
      (Delta.of_retracts "e" [ [| 7; 8 |] ])
  in
  let out2 = Ivm.apply v d2 in
  check "insert-then-retract nets to nothing" true (Delta.is_empty out2)

let test_retraction_empties_relation () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let deltas = [ Delta.of_retracts "e" [ [| 1; 2 |]; [| 2; 3 |] ] ] in
  let v = run_sequence join_src edb deltas in
  check "e empty" true (Ivm.rows v "e" = []);
  check "two empty" true (Ivm.rows v "two" = [])

let test_no_underflow_under_churn () =
  (* a deterministic churn sequence; the invariant is simply that apply
     never raises Count_underflow and every version matches the oracle *)
  let edb = [ ("e", [ [ 0; 1 ] ]) ] in
  let deltas =
    List.init 12 (fun i ->
        let a = i mod 5 and b = (i * 3 + 1) mod 5 in
        if i mod 3 = 2 then Delta.of_retracts "e" [ [| a; b |] ]
        else Delta.of_inserts "e" [ [| a; b |] ])
  in
  ignore (run_sequence join_src edb deltas)

(* --- input validation ---------------------------------------------------- *)

let test_apply_rejects_bad_input () =
  let edb = [ ("e", [ [ 1; 2 ] ]) ] in
  let v = Ivm.create ~edb (Parser.parse join_src) in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "idb delta rejected" true
    (raises (fun () -> Ivm.apply v (Delta.of_inserts "two" [ [| 1; 2 |] ])));
  check "unknown relation rejected" true
    (raises (fun () -> Ivm.apply v (Delta.of_inserts "nope" [ [| 1 |] ])));
  check "arity mismatch rejected" true
    (raises (fun () -> Ivm.apply v (Delta.of_inserts "e" [ [| 1 |] ])))

let test_supported () =
  check "plain program supported" true (Ivm.supported (Parser.parse tc_src));
  check "aggregates unsupported" false
    (Ivm.supported
       (Parser.parse ".input e\n.output d\nd(x, MIN(c)) :- e(x, c).\n"))

(* --- provenance maintenance ----------------------------------------------- *)

(* With a tag store attached, every maintained IDB row must carry a tag at
   every version — inserts tag new derivations, retractions drop tags, and
   a DRed overdelete-then-rederive round trip may not leave the survivor
   untagged. [tagged] counts the store's current tags, so coverage equality
   also proves no stale tags linger for departed tuples. *)
let test_provenance_maintained () =
  let module Prov = Recstep.Provenance in
  let prov = Prov.create () in
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ]) ] in
  let v = Ivm.create ~prov ~edb (Parser.parse tc_src) in
  check "store attached" true
    (match Ivm.provenance v with Some p -> p == prov | None -> false);
  let assert_cov what =
    List.iter
      (fun p ->
        let rows = Ivm.rows v p in
        Alcotest.(check int) (what ^ ": tagged = rows for " ^ p)
          (List.length rows) (Prov.tagged prov ~pred:p);
        List.iter
          (fun row ->
            check (what ^ ": tag present") true (Prov.find prov ~pred:p row <> None))
          rows)
      (Ivm.idbs v)
  in
  assert_cov "bootstrap";
  ignore (Ivm.apply v (Delta.of_inserts "arc" [ [| 3; 4 |] ]));
  assert_cov "after insert";
  (* retracting arc(1,2) overdeletes tc(1,3)/tc(1,4) and rederives them via
     the direct edge; tc(1,2) leaves for good *)
  ignore (Ivm.apply v (Delta.of_retracts "arc" [ [| 1; 2 |] ]));
  assert_cov "after dred retract";
  check "rederived tuple kept a tag" true (Prov.find prov ~pred:"tc" [ 1; 3 ] <> None);
  check "departed tuple lost its tag" true (Prov.find prov ~pred:"tc" [ 1; 2 ] = None)

(* --- views seeded from an engine fixpoint --------------------------------- *)

let mutual_src =
  ".input e\n.output a\n.output b\n\
   a(x, y) :- e(x, y).\n\
   a(x, y) :- b(x, z), e(z, y).\n\
   b(x, y) :- a(x, z), e(z, y).\n"

(* recursion, then negation in a counting stratum, then recursion again *)
let layered_src =
  ".input e\n.input blocked 1\n.output r\n.output safe\n.output far\n\
   r(x, y) :- e(x, y).\n\
   r(x, y) :- r(x, z), e(z, y).\n\
   safe(x, y) :- r(x, y), !blocked(y).\n\
   far(x, y) :- safe(x, y).\n\
   far(x, y) :- far(x, z), safe(z, y).\n"

(* A seeded random insert/retract stream over a 6-value domain: mostly
   inserts, retracts that often hit held rows. *)
let random_stream ~seed rels n =
  let module Rng = Rs_util.Rng in
  let rng = Rng.create seed in
  List.init n (fun _ ->
      List.fold_left
        (fun acc _ ->
          let rel, arity = List.nth rels (Rng.int rng (List.length rels)) in
          let row = Array.init arity (fun _ -> Rng.int rng 6) in
          let mk = if Rng.bool rng 0.6 then Delta.of_inserts else Delta.of_retracts in
          Delta.merge acc (mk rel [ row ]))
        Delta.empty
        (List.init (1 + Rng.int rng 4) Fun.id))

(* run_sequence checks the seeded twin against the bootstrapped view (rows
   and tag coverage) and the naive oracle at every version *)
let test_seeded_random_streams () =
  List.iter
    (fun (src, edb, rels) ->
      for seed = 1 to 8 do
        ignore (run_sequence src edb (random_stream ~seed rels 10))
      done)
    [
      (tc_src, [ ("arc", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 3; 4 ] ]) ], [ ("arc", 2) ]);
      (mutual_src, [ ("e", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]) ], [ ("e", 2) ]);
      ( layered_src,
        [ ("e", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 4; 5 ] ]); ("blocked", [ [ 2 ] ]) ],
        [ ("e", 2); ("blocked", 1) ] );
    ]

(* A stratum the fixpoint cannot serve — the read raises, or returns the
   wrong arity — is bootstrapped; the others are still adopted, and the
   mixed view tracks the bootstrapped one at every version. *)
let test_seeded_fallback () =
  let program = Parser.parse layered_src in
  let edb = [ ("e", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ] ]); ("blocked", [ [ 3 ] ]) ] in
  let relation_of =
    let pool = Rs_parallel.Pool.create ~workers:2 () in
    Rs_parallel.Pool.begin_run pool;
    let rels =
      List.map
        (fun (n, rows) ->
          let arity = match rows with r :: _ -> List.length r | [] -> 1 in
          (n, Rs_relation.Relation.of_rows ~name:n arity (List.map Array.of_list rows)))
        edb
    in
    (Recstep.Interpreter.run ~options:(Recstep.Interpreter.options ()) ~pool ~edb:rels program)
      .Recstep.Interpreter.relation_of
  in
  List.iter
    (fun (what, fixpoint) ->
      let reference = Ivm.create ~prov:(Recstep.Provenance.create ()) ~edb program in
      let v = Ivm.create ~prov:(Recstep.Provenance.create ()) ~fixpoint ~edb program in
      Alcotest.(check int) (what ^ ": one of two recursive strata seeded") 1
        (Ivm.stats v).Ivm.seeded_strata;
      check_seeded what ~reference v;
      List.iter
        (fun d ->
          ignore (Ivm.apply reference d);
          ignore (Ivm.apply v d);
          check_seeded what ~reference v)
        (random_stream ~seed:5 [ ("e", 2); ("blocked", 1) ] 10))
    [
      ("far unreadable", fun p -> if p = "far" then raise Not_found else relation_of p);
      ( "r at the wrong arity",
        fun p -> if p = "r" then Rs_relation.Relation.create ~name:"r" 3 else relation_of p );
    ]

(* --- delta module round-trips -------------------------------------------- *)

let test_delta_normalize () =
  let mem _ row = row = [| 1; 1 |] in
  let d =
    Delta.merge
      (Delta.of_inserts "r" [ [| 1; 1 |]; [| 2; 2 |] ])
      (Delta.of_retracts "r" [ [| 1; 1 |]; [| 3; 3 |] ])
  in
  match Delta.normalize ~mem d with
  | [ ("r", c) ] ->
      check "net insert" true (c.Delta.insert = [ [| 2; 2 |] ]);
      check "net retract" true (c.Delta.retract = [ [| 1; 1 |] ])
  | _ -> Alcotest.fail "expected one changed relation"

let test_delta_counts () =
  let d =
    Delta.merge (Delta.of_inserts "a" [ [| 1 |]; [| 2 |] ]) (Delta.of_retracts "b" [ [| 3 |] ])
  in
  Alcotest.(check int) "inserts" 2 (Delta.count d Delta.Insert);
  Alcotest.(check int) "retracts" 1 (Delta.count d Delta.Retract);
  Alcotest.(check int) "size" 3 (Delta.size d);
  check "rels" true (Delta.rels d = [ "a"; "b" ])

let suite =
  [
    Alcotest.test_case "counting insert/retract" `Quick test_counting_insert_retract;
    Alcotest.test_case "counting shared support" `Quick test_counting_shared_support;
    Alcotest.test_case "dred chain" `Quick test_dred_chain;
    Alcotest.test_case "dred cycle" `Quick test_dred_cycle;
    Alcotest.test_case "dred rederivation" `Quick test_dred_rederivation;
    Alcotest.test_case "negation flip" `Quick test_negation_flip;
    Alcotest.test_case "empty-support bootstrap" `Quick test_empty_support_bootstrap;
    Alcotest.test_case "retract never inserted" `Quick test_retract_never_inserted;
    Alcotest.test_case "retract then reinsert" `Quick test_retract_then_reinsert_one_delta;
    Alcotest.test_case "retraction empties relation" `Quick test_retraction_empties_relation;
    Alcotest.test_case "no underflow under churn" `Quick test_no_underflow_under_churn;
    Alcotest.test_case "apply rejects bad input" `Quick test_apply_rejects_bad_input;
    Alcotest.test_case "supported" `Quick test_supported;
    Alcotest.test_case "provenance maintained across apply" `Quick
      test_provenance_maintained;
    Alcotest.test_case "seeded view = bootstrap on random streams" `Quick
      test_seeded_random_streams;
    Alcotest.test_case "seeded view falls back per stratum" `Quick test_seeded_fallback;
    Alcotest.test_case "delta normalize" `Quick test_delta_normalize;
    Alcotest.test_case "delta counts" `Quick test_delta_counts;
  ]
