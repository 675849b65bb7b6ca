(* Compiled rule kernels (Rs_exec.Kernel): fused join→project→dedup closures
   for hot recursive rules. Every test runs the same program twice — kernels
   on and kernels off — on fresh pools and asserts the canonical output rows
   are identical; the trace counters then pin which path actually ran. PBME
   is held off throughout so TC/SG-shaped strata take the relational path
   the kernels accelerate (with PBME on they would collapse to the
   bit-matrix kernels and neither path under test would execute). *)

module Parser = Recstep.Parser
module Interpreter = Recstep.Interpreter
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace
module Fault = Rs_chaos.Fault
module Inject = Rs_chaos.Inject

let check = Alcotest.(check bool)

let canon rel = List.map Array.to_list (Relation.sorted_distinct_rows rel)

(* The membership set of an empty head table: every fresh claim is then
   new to it too, so the kernel's output is the deduplicated bag. *)
let empty_r_set arity = Rs_relation.Dedup.create_set arity

(* One interpreter run on a fresh pool; returns (rows of each output, trace). *)
let run_rels ?persistent_indexes ?on_iteration ~kernels program edb =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let options =
    Interpreter.options ~pbme:false ~compiled_kernels:kernels ?persistent_indexes ~trace ()
  in
  let result = Interpreter.run ~options ?on_iteration ~pool ~edb program in
  let outs =
    List.map
      (fun name -> (name, canon (result.Interpreter.relation_of name)))
      program.Recstep.Ast.outputs
  in
  (outs, trace)

let run_one ~kernels src edb =
  run_rels ~kernels (Parser.parse src)
    (List.map
       (fun (name, arity, rows) ->
         (name, Relation.of_rows ~name arity (List.map Array.of_list rows)))
       edb)

(* Both toggle positions must produce byte-identical canonical outputs. *)
let run_both src edb =
  let on, tr_on = run_one ~kernels:true src edb in
  let off, tr_off = run_one ~kernels:false src edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "kernels on = kernels off" off on;
  (tr_on, tr_off)

let c tr name = Trace.counter tr name

(* [run_both] plus the naive oracle: kernels on, kernels off and the
   textbook evaluator agree on every output. *)
let run_all src edb =
  let on, tr_on = run_one ~kernels:true src edb in
  let off, tr_off = run_one ~kernels:false src edb in
  let _, lookup =
    Recstep.Naive.run ~edb:(List.map (fun (name, _, rows) -> (name, rows)) edb) (Parser.parse src)
  in
  let oracle = List.map (fun (name, _) -> (name, lookup name)) on in
  Alcotest.(check (list (pair string (list (list int))))) "kernels on = oracle" oracle on;
  Alcotest.(check (list (pair string (list (list int))))) "kernels off = oracle" oracle off;
  (tr_on, tr_off)

(* --- per-arity closures vs the interpreted path --------------------------- *)

let tc_src =
  ".input e0\np0(x, y) :- e0(x, y).\np0(x, y) :- p0(x, z), e0(z, y).\n.output p0"

let tc_edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 0 ] ]) ]

let test_arity2 () =
  let tr_on, tr_off = run_both tc_src tc_edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0);
  check "probes fused" true (c tr_on "kernel.fused_probes" > 0);
  check "rows emitted" true (c tr_on "kernel.emitted" > 0);
  check "no fallback" true (c tr_on "kernel.fallbacks" = 0);
  check "toggle off compiles nothing" true (c tr_off "kernel.compiled_rules" = 0);
  check "toggle off executes nothing" true (c tr_off "kernel.execs" = 0);
  (* a fully compiled run still records its fallback count, as 0 —
     [c] would read a missing counter as 0 too *)
  let counters = Trace.counters tr_on in
  check "compiled_rules recorded" true (List.mem_assoc "kernel.compiled_rules" counters);
  check "fallback_rules recorded" true (List.mem_assoc "kernel.fallback_rules" counters);
  Alcotest.(check int) "fallback_rules is 0" 0 (List.assoc "kernel.fallback_rules" counters)

let test_arity1 () =
  (* unary head: reachability from a source set *)
  let src =
    ".input s\n.input e0\n\
     r(x) :- s(x).\n\
     r(y) :- r(x), e0(x, y).\n\
     .output r"
  in
  let edb =
    [ ("s", 1, [ [ 0 ] ]); ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 5; 6 ] ]) ]
  in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0)

let test_arity3 () =
  let src =
    ".input e1\n\
     p0(x, y, z) :- e1(x, y, z).\n\
     p0(x, y, w) :- p0(x, y, z), e1(z, w, w).\n\
     .output p0"
  in
  let edb = [ ("e1", 3, [ [ 0; 1; 2 ]; [ 1; 2; 2 ]; [ 2; 0; 0 ]; [ 2; 3; 3 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0)

(* A delta plan with no join at all — pure project over the Δ-scan — takes
   the unary kernel shape. *)
let test_unary_shape () =
  let src =
    ".input e0\n\
     q(x, y) :- e0(x, y).\n\
     p(y, x) :- q(x, y).\n\
     q(x, y) :- p(x, z), e0(z, y).\n\
     .output p\n.output q"
  in
  let edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0)

(* Local predicates ride inside the fused closure: probe-side, build-side
   and cross-side comparisons must all be honored. *)
let test_filters_fused () =
  let src =
    ".input e0\n\
     p0(x, y) :- e0(x, y).\n\
     p0(x, y) :- p0(x, z), e0(z, y), y != x, y <= 6.\n\
     .output p0"
  in
  let edb =
    [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 7 ]; [ 2; 0 ]; [ 3; 4 ] ]) ]
  in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0)

(* --- n-way chains: three or more atoms ------------------------------------- *)

let chain_edb =
  [
    ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ]; [ 2; 4 ]; [ 4; 4 ] ]);
    ("e1", 2, [ [ 1; 0 ]; [ 2; 2 ]; [ 3; 1 ]; [ 4; 3 ]; [ 0; 4 ] ]);
  ]

(* (what, program, EDB): every case is a recursive rule of three atoms. *)
let chain_cases =
  let with_chain_edb what rule =
    (what, ".input e0\n.input e1\np0(x, y) :- e0(x, y).\n" ^ rule ^ "\n.output p0", chain_edb)
  in
  [
    (* the Δ-atom drives from the first, middle and last body position; with
       Δ last the first atom only connects through the middle one *)
    with_chain_edb "delta first" "p0(x, w) :- p0(x, y), e0(y, z), e1(z, w).";
    with_chain_edb "delta middle" "p0(x, w) :- e1(x, y), p0(y, z), e0(z, w).";
    with_chain_edb "delta last" "p0(x, w) :- e0(x, y), e1(y, z), p0(z, w).";
    (* comparisons spanning the first and last atoms stay in the residual,
       tested once every atom is bound *)
    with_chain_edb "cross-side comparison"
      "p0(x, w) :- p0(x, y), e0(y, z), e1(z, w), x < w, w != y.";
    (* x is shared by all three atoms: with Δ = p0 driving, e0 is keyed on x
       alone and e1 then on (x, w) — one column equated to e0, one to p0.
       e1 holds several w per x, and p0 holds (x, w) pairs e1 lacks, so a
       key on x alone would join them. *)
    ( "2-column key",
      ".input e0\n.input e1\n.input e2\n\
       p0(x, y) :- e2(x, y).\n\
       p0(y, w) :- e0(x, y), e1(x, w), p0(x, w).\n\
       .output p0",
      [
        ("e0", 2, [ [ 0; 5 ]; [ 1; 5 ]; [ 5; 0 ] ]);
        ("e1", 2, [ [ 0; 1 ]; [ 0; 4 ]; [ 1; 3 ]; [ 5; 1 ]; [ 5; 6 ] ]);
        ("e2", 2, [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ] ]);
      ] );
    (* a constant and a repeated variable on a middle atom become its local
       filters, tested at the step that binds it; p1's repeated variable
       sits on the middle Δ-atom, tested before the chain probes anything *)
    ( "middle-atom filters",
      ".input e0\n.input e2\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, w) :- p0(x, y), e2(y, 1, z, z), e0(z, w).\n\
       p1(x, y) :- e0(x, y).\n\
       p1(w, x) :- e0(x, y), p1(y, y), e0(y, w).\n\
       .output p0\n.output p1",
      [
        ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ]; [ 4; 5 ]; [ 4; 4 ]; [ 5; 4 ] ]);
        ( "e2",
          4,
          [ [ 1; 1; 2; 2 ]; [ 1; 0; 3; 3 ]; [ 2; 1; 3; 4 ]; [ 3; 1; 4; 4 ]; [ 5; 1; 0; 0 ] ] );
      ] );
    (* an arity-3 head over a chain whose last step keys on three columns —
       the generic key path *)
    ( "arity-3 head",
      ".input e1\n.input e2\n\
       p0(x, y, z) :- e1(x, y, z).\n\
       p0(x, y, w) :- p0(x, y, z), e1(y, z, w), e2(x, y, w).\n\
       .output p0",
      [
        ("e1", 3, [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3; 0 ]; [ 1; 3; 1 ]; [ 3; 0; 1 ] ]);
        ("e2", 3, [ [ 0; 1; 3 ]; [ 1; 2; 0 ]; [ 0; 1; 1 ]; [ 2; 3; 1 ] ]);
      ] );
  ]

(* Every case must match the interpreted run ([run_both]), compile each of
   its IDB's rules and actually run a kernel. *)
let test_chain_cases () =
  List.iter
    (fun (what, src, edb) ->
      let tr_on, _ = run_both src edb in
      check (what ^ ": rules compiled") true (c tr_on "kernel.compiled_rules" > 0);
      Alcotest.(check int) (what ^ ": nothing fell back") 0 (c tr_on "kernel.fallback_rules");
      check (what ^ ": kernels executed") true (c tr_on "kernel.execs" > 0);
      check (what ^ ": rows emitted") true (c tr_on "kernel.emitted" > 0))
    chain_cases

let test_chain_disconnected () =
  (* s(u) shares no variable with the rest of the body: the chain cannot
     order it, so the IDB stays interpreted (a cross product) *)
  let src =
    ".input e0\n.input s\n\
     p0(x, y) :- e0(x, y).\n\
     p0(x, y) :- p0(x, z), e0(z, y), s(u).\n\
     .output p0"
  in
  let edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]); ("s", 1, [ [ 7 ]; [ 8 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "compile refused" true (c tr_on "kernel.fallback_rules" > 0);
  Alcotest.(check int) "nothing compiled" 0 (c tr_on "kernel.compiled_rules");
  Alcotest.(check int) "nothing executed" 0 (c tr_on "kernel.execs")

let test_chain_extra_equality () =
  (* A hand-built plan (the planner never emits one) where c.0 is equated to
     both a.0 and b.0, and b only connects through y: the second equality
     cannot be a key column of c's step and must still be tested. The
     kernel's output must equal the executor's deduplicated result. *)
  let module Expr = Rs_exec.Expr in
  let module Plan = Rs_exec.Plan in
  let module Catalog = Rs_exec.Catalog in
  let module Executor = Rs_exec.Executor in
  let module Kernel = Rs_exec.Kernel in
  let module Dedup = Rs_relation.Dedup in
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  let reg name arity rows =
    Catalog.register catalog name (Relation.of_rows ~name arity (List.map Array.of_list rows))
  in
  reg "a@delta" 2 [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 11 ] ];
  reg "b" 2 [ [ 1; 10 ]; [ 2; 10 ]; [ 5; 11 ]; [ 3; 11 ] ];
  reg "c" 1 [ [ 1 ]; [ 2 ]; [ 3 ]; [ 5 ] ];
  let ex = Executor.create pool catalog in
  let inner = Plan.join2 (Plan.Scan "a@delta") [| 1 |] (Plan.Scan "b") [| 1 |] in
  let plan =
    Plan.join2 ~out:[| Expr.Col 0; Expr.Col 2 |] inner [| 0; 2 |] (Plan.Scan "c") [| 0; 0 |]
  in
  let want = canon (Executor.run_query ex plan) in
  let k =
    match Kernel.compile ex ~probe_table:"a@delta" plan with
    | Ok k -> k
    | Error reason -> Alcotest.failf "chain refused: %s" reason
  in
  let dedup = Dedup.create Dedup.Fast 2 in
  let out = Relation.create 2 in
  ignore (Kernel.run ex k ~dedup ~r_set:(empty_r_set 2) ~out);
  Dedup.release dedup;
  Alcotest.(check (list (list int))) "kernel = executor" want (canon out);
  Alcotest.(check (list (list int))) "only a.0 = b.0 = c.0" [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ] ] want

(* --- the cost-model gate and unsupported shapes --------------------------- *)

let test_fallback_wide_head () =
  (* head arity 4 > Cost.kernel_max_arity: gate says "arity", every rule
     stays interpreted, answers unchanged *)
  let src =
    ".input e3\n\
     p0(x, y, z, w) :- e3(x, y, z, w).\n\
     p0(x, y, z, w) :- p0(x, y, z, u), e3(u, y, z, w).\n\
     .output p0"
  in
  let edb = [ ("e3", 4, [ [ 0; 1; 1; 2 ]; [ 2; 1; 1; 3 ]; [ 3; 1; 1; 0 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "gate refused" true (c tr_on "kernel.fallback_rules" > 0);
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0);
  check "nothing executed" true (c tr_on "kernel.execs" = 0)

let test_fallback_negation () =
  (* a negated atom in the recursive rule is outside the fused shape: the
     whole IDB stays on the interpreted path (all-or-nothing) *)
  let src =
    ".input e0\n.input bad\n\
     p0(x, y) :- e0(x, y).\n\
     p0(x, y) :- p0(x, z), e0(z, y), !bad(x, y).\n\
     .output p0"
  in
  let edb =
    [
      ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]);
      ("bad", 2, [ [ 0; 3 ] ]);
    ]
  in
  let tr_on, _ = run_both src edb in
  check "compile refused" true (c tr_on "kernel.fallback_rules" > 0);
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0)

let test_cold_rules_not_compiled () =
  (* a non-recursive program has no delta plans: the kernel path never
     engages and charges no counters at all *)
  let src = ".input e0\np0(y, x) :- e0(x, y).\n.output p0" in
  let edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0);
  check "nothing refused" true (c tr_on "kernel.fallback_rules" = 0);
  check "nothing executed" true (c tr_on "kernel.execs" = 0)

(* --- chaos: Kernel_fail is recovered, never a wrong answer ---------------- *)

let run_with_plan plan_str src edb =
  Inject.with_plan
    (Fault.plan_of_string ~seed:7 plan_str)
    (fun () -> run_one ~kernels:true src edb)

let test_chaos_compile_fault () =
  (* every compile probe fires: no kernel compiles, the whole run is
     interpreted, and the answer matches the clean kernels-off run *)
  let clean, _ = run_one ~kernels:false tc_src tc_edb in
  let faulted, tr = run_with_plan "kernel:p=1" tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "compile fault never changes the answer" clean faulted;
  check "nothing compiled" true (c tr "kernel.compiled_rules" = 0);
  check "refusals counted" true (c tr "kernel.fallback_rules" > 0);
  check "nothing executed" true (c tr "kernel.execs" = 0)

let test_chaos_exec_fault () =
  (* after=1 lets the single compile probe through, limit=1 degrades exactly
     one kernel execution: that round re-evaluates interpreted, later rounds
     run the kernel again, and the answer still matches the clean run. TC's
     delta plan is a binary kernel; SG's is a 3-way chain. *)
  let sg_edb =
    [ ("arc", 2, [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 4 ]; [ 3; 5 ]; [ 4; 6 ]; [ 5; 7 ] ]) ]
  in
  List.iter
    (fun (what, src, edb) ->
      let clean, _ = run_one ~kernels:false src edb in
      let faulted, tr = run_with_plan "kernel:p=1,after=1,limit=1" src edb in
      Alcotest.(check (list (pair string (list (list int)))))
        (what ^ ": exec fault never changes the answer") clean faulted;
      check (what ^ ": rules compiled") true (c tr "kernel.compiled_rules" > 0);
      check (what ^ ": one degraded execution") true (c tr "kernel.fallbacks" = 1);
      check (what ^ ": later rounds still fused") true (c tr "kernel.execs" > 0))
    [ ("tc", tc_src, tc_edb); ("sg", Recstep.Programs.sg, sg_edb) ]

let test_chaos_persistent_exec_fault () =
  (* unbounded exec faults: every round degrades to the interpreted path;
     still the right answer, just slower *)
  let clean, _ = run_one ~kernels:false tc_src tc_edb in
  let faulted, tr = run_with_plan "kernel:p=1,after=1" tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "persistent exec fault never changes the answer" clean faulted;
  check "every round degraded" true (c tr "kernel.fallbacks" > 0);
  check "no fused execution completed" true (c tr "kernel.execs" = 0)

(* A worker crash unwinding a transient index must hand its bytes back.
   With no index manager, a Binary kernel's build side and OPSD's and
   TPSD's hash tables are all transient builds. [~after] sweeps every
   crash point from the first pool chunk on, up to the first run no fault
   reaches; after each fired crash, Memtrack.live is where it started. *)
let test_crash_releases_transient_indexes () =
  let module Catalog = Rs_exec.Catalog in
  let module Executor = Rs_exec.Executor in
  let module Kernel = Rs_exec.Kernel in
  let module Plan = Rs_exec.Plan in
  let module Dedup = Rs_relation.Dedup in
  let module Memtrack = Rs_storage.Memtrack in
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let catalog = Catalog.create () in
  let rel rows = Relation.of_rows 2 (List.map (fun (x, y) -> [| x; y |]) rows) in
  let edges = List.init 40 (fun i -> (i, (i * 7) mod 40)) in
  Catalog.register catalog "e" (rel edges);
  Catalog.register catalog "p@delta" (rel (List.filteri (fun i _ -> i mod 2 = 0) edges));
  let ex = Executor.create pool catalog in
  let plan =
    Plan.join2 ~out:[| Rs_exec.Expr.Col 0; Rs_exec.Expr.Col 3 |] (Plan.Scan "p@delta") [| 1 |]
      (Plan.Scan "e") [| 0 |]
  in
  let k =
    match Kernel.compile ex ~probe_table:"p@delta" plan with
    | Ok k -> k
    | Error reason -> Alcotest.failf "binary kernel refused: %s" reason
  in
  let r = rel (List.init 30 (fun i -> (i, i + 1))) in
  let rdelta = rel (List.init 50 (fun i -> (i, i + 1 + (i mod 3)))) in
  let sweep what run =
    let rec go after =
      let live = Memtrack.live () in
      let faults = Fault.plan [ Fault.spec ~after ~limit:1 Fault.Crash ] in
      match Inject.with_plan faults run with
      | () -> check (what ^ ": some crash point fired") true (after > 0)
      | exception Fault.Injected _ ->
          Alcotest.(check int)
            (Printf.sprintf "%s: live bytes after a crash at after=%d" what after)
            live (Memtrack.live ());
          go (after + 1)
    in
    go 0
  in
  sweep "binary kernel" (fun () ->
      let dedup = Dedup.create Dedup.Fast 2 in
      Fun.protect ~finally:(fun () -> Dedup.release dedup) (fun () ->
          ignore (Kernel.run ex k ~dedup ~r_set:(empty_r_set 2) ~out:(Relation.create 2))));
  (* R smaller than Rδ: TPSD builds on R; larger: on Rδ *)
  List.iter
    (fun (what, r, rdelta) ->
      sweep ("opsd, " ^ what) (fun () -> Relation.release (Executor.opsd ex ~rdelta ~r ()));
      sweep ("tpsd, " ^ what) (fun () -> Relation.release (Executor.tpsd ex ~rdelta ~r ())))
    [ ("small R", r, rdelta); ("large R", rdelta, r) ]

(* --- provenance × kernels: all-or-nothing tagging -------------------------- *)

(* Tags are recorded at the single absorption point both paths share, so a
   per-IDB compile decision (or a mid-fixpoint kernel fault bouncing rounds
   between the fused and interpreted paths) must never yield a relation
   where only the kernel-emitted tuples carry tags. *)
let run_prov ?plan ~kernels src edb =
  let program = Parser.parse src in
  let body () =
    let pool = Pool.create ~workers:4 () in
    Pool.begin_run pool;
    let edb =
      List.map
        (fun (name, arity, rows) ->
          (name, Relation.of_rows ~name arity (List.map Array.of_list rows)))
        edb
    in
    let prov = Recstep.Provenance.create () in
    let options =
      Interpreter.options ~pbme:false ~compiled_kernels:kernels ~provenance:prov ()
    in
    let result = Interpreter.run ~options ~pool ~edb program in
    let outs =
      List.map
        (fun name -> (name, canon (result.Interpreter.relation_of name)))
        program.Recstep.Ast.outputs
    in
    (outs, prov)
  in
  match plan with
  | None -> body ()
  | Some p -> Inject.with_plan (Fault.plan_of_string ~seed:7 p) body

let assert_full_coverage ~what outs prov =
  List.iter
    (fun (name, rows) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: every %s tuple tagged" what name)
        (List.length rows)
        (Recstep.Provenance.tagged prov ~pred:name);
      List.iter
        (fun row ->
          check
            (Printf.sprintf "%s: tag present for %s row" what name)
            true
            (Recstep.Provenance.find prov ~pred:name row <> None))
        rows)
    outs

let test_provenance_all_or_nothing () =
  let on, prov_on = run_prov ~kernels:true tc_src tc_edb in
  let off, prov_off = run_prov ~kernels:false tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "kernel and interpreted outputs identical under provenance" off on;
  assert_full_coverage ~what:"kernels on" on prov_on;
  assert_full_coverage ~what:"kernels off" off prov_off

let test_provenance_kernel_chaos () =
  (* one exec-time kernel fault: that round re-runs interpreted, later
     rounds run fused — the relation crosses both emit paths mid-fixpoint
     and must still end up fully tagged with the same rows *)
  let clean, _ = run_prov ~kernels:false tc_src tc_edb in
  let faulted, prov =
    run_prov ~plan:"kernel:p=1,after=1,limit=1" ~kernels:true tc_src tc_edb
  in
  Alcotest.(check (list (pair string (list (list int)))))
    "kernel fault never changes the answer under provenance" clean faulted;
  assert_full_coverage ~what:"faulted" faulted prov

(* --- FAST-DEDUP accounting ---------------------------------------------- *)

(* A kernel offers its dedup table the same candidate multiset the
   interpreted plan materializes as a bag, so dedup.probes and dedup.hits
   must agree exactly with kernels on and off — which also shows both paths
   run the same exact delta plans. The kernel's claims into R's set replace
   the interpreted set difference, so every stratum, iteration and IDB
   must get the same |Δ| with kernels on, kernels off, and kernels on over
   a transient per-iteration set (persistent indexes off). An
   aggregated IDB never compiles (the cost gate refuses it), so its case
   only shows the interpreted run is deterministic; test_core pins its
   plans' full scans. The "wide round" arc has more than 2^14 rows, so
   TC's first kernel round estimates past the dedup table's pre-allocation
   ceiling; that round claims 16,900 distinct pairs (130 sources x 2 hubs
   x 130 sinks, each pair twice), so its table grows inside [Kernel.run].
   The 16,200 disjoint padding edges derive nothing further. *)
let test_dedup_counters_agree () =
  let module Pa = Rs_datagen.Prog_analysis in
  let gnp () = [ ("arc", Rs_datagen.Graphs.gnp ~seed:3 ~n:80 ~p:0.05) ] in
  let wide_round () =
    let fan = List.init 130 Fun.id and hubs = [ 1000; 1001 ] in
    let rows =
      List.concat_map (fun a -> List.map (fun h -> [| a; h |]) hubs) fan
      @ List.concat_map (fun h -> List.map (fun c -> [| h; 2000 + c |]) fan) hubs
      @ List.init 16_200 (fun i -> [| 10_000 + (2 * i); 10_001 + (2 * i) |])
    in
    [ ("arc", Relation.of_rows ~name:"arc" 2 rows) ]
  in
  let mutual =
    ".input arc\n\
     a(x, y) :- arc(x, y).\n\
     b(x, z) :- a(x, y), a(y, z).\n\
     a(x, z) :- b(x, y), a(y, z).\n\
     .output a\n.output b"
  in
  let aggregated =
    ".input arc\nm(x, MIN(y)) :- arc(x, y).\nm(x, MIN(y)) :- m(x, z), m(z, y).\n.output m"
  in
  List.iter
    (fun (what, compiles, src, inputs) ->
      let counts ?persistent_indexes kernels =
        let deltas = ref [] in
        let on_iteration (it : Interpreter.iteration_info) =
          deltas :=
            ((it.Interpreter.it_stratum, it.it_iteration), (it.it_idb, it.it_delta_rows))
            :: !deltas
        in
        let _, tr =
          run_rels ?persistent_indexes ~on_iteration ~kernels (Parser.parse src) (inputs ())
        in
        (tr, c tr "dedup.probes", c tr "dedup.hits", List.rev !deltas)
      in
      let tr, probes_on, hits_on, deltas_on = counts true in
      let _, probes_off, hits_off, deltas_off = counts false in
      let _, _, _, deltas_transient = counts ~persistent_indexes:false true in
      let same_deltas = Alcotest.(check (list (pair (pair int int) (pair string int)))) in
      check (what ^ ": iterations recorded") true (deltas_on <> []);
      same_deltas (what ^ ": |Δ| per iteration, kernels on = off") deltas_off deltas_on;
      same_deltas (what ^ ": |Δ| per iteration, persistent = transient anti-probe index")
        deltas_on deltas_transient;
      check (what ^ ": kernels ran") compiles (c tr "kernel.execs" > 0);
      (* every recursive rule of the compiling programs is a 2- or 3-atom
         chain *)
      if compiles then
        Alcotest.(check int) (what ^ ": no rule fell back") 0 (c tr "kernel.fallback_rules");
      check (what ^ ": candidates were deduplicated") true (hits_on > 0);
      Alcotest.(check int) (what ^ ": dedup.probes on = off") probes_off probes_on;
      Alcotest.(check int) (what ^ ": dedup.hits on = off") hits_off hits_on)
    [
      ("tc", true, Recstep.Programs.tc, gnp);
      ("tc, wide round", true, Recstep.Programs.tc, wide_round);
      ("sg", true, Recstep.Programs.sg, gnp);
      ("mutual non-linear", true, mutual, gnp);
      ("aggregated non-linear", false, aggregated, gnp);
      ("csda", true, Recstep.Programs.csda, fun () -> Pa.csda_input ~seed:3 ~scale:1 "httpd");
      ("cspa", true, Recstep.Programs.cspa, fun () -> Pa.cspa_input ~seed:3 ~scale:1 "httpd");
      ("andersen", true, Recstep.Programs.andersen, fun () -> Pa.andersen ~seed:3 ~nvars:300);
    ]

(* --- exact deltas: earlier recursive atoms read the old rows --------------- *)

(* The delta plans the planner gives [head]'s rules, in rule order. *)
let delta_plans src head =
  let an = Recstep.Analyzer.analyze (Parser.parse src) in
  let stratum = List.find (fun s -> List.mem head s.Recstep.Analyzer.preds) an.Recstep.Analyzer.strata in
  List.concat_map
    (fun r ->
      if r.Recstep.Ast.head_pred <> head then []
      else
        match Recstep.Planner.compile_rule an stratum r with
        | Recstep.Planner.Query { deltas; _ } -> List.map snd deltas
        | Recstep.Planner.Fact _ -> [])
    stratum.Recstep.Analyzer.rules

(* Replace every [Old] read of [plan] with [old_rows] as an anonymous
   relation, or with a full scan of its table. *)
let rec materialize ?old_rows plan =
  let module Plan = Rs_exec.Plan in
  match plan with
  | Plan.Old { table; _ } -> (
      match old_rows with
      | Some rows -> Plan.Rel (Relation.of_rows 2 (List.map Array.of_list rows))
      | None -> Plan.Scan table)
  | Plan.Filter (ps, p) -> Plan.Filter (ps, materialize ?old_rows p)
  | Plan.Join j -> Plan.Join { j with l = materialize ?old_rows j.l; r = materialize ?old_rows j.r }
  | p -> p

(* One plan fused over a catalog where "p" ends with its Δ "p@delta", as
   the interpreter keeps it. The kernel's output must be the executor's bag
   for the same plan with its old rows materialized, deduplicated, and the
   kernel must offer exactly the bag's rows to its dedup table. Returns the
   number offered. *)
let kernel_vs_executor ~what ~p_rows ~delta_rows plan =
  let module Catalog = Rs_exec.Catalog in
  let module Executor = Rs_exec.Executor in
  let module Kernel = Rs_exec.Kernel in
  let module Dedup = Rs_relation.Dedup in
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let catalog = Catalog.create () in
  let reg name rows =
    Catalog.register catalog name (Relation.of_rows ~name 2 (List.map Array.of_list rows))
  in
  reg "p" (p_rows @ delta_rows);
  reg "p@delta" delta_rows;
  let index_manager = Rs_exec.Index_manager.create ~persistent:(fun n -> n = "p") pool in
  let ex = Executor.create ~index_manager ~trace pool catalog in
  let bag = Executor.run_query ex (materialize ~old_rows:p_rows plan) in
  let k =
    match Kernel.compile ex ~probe_table:"p@delta" plan with
    | Ok k -> k
    | Error reason -> Alcotest.failf "%s: kernel refused: %s" what reason
  in
  let dedup = Dedup.create Dedup.Fast 2 in
  let out = Relation.create 2 in
  ignore (Kernel.run ex k ~dedup ~r_set:(empty_r_set 2) ~out);
  Dedup.release dedup;
  Alcotest.(check (list (list int))) (what ^ ": kernel = executor") (canon bag) (canon out);
  Alcotest.(check int) (what ^ ": offered = bag rows") (Relation.nrows bag) (c trace "dedup.probes");
  Relation.nrows bag

let test_kernel_old_steps () =
  let p_rows = [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ]; [ 1; 4 ] ] in
  let delta_rows = [ [ 2; 1 ]; [ 4; 2 ]; [ 1; 3 ] ] in
  (* p(x, z) :- p(x, y), p(y, z) with Δ second: a Binary kernel whose build
     side is the old rows of p *)
  let binary = delta_plans ".input e\np(x, y) :- e(x, y).\np(x, z) :- p(x, y), p(y, z).\n.output p" "p" in
  (* p(x, w) :- p(x, y), p(y, z), p(z, w) with Δ last: a Chain kernel with
     two old steps before the Δ *)
  let chain =
    delta_plans ".input e\np(x, y) :- e(x, y).\np(x, w) :- p(x, y), p(y, z), p(z, w).\n.output p" "p"
  in
  let run what plan = kernel_vs_executor ~what ~p_rows ~delta_rows plan in
  (* the old rows matter: reading the full tables instead derives more *)
  let full what plan = run (what ^ " over full tables") (materialize plan) in
  match (binary, chain) with
  | [ _; b ], [ _; _; ch ] ->
      check "binary: old rows bound the build side" true (run "binary" b < full "binary" b);
      check "chain: old rows bound both steps" true (run "chain" ch < full "chain" ch)
  | _ -> Alcotest.fail "expected 2 and 3 delta plans"

(* (what, program, EDB): non-linear rules whose plans read old rows. *)
let exact_cases =
  [
    ( "non-linear TC",
      ".input e0\np0(x, y) :- e0(x, y).\np0(x, z) :- p0(x, y), p0(y, z).\n.output p0",
      [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ]; [ 2; 4 ]; [ 4; 5 ] ]) ] );
    ( "three recursive atoms",
      ".input e0\np0(x, y) :- e0(x, y).\np0(x, w) :- p0(x, y), p0(y, z), p0(z, w).\n.output p0",
      [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ]; [ 6; 2 ] ]) ] );
    (* the old rows of p1 pass through the filter of its constant *)
    ( "mutual recursion, constant on the earlier atom",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p1(y, x) :- p0(x, y).\n\
       p0(x, z) :- p0(x, y), p1(y, 3), p1(y, z).\n\
       .output p0\n.output p1",
      [ ("e0", 2, [ [ 0; 1 ]; [ 3; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 2 ]; [ 4; 3 ]; [ 2; 0 ] ]) ] );
  ]

let test_exact_cases () =
  List.iter
    (fun (what, src, edb) ->
      let tr_on, tr_off = run_all src edb in
      check (what ^ ": kernels executed") true (c tr_on "kernel.execs" > 0);
      Alcotest.(check int) (what ^ ": dedup.probes on = off") (c tr_off "dedup.probes")
        (c tr_on "dedup.probes"))
    exact_cases

(* Non-linear TC on the chain 0 -> 1 -> ... -> n. Round r reads the paths
   of length <= L (L = 1, 2, 4, ..., capped at n) with Δ the ones longer
   than L/2, and a path of length i joins one of length j in
   n - i - j + 1 ways. The exact rewriting derives every joinable pair
   with a Δ row once: pairs(T, T) - pairs(Told, Told) per round. The
   per-occurrence rewriting derived pairs(Δ, T) + pairs(T, Δ), which counts
   the pairs(Δ, Δ) combinations twice. Iteration 0 offers the n edges. *)
let test_nonlinear_tc_probes_pinned () =
  let n = 8 in
  let pairs (ilo, ihi) (jlo, jhi) =
    let acc = ref 0 in
    for i = ilo to ihi do
      for j = jlo to jhi do
        acc := !acc + max 0 (n - i - j + 1)
      done
    done;
    !acc
  in
  let rec rounds lo hi (exact, both, dd) =
    if lo >= hi then (exact, both, dd)
    else
      rounds hi (min n (2 * hi))
        ( exact + pairs (1, hi) (1, hi) - pairs (1, lo) (1, lo),
          both + pairs (lo + 1, hi) (1, hi) + pairs (1, hi) (lo + 1, hi),
          dd + pairs (lo + 1, hi) (lo + 1, hi) )
  in
  let exact, per_occurrence, delta_delta = rounds 0 1 (n, n, 0) in
  Alcotest.(check int) "closed form: the two rewritings differ by Δ⋈Δ" per_occurrence
    (exact + delta_delta);
  Alcotest.(check (list int)) "closed form at n = 8" [ 92; 112; 20 ]
    [ exact; per_occurrence; delta_delta ];
  let src = ".input e0\np0(x, y) :- e0(x, y).\np0(x, z) :- p0(x, y), p0(y, z).\n.output p0" in
  let edb = [ ("e0", 2, List.init n (fun i -> [ i; i + 1 ])) ] in
  let tr_on, tr_off = run_all src edb in
  Alcotest.(check int) "dedup.probes, kernels on" exact (c tr_on "dedup.probes");
  Alcotest.(check int) "dedup.probes, kernels off" exact (c tr_off "dedup.probes")

(* --- the suffix invariant under the Ev_none drain and kernel faults ------ *)

let test_drain_keeps_suffix () =
  (* One Δ is live per round, moving a -> b -> c -> a. In round 1 only b's
     plan runs: a's and c's all skip and their Δs are drained. In round 2
     b's plan skips and Δb is drained while c derives. In round 3 a's plan
     with the Δ at c reads the old rows of b — all of b, since its Δ was
     drained — and must still derive every (b, Δc) combination. *)
  let src =
    ".input e0\n\
     a(x, y) :- e0(x, y).\n\
     b(x, z) :- a(x, y), e0(y, z).\n\
     c(x, z) :- b(x, y), e0(y, z).\n\
     a(x, z) :- b(x, y), c(y, z).\n\
     .output a\n.output b\n.output c"
  in
  let edb = [ ("e0", 2, List.init 12 (fun i -> [ i; (i + 1) mod 12 ])) ] in
  let tr_on, _ = run_all src edb in
  check "kernels executed" true (c tr_on "kernel.execs" > 0);
  let rounds = Trace.iterations tr_on in
  let skipped_while_other_ran =
    List.exists
      (fun (it : Trace.iteration) ->
        it.Trace.it_iteration > 0 && it.Trace.it_delta_rows = 0
        && List.exists
             (fun (o : Trace.iteration) ->
               o.Trace.it_iteration = it.Trace.it_iteration && o.Trace.it_idb <> it.Trace.it_idb
               && o.Trace.it_delta_rows > 0)
             rounds)
      rounds
  in
  check "one IDB drained while the other derived" true skipped_while_other_ran

let test_chaos_bounded_chain () =
  (* Two compile probes pass, then round 1's two executions and round 2's
     first; the fault fires at round 2's second kernel — the chain whose
     first p0 step reads the old rows. Its round re-runs interpreted on the
     same plans and the answer must not change. *)
  let src =
    ".input e0\n.input e1\n\
     p0(x, y) :- e1(x, y).\n\
     p0(x, w) :- e0(x, y), p0(y, z), p0(z, w).\n\
     .output p0"
  in
  let edb =
    [
      ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 0 ] ]);
      ("e1", 2, List.init 8 (fun i -> [ i; (i + 1) mod 8 ]));
    ]
  in
  ignore (run_all src edb);
  let want, _ = run_one ~kernels:false src edb in
  let faulted, tr = run_with_plan "kernel:p=1,after=5,limit=1" src edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "a degraded bounded chain never changes the answer" want faulted;
  Alcotest.(check int) "one degraded round" 1 (c tr "kernel.fallbacks");
  check "later rounds still fused" true (c tr "kernel.execs" > 3)

(* --- R's membership set on kernel strata ---------------------------------- *)

module Dedup = Rs_relation.Dedup
module Index_manager = Rs_exec.Index_manager

(* Per head arity: the base rule and a pool of recursive rules, each with
   its number of recursive occurrences (= delta plans). Every body is
   connected and free of negation and aggregates, so the whole IDB runs on
   kernels: Unary, Binary and Chain shapes, Old steps in the two-occurrence
   rules. *)
let set_rules = function
  | 1 ->
      ( "p(x) :- e(x, y).",
        [
          ("p(y) :- p(x), e(x, y).", 1);
          ("p(y) :- e(y, x), p(x).", 1);
          ("p(z) :- p(x), e(x, y), e(y, z).", 1);
          ("p(y) :- p(x), e(x, y), e(y, z), p(z).", 2);
        ] )
  | 2 ->
      ( "p(x, y) :- e(x, y).",
        [
          ("p(x, y) :- p(x, z), e(z, y).", 1);
          ("p(x, y) :- e(x, z), p(z, y).", 1);
          ("p(y, x) :- p(x, y).", 1);
          ("p(x, y) :- p(x, z), p(z, y).", 2);
          ("p(x, y) :- p(x, z), e(z, w), p(w, y).", 2);
        ] )
  | _ ->
      ( "p(x, y, z) :- e(x, y), e(y, z).",
        [
          ("p(x, y, w) :- p(x, y, z), e(z, w).", 1);
          ("p(y, x, z) :- p(x, y, z).", 1);
          ("p(x, w, z) :- p(x, y, z), p(y, w, z).", 2);
          ("p(x, y, w) :- p(x, y, z), e(z, v), e(v, w).", 1);
        ] )

(* Rules whose delta plans add up to [budget] (1–3) or less, in pool order
   after a rotation; never empty. *)
let pick_rules pool ~rot ~budget =
  let n = List.length pool in
  let rotated = List.init n (fun i -> List.nth pool ((i + rot) mod n)) in
  let rec go used acc = function
    | [] -> List.rev acc
    | (rule, k) :: rest ->
        if used + k <= budget then go (used + k) ((rule, k) :: acc) rest else go used acc rest
  in
  match go 0 [] rotated with [] -> [ List.hd rotated ] | picked -> picked

(* Small values around 0 plus [min_int], [max_int] and 2^31: pairs outside
   the packed range migrate both the dedup table and R's set to the wide
   layout, and an arity-1 [min_int] is the out-of-band key. *)
let gen_value =
  QCheck2.Gen.(frequency [ (8, int_range (-3) 3); (1, oneofl [ min_int; max_int; 1 lsl 31 ]) ])

(* (head arity, rule rotation, delta budget, arc rows, fault picks) *)
let gen_set_case =
  QCheck2.Gen.(
    tup5 (int_range 1 3) (int_range 0 4) (int_range 1 3)
      (list_size (int_range 1 12) (pair gen_value gen_value))
      (pair nat nat))

let set_case_program (arity, rot, budget, _, _) =
  let base, pool = set_rules arity in
  let rules = pick_rules pool ~rot ~budget in
  let src =
    String.concat "\n" ((".input e" :: base :: List.map fst rules) @ [ ".output p" ])
  in
  (src, List.fold_left (fun n (_, k) -> n + k) 0 rules)

let print_set_case ((_, _, _, arcs, (f1, f2)) as case) =
  Printf.sprintf "%s\narcs [%s] picks (%d, %d)" (fst (set_case_program case))
    (String.concat "; " (List.map (fun (x, y) -> Printf.sprintf "%d,%d" x y) arcs))
    f1 f2

(* One kernel run whose head table's set lives in a manager the test
   holds. After every iteration of [p], the set a reader is served must
   hold exactly [p]'s rows; returns (rows, iterations where it did not,
   trace). *)
let run_set_audited ?plan ~arity src arcs =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let shared = Index_manager.create ~persistent:(fun n -> n = "p") pool in
  let keys = Array.init arity Fun.id in
  let bad = ref 0 in
  let on_iteration (info : Interpreter.iteration_info) =
    if info.it_idb = "p" then
      match Index_manager.peek_set shared ~name:"p" keys with
      | None -> incr bad
      | Some (rel, _) ->
          let set = Index_manager.get_set shared ~name:"p" rel keys in
          let row i = Array.init arity (fun c -> Relation.get rel ~row:i ~col:c) in
          let n = Relation.nrows rel in
          if
            Dedup.cardinal set <> n
            || not (List.for_all (fun i -> Dedup.mem_row set (row i)) (List.init n Fun.id))
          then incr bad
  in
  let options =
    Interpreter.options ~pbme:false ~compiled_kernels:true ~shared_indexes:shared ~trace ()
  in
  let edb = [ ("e", Relation.of_rows ~name:"e" 2 (List.map (fun (x, y) -> [| x; y |]) arcs)) ] in
  let run () = Interpreter.run ~options ~on_iteration ~pool ~edb (Parser.parse src) in
  let result = match plan with None -> run () | Some p -> Inject.with_plan p run in
  let rows = canon (result.Interpreter.relation_of "p") in
  Index_manager.release_all shared;
  (rows, !bad, trace)

let prop_kernel_keeps_r_set =
  QCheck2.Test.make ~name:"kernel strata keep R's membership set = R" ~count:200
    ~print:print_set_case gen_set_case (fun ((arity, _, _, arcs, (f1, f2)) as case) ->
      let src, k = set_case_program case in
      let rows, bad, tr = run_set_audited ~arity src arcs in
      let oracle =
        snd (Recstep.Naive.run ~edb:[ ("e", List.map (fun (x, y) -> [ x; y ]) arcs) ] (Parser.parse src))
          "p"
      in
      let execs = c tr "kernel.execs" in
      (* Every live round runs all [k] kernels (they all scan Δp), after the
         [k] compile probes: probe [k + k*i + q] with [q >= 1] is a later
         kernel of round [i], after an earlier one has claimed into R's set. *)
      let armed_ok =
        if k < 2 || execs < k then true
        else
          let after = k + (k * (f1 mod (execs / k))) + 1 + (f2 mod (k - 1)) in
          let plan = Fault.plan ~seed:1 [ Fault.spec ~after ~limit:1 Fault.Kernel_fail ] in
          let rows', bad', tr' = run_set_audited ~plan ~arity src arcs in
          rows' = rows && bad' = 0 && c tr' "kernel.fallbacks" = 1
      in
      c tr "kernel.compiled_rules" > 0 && rows = oracle && bad = 0 && armed_ok)

(* --- one probe loop for every body: random single-rule programs --------- *)

(* A random recursive rule for [p] (arity 2) over [e] (arity 2), [f]
   (arity 3) and [p] itself, built from [seed]: a Δ-able [p] atom plus 0–2
   atoms, each sharing a variable with the atoms before it, so every body
   compiles. Arguments repeat bound variables (2-column keys, and
   equalities a key cannot hold), take constants (filters) or wildcards; a
   second [p] atom gives delta plans with [Old] steps; the head may hold a
   constant (a computed head) and the body one comparison (a residual).
   Atoms are shuffled, so the Δ-atom drives from any body position. *)
let random_rule seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let bound = ref [] and nvars = ref 0 in
  let var v = Printf.sprintf "v%d" v in
  let pick l = List.nth l (int (List.length l)) in
  let fresh () =
    incr nvars;
    !nvars - 1
  in
  let atom pred arity ~first =
    let args = Array.make arity "_" in
    let link = int arity in
    let mine = ref [] in
    for i = 0 to arity - 1 do
      let v =
        if i = link && not first then Some (pick !bound)
        else
          match int 7 with
          | 0 -> None
          | 1 -> (
              args.(i) <- string_of_int (int 4);
              None)
          | 2 when !mine <> [] -> Some (pick !mine)
          | 3 | 4 when !bound <> [] -> Some (pick !bound)
          | _ -> Some (fresh ())
      in
      match v with
      | Some v ->
          args.(i) <- var v;
          mine := v :: !mine
      | None -> ()
    done;
    (* the first atom must bind a variable for the others to link to *)
    if first && !mine = [] then begin
      let v = fresh () in
      args.(0) <- var v;
      mine := [ v ]
    end;
    bound := List.sort_uniq compare (!mine @ !bound);
    Printf.sprintf "%s(%s)" pred (String.concat ", " (Array.to_list args))
  in
  let first = atom "p" 2 ~first:true in
  let others =
    List.init (int 3) (fun _ ->
        match int 3 with 0 -> atom "e" 2 ~first:false | 1 -> atom "f" 3 ~first:false | _ -> atom "p" 2 ~first:false)
  in
  let body = List.map snd (List.sort compare (List.map (fun a -> (int 1000, a)) (first :: others))) in
  let head_arg () = if int 5 = 0 then string_of_int (int 4) else var (pick !bound) in
  let head = Printf.sprintf "p(%s, %s)" (head_arg ()) (head_arg ()) in
  let residual =
    if int 2 = 0 then []
    else
      let rhs = if int 2 = 0 then string_of_int (int 4) else var (pick !bound) in
      [ Printf.sprintf "%s %s %s" (var (pick !bound)) (pick [ "="; "!="; "<"; "<="; ">"; ">=" ]) rhs ]
  in
  Printf.sprintf "%s :- %s." head (String.concat ", " (body @ residual))

let random_rule_src seed =
  ".input e\n.input f\np(x, y) :- e(x, y).\n" ^ random_rule seed ^ "\n.output p"

(* Mostly a few values, so bodies join; sometimes a wider one, so 1- and
   2-column keys share buckets and the chain walk must compare keys. *)
let gen_small = QCheck2.Gen.(frequency [ (6, int_range 0 4); (1, int_range 5 40) ])

(* (rule seed, e rows, f rows, p's old rows, p's Δ rows) *)
let gen_rule_case =
  QCheck2.Gen.(
    let pairs = list_size (int_range 0 12) (pair gen_small gen_small) in
    tup5 (int_bound 1_000_000_000) pairs
      (list_size (int_range 0 12) (triple gen_small gen_small gen_small))
      pairs pairs)

let print_rule_case (seed, e, f, old, delta) =
  let pairs l = String.concat "; " (List.map (fun (x, y) -> Printf.sprintf "%d,%d" x y) l) in
  Printf.sprintf "%s\ne [%s] f [%s] old [%s] delta [%s]" (random_rule_src seed) (pairs e)
    (String.concat "; " (List.map (fun (x, y, z) -> Printf.sprintf "%d,%d,%d" x y z) f))
    (pairs old) (pairs delta)

(* Every delta plan of the rule, fused over a catalog where "p" ends with
   its Δ "p@delta": the kernel's output must be the executor's bag for the
   same plan with the old rows materialized, deduplicated, and it must
   offer the bag's rows and claim its distinct ones. Each plan runs again
   with an arithmetic head over the same columns. *)
let plans_match_executor src ~e ~f ~old ~delta =
  let module Expr = Rs_exec.Expr in
  let module Plan = Rs_exec.Plan in
  let module Catalog = Rs_exec.Catalog in
  let module Executor = Rs_exec.Executor in
  let module Kernel = Rs_exec.Kernel in
  let rows l = List.map (fun (x, y) -> [ x; y ]) l in
  let computed =
    Array.mapi (fun i e -> if i = 0 then Expr.Add (Expr.Mul (e, Expr.Const 3), Expr.Const (-1)) else Expr.Sub (e, Expr.Const 2))
  in
  let with_computed = function
    | Plan.Project (out, src) -> Plan.Project (computed out, src)
    | Plan.Join ({ out = Some out; _ } as j) -> Plan.Join { j with out = Some (computed out) }
    | p -> p
  in
  List.for_all
    (fun plan ->
      List.for_all
        (fun plan ->
          let pool = Pool.create ~workers:4 () in
          Pool.begin_run pool;
          let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
          let catalog = Catalog.create () in
          let reg name arity rows =
            Catalog.register catalog name (Relation.of_rows ~name arity (List.map Array.of_list rows))
          in
          reg "p" 2 (rows (old @ delta));
          reg "p@delta" 2 (rows delta);
          reg "e" 2 (rows e);
          reg "f" 3 (List.map (fun (x, y, z) -> [ x; y; z ]) f);
          let index_manager = Rs_exec.Index_manager.create ~persistent:(fun n -> n = "p") pool in
          let ex = Executor.create ~index_manager ~trace pool catalog in
          let bag = Executor.run_query ex (materialize ~old_rows:(rows old) plan) in
          match Kernel.compile ex ~probe_table:"p@delta" plan with
          | Error reason -> QCheck2.Test.fail_reportf "kernel refused: %s" reason
          | Ok k ->
              let dedup = Dedup.create Dedup.Fast 2 in
              let out = Relation.create 2 in
              let claimed = Kernel.run ex k ~dedup ~r_set:(empty_r_set 2) ~out in
              Dedup.release dedup;
              Rs_exec.Index_manager.release_all index_manager;
              let distinct = canon bag in
              canon out = distinct
              && c trace "dedup.probes" = Relation.nrows bag
              && claimed = List.length distinct
              && c trace "kernel.emitted" = claimed)
        [ plan; with_computed plan ])
    (delta_plans src "p")

let prop_one_loop_every_body =
  QCheck2.Test.make ~name:"one probe loop: random bodies, kernels on = off = naive" ~count:300
    ~print:print_rule_case gen_rule_case (fun (seed, e, f, old, delta) ->
      let src = random_rule_src seed in
      let edb =
        [
          ("e", 2, List.map (fun (x, y) -> [ x; y ]) (List.sort_uniq compare e));
          ("f", 3, List.map (fun (x, y, z) -> [ x; y; z ]) f);
        ]
      in
      let on, tr_on = run_one ~kernels:true src edb in
      let off, tr_off = run_one ~kernels:false src edb in
      let _, lookup =
        Recstep.Naive.run ~edb:(List.map (fun (name, _, rows) -> (name, rows)) edb) (Parser.parse src)
      in
      let base = List.length (List.sort_uniq compare e) in
      (* the base rule's one interpreted dedup pass offers e's distinct
         rows in both runs; every later candidate goes through a kernel or
         through the interpreted pass, and the kernels' fresh claims are
         the interpreted pass's distinct candidates *)
      on = [ ("p", lookup "p") ]
      && off = on
      && c tr_on "kernel.fallback_rules" = 0
      && c tr_on "kernel.compiled_rules" > 0
      && c tr_on "dedup.probes" = c tr_off "dedup.probes"
      && c tr_on "dedup.hits" = c tr_off "dedup.hits"
      && c tr_on "kernel.emitted" = c tr_off "dedup.probes" - c tr_off "dedup.hits" - base
      && plans_match_executor src ~e ~f ~old ~delta)

let suite =
  [
    Alcotest.test_case "arity-2 kernel matches interpreted" `Quick test_arity2;
    Alcotest.test_case "arity-1 kernel matches interpreted" `Quick test_arity1;
    Alcotest.test_case "arity-3 kernel matches interpreted" `Quick test_arity3;
    Alcotest.test_case "unary (no-join) kernel shape" `Quick test_unary_shape;
    Alcotest.test_case "local predicates fused into the closure" `Quick test_filters_fused;
    Alcotest.test_case "chain: three-atom rules match interpreted" `Quick test_chain_cases;
    Alcotest.test_case "chain: disconnected body stays interpreted" `Quick
      test_chain_disconnected;
    Alcotest.test_case "chain: an equality beyond the key is tested" `Quick
      test_chain_extra_equality;
    Alcotest.test_case "gate: wide head stays interpreted" `Quick test_fallback_wide_head;
    Alcotest.test_case "gate: negation stays interpreted" `Quick test_fallback_negation;
    Alcotest.test_case "cold rules never touch the kernel path" `Quick
      test_cold_rules_not_compiled;
    Alcotest.test_case "chaos: compile fault falls back" `Quick test_chaos_compile_fault;
    Alcotest.test_case "chaos: one exec fault degrades one round" `Quick
      test_chaos_exec_fault;
    Alcotest.test_case "chaos: persistent exec faults stay correct" `Quick
      test_chaos_persistent_exec_fault;
    Alcotest.test_case "chaos: a crash releases transient indexes" `Quick
      test_crash_releases_transient_indexes;
    Alcotest.test_case "provenance: kernel and interpreted tag all-or-nothing"
      `Quick test_provenance_all_or_nothing;
    Alcotest.test_case "provenance: kernel chaos keeps full tag coverage" `Quick
      test_provenance_kernel_chaos;
    Alcotest.test_case "dedup counters agree with kernels on and off" `Quick
      test_dedup_counters_agree;
    Alcotest.test_case "exact deltas: Old steps in binary and chain kernels" `Quick
      test_kernel_old_steps;
    Alcotest.test_case "exact deltas: non-linear rules match the oracle" `Quick test_exact_cases;
    Alcotest.test_case "exact deltas: non-linear TC probes in closed form" `Quick
      test_nonlinear_tc_probes_pinned;
    Alcotest.test_case "exact deltas: Ev_none drain keeps the suffix" `Quick
      test_drain_keeps_suffix;
    Alcotest.test_case "exact deltas: chaos on a bounded chain kernel" `Quick
      test_chaos_bounded_chain;
    QCheck_alcotest.to_alcotest prop_kernel_keeps_r_set;
    QCheck_alcotest.to_alcotest prop_one_loop_every_body;
  ]
