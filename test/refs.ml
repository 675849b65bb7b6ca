(* Reference implementations used to validate the engines: straightforward,
   obviously-correct algorithms on edge lists. *)

module IntPairSet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

module IntSet = Set.Make (Int)

let pairs_of_relation r =
  let n = Rs_relation.Relation.nrows r in
  let rec go i acc =
    if i = n then acc
    else
      go (i + 1)
        (IntPairSet.add
           ( Rs_relation.Relation.get r ~row:i ~col:0,
             Rs_relation.Relation.get r ~row:i ~col:1 )
           acc)
  in
  go 0 IntPairSet.empty

(* transitive closure by iterated composition *)
let transitive_closure edges =
  let edges = IntPairSet.of_list edges in
  let rec fix tc =
    let next =
      IntPairSet.fold
        (fun (x, z) acc ->
          IntPairSet.fold
            (fun (z', y) acc -> if z = z' then IntPairSet.add (x, y) acc else acc)
            edges acc)
        tc tc
    in
    if IntPairSet.equal next tc then tc else fix next
  in
  fix edges

(* same generation: sg = { (x,y) | x<>y, same parent } closed under
   sg(x,y) <- arc(a,x), sg(a,b), arc(b,y) *)
let same_generation edges =
  let children a = List.filter_map (fun (p, c) -> if p = a then Some c else None) edges in
  let base =
    List.concat_map
      (fun (p, x) -> List.filter_map (fun (p', y) -> if p = p' && x <> y then Some (x, y) else None) edges)
      edges
  in
  let rec fix sg =
    let next =
      IntPairSet.fold
        (fun (a, b) acc ->
          List.fold_left
            (fun acc x ->
              List.fold_left (fun acc y -> IntPairSet.add (x, y) acc) acc (children b))
            acc (children a))
        sg sg
    in
    if IntPairSet.equal next sg then sg else fix next
  in
  fix (IntPairSet.of_list base)

let reachable edges sources =
  let rec bfs visited frontier =
    if IntSet.is_empty frontier then visited
    else begin
      let next =
        IntSet.fold
          (fun x acc ->
            List.fold_left
              (fun acc (u, v) -> if u = x && not (IntSet.mem v visited) then IntSet.add v acc else acc)
              acc edges)
          frontier IntSet.empty
      in
      bfs (IntSet.union visited next) next
    end
  in
  let init = IntSet.of_list sources in
  bfs init init

(* single-source shortest paths, weighted edges (x, y, d) *)
let dijkstra edges source =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist source 0;
  let rec relax () =
    let changed = ref false in
    List.iter
      (fun (x, y, d) ->
        match Hashtbl.find_opt dist x with
        | Some dx ->
            let cand = dx + d in
            (match Hashtbl.find_opt dist y with
            | Some dy when dy <= cand -> ()
            | _ ->
                Hashtbl.replace dist y cand;
                changed := true)
        | None -> ())
      edges;
    if !changed then relax ()
  in
  relax ();
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) dist [] |> List.sort compare

(* connected components (directed edges propagate labels both... the paper's
   CC program propagates min labels along directed edges only) *)
let cc_min_label edges =
  let nodes = List.concat_map (fun (x, y) -> [ x; y ]) edges |> List.sort_uniq compare in
  (* the Datalog program: cc3(x, MIN(x)) :- arc(x, _). then propagation
     cc3(y, MIN(z)) :- cc3(x, z), arc(x, y). (directed!) *)
  let label = Hashtbl.create 64 in
  List.iter (fun (x, _) -> Hashtbl.replace label x (min x (Option.value (Hashtbl.find_opt label x) ~default:max_int))) edges;
  let rec fix () =
    let changed = ref false in
    List.iter
      (fun (x, y) ->
        match Hashtbl.find_opt label x with
        | Some lx -> (
            match Hashtbl.find_opt label y with
            | Some ly when ly <= lx -> ()
            | _ ->
                Hashtbl.replace label y lx;
                changed := true)
        | None -> ())
      edges;
    if !changed then fix ()
  in
  fix ();
  ignore nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) label [] |> List.sort compare

(* random small graph generator for qcheck *)
let arbitrary_edges ?(max_nodes = 12) ?(max_edges = 30) () =
  QCheck2.Gen.(
    let* n = int_range 1 max_nodes in
    let* m = int_range 0 max_edges in
    let* pairs = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (List.sort_uniq compare pairs))

let relation_of_edges ?(name = "arc") edges =
  Recstep.Frontend.edges ~name edges

let sorted_pairs rows = List.sort compare (List.map (fun r -> (r.(0), r.(1))) rows)

(* --- fuzz regression corpus ---------------------------------------------
   Named (program source, EDB) cases diffed against the naive oracle across
   every engine and toggle configuration. The first two are minimal
   reproducers for real bugs the differential fuzzer caught. *)

let fuzz_corpus : (string * string * (string * int list list) list) list =
  [
    (* Souffle-like evaluated per-row equality checks before binding the
       row's registers, so a repeated variable inside one atom compared
       against a stale register (lost and phantom tuples). *)
    ( "repeated var with const and cmp",
      ".input e0\n.input e1\np0(w, w, w) :- e0(w, w), e1(1, w), w < 2.\n.output p0",
      [ ("e0", [ [ 1; 1 ] ]); ("e1", [ [ 1; 1 ] ]) ] );
    (* bddbddb-like sized its bit width from the EDB active domain only, so
       a rule constant wider than any EDB value was truncated and aliased a
       small value (phantom tuples). *)
    ( "rule constant wider than EDB domain",
      ".input e0\np0(y, y) :- e0(6, y).\n.output p0",
      [ ("e0", [ [ 0; 0 ] ]) ] );
    ( "tc over a disconnected graph",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       .output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 5; 6 ]; [ 6; 5 ] ]) ] );
    ( "mutual recursion",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p1(x, y) :- p0(x, z), e0(z, y).\n\
       p0(x, y) :- p1(x, z), e0(z, y).\n\
       .output p0\n.output p1",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]) ] );
    ( "negation against a lower stratum",
      ".input e0\n.input e1\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       p1(x, y) :- p0(x, y), !e1(x, y).\n\
       .output p0\n.output p1",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]); ("e1", [ [ 0; 2 ]; [ 1; 1 ] ]) ] );
    ( "duplicate identical rules",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       .output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ] ]) ] );
    ( "comparisons and arithmetic",
      ".input e0\n\
       p0(x, y) :- e0(x, y), x < y, y <= 4.\n\
       p1(x) :- e0(x, y), y = x + 1.\n\
       .output p0\n.output p1",
      [ ("e0", [ [ 0; 1 ]; [ 1; 3 ]; [ 3; 7 ]; [ 2; 2 ]; [ 4; 5 ] ]) ] );
    ( "ternary recursion with wildcard",
      ".input e1\n\
       p0(x, y, z) :- e1(x, y, z).\n\
       p0(x, y, w) :- p0(x, y, _), e1(y, w, w).\n\
       .output p0",
      [ ("e1", [ [ 0; 1; 2 ]; [ 1; 2; 2 ]; [ 2; 0; 0 ] ]) ] );
    ( "empty edb",
      ".input e0\np0(x, y) :- e0(x, y).\np0(x, y) :- p0(x, z), e0(z, y).\n.output p0",
      [ ("e0", []) ] );
    (* Exercises every compiled-kernel shape in one case: a binary fused
       join with local predicates on both sides (p0), a unary project-only
       delta plan inside mutual recursion (p1), and a cold non-recursive
       head (p2) the cost gate keeps interpreted. Diffed across the toggle
       matrix this pins kernels-on against kernels-off and the oracle. *)
    ( "kernel shapes: fused join, unary project, cold head",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y), y != x.\n\
       p1(y, x) :- p0(x, y).\n\
       p0(x, y) :- p1(x, z), e0(z, y).\n\
       p2(x) :- p0(x, x).\n\
       .output p0\n.output p1\n.output p2",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ]; [ 2; 2 ] ]) ] );
    (* A non-linear three-atom recursive rule (Andersen's load rule): two
       delta plans, each an n-way chain kernel, one driven from the middle
       atom and one from the last with the first atom reached only through
       the middle one. *)
    ( "kernel shapes: non-linear three-atom chain",
      ".input e0\n.input e1\n\
       p0(x, y) :- e1(x, y).\n\
       p0(x, w) :- e0(x, y), p0(y, z), p0(z, w).\n\
       .output p0",
      [
        ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 3; 3 ]; [ 4; 0 ] ]);
        ("e1", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 1 ]; [ 2; 2 ] ]);
      ] );
    (* Exact deltas in mutual recursion: with the Δ at p1(y, z), the earlier
       p0 and p1(y, 3) read only the rows before their tables' Δs,
       p1's through the filter of its constant. A wrong bound loses or
       repeats derivations. *)
    ( "exact deltas: mutual recursion, constant on an earlier atom",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p1(y, x) :- p0(x, y).\n\
       p0(x, z) :- p0(x, y), p1(y, 3), p1(y, z).\n\
       .output p0\n.output p1",
      [ ("e0", [ [ 0; 1 ]; [ 3; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 2 ]; [ 4; 3 ]; [ 2; 0 ] ]) ] );
    (* Shapes of the compiled chain steps the engines share. A negated
       lower-stratum atom inside a recursive rule is an anti-check tested
       at every recursive round, not once. *)
    ( "chain steps: recursive rule with a negated lower stratum",
      ".input e0\n.input e1\n\
       p1(x, y) :- e1(x, y).\n\
       p1(x, y) :- p1(x, z), e1(z, y).\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y), !p1(x, y).\n\
       .output p0\n.output p1",
      [
        ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ]; [ 1; 4 ] ]);
        ("e1", [ [ 0; 2 ]; [ 2; 0 ]; [ 1; 1 ] ]);
      ] );
    (* The ntc shape: the second atom shares no variable with the first, so
       it is a scan step, and the negation checks the whole cross product. *)
    ( "chain steps: cross body with a negation",
      ".input e0\n.input e1\n\
       p1(x, y) :- e1(x, y).\n\
       p1(x, y) :- p1(x, z), e1(z, y).\n\
       p0(x, y) :- e0(x), e0(y), !p1(x, y).\n\
       .output p0",
      [ ("e0", [ [ 0 ]; [ 1 ]; [ 2 ]; [ 5 ] ]); ("e1", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 2 ] ]) ] );
    (* Constants in probed atoms of recursive rules: one keys its atom next
       to a bound variable, one is the atom's whole key. *)
    ( "chain steps: constants in probed recursive atoms",
      ".input e0\n.input e1\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, 2), e1(z, y).\n\
       p0(x, y) :- p0(x, w), e1(3, y), x != w.\n\
       .output p0",
      [
        ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 2 ]; [ 3; 2 ]; [ 4; 0 ] ]);
        ("e1", [ [ 1; 5 ]; [ 2; 6 ]; [ 3; 7 ]; [ 3; 4 ]; [ 6; 6 ] ]);
      ] );
    (* A repeated variable in a recursive driver atom, and an equality
       whose sides the driver binds both: each must test the driver row
       before any step runs (where the repeated-variable bug above lived). *)
    ( "chain steps: repeated variable and equality on the driver",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, x), e0(x, y).\n\
       p0(x, z) :- p0(x, y), x = y + 1, e0(y, z).\n\
       p0(y, y) :- p0(x, y), e0(y, x).\n\
       .output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 0 ]; [ 2; 1 ]; [ 3; 3 ]; [ 3; 4 ]; [ 1; 5 ] ]) ] );
  ]

(* --- delta-sequence regression corpus -----------------------------------
   Named (program source, EDB, delta stream) cases for the IVM: each delta
   is an ordered op list (is_insert, relation, row); after every applied
   delta the maintained IDB state must equal a from-scratch naive recompute
   on the mirrored EDB. The streams pin the retraction edge cases: real
   deletions under recursion (DRed overdelete/rederive), flip-flops inside
   one delta, retracts of absent rows, and a deletion that empties the
   relation. *)

let delta_corpus :
    (string * string * (string * int list list) list * (bool * string * int list) list list)
    list =
  [
    ( "tc churn: grow, cut, heal, no-op retract",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       .output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ],
      [
        [ (true, "e0", [ 3; 4 ]) ];
        [ (false, "e0", [ 1; 2 ]); (true, "e0", [ 4; 0 ]) ];
        [ (false, "e0", [ 9; 9 ]) ];
        [ (true, "e0", [ 1; 2 ]) ];
      ] );
    ( "dred rederivation: shortcut survives the cut",
      ".input e0\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       .output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]) ],
      [ [ (false, "e0", [ 0; 1 ]) ]; [ (false, "e0", [ 0; 2 ]) ] ] );
    ( "negation stratum: flip-flop nets out, then flips",
      ".input e0\n.input e1\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       p1(x, y) :- p0(x, y), !e1(x, y).\n\
       .output p0\n.output p1",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ] ]); ("e1", [ [ 0; 2 ] ]) ],
      [
        [ (false, "e1", [ 0; 2 ]); (true, "e1", [ 0; 2 ]) ];
        [ (false, "e1", [ 0; 2 ]); (true, "e1", [ 0; 1 ]) ];
      ] );
    ( "retraction empties the relation",
      ".input e0\np0(x, y) :- e0(x, y).\np0(x, y) :- p0(x, z), e0(z, y).\n.output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 0 ] ]) ],
      [ [ (false, "e0", [ 0; 1 ]) ]; [ (false, "e0", [ 1; 0 ]) ] ] );
  ]

(* Frozen chaos regressions: one small recursive program run through the
   serving stack under a fixed fault plan, with the expected outcome label
   of each of the two identical submissions. Labels were frozen from
   observed behaviour at a fixed case seed; drift means the retry ladder,
   the fault vocabulary, or the service recovery loop changed semantics. *)

let chaos_src =
  ".input e0\n\
   p0(x, y) :- e0(x, y).\n\
   p0(x, y) :- p0(x, z), e0(z, y).\n\
   .output p0"

let chaos_edb = [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]) ]

let chaos_corpus : (string * string * string list) list =
  [
    ("single txn abort is retried", "txn:p=1,limit=1", [ "done"; "done" ]);
    ("single worker crash is retried", "crash:p=1,limit=1", [ "done"; "done" ]);
    ("persistent crash ends in a typed fault", "crash:p=1", [ "fault"; "fault" ]);
    ("hard memory pressure ends in a typed oom", "mem:p=1,threshold=256", [ "oom"; "oom" ]);
    ("single index build failure is retried", "index:p=1,limit=1", [ "done"; "done" ]);
    ("corrupted cache entry is recomputed", "cache:p=1,limit=1", [ "done"; "done" ]);
    ("memory blip degrades and completes", "mem:p=1,threshold=1024,limit=1", [ "done"; "done" ]);
    (* Delta_abort fires inside Edb_store.apply's staging loop: the store
       rolls back atomically (version and rows untouched), the cache keeps
       serving the pre-delta version, and both submissions still answer
       correctly — the harness checks rows against the store's final state. *)
    ("aborted delta leaves store and cache consistent", "delta:p=1", [ "done"; "done" ]);
    ("single delta abort only loses that delta", "delta:p=1,limit=1", [ "done"; "done" ]);
    (* Kernel_fail is the one class the interpreter absorbs entirely: a
       fired compile probe leaves the rule interpreted, a fired exec probe
       degrades that round before anything is written, and in both cases
       the submission completes with the exact interpreted answer. *)
    ("kernel faults fall back to the interpreted path", "kernel:p=1", [ "done"; "done" ]);
  ]

(* --- explain regression corpus -------------------------------------------
   Frozen derivation chains: (tag, program, EDB, goal pred, goal row,
   expected tag-free render). Explain's proof search is deterministic over
   the final database alone — rules in source order, candidate premise rows
   in lexicographic order — so every engine that can evaluate the program
   must yield this exact chain, byte for byte, from its own result
   relations. Drift means the search order, the render format, or an
   engine's result rows changed. *)

let explain_corpus :
    (string * string * (string * int list list) list * string * int list * string) list =
  [
    ( "tc chain to edb leaves",
      ".input e0\np0(x, y) :- e0(x, y).\np0(x, y) :- p0(x, z), e0(z, y).\n.output p0",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ],
      "p0",
      [ 0; 3 ],
      "p0(0, 3) <= rule 2: p0(x, y) :- p0(x, z), e0(z, y).\n\
      \  p0(0, 2) <= rule 2: p0(x, y) :- p0(x, z), e0(z, y).\n\
      \    p0(0, 1) <= rule 1: p0(x, y) :- e0(x, y).\n\
      \      e0(0, 1) [edb]\n\
      \    e0(1, 2) [edb]\n\
      \  e0(2, 3) [edb]" );
    ( "sg chain with comparison premise",
      ".input e0\n\
       sg(x, y) :- e0(a, x), e0(a, y), x != y.\n\
       sg(x, y) :- e0(a, x), sg(a, b), e0(b, y).\n\
       .output sg",
      [ ("e0", [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 4 ] ]) ],
      "sg",
      [ 3; 4 ],
      "sg(3, 4) <= rule 2: sg(x, y) :- e0(a, x), sg(a, b), e0(b, y).\n\
      \  e0(1, 3) [edb]\n\
      \  sg(1, 2) <= rule 1: sg(x, y) :- e0(a, x), e0(a, y), x != y.\n\
      \    e0(0, 1) [edb]\n\
      \    e0(0, 2) [edb]\n\
      \    [1 != 2]\n\
      \  e0(2, 4) [edb]" );
    ( "negation chain with absence leaf",
      ".input e0\n.input e1\n\
       p0(x, y) :- e0(x, y).\n\
       p0(x, y) :- p0(x, z), e0(z, y).\n\
       p1(x, y) :- p0(x, y), !e1(x, y).\n\
       .output p0\n.output p1",
      [ ("e0", [ [ 0; 1 ]; [ 1; 2 ] ]); ("e1", [ [ 0; 1 ] ]) ],
      "p1",
      [ 0; 2 ],
      "p1(0, 2) <= rule 3: p1(x, y) :- p0(x, y), !e1(x, y).\n\
      \  p0(0, 2) <= rule 2: p0(x, y) :- p0(x, z), e0(z, y).\n\
      \    p0(0, 1) <= rule 1: p0(x, y) :- e0(x, y).\n\
      \      e0(0, 1) [edb]\n\
      \    e0(1, 2) [edb]\n\
      \  !e1(0, 2) [absent]" );
  ]

(* --- frozen service signature ---------------------------------------------
   Counters, per-query dispositions and explanations of the service
   signature workload (test_service.ml). *)

let service_signature : string list * string list * string list =
  ( [
      "admitted=7"; "autoscale.cache_down=0"; "autoscale.cache_up=0"; "autoscale.down=0";
      "autoscale.evals=0"; "autoscale.up=0"; "cache_hit=3"; "cache_miss=3"; "deadline_miss=1";
      "degraded=1"; "delta_applied=2"; "delta_fault=0"; "delta_noop=0"; "done=6"; "explain=2";
      "fault=0"; "oom=0"; "refreshed=1"; "rejected=2"; "retried=2"; "submitted=9";
      "timeout=1"; "unsupported=0"; "view_built=2"; "view_dropped=1"; "view_seeded=2";
    ],
    [
      "q3 c rejected hit=false retries=0 degraded=-";
      "q4 d rejected hit=false retries=0 degraded=-";
      "q2 b done hit=false retries=2 degraded=half_workers rows=36 checksum=2512c48f64a170d8";
      "q1 a done hit=false retries=0 degraded=- rows=36 checksum=2512c48f64a170d8";
      "q5 a done hit=true retries=0 degraded=- rows=36 checksum=2512c48f64a170d8";
      "q6 a timeout hit=false retries=0 degraded=-";
      "q7 b done hit=true retries=0 degraded=- rows=42 checksum=12d5c0360b65fb1f";
      "q8 c done hit=false retries=0 degraded=- rows=66 checksum=b3954de7e40d7ab";
      "q9 a done hit=true retries=0 degraded=- rows=66 checksum=b3954de7e40d7ab";
    ],
    [
      "explained tc(0, 6) view=true rules=[1;2] depth=6";
      "explained tc(0, 9) view=false rules=[1;2] depth=9";
    ] )
