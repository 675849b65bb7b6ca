module Relation = Rs_relation.Relation
module Delta = Rs_relation.Delta
module Service = Rs_service.Service
module Edb_store = Rs_service.Edb_store
module Result_cache = Rs_service.Result_cache
module Admission = Rs_service.Admission
module Program_key = Rs_service.Program_key
module Script = Rs_service.Script
module Json = Rs_obs.Json

let tc = Recstep.Programs.parsed Recstep.Programs.tc
let sg = Recstep.Programs.parsed Recstep.Programs.sg

let ring n =
  let rows = List.init n (fun i -> [| i; (i + 1) mod n |]) in
  let r = Relation.of_rows ~name:"arc" 2 rows in
  Relation.account r;
  r

let store ?(name = "g") ?(n = 6) () =
  let t = Edb_store.create () in
  Edb_store.define t name [ ("arc", ring n) ];
  t

(* --- program canonicalization --- *)

let test_program_key () =
  let a =
    Recstep.Programs.parsed
      ".input arc\n.output tc\ntc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).\n"
  in
  (* same program, alpha-renamed variables and different whitespace *)
  let b =
    Recstep.Programs.parsed
      ".input arc\n.output tc\ntc(p,q) :- arc(p,q).\ntc(u,w):-tc(u,v),arc(v,w).\n"
  in
  Alcotest.(check string) "alpha-renaming invariant" (Program_key.hash a) (Program_key.hash b);
  Alcotest.(check string)
    "canonical forms equal" (Program_key.canonical a) (Program_key.canonical b);
  Alcotest.(check bool) "tc and sg differ" false (Program_key.hash a = Program_key.hash sg);
  Alcotest.(check int) "hash is 16 hex chars" 16 (String.length (Program_key.hash a))

(* --- result cache unit behaviour --- *)

let test_result_cache () =
  let key v = { Result_cache.program = "p"; edb = "g"; edb_version = v } in
  let value rows = [ ("out", rows) ] in
  let canonical = "tc(v0, v1) :- arc(v0, v1)." in
  let find c k = Result_cache.find c k ~canonical in
  let c = Result_cache.create ~budget_bytes:4096 in
  Alcotest.(check bool) "miss on empty" true (find c (key 1) = None);
  Result_cache.add c (key 1) (value [ [| 1; 2 |] ]) ~canonical;
  Alcotest.(check bool) "hit" true (find c (key 1) <> None);
  Alcotest.(check bool) "version is part of the key" true (find c (key 2) = None);
  let dropped = Result_cache.invalidate_edb c "g" in
  Alcotest.(check int) "invalidation drops the entry" 1 dropped;
  Alcotest.(check bool) "gone" true (find c (key 1) = None);
  let s = Result_cache.stats c in
  Alcotest.(check int) "hits counted" 1 s.Result_cache.hits;
  Alcotest.(check int) "invalidations counted" 1 s.Result_cache.invalidations;
  (* zero budget disables storage entirely *)
  let off = Result_cache.create ~budget_bytes:0 in
  Result_cache.add off (key 1) (value [ [| 1; 2 |] ]) ~canonical;
  Alcotest.(check bool) "budget 0 never stores" true (find off (key 1) = None)

(* The key's program component is a 60-bit hash. Two different programs can
   (adversarially or by bad luck) share it; the lookup must verify the full
   canonical text and deflect the clash to a miss instead of serving the
   other tenant's rows. *)
let test_result_cache_collision () =
  let key = { Result_cache.program = "deadbeef"; edb = "g"; edb_version = 1 } in
  let c = Result_cache.create ~budget_bytes:4096 in
  Result_cache.add c key [ ("out", [ [| 1; 2 |] ]) ] ~canonical:"tc(v0, v1) :- arc(v0, v1).";
  Alcotest.(check bool) "same hash, same program: hit" true
    (Result_cache.find c key ~canonical:"tc(v0, v1) :- arc(v0, v1)." <> None);
  Alcotest.(check bool) "same hash, different program: miss" true
    (Result_cache.find c key ~canonical:"sg(v0, v1) :- arc(v2, v0), arc(v2, v1)." = None);
  let s = Result_cache.stats c in
  Alcotest.(check int) "collision counted" 1 s.Result_cache.collisions;
  Alcotest.(check int) "collision is also a miss" 1 s.Result_cache.misses;
  Alcotest.(check int) "true hit still counted" 1 s.Result_cache.hits

let test_result_cache_lru () =
  let big = List.init 64 (fun i -> [| i; i |]) in
  let key n = { Result_cache.program = n; edb = "g"; edb_version = 1 } in
  let canonical = "" in
  let bytes = Result_cache.value_bytes [ ("out", big) ] in
  (* room for two entries, not three *)
  let c = Result_cache.create ~budget_bytes:(2 * bytes) in
  Result_cache.add c (key "a") [ ("out", big) ] ~canonical;
  Result_cache.add c (key "b") [ ("out", big) ] ~canonical;
  ignore (Result_cache.find c (key "a") ~canonical);
  (* "b" is now least recently used; inserting "c" must evict it *)
  Result_cache.add c (key "c") [ ("out", big) ] ~canonical;
  Alcotest.(check bool) "recently-used survives" true
    (Result_cache.find c (key "a") ~canonical <> None);
  Alcotest.(check bool) "lru evicted" true (Result_cache.find c (key "b") ~canonical = None);
  let s = Result_cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Result_cache.evictions;
  Alcotest.(check bool) "budget holds" true (s.Result_cache.bytes <= 2 * bytes)

(* --- accounting identities, shared by several tests --- *)

let check_identities r =
  let c = Service.counter r in
  Alcotest.(check int) "submitted = admitted + rejected" (c "submitted")
    (c "admitted" + c "rejected");
  Alcotest.(check int) "admitted = done + oom + timeout + unsupported" (c "admitted")
    (c "done" + c "oom" + c "timeout" + c "unsupported")

(* --- cache hit / miss / invalidation through the service loop --- *)

let cache_events =
  let sub ~at = Service.submission ~at ~tenant:"t" ~edb:"g" tc in
  [
    Service.Submit (sub ~at:0.0);
    Service.Submit (sub ~at:0.0);
    (* well after both queries settle: version bump; the new arc reaches a
       fresh vertex so the closure actually grows *)
    Service.delta_event ~at:50.0 ~edb:"g" (Delta.of_inserts "arc" [ [| 5; 6 |] ]);
    Service.Submit (sub ~at:100.0);
  ]

(* With maintenance off, a delta cold-drops the database's cached results:
   the post-delta query misses and recomputes. *)
let test_service_cache_and_invalidation () =
  let config = Service.config ~ivm:false () in
  let r = Service.run ~config ~edb:(store ()) cache_events in
  check_identities r;
  Alcotest.(check int) "all three served" 3 (Service.counter r "done");
  Alcotest.(check int) "second query hits" 1 (Service.counter r "cache_hit");
  Alcotest.(check int) "first and post-delta miss" 2 (Service.counter r "cache_miss");
  Alcotest.(check int) "delta applied" 1 (Service.counter r "delta_applied");
  Alcotest.(check bool) "delta invalidated the entry" true
    (r.Service.cache.Result_cache.invalidations >= 1);
  match r.Service.completions with
  | [ q1; q2; q3 ] -> (
      Alcotest.(check bool) "q2 flagged as cache hit" true q2.Service.c_cache_hit;
      match (q1.Service.c_outcome, q2.Service.c_outcome, q3.Service.c_outcome) with
      | Service.Done v1, Service.Done v2, Service.Done v3 ->
          Alcotest.(check bool) "cached rows identical" true (v1 = v2);
          let nrows v = List.length (List.assoc "tc" v) in
          Alcotest.(check bool) "post-delta result is larger" true (nrows v3 > nrows v1)
      | _ -> Alcotest.fail "expected three Done outcomes")
  | cs -> Alcotest.fail (Printf.sprintf "expected 3 completions, got %d" (List.length cs))

(* With maintenance on (the default), the same delta incrementally refreshes
   the cached entry instead: the post-delta query is a warm hit and its rows
   match a from-scratch recompute. *)
let test_service_warm_refresh () =
  let r = Service.run ~edb:(store ()) cache_events in
  check_identities r;
  Alcotest.(check int) "all three served" 3 (Service.counter r "done");
  Alcotest.(check int) "repeat and post-delta both hit" 2 (Service.counter r "cache_hit");
  Alcotest.(check int) "only the first misses" 1 (Service.counter r "cache_miss");
  Alcotest.(check int) "one view built" 1 (Service.counter r "view_built");
  Alcotest.(check int) "the view adopted the run's fixpoint" 1 (Service.counter r "view_seeded");
  Alcotest.(check int) "one entry refreshed" 1 (Service.counter r "refreshed");
  Alcotest.(check int) "nothing dropped" 0 (Service.counter r "view_dropped");
  Alcotest.(check int) "refresh counted in cache stats" 1
    r.Service.cache.Result_cache.refreshes;
  (* the refreshed rows must equal what a cold recompute produces *)
  let cold = Service.run ~config:(Service.config ~ivm:false ()) ~edb:(store ()) cache_events in
  let last r =
    match List.rev r.Service.completions with
    | { Service.c_outcome = Service.Done v; _ } :: _ -> v
    | _ -> Alcotest.fail "expected a Done completion"
  in
  Alcotest.(check bool) "refreshed rows = recomputed rows" true (last r = last cold);
  match List.rev r.Service.completions with
  | q3 :: _ -> Alcotest.(check bool) "post-delta query is a hit" true q3.Service.c_cache_hit
  | [] -> Alcotest.fail "no completions"

(* A retraction refreshes too: the closure shrinks and the warm rows track
   it. The ring 0→1→…→5→0 loses its closing arc, so tc drops from the full
   cross product to the reachable-suffix pairs. *)
let test_service_warm_retract () =
  let sub ~at = Service.submission ~at ~tenant:"t" ~edb:"g" tc in
  let events =
    [
      Service.Submit (sub ~at:0.0);
      Service.delta_event ~at:50.0 ~edb:"g" (Delta.of_retracts "arc" [ [| 5; 0 |] ]);
      Service.Submit (sub ~at:100.0);
    ]
  in
  let r = Service.run ~edb:(store ()) events in
  check_identities r;
  Alcotest.(check int) "one entry refreshed" 1 (Service.counter r "refreshed");
  match r.Service.completions with
  | [ { Service.c_outcome = Service.Done v1; _ }; q2 ] ->
      Alcotest.(check bool) "post-retract query is a hit" true q2.Service.c_cache_hit;
      let v2 = match q2.Service.c_outcome with
        | Service.Done v -> v
        | _ -> Alcotest.fail "expected Done"
      in
      let nrows v = List.length (List.assoc "tc" v) in
      Alcotest.(check int) "ring closure is the cross product" 36 (nrows v1);
      Alcotest.(check int) "broken ring shrinks to the path closure" 15 (nrows v2)
  | cs -> Alcotest.fail (Printf.sprintf "expected 2 completions, got %d" (List.length cs))

(* A delta past the refresh threshold falls back to invalidation. *)
let test_service_refresh_fallback () =
  let config = Service.config ~ivm_max_delta:0 () in
  let r = Service.run ~config ~edb:(store ()) cache_events in
  check_identities r;
  Alcotest.(check int) "no refresh past the threshold" 0 (Service.counter r "refreshed");
  Alcotest.(check int) "views dropped instead" 1 (Service.counter r "view_dropped");
  Alcotest.(check bool) "entry invalidated" true
    (r.Service.cache.Result_cache.invalidations >= 1)

(* --- shared indexes across runs and deltas (store-lifetime manager) --- *)

(* The store-lifetime index manager must carry base-relation indexes across
   interpreter runs: with the cache off, two identical submissions are two
   full recomputes, but the second reuses the first's arc index instead of
   rebuilding it. An insert-only delta between two more submissions is
   absorbed by rebase (+ delta-append on next access), not a rebuild; a
   retraction invalidates and the next run rebuilds. The trace's
   executor.index_* counters are the audit trail. The program is a
   non-recursive join: PBME would collapse a recursive stratum into the
   bit-matrix kernel and bypass the relational indexes entirely. *)
let test_service_shared_indexes () =
  let twohop =
    Recstep.Programs.parsed
      ".input arc\ntwohop(x, y) :- arc(x, z), arc(z, y).\n.output twohop"
  in
  let sub ~at = Service.submission ~at ~tenant:"t" ~edb:"g" twohop in
  let run events =
    let config = Service.config ~cache_bytes:0 ~ivm:false () in
    let r = Service.run ~config ~edb:(store ()) events in
    check_identities r;
    r
  in
  let counter r name = Rs_obs.Trace.counter r.Service.trace name in
  (* two identical cold runs: the arc index is built once and reused *)
  let r = run [ Service.Submit (sub ~at:0.0); Service.Submit (sub ~at:100.0) ] in
  Alcotest.(check int) "both recomputed (cache off)" 2 (Service.counter r "done");
  Alcotest.(check bool) "second run reuses the shared index" true
    (counter r "executor.index_reuse_hits" > 0);
  let builds_two_runs = counter r "executor.index_builds" in
  (* insert-only delta: the shared entry is rebased, not rebuilt *)
  let r2 =
    run
      [
        Service.Submit (sub ~at:0.0);
        Service.delta_event ~at:50.0 ~edb:"g" (Delta.of_inserts "arc" [ [| 0; 3 |] ]);
        Service.Submit (sub ~at:100.0);
      ]
  in
  Alcotest.(check int) "one rebase for the insert-only delta" 1
    (counter r2 "executor.index_rebases");
  Alcotest.(check int) "no invalidation" 0 (counter r2 "executor.index_invalidations");
  Alcotest.(check bool) "no extra build after the rebase" true
    (counter r2 "executor.index_builds" <= builds_two_runs);
  (* a retraction cannot preserve the indexed prefix: invalidate + rebuild *)
  let r3 =
    run
      [
        Service.Submit (sub ~at:0.0);
        Service.delta_event ~at:50.0 ~edb:"g" (Delta.of_retracts "arc" [ [| 0; 1 |] ]);
        Service.Submit (sub ~at:100.0);
      ]
  in
  Alcotest.(check bool) "retraction invalidates the shared index" true
    (counter r3 "executor.index_invalidations" > 0);
  Alcotest.(check int) "no rebase on a retraction" 0 (counter r3 "executor.index_rebases");
  Alcotest.(check bool) "post-retract run rebuilds" true
    (counter r3 "executor.index_builds" > builds_two_runs)

(* Two databases that both hold an [arc] over the same vertices: the
   persistent indexes of one must never serve the other. A's reach query
   builds an index over A's arc; an insert-only delta then grows B's arc to
   exactly A's row count, which a manager keyed by relation name alone takes
   as licence to rebase A's index onto B's relation (and, with no rehash
   due, B's next run reuses A's chains as they are). B's reach must still
   follow B's arcs. *)
let test_service_indexes_per_database () =
  let reach =
    Recstep.Programs.parsed
      ".input arc\nreach(y) :- arc(0, y).\nreach(y) :- reach(x), arc(x, y).\n.output reach"
  in
  let a_rows = List.init 8 (fun i -> [ i; (i + 1) mod 8 ]) in
  let b_rows = [ [ 0; 2 ]; [ 2; 4 ]; [ 4; 6 ] ] in
  let b_added = [ [ 6; 1 ]; [ 1; 3 ]; [ 3; 5 ]; [ 5; 7 ]; [ 7; 0 ] ] in
  let t = Edb_store.create () in
  let rel rows =
    let r = Relation.of_rows ~name:"arc" 2 (List.map Array.of_list rows) in
    Relation.account r;
    r
  in
  Edb_store.define t "a" [ ("arc", rel a_rows) ];
  Edb_store.define t "b" [ ("arc", rel b_rows) ];
  let events =
    [
      Service.Submit (Service.submission ~at:0.0 ~tenant:"ta" ~edb:"a" reach);
      Service.delta_event ~at:50.0 ~edb:"b"
        (Delta.of_inserts "arc" (List.map Array.of_list b_added));
      Service.Submit (Service.submission ~at:100.0 ~tenant:"tb" ~edb:"b" reach);
    ]
  in
  let r = Service.run ~edb:t events in
  check_identities r;
  let want edb =
    let _, lookup = Recstep.Naive.run ~edb:[ ("arc", edb) ] reach in
    List.map Array.of_list (List.sort_uniq compare (lookup "reach"))
  in
  match r.Service.completions with
  | [ { Service.c_outcome = Service.Done va; _ }; { Service.c_outcome = Service.Done vb; _ } ] ->
      Alcotest.(check bool) "a served its own rows" true (List.assoc "reach" va = want a_rows);
      Alcotest.(check int) "b reaches all of its ring" 8 (List.length (List.assoc "reach" vb));
      Alcotest.(check bool) "b served its own rows after the delta" true
        (List.assoc "reach" vb = want (b_rows @ b_added))
  | _ -> Alcotest.fail "expected two Done completions"

(* --- sharded serving --- *)

let test_service_sharded () =
  let sub ~at = Service.submission ~at ~tenant:"t" ~edb:"g" tc in
  let events = [ Service.Submit (sub ~at:0.0); Service.Submit (sub ~at:100.0) ] in
  let sharded =
    Service.run
      ~config:(Service.config ~shards:4 ~cache_bytes:0 ~ivm:false ())
      ~edb:(store ()) events
  in
  check_identities sharded;
  Alcotest.(check int) "both served sharded" 2 (Service.counter sharded "done");
  Alcotest.(check int) "one stat row per shard" 4
    (List.length sharded.Service.shard_stats);
  List.iter
    (fun (s : Service.shard_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d executed queries" s.Service.sh_shard)
        true
        (s.Service.sh_queries > 0))
    sharded.Service.shard_stats;
  let unsharded =
    Service.run
      ~config:(Service.config ~cache_bytes:0 ~ivm:false ())
      ~edb:(store ()) events
  in
  Alcotest.(check int) "unsharded report has no shard stats" 0
    (List.length unsharded.Service.shard_stats);
  let rows r =
    List.map
      (fun (c : Service.completion) ->
        match c.Service.c_outcome with
        | Service.Done v -> List.map (fun (n, rs) -> (n, List.map Array.to_list rs)) v
        | _ -> Alcotest.fail "expected Done")
      r.Service.completions
  in
  Alcotest.(check bool) "sharded rows = unsharded rows" true
    (rows sharded = rows unsharded)

(* --- admission control --- *)

let test_admission_memory () =
  (* a budget far below even a Small query's 1 MiB admission estimate *)
  let config = Service.config ~mem_budget:1000 () in
  let events =
    [ Service.Submit (Service.submission ~tenant:"t" ~edb:"g" tc) ]
  in
  let r = Service.run ~config ~edb:(store ()) events in
  check_identities r;
  Alcotest.(check int) "rejected" 1 (Service.counter r "rejected");
  Alcotest.(check int) "nothing admitted" 0 (Service.counter r "admitted");
  match (List.hd r.Service.completions).Service.c_outcome with
  | Service.Rejected (Admission.Over_memory _) -> ()
  | o -> Alcotest.fail ("expected Over_memory rejection, got " ^ Service.outcome_label o)

let test_admission_queue_full () =
  let config = Service.config ~queue_capacity:1 () in
  let sub () = Service.Submit (Service.submission ~tenant:"t" ~edb:"g" tc) in
  let r = Service.run ~config ~edb:(store ()) [ sub (); sub (); sub () ] in
  check_identities r;
  Alcotest.(check int) "one slot, one admit" 1 (Service.counter r "admitted");
  Alcotest.(check int) "the rest bounce" 2 (Service.counter r "rejected");
  let queue_full =
    List.filter
      (fun c ->
        match c.Service.c_outcome with
        | Service.Rejected (Admission.Queue_full _) -> true
        | _ -> false)
      r.Service.completions
  in
  Alcotest.(check int) "rejections are typed Queue_full" 2 (List.length queue_full)

let test_admission_unknown_edb () =
  let r =
    Service.run ~edb:(store ())
      [ Service.Submit (Service.submission ~tenant:"t" ~edb:"nope" tc) ]
  in
  check_identities r;
  match (List.hd r.Service.completions).Service.c_outcome with
  | Service.Rejected (Admission.Unknown_edb "nope") -> ()
  | o -> Alcotest.fail ("expected Unknown_edb rejection, got " ^ Service.outcome_label o)

(* --- deadlines --- *)

let test_deadline_miss () =
  let events =
    [
      Service.Submit
        (Service.submission ~deadline_vs:1e-9 ~tenant:"t" ~edb:"g" tc);
    ]
  in
  let r = Service.run ~edb:(store ~n:24 ()) events in
  check_identities r;
  Alcotest.(check int) "timeout" 1 (Service.counter r "timeout");
  Alcotest.(check int) "deadline_miss counted" 1 (Service.counter r "deadline_miss");
  Alcotest.(check int) "not served" 0 (Service.counter r "done")

(* --- determinism --- *)

let test_determinism () =
  let events () =
    List.concat_map
      (fun tenant ->
        List.init 3 (fun k ->
            Service.Submit
              (Service.submission
                 ~at:(0.001 *. float_of_int k)
                 ~tenant ~edb:"g" (if k = 1 then sg else tc))))
      [ "alice"; "bob"; "carol" ]
  in
  let run () =
    let config = Service.config ~workers:4 ~seed:7 () in
    Service.run ~config ~edb:(store ~n:8 ()) (events ())
  in
  (* the pool derives simulated durations from measured execution, so float
     timings vary at microsecond scale run to run; what must replay exactly
     is every scheduling decision and outcome *)
  let signature r =
    ( r.Service.counters,
      List.map
        (fun c ->
          ( c.Service.c_id,
            c.Service.c_tenant,
            Service.outcome_label c.Service.c_outcome,
            c.Service.c_cache_hit,
            c.Service.c_retries ))
        r.Service.completions )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same events, same seed, same dispatch and outcomes" true
    (signature a = signature b);
  (* and the report itself is well-formed JSON *)
  Alcotest.(check bool) "report serializes" true
    (String.length (Json.to_string (Service.report_json a)) > 0)

(* --- workload scripts --- *)

let test_script_parse () =
  let prog = Filename.temp_file "svc_tc" ".datalog" in
  let oc = open_out prog in
  output_string oc Recstep.Programs.tc;
  close_out oc;
  let src =
    String.concat "\n"
      [
        "# comment";
        "set workers 4";
        "edb g arc:2 = 0 1; 1 2; 2 0";
        Printf.sprintf "submit tenant=a edb=g program=%s repeat=2 every=0.5" prog;
        "delta at=1 g arc = 2 3";
        "retract at=2 g arc = 0 1";
        "";
      ]
  in
  let s = Script.parse src in
  Alcotest.(check (list (pair string string))) "settings" [ ("workers", "4") ] s.Script.settings;
  Alcotest.(check int) "one database" 1 (List.length s.Script.defs);
  (match s.Script.events with
  | [ Service.Submit s1; Service.Submit s2; Service.Delta d1; Service.Delta d2 ] ->
      Alcotest.(check string) "tenant" "a" s1.Service.tenant;
      Alcotest.(check (float 1e-9)) "train spacing" 0.5 s2.Service.at;
      Alcotest.(check (float 1e-9)) "delta time" 1.0 d1.at;
      Alcotest.(check int) "delta is one insert" 1 (Delta.size d1.delta);
      Alcotest.(check bool) "delta op is an insert" true
        (List.for_all
           (fun (o : Delta.op) -> o.Delta.sign = Delta.Insert)
           (Delta.ops d1.delta "arc"));
      Alcotest.(check bool) "retract op is a retract" true
        (List.for_all
           (fun (o : Delta.op) -> o.Delta.sign = Delta.Retract)
           (Delta.ops d2.delta "arc"))
  | _ -> Alcotest.fail "expected submit, submit, delta, retract");
  (* malformed lines carry their position *)
  (match Script.parse ~path:"w" "set workers 4\nbogus directive\n" with
  | _ -> Alcotest.fail "expected Script_error"
  | exception Script.Script_error { line = 2; _ } -> ());
  Sys.remove prog

(* Renderer round-trip: a mixed delta rendered to script lines parses back
   to Delta events whose merged ops equal the original's, per relation and
   sign, with the timestamp and database preserved. *)
let test_script_delta_roundtrip () =
  let d =
    Delta.merge
      (Delta.of_inserts "arc" [ [| 4; 5 |]; [| 5; 6 |] ])
      (Delta.merge
         (Delta.of_retracts "arc" [ [| 0; 1 |] ])
         (Delta.of_inserts "lab" [ [| 7 |] ]))
  in
  let lines = Script.render_delta ~at:2.5 ~edb:"g" d in
  let src =
    String.concat "\n"
      ("edb g arc:2 = 0 1" :: "edb g lab:1 = 7" :: lines)
  in
  let s = Script.parse src in
  let parsed =
    List.fold_left
      (fun acc -> function
        | Service.Delta { at; edb; delta } ->
            Alcotest.(check (float 1e-9)) "timestamp survives" 2.5 at;
            Alcotest.(check string) "database survives" "g" edb;
            Delta.merge acc delta
        | _ -> Alcotest.fail "expected only Delta events")
      Delta.empty s.Script.events
  in
  let sig_of d =
    List.map
      (fun rel ->
        ( rel,
          List.sort compare
            (List.map
               (fun (o : Delta.op) -> (o.Delta.sign, Array.to_list o.Delta.row))
               (Delta.ops d rel)) ))
      (List.sort compare (Delta.rels d))
  in
  Alcotest.(check bool) "ops round-trip" true (sig_of parsed = sig_of d)

(* --- degraded serves in the latency population --- *)

let test_degraded_latency_counted () =
  (* a served-but-degraded result must land in the latency percentiles,
     flagged and split out — not silently dropped from the population *)
  let module Memtrack = Rs_storage.Memtrack in
  let module Fault = Rs_chaos.Fault in
  let module Inject = Rs_chaos.Inject in
  Memtrack.hard_reset ();
  let s = store () in
  let threshold = Memtrack.live () + 256 in
  let config = Service.config ~workers:8 ~seed:1 () in
  let report =
    Inject.with_plan
      (Fault.plan ~seed:1 [ Fault.spec ~threshold ~limit:1 Fault.Mem ])
      (fun () ->
        Service.run ~config ~edb:s
          [ Service.Submit (Service.submission ~tenant:"t" ~edb:"g" tc) ])
  in
  let c = List.hd report.Service.completions in
  (match c.Service.c_outcome with
  | Service.Done _ -> ()
  | o -> Alcotest.fail ("expected done, got " ^ Service.outcome_label o));
  Alcotest.(check (option string))
    "flagged with the rung" (Some "half_workers") c.Service.c_degraded;
  Alcotest.(check int) "split out in the report" 1 report.Service.served_degraded;
  let lat = c.Service.c_finished -. c.Service.c_at in
  Alcotest.(check bool) "retry made it slow" true (lat > 0.0);
  (* the only served query is the degraded one: if degraded serves were
     excluded from the latency population these would read 0 *)
  Alcotest.(check (float 1e-9)) "p50 includes the degraded serve" lat
    report.Service.p50_latency;
  Alcotest.(check (float 1e-9)) "p999 includes the degraded serve" lat
    report.Service.p999_latency

(* --- aggregate program + delta: warm refresh must fall back, not raise --- *)

let test_service_aggregate_delta () =
  (* Ivm cannot maintain aggregates; a cached aggregate result crossing a
     small delta must be invalidated and recomputed, never surface
     Ivm.Unsupported to the tenant. Mix in a maintainable tc view so the
     warm path actually runs its view loop alongside the aggregate entry. *)
  let cc = Recstep.Programs.parsed Recstep.Programs.cc in
  let sub p ~at = Service.submission ~at ~tenant:"t" ~edb:"g" p in
  let events =
    [
      Service.Submit (sub cc ~at:0.0);
      Service.Submit (sub tc ~at:0.0);
      (* a disconnected edge: a second component, so the aggregate output
         (the set of min labels) actually changes *)
      Service.delta_event ~at:50.0 ~edb:"g" (Delta.of_inserts "arc" [ [| 9; 10 |] ]);
      Service.Submit (sub cc ~at:100.0);
      Service.Submit (sub tc ~at:100.0);
    ]
  in
  let r = Service.run ~edb:(store ()) events in
  check_identities r;
  Alcotest.(check int) "all four served" 4 (Service.counter r "done");
  Alcotest.(check int) "only tc builds a view" 1 (Service.counter r "view_built");
  Alcotest.(check int) "tc entry refreshed warm" 1 (Service.counter r "refreshed");
  Alcotest.(check bool) "aggregate entry invalidated" true
    (r.Service.cache.Result_cache.invalidations >= 1);
  (* the post-delta aggregate recompute must see the new vertex *)
  match List.filter_map
          (fun c -> match c.Service.c_outcome with Service.Done v -> Some v | _ -> None)
          r.Service.completions
  with
  | [ cc1; _; cc2; _ ] ->
      let nrows v = List.length (List.assoc "cc" v) in
      Alcotest.(check bool) "post-delta cc grew" true (nrows cc2 > nrows cc1)
  | vs -> Alcotest.fail (Printf.sprintf "expected 4 Done values, got %d" (List.length vs))

(* --- the explain API --- *)

let test_service_explain_warm () =
  let events =
    [
      Service.Submit (Service.submission ~at:0.0 ~tenant:"t" ~edb:"g" tc);
      Service.explain_event ~at:100.0 ~tenant:"t" ~edb:"g" ~pred:"tc" ~row:[ 0; 3 ] tc;
      Service.explain_event ~at:100.0 ~tenant:"t" ~edb:"g" ~pred:"tc" ~row:[ 0; 99 ] tc;
    ]
  in
  let r = Service.run ~edb:(store ()) events in
  Alcotest.(check int) "explains counted" 2 (Service.counter r "explain");
  match r.Service.explanations with
  | [ x1; x2 ] ->
      Alcotest.(check string) "derived fact explained" "explained" x1.Service.x_status;
      Alcotest.(check bool) "answered from the maintained view" true x1.Service.x_from_view;
      Alcotest.(check bool) "chain names rules" true (x1.Service.x_rules <> []);
      Alcotest.(check bool) "chain reaches edb leaves" true
        (let rec contains s sub i =
           i + String.length sub <= String.length s
           && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
         in
         contains x1.Service.x_text "[edb]" 0);
      (* the timeline join points at the tenant's served query *)
      (match x1.Service.x_latency with
      | Some ln ->
          Alcotest.(check string) "joined with q1" "q1" ln.Service.ln_query;
          Alcotest.(check string) "its outcome" "done" ln.Service.ln_outcome;
          Alcotest.(check bool) "span breakdown present" true (ln.Service.ln_spans <> [])
      | None -> Alcotest.fail "expected a latency note");
      Alcotest.(check string) "missing fact is absent" "absent" x2.Service.x_status
  | xs -> Alcotest.fail (Printf.sprintf "expected 2 explanations, got %d" (List.length xs))

let test_service_explain_cold_and_aggregate () =
  let cc = Recstep.Programs.parsed Recstep.Programs.cc in
  let events =
    [
      (* no prior submission: no view, the service evaluates once with
         provenance on — including for aggregate programs Ivm can't hold *)
      Service.explain_event ~at:0.0 ~tenant:"t" ~edb:"g" ~pred:"tc" ~row:[ 0; 3 ] tc;
      Service.explain_event ~at:0.0 ~tenant:"t" ~edb:"g" ~pred:"cc" ~row:[ 0 ] cc;
      Service.explain_event ~at:0.0 ~tenant:"t" ~edb:"nope" ~pred:"tc" ~row:[ 0; 3 ] tc;
    ]
  in
  let r = Service.run ~edb:(store ()) events in
  match r.Service.explanations with
  | [ x1; x2; x3 ] ->
      Alcotest.(check string) "cold tc explained" "explained" x1.Service.x_status;
      Alcotest.(check bool) "not from a view" false x1.Service.x_from_view;
      Alcotest.(check string) "aggregate fact explained" "explained" x2.Service.x_status;
      Alcotest.(check string) "unknown edb is a typed error" "error" x3.Service.x_status
  | xs -> Alcotest.fail (Printf.sprintf "expected 3 explanations, got %d" (List.length xs))

let test_service_explain_after_delta () =
  (* tags must survive Ivm.apply: the explained fact only exists after the
     delta, and the answer comes from the maintained view *)
  let events =
    [
      Service.Submit (Service.submission ~at:0.0 ~tenant:"t" ~edb:"g" tc);
      Service.delta_event ~at:50.0 ~edb:"g" (Delta.of_inserts "arc" [ [| 5; 6 |] ]);
      Service.explain_event ~at:100.0 ~tenant:"t" ~edb:"g" ~pred:"tc" ~row:[ 0; 6 ] tc;
    ]
  in
  let r = Service.run ~edb:(store ()) events in
  Alcotest.(check int) "view refreshed across the delta" 1 (Service.counter r "refreshed");
  match r.Service.explanations with
  | [ x ] ->
      Alcotest.(check string) "post-delta fact explained" "explained" x.Service.x_status;
      Alcotest.(check bool) "from the maintained view" true x.Service.x_from_view;
      Alcotest.(check bool) "chain names rules" true (x.Service.x_rules <> [])
  | xs -> Alcotest.fail (Printf.sprintf "expected 1 explanation, got %d" (List.length xs))

let suite =
  [
    Alcotest.test_case "program key canonicalization" `Quick test_program_key;
    Alcotest.test_case "result cache basics" `Quick test_result_cache;
    Alcotest.test_case "result cache LRU eviction" `Quick test_result_cache_lru;
    Alcotest.test_case "result cache hash collision" `Quick test_result_cache_collision;
    Alcotest.test_case "cache hit + invalidation on delta" `Quick
      test_service_cache_and_invalidation;
    Alcotest.test_case "warm refresh across a delta" `Quick test_service_warm_refresh;
    Alcotest.test_case "warm refresh across a retraction" `Quick test_service_warm_retract;
    Alcotest.test_case "refresh falls back past the threshold" `Quick
      test_service_refresh_fallback;
    Alcotest.test_case "shared indexes survive runs and deltas" `Quick
      test_service_shared_indexes;
    Alcotest.test_case "persistent indexes are per database" `Quick
      test_service_indexes_per_database;
    Alcotest.test_case "sharded serving with per-shard stats" `Quick test_service_sharded;
    Alcotest.test_case "admission: memory budget" `Quick test_admission_memory;
    Alcotest.test_case "admission: bounded queue" `Quick test_admission_queue_full;
    Alcotest.test_case "admission: unknown edb" `Quick test_admission_unknown_edb;
    Alcotest.test_case "deadline miss is a timeout" `Quick test_deadline_miss;
    Alcotest.test_case "deterministic replay" `Quick test_determinism;
    Alcotest.test_case "workload script parsing" `Quick test_script_parse;
    Alcotest.test_case "script delta render round-trip" `Quick test_script_delta_roundtrip;
    Alcotest.test_case "degraded serves counted in latency population" `Quick
      test_degraded_latency_counted;
    Alcotest.test_case "aggregate program + delta falls back to recompute" `Quick
      test_service_aggregate_delta;
    Alcotest.test_case "explain from a warm view" `Quick test_service_explain_warm;
    Alcotest.test_case "explain cold + aggregate + unknown edb" `Quick
      test_service_explain_cold_and_aggregate;
    Alcotest.test_case "explain across a delta" `Quick test_service_explain_after_delta;
  ]
