module Json = Rs_obs.Json
module Fault = Rs_chaos.Fault
module Inject = Rs_chaos.Inject
module Memtrack = Rs_storage.Memtrack
module Relation = Rs_relation.Relation
module Delta = Rs_relation.Delta
module Naive = Recstep.Naive
module Service = Rs_service.Service
module Edb_store = Rs_service.Edb_store
module Result_cache = Rs_service.Result_cache

(* The builtin rotation: one plan string per case, cycled. Together the
   rotation exercises every fault class at least once over a handful of
   cases — recovered single faults, hard unrecoverable storms, a silent
   stall, a corrupted cache entry — so a default campaign proves both sides
   of the guarantee: faulted runs that recover must be byte-correct, runs
   that cannot recover must end in a typed rejection. Mem thresholds are
   relative to the pre-case live bytes (the harness absolutizes them). *)
let builtin_plans =
  [|
    "mem:p=1,threshold=1024,limit=1";
    "txn:p=1,limit=1";
    "crash:p=1,limit=1";
    "index:p=1,limit=1";
    "dedup:p=1,limit=1";
    "cache:p=1,limit=2";
    "stall:p=0.5,factor=64";
    "mem:p=1,threshold=512";
    "crash:p=1";
    "delta:p=1,limit=1";
    "delta:p=1";
    "txn:p=0.4,limit=2;crash:p=0.3,limit=1;index:p=0.5,limit=1;mem:p=1,threshold=8192,limit=1";
    (* kernel faults: compile-time fires demote rules to the interpreted
       path, exec-time fires degrade mid-fixpoint — both must recover with
       identical results *)
    "kernel:p=1,limit=1";
    "kernel:p=0.5";
  |]

type violation = {
  v_iter : int;
  v_seed : int;
  v_plan : string;
  v_msg : string;
  v_why : string list;
}

type case_result = {
  cr_iter : int;
  cr_seed : int;
  cr_plan : string;
  cr_fires : (Fault.cls * int) list;
  cr_outcomes : string list;  (** outcome label per submission *)
  cr_leak : int;  (** live bytes left behind by the case; must be 0 *)
  cr_ok : bool;  (** every submission correct or typed-rejected, no leak *)
}

type report = {
  seed : int;
  iters : int;
  plan : string option;  (** the forced plan, when the rotation was bypassed *)
  cases : int;
  invalid : int;
  injected : (Fault.cls * int) list;  (** total fires by class, fired-only *)
  outcomes : (string * int) list;  (** submission-outcome histogram *)
  recovered : int;
      (** cases where faults fired yet every submission was served correctly *)
  rejected_typed : int;  (** submissions that ended in a typed non-Done outcome *)
  leaks : int;  (** cases that left live bytes behind *)
  violations : violation list;
  case_results : case_result list;
}

let case_seed ~seed i = Fuzz.case_seed ~seed i

(* Mem thresholds in plan syntax are "bytes above the pre-case baseline":
   absolute live-byte levels would be meaningless across cases whose EDBs
   differ in size. *)
let absolutize ~baseline (plan : Fault.plan) =
  {
    plan with
    Fault.specs =
      List.map
        (fun (s : Fault.spec) ->
          if s.Fault.cls = Fault.Mem then
            { s with Fault.threshold = baseline + s.Fault.threshold }
          else s)
        plan.Fault.specs;
  }

let canon_rows rows = List.map Array.to_list rows

(* The deterministic mid-case delta: retract the first stored row of the
   first EDB relation and insert a fresh high-domain row. Derived from the
   case seed only, so a frozen case replays the same stream. *)
let case_delta ~cseed rels =
  match rels with
  | [] -> Delta.empty
  | (name, r) :: _ ->
      let arity = Relation.arity r in
      let retracts = match Relation.to_rows r with [] -> [] | row :: _ -> [ row ] in
      let inserts = [ Array.init arity (fun j -> 90 + ((cseed + j) mod 8)) ] in
      Delta.merge (Delta.of_retracts name retracts) (Delta.of_inserts name inserts)

(* One case: oracle outside the chaos scope, the service inside it — two
   identical submissions with a typed EDB delta between them (sub@0,
   delta@50, sub@100), driving the result cache and the view-maintenance
   path through the fault plan. Everything the case may legitimately keep
   alive (the EDB store) is allocated before the baseline is taken and the
   store's own byte drift from a committed delta is netted out, so any
   remaining live-byte delta after the service returns is a leak. *)
let run_case ~iter ~cseed ~plan_str (case : Gen.case) (oracle : Differ.oracle) =
  Memtrack.hard_reset ();
  Memtrack.set_budget None;
  let store = Edb_store.create () in
  let rels = Differ.relations_of_case case in
  Edb_store.define store "g" rels;
  let store_rows () =
    List.map
      (fun (n, r) -> (n, List.map Array.to_list (Relation.sorted_distinct_rows r)))
      (Edb_store.lookup store "g")
  in
  let store_bytes () =
    List.fold_left (fun acc (_, r) -> acc + Relation.bytes r) 0 (Edb_store.lookup store "g")
  in
  let rows0 = store_rows () and bytes0 = store_bytes () in
  let baseline = Memtrack.live () in
  let plan =
    absolutize ~baseline (Fault.plan_of_string ~seed:cseed plan_str)
  in
  let has_stall =
    List.exists (fun (s : Fault.spec) -> s.Fault.cls = Fault.Stall) plan.Fault.specs
  in
  (* only the stall plan gets a deadline: a tight budget elsewhere would
     turn unrelated cases into timeouts and hide the class under test *)
  let deadline_vs = if has_stall then Some 0.05 else None in
  let sub ~at =
    Service.Submit
      (Service.submission ~at ?deadline_vs ~tenant:"chaos" ~edb:"g" case.Gen.program)
  in
  let config = Service.config ~workers:8 ~seed:1 () in
  let ran =
    Inject.with_plan plan (fun () ->
        match
          Service.run ~config ~edb:store
            [
              sub ~at:0.0;
              Service.delta_event ~at:50.0 ~edb:"g" (case_delta ~cseed rels);
              sub ~at:100.0;
            ]
        with
        | report -> Ok (report, Inject.fires ())
        | exception e -> Error (Printexc.to_string e))
  in
  let leak = Memtrack.live () - baseline - (store_bytes () - bytes0) in
  match ran with
  | Error msg ->
      let v = Printf.sprintf "exception escaped the service: %s" msg in
      {
        cr_iter = iter;
        cr_seed = cseed;
        cr_plan = plan_str;
        cr_fires = [];
        cr_outcomes = [ "crash" ];
        cr_leak = leak;
        cr_ok = false;
      },
      [ { v_iter = iter; v_seed = cseed; v_plan = plan_str; v_msg = v; v_why = [] } ]
  | Ok (report, fires) ->
      let violations = ref [] in
      let note ?(why = []) fmt =
        Printf.ksprintf
          (fun m ->
            violations :=
              { v_iter = iter; v_seed = cseed; v_plan = plan_str; v_msg = m; v_why = why }
              :: !violations)
          fmt
      in
      (* Delta accounting: exactly one delta event was registered, so it was
         either committed, normalized away, or atomically rolled back by an
         injected fault — and the store's version must say which. *)
      let applied = Service.counter report "delta_applied"
      and noop = Service.counter report "delta_noop"
      and aborted = Service.counter report "delta_fault" in
      if applied + noop + aborted <> 1 then
        note "delta accounting off: applied=%d noop=%d fault=%d" applied noop aborted;
      let version = Edb_store.version store "g" in
      if version <> (if applied = 1 then 2 else 1) then
        note "store version %d inconsistent with delta disposition (applied=%d)" version
          applied;
      if aborted = 1 && store_rows () <> rows0 then
        note "aborted delta mutated the store";
      (* Expected rows: the first submission settles before the delta and
         answers against the original EDB (the oracle); the second answers
         against whatever the store holds after the delta's disposition —
         a from-scratch naive recompute on the final store contents. The
         post-delta check is what holds the refreshed cache and the store
         to the same version. *)
      let post_rows_of =
        lazy
          (match Naive.run ~edb:(store_rows ()) case.Gen.program with
          | _, rows_of -> rows_of
          | exception _ ->
              note "oracle rejected the post-delta EDB";
              fun _ -> [])
      in
      List.iter
        (fun (c : Service.completion) ->
          match c.Service.c_outcome with
          | Service.Done value ->
              let expect_of =
                if c.Service.c_at < 50.0 then oracle.Differ.rows_of
                else Lazy.force post_rows_of
              in
              List.iter
                (fun (name, rows) ->
                  let got = canon_rows rows in
                  let expect = expect_of name in
                  if got <> expect then begin
                    (* explain the divergence from the reference: chains for
                       rows the service lost, no-proof verdicts for rows it
                       invented — against the EDB the submission ran on *)
                    let missing = List.filter (fun r -> not (List.mem r got)) expect
                    and extra = List.filter (fun r -> not (List.mem r expect)) got in
                    let why_case =
                      if c.Service.c_at < 50.0 then case
                      else { case with Gen.edb = store_rows () }
                    in
                    let why =
                      Fuzz.why_of_case why_case
                        [ { Differ.pred = name; missing; extra } ]
                    in
                    note ~why "%s: wrong rows for %s (%d got, %d expected)"
                      c.Service.c_id name (List.length got) (List.length expect)
                  end)
                value
          | Service.Oom | Service.Timeout | Service.Unsupported _
          | Service.Fault _ | Service.Rejected _ ->
              (* a typed rejection honors the contract *) ())
        report.Service.completions;
      if leak <> 0 then note "case left %d live bytes behind" leak;
      let outcomes =
        List.map
          (fun (c : Service.completion) -> Service.outcome_label c.Service.c_outcome)
          report.Service.completions
      in
      ( {
          cr_iter = iter;
          cr_seed = cseed;
          cr_plan = plan_str;
          cr_fires = fires;
          cr_outcomes = outcomes;
          cr_leak = leak;
          cr_ok = !violations = [];
        },
        List.rev !violations )

let run ?(log = fun (_ : string) -> ()) ?plan ~seed ~iters () =
  let invalid = ref 0 in
  let results = ref [] and violations = ref [] in
  for i = 0 to iters - 1 do
    let cseed = case_seed ~seed i in
    let case = Gen.gen_case ~seed:cseed in
    match Differ.oracle_of_case case with
    | exception _ -> incr invalid
    | oracle ->
        let plan_str =
          match plan with
          | Some p -> p
          | None -> builtin_plans.(i mod Array.length builtin_plans)
        in
        let cr, vs = run_case ~iter:i ~cseed ~plan_str case oracle in
        log
          (Printf.sprintf "case %d (seed %d) plan=%s fires=[%s] outcomes=[%s]%s" i cseed
             plan_str
             (String.concat ","
                (List.map
                   (fun (c, n) -> Printf.sprintf "%s:%d" (Fault.cls_name c) n)
                   cr.cr_fires))
             (String.concat "," cr.cr_outcomes)
             (if cr.cr_ok then "" else " VIOLATION"));
        results := cr :: !results;
        violations := List.rev_append vs !violations
  done;
  let results = List.rev !results in
  let injected =
    List.filter_map
      (fun cls ->
        let n =
          List.fold_left
            (fun acc cr ->
              acc + Option.value ~default:0 (List.assoc_opt cls cr.cr_fires))
            0 results
        in
        if n > 0 then Some (cls, n) else None)
      Fault.all_classes
  in
  let outcomes =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun cr ->
        List.iter
          (fun o ->
            Hashtbl.replace tbl o (1 + Option.value ~default:0 (Hashtbl.find_opt tbl o)))
          cr.cr_outcomes)
      results;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let recovered =
    List.length
      (List.filter
         (fun cr ->
           cr.cr_ok && cr.cr_fires <> []
           && List.for_all (fun o -> o = "done") cr.cr_outcomes)
         results)
  in
  let rejected_typed =
    List.fold_left
      (fun acc cr ->
        acc + List.length (List.filter (fun o -> o <> "done" && o <> "crash") cr.cr_outcomes))
      0 results
  in
  let leaks = List.length (List.filter (fun cr -> cr.cr_leak <> 0) results) in
  {
    seed;
    iters;
    plan;
    cases = iters;
    invalid = !invalid;
    injected;
    outcomes;
    recovered;
    rejected_typed;
    leaks;
    violations = List.rev !violations;
    case_results = results;
  }

let clean r = r.violations = [] && r.leaks = 0

let report_json (r : report) =
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("iters", Json.Int r.iters);
      ("plan", match r.plan with Some p -> Json.String p | None -> Json.Null);
      ("cases", Json.Int r.cases);
      ("invalid", Json.Int r.invalid);
      ("fault_classes", Json.Int (List.length r.injected));
      ( "injected",
        Json.Obj (List.map (fun (c, n) -> (Fault.cls_name c, Json.Int n)) r.injected) );
      ("outcomes", Json.Obj (List.map (fun (o, n) -> (o, Json.Int n)) r.outcomes));
      ("recovered", Json.Int r.recovered);
      ("rejected_typed", Json.Int r.rejected_typed);
      ("leaks", Json.Int r.leaks);
      ( "violations",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("case", Json.Int v.v_iter);
                   ("seed", Json.Int v.v_seed);
                   ("plan", Json.String v.v_plan);
                   ("error", Json.String v.v_msg);
                   ("why", Json.List (List.map (fun w -> Json.String w) v.v_why));
                 ])
             r.violations) );
      ("clean", Json.Bool (clean r));
      ( "cases_detail",
        Json.List
          (List.map
             (fun cr ->
               Json.Obj
                 [
                   ("case", Json.Int cr.cr_iter);
                   ("seed", Json.Int cr.cr_seed);
                   ("plan", Json.String cr.cr_plan);
                   ( "fires",
                     Json.Obj
                       (List.map
                          (fun (c, n) -> (Fault.cls_name c, Json.Int n))
                          cr.cr_fires) );
                   ( "outcomes",
                     Json.List (List.map (fun o -> Json.String o) cr.cr_outcomes) );
                   ("leak", Json.Int cr.cr_leak);
                   ("ok", Json.Bool cr.cr_ok);
                 ])
             r.case_results) );
    ]
