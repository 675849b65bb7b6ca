module Ast = Recstep.Ast
module Interpreter = Recstep.Interpreter
module Naive = Recstep.Naive
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Memtrack = Rs_storage.Memtrack
module Engine_intf = Rs_engines.Engine_intf
module Engines = Rs_engines.Engines

type mismatch = { pred : string; missing : int list list; extra : int list list }

type verdict =
  | Agree
  | Skipped of string  (** program outside the runner's fragment *)
  | Diverged of mismatch list
  | Failed of string  (** crash / simulated OOM / timeout — never expected *)

type oracle = { idbs : string list; rows_of : string -> int list list }

(* A runner is one configuration under test: a baseline engine, or the
   RecStep interpreter pinned to one point of the optimization-toggle
   matrix. Given a case and the oracle's verdicts it diffs every IDB. *)
type runner = { rname : string; run : Gen.case -> oracle -> verdict }

let oracle_of_case (c : Gen.case) =
  let idbs, rows_of = Naive.run ~edb:c.Gen.edb c.Gen.program in
  { idbs; rows_of }

(* --- shared run plumbing ------------------------------------------------ *)

let relations_of_case (c : Gen.case) =
  (* an [.input] without an explicit arity parses as 0; recover it from the
     analyzer's inference over the rule bodies *)
  let an = lazy (Recstep.Analyzer.analyze c.Gen.program) in
  List.map
    (fun (name, arity) ->
      let arity =
        if arity > 0 then arity else Recstep.Analyzer.arity (Lazy.force an) name
      in
      let rows = try List.assoc name c.Gen.edb with Not_found -> [] in
      (name, Relation.of_rows ~name arity (List.map Array.of_list rows)))
    c.Gen.program.Ast.inputs

let canon rel = List.map Array.to_list (Relation.sorted_distinct_rows rel)

let compare_results ~(oracle : oracle) results =
  let mismatches =
    List.filter_map
      (fun (p, got) ->
        let expect = oracle.rows_of p in
        if expect = got then None
        else
          Some
            {
              pred = p;
              missing = List.filter (fun r -> not (List.mem r got)) expect;
              extra = List.filter (fun r -> not (List.mem r expect)) got;
            })
      results
  in
  match mismatches with [] -> Agree | ms -> Diverged ms

(* Every run starts from a clean simulated machine: fuzz cases are tiny, so
   no memory budget and no deadline — an OOM or timeout here is a bug and
   is reported as [Failed], never silently skipped. The IDB relations are
   fetched inside the guard too, so a crash in [relation_of] surfaces as
   [Failed] instead of killing the whole campaign. *)
let guarded_run eval (case : Gen.case) (oracle : oracle) =
  Memtrack.hard_reset ();
  Memtrack.set_budget None;
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let outcome =
    match
      Engine_intf.guard (fun () ->
          let edb = relations_of_case case in
          let fetch = eval pool edb case.Gen.program in
          List.map (fun p -> (p, fetch p)) oracle.idbs)
    with
    | o -> `Guarded o
    | exception e -> `Crashed (Printexc.to_string e)
  in
  match outcome with
  | `Guarded (Engine_intf.Done results) -> compare_results ~oracle results
  | `Guarded (Engine_intf.Unsupported m) -> Skipped m
  | `Guarded Engine_intf.Oom -> Failed "simulated OOM"
  | `Guarded Engine_intf.Timeout -> Failed "simulated timeout"
  | `Guarded (Engine_intf.Fault { cls; point }) ->
      Failed (Printf.sprintf "injected fault %s at %s" (Rs_chaos.Fault.cls_name cls) point)
  | `Crashed m -> Failed m

(* --- baseline engines --------------------------------------------------- *)

let engine_runner (module E : Engine_intf.S) =
  {
    rname = E.name;
    run =
      guarded_run (fun pool edb program ->
          let result = E.run ~pool ~edb program in
          fun p -> canon (result.Engine_intf.relation_of p));
  }

(* --- the optimization-toggle matrix ------------------------------------- *)

type toggles = {
  persistent_indexes : bool;
  dsd : Interpreter.dsd_mode;
  pbme : bool;
  fast_dedup : bool;
  kernels : bool;
}

let toggle_matrix =
  List.concat_map
    (fun persistent_indexes ->
      List.concat_map
        (fun dsd ->
          List.concat_map
            (fun pbme ->
              List.concat_map
                (fun fast_dedup ->
                  List.map
                    (fun kernels -> { persistent_indexes; dsd; pbme; fast_dedup; kernels })
                    [ true; false ])
                [ true; false ])
            [ true; false ])
        [ Interpreter.Dsd_dynamic; Interpreter.Dsd_force_opsd; Interpreter.Dsd_force_tpsd ])
    [ true; false ]

let toggle_label t =
  Printf.sprintf "recstep[pi=%s,dsd=%s,pbme=%s,dedup=%s,kern=%s]"
    (if t.persistent_indexes then "on" else "off")
    (match t.dsd with
    | Interpreter.Dsd_dynamic -> "dyn"
    | Interpreter.Dsd_force_opsd -> "opsd"
    | Interpreter.Dsd_force_tpsd -> "tpsd")
    (if t.pbme then "on" else "off")
    (if t.fast_dedup then "fast" else "boxed")
    (if t.kernels then "on" else "off")

let toggle_runner t =
  {
    rname = toggle_label t;
    run =
      guarded_run (fun pool edb program ->
          let options =
            Interpreter.options ~persistent_indexes:t.persistent_indexes ~dsd:t.dsd
              ~pbme:t.pbme ~fast_dedup:t.fast_dedup ~compiled_kernels:t.kernels ()
          in
          let result = Interpreter.run ~options ~pool ~edb program in
          fun p -> canon (result.Interpreter.relation_of p));
  }

(* All runners: the baseline engines (including the stock RecStep
   configuration) plus the full 2 x 3 x 2 x 2 x 2 toggle matrix. *)
let all_runners () =
  List.map (fun (module E : Engine_intf.S) -> engine_runner (module E)) Engines.all
  @ List.map toggle_runner toggle_matrix

(* --- entry points ------------------------------------------------------- *)

let diff_runner (r : runner) (c : Gen.case) =
  match oracle_of_case c with
  | exception _ -> Skipped "oracle rejected the case"
  | oracle -> r.run c oracle

let diverges (r : runner) (c : Gen.case) =
  match diff_runner r c with Diverged _ -> true | _ -> false
