(* A frozen signature of RecStep's and the Souffle-like baseline's
   semi-naive evaluation. Each run is reduced to text lines: every
   iteration note in order (stratum, iteration, IDB, |Δ|) with the trace
   counters that moved since the previous note, the DSD decisions with
   their cost-model inputs, the provenance tag counts, the run totals and
   a digest of every output in row order. The lines are compared with
   [frozen_signature.txt], recorded once from a known-good tree: a
   refactor of the stratum loop must leave every line as it was. The
   simulated clock ([it_vtime]) follows host timing and is left out. On a
   mismatch the lines the run produced are written to
   [frozen_signature.actual] in the test's working directory. *)

module Interpreter = Recstep.Interpreter
module Programs = Recstep.Programs
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace
module Graphs = Rs_datagen.Graphs

let mutual =
  ".input arc\n\
   .output odd\n\
   .output even\n\
   odd(x, y) :- arc(x, y).\n\
   odd(x, y) :- even(x, z), arc(z, y).\n\
   even(x, y) :- odd(x, z), arc(z, y).\n\
   even(x, y) :- odd(x, z), odd(z, y), x != y.\n"

let arc ~seed ~n ~p = [ ("arc", Graphs.gnp ~seed ~n ~p) ]

(* (name, source, fresh inputs) *)
let programs =
  [
    ("tc", Programs.tc, fun () -> arc ~seed:3 ~n:40 ~p:0.05);
    ("sg", Programs.sg, fun () -> arc ~seed:4 ~n:30 ~p:0.06);
    ( "cspa",
      Programs.cspa,
      fun () ->
        [
          ("assign", Graphs.gnp ~seed:5 ~n:40 ~p:0.04);
          ("dereference", Graphs.gnp ~seed:6 ~n:40 ~p:0.03);
        ] );
    ("cc", Programs.cc, fun () -> arc ~seed:7 ~n:40 ~p:0.03);
    ("ntc", Programs.ntc, fun () -> arc ~seed:8 ~n:25 ~p:0.06);
    ("mutual", mutual, fun () -> arc ~seed:9 ~n:30 ~p:0.05);
  ]

let configs =
  [
    ("stock", fun ~trace ~provenance -> Interpreter.options ~trace ~provenance ());
    ("no-eost", fun ~trace ~provenance -> Interpreter.options ~eost:false ~trace ~provenance ());
    ( "oof-full",
      fun ~trace ~provenance -> Interpreter.options ~oof:Interpreter.Oof_full ~trace ~provenance ()
    );
    ( "no-kernels",
      fun ~trace ~provenance -> Interpreter.options ~compiled_kernels:false ~trace ~provenance () );
    ("no-pbme", fun ~trace ~provenance -> Interpreter.options ~pbme:false ~trace ~provenance ());
    ( "no-uie-tpsd",
      fun ~trace ~provenance ->
        Interpreter.options ~uie:false ~dsd:Interpreter.Dsd_force_tpsd ~pbme:false ~trace
          ~provenance () );
    (* perfbench's all-off reference: transient build indexes, no per-query
       cache, boxed dedup in row order *)
    ( "reference",
      fun ~trace ~provenance ->
        Interpreter.options ~uie:false ~oof:Interpreter.Oof_off ~dsd:Interpreter.Dsd_force_tpsd
          ~eost:false ~fast_dedup:false ~pbme:false ~persistent_indexes:false
          ~compiled_kernels:false ~share_builds:false ~trace ~provenance () );
    ( "bigdatalog",
      fun ~trace ~provenance ->
        { (Rs_engines.Bigdatalog_like.options_for ~trace ()) with provenance = Some provenance } );
  ]

let digest rel =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun r -> String.concat "," (List.map string_of_int (Array.to_list r)))
             (Relation.to_rows rel))))

let output_lines outs =
  List.map
    (fun (name, rel) -> Printf.sprintf "  out %s rows=%d %s" name (Relation.nrows rel) (digest rel))
    outs

(* The counters that moved since [prev], as "name+delta" items. *)
let moved prev now =
  List.filter_map
    (fun (k, v) ->
      let before = Option.value ~default:0 (List.assoc_opt k prev) in
      if v = before then None else Some (Printf.sprintf "%s+%d" k (v - before)))
    now

let recstep_lines (pname, src, inputs) (cname, mk) =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let provenance = Recstep.Provenance.create () in
  let options = mk ~trace ~provenance in
  let lines = ref [ Printf.sprintf "recstep %s %s" pname cname ] in
  let add l = lines := l :: !lines in
  let prev = ref [] in
  let on_iteration (it : Interpreter.iteration_info) =
    let now = Trace.counters trace in
    add
      (Printf.sprintf "  s%d i%d %s d=%d %s" it.it_stratum it.it_iteration it.it_idb
         it.it_delta_rows
         (String.concat " " (moved !prev now)));
    prev := now
  in
  let edb = inputs () in
  let program = Programs.parsed src in
  let r = Interpreter.run ~options ~on_iteration ~pool ~edb program in
  List.iter
    (fun (e : Trace.event) ->
      if e.ev_kind = "dsd" then
        add
          (Printf.sprintf "  dsd %s %s" e.ev_name
             (String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) e.ev_fields))))
    (Trace.events trace);
  add
    (Printf.sprintf "  tail %s" (String.concat " " (moved !prev (Trace.counters trace))));
  add
    (Printf.sprintf "  iterations=%d queries=%d pbme=%d io=%d dsd=%s" r.iterations r.queries
       r.pbme_strata r.io_bytes
       (String.concat ","
          (List.map
             (fun (c, n) ->
               Printf.sprintf "%s:%d" (match c with Rs_exec.Cost.Opsd -> "opsd" | Tpsd -> "tpsd") n)
             (List.sort compare r.dsd_choices))));
  List.iter
    (fun p ->
      add
        (Printf.sprintf "  tags %s=%d" p (Recstep.Provenance.tagged provenance ~pred:p)))
    (Recstep.Analyzer.analyze program).Recstep.Analyzer.idbs;
  add (Printf.sprintf "  tags recorded=%d" (Recstep.Provenance.recorded provenance));
  List.iter add (output_lines r.outputs);
  List.rev !lines

let souffle_lines (pname, src, inputs) =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let program = Programs.parsed src in
  let r = Rs_engines.Souffle_like.run ~pool ~trace ~edb:(inputs ()) program in
  (Printf.sprintf "souffle %s iterations=%d queries=%d" pname r.iterations r.queries
  :: List.map
       (fun (it : Trace.iteration) ->
         Printf.sprintf "  s%d i%d %s d=%d" it.it_stratum it.it_iteration it.it_idb
           it.it_delta_rows)
       (Trace.iterations trace))
  @ output_lines (List.map (fun o -> (o, r.relation_of o)) program.Recstep.Ast.outputs)

let signature () =
  List.concat_map (fun p -> List.concat_map (recstep_lines p) configs) programs
  @ List.concat_map
      (fun ((pname, _, _) as p) -> if pname = "cc" then [] else souffle_lines p)
      programs

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (go []) in
  close_in ic;
  lines

(* The counters ("name+delta" items) of a line, as (name, delta) pairs. *)
let counters line =
  List.filter_map
    (fun w ->
      match String.index_opt w '+' with
      | Some i when i > 0 ->
          Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

(* Every counter whose delta differs between two lines, or that only one
   of them moved. *)
let differing_counters got frozen =
  let a = counters got and f = counters frozen in
  List.sort_uniq compare
    (List.filter_map
       (fun (k, v) -> if List.assoc_opt k f = Some v then None else Some k)
       a
    @ List.filter_map (fun (k, _) -> if List.mem_assoc k a then None else Some k) f)

(* A report of every differing line: the first one in full, then each
   counter that differs on any of them with the number of lines it differs
   on, and the lines whose difference lies outside the counters. *)
let describe_diff actual frozen =
  let rec pairs i a f acc =
    match (a, f) with
    | x :: a', y :: f' -> pairs (i + 1) a' f' (if x = y then acc else (i, x, y) :: acc)
    | _ -> (List.rev acc, List.length a, List.length f)
  in
  let diffs, extra, missing = pairs 1 actual frozen [] in
  let first =
    match diffs with
    | (i, x, y) :: _ -> Printf.sprintf "line %d: got %S, frozen %S" i x y
    | [] -> "no line differs in place"
  in
  let per_line = List.map (fun (_, x, y) -> differing_counters x y) diffs in
  let names = List.sort_uniq compare (List.concat per_line) in
  let counted =
    List.map
      (fun k ->
        Printf.sprintf "%s (%d lines)" k (List.length (List.filter (List.mem k) per_line)))
      names
  in
  Printf.sprintf
    "%d differing lines; first at %s; counters that differ: %s; %d lines differ outside the \
     counters; %d extra, %d missing"
    (List.length diffs) first
    (if counted = [] then "none" else String.concat ", " counted)
    (List.length (List.filter (( = ) []) per_line))
    extra missing

let test_frozen () =
  let frozen = read_lines "frozen_signature.txt" in
  let actual = signature () in
  if actual <> frozen then begin
    let oc = open_out "frozen_signature.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    Alcotest.fail ("signature differs: " ^ describe_diff actual frozen)
  end

let suite = [ Alcotest.test_case "frozen semi-naive signature" `Quick test_frozen ]
