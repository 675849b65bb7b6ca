module Ast = Recstep.Ast
module Ivm = Recstep.Ivm
module Naive = Recstep.Naive
module Provenance = Recstep.Provenance
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Delta = Rs_relation.Delta
module Rng = Rs_util.Rng
module Json = Rs_obs.Json

type divergence = {
  div_seed : int;
  div_version : int;  (* 0 = bootstrap, k = after the k-th delta *)
  div_pred : string;
  div_missing : int list list;
  div_extra : int list list;
}

type report = {
  seed : int;
  cases : int;
  invalid : int;
  versions : int;  (* deltas applied and checked across all cases *)
  ops : int;  (* total insert/retract operations streamed *)
  divergences : divergence list;
}

(* --- delta-stream generation -------------------------------------------- *)

(* Arities as the differ recovers them: a [.input] without an explicit
   arity parses as 0, the analyzer infers the real one from the rules. *)
let input_arities (program : Ast.program) =
  let an = lazy (Recstep.Analyzer.analyze program) in
  List.map
    (fun (name, arity) ->
      (name, if arity > 0 then arity else Recstep.Analyzer.arity (Lazy.force an) name))
    program.Ast.inputs

(* A random delta against the mirror's current contents: mostly inserts of
   small-domain rows, retracts split between rows that exist (real
   deletions) and rows that may not (the no-op edge case), plus an
   occasional retract-then-reinsert of a held row inside one delta — the
   flip-flop [normalize] must cancel. The mirror is updated set-level, in
   op order, exactly like [Edb_store.apply]. *)
let gen_delta rng arities mirror =
  let n_ops = 1 + Rng.int rng 6 in
  let ops = ref [] in
  for _ = 1 to n_ops do
    let rel, arity = List.nth arities (Rng.int rng (List.length arities)) in
    let tbl = Hashtbl.find mirror rel in
    let existing () =
      let rows = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
      match rows with
      | [] -> None
      | _ -> Some (List.nth (List.sort compare rows) (Rng.int rng (List.length rows)))
    in
    let random_row () = List.init arity (fun _ -> Rng.int rng 8) in
    let emit sign row =
      ops := (rel, { Delta.sign; row = Array.of_list row }) :: !ops;
      match sign with
      | Delta.Insert -> Hashtbl.replace tbl row ()
      | Delta.Retract -> Hashtbl.remove tbl row
    in
    let r = Rng.float rng 1.0 in
    if r < 0.45 then emit Delta.Insert (random_row ())
    else if r < 0.7 then (
      match existing () with
      | Some row -> emit Delta.Retract row
      | None -> emit Delta.Insert (random_row ()))
    else if r < 0.9 then emit Delta.Retract (random_row ())
    else
      (* flip-flop: retract then reinsert a held row within one delta *)
      match existing () with
      | Some row ->
          emit Delta.Retract row;
          emit Delta.Insert row
      | None -> emit Delta.Insert (random_row ())
  done;
  (* group the op stream per relation, preserving order *)
  List.fold_left
    (fun acc (rel, op) -> Delta.merge acc [ (rel, [ op ]) ])
    Delta.empty (List.rev !ops)

(* --- the oracle check ---------------------------------------------------- *)

let sorted rows = List.sort_uniq compare rows

(* Diff the maintained state against a from-scratch naive recompute on the
   mirrored EDB: every IDB, at one version. *)
let check_version ~cseed ~version ivm mirror_rows program =
  let idbs, rows_of = Naive.run ~edb:mirror_rows program in
  List.filter_map
    (fun pred ->
      let expect = sorted (rows_of pred) in
      let got = sorted (Ivm.rows ivm pred) in
      if expect = got then None
      else
        Some
          {
            div_seed = cseed;
            div_version = version;
            div_pred = pred;
            div_missing = List.filter (fun r -> not (List.mem r got)) expect;
            div_extra = List.filter (fun r -> not (List.mem r expect)) got;
          })
    idbs

(* --- the seeded twin -------------------------------------------------------- *)

let seeded_view ~prov ~edb program =
  let pool = Pool.create ~workers:2 () in
  Pool.begin_run pool;
  let arities = input_arities program in
  let rels =
    List.map
      (fun (name, rows) ->
        (name, Relation.of_rows ~name (List.assoc name arities) (List.map Array.of_list rows)))
      edb
  in
  let result =
    Recstep.Interpreter.run ~options:(Recstep.Interpreter.options ()) ~pool ~edb:rels program
  in
  Ivm.create ~prov ~fixpoint:result.Recstep.Interpreter.relation_of ~edb program

let tagged_rows v pred =
  match Ivm.provenance v with
  | None -> []
  | Some p -> List.filter (fun row -> Provenance.find p ~pred row <> None) (Ivm.rows v pred)

let check_seeded ~cseed ~version ~reference seeded =
  let minus a b = List.filter (fun r -> not (List.mem r b)) a in
  List.filter_map
    (fun pred ->
      let want = Ivm.rows reference pred and got = Ivm.rows seeded pred in
      let want_t = tagged_rows reference pred and got_t = tagged_rows seeded pred in
      if want = got && want_t = got_t then None
      else
        Some
          {
            div_seed = cseed;
            div_version = version;
            div_pred = "seeded " ^ pred;
            div_missing = minus want got @ minus want_t got_t;
            div_extra = minus got want @ minus got_t want_t;
          })
    (Ivm.idbs reference)

let mirror_rows mirror arities =
  List.map
    (fun (rel, _) ->
      let tbl = Hashtbl.find mirror rel in
      (rel, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])))
    arities

(* Stream [deltas] random updates through one case's IVM, checking every
   version against the naive oracle. Returns (versions, ops, divergences);
   raises nothing — an oracle rejection is reported by the caller. *)
let run_case ~cseed ~deltas (case : Gen.case) =
  let program = case.Gen.program in
  let arities = input_arities program in
  let mirror = Hashtbl.create 8 in
  List.iter
    (fun (rel, _) ->
      let tbl = Hashtbl.create 32 in
      let rows = try List.assoc rel case.Gen.edb with Not_found -> [] in
      List.iter (fun row -> Hashtbl.replace tbl row ()) rows;
      Hashtbl.add mirror rel tbl)
    arities;
  let edb0 = mirror_rows mirror arities in
  let ivm = Ivm.create ~prov:(Provenance.create ()) ~edb:edb0 program in
  let seeded = seeded_view ~prov:(Provenance.create ()) ~edb:edb0 program in
  let check version =
    match check_version ~cseed ~version ivm (mirror_rows mirror arities) program with
    | [] -> check_seeded ~cseed ~version ~reference:ivm seeded
    | divs -> divs
  in
  let rng = Rng.create (cseed lxor 0x5eed) in
  let divs = ref (check 0) in
  let ops = ref 0 in
  let v = ref 0 in
  while !v < deltas && !divs = [] do
    incr v;
    let d = gen_delta rng arities mirror in
    ops := !ops + Delta.size d;
    ignore (Ivm.apply ivm d);
    ignore (Ivm.apply seeded d);
    divs := check !v
  done;
  (!v, !ops, !divs)

let case_seed ~seed i = (seed * 998_244_353) + i

let run ?(log = fun (_ : string) -> ()) ~seed ~iters ?(deltas = 8) () =
  let invalid = ref 0 and versions = ref 0 and ops = ref 0 in
  let divergences = ref [] in
  for i = 0 to iters - 1 do
    let cseed = case_seed ~seed i in
    let case = Gen.gen_case ~seed:cseed in
    match run_case ~cseed ~deltas case with
    | v, o, divs ->
        versions := !versions + v;
        ops := !ops + o;
        List.iter
          (fun d ->
            log
              (Printf.sprintf "case %d (seed %d): %s DIVERGED at version %d" i cseed d.div_pred
                 d.div_version))
          divs;
        divergences := !divergences @ divs
    | exception _ -> incr invalid
  done;
  {
    seed;
    cases = iters;
    invalid = !invalid;
    versions = !versions;
    ops = !ops;
    divergences = !divergences;
  }

let clean (r : report) = r.divergences = []

let report_json (r : report) =
  let rows l = Json.List (List.map (fun x -> Json.List (List.map (fun v -> Json.Int v) x)) l) in
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("cases", Json.Int r.cases);
      ("invalid", Json.Int r.invalid);
      ("versions", Json.Int r.versions);
      ("ops", Json.Int r.ops);
      ( "divergences",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("seed", Json.Int d.div_seed);
                   ("version", Json.Int d.div_version);
                   ("pred", Json.String d.div_pred);
                   ("missing", rows d.div_missing);
                   ("extra", rows d.div_extra);
                 ])
             r.divergences) );
    ]
