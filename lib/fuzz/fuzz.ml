module Json = Rs_obs.Json

(* One recorded divergence: which case, which runner, what it got wrong,
   and the shrunk reproducer (the first diverging runner per case is used
   as the shrinking predicate; the others are recorded unshrunk — the
   reproducer almost always reproduces them too). *)
type divergence = {
  div_iter : int;
  div_seed : int;
  div_runner : string;
  div_mismatches : Differ.mismatch list;
  div_shrunk : Gen.case option;
  div_why : string list;
      (** per mismatched tuple: the reference evaluator's derivation chain
          (missing rows) or the statement that no proof exists (extra
          rows) — the reproducer explains itself *)
}

(* The self-explaining half of a reproducer. Missing tuples (the reference
   derived them, the engine did not) get the reference's full rule chain
   down to EDB leaves; extra tuples (the engine invented them) get the
   proof-search verdict against the reference database. Computed from the
   naive oracle only, so the text is engine-independent. *)
let why_of_case (c : Gen.case) (ms : Differ.mismatch list) =
  match Recstep.Naive.run ~edb:c.Gen.edb c.Gen.program with
  | exception _ -> []
  | _, rows_of -> (
      match Recstep.Analyzer.analyze c.Gen.program with
      | exception _ -> []
      | an ->
          let edbs = an.Recstep.Analyzer.edbs in
          let rows p =
            if List.mem p edbs then Option.value ~default:[] (List.assoc_opt p c.Gen.edb)
            else rows_of p
          in
          let cap = 2 in
          let take l = List.filteri (fun i _ -> i < cap) l in
          let explain pred row =
            match Recstep.Explain.explain ~an ~rows pred row with
            | Recstep.Explain.Explained n ->
                Printf.sprintf "reference derivation:\n%s" (Recstep.Explain.render n)
            | o -> Recstep.Explain.outcome_to_string ~pred ~row o
          in
          List.concat_map
            (fun (m : Differ.mismatch) ->
              List.map
                (fun row ->
                  Printf.sprintf "missing %s: %s"
                    (Recstep.Explain.fact_to_string m.Differ.pred row)
                    (explain m.Differ.pred row))
                (take m.Differ.missing)
              @ List.map
                  (fun row ->
                    Printf.sprintf "extra %s: %s"
                      (Recstep.Explain.fact_to_string m.Differ.pred row)
                      (explain m.Differ.pred row))
                  (take m.Differ.extra))
            ms)

type failure = { fail_iter : int; fail_seed : int; fail_runner : string; fail_msg : string }

type runner_runs = { runner : string; ok : int; skipped : int; diverged : int; failed : int }

type report = {
  seed : int;
  iters : int;
  n_runners : int;
  cases : int;  (** = iters *)
  invalid : int;  (** cases the oracle rejected; never counted as runs *)
  runs_total : int;  (** = (cases - invalid) * n_runners *)
  runs_ok : int;
  runs_skipped : int;
  runs_diverged : int;
  runs_failed : int;
  by_runner : runner_runs list;
  divergences : divergence list;
  failures : failure list;
}

let case_seed ~seed i = (seed * 1_000_003) + i

let run ?(log = fun (_ : string) -> ()) ?(shrink = true) ?runners ~seed ~iters () =
  let runners = match runners with Some rs -> rs | None -> Differ.all_runners () in
  let n_runners = List.length runners in
  let invalid = ref 0 in
  let total = ref 0 in
  let divergences = ref [] and failures = ref [] in
  (* per runner: ok, skipped, diverged, failed *)
  let tally = Array.make_matrix n_runners 4 0 in
  let tick ri d = tally.(ri).(d) <- tally.(ri).(d) + 1 in
  for i = 0 to iters - 1 do
    let cseed = case_seed ~seed i in
    let case = Gen.gen_case ~seed:cseed in
    match Differ.oracle_of_case case with
    | exception _ -> incr invalid
    | oracle ->
        let shrunk_this_case = ref false in
        List.iteri
          (fun ri (r : Differ.runner) ->
            incr total;
            match r.Differ.run case oracle with
            | Differ.Agree -> tick ri 0
            | Differ.Skipped _ -> tick ri 1
            | Differ.Failed m ->
                tick ri 3;
                log (Printf.sprintf "case %d (seed %d): %s FAILED: %s" i cseed r.Differ.rname m);
                failures :=
                  { fail_iter = i; fail_seed = cseed; fail_runner = r.Differ.rname; fail_msg = m }
                  :: !failures
            | Differ.Diverged ms ->
                tick ri 2;
                log
                  (Printf.sprintf "case %d (seed %d): %s DIVERGED on %s" i cseed r.Differ.rname
                     (String.concat ", " (List.map (fun m -> m.Differ.pred) ms)));
                let div_shrunk =
                  if shrink && not !shrunk_this_case then begin
                    shrunk_this_case := true;
                    let minimal = Shrink.minimize ~check:(Differ.diverges r) case in
                    let rules, tuples = Gen.size minimal in
                    log (Printf.sprintf "  shrunk to %d rules, %d tuples" rules tuples);
                    Some minimal
                  end
                  else None
                in
                (* the why-chains describe the dumped reproducer: re-diff the
                   shrunk case for its own mismatches when we have one *)
                let div_why =
                  match div_shrunk with
                  | Some minimal -> (
                      match
                        let o = Differ.oracle_of_case minimal in
                        r.Differ.run minimal o
                      with
                      | Differ.Diverged ms' -> why_of_case minimal ms'
                      | _ | (exception _) -> why_of_case case ms)
                  | None -> why_of_case case ms
                in
                List.iter (fun w -> log ("  why: " ^ w)) div_why;
                divergences :=
                  {
                    div_iter = i;
                    div_seed = cseed;
                    div_runner = r.Differ.rname;
                    div_mismatches = ms;
                    div_shrunk;
                    div_why;
                  }
                  :: !divergences)
          runners
  done;
  let sum d = Array.fold_left (fun n t -> n + t.(d)) 0 tally in
  {
    seed;
    iters;
    n_runners;
    cases = iters;
    invalid = !invalid;
    runs_total = !total;
    runs_ok = sum 0;
    runs_skipped = sum 1;
    runs_diverged = sum 2;
    runs_failed = sum 3;
    by_runner =
      List.mapi
        (fun ri (r : Differ.runner) ->
          let t = tally.(ri) in
          let runner = r.Differ.rname in
          { runner; ok = t.(0); skipped = t.(1); diverged = t.(2); failed = t.(3) })
        runners;
    divergences = List.rev !divergences;
    failures = List.rev !failures;
  }

(* --- reproducer dumping ------------------------------------------------- *)

(* Writes case<iter>.dl plus one .tsv per EDB into [dir]; the .dl header
   says how to replay it and, when [why] chains are given, what diverged and
   how the reference derives it — the reproducer explains itself. Returns
   the .dl path. *)
let dump_case ?(why = []) ~dir ~tag (c : Gen.case) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base = Filename.concat dir (Printf.sprintf "case%s" tag) in
  let facts =
    List.map (fun (n, _) -> Printf.sprintf "--fact %s=%s.%s.tsv" n base n) c.Gen.edb
  in
  let dl = base ^ ".dl" in
  let oc = open_out dl in
  Printf.fprintf oc "%% rs_fuzz reproducer (case seed %d)\n" c.Gen.case_seed;
  Printf.fprintf oc "%% replay: recstep run %s %s\n" dl (String.concat " " facts);
  List.iter
    (fun w ->
      List.iter
        (fun line -> if line <> "" then Printf.fprintf oc "%% why: %s\n" line)
        (String.split_on_char '\n' w))
    why;
  output_string oc (Gen.case_to_source c);
  close_out oc;
  List.iter
    (fun (n, rows) ->
      let oc = open_out (Printf.sprintf "%s.%s.tsv" base n) in
      output_string oc (Gen.rows_to_tsv rows);
      close_out oc)
    c.Gen.edb;
  dl

let dump_divergences ~dir (r : report) =
  List.filter_map
    (fun d ->
      match d.div_shrunk with
      | None -> None
      | Some c -> Some (dump_case ~why:d.div_why ~dir ~tag:(string_of_int d.div_iter) c))
    r.divergences

(* --- JSON report -------------------------------------------------------- *)

let mismatch_json (m : Differ.mismatch) =
  let rows l = Json.List (List.map (fun r -> Json.List (List.map (fun v -> Json.Int v) r)) l) in
  Json.Obj
    [ ("pred", Json.String m.Differ.pred); ("missing", rows m.Differ.missing);
      ("extra", rows m.Differ.extra) ]

let report_json (r : report) =
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("iters", Json.Int r.iters);
      ("runners", Json.Int r.n_runners);
      ("cases", Json.Int r.cases);
      ("invalid", Json.Int r.invalid);
      ( "runs",
        Json.Obj
          [
            ("total", Json.Int r.runs_total);
            ("ok", Json.Int r.runs_ok);
            ("skipped", Json.Int r.runs_skipped);
            ("diverged", Json.Int r.runs_diverged);
            ("failed", Json.Int r.runs_failed);
          ] );
      ( "by_runner",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("runner", Json.String c.runner);
                   ("ok", Json.Int c.ok);
                   ("skipped", Json.Int c.skipped);
                   ("diverged", Json.Int c.diverged);
                   ("failed", Json.Int c.failed);
                 ])
             r.by_runner) );
      ( "divergences",
        Json.List
          (List.map
             (fun d ->
               let size =
                 match d.div_shrunk with
                 | Some c ->
                     let rules, tuples = Gen.size c in
                     [ ("shrunk_rules", Json.Int rules); ("shrunk_tuples", Json.Int tuples) ]
                 | None -> []
               in
               Json.Obj
                 ([
                    ("case", Json.Int d.div_iter);
                    ("seed", Json.Int d.div_seed);
                    ("runner", Json.String d.div_runner);
                    ("mismatches", Json.List (List.map mismatch_json d.div_mismatches));
                    ("why", Json.List (List.map (fun w -> Json.String w) d.div_why));
                  ]
                 @ size))
             r.divergences) );
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("case", Json.Int f.fail_iter);
                   ("seed", Json.Int f.fail_seed);
                   ("runner", Json.String f.fail_runner);
                   ("error", Json.String f.fail_msg);
                 ])
             r.failures) );
    ]

let clean (r : report) = r.runs_diverged = 0 && r.runs_failed = 0
