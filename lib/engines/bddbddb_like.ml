module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module An = Recstep.Analyzer
module Ast = Recstep.Ast
module Bdd = Rs_bdd.Bdd
module Bdd_rel = Rs_bdd.Bdd_rel

let name = "bddbddb-like"

let capabilities =
  {
    Engine_intf.scale_up = false;
    scale_out = false;
    memory_consumption = "low";
    cpu_utilization = "poor";
    cpu_efficiency = "-";
    tuning_required = "yes (complex)";
    mutual_recursion = true;
    nonrecursive_aggregation = false;
    recursive_aggregation = false;
    incremental = false;
  }

let unsupported = Engine_intf.unsupported

(* Equality constraint between two domains: AND over bit equivalences. *)
let eq_domains sp d1 d2 =
  let m = sp.Bdd_rel.mgr in
  let acc = ref Bdd.btrue in
  for i = 0 to sp.Bdd_rel.bits - 1 do
    let a = Bdd.var m ((d1 * sp.Bdd_rel.bits) + i) in
    let b = Bdd.var m ((d2 * sp.Bdd_rel.bits) + i) in
    let iff = Bdd.ite m a b (Bdd.ite m b Bdd.bfalse Bdd.btrue) in
    acc := Bdd.mk_and m !acc iff
  done;
  !acc

(* Rule variables get domains by first occurrence across the body. *)
let rule_var_domains rule =
  let doms = ref [] in
  let note v = if not (List.mem_assoc v !doms) then doms := !doms @ [ (v, List.length !doms) ] in
  List.iter (fun l -> List.iter note (Ast.literal_vars l)) rule.Ast.body;
  List.iter (fun ht -> List.iter note (Ast.head_term_vars ht)) rule.Ast.head_args;
  !doms

let run ~pool ?deadline_vs ?trace ~edb program =
  let an = An.analyze program in
  if an.An.agg_sigs <> [] then unsupported "%s: aggregation" name;
  let rule_evals = ref 0 in
  List.iter
    (fun (p, arity) -> if arity > 2 then unsupported "%s: relation %s has arity %d" name p arity)
    an.An.arities;
  List.iter
    (fun r ->
      List.iter
        (function
          | Ast.L_neg _ -> unsupported "%s: negation" name
          | Ast.L_cmp ((Ast.Eq | Ast.Ne), Ast.T (Ast.Var _), Ast.T (Ast.Var _)) -> ()
          | Ast.L_cmp _ -> unsupported "%s: arithmetic comparison" name
          | Ast.L_pos a ->
              let vars = Ast.atom_vars a in
              if List.length (List.sort_uniq compare vars) <> List.length vars then
                unsupported "%s: repeated variable inside a body atom" name)
        r.Ast.body)
    an.An.program.Ast.rules;
  (* Bit width from the active domain: EDB values plus every constant in the
     program text (a rule constant wider than the EDB would otherwise be
     silently truncated to [bits] and alias a small value). *)
  let maxv = ref 1 in
  List.iter
    (fun (p, r) ->
      for row = 0 to Relation.nrows r - 1 do
        for c = 0 to Relation.arity r - 1 do
          let v = Relation.get r ~row ~col:c in
          if v < 0 then unsupported "%s: negative attribute in %s" name p;
          if v > !maxv then maxv := v
        done
      done)
    edb;
  let note_term = function
    | Ast.Const c ->
        if c < 0 then unsupported "%s: negative constant" name;
        if c > !maxv then maxv := c
    | _ -> ()
  in
  List.iter
    (fun r ->
      List.iter (function Ast.H_term t -> note_term t | Ast.H_agg _ -> ()) r.Ast.head_args;
      List.iter
        (function
          | Ast.L_pos a | Ast.L_neg a -> List.iter note_term a.Ast.args
          | Ast.L_cmp _ -> ())
        r.Ast.body)
    an.An.program.Ast.rules;
  let bits =
    let rec go b = if 1 lsl b > !maxv then b else go (b + 1) in
    go 1
  in
  let ndomains =
    List.fold_left
      (fun acc r -> max acc (List.length (rule_var_domains r)))
      2 an.An.program.Ast.rules
  in
  let sp = Bdd_rel.make_space ~bits ~ndomains:(max 2 ndomains) in
  (* The engine is serial, so simulated time ≈ wall time; arm the manager's
     wall deadline so an exploding BDD operation can be interrupted. *)
  (match deadline_vs with
  | Some budget ->
      let remaining = budget -. Pool.vtime_now pool in
      Bdd.set_deadline sp.Bdd_rel.mgr (Some (Rs_util.Clock.now () +. max 0.01 remaining))
  | None -> ());
  let fx = Recstep.Fixpoint.create ?trace ?deadline:deadline_vs ~kind:"engine" pool in
  (* canonical BDDs per predicate *)
  let full : (string, Bdd.node ref) Hashtbl.t = Hashtbl.create 32 in
  let delta : (string, Bdd.node ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (p, _) ->
      Hashtbl.replace full p (ref Bdd.bfalse);
      Hashtbl.replace delta p (ref Bdd.bfalse))
    an.An.arities;
  List.iter
    (fun p ->
      match List.assoc_opt p edb with
      | Some r -> (Hashtbl.find full p) := Bdd_rel.of_relation sp r
      | None -> unsupported "%s: missing input %s" name p)
    an.An.edbs;
  (* Evaluate one rule with atom [delta_at] (if >= 0) read from Δ. *)
  let eval_rule stratum rule ~delta_at =
    let var_dom = rule_var_domains rule in
    let dom v = List.assoc v var_dom in
    let occurrence = ref (-1) in
    let conj = ref Bdd.btrue in
    List.iter
      (function
        | Ast.L_pos a ->
            let recursive = List.mem a.Ast.pred stratum.An.preds in
            let source =
              if recursive then begin
                incr occurrence;
                if !occurrence = delta_at then !(Hashtbl.find delta a.Ast.pred)
                else !(Hashtbl.find full a.Ast.pred)
              end
              else !(Hashtbl.find full a.Ast.pred)
            in
            (* move each positional domain to the variable's domain; const
               arguments become cubes *)
            let from_domains = ref [] and to_domains = ref [] in
            let consts = ref [] in
            List.iteri
              (fun pos t ->
                match t with
                | Ast.Var v ->
                    from_domains := pos :: !from_domains;
                    to_domains := dom v :: !to_domains
                | Ast.Const c -> consts := (pos, c) :: !consts
                | Ast.Wildcard -> assert false)
              a.Ast.args;
            (* constant positions: constrain and forget them BEFORE the move,
               so the single simultaneous rename below stays injective *)
            let constrained =
              List.fold_left
                (fun acc (pos, c) ->
                  let cube = Bdd_rel.tuple_bdd sp [| pos |] [| c |] in
                  Bdd_rel.exists_domains sp [ pos ]
                    (Bdd.mk_and sp.Bdd_rel.mgr acc cube))
                source !consts
            in
            let moved =
              Bdd_rel.rename sp
                ~from_domains:(Array.of_list (List.rev !from_domains))
                ~to_domains:(Array.of_list (List.rev !to_domains))
                constrained
            in
            conj := Bdd.mk_and sp.Bdd_rel.mgr !conj moved
        | Ast.L_cmp (op, Ast.T (Ast.Var v1), Ast.T (Ast.Var v2)) ->
            let eq = eq_domains sp (dom v1) (dom v2) in
            conj :=
              (match op with
              | Ast.Eq -> Bdd.mk_and sp.Bdd_rel.mgr !conj eq
              | Ast.Ne -> Bdd.mk_diff sp.Bdd_rel.mgr !conj eq
              | _ -> assert false)
        | Ast.L_cmp _ | Ast.L_neg _ -> assert false)
      rule.Ast.body;
    (* project to head: quantify away non-head domains, then rename *)
    let head_terms =
      List.map
        (function
          | Ast.H_term t -> t
          | Ast.H_agg _ -> assert false)
        rule.Ast.head_args
    in
    let head_vars =
      List.filter_map (function Ast.Var v -> Some v | _ -> None) head_terms
      |> List.sort_uniq compare
    in
    let keep = List.map dom head_vars in
    let drop =
      List.filter_map (fun (_, d) -> if List.mem d keep then None else Some d) var_dom
    in
    let projected = Bdd_rel.exists_domains sp drop !conj in
    (* Move every head variable's domain to its canonical position in ONE
       simultaneous rename (per-variable sequential renames could collide
       when a target position is another variable's source domain), then
       pin duplicated head variables and constants. *)
    let assigned : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let moves = ref [] and dups = ref [] and consts = ref [] in
    List.iteri
      (fun pos t ->
        match t with
        | Ast.Var v -> (
            match Hashtbl.find_opt assigned v with
            | None ->
                Hashtbl.replace assigned v pos;
                if dom v <> pos then moves := (dom v, pos) :: !moves
            | Some first_pos -> dups := (first_pos, pos) :: !dups)
        | Ast.Const c -> consts := (pos, c) :: !consts
        | Ast.Wildcard -> assert false)
      head_terms;
    let canonical =
      ref
        (Bdd_rel.rename sp
           ~from_domains:(Array.of_list (List.map fst !moves))
           ~to_domains:(Array.of_list (List.map snd !moves))
           projected)
    in
    List.iter
      (fun (first_pos, pos) ->
        canonical := Bdd.mk_and sp.Bdd_rel.mgr !canonical (eq_domains sp first_pos pos))
      !dups;
    List.iter
      (fun (pos, c) ->
        canonical :=
          Bdd.mk_and sp.Bdd_rel.mgr !canonical (Bdd_rel.tuple_bdd sp [| pos |] [| c |]))
      !consts;
    !canonical
  in
  (* collision hazard: a head variable's body domain may equal another head
     position's target; [rule_var_domains] assigns by first occurrence so the
     common rules are safe, and the equality path handles duplicates. *)
  let facts stratum =
    List.filter_map
      (fun r ->
        if r.Ast.body = [] && List.mem r.Ast.head_pred stratum.An.preds then
          Some
            ( r.Ast.head_pred,
              Array.of_list
                (List.map
                   (function Ast.H_term (Ast.Const c) -> c | _ -> unsupported "%s: non-ground fact" name)
                   r.Ast.head_args) )
        else None)
      an.An.program.Ast.rules
  in
  let eval_stratum stratum =
    let m = sp.Bdd_rel.mgr in
    let rules = List.filter (fun r -> r.Ast.body <> []) stratum.An.rules in
    let rec_occurrences rule =
      List.fold_left
        (fun acc l ->
          match l with
          | Ast.L_pos a when List.mem a.Ast.pred stratum.An.preds -> acc + 1
          | _ -> acc)
        0 rule.Ast.body
    in
    (* iteration 0: facts plus delta-free rules; bddbddb tests its Δs only
       after a delta round, so the first one always runs *)
    let base () =
      List.iter
        (fun (p, tuple) ->
          let f = Hashtbl.find full p in
          f := Bdd.mk_or m !f (Bdd_rel.tuple_bdd sp (Array.init (Array.length tuple) (fun i -> i)) tuple))
        (facts stratum);
      List.iter
        (fun rule ->
          if rec_occurrences rule = 0 then begin
            let f = Hashtbl.find full rule.Ast.head_pred in
            incr rule_evals;
            f := Bdd.mk_or m !f (eval_rule stratum rule ~delta_at:(-1))
          end)
        rules;
      List.iter (fun p -> Hashtbl.find delta p := !(Hashtbl.find full p)) stratum.An.preds;
      true
    in
    let round _ =
      let news =
        List.map
          (fun p ->
            let acc = ref Bdd.bfalse in
            List.iter
              (fun rule ->
                if rule.Ast.head_pred = p then
                  for i = 0 to rec_occurrences rule - 1 do
                    incr rule_evals;
                    acc := Bdd.mk_or m !acc (eval_rule stratum rule ~delta_at:i)
                  done)
              rules;
            (p, !acc))
          stratum.An.preds
      in
      List.fold_left
        (fun any (p, new_bdd) ->
          let f = Hashtbl.find full p and d = Hashtbl.find delta p in
          let fresh = Bdd.mk_diff m new_bdd !f in
          d := fresh;
          if fresh <> Bdd.bfalse then f := Bdd.mk_or m !f fresh;
          any || fresh <> Bdd.bfalse)
        false news
    in
    Recstep.Fixpoint.run fx ~recursive:stratum.An.recursive ~base ~delta:round;
    List.iter (fun p -> Hashtbl.find delta p := Bdd.bfalse) stratum.An.preds
  in
  (try
     List.iter
       (fun s -> Recstep.Fixpoint.stratum fx s.An.index (fun () -> eval_stratum s))
       an.An.strata
   with Bdd.Deadline_exceeded -> Recstep.Fixpoint.timeout pool);
  let relation_of p =
    match Hashtbl.find_opt full p with
    | Some f -> Bdd_rel.to_relation sp ~arity:(An.arity an p) ~name:p !f
    | None -> invalid_arg (Printf.sprintf "%s: unknown relation %s" name p)
  in
  Engine_intf.mk_result ~pool ?trace ~iterations:(Recstep.Fixpoint.iterations fx) ~queries:!rule_evals
    relation_of

let maintain ~pool ?trace ~edb program =
  Engine_intf.maintain_by_recompute run ~pool ?trace ~edb program
