open Ast
module Plan = Rs_exec.Plan
module Expr = Rs_exec.Expr

type compiled =
  | Fact of int array
  | Query of { base : Plan.t; deltas : (string * Plan.t) list }

let fail fmt = Printf.ksprintf (fun m -> raise (Analyzer.Analysis_error m)) fmt

(* Scan of one body atom: constants and repeated variables become filter
   predicates; returns the plan and the atom's variable bindings
   (first-occurrence column per variable). [source] lets the caller redirect
   the read to the table's Δ or to the rows before it. *)
let atom_scan ?source a =
  let source = Option.value source ~default:(Plan.Scan a.pred) in
  let preds = ref [] and binds = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | Const c -> preds := Expr.Cmp (Expr.Eq, Expr.Col i, Expr.Const c) :: !preds
      | Var v -> (
          match List.assoc_opt v !binds with
          | Some j -> preds := Expr.Cmp (Expr.Eq, Expr.Col i, Expr.Col j) :: !preds
          | None -> binds := (v, i) :: !binds)
      | Wildcard -> assert false (* normalized away by the analyzer *))
    a.args;
  let plan =
    match !preds with [] -> source | ps -> Plan.Filter (ps, source)
  in
  (plan, List.rev !binds)

let rec expr_to_exec binds = function
  | T (Var v) -> (
      match List.assoc_opt v binds with
      | Some c -> Expr.Col c
      | None -> fail "unbound variable %s" v)
  | T (Const c) -> Expr.Const c
  | T Wildcard -> assert false
  | Add (a, b) -> Expr.Add (expr_to_exec binds a, expr_to_exec binds b)
  | Sub (a, b) -> Expr.Sub (expr_to_exec binds a, expr_to_exec binds b)
  | Mul (a, b) -> Expr.Mul (expr_to_exec binds a, expr_to_exec binds b)

let cmp_to_exec binds (op, a, b) =
  let op =
    match op with
    | Ast.Eq -> Expr.Eq
    | Ast.Ne -> Expr.Ne
    | Ast.Lt -> Expr.Lt
    | Ast.Le -> Expr.Le
    | Ast.Gt -> Expr.Gt
    | Ast.Ge -> Expr.Ge
  in
  Expr.Cmp (op, expr_to_exec binds a, expr_to_exec binds b)

let head_exprs binds head_args =
  Array.of_list
    (List.map
       (function
         | H_term (Var v) -> (
             match List.assoc_opt v binds with
             | Some c -> Expr.Col c
             | None -> fail "unbound head variable %s" v)
         | H_term (Const c) -> Expr.Const c
         | H_term Wildcard -> assert false
         | H_agg (_, e) -> expr_to_exec binds e)
       head_args)

(* Compile the rule body with the [i]-th current-stratum atom occurrence
   (if [delta_occurrence >= 0]) redirected to its Δ. Earlier recursive
   occurrences read only the rows before their table's Δ ([Plan.Old]),
   later ones the whole table: the product rule
   Δ(R⋈S) = ΔR⋈S_new ∪ R_old⋈ΔS, so the delta plans of one rule derive each
   combination of rows exactly once. An aggregated IDB's table is rebuilt
   every round and its Δ is not a range of it, so it is always read whole. *)
let compile_body analyzer stratum rule ~delta_occurrence =
  let positive =
    List.filter_map (function L_pos a -> Some a | L_neg _ | L_cmp _ -> None) rule.body
  in
  let recursive_here a = List.mem a.pred stratum.Analyzer.preds in
  (* Index the recursive occurrences among positive atoms. *)
  let occurrence = ref (-1) in
  let source_for a =
    if not (recursive_here a) then None
    else begin
      incr occurrence;
      if !occurrence = delta_occurrence then Some (Plan.Delta a.pred)
      else if !occurrence < delta_occurrence && Analyzer.agg_sig analyzer a.pred = None then
        Some (Plan.Old a.pred)
      else None
    end
  in
  match positive with
  | [] -> fail "rule with no positive atom reached the planner: %s" (rule_to_string rule)
  | first :: rest ->
      let first_plan, first_binds = atom_scan ?source:(source_for first) first in
      let plan, binds, arity =
        List.fold_left
          (fun (plan, binds, arity) a ->
            let a_plan, a_binds = atom_scan ?source:(source_for a) a in
            let shared =
              List.filter_map
                (fun (v, ac) ->
                  match List.assoc_opt v binds with Some sc -> Some (sc, ac) | None -> None)
                a_binds
            in
            let lkeys = Array.of_list (List.map fst shared) in
            let rkeys = Array.of_list (List.map snd shared) in
            let new_binds =
              List.filter_map
                (fun (v, ac) ->
                  if List.mem_assoc v binds then None else Some (v, ac + arity))
                a_binds
            in
            let a_arity = List.length a.args in
            ( Plan.join2 plan lkeys a_plan rkeys,
              binds @ new_binds,
              arity + a_arity ))
          (first_plan, first_binds, List.length first.args)
          rest
      in
      (plan, binds, arity)

let compile_rule analyzer stratum rule =
  (* Ground rules (facts) seed the head relation directly. *)
  let as_fact =
    if rule.body = [] then
      Some
        (Array.of_list
           (List.map
              (function
                | H_term (Const c) -> c
                | ht -> fail "fact with non-constant argument %s" (head_term_to_string ht))
              rule.head_args))
    else None
  in
  match as_fact with
  | Some tuple -> Fact tuple
  | None ->
      let cmps =
        List.filter_map
          (function L_cmp (op, a, b) -> Some (op, a, b) | L_pos _ | L_neg _ -> None)
          rule.body
      in
      let negs =
        List.filter_map (function L_neg a -> Some a | L_pos _ | L_cmp _ -> None) rule.body
      in
      let n_positive =
        List.length
          (List.filter (function L_pos _ -> true | L_neg _ | L_cmp _ -> false) rule.body)
      in
      let build ~delta_occurrence =
        let plan, binds, _arity = compile_body analyzer stratum rule ~delta_occurrence in
        let cmp_preds = List.map (cmp_to_exec binds) cmps in
        let out = head_exprs binds rule.head_args in
        (* Negations wrap the join chain in anti-joins (the negated relation
           is EDB or lower-stratum, hence stable within this stratum). *)
        let with_negs =
          List.fold_left
            (fun plan a ->
              let neg_plan, neg_binds = atom_scan a in
              let keys =
                List.map
                  (fun (v, nc) ->
                    match List.assoc_opt v binds with
                    | Some sc -> (sc, nc)
                    | None -> fail "negated variable %s not bound: %s" v (rule_to_string rule))
                  neg_binds
              in
              Plan.AntiJoin
                {
                  al = plan;
                  ar = neg_plan;
                  alkeys = Array.of_list (List.map fst keys);
                  arkeys = Array.of_list (List.map snd keys);
                })
            plan negs
        in
        match (negs, with_negs) with
        | [], Plan.Join j when n_positive >= 2 ->
            (* Embed residual comparisons and the head projection in the top
               join: no extra materialization. *)
            Plan.Join { j with extra = j.extra @ cmp_preds; out = Some out }
        | _ ->
            let filtered =
              match cmp_preds with [] -> with_negs | ps -> Plan.Filter (ps, with_negs)
            in
            Plan.Project (out, filtered)
      in
      (* Recursive predicates in body order — the same positive-atom walk
         [compile_body]'s occurrence counter performs, so occurrence [i]
         scans the Δ of [List.nth rec_preds i]. *)
      let rec_preds =
        List.filter_map
          (function
            | L_pos a when List.mem a.pred stratum.Analyzer.preds -> Some a.pred
            | L_pos _ | L_neg _ | L_cmp _ -> None)
          rule.body
      in
      Query
        {
          base = build ~delta_occurrence:(-1);
          deltas = List.mapi (fun i p -> (p, build ~delta_occurrence:i)) rec_preds;
        }
