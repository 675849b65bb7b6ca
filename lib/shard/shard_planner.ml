module An = Recstep.Analyzer
module Ast = Recstep.Ast
module Planner = Recstep.Planner
module Plan = Rs_exec.Plan

(* Binding-name suffixes. '@' cannot appear in source predicates, so the
   renamed bodies can never collide with a program relation. *)
let local_name p = p ^ "@l"

let bcast_name p = p ^ "@b"

let delta_local_name p = p ^ "@dl"

let delta_bcast_name p = p ^ "@db"

type source = Local | Bcast

type rclass = Colocated | Broadcast_static | Shuffled

let rclass_name = function
  | Colocated -> "colocated"
  | Broadcast_static -> "broadcast_static"
  | Shuffled -> "shuffled"

type variant = {
  v_driver : string option;
      (* the current-stratum predicate whose Δ feeds this variant; [None]
         for the delta-free base variant *)
  v_plan : Plan.t;
}

type rule_plan = {
  rp_head : string;
  rp_class : rclass;
  rp_head_local : bool;
  rp_solo : int option;  (* anchor-less rule: evaluated only on this node *)
  rp_fact : int array option;
  rp_base : variant option;
  rp_deltas : variant list;
}

type stratum_plan = {
  sp_rules : rule_plan list;
  sp_bcast_full : string list;  (* predicates read through "@b" copies *)
  sp_bcast_live : string list;  (* current-stratum subset: "@b" maintained per round *)
  sp_bcast_delta : string list;  (* current-stratum predicates read through "@db" *)
  sp_classes : (rclass * int) list;
}

(* One positive/negative occurrence with its placement-relevant shape. *)
type occ = {
  o_pred : string;
  o_strategy : Partitioner.strategy;
  o_partition_var : string option;  (* variable at the partition column, if any *)
  o_recursive : bool;  (* current-stratum predicate (Δ-rewritten) *)
  o_negated : bool;
}

let occ_of_atom part stratum ~negated (a : Ast.atom) =
  let strategy = Partitioner.strategy part a.Ast.pred in
  let pvar =
    match strategy with
    | Partitioner.Reference -> None
    | Partitioner.Hash { col } -> (
        match List.nth_opt a.Ast.args col with
        | Some (Ast.Var v) -> Some v
        | Some (Ast.Const _ | Ast.Wildcard) | None -> None)
  in
  {
    o_pred = a.Ast.pred;
    o_strategy = strategy;
    o_partition_var = pvar;
    o_recursive = (not negated) && List.mem a.Ast.pred stratum.An.preds;
    o_negated = negated;
  }

(* Placement of one occurrence under a chosen anchor variable.

   An occurrence is [Local] when its node-resident fragment is guaranteed
   complete for every valuation the node owns: reference tables (full copy
   everywhere), and hash-distributed relations whose partition column is
   bound to the anchor — the valuation's anchor value is node-owned, so
   every matching row hashes to this node. Anything else must read a
   broadcast copy. With no anchor the rule runs whole on one node, so every
   hash-distributed occurrence is a broadcast there. *)
let source_under ~anchor o =
  match o.o_strategy with
  | Partitioner.Reference -> Local
  | Partitioner.Hash _ -> (
      match (anchor, o.o_partition_var) with
      | Some a, Some v when v = a -> Local
      | _ -> Bcast)

let head_local_under part ~anchor (rule : Ast.rule) =
  match (anchor, Partitioner.strategy part rule.Ast.head_pred) with
  | Some a, Partitioner.Hash { col } -> (
      match List.nth_opt rule.Ast.head_args col with
      | Some (Ast.H_term (Ast.Var v)) -> v = a
      | _ -> false)
  | _ -> false

(* Cost of running the rule under a candidate anchor. Recurring costs
   dominate: a broadcast of a current-stratum Δ happens every fixpoint
   round, and a non-local head routes its candidates every round; a static
   broadcast copy is built once per stratum. *)
let anchor_cost part stratum rule occs anchor =
  let atom_cost =
    List.fold_left
      (fun acc o ->
        match source_under ~anchor o with
        | Local -> acc
        | Bcast -> acc + if o.o_recursive then 100 else 1)
      0 occs
  in
  let head_cost =
    if head_local_under part ~anchor rule then 0
    else if stratum.An.recursive then 50
    else 10
  in
  atom_cost + head_cost

(* Compile one body variant by renaming predicates to binding names and
   running the stock analyzer + planner on the synthetic one-rule program.
   The synthetic program is non-recursive by construction (bindings carry
   '@', heads cannot), so [compile_rule] yields a pure base plan whose
   scans are by binding name — reusable verbatim against every node's
   catalog. *)
let compile_binding (rule : Ast.rule) body =
  let renamed = { rule with Ast.body } in
  let bindings =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Ast.L_pos a | Ast.L_neg a -> Some (a.Ast.pred, List.length a.Ast.args)
           | Ast.L_cmp _ -> None)
         body)
  in
  let program =
    { Ast.rules = [ renamed ]; inputs = bindings; outputs = [ rule.Ast.head_pred ] }
  in
  let synth = An.analyze program in
  let stratum0 = List.hd synth.An.strata in
  match Planner.compile_rule synth stratum0 (List.hd stratum0.An.rules) with
  | Planner.Query { base; deltas = [] } -> base
  | Planner.Query _ -> assert false (* bindings cannot be recursive *)
  | Planner.Fact _ -> assert false (* body <> [] *)

let plan_rule an part stratum ~rule_index (rule : Ast.rule) =
  if rule.Ast.body = [] then
    (* Ground fact: extract the tuple through the stock planner. *)
    match Planner.compile_rule an stratum rule with
    | Planner.Fact t ->
        {
          rp_head = rule.Ast.head_pred;
          rp_class = Colocated;
          rp_head_local = false;
          rp_solo = None;
          rp_fact = Some t;
          rp_base = None;
          rp_deltas = [];
        }
    | Planner.Query _ -> assert false
  else begin
    let occs =
      List.filter_map
        (function
          | Ast.L_pos a -> Some (occ_of_atom part stratum ~negated:false a)
          | Ast.L_neg a -> Some (occ_of_atom part stratum ~negated:true a)
          | Ast.L_cmp _ -> None)
        rule.Ast.body
    in
    (* Anchor candidates: variables sitting at the partition column of a
       positive hash-distributed atom. Anchoring on one makes that atom's
       local fragment a complete, disjoint cover of the valuation space. *)
    let candidates =
      List.sort_uniq compare
        (List.filter_map
           (fun o ->
             if o.o_negated then None
             else
               match (o.o_strategy, o.o_partition_var) with
               | Partitioner.Hash _, Some v -> Some v
               | _ -> None)
           occs)
    in
    let anchor =
      match candidates with
      | [] -> None
      | _ ->
          Some
            (List.fold_left
               (fun best v ->
                 if
                   anchor_cost part stratum rule occs (Some v)
                   < anchor_cost part stratum rule occs (Some best)
                 then v
                 else best)
               (List.hd candidates) (List.tl candidates))
    in
    let head_local = head_local_under part ~anchor rule in
    let solo =
      match anchor with
      | Some _ -> None
      | None -> Some (rule_index mod Partitioner.shards part)
    in
    let source o = source_under ~anchor o in
    let bcast_recursive =
      List.exists (fun o -> o.o_recursive && source o = Bcast) occs
    in
    let bcast_static = List.exists (fun o -> (not o.o_recursive) && source o = Bcast) occs in
    let rp_class =
      if anchor = None then Shuffled
      else if bcast_recursive || not head_local then Shuffled
      else if bcast_static then Broadcast_static
      else Colocated
    in
    (* Rename the body per variant. The Δ-driven variant for recursive
       occurrence [i] scans that occurrence's Δ binding and full bindings
       elsewhere — the stock semi-naive rewriting, per occurrence so that
       self-joins stay disambiguated. *)
    let rename_atom ~delta_at at_index (a : Ast.atom) ~negated =
      let o = occ_of_atom part stratum ~negated a in
      let name =
        if delta_at = Some at_index then
          match source o with Local -> delta_local_name | Bcast -> delta_bcast_name
        else match source o with Local -> local_name | Bcast -> bcast_name
      in
      { a with Ast.pred = name a.Ast.pred }
    in
    let rename_body ~delta_at =
      List.mapi
        (fun i lit ->
          match lit with
          | Ast.L_pos a -> Ast.L_pos (rename_atom ~delta_at i a ~negated:false)
          | Ast.L_neg a -> Ast.L_neg (rename_atom ~delta_at i a ~negated:true)
          | Ast.L_cmp _ -> lit)
        rule.Ast.body
    in
    let recursive_positions =
      List.mapi (fun i lit -> (i, lit)) rule.Ast.body
      |> List.filter_map (fun (i, lit) ->
             match lit with
             | Ast.L_pos a when List.mem a.Ast.pred stratum.An.preds -> Some (i, a.Ast.pred)
             | _ -> None)
    in
    let base =
      (* Rules with recursive occurrences contribute nothing at iteration 0
         (their IDB inputs are empty) — same skip as the interpreter. *)
      if recursive_positions <> [] then None
      else Some { v_driver = None; v_plan = compile_binding rule (rename_body ~delta_at:None) }
    in
    let deltas =
      List.map
        (fun (i, pred) ->
          {
            v_driver = Some pred;
            v_plan = compile_binding rule (rename_body ~delta_at:(Some i));
          })
        recursive_positions
    in
    {
      rp_head = rule.Ast.head_pred;
      rp_class;
      rp_head_local = head_local;
      rp_solo = solo;
      rp_fact = None;
      rp_base = base;
      rp_deltas = deltas;
    }
  end

(* Which binding tables a compiled variant scans, recovered from the plan
   names (cheaper than re-deriving placement; Scan is by name). *)
let rec plan_scans acc (p : Plan.t) =
  match p with
  | Plan.Scan s | Plan.Old { table = s; _ } -> s :: acc
  | Plan.Rel _ -> acc
  | Plan.Filter (_, input) | Plan.Project (_, input) -> plan_scans acc input
  | Plan.Join { l; r; _ } -> plan_scans (plan_scans acc l) r
  | Plan.AntiJoin { al; ar; _ } -> plan_scans (plan_scans acc al) ar
  | Plan.UnionAll ps -> List.fold_left plan_scans acc ps
  | Plan.Aggregate { src; _ } -> plan_scans acc src

let strip_suffix s =
  match String.rindex_opt s '@' with
  | Some i -> (String.sub s 0 i, String.sub s i (String.length s - i))
  | None -> (s, "")

let plan_stratum an part (stratum : An.stratum) =
  let rules = List.mapi (fun i r -> plan_rule an part stratum ~rule_index:i r) stratum.An.rules in
  let scans =
    List.concat_map
      (fun rp ->
        let vs = Option.to_list rp.rp_base @ rp.rp_deltas in
        List.concat_map (fun v -> plan_scans [] v.v_plan) vs)
      rules
    |> List.sort_uniq compare
  in
  let with_suffix suffix =
    List.filter_map
      (fun s ->
        let base, suf = strip_suffix s in
        if suf = suffix then Some base else None)
      scans
    |> List.sort_uniq compare
  in
  let bcast_full = with_suffix "@b" in
  let bcast_live = List.filter (fun p -> List.mem p stratum.An.preds) bcast_full in
  let bcast_delta = with_suffix "@db" in
  let classes =
    List.fold_left
      (fun acc rp ->
        let n = try List.assoc rp.rp_class acc with Not_found -> 0 in
        (rp.rp_class, n + 1) :: List.remove_assoc rp.rp_class acc)
      [] rules
  in
  {
    sp_rules = rules;
    sp_bcast_full = bcast_full;
    sp_bcast_live = bcast_live;
    sp_bcast_delta = bcast_delta;
    sp_classes = classes;
  }
