open Ast

exception Analysis_error of string

type agg_sig = {
  group_positions : int list;
  agg_positions : (int * Ast.agg_op) list;
}

type stratum = {
  index : int;
  preds : string list;
  rules : Ast.rule list;
  recursive : bool;
}

type t = {
  program : Ast.program;
  arities : (string * int) list;
  edbs : string list;
  idbs : string list;
  strata : stratum list;
  agg_sigs : (string * agg_sig) list;
}

let fail fmt = Printf.ksprintf (fun m -> raise (Analysis_error m)) fmt

(* --- normalization: give every wildcard occurrence a fresh name --- *)

let normalize_rule counter r =
  let fresh () =
    incr counter;
    Var (Printf.sprintf "$w%d" !counter)
  in
  let term = function Wildcard -> fresh () | t -> t in
  let rec expr = function
    | T t -> T (term t)
    | Add (a, b) -> Add (expr a, expr b)
    | Sub (a, b) -> Sub (expr a, expr b)
    | Mul (a, b) -> Mul (expr a, expr b)
  in
  let atom a = { a with args = List.map term a.args } in
  let literal = function
    | L_pos a -> L_pos (atom a)
    | L_neg a -> L_neg (atom a)
    | L_cmp (op, a, b) -> L_cmp (op, expr a, expr b)
  in
  let head_term = function
    | H_term Wildcard -> fail "wildcard in rule head: %s" (rule_to_string r)
    | H_term t -> H_term t
    | H_agg (op, e) -> H_agg (op, expr e)
  in
  { head_pred = r.head_pred; head_args = List.map head_term r.head_args; body = List.map literal r.body }

(* --- arity collection and checks --- *)

let collect_arities (program : Ast.program) =
  let table : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let note pred arity where =
    match Hashtbl.find_opt table pred with
    | None -> Hashtbl.add table pred arity
    | Some a when a = arity -> ()
    | Some a -> fail "arity mismatch for %s: %d vs %d (%s)" pred a arity where
  in
  List.iter
    (fun r ->
      note r.head_pred (List.length r.head_args) (rule_to_string r);
      List.iter
        (function
          | L_pos a | L_neg a -> note a.pred (List.length a.args) (rule_to_string r)
          | L_cmp _ -> ())
        r.body)
    program.rules;
  List.iter
    (fun (name, arity) ->
      if arity > 0 then note name arity (Printf.sprintf ".input %s %d" name arity))
    program.inputs;
  table

(* --- safety --- *)

let positive_vars r =
  List.concat_map (function L_pos a -> atom_vars a | L_neg _ | L_cmp _ -> []) r.body

let check_safety r =
  let pos = positive_vars r in
  let check_vars what vars =
    List.iter
      (fun v ->
        if not (List.mem v pos) then
          fail "unsafe rule (%s variable %s not bound by a positive atom): %s" what v
            (rule_to_string r))
      vars
  in
  check_vars "head" (List.concat_map head_term_vars r.head_args);
  List.iter
    (function
      | L_pos _ -> ()
      | L_neg a -> check_vars "negated" (atom_vars a)
      | L_cmp (_, a, b) -> check_vars "comparison" (expr_vars a @ expr_vars b))
    r.body

(* --- aggregate signatures --- *)

let rule_agg_sig r =
  let group, aggs =
    List.fold_left
      (fun (g, a) (i, ht) ->
        match ht with H_term _ -> (i :: g, a) | H_agg (op, _) -> (g, (i, op) :: a))
      ([], [])
      (List.mapi (fun i ht -> (i, ht)) r.head_args)
  in
  if aggs = [] then None
  else Some { group_positions = List.rev group; agg_positions = List.rev aggs }

let collect_agg_sigs rules =
  let table : (string, agg_sig) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match rule_agg_sig r with
      | None ->
          if Hashtbl.mem table r.head_pred then
            fail "predicate %s mixes aggregate and plain rules" r.head_pred
      | Some s -> (
          match Hashtbl.find_opt table r.head_pred with
          | None ->
              (* Error if an earlier rule for this head had no aggregate. *)
              Hashtbl.add table r.head_pred s
          | Some s' when s = s' -> ()
          | Some _ -> fail "predicate %s has inconsistent aggregate signatures" r.head_pred))
    rules;
  (* A second pass catches plain rules that precede the aggregate ones. *)
  List.iter
    (fun r ->
      if rule_agg_sig r = None && Hashtbl.mem table r.head_pred then
        fail "predicate %s mixes aggregate and plain rules" r.head_pred)
    rules;
  table

(* --- dependency graph over IDB predicates and SCC stratification --- *)

let idb_dependencies rules idbs =
  (* edges: head -> body-idb it depends on; negative marks record ¬ uses *)
  let deps : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let negdeps = ref [] in
  List.iter (fun p -> Hashtbl.replace deps p []) idbs;
  List.iter
    (fun r ->
      List.iter
        (function
          | L_pos a when List.mem a.pred idbs ->
              Hashtbl.replace deps r.head_pred (a.pred :: Hashtbl.find deps r.head_pred)
          | L_neg a when List.mem a.pred idbs ->
              Hashtbl.replace deps r.head_pred (a.pred :: Hashtbl.find deps r.head_pred);
              negdeps := (r.head_pred, a.pred) :: !negdeps
          | L_pos _ | L_neg _ | L_cmp _ -> ())
        r.body)
    rules;
  (deps, !negdeps)

(* Tarjan's algorithm; returns SCCs as lists of predicates. *)
let tarjan nodes succ =
  let index : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let lowlink : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let on_stack : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  (* Tarjan emits an SCC only after all SCCs it depends on; reversing the
     emission order would be top-down, so keep emission order = bottom-up. *)
  List.rev !sccs

let analyze (program : Ast.program) =
  let counter = ref 0 in
  let rules = List.map (normalize_rule counter) program.rules in
  let program = { program with rules } in
  let arities = collect_arities program in
  let idbs =
    List.sort_uniq compare (List.map (fun r -> r.head_pred) rules)
  in
  let edbs =
    Hashtbl.fold (fun p _ acc -> if List.mem p idbs then acc else p :: acc) arities []
    |> List.sort compare
  in
  List.iter
    (fun (name, _) ->
      if List.mem name idbs then
        fail "relation %s is declared .input but appears in a rule head" name)
    program.inputs;
  List.iter check_safety rules;
  let agg_table = collect_agg_sigs rules in
  let deps, negdeps = idb_dependencies rules idbs in
  let succ v = try Hashtbl.find deps v with Not_found -> [] in
  (* strongconnect v explores the predicates v depends on first, so SCCs come
     out bottom-up: dependencies before dependents. *)
  let sccs = tarjan idbs succ in
  let stratum_of : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iteri (fun i scc -> List.iter (fun p -> Hashtbl.replace stratum_of p i) scc) sccs;
  (* Stratified negation: ¬p in a rule for q requires stratum p < stratum q
     (EDBs are always fine). *)
  List.iter
    (fun (q, p) ->
      if Hashtbl.find stratum_of p >= Hashtbl.find stratum_of q then
        fail "program is not stratifiable: %s depends negatively on %s within a cycle" q p)
    negdeps;
  let strata =
    List.mapi
      (fun index scc ->
        let stratum_rules = List.filter (fun r -> List.mem r.head_pred scc) rules in
        let recursive =
          (* recursive iff the SCC has an internal edge (self-loop or cycle) *)
          List.exists
            (fun r -> List.exists (fun p -> List.mem p scc) (rule_body_preds r))
            stratum_rules
        in
        { index; preds = scc; rules = stratum_rules; recursive })
      sccs
  in
  (* Monotone aggregation inside recursion only. *)
  List.iter
    (fun s ->
      if s.recursive then
        List.iter
          (fun p ->
            match Hashtbl.find_opt agg_table p with
            | Some { agg_positions; _ } ->
                List.iter
                  (fun (_, op) ->
                    match op with
                    | Min | Max -> ()
                    | Sum | Count | Avg ->
                        fail
                          "non-monotone aggregate %s on %s inside recursion does not converge"
                          (agg_op_to_string op) p)
                  agg_positions
            | None -> ())
          s.preds)
    strata;
  {
    program;
    arities = Hashtbl.fold (fun k v acc -> (k, v) :: acc) arities [] |> List.sort compare;
    edbs;
    idbs;
    strata;
    agg_sigs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg_table [] |> List.sort compare;
  }

let arity t name =
  match List.assoc_opt name t.arities with
  | Some a -> a
  | None -> fail "unknown relation %s" name

let stratum_of t name =
  let rec go = function
    | [] -> fail "predicate %s is not an IDB" name
    | s :: rest -> if List.mem name s.preds then s.index else go rest
  in
  go t.strata

let agg_sig t name = List.assoc_opt name t.agg_sigs

let output_names ?an (program : Ast.program) =
  if program.outputs <> [] then program.outputs
  else (match an with Some an -> an | None -> analyze program).idbs

let is_recursive_pred _t stratum name = List.mem name stratum.preds
