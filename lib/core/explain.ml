module Json = Rs_obs.Json

open Row_eval

type node =
  | N_edb of { pred : string; row : int list }
  | N_rule of {
      pred : string;
      row : int list;
      rule_index : int;
      rule : Ast.rule;
      agg : string option;
      premises : premise list;
    }

and premise =
  | P_fact of node
  | P_absent of { pred : string; row : int list }
  | P_cmp of string

type outcome = Explained of node | Absent | No_proof | Budget_exceeded of int

exception Budget

(* --- the proof search ---------------------------------------------------- *)

type state = {
  an : Analyzer.t;
  prov : Provenance.t option;
  sets : (string, Rows.t) Hashtbl.t;
  lookup : string -> int list list;
  memo : (string * int list, node) Hashtbl.t;  (* proven facts; path-independent *)
  max_steps : int;
  mutable steps : int;
}

let set_of st pred =
  match Hashtbl.find_opt st.sets pred with
  | Some s -> s
  | None ->
      let s = Rows.of_list (st.lookup pred) in
      Hashtbl.replace st.sets pred s;
      s

let step st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then raise Budget

let is_edb st pred = List.mem pred st.an.Analyzer.edbs

let seq_of st pred row =
  match st.prov with
  | None -> None
  | Some p ->
      Option.map (fun (t : Provenance.tag) -> t.Provenance.t_seq) (Provenance.find p ~pred row)

(* Candidate rows of [atom] under [env], lexicographic. When the goal has a
   provenance tag, rows absorbed before it (smaller seq) move to the front:
   on a fully-tagged run that is exactly the semi-naive derivation order,
   so the first candidate chain is the real one and the search never
   backtracks. A plain partition keeps each half in lexicographic order, so
   the result is still deterministic for a given store. *)
let candidates st ~goal_seq (a : Ast.atom) env =
  let all = ref [] in
  iter_matches (set_of st a.Ast.pred) a.Ast.args env (fun row env' ->
      all := (row, env') :: !all);
  let all = List.rev !all in
  match goal_seq with
  | Some gseq when not (is_edb st a.Ast.pred) ->
      let early, late =
        List.partition
          (fun (row, _) ->
            match seq_of st a.Ast.pred row with Some s -> s < gseq | None -> false)
          all
      in
      early @ late
  | _ -> all

let numbered_rules an =
  List.mapi (fun i r -> (i + 1, r)) an.Analyzer.program.Ast.rules

(* Prove [pred(row)]; [path] carries the facts on the current proof branch
   so recursion through the same fact is rejected (a path-acyclic proof
   tree is a well-founded derivation). Successes are memoized globally —
   a finished proof tree is valid on any path. *)
let rec prove st path pred row =
  match Hashtbl.find_opt st.memo (pred, row) with
  | Some n -> Some n
  | None ->
      if not (Rows.mem row (set_of st pred)) then None
      else if is_edb st pred then begin
        let n = N_edb { pred; row } in
        Hashtbl.replace st.memo (pred, row) n;
        Some n
      end
      else if List.mem (pred, row) path then None
      else begin
        let path = (pred, row) :: path in
        let goal_seq = seq_of st pred row in
        let result =
          List.find_map
            (fun (idx, (r : Ast.rule)) ->
              if r.Ast.head_pred <> pred then None
              else if Ast.is_aggregate_rule r then prove_agg st path ~goal_seq idx r row
              else
                match head_env r.Ast.head_args row with
                | None -> None
                | Some env0 -> (
                    match prove_body st path ~goal_seq r.Ast.body env0 with
                    | Some premises ->
                        Some (N_rule { pred; row; rule_index = idx; rule = r; agg = None; premises })
                    | None -> None))
            (numbered_rules st.an)
        in
        (match result with
        | Some n -> Hashtbl.replace st.memo (pred, row) n
        | None -> ());
        result
      end

(* Prove every body literal under [env0]: positives bind (and are proved in
   place, so an unprovable candidate row is backtracked immediately),
   negations and comparisons check once the positives ground them. Returns
   the premises in proof order. *)
and prove_body st path ~goal_seq body env0 =
  let pos, rest = List.partition (function Ast.L_pos _ -> true | _ -> false) body in
  let rec go env acc = function
    | [] -> Some (List.rev acc)
    | Ast.L_pos a :: tl ->
        List.find_map
          (fun (row, env') ->
            step st;
            match prove st path a.Ast.pred row with
            | Some n -> go env' (P_fact n :: acc) tl
            | None -> None)
          (candidates st ~goal_seq a env)
    | Ast.L_neg a :: tl ->
        step st;
        let grow = ground_args env a.Ast.args in
        if Rows.mem grow (set_of st a.Ast.pred) then None
        else go env (P_absent { pred = a.Ast.pred; row = grow } :: acc) tl
    | Ast.L_cmp (op, l, r) :: tl ->
        step st;
        let lv = eval_expr env l and rv = eval_expr env r in
        if cmp_holds op lv rv then
          go env (P_cmp (Printf.sprintf "%d %s %d" lv (Ast.cmp_to_string op) rv) :: acc) tl
        else None
  in
  go env0 [] (pos @ rest)

(* Aggregate heads: enumerate the body matches of the fact's group (the
   head env binds exactly the group variables), check the row's aggregate
   values are what the matches produce, and explain through a witness
   match — for MIN/MAX a match attaining the value (its premises are
   recursively explained, which walks SSSP-style recursive aggregation
   down to the EDB), for SUM/COUNT/AVG any match, with the contributing
   count in the label. Witnesses are tried in enumeration order until one
   proves: the first may only cycle back through the goal. *)
and prove_agg st path ~goal_seq idx (r : Ast.rule) row =
  match head_env r.Ast.head_args row with
  | None -> None
  | Some env0 ->
      (* (position, op, expr) for each aggregate head position *)
      let aggs =
        List.mapi (fun i h -> (i, h)) r.Ast.head_args
        |> List.filter_map (fun (i, h) ->
               match h with Ast.H_agg (op, e) -> Some (i, op, e) | Ast.H_term _ -> None)
      in
      let rowa = Array.of_list row in
      (* Enumerate matches without proving premises first (cheap), then
         prove the witnesses. *)
      let matches = ref [] in
      eval_lits
        ~tick:(fun () -> step st)
        ~scan:(fun _ a env f ->
          List.iter (fun (row, env') -> f row env') (candidates st ~goal_seq a env))
        ~state:(fun _ p -> set_of st p)
        (indexed_body r) env0
        (fun env -> matches := env :: !matches);
      let matches = List.rev !matches in
      let n_matches = List.length matches in
      let witness_ok env =
        List.for_all
          (fun (i, op, e) ->
            match op with
            | Ast.Min | Ast.Max -> eval_expr env e = rowa.(i)
            | Ast.Sum | Ast.Count | Ast.Avg -> true)
          aggs
      in
      (* Re-prove a witness env's body with its bindings pinned, so the
         premises carry full chains. *)
      let pin env =
        List.map
          (function
            | Ast.L_pos a ->
                let pin_term = function
                  | Ast.Var x as t -> (
                      match List.assoc_opt x env with Some c -> Ast.Const c | None -> t)
                  | t -> t
                in
                Ast.L_pos { a with Ast.args = List.map pin_term a.Ast.args }
            | l -> l)
          r.Ast.body
      in
      let label =
        String.concat ", "
          (List.map
             (fun (_, op, _) ->
               Printf.sprintf "%s%s of %d match%s" (Ast.agg_op_to_string op)
                 (if op = Ast.Min || op = Ast.Max then " witness" else "")
                 n_matches
                 (if n_matches = 1 then "" else "es"))
             aggs)
      in
      (* MIN/MAX demand a match attaining the stored value; the bag
         aggregates have no single witness, so any match serves as the
         sample chain. *)
      List.find_map
        (fun env ->
          match prove_body st path ~goal_seq (pin env) env0 with
          | None -> None
          | Some premises ->
              Some
                (N_rule
                   {
                     pred = r.Ast.head_pred;
                     row;
                     rule_index = idx;
                     rule = r;
                     agg = Some label;
                     premises;
                   }))
        (List.filter witness_ok matches)

let explain ?prov ?(max_steps = 200_000) ~an ~rows pred row =
  let st =
    {
      an;
      prov;
      sets = Hashtbl.create 16;
      lookup = rows;
      memo = Hashtbl.create 256;
      max_steps;
      steps = 0;
    }
  in
  if not (Rows.mem row (set_of st pred)) then Absent
  else
    match prove st [] pred row with
    | Some n -> Explained n
    | None -> No_proof
    | exception Budget -> Budget_exceeded st.steps

(* --- accessors and rendering --------------------------------------------- *)

let rec fold_nodes f acc node =
  let acc = f acc node in
  match node with
  | N_edb _ -> acc
  | N_rule { premises; _ } ->
      List.fold_left
        (fun acc p -> match p with P_fact n -> fold_nodes f acc n | _ -> acc)
        acc premises

let rules_used node =
  fold_nodes
    (fun acc n -> match n with N_rule { rule_index; _ } -> rule_index :: acc | N_edb _ -> acc)
    [] node
  |> List.sort_uniq compare

let rec depth = function
  | N_edb _ -> 0
  | N_rule { premises; _ } ->
      1
      + List.fold_left
          (fun acc p -> match p with P_fact n -> max acc (depth n) | _ -> acc)
          0 premises

let fact_to_string pred row =
  Printf.sprintf "%s(%s)" pred (String.concat ", " (List.map string_of_int row))

let rule_label (r : Ast.rule) =
  if r.Ast.body = [] then
    Printf.sprintf "fact %s(%s)." r.Ast.head_pred
      (String.concat ", " (List.map Ast.head_term_to_string r.Ast.head_args))
  else Ast.rule_to_string r

let render ?tags node =
  let buf = Buffer.create 256 in
  let tag_of pred row =
    match tags with
    | None -> ""
    | Some p -> (
        match Provenance.find p ~pred row with
        | Some t ->
            Printf.sprintf " @s%d/i%d/#%d" t.Provenance.t_stratum t.Provenance.t_iteration
              t.Provenance.t_seq
        | None -> "")
  in
  let indent d = String.make (2 * d) ' ' in
  let rec go d node =
    match node with
    | N_edb { pred; row } ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s [edb]\n" (indent d) (fact_to_string pred row))
    | N_rule { pred; row; rule_index; rule; agg; premises } ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s%s <= rule %d%s: %s\n" (indent d) (fact_to_string pred row)
             (tag_of pred row) rule_index
             (match agg with Some a -> Printf.sprintf " (%s)" a | None -> "")
             (rule_label rule));
        List.iter
          (fun p ->
            match p with
            | P_fact n -> go (d + 1) n
            | P_absent { pred; row } ->
                Buffer.add_string buf
                  (Printf.sprintf "%s!%s [absent]\n" (indent (d + 1)) (fact_to_string pred row))
            | P_cmp s -> Buffer.add_string buf (Printf.sprintf "%s[%s]\n" (indent (d + 1)) s))
          premises
  in
  go 0 node;
  Buffer.contents buf

let outcome_to_string ?tags ~pred ~row = function
  | Explained n -> render ?tags n
  | Absent -> Printf.sprintf "%s is not in the database\n" (fact_to_string pred row)
  | No_proof ->
      Printf.sprintf
        "%s is present but no rule chain derives it from the inputs — the database is \
         inconsistent with the program\n"
        (fact_to_string pred row)
  | Budget_exceeded steps ->
      Printf.sprintf "%s: explanation search exceeded its budget (%d steps)\n"
        (fact_to_string pred row) steps

let rec node_json node =
  match node with
  | N_edb { pred; row } ->
      Json.Obj [ ("fact", Json.String (fact_to_string pred row)); ("edb", Json.Bool true) ]
  | N_rule { pred; row; rule_index; rule; agg; premises } ->
      Json.Obj
        ([
           ("fact", Json.String (fact_to_string pred row));
           ("rule_index", Json.Int rule_index);
           ("rule", Json.String (rule_label rule));
         ]
        @ (match agg with Some a -> [ ("agg", Json.String a) ] | None -> [])
        @ [
            ( "premises",
              Json.List
                (List.map
                   (function
                     | P_fact n -> node_json n
                     | P_absent { pred; row } ->
                         Json.Obj
                           [
                             ("fact", Json.String (fact_to_string pred row));
                             ("absent", Json.Bool true);
                           ]
                     | P_cmp s -> Json.Obj [ ("cmp", Json.String s) ])
                   premises) );
          ])
