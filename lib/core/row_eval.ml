(* The tuple-at-a-time evaluator behind incremental maintenance and explain:
   the naive oracle's semantics over persistent row sets, extended with an
   indexed scan for ground key prefixes and a per-literal state selector. *)

module Rows = Set.Make (struct
  type t = int list

  let compare = compare
end)

type env = (string * int) list

let rec eval_expr (env : env) = function
  | Ast.T (Ast.Const c) -> c
  | Ast.T (Ast.Var v) -> (
      match List.assoc_opt v env with
      | Some c -> c
      | None -> invalid_arg ("row_eval: unbound variable " ^ v))
  | Ast.T Ast.Wildcard -> invalid_arg "row_eval: wildcard in expression"
  | Ast.Add (a, b) -> eval_expr env a + eval_expr env b
  | Ast.Sub (a, b) -> eval_expr env a - eval_expr env b
  | Ast.Mul (a, b) -> eval_expr env a * eval_expr env b

let cmp_holds op a b =
  match op with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b

let match_args env args row =
  let rec go env args row =
    match (args, row) with
    | [], [] -> Some env
    | a :: args', v :: row' -> (
        match a with
        | Ast.Const c -> if c = v then go env args' row' else None
        | Ast.Wildcard -> go env args' row'
        | Ast.Var x -> (
            match List.assoc_opt x env with
            | Some c -> if c = v then go env args' row' else None
            | None -> go ((x, v) :: env) args' row'))
    | _ -> None
  in
  go env args row

let ground_args env args =
  List.map
    (function
      | Ast.Const c -> c
      | Ast.Var x -> (
          match List.assoc_opt x env with
          | Some c -> c
          | None -> invalid_arg ("row_eval: unsafe negation on " ^ x))
      | Ast.Wildcard -> invalid_arg "row_eval: wildcard under negation")
    args

(* Aggregate positions read as wildcards: they bind nothing. *)
let head_env head_args row =
  let term = function Ast.H_term t -> t | Ast.H_agg _ -> Ast.Wildcard in
  match_args [] (List.map term head_args) row

let head_row env head_args =
  List.map
    (function
      | Ast.H_term (Ast.Const c) -> c
      | Ast.H_term (Ast.Var x) -> (
          match List.assoc_opt x env with
          | Some c -> c
          | None -> invalid_arg ("row_eval: unsafe head variable " ^ x))
      | Ast.H_term Ast.Wildcard -> invalid_arg "row_eval: wildcard in head"
      | Ast.H_agg _ -> invalid_arg "row_eval: aggregate head")
    head_args

type lit = { li : int; l : Ast.literal }

let indexed_body r = List.mapi (fun li l -> { li; l }) r.Ast.body

(* Rows.t orders equal-length int lists lexicographically, so all rows
   extending a ground prefix form a contiguous range of the set — scanning
   an atom costs O(log n + matches) instead of a full sweep whenever its
   leading columns are bound. *)
let bound_prefix env args =
  let rec go acc = function
    | Ast.Const c :: tl -> go (c :: acc) tl
    | Ast.Var x :: tl -> (
        match List.assoc_opt x env with
        | Some c -> go (c :: acc) tl
        | None -> List.rev acc)
    | Ast.Wildcard :: _ | [] -> List.rev acc
  in
  go [] args

let iter_prefix set prefix f =
  match prefix with
  | [] -> Rows.iter f set
  | _ ->
      let rec has_prefix p row =
        match (p, row) with
        | [], _ -> true
        | a :: p', b :: row' -> a = b && has_prefix p' row'
        | _, [] -> false
      in
      (* [prefix] is shorter than any row, so it sorts just before the range *)
      let rec go s =
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons (row, tl) ->
            if has_prefix prefix row then begin
              f row;
              go tl
            end
      in
      go (Rows.to_seq_from prefix set)

let iter_matches set args env f =
  iter_prefix set (bound_prefix env args) (fun row ->
      match match_args env args row with Some env' -> f row env' | None -> ())

(* Positive atoms first — the analyzer's safety check makes negations and
   comparisons ground once the positives are matched. *)
let eval_lits ?(tick = ignore) ?scan ~state lits env k =
  let scan =
    match scan with
    | Some scan -> scan
    | None -> fun li (a : Ast.atom) env f -> iter_matches (state li a.Ast.pred) a.Ast.args env f
  in
  let pos, rest =
    List.partition (fun x -> match x.l with Ast.L_pos _ -> true | _ -> false) lits
  in
  let rec go env = function
    | [] -> k env
    | { li; l = Ast.L_pos a } :: tl ->
        scan li a env (fun _ env' ->
            tick ();
            go env' tl)
    | { li; l = Ast.L_neg a } :: tl ->
        tick ();
        if not (Rows.mem (ground_args env a.Ast.args) (state li a.Ast.pred)) then go env tl
    | { l = Ast.L_cmp (op, lhs, rhs); _ } :: tl ->
        tick ();
        if cmp_holds op (eval_expr env lhs) (eval_expr env rhs) then go env tl
  in
  go env (pos @ rest)

exception Found

let exists_lits ~state lits env =
  match eval_lits ~state lits env (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true
