module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
type t =
  | Scan of string
  | Old of string
  | Delta of string
  | Rel of Relation.t
  | Filter of Expr.pred list * t
  | Project of Expr.t array * t
  | Join of join
  | AntiJoin of anti
  | UnionAll of t list

and join = {
  l : t;
  r : t;
  lkeys : int array;
  rkeys : int array;
  extra : Expr.pred list;
  out : Expr.t array option;
}

and anti = { al : t; ar : t; alkeys : int array; arkeys : int array }

let rec arity lookup = function
  | Scan name | Old name | Delta name -> lookup name
  | Rel r -> Relation.arity r
  | Filter (_, p) -> arity lookup p
  | Project (exprs, _) -> Array.length exprs
  | Join { l; r; out; _ } -> (
      match out with
      | Some exprs -> Array.length exprs
      | None -> arity lookup l + arity lookup r)
  | AntiJoin { al; _ } -> arity lookup al
  | UnionAll [] -> invalid_arg "Plan.arity: empty UnionAll"
  | UnionAll (p :: _) -> arity lookup p

let rec estimate ~rows ~delta_rows = function
  | Scan name -> rows name
  | Old name -> max 0 (rows name - delta_rows name)
  | Delta name -> delta_rows name
  | Rel r -> Relation.nrows r
  | Filter (_, p) -> (estimate ~rows ~delta_rows p / 3) + 1
  | Project (_, p) -> estimate ~rows ~delta_rows p
  | Join { l; r; _ } -> max (estimate ~rows ~delta_rows l) (estimate ~rows ~delta_rows r)
  | AntiJoin { al; _ } -> estimate ~rows ~delta_rows al
  | UnionAll ps -> List.fold_left (fun acc p -> acc + estimate ~rows ~delta_rows p) 0 ps

let to_string p =
  let buf = Buffer.create 256 in
  let pad d = String.make (2 * d) ' ' in
  let keys ks = String.concat "," (Array.to_list (Array.map string_of_int ks)) in
  let rec go d = function
    | Scan name -> Buffer.add_string buf (Printf.sprintf "%sScan %s\n" (pad d) name)
    | Old name -> Buffer.add_string buf (Printf.sprintf "%sOld %s\n" (pad d) name)
    | Delta name -> Buffer.add_string buf (Printf.sprintf "%sDelta %s\n" (pad d) name)
    | Rel r ->
        Buffer.add_string buf
          (Printf.sprintf "%sRel %s(%d rows)\n" (pad d) (Relation.name r) (Relation.nrows r))
    | Filter (preds, p) ->
        Buffer.add_string buf
          (Printf.sprintf "%sFilter [%s]\n" (pad d)
             (String.concat "; " (List.map Expr.pred_to_string preds)));
        go (d + 1) p
    | Project (exprs, p) ->
        Buffer.add_string buf
          (Printf.sprintf "%sProject [%s]\n" (pad d)
             (String.concat "; " (Array.to_list (Array.map Expr.to_string exprs))));
        go (d + 1) p
    | Join { l; r; lkeys; rkeys; extra; out } ->
        Buffer.add_string buf
          (Printf.sprintf "%sJoin l[%s]=r[%s]%s%s\n" (pad d) (keys lkeys) (keys rkeys)
             (match extra with
             | [] -> ""
             | ps -> " where " ^ String.concat " and " (List.map Expr.pred_to_string ps))
             (match out with
             | None -> ""
             | Some exprs ->
                 " -> [" ^ String.concat "; " (Array.to_list (Array.map Expr.to_string exprs)) ^ "]"));
        go (d + 1) l;
        go (d + 1) r
    | AntiJoin { al; ar; alkeys; arkeys } ->
        Buffer.add_string buf
          (Printf.sprintf "%sAntiJoin l[%s] not in r[%s]\n" (pad d) (keys alkeys) (keys arkeys));
        go (d + 1) al;
        go (d + 1) ar
    | UnionAll ps ->
        Buffer.add_string buf (Printf.sprintf "%sUnionAll\n" (pad d));
        List.iter (go (d + 1)) ps
  in
  go 0 p;
  Buffer.contents buf

let join2 ?(extra = []) ?out l lkeys r rkeys = Join { l; r; lkeys; rkeys; extra; out }
