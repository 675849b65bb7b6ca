module Pool = Rs_parallel.Pool
module Relation = Rs_relation.Relation
module Memtrack = Rs_storage.Memtrack

type t = {
  group : int list;  (* head positions of the group columns *)
  aggs : (int * Ast.agg_op) array;  (* head position and op of each aggregate *)
  arity : int;
  table : (int list, int array * int array) Hashtbl.t;
      (* group key -> (per-aggregate value, per-aggregate candidate count) *)
  mutable dense : int array option;
  bound : int;  (* the dense array covers keys in [0, bound) at most *)
}

let init = function
  | Ast.Min -> max_int
  | Ast.Max -> min_int
  | Ast.Sum | Ast.Count | Ast.Avg -> 0

(* The update rule: accumulator [acc] absorbs [x], one candidate's
   contribution or a partial accumulator of the same op. *)
let combine op (acc : int) x =
  match op with
  | Ast.Min -> if x < acc then x else acc
  | Ast.Max -> if x > acc then x else acc
  | Ast.Sum | Ast.Count | Ast.Avg -> acc + x

let create (sig_ : Analyzer.agg_sig) ~arity ~edb =
  let dense =
    match (sig_.group_positions, sig_.agg_positions) with
    | [ 0 ], [ (1, (Ast.Min | Ast.Max)) ] when arity = 2 -> Some [||]
    | _ -> None
  in
  {
    group = sig_.group_positions;
    aggs = Array.of_list sig_.agg_positions;
    arity;
    table = Hashtbl.create 256;
    dense;
    bound = List.fold_left (fun n (_, r) -> n + (Relation.nrows r * Relation.arity r)) 1024 edb;
  }

(* The dense array, grown to cover [k] when [k] is under the bound; keys
   outside [\[0, bound)] live in the table. The array is charged to
   [Memtrack] before it is made, so a growth over budget raises while the
   state still owns (and is charged for) the old one. *)
let dense_for st a k =
  if k < 0 || k < Array.length a || k >= st.bound then a
  else begin
    let cap = min st.bound (max (k + 1) (2 * Array.length a)) in
    Memtrack.alloc (8 * cap);
    let b = Array.make cap (init (snd st.aggs.(0))) in
    Array.blit a 0 b 0 (Array.length a);
    Memtrack.free (8 * Array.length a);
    st.dense <- Some b;
    b
  end

(* The accumulator of hashed group [key], created at the init values. *)
let group st key =
  match Hashtbl.find_opt st.table key with
  | Some acc -> acc
  | None ->
      let acc = (Array.map (fun (_, op) -> init op) st.aggs, Array.make (Array.length st.aggs) 0) in
      Hashtbl.add st.table key acc;
      acc

let fold_hashed st tuple =
  let vals, counts = group st (List.map (fun p -> tuple.(p)) st.group) in
  Array.iteri
    (fun i (pos, op) ->
      counts.(i) <- counts.(i) + 1;
      vals.(i) <- combine op vals.(i) (if op = Ast.Count then 1 else tuple.(pos)))
    st.aggs

let merge_hashed st key pvals pcounts =
  let changed = ref (not (Hashtbl.mem st.table key)) in
  let vals, counts = group st key in
  Array.iteri
    (fun i (_, op) ->
      counts.(i) <- counts.(i) + pcounts.(i);
      let v = combine op vals.(i) pvals.(i) in
      if v <> vals.(i) then begin
        vals.(i) <- v;
        changed := true
      end)
    st.aggs;
  !changed

(* Merge one partial accumulator into [st]; true iff its group is new or
   improved. *)
let merge st key (pvals, pcounts) =
  match (st.dense, key) with
  | Some a, [ k ] ->
      let a = dense_for st a k in
      if k >= 0 && k < st.bound then begin
        let v = combine (snd st.aggs.(0)) a.(k) pvals.(0) in
        let better = v <> a.(k) in
        if better then a.(k) <- v;
        better
      end
      else merge_hashed st key pvals pcounts
  | _ -> merge_hashed st key pvals pcounts

(* A dense-shaped candidate is merged as a partial of one. *)
let fold st tuple =
  match st.dense with
  | Some _ -> ignore (merge st [ tuple.(0) ] ([| tuple.(1) |], [| 1 |]))
  | None -> fold_hashed st tuple

(* The head-layout row of a hashed group, AVG finalised. *)
let finalize st key (vals, counts) =
  let row = Array.make st.arity 0 in
  List.iter2 (fun p k -> row.(p) <- k) st.group key;
  Array.iteri
    (fun i (p, op) ->
      row.(p) <-
        (match op with
        | Ast.Avg -> if counts.(i) = 0 then 0 else vals.(i) / counts.(i)
        | _ -> vals.(i)))
    st.aggs;
  row

let absorb pool st ~name candidates =
  let n = Relation.nrows candidates in
  let partials = ref [] in
  Pool.parallel_for pool 0 n (fun lo hi ->
      let local = { st with table = Hashtbl.create 256; dense = None } in
      let tuple = Array.make st.arity 0 in
      for row = lo to hi - 1 do
        for c = 0 to st.arity - 1 do
          tuple.(c) <- Relation.get candidates ~row ~col:c
        done;
        fold_hashed local tuple
      done;
      partials := local :: !partials);
  let changed = Hashtbl.create 64 in
  List.iter
    (fun local ->
      Hashtbl.iter
        (fun key partial -> if merge st key partial then Hashtbl.replace changed key ())
        local.table)
    (List.rev !partials);
  let delta = Relation.create ~name st.arity in
  Hashtbl.iter
    (fun key () ->
      match (st.dense, key) with
      | Some a, [ k ] when k >= 0 && k < st.bound -> Relation.push2 delta k a.(k)
      | _ -> Relation.push_row delta (finalize st key (Hashtbl.find st.table key)))
    changed;
  Relation.account delta;
  delta

let to_relation pool st ~name =
  match st.dense with
  | Some a ->
      let absent = init (snd st.aggs.(0)) in
      let fragments = ref [] in
      Pool.parallel_for pool 0 (Array.length a) (fun lo hi ->
          let frag = Relation.create 2 in
          for k = lo to hi - 1 do
            if a.(k) <> absent then Relation.push2 frag k a.(k)
          done;
          fragments := frag :: !fragments);
      (* Table groups have keys below 0 or from the bound up: sorted, they
         go before or after the array's rows, so the whole is in key order. *)
      let below, above =
        Hashtbl.fold (fun key acc rows -> finalize st key acc :: rows) st.table []
        |> List.sort compare
        |> List.partition (fun row -> row.(0) < 0)
      in
      Relation.concat_parallel pool 2
        ((Relation.of_rows 2 below :: List.rev !fragments) @ [ Relation.of_rows 2 above ])
  | None ->
      let r = Relation.create ~name st.arity in
      Hashtbl.iter (fun key acc -> Relation.push_row r (finalize st key acc)) st.table;
      Relation.account r;
      r

let release st =
  match st.dense with
  | Some a ->
      Memtrack.free (8 * Array.length a);
      st.dense <- Some [||]
  | None -> ()

let dense_slots st = match st.dense with Some a -> Array.length a | None -> 0
