module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
type full_stats = {
  col_min : int array;
  col_max : int array;
  col_sum : int array;
  distinct_estimate : int;
}

type entry = {
  mutable rel : Relation.t;
  mutable stat_rows : int;
  mutable full : full_stats option;
}

type t = (string, entry) Hashtbl.t

let create () = Hashtbl.create 64

let register t name rel =
  Hashtbl.replace t name { rel; stat_rows = Relation.nrows rel; full = None }

let find t name =
  match Hashtbl.find_opt t name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown table %S" name)

let rel t name = (find t name).rel

let mem t name = Hashtbl.mem t name

let drop t name =
  match Hashtbl.find_opt t name with
  | Some e ->
      Relation.release e.rel;
      Hashtbl.remove t name
  | None -> ()

let analyze_rows t name =
  let e = find t name in
  e.stat_rows <- Relation.nrows e.rel

let analyze_full t pool name =
  let e = find t name in
  let r = e.rel in
  let arity = Relation.arity r and n = Relation.nrows r in
  let col_min = Array.make arity max_int
  and col_max = Array.make arity min_int
  and col_sum = Array.make arity 0 in
  let distinct = ref 0 in
  (* One real scan per column, chunked through the pool like any other
     backend operator. A cheap linear-probing sketch approximates the
     distinct count of the first column. *)
  Rs_parallel.Pool.parallel_for pool 0 n (fun lo hi ->
      for row = lo to hi - 1 do
        for c = 0 to arity - 1 do
          let v = Relation.get r ~row ~col:c in
          if v < col_min.(c) then col_min.(c) <- v;
          if v > col_max.(c) then col_max.(c) <- v;
          col_sum.(c) <- col_sum.(c) + v
        done
      done);
  if n > 0 then begin
    let sketch = Array.make 1024 (-1) in
    let seen = ref 0 in
    for row = 0 to min (n - 1) 4095 do
      let v = Relation.get r ~row ~col:0 in
      let h = Rs_util.Int_key.hash v land 1023 in
      if sketch.(h) <> v then begin
        sketch.(h) <- v;
        incr seen
      end
    done;
    distinct := max 1 (!seen * n / min n 4096)
  end;
  e.stat_rows <- n;
  e.full <- Some { col_min; col_max; col_sum; distinct_estimate = !distinct }

let stat_rows t name = (find t name).stat_rows

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t []
