module Int_vec = Rs_util.Int_vec
module Int_key = Rs_util.Int_key
module Memtrack = Rs_storage.Memtrack

type t = {
  mutable rel : Relation.t;
  key_cols : int array;
  mutable heads : int array;
  mutable nexts : int array;
  mutable mask : int;
  mutable n : int;  (* rows of [rel] currently indexed: [0, n) *)
  mutable generation : int;  (* [rel]'s generation when last (re)built *)
  mutable rehashes : int;
  mutable accounted : int;
}

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let row_key_hash rel key_cols row =
  match Array.length key_cols with
  | 1 -> Int_key.hash (Relation.get rel ~row ~col:key_cols.(0))
  | 2 ->
      Int_key.hash
        (Int_key.pack2 (Relation.get rel ~row ~col:key_cols.(0)) (Relation.get rel ~row ~col:key_cols.(1)))
  | _ ->
      Array.fold_left
        (fun acc c -> Int_key.hash_combine acc (Relation.get rel ~row ~col:c))
        0x9E3779B9 key_cols

(* An index over all current rows of [rel] with every chain still empty:
   at least one bucket per row (load <= 1). Chains are filtered by a key
   compare on the relation's columns, so a bucket shared by a few rows costs
   a short walk, while every empty bucket costs a word. *)
let empty rel key_cols =
  let n = Relation.nrows rel in
  let cap = pow2_at_least n in
  { rel; key_cols; heads = Array.make cap (-1); nexts = Array.make (max 1 n) (-1);
    mask = cap - 1; n; generation = Relation.generation rel; rehashes = 0; accounted = 0 }

(* Prepend rows [lo, hi) to their bucket chains. Rows go in ascending order,
   so each chain ends up in descending row order (newest first), whichever
   pass linked them. *)
let link t lo hi =
  let rel = t.rel and key_cols = t.key_cols and heads = t.heads and nexts = t.nexts
  and mask = t.mask in
  for row = lo to hi - 1 do
    let h = row_key_hash rel key_cols row land mask in
    nexts.(row) <- heads.(h);
    heads.(h) <- row
  done

let build rel key_cols =
  (* Chaos fault point: index build allocation fails. *)
  Rs_chaos.Inject.index_should_fail ~point:"hash_index.build";
  let t = empty rel key_cols in
  link t 0 t.n;
  t

(* The virtual pool runs chunks back to back, so the two-step prepend in
   [link] is deterministic. A real threaded build would need a CAS retry
   loop on the bucket head (cf. Cck_concurrent); because such a loop makes
   each insertion independent, the pass is still *charged* as parallel
   work. *)
let build_pool pool rel key_cols =
  Rs_chaos.Inject.index_should_fail ~point:"hash_index.build_pool";
  let t = empty rel key_cols in
  Rs_parallel.Pool.parallel_for pool 0 t.n (link t);
  t

(* Relink every indexed row into a table of [cap] buckets, chunk-parallel
   like [build_pool] — the same layout a fresh [build] produces. *)
let rehash pool t cap =
  t.heads <- Array.make cap (-1);
  t.mask <- cap - 1;
  Rs_parallel.Pool.parallel_for pool 0 t.n (link t);
  t.rehashes <- t.rehashes + 1

let append_pool pool t =
  Rs_chaos.Inject.index_should_fail ~point:"hash_index.append_pool";
  let new_n = Relation.nrows t.rel in
  let added = new_n - t.n in
  if added > 0 then begin
    (* grow the chain array by amortized doubling *)
    if new_n > Array.length t.nexts then begin
      let cap = max new_n (2 * Array.length t.nexts) in
      let nexts = Array.make cap (-1) in
      Array.blit t.nexts 0 nexts 0 t.n;
      t.nexts <- nexts
    end;
    (* keep the load factor at or below 1, as [build] does *)
    if new_n > Array.length t.heads then begin
      (* over the load-factor threshold: grow to a fresh build's bucket
         count and relink everything (the rehash links the fresh rows too) *)
      t.n <- new_n;
      rehash pool t (pow2_at_least new_n)
    end
    else begin
      let lo = t.n in
      t.n <- new_n;
      (* new rows are prepended ahead of older ones — exactly where a full
         rebuild would put them, so probe order is unchanged *)
      Rs_parallel.Pool.parallel_for pool lo new_n (link t)
    end
  end;
  t.generation <- Relation.generation t.rel;
  added

(* Re-point the index at a replacement relation whose prefix
   [0, indexed_rows) holds exactly the old rows in order — the shape an
   order-preserving staged copy (Edb_store.apply without retractions)
   produces. The chains stay valid because they store row ids, not values;
   adopting the replacement's generation arms the append fast path for
   whatever suffix the replacement added. *)
let rebase t rel =
  if Relation.arity rel <> Relation.arity t.rel then
    invalid_arg "Hash_index.rebase: arity mismatch";
  if Relation.nrows rel < t.n then invalid_arg "Hash_index.rebase: replacement shrank";
  t.rel <- rel;
  t.generation <- Relation.generation rel

let relation t = t.rel
let key_cols t = t.key_cols
let nrows t = Relation.nrows t.rel
let indexed_rows t = t.n
let generation t = t.generation
let rehashes t = t.rehashes

let key_eq t row key =
  let rec go i =
    i = Array.length t.key_cols
    || (Relation.get t.rel ~row ~col:t.key_cols.(i) = key.(i) && go (i + 1))
  in
  go 0

(* First row of the chain a probe key hashes to; the hash agrees with
   [row_key_hash] on the indexed columns. [bucket1]/[bucket2] take 1- and
   2-column keys without a key array. *)
let bucket1 t k = t.heads.(Int_key.hash k land t.mask)
let bucket2 t k1 k2 = t.heads.(Int_key.hash (Int_key.pack2 k1 k2) land t.mask)

let bucket t key =
  match Array.length t.key_cols with
  | 1 -> bucket1 t key.(0)
  | 2 -> bucket2 t key.(0) key.(1)
  | _ -> t.heads.(Array.fold_left Int_key.hash_combine 0x9E3779B9 key land t.mask)

let iter_matches t key f =
  let nexts = t.nexts in
  let rec walk row =
    if row >= 0 then begin
      if key_eq t row key then f row;
      walk nexts.(row)
    end
  in
  walk (bucket t key)

let iter_matches1 t k f =
  let c = t.key_cols.(0) in
  let nexts = t.nexts in
  let rec walk row =
    if row >= 0 then begin
      if Relation.get t.rel ~row ~col:c = k then f row;
      walk nexts.(row)
    end
  in
  walk (bucket1 t k)

let iter_matches2 t k1 k2 f =
  let c1 = t.key_cols.(0) and c2 = t.key_cols.(1) in
  let nexts = t.nexts in
  let rec walk row =
    if row >= 0 then begin
      if Relation.get t.rel ~row ~col:c1 = k1 && Relation.get t.rel ~row ~col:c2 = k2 then f row;
      walk nexts.(row)
    end
  in
  walk (bucket2 t k1 k2)

let bytes t = 8 * (Array.length t.heads + Array.length t.nexts)

let account t =
  let b = bytes t in
  let delta = b - t.accounted in
  if delta > 0 then Memtrack.alloc delta else Memtrack.free (-delta);
  t.accounted <- b

let release t =
  Memtrack.free t.accounted;
  t.accounted <- 0
