module Int_vec = Rs_util.Int_vec
module Int_key = Rs_util.Int_key
module Memtrack = Rs_storage.Memtrack

(* Bucket heads and chain links are 32-bit row ids, 4 bytes each, in
   [Bytes] buffers the collector never scans; -1 (all bits set) ends a
   chain. Slot [i] lives at byte offset [4 * i], read and written with the
   native-endian primitives, which compile to one load or store. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] slot b i = Int32.to_int (get32 b (i lsl 2))
let[@inline] set_slot b i v = set32 b (i lsl 2) (Int32.of_int v)

(* [n] slots, every one -1. *)
let links n = Bytes.make (4 * n) '\255'

let max_rows = 1 lsl 31

let check_rows n =
  if n > max_rows then invalid_arg "Hash_index: row id past 2^31 - 1"

type t = {
  mutable rel : Relation.t;
  key_cols : int array;
  mutable heads : Bytes.t;
  mutable nexts : Bytes.t;
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
   a short walk, while every empty bucket costs 4 bytes. *)
let empty rel key_cols =
  let n = Relation.nrows rel in
  check_rows n;
  let cap = pow2_at_least n in
  { rel; key_cols; heads = links cap; nexts = links (max 1 n);
    mask = cap - 1; n; generation = Relation.generation rel; rehashes = 0; accounted = 0 }

(* Prepend rows [lo, hi) to their bucket chains. Rows go in ascending order,
   so each chain ends up in descending row order (newest first), whichever
   pass linked them. *)
let link t lo hi =
  let rel = t.rel and key_cols = t.key_cols and heads = t.heads and nexts = t.nexts
  and mask = t.mask in
  for row = lo to hi - 1 do
    let h = row_key_hash rel key_cols row land mask in
    set_slot nexts row (slot heads h);
    set_slot heads h row
  done

let build rel key_cols =
  (* Chaos fault point: index build allocation fails. *)
  Rs_chaos.Inject.index_should_fail ~point:"hash_index.build";
  let t = empty rel key_cols in
  link t 0 t.n;
  t

(* The virtual pool runs chunks back to back, so the two-step prepend in
   [link] is deterministic. A real threaded build would need a CAS retry
   loop on the bucket head, as the latch-free table of the paper's
   Figure 5 has; because such a loop makes each insertion independent, the
   pass is still *charged* as parallel work. *)
let build_pool pool rel key_cols =
  Rs_chaos.Inject.index_should_fail ~point:"hash_index.build_pool";
  let t = empty rel key_cols in
  Rs_parallel.Pool.parallel_for pool 0 t.n (link t);
  t

(* Extend [t] over the rows appended to its relation, linking rows with
   [link_rows lo hi]: grow a full chain array to the power of two at least
   the new row count and, over the load-factor threshold, the bucket table
   to a fresh build's count, relinking every row — the same layout a fresh
   [build] produces. Both sizes follow the row count alone, so an index
   extended once over two rounds' rows ends as large as one extended after
   each: where a round's appends land does not decide its footprint. *)
let extend t link_rows =
  let new_n = Relation.nrows t.rel in
  let added = new_n - t.n in
  if added > 0 then begin
    check_rows new_n;
    let link_cap = Bytes.length t.nexts / 4 in
    if new_n > link_cap then begin
      let nexts = links (pow2_at_least new_n) in
      Bytes.blit t.nexts 0 nexts 0 (4 * t.n);
      t.nexts <- nexts
    end;
    let lo = t.n in
    t.n <- new_n;
    if new_n > Bytes.length t.heads / 4 then begin
      (* the rehash links the fresh rows too *)
      let cap = pow2_at_least new_n in
      t.heads <- links cap;
      t.mask <- cap - 1;
      t.rehashes <- t.rehashes + 1;
      link_rows 0 new_n
    end
    else
      (* new rows are prepended ahead of older ones — exactly where a full
         rebuild would put them, so probe order is unchanged *)
      link_rows lo new_n
  end;
  t.generation <- Relation.generation t.rel;
  added

let append_pool pool t =
  Rs_chaos.Inject.index_should_fail ~point:"hash_index.append_pool";
  extend t (fun lo hi -> Rs_parallel.Pool.parallel_for pool lo hi (link t))

let append t = extend t (link t)

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
let indexed_rows t = t.n
let generation t = t.generation
let rehashes t = t.rehashes

let key_eq t row key =
  let rec go i =
    i = Array.length t.key_cols
    || (Relation.get t.rel ~row ~col:t.key_cols.(i) = key.(i) && go (i + 1))
  in
  go 0

(* The hash of a probe key; it agrees with [row_key_hash] on the indexed
   columns. *)
let key_hash key =
  match Array.length key with
  | 1 -> Int_key.hash key.(0)
  | 2 -> Int_key.hash (Int_key.pack2 key.(0) key.(1))
  | _ -> Array.fold_left Int_key.hash_combine 0x9E3779B9 key

let iter_matches t key f =
  let nexts = t.nexts in
  let rec walk row =
    if row >= 0 then begin
      if key_eq t row key then f row;
      walk (slot nexts row)
    end
  in
  walk (slot t.heads (key_hash key land t.mask))

let bytes t = Bytes.length t.heads + Bytes.length t.nexts

let account t =
  let b = bytes t in
  let delta = b - t.accounted in
  if delta > 0 then Memtrack.alloc delta else Memtrack.free (-delta);
  t.accounted <- b

let release t =
  Memtrack.free t.accounted;
  t.accounted <- 0

type view = { heads : Bytes.t; nexts : Bytes.t; mask : int; keys : int array array }

let view (t : t) : view =
  {
    heads = t.heads;
    nexts = t.nexts;
    mask = t.mask;
    keys = Array.map (fun c -> Int_vec.unsafe_data (Relation.col t.rel c)) t.key_cols;
  }

let empty_view = { heads = links 1; nexts = Bytes.empty; mask = 0; keys = [||] }

let first1 v k = slot v.heads (Int_key.hash k land v.mask)
let first v key = slot v.heads (key_hash key land v.mask)
