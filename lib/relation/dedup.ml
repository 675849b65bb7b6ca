module Int_vec = Rs_util.Int_vec
module Int_key = Rs_util.Int_key
module Memtrack = Rs_storage.Memtrack

type mode = Fast | Boxed

(* Fast is one linear-probing table whose capacity is a power of two at
   least twice its entry count (it grows at load > 1/2), so every probe
   sequence ends at an empty slot.

   - Packed (arity 1, and arity 2 while every attribute is in [0, 2^31)):
     a slot holds the compact key itself (paper §5.1: key, value and hash
     in one word) or [empty]. Packed pairs are non-negative and never equal
     [empty]; the one arity-1 key that does is kept out of band in
     [has_empty_key].
   - Wide (arity > 2, and arity-2 tables that have migrated): tuples are
     flattened into the [wide] arena and a slot is two words, the entry id
     ([empty] when free) and the entry's cached [wide_hash]. *)
type fast = {
  farity : int;
  mutable slots : int array;
  mutable mask : int;  (* capacity - 1, in slots *)
  mutable count : int;
  mutable packed : bool;  (* arity-1 keys are raw values, packed for any int *)
  mutable has_empty_key : bool;
  wide : Int_vec.t;
  chaos : bool;  (* probes the dedup fault points; off for membership sets *)
}

type impl = F of fast | B of (int array, unit) Hashtbl.t

type t = { mode : mode; arity : int; impl : impl; mutable accounted : int }

let empty = min_int

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let fast_table ~chaos ~cap arity =
  let packed = arity <= 2 in
  F
    {
      farity = arity;
      slots = Array.make (if packed then cap else 2 * cap) empty;
      mask = cap - 1;
      count = 0;
      packed;
      has_empty_key = false;
      (* a packed table touches its arena only if it migrates *)
      wide = Int_vec.create ~capacity:(if packed then 1 else 16) ();
      chaos;
    }

(* The most entries a dedup table is pre-sized for. [expected] is an
   optimizer estimate, and for a delta join that is max(|Δ|, |build side|):
   a few hundred new tuples can ask for half a million slots. Clamping it
   bounds the wasted pre-allocation at 2^15 Fast slots (256 KiB packed) or
   2^14 Boxed buckets; a table that fills past the ceiling grows by
   doubling, at a rehash cost linear in the entries it really holds. *)
let max_expected = 1 lsl 14

let create ?(expected = 64) mode arity =
  if arity < 1 then invalid_arg "Dedup.create";
  let expected = max 16 (min expected max_expected) in
  let impl =
    match mode with
    | Boxed -> B (Hashtbl.create expected)
    | Fast ->
        (* Chaos fault point: allocation of a fast dedup table fails. *)
        Rs_chaos.Inject.dedup_should_fail ~point:"dedup.create";
        fast_table ~chaos:true ~cap:(pow2_at_least (2 * expected)) arity
  in
  { mode; arity; impl; accounted = 0 }

let create_set ?(expected = 64) arity =
  if arity < 1 then invalid_arg "Dedup.create_set";
  (* sized like a join index's bucket array (at least 16 slots), not with
     a dedup table's 32-slot floor *)
  let cap = pow2_at_least (2 * expected) in
  { mode = Fast; arity; impl = fast_table ~chaos:false ~cap arity; accounted = 0 }

let arity t = t.arity

(* The first free slot at or after [i]; [stride] is the slot width in words. *)
let rec free_slot slots stride mask i =
  if slots.(stride * i) = empty then i else free_slot slots stride mask ((i + 1) land mask)

(* Stores a wide entry in the first free slot of its hash's probe sequence. *)
let place_wide slots mask id hk =
  let j = free_slot slots 2 mask (hk land mask) in
  slots.(2 * j) <- id;
  slots.((2 * j) + 1) <- hk

let wide_hash row =
  Array.fold_left Int_key.hash_combine 0x9E3779B9 row

(* Doubles the capacity and re-inserts every slot; wide slots keep their
   entry ids and cached hashes. *)
let grow f =
  (* Chaos fault point: growth of a fast dedup table fails. *)
  if f.chaos then Rs_chaos.Inject.dedup_should_fail ~point:"dedup.rehash";
  let old = f.slots in
  let cap = 2 * (f.mask + 1) in
  let mask = cap - 1 in
  if f.packed then begin
    let slots = Array.make cap empty in
    for i = 0 to f.mask do
      let key = old.(i) in
      if key <> empty then slots.(free_slot slots 1 mask (Int_key.hash key land mask)) <- key
    done;
    f.slots <- slots
  end
  else begin
    let slots = Array.make (2 * cap) empty in
    for i = 0 to f.mask do
      let id = old.(2 * i) in
      if id <> empty then place_wide slots mask id old.((2 * i) + 1)
    done;
    f.slots <- slots
  end;
  f.mask <- mask

let claimed f =
  f.count <- f.count + 1;
  if 2 * f.count > f.mask + 1 then grow f

(* --- packed path --- *)

(* Probes for [key] (never [empty]) from slot [i]: [-1] if it is stored,
   else the empty slot that ends its probe sequence. *)
let rec probe_packed slots mask key i =
  let s = slots.(i) in
  if s = key then -1
  else if s = empty then i
  else probe_packed slots mask key ((i + 1) land mask)

let fast_add_packed f key =
  if key = empty then
    if f.has_empty_key || (f.chaos && Rs_chaos.Inject.dedup_drops ~key) then false
    else begin
      f.has_empty_key <- true;
      claimed f;
      true
    end
  else
    let i = probe_packed f.slots f.mask key (Int_key.hash key land f.mask) in
    if i < 0 || (f.chaos && Rs_chaos.Inject.dedup_drops ~key) then false
    else begin
      f.slots.(i) <- key;
      claimed f;
      true
    end

let fast_mem_packed f key =
  if key = empty then f.has_empty_key
  else probe_packed f.slots f.mask key (Int_key.hash key land f.mask) < 0

(* --- wide path: the slot's cached hash filters, the arena decides --- *)

let wide_eq f id row =
  let base = id * f.farity in
  let rec go i = i = f.farity || (Int_vec.get f.wide (base + i) = row.(i) && go (i + 1)) in
  go 0

let rec probe_wide f slots mask row hk i =
  let id = slots.(2 * i) in
  if id = empty then i
  else if slots.((2 * i) + 1) = hk && wide_eq f id row then -1
  else probe_wide f slots mask row hk ((i + 1) land mask)

let fast_add_wide f row =
  let hk = wide_hash row in
  let i = probe_wide f f.slots f.mask row hk (hk land f.mask) in
  if i < 0 || (f.chaos && Rs_chaos.Inject.dedup_drops ~key:hk) then false
  else begin
    f.slots.(2 * i) <- f.count;
    f.slots.((2 * i) + 1) <- hk;
    Array.iter (Int_vec.push f.wide) row;
    claimed f;
    true
  end

let fast_mem_wide f row =
  let hk = wide_hash row in
  probe_wide f f.slots f.mask row hk (hk land f.mask) < 0

(* Packed arity-2 keys require attributes in [0, 2^31): the integer-mapped
   active domains of the paper's workloads satisfy this (§5.2), but parsed
   programs and EDBs may carry negative constants. The first tuple outside
   the packed range migrates the table to the wide layout at the same
   capacity: every stored pair is unpacked into the arena and re-slotted by
   its tuple hash. *)
let migrate_to_wide f =
  let old = f.slots in
  let slots = Array.make (2 * (f.mask + 1)) empty in
  let id = ref 0 in
  for i = 0 to f.mask do
    let key = old.(i) in
    if key <> empty then begin
      let x, y = Int_key.unpack2 key in
      Int_vec.push f.wide x;
      Int_vec.push f.wide y;
      place_wide slots f.mask !id (wide_hash [| x; y |]);
      incr id
    end
  done;
  f.slots <- slots;
  f.packed <- false

let fast_add2 f x y =
  if f.packed then
    if Int_key.fits2 x y then fast_add_packed f (Int_key.pack2 x y)
    else begin
      migrate_to_wide f;
      fast_add_wide f [| x; y |]
    end
  else fast_add_wide f [| x; y |]

let fast_mem2 f x y =
  if f.packed then Int_key.fits2 x y && fast_mem_packed f (Int_key.pack2 x y)
  else fast_mem_wide f [| x; y |]

let add2 t x y =
  assert (t.arity = 2);
  match t.impl with
  | F f -> fast_add2 f x y
  | B h ->
      let k = [| x; y |] in
      if Hashtbl.mem h k then false
      else begin
        Hashtbl.add h k ();
        true
      end

let add1 t x =
  assert (t.arity = 1);
  match t.impl with
  | F f -> fast_add_packed f x
  | B h ->
      let k = [| x |] in
      if Hashtbl.mem h k then false
      else begin
        Hashtbl.add h k ();
        true
      end

let add_row t row =
  if Array.length row <> t.arity then invalid_arg "Dedup.add_row";
  match t.impl with
  | F f ->
      if t.arity = 1 then fast_add_packed f row.(0)
      else if t.arity = 2 then fast_add2 f row.(0) row.(1)
      else fast_add_wide f row
  | B h ->
      if Hashtbl.mem h row then false
      else begin
        Hashtbl.add h (Array.copy row) ();
        true
      end

let mem_row t row =
  match t.impl with
  | F f ->
      if t.arity = 1 then fast_mem_packed f row.(0)
      else if t.arity = 2 then fast_mem2 f row.(0) row.(1)
      else fast_mem_wide f row
  | B h -> Hashtbl.mem h row

let mem2 t x y =
  assert (t.arity = 2);
  match t.impl with F f -> fast_mem2 f x y | B h -> Hashtbl.mem h [| x; y |]

(* --- the two-table claim: a dedup table and a membership set --- *)

type claim = Repeat | Known | Added

(* [add_d] claims in the dedup table, [add_s] in the set: the fallback for
   layouts that cannot share one hash (a boxed table, one side migrated). *)
let claim_each add_d add_s = if not (add_d ()) then Repeat else if add_s () then Added else Known

let fast_of t = match t.impl with F f -> f | B _ -> invalid_arg "Dedup: not a Fast table"

(* Both tables packed and [key <> empty]: one [Int_key.hash] serves both
   probe sequences. *)
let claim_packed d s key =
  let h = Int_key.hash key in
  let i = probe_packed d.slots d.mask key (h land d.mask) in
  if i < 0 || (d.chaos && Rs_chaos.Inject.dedup_drops ~key) then Repeat
  else begin
    d.slots.(i) <- key;
    claimed d;
    let j = probe_packed s.slots s.mask key (h land s.mask) in
    if j < 0 then Known
    else begin
      s.slots.(j) <- key;
      claimed s;
      Added
    end
  end

let store_wide f i row hk =
  f.slots.(2 * i) <- f.count;
  f.slots.((2 * i) + 1) <- hk;
  Array.iter (Int_vec.push f.wide) row;
  claimed f

(* Both tables wide: one [wide_hash] is cached in both tables' slots. *)
let claim_wide d s row =
  let hk = wide_hash row in
  let i = probe_wide d d.slots d.mask row hk (hk land d.mask) in
  if i < 0 || (d.chaos && Rs_chaos.Inject.dedup_drops ~key:hk) then Repeat
  else begin
    store_wide d i row hk;
    let j = probe_wide s s.slots s.mask row hk (hk land s.mask) in
    if j < 0 then Known
    else begin
      store_wide s j row hk;
      Added
    end
  end

let claim1 t ~set x =
  assert (t.arity = 1);
  let s = fast_of set in
  match t.impl with
  | F d when x <> empty -> claim_packed d s x
  | _ -> claim_each (fun () -> add1 t x) (fun () -> fast_add_packed s x)

let claim2 t ~set x y =
  assert (t.arity = 2);
  let s = fast_of set in
  match t.impl with
  | F d ->
      if d.packed && s.packed && Int_key.fits2 x y then claim_packed d s (Int_key.pack2 x y)
      else begin
        (* the first out-of-range pair migrates whichever side is packed *)
        if not (Int_key.fits2 x y) then begin
          if d.packed then migrate_to_wide d;
          if s.packed then migrate_to_wide s
        end;
        if d.packed || s.packed then claim_each (fun () -> fast_add2 d x y) (fun () -> fast_add2 s x y)
        else claim_wide d s [| x; y |]
      end
  | B _ -> claim_each (fun () -> add2 t x y) (fun () -> fast_add2 s x y)

let claim_row t ~set row =
  if Array.length row <> t.arity || set.arity <> t.arity then invalid_arg "Dedup.claim_row";
  match t.arity with
  | 1 -> claim1 t ~set row.(0)
  | 2 -> claim2 t ~set row.(0) row.(1)
  | _ -> (
      let s = fast_of set in
      match t.impl with
      | F d -> claim_wide d s row
      | B _ -> claim_each (fun () -> add_row t row) (fun () -> fast_add_wide s row))

let add_rows t r cols lo hi =
  if Array.length cols <> t.arity then invalid_arg "Dedup.add_rows";
  match cols with
  | [| c0 |] ->
      let v0 = Relation.col r c0 in
      for i = lo to hi - 1 do
        ignore (add1 t (Int_vec.get v0 i))
      done
  | [| c0; c1 |] ->
      let v0 = Relation.col r c0 and v1 = Relation.col r c1 in
      for i = lo to hi - 1 do
        ignore (add2 t (Int_vec.get v0 i) (Int_vec.get v1 i))
      done
  | _ ->
      let row = Array.make t.arity 0 in
      for i = lo to hi - 1 do
        Array.iteri (fun j c -> row.(j) <- Relation.get r ~row:i ~col:c) cols;
        ignore (add_row t row)
      done

let cardinal t =
  match t.impl with F f -> f.count | B h -> Hashtbl.length h

(* Estimated GC-heap footprint of a Hashtbl entry: bucket cons (3 words) +
   boxed key array header+data. *)
let boxed_entry_bytes arity = 8 * (3 + 1 + arity) + 16

let bytes t =
  match t.impl with
  | F f -> (8 * Array.length f.slots) + Int_vec.capacity_bytes f.wide
  | B h -> (Hashtbl.length h * boxed_entry_bytes t.arity) + (8 * 16)

let account t =
  let b = bytes t in
  let delta = b - t.accounted in
  if delta > 0 then Memtrack.alloc delta else Memtrack.free (-delta);
  t.accounted <- b

let release t =
  Memtrack.free t.accounted;
  t.accounted <- 0

let dedup_chunk t r out lo hi =
  match Relation.arity r with
  | 1 ->
      let c0 = Relation.col r 0 in
      for i = lo to hi - 1 do
        let x = Int_vec.get c0 i in
        if add1 t x then Relation.push1 out x
      done
  | 2 ->
      let c0 = Relation.col r 0 and c1 = Relation.col r 1 in
      for i = lo to hi - 1 do
        let x = Int_vec.get c0 i and y = Int_vec.get c1 i in
        if add2 t x y then Relation.push2 out x y
      done
  | arity ->
      let row = Array.make arity 0 in
      for i = lo to hi - 1 do
        for c = 0 to arity - 1 do
          row.(c) <- Relation.get r ~row:i ~col:c
        done;
        if add_row t row then Relation.push_row out row
      done

(* probes = input tuples, hits = duplicates absorbed by the table *)
let record_trace trace r distinct =
  match trace with
  | None -> ()
  | Some tr ->
      let probes = Relation.nrows r in
      Rs_obs.Trace.count tr "dedup.probes" probes;
      Rs_obs.Trace.count tr "dedup.hits" (max 0 (probes - distinct))

let dedup_relation_parallel ?expected ?trace ~pool mode r =
  let go () =
    let arity = Relation.arity r in
    let n = Relation.nrows r in
    let t = create ~expected:(Option.value expected ~default:(max 16 n)) mode arity in
    let fragments = ref [] in
    Rs_parallel.Pool.parallel_for pool 0 n (fun lo hi ->
        let frag = Relation.create arity in
        dedup_chunk t r frag lo hi;
        fragments := frag :: !fragments);
    let merged = Relation.concat_parallel pool arity (List.rev !fragments) in
    account t;
    release t;
    record_trace trace r (Relation.nrows merged);
    merged
  in
  match trace with
  | Some tr -> Rs_obs.Trace.span tr ~kind:"dedup" (Relation.name r) go
  | None -> go ()
