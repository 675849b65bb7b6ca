module Int_vec = Rs_util.Int_vec
module Memtrack = Rs_storage.Memtrack

type t = {
  name : string;
  arity : int;
  cols : Int_vec.t array;
  mutable accounted : int;
  mutable generation : int;
}

let create ?(name = "_anon") arity =
  if arity < 1 then invalid_arg "Relation.create: arity must be >= 1";
  { name; arity; cols = Array.init arity (fun _ -> Int_vec.create ()); accounted = 0;
    generation = 0 }

let create_sized ?(name = "_anon") arity n =
  if arity < 1 then invalid_arg "Relation.create_sized";
  { name; arity; cols = Array.init arity (fun _ -> Int_vec.create_sized n); accounted = 0;
    generation = 0 }

let name t = t.name
let arity t = t.arity
let nrows t = Int_vec.length t.cols.(0)
let generation t = t.generation
let touch t = t.generation <- t.generation + 1

let push_row t row =
  if Array.length row <> t.arity then invalid_arg "Relation.push_row: arity mismatch";
  Array.iteri (fun i x -> Int_vec.push t.cols.(i) x) row

let push1 t x =
  assert (t.arity = 1);
  Int_vec.push t.cols.(0) x

let push2 t x y =
  assert (t.arity = 2);
  Int_vec.push t.cols.(0) x;
  Int_vec.push t.cols.(1) y

let push3 t x y z =
  assert (t.arity = 3);
  Int_vec.push t.cols.(0) x;
  Int_vec.push t.cols.(1) y;
  Int_vec.push t.cols.(2) z

let get t ~row ~col = Int_vec.get t.cols.(col) row

let col t i = t.cols.(i)

let of_rows ?name arity rows =
  let t = create ?name arity in
  List.iter (push_row t) rows;
  t

let to_rows t =
  let n = nrows t in
  List.init n (fun r -> Array.init t.arity (fun c -> get t ~row:r ~col:c))

let copy ?name t =
  let r = create ?name:(Some (Option.value name ~default:t.name)) t.arity in
  Array.iteri (fun i c -> Int_vec.append r.cols.(i) c) t.cols;
  r

let append_all dst src =
  if dst.arity <> src.arity then invalid_arg "Relation.append_all: arity mismatch";
  Array.iteri (fun i c -> Int_vec.append dst.cols.(i) c) src.cols

(* Generation-bump audit (Index_manager invalidation contract): appends
   (push*, append_all) deliberately do NOT bump — a grown relation is a
   valid delta-append target for a live index. Every destructive mutation
   MUST [touch]: without the bump here, a clear-then-repopulate that ends
   at >= the indexed row count passes the manager's [indexed_rows <= nrows]
   check and serves a stale index over rewritten rows. *)
let clear t =
  Array.iter Int_vec.clear t.cols;
  touch t

let concat_parallel pool arity fragments =
  let frags = Array.of_list fragments in
  let nf = Array.length frags in
  let offsets = Array.make (nf + 1) 0 in
  for i = 0 to nf - 1 do
    offsets.(i + 1) <- offsets.(i) + nrows frags.(i)
  done;
  let total = offsets.(nf) in
  let out =
    { name = "_concat"; arity; cols = Array.init arity (fun _ -> Int_vec.create_sized total);
      accounted = 0; generation = 0 }
  in
  (* disjoint destination slices: safe under real parallelism too *)
  Rs_parallel.Pool.parallel_for pool ~chunks:(max nf 1) 0 nf (fun lo hi ->
      for i = lo to hi - 1 do
        let f = frags.(i) in
        let n = nrows f in
        for c = 0 to arity - 1 do
          Int_vec.blit f.cols.(c) 0 out.cols.(c) offsets.(i) n
        done
      done);
  let b = Array.fold_left (fun acc c -> acc + Int_vec.capacity_bytes c) 0 out.cols in
  Rs_storage.Memtrack.alloc b;
  out.accounted <- b;
  out

let bytes t = Array.fold_left (fun acc c -> acc + Int_vec.capacity_bytes c) 0 t.cols

let account t =
  let b = bytes t in
  let delta = b - t.accounted in
  if delta > 0 then Memtrack.alloc delta else Memtrack.free (-delta);
  t.accounted <- b

let release t =
  Memtrack.free t.accounted;
  t.accounted <- 0

(* Stable LSD radix sort of [keys], read as unsigned offsets from their
   minimum: negative keys and spans wider than [max_int] sort exactly. The
   digit width follows [n], so a small input never clears 2^16 counters. *)
let radix_sort keys =
  let n = Array.length keys in
  if n > 1 then begin
    let lo = ref keys.(0) and hi = ref keys.(0) in
    for i = 1 to n - 1 do
      let k = Array.unsafe_get keys i in
      if k < !lo then lo := k else if k > !hi then hi := k
    done;
    let lo = !lo in
    let span = !hi - lo in
    let bits = ref 0 and log_n = ref 0 in
    while !bits < Sys.int_size && span lsr !bits <> 0 do incr bits done;
    while 1 lsl !log_n < n do incr log_n done;
    let width = max 4 (min 16 !log_n) in
    let passes = (!bits + width - 1) / width in
    if passes > 0 then begin
      let width = (!bits + passes - 1) / passes in
      let mask = (1 lsl width) - 1 in
      let count = Array.make (mask + 2) 0 in
      let src = ref keys and dst = ref (Array.make n 0) in
      for p = 0 to passes - 1 do
        let shift = p * width and s = !src and d = !dst in
        Array.fill count 0 (mask + 2) 0;
        for i = 0 to n - 1 do
          let b = (((Array.unsafe_get s i - lo) lsr shift) land mask) + 1 in
          Array.unsafe_set count b (Array.unsafe_get count b + 1)
        done;
        for b = 1 to mask do
          count.(b) <- count.(b) + count.(b - 1)
        done;
        for i = 0 to n - 1 do
          let k = Array.unsafe_get s i in
          let b = ((k - lo) lsr shift) land mask in
          let pos = Array.unsafe_get count b in
          Array.unsafe_set d pos k;
          Array.unsafe_set count b (pos + 1)
        done;
        src := d;
        dst := s
      done;
      if !src != keys then Array.blit !src 0 keys 0 n
    end
  end

(* Sorted distinct rows from packed [keys], built from the end so the list
   needs no reversal, adjacent duplicates skipped. *)
let distinct_rows_of_keys keys row =
  radix_sort keys;
  let acc = ref [] in
  for i = Array.length keys - 1 downto 0 do
    let k = keys.(i) in
    if i = Array.length keys - 1 || k <> keys.(i + 1) then acc := row k :: !acc
  done;
  !acc

(* Packed keys of a binary relation, or [None] as soon as a pair falls
   outside [Int_key.fits2]; [pack2] keeps the lexicographic order. *)
let packed_pairs xs ys n =
  let keys = Array.make n 0 and i = ref 0 in
  while !i < n && Rs_util.Int_key.fits2 xs.(!i) ys.(!i) do
    keys.(!i) <- Rs_util.Int_key.pack2 xs.(!i) ys.(!i);
    incr i
  done;
  if !i = n then Some keys else None

let sorted_distinct_rows t =
  let n = nrows t in
  let cols = Array.map Int_vec.unsafe_data t.cols in
  match cols with
  | [| xs |] -> distinct_rows_of_keys (Array.sub xs 0 n) (fun k -> [| k |])
  | [| xs; ys |] -> (
      match packed_pairs xs ys n with
      | Some keys ->
          distinct_rows_of_keys keys (fun k ->
              let x, y = Rs_util.Int_key.unpack2 k in
              [| x; y |])
      | None -> List.sort_uniq compare (to_rows t))
  | _ -> List.sort_uniq compare (to_rows t)
