type tag = { t_stratum : int; t_iteration : int; t_seq : int }

(* One table per predicate. Tagged tuples live in [log], in the order
   they were tagged: entry [e] occupies [log.(e * w) .. (e * w) + w - 1]
   with [w = arity + 3], the tuple followed by its tag (stratum,
   iteration, seq). Sequence numbers start at 1, so [seq = 0] marks an
   entry that was retracted. [slots] indexes the log by content with
   linear probing: a slot holds [((e + 1) lsl fp_bits) lor fp], where [fp]
   is the low [fp_bits] of the tuple's hash, or 0 when empty. A probe for
   a new tuple reads only the (small) slot array, recording appends to the
   log, and nothing is boxed: no key list, no tag record, nothing for the
   GC to promote. *)
type table = {
  arity : int;
  w : int;
  pred_seed : int;  (* sampling hash state after the predicate name *)
  scratch : int array;  (* the probe key, [arity] wide *)
  mutable log : int array;
  mutable used : int;  (* log entries, retracted ones included *)
  mutable size : int;  (* live entries *)
  mutable slots : int array;
  mutable mask : int;  (* slot count - 1; the slot count is a power of two *)
}

type t = {
  tables : (string, table) Hashtbl.t;
  sample_rate : float;
  mutable seq : int;
  mutable n_recorded : int;
  mutable n_skipped : int;
}

let create ?(sample = 1.0) () =
  if sample < 0.0 || sample > 1.0 then
    invalid_arg (Printf.sprintf "provenance: sample %g outside [0,1]" sample);
  {
    tables = Hashtbl.create 16;
    sample_rate = sample;
    seq = 0;
    n_recorded = 0;
    n_skipped = 0;
  }

let sample t = t.sample_rate

(* Deterministic content hash: the decision to tag a tuple must not depend
   on which evaluation path absorbed it, which attempt of the retry ladder
   is running, or the order tuples arrived in — only on the tuple itself.
   FNV-1a over the pred name and the row values. *)
let fnv_mix h v =
  let h = (h lxor (v land 0xff)) * 0x01000193 in
  let h = (h lxor ((v asr 8) land 0xffff)) * 0x01000193 in
  (h lxor ((v asr 24) land 0xffff)) * 0x01000193

let pred_seed pred =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := fnv_mix !h (Char.code c)) pred;
  !h

let in_sample t seed key =
  t.sample_rate > 0.0
  &&
  let h = ref seed in
  Array.iter (fun v -> h := fnv_mix !h v) key;
  (!h land max_int) mod 1_000_000 < int_of_float (t.sample_rate *. 1e6)

let keep t seed key = t.sample_rate >= 1.0 || in_sample t seed key

let sampled t ~pred row = keep t (pred_seed pred) (Array.of_list row)

(* Probe hash, unrelated to the sampling hash. [room] keeps a slot
   array at or below 2^fp_bits slots, so a slot's home is [fp land mask]. *)
let fp_bits = 30

let fp_mask = (1 lsl fp_bits) - 1

let fingerprint a off arity =
  let h = ref 0 in
  for c = 0 to arity - 1 do
    h := Rs_util.Int_key.hash_combine !h a.(off + c)
  done;
  !h land fp_mask

let key_eq tbl e key =
  let off = e * tbl.w in
  let c = ref 0 in
  while !c < tbl.arity && tbl.log.(off + !c) = key.(!c) do
    incr c
  done;
  !c = tbl.arity

(* The slot indexing [key], or the empty slot where it would go. *)
let slot tbl key fp =
  let i = ref (fp land tbl.mask) in
  let s = ref tbl.slots.(!i) in
  while !s <> 0 && not (!s land fp_mask = fp && key_eq tbl ((!s lsr fp_bits) - 1) key) do
    i := (!i + 1) land tbl.mask;
    s := tbl.slots.(!i)
  done;
  !i

let place tbl v =
  let i = ref (v land fp_mask land tbl.mask) in
  while tbl.slots.(!i) <> 0 do
    i := (!i + 1) land tbl.mask
  done;
  tbl.slots.(!i) <- v

(* Make room for [extra] more entries. When the log is full, copy its
   live entries in order into a fresh log and index them in a fresh slot
   array at least twice the log's size, so the slots stay at most half
   full until the next copy. The first batch into an empty table gets
   exactly the room it needs (a bit-matrix solve hands over a whole
   stratum at once, and IVM reserves a view's rows before seeding them);
   after that the room doubles. Retracted entries are
   squeezed out by the copy, so a long-lived store under churn stays
   proportional to what it holds. *)
let room tbl extra =
  if tbl.used + extra > Array.length tbl.log / tbl.w then begin
    let need = tbl.size + extra in
    let cap_e = max 16 (if tbl.used = 0 then need else 2 * need) in
    let old = tbl.log and old_used = tbl.used in
    tbl.log <- Array.make (cap_e * tbl.w) 0;
    tbl.used <- 0;
    let cap = ref 16 in
    while !cap < 2 * cap_e do
      cap := 2 * !cap
    done;
    if !cap > 1 lsl fp_bits then invalid_arg "provenance: more than 2^29 tuples in one table";
    tbl.slots <- Array.make !cap 0;
    tbl.mask <- !cap - 1;
    for e = 0 to old_used - 1 do
      if old.((e * tbl.w) + tbl.arity + 2) <> 0 then begin
        let e' = tbl.used in
        Array.blit old (e * tbl.w) tbl.log (e' * tbl.w) tbl.w;
        tbl.used <- e' + 1;
        place tbl (((e' + 1) lsl fp_bits) lor fingerprint tbl.log (e' * tbl.w) tbl.arity)
      end
    done
  end

let table_of t pred arity =
  match Hashtbl.find_opt t.tables pred with
  | Some tbl ->
      if tbl.arity <> arity then
        invalid_arg
          (Printf.sprintf "provenance: %s tagged at arity %d, offered arity %d" pred
             tbl.arity arity);
      tbl
  | None ->
      let tbl =
        {
          arity;
          w = arity + 3;
          pred_seed = pred_seed pred;
          scratch = Array.make arity 0;
          log = [||];
          used = 0;
          size = 0;
          slots = [||];
          mask = -1;
        }
      in
      Hashtbl.replace t.tables pred tbl;
      tbl

(* Tag the tuple in [tbl.scratch]; first write wins. The caller has
   reserved room for it. *)
let record_scratch t tbl ~stratum ~iteration =
  let key = tbl.scratch in
  if not (keep t tbl.pred_seed key) then t.n_skipped <- t.n_skipped + 1
  else begin
    let fp = fingerprint key 0 tbl.arity in
    let i = slot tbl key fp in
    if tbl.slots.(i) = 0 then begin
      t.seq <- t.seq + 1;
      let e = tbl.used in
      let off = e * tbl.w in
      for c = 0 to tbl.arity - 1 do
        tbl.log.(off + c) <- key.(c)
      done;
      tbl.log.(off + tbl.arity) <- stratum;
      tbl.log.(off + tbl.arity + 1) <- iteration;
      tbl.log.(off + tbl.arity + 2) <- t.seq;
      tbl.used <- e + 1;
      tbl.slots.(i) <- ((e + 1) lsl fp_bits) lor fp;
      tbl.size <- tbl.size + 1;
      t.n_recorded <- t.n_recorded + 1
    end
  end

let reserve t ~pred ~arity n = room (table_of t pred arity) n

let rec load_row scratch c = function
  | [] -> ()
  | v :: rest ->
      scratch.(c) <- v;
      load_row scratch (c + 1) rest

let record t ~pred ~stratum ~iteration row =
  let tbl = table_of t pred (List.length row) in
  room tbl 1;
  load_row tbl.scratch 0 row;
  record_scratch t tbl ~stratum ~iteration

let record_relation t ~pred ~stratum ~iteration ?(lo = 0) ?hi rel =
  let hi = Option.value hi ~default:(Rs_relation.Relation.nrows rel) in
  if hi > lo then begin
    let arity = Rs_relation.Relation.arity rel in
    let tbl = table_of t pred arity in
    room tbl (hi - lo);
    let cols = Array.init arity (Rs_relation.Relation.col rel) in
    for row = lo to hi - 1 do
      for c = 0 to arity - 1 do
        tbl.scratch.(c) <- Rs_util.Int_vec.get cols.(c) row
      done;
      record_scratch t tbl ~stratum ~iteration
    done
  end

(* The slot indexing [row], if [pred] has a table of that arity and the
   row is tagged. *)
let lookup t ~pred row =
  match Hashtbl.find_opt t.tables pred with
  | Some tbl when tbl.arity = List.length row && tbl.size > 0 ->
      load_row tbl.scratch 0 row;
      let i = slot tbl tbl.scratch (fingerprint tbl.scratch 0 tbl.arity) in
      if tbl.slots.(i) <> 0 then Some (tbl, i) else None
  | _ -> None

let entry tbl i = (tbl.slots.(i) lsr fp_bits) - 1

(* Retract the entry slot [i] indexes: mark it in the log, then empty the
   slot by backward shift — pull back every later slot of the probe run
   whose home does not lie cyclically in (hole, j], so no lookup ever
   stops early at the hole. *)
let remove tbl i =
  tbl.log.((entry tbl i * tbl.w) + tbl.arity + 2) <- 0;
  tbl.size <- tbl.size - 1;
  tbl.slots.(i) <- 0;
  let hole = ref i and j = ref ((i + 1) land tbl.mask) in
  while tbl.slots.(!j) <> 0 do
    let home = tbl.slots.(!j) land fp_mask land tbl.mask in
    let stays = if !hole <= !j then !hole < home && home <= !j else !hole < home || home <= !j in
    if not stays then begin
      tbl.slots.(!hole) <- tbl.slots.(!j);
      tbl.slots.(!j) <- 0;
      hole := !j
    end;
    j := (!j + 1) land tbl.mask
  done

let retract t ~pred row =
  match lookup t ~pred row with Some (tbl, i) -> remove tbl i | None -> ()

let find t ~pred row =
  match lookup t ~pred row with
  | Some (tbl, i) ->
      let off = (entry tbl i * tbl.w) + tbl.arity in
      Some
        {
          t_stratum = tbl.log.(off);
          t_iteration = tbl.log.(off + 1);
          t_seq = tbl.log.(off + 2);
        }
  | None -> None

let tagged t ~pred =
  match Hashtbl.find_opt t.tables pred with Some tbl -> tbl.size | None -> 0

let recorded t = t.n_recorded

let skipped t = t.n_skipped
