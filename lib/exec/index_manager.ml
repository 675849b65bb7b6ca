module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
module Dedup = Rs_relation.Dedup
module Pool = Rs_parallel.Pool

(* A membership set of the rows [0, rows) of [rel], projected on its key
   columns, with [rel]'s generation when it last covered them — the
   bookkeeping a [Hash_index] carries itself. *)
type set_entry = {
  set : Dedup.t;
  mutable rel : Relation.t;
  mutable rows : int;
  mutable gen : int;
}

type t = {
  pool : Pool.t;
  persistent : string -> bool;
  parent : t option;
  tbl : (string * int list, Hash_index.t) Hashtbl.t;
  sets : (string * int list, set_entry) Hashtbl.t;
  trace : Rs_obs.Trace.t option;
}

let create ?trace ?parent ~persistent pool =
  { pool; persistent; parent; tbl = Hashtbl.create 16; sets = Hashtbl.create 16; trace }

let build_set pool rel keys =
  (* Chaos fault point: a membership set build fails, before any write. *)
  Rs_chaos.Inject.index_should_fail ~point:"index_set.build";
  let n = Relation.nrows rel in
  let set = Dedup.create_set ~expected:n (Array.length keys) in
  Pool.parallel_for pool 0 n (Dedup.add_rows set rel keys);
  set

let release_set e = Dedup.release e.set

let eligible t name =
  t.persistent name
  || match t.parent with Some p -> p.persistent name | None -> false

let count t name n =
  match t.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

let note_build t bytes =
  count t "executor.index_builds" 1;
  count t "executor.index_bytes" bytes

let rebuild t key rel keys =
  (match Hashtbl.find_opt t.tbl key with
  | Some old -> Hash_index.release old
  | None -> ());
  let idx = Hash_index.build_pool t.pool rel keys in
  Hash_index.account idx;
  note_build t (Hash_index.bytes idx);
  Hashtbl.replace t.tbl key idx;
  idx

(* The manager that holds [name]'s structures: names the parent owns (e.g.
   the EDB store's base relations, shared across interpreter runs) are
   served from the parent's tables so they outlive this manager's
   [release_all]. *)
let rec owner t name =
  match t.parent with Some p when p.persistent name -> owner p name | _ -> t

let get t ~name rel keys =
  let t = owner t name in
  let key = (name, Array.to_list keys) in
  match Hashtbl.find_opt t.tbl key with
  | Some idx
    (* Validity = same physical relation, same generation, and no shrink.
       The generation check is what catches destructive in-place rewrites
       (Relation.clear bumps it): a clear-then-repopulate within one
       fixpoint changes neither identity nor (necessarily) the row count,
       so without it the appends-only fast path below would extend a stale
       index over rewritten rows. *)
    when Hash_index.relation idx == rel
         && Hash_index.generation idx = Relation.generation rel
         && Hash_index.indexed_rows idx <= Relation.nrows rel ->
      if Hash_index.indexed_rows idx = Relation.nrows rel then begin
        count t "executor.index_reuse_hits" 1;
        idx
      end
      else begin
        (* the relation grew by its delta since the last iteration: extend
           the index over the fresh suffix instead of rebuilding *)
        let r0 = Hash_index.rehashes idx in
        ignore (Hash_index.append_pool t.pool idx);
        let dr = Hash_index.rehashes idx - r0 in
        Hash_index.account idx;
        count t "executor.index_appends" 1;
        if dr > 0 then count t "executor.index_rehashes" dr;
        idx
      end
  | _ ->
      (* never built, or the catalog swapped in a different relation under
         this name, or the relation was destructively mutated *)
      rebuild t key rel keys

(* The entry under [key] if it still covers a prefix of [rel] (the
   validity rule of [get]); a stale entry is released and dropped. *)
let valid_set t key rel =
  match Hashtbl.find_opt t.sets key with
  | Some e when e.rel == rel && e.gen = Relation.generation rel && e.rows <= Relation.nrows rel ->
      Some e
  | stale ->
      Option.iter release_set stale;
      Hashtbl.remove t.sets key;
      None

(* Adds the rows [rel] gained since [e] last covered it. *)
let append_suffix t e rel keys =
  let n = Relation.nrows rel in
  Pool.parallel_for t.pool e.rows n (Dedup.add_rows e.set rel keys);
  e.rows <- n;
  Dedup.account e.set;
  count t "executor.index_appends" 1

let build_entry t key rel keys =
  let set = build_set t.pool rel keys in
  Dedup.account set;
  note_build t (Dedup.bytes set);
  let e = { set; rel; rows = Relation.nrows rel; gen = Relation.generation rel } in
  Hashtbl.replace t.sets key e;
  e

(* The manager holding [name]'s sets and the key of the set on [keys]. *)
let set_slot t ~name keys = (owner t name, (name, Array.to_list keys))

let get_set t ~name rel keys =
  let t, key = set_slot t ~name keys in
  match valid_set t key rel with
  | Some e ->
      if e.rows = Relation.nrows rel then count t "executor.index_reuse_hits" 1
      else begin
        (* Chaos fault point: a set append fails, before any write. *)
        Rs_chaos.Inject.index_should_fail ~point:"index_set.append";
        append_suffix t e rel keys
      end;
      e.set
  | None -> (build_entry t key rel keys).set

let claim_set t ~name rel keys =
  let t, key = set_slot t ~name keys in
  match valid_set t key rel with
  | Some e ->
      (* Chaos fault point: the writer's append fails, before any write —
         the catch-up below or the writer's own claims. *)
      Rs_chaos.Inject.index_should_fail ~point:"index_set.append";
      if e.rows = Relation.nrows rel then count t "executor.index_reuse_hits" 1
      else append_suffix t e rel keys;
      e.set
  | None ->
      let e = build_entry t key rel keys in
      Rs_chaos.Inject.index_should_fail ~point:"index_set.append";
      e.set

let cover_set t ~name rel keys =
  let t, key = set_slot t ~name keys in
  match Hashtbl.find_opt t.sets key with
  | Some e when e.rel == rel && e.gen = Relation.generation rel ->
      e.rows <- Relation.nrows rel;
      Dedup.account e.set
  | Some _ | None -> ()

let drop_set t ~name keys =
  let t, key = set_slot t ~name keys in
  match Hashtbl.find_opt t.sets key with
  | Some e ->
      release_set e;
      Hashtbl.remove t.sets key;
      count t "executor.index_invalidations" 1
  | None -> ()

let peek_set t ~name keys =
  let t, key = set_slot t ~name keys in
  Option.map (fun e -> (e.rel, e.set)) (Hashtbl.find_opt t.sets key)

(* Sets hold values, not row ids: a replacement that keeps the covered
   rows as its prefix leaves a set valid verbatim. *)
let rebase_set e rel =
  if Relation.arity rel <> Relation.arity e.rel || Relation.nrows rel < e.rows then
    invalid_arg "Index_manager.rebase_to";
  e.rel <- rel;
  e.gen <- Relation.generation rel

(* [f key x] for every entry of [tbl] held under [name]. *)
let iter_named tbl name f =
  Hashtbl.fold (fun ((n, _) as key) x acc -> if n = name then (key, x) :: acc else acc) tbl []
  |> List.iter (fun (key, x) -> f key x)

let drop t tbl release key x =
  release x;
  Hashtbl.remove tbl key;
  count t "executor.index_invalidations" 1

let invalidate t ~name =
  iter_named t.tbl name (drop t t.tbl Hash_index.release);
  iter_named t.sets name (drop t t.sets release_set)

let rebase_to t ~name rel =
  let rebase tbl release rebase key x =
    match rebase x rel with
    | () -> count t "executor.index_rebases" 1
    | exception Invalid_argument _ ->
        (* replacement does not extend the covered prefix — fall back to
           dropping the entry; the next access rebuilds *)
        drop t tbl release key x
  in
  iter_named t.tbl name (rebase t.tbl Hash_index.release Hash_index.rebase);
  iter_named t.sets name (rebase t.sets release_set rebase_set)

let bytes t =
  Hashtbl.fold (fun _ idx acc -> acc + Hash_index.bytes idx) t.tbl 0
  + Hashtbl.fold (fun _ e acc -> acc + Dedup.bytes e.set) t.sets 0

let release_all t =
  (* the parent (if any) is owned by whoever created it: leave it intact *)
  Hashtbl.iter (fun _ idx -> Hash_index.release idx) t.tbl;
  Hashtbl.reset t.tbl;
  Hashtbl.iter (fun _ e -> release_set e) t.sets;
  Hashtbl.reset t.sets
