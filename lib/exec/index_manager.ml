module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
module Pool = Rs_parallel.Pool

type t = {
  pool : Pool.t;
  persistent : string -> bool;
  parent : t option;
  tbl : (string * int list, Hash_index.t) Hashtbl.t;
  trace : Rs_obs.Trace.t option;
}

let create ?trace ?parent ~persistent pool =
  { pool; persistent; parent; tbl = Hashtbl.create 16; trace }

let eligible t name =
  t.persistent name
  || match t.parent with Some p -> p.persistent name | None -> false

let count t name n =
  match t.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

let note_build t idx =
  count t "executor.index_builds" 1;
  count t "executor.index_bytes" (Hash_index.bytes idx)

let rebuild t key rel keys =
  (match Hashtbl.find_opt t.tbl key with
  | Some old -> Hash_index.release old
  | None -> ());
  let idx = Hash_index.build_pool t.pool rel keys in
  Hash_index.account idx;
  note_build t idx;
  Hashtbl.replace t.tbl key idx;
  idx

let rec get t ~name rel keys =
  match t.parent with
  (* Names the parent owns (e.g. the EDB store's base relations, shared
     across interpreter runs) are served from the parent's table so their
     indexes outlive this manager's [release_all]. *)
  | Some p when p.persistent name -> get p ~name rel keys
  | _ -> (
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
          rebuild t key rel keys)

let entries_of t name =
  Hashtbl.fold (fun (n, _ as key) idx acc -> if n = name then (key, idx) :: acc else acc)
    t.tbl []

let invalidate t ~name =
  List.iter
    (fun (key, idx) ->
      Hash_index.release idx;
      Hashtbl.remove t.tbl key;
      count t "executor.index_invalidations" 1)
    (entries_of t name)

let rebase_to t ~name rel =
  List.iter
    (fun (key, idx) ->
      match Hash_index.rebase idx rel with
      | () -> count t "executor.index_rebases" 1
      | exception Invalid_argument _ ->
          (* replacement does not extend the indexed prefix — fall back to
             dropping the entry; the next access rebuilds *)
          Hash_index.release idx;
          Hashtbl.remove t.tbl key;
              count t "executor.index_invalidations" 1)
    (entries_of t name)

let bytes t = Hashtbl.fold (fun _ idx acc -> acc + Hash_index.bytes idx) t.tbl 0

let release_all t =
  (* the parent (if any) is owned by whoever created it: leave it intact *)
  Hashtbl.iter (fun _ idx -> Hash_index.release idx) t.tbl;
  Hashtbl.reset t.tbl
