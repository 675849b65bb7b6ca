module Relation = Rs_relation.Relation
module Delta = Rs_relation.Delta
module Inject = Rs_chaos.Inject

exception Unknown_edb of string

type db = { mutable version : int; mutable rels : (string * Relation.t) list }

type t = {
  dbs : (string, db) Hashtbl.t;
  index_managers : (string, Rs_exec.Index_manager.t) Hashtbl.t;  (* by database *)
}

let create () : t = { dbs = Hashtbl.create 8; index_managers = Hashtbl.create 8 }

let attach_index_manager t name im = Hashtbl.replace t.index_managers name im

let define t name rels =
  (match Hashtbl.find_opt t.index_managers name with
  | Some im -> List.iter (fun (rl, _) -> Rs_exec.Index_manager.invalidate im ~name:rl) rels
  | None -> ());
  match Hashtbl.find_opt t.dbs name with
  | Some db ->
      db.version <- db.version + 1;
      db.rels <- rels
  | None -> Hashtbl.add t.dbs name { version = 1; rels }

let find t name =
  match Hashtbl.find_opt t.dbs name with
  | Some db -> db
  | None -> raise (Unknown_edb name)

(* Atomic typed delta: stage complete replacement relations for every
   changed input, then commit them with one pointer swap and one version
   bump. Nothing observable changes until the swap, so a chaos abort (or a
   Memtrack OOM while accounting the staged copies) leaves the database at
   its pre-delta version with no accounting drift — the invariant the
   "delta" fault class of the chaos harness checks. *)
let apply t name (d : Delta.t) =
  let db = find t name in
  let touched = Delta.rels d in
  List.iter
    (fun rl ->
      if not (List.mem_assoc rl db.rels) then raise (Unknown_edb (name ^ "." ^ rl)))
    touched;
  List.iter
    (fun rl ->
      let arity = Relation.arity (List.assoc rl db.rels) in
      List.iter
        (fun (o : Delta.op) ->
          if Array.length o.Delta.row <> arity then
            invalid_arg
              (Printf.sprintf "Edb_store.apply: %s.%s expects arity %d" name rl arity))
        (Delta.ops d rl))
    touched;
  (* set-level normalization against current membership: inserting a
     present row or retracting an absent one is a no-op and does not bump
     the version *)
  let members =
    List.map
      (fun rl ->
        let r = List.assoc rl db.rels in
        let h = Hashtbl.create (max 16 (Relation.nrows r)) in
        List.iter (fun row -> Hashtbl.replace h (Array.to_list row) ()) (Relation.to_rows r);
        (rl, h))
      touched
  in
  let changes =
    Delta.normalize
      ~mem:(fun rl row -> Hashtbl.mem (List.assoc rl members) (Array.to_list row))
      d
  in
  if changes = [] then (db.version, Delta.empty)
  else begin
    (* stage: unaccounted replacement relations; a retraction removes every
       stored instance of the row (relations are bags, deltas are sets) *)
    let staged =
      List.map
        (fun (rl, (c : Delta.change)) ->
          Inject.delta_should_abort ~point:(Printf.sprintf "edb_store.apply:%s.%s" name rl);
          let old_r = List.assoc rl db.rels in
          let dels = Hashtbl.create 16 in
          List.iter (fun row -> Hashtbl.replace dels (Array.to_list row) ()) c.Delta.retract;
          let fresh = Relation.create ~name:(Relation.name old_r) (Relation.arity old_r) in
          List.iter
            (fun row ->
              if not (Hashtbl.mem dels (Array.to_list row)) then Relation.push_row fresh row)
            (Relation.to_rows old_r);
          List.iter (fun row -> Relation.push_row fresh row) c.Delta.insert;
          (rl, fresh))
        changes
    in
    (* account the staged copies; on any failure give back what was already
       accounted so an aborted apply leaves Memtrack exactly where it was *)
    let accounted = ref [] in
    (try
       List.iter
         (fun (_, r) ->
           Relation.account r;
           accounted := r :: !accounted)
         staged
     with e ->
       List.iter Relation.release !accounted;
       raise e);
    (* commit: swap pointers, bump the version once, drop the old copies *)
    let old_rels = db.rels in
    db.rels <-
      List.map
        (fun (rl, r) ->
          match List.assoc_opt rl staged with Some fresh -> (rl, fresh) | None -> (rl, r))
        db.rels;
    db.version <- db.version + 1;
    (* keep any attached persistent join indexes in step with the swap: an
       insert-only replacement preserves the old row order as a prefix, so
       the index can be re-pointed wholesale (rebase) and extended lazily;
       a retraction breaks the prefix and forces a rebuild on next use *)
    (match Hashtbl.find_opt t.index_managers name with
    | Some im ->
        List.iter
          (fun (rl, fresh) ->
            match List.assoc_opt rl changes with
            | Some c when c.Delta.retract = [] ->
                Rs_exec.Index_manager.rebase_to im ~name:rl fresh
            | _ -> Rs_exec.Index_manager.invalidate im ~name:rl)
          staged
    | None -> ());
    List.iter
      (fun (rl, _) ->
        match List.assoc_opt rl old_rels with
        | Some old_r -> Relation.release old_r
        | None -> ())
      staged;
    (db.version, Delta.of_changes changes)
  end

let lookup t name = (find t name).rels

let version t name = (find t name).version

let mem t name = Hashtbl.mem t.dbs name

let names t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.dbs [])
