module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
module Dedup = Rs_relation.Dedup
module Pool = Rs_parallel.Pool

type t = {
  pool : Pool.t;
  catalog : Catalog.t;
  query_overhead_s : float;
  share_builds : bool;
  index_manager : Index_manager.t option;
  trace : Rs_obs.Trace.t option;
}

let create ?(query_overhead_s = 0.0005) ?(share_builds = true) ?index_manager ?trace pool
    catalog =
  { pool; catalog; query_overhead_s; share_builds; index_manager; trace }

let estimate t p =
  Plan.estimate ~rows:(Catalog.stat_rows t.catalog) ~delta_rows:(Catalog.delta_rows t.catalog) p

let arity_of t p = Plan.arity (fun name -> Relation.arity (Catalog.rel t.catalog name)) p

(* short operator label for trace spans/events *)
let plan_label = function
  | Plan.Scan n -> "scan:" ^ n
  | Plan.Old n -> "old:" ^ n
  | Plan.Delta n -> "delta:" ^ n
  | Plan.Rel _ -> "rel"
  | Plan.Filter _ -> "filter"
  | Plan.Project _ -> "project"
  | Plan.Join _ -> "join"
  | Plan.AntiJoin _ -> "anti_join"
  | Plan.UnionAll ps -> Printf.sprintf "union_all(%d)" (List.length ps)

let count t name n =
  match t.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

(* Build an index the manager does not own: a per-query cache entry or a
   transient build side. *)
let build_transient t rel keys =
  let idx = Hash_index.build_pool t.pool rel keys in
  Hash_index.account idx;
  count t "executor.index_builds" 1;
  count t "executor.index_bytes" (Hash_index.bytes idx);
  idx

(* The same for a membership set. *)
let build_transient_set t rel keys =
  let set = Index_manager.build_set t.pool rel keys in
  Dedup.account set;
  count t "executor.index_builds" 1;
  count t "executor.index_bytes" (Dedup.bytes set);
  set

(* Per-query cache of join indexes and membership sets built on named
   tables, keyed by (table, key columns). Shared across the subplans of a
   UNION ALL when [share_builds] — the cache-sharing effect of UIE. *)
type cache = {
  indexes : (string * int list, Hash_index.t) Hashtbl.t;
  sets : (string * int list, Dedup.t) Hashtbl.t;
  deltas : (string * int list, delta_index) Hashtbl.t;  (* keyed by the Δ's table *)
}

(* A build-side index over a Δ range. An index covers its relation from
   row 0, so a range that does not start there is copied out first, and
   the copy lives as long as the index. *)
and delta_index = { idx : Hash_index.t; copied : bool }

let managed t = function
  | Some name -> (
      match t.index_manager with
      | Some m when Index_manager.eligible m name -> Some (m, name)
      | _ -> None)
  | None -> None

(* The three-tier acquisition policy, for either structure: [from_manager]
   and [build] make one, [tbl] picks its per-query cache. Ownership:
   manager structures persist across queries (the manager releases them);
   cache entries live until the query's [release_cache]; transient ones are
   the caller's to release. *)
let acquire t ~from_manager ~build ~tbl ?(cache : cache option) ?scan_name rel keys =
  match managed t scan_name with
  | Some (m, name) -> (from_manager m ~name rel keys, false)
  | None -> (
      match (cache, scan_name) with
      | Some c, Some name -> (
          let k = (name, Array.to_list keys) in
          match Hashtbl.find_opt (tbl c) k with
          | Some x ->
              count t "executor.index_cache_hits" 1;
              (x, false)
          | None ->
              let x = build t rel keys in
              Hashtbl.add (tbl c) k x;
              (x, false))
      | _ -> (build t rel keys, true))

(* A build-side index for [rel] keyed by [keys]. *)
let build_index t ?cache ?scan_name rel keys =
  acquire t ~from_manager:Index_manager.get ~build:build_transient ~tbl:(fun c -> c.indexes)
    ?cache ?scan_name rel keys

(* A membership set of [rel]'s rows projected on [keys]. *)
let build_member_set t ?cache ?scan_name rel keys =
  acquire t ~from_manager:Index_manager.get_set ~build:build_transient_set
    ~tbl:(fun c -> c.sets) ?cache ?scan_name rel keys

(* A set [build_member_set] hands out with an ownership flag, released on
   every exit path of [f] — a worker crash included — when the caller owns
   it. *)
let with_owned (set, own) f =
  Fun.protect ~finally:(fun () -> if own then Dedup.release set) (fun () -> f set)

let release_delta_index d =
  Hash_index.release d.idx;
  if d.copied then Relation.release (Hash_index.relation d.idx)

let release_cache c =
  Hashtbl.iter (fun _ idx -> Hash_index.release idx) c.indexes;
  Hashtbl.iter (fun _ set -> Dedup.release set) c.sets;
  Hashtbl.iter (fun _ idx -> release_delta_index idx) c.deltas

(* Acquisition for compiled kernels: same three-tier policy as a join's
   build side, minus the per-query cache (a kernel is not a query). The
   head table's set is taken for writing: the kernels claim into it. *)
let acquire_index t ?scan_name rel keys = build_index t ?scan_name rel keys

let claim_set t ?scan_name rel keys =
  acquire t ~from_manager:Index_manager.claim_set ~build:build_transient_set
    ~tbl:(fun c -> c.sets) ?scan_name rel keys

(* The rows [\[start, stop)] a leaf reads, as the catalog holds them. *)
let read_leaf t = function
  | Plan.Scan n -> Catalog.read t.catalog n Catalog.Full
  | Plan.Old n -> Catalog.read t.catalog n Catalog.Old
  | Plan.Delta n -> Catalog.read t.catalog n Catalog.Delta
  | _ -> invalid_arg "Executor.read_leaf"

(* A step that binds every column of [rel] at frame offset [off]: with no
   [probe], a scan of rows [\[0, bound)]. *)
let step_all ?(preds = []) ?(probe = [||]) ?(view = Hash_index.empty_view) rel ~off bound =
  Chain.step rel ~off ~at:(Array.init (Relation.arity rel) (( + ) off)) ~preds ~bound ~probe view

(* Drive a chain over its driver's rows [\[start, stop)], one pool chunk at
   a time, each match emitted as [out] over the frame (by default the whole
   frame) into the chunk's own fragment. Fragments merge in chunk order
   (the virtual pool runs chunks sequentially, so the shared frame and the
   list ref are race-free; chunk order keeps results deterministic). *)
let run_chain t ~width ~driver ?(steps = [||]) ?(checks = [||]) ?(residual = []) ?out ~start
    ~stop () =
  let out = match out with Some es -> es | None -> Array.init width (fun c -> Expr.Col c) in
  let arity = Array.length out in
  let frame = Array.make width 0 and tuple = Array.make arity 0 in
  let fragments = ref [] in
  Pool.parallel_for t.pool start stop (fun lo hi ->
      let frag = Relation.create arity in
      let emit () =
        for i = 0 to arity - 1 do
          tuple.(i) <- Expr.eval_frame frame out.(i)
        done;
        Relation.push_row frag tuple
      in
      Chain.drive { Chain.frame; driver; steps; checks; residual; emit } lo hi;
      fragments := frag :: !fragments);
  Relation.concat_parallel t.pool arity (List.rev !fragments)

(* Rows [\[start, stop)] of [rel] that pass [preds] and every set check
   of [checks], each emitted as [out] (by default the row itself). *)
let copy_rows t ?preds ?checks ?out (rel, start, stop) =
  run_chain t ~width:(Relation.arity rel) ~driver:(step_all ?preds rel ~off:0 stop) ?checks ?out
    ~start ~stop ()

(* Rows [\[start, stop)] of [rel] as a relation of their own: [rel] itself
   when that is every row, else an accounted copy. *)
let materialize t ((rel, start, stop) as range) =
  if start = 0 && stop = Relation.nrows rel then rel else copy_rows t range

(* The index over Δ [range] of table [name], shared per query like a
   table's build side; [owned] when the caller must
   {!release_delta_index} it. *)
let acquire_delta_index t (cache : cache option) name ((rel, _, _) as range) keys =
  let build () =
    let copy = materialize t range in
    { idx = build_transient t copy keys; copied = copy != rel }
  in
  match cache with
  | Some c -> (
      let k = (name, Array.to_list keys) in
      match Hashtbl.find_opt c.deltas k with
      | Some d ->
          count t "executor.index_cache_hits" 1;
          (d, false)
      | None ->
          let d = build () in
          Hashtbl.add c.deltas k d;
          (d, false))
  | None -> (build (), true)

(* Release [rel], what [eval] or [eval_rows] gave for [plan], once its
   reader is done: only a result the executor made. A [Plan.Rel] is its
   caller's, and a leaf read or [materialize]d in place is the catalog's
   own table. *)
let release_eval t plan rel =
  match plan with
  | Plan.Rel _ -> ()
  | Plan.Scan _ | Plan.Old _ | Plan.Delta _ ->
      let table, _, _ = read_leaf t plan in
      if rel != table then Relation.release rel
  | _ -> Relation.release rel

(* [out], built by reading [rel], the rows [plan] gave, which go now. *)
let consumed t plan rel out =
  release_eval t plan rel;
  out

let rec eval t (cache : cache option) plan : Relation.t =
  match plan with
  | Plan.Scan _ | Plan.Old _ | Plan.Delta _ ->
      (* only reached where no operator reads the rows in place *)
      materialize t (read_leaf t plan)
  | Plan.Rel r -> r
  | Plan.Filter (preds, src) ->
      let ((input, _, _) as range) = eval_rows t cache src in
      consumed t src input @@ copy_rows t ~preds range
  | Plan.Project (out, src) ->
      let ((input, _, _) as range) = eval_rows t cache src in
      consumed t src input @@ copy_rows t ~out range
  | Plan.Join j -> eval_join t cache j
  | Plan.AntiJoin a -> eval_anti t cache a
  | Plan.UnionAll ps ->
      let arity = arity_of t plan in
      (* Subplans of one query run back to back; with [share_builds] they
         reuse each other's hash tables via [cache]. The final merge is a
         parallel block copy. *)
      let parts = List.map (fun p -> eval t cache p) ps in
      let merged = Relation.concat_parallel t.pool arity parts in
      List.iter2 (release_eval t) ps parts;
      merged

(* The relation an operator reads and the rows [\[start, stop)] of it the
   plan covers: a leaf reads its table in place, anything else is
   evaluated whole. *)
and eval_rows t cache = function
  | (Plan.Scan _ | Plan.Old _ | Plan.Delta _) as leaf -> read_leaf t leaf
  | p ->
      let r = eval t cache p in
      (r, 0, Relation.nrows r)

and eval_join t cache { Plan.l; r; lkeys; rkeys; extra; out } =
  (* [Old] shares its table's index with a full scan of it; a [Delta] is a
     row set of its own *)
  let scan_name = function Plan.Scan n | Plan.Old n -> Some n | _ -> None in
  (* Build-side choice from optimizer estimates (not true sizes): this is
     the decision OOF keeps honest by refreshing row counts. A side whose
     index persists across iterations (the manager's tables) trumps the
     estimates — its build cost amortizes to ~zero over the fixpoint, so the
     join degenerates to |probe side| hash probes. *)
  let lname = scan_name l and rname = scan_name r in
  let l_managed = managed t lname <> None and r_managed = managed t rname <> None in
  let build_left = if l_managed <> r_managed then l_managed else estimate t l <= estimate t r in
  let build, bkeys, bname, probe, pkeys =
    if build_left then (l, lkeys, lname, r, rkeys) else (r, rkeys, rname, l, lkeys)
  in
  let prel, pstart, pstop = eval_rows t cache probe in
  (* A table's index covers all its rows; the matches at rows from [bstop]
     on (an [Old] read's Δ, rows appended since the round started) lead
     each newest-first chain and are skipped. A Δ build side gets an index
     over its rows alone. A build side with no key gets no index: it is
     scanned from row 0, so a Δ range that starts later is copied out. *)
  let brel, bstop, view, release =
    match build with
    | Plan.Delta name when bkeys <> [||] ->
        let d, owned = acquire_delta_index t cache name (read_leaf t build) bkeys in
        ( Hash_index.relation d.idx,
          Hash_index.indexed_rows d.idx,
          Hash_index.view d.idx,
          fun () -> if owned then release_delta_index d )
    | _ ->
        let brel, bstop =
          match eval_rows t cache build with
          | rel, 0, stop -> (rel, stop)
          | range ->
              let copy = copy_rows t range in
              (copy, Relation.nrows copy)
        in
        let view, release_idx =
          if bkeys = [||] then (Hash_index.empty_view, ignore)
          else
            let idx, owned = build_index t ?cache ?scan_name:bname brel bkeys in
            (Hash_index.view idx, fun () -> if owned then Hash_index.release idx)
        in
        (brel, bstop, view, fun () -> release_idx (); release_eval t build brel)
  in
  (* the frame holds the left side's columns, then the right side's *)
  let pa = Relation.arity prel and ba = Relation.arity brel in
  let poff, boff = if build_left then (ba, 0) else (0, pa) in
  let result =
    run_chain t ~width:(pa + ba) ~driver:(step_all prel ~off:poff pstop)
      ~steps:[| step_all brel ~off:boff ~probe:(Array.map (( + ) poff) pkeys) ~view bstop |]
      ~residual:extra ?out ~start:pstart ~stop:pstop ()
  in
  release ();
  consumed t probe prel result

and eval_anti t cache { Plan.al; ar; alkeys; arkeys } =
  let scan_name = function Plan.Scan n -> Some n | _ -> None in
  let ((lrel, _, _) as range) = eval_rows t cache al in
  let rrel = eval t cache ar in
  let copy ?preds ?checks () =
    consumed t al lrel @@ consumed t ar rrel @@ copy_rows t ?preds ?checks range
  in
  if Array.length arkeys = 0 then
    (* a negated atom that binds no variable holds for every row or none *)
    let never = Expr.Cmp (Expr.Ne, Expr.Const 0, Expr.Const 0) in
    copy ~preds:(if Relation.nrows rrel = 0 then [] else [ never ]) ()
  else
    (* The negated side is a lower-stratum table under stratification, so
       its set persists across every iteration of this stratum's fixpoint. *)
    with_owned (build_member_set t ?cache ?scan_name:(scan_name ar) rrel arkeys) @@ fun set ->
    copy ~checks:[| Chain.anti set alkeys |] ()

let run_query t plan =
  Pool.add_serial t.pool t.query_overhead_s;
  let go () =
    let cache =
      if t.share_builds then
        Some { indexes = Hashtbl.create 8; sets = Hashtbl.create 8; deltas = Hashtbl.create 4 }
      else None
    in
    let result = eval t cache plan in
    (match cache with Some c -> release_cache c | None -> ());
    result
  in
  match t.trace with
  | None -> go ()
  | Some tr ->
      let label = plan_label plan in
      Rs_obs.Trace.span tr ~kind:"executor" label (fun () ->
          let est = estimate t plan in
          let result = go () in
          let actual = Relation.nrows result in
          Rs_obs.Trace.count tr "executor.queries" 1;
          Rs_obs.Trace.count tr "executor.est_rows" est;
          Rs_obs.Trace.count tr "executor.actual_rows" actual;
          Rs_obs.Trace.event tr ~kind:"executor" label
            [ ("est_rows", float_of_int est); ("actual_rows", float_of_int actual) ];
          result)

(* --- set difference (Algorithms 4 and 5) --- *)

let all_cols rel = Array.init (Relation.arity rel) (fun i -> i)

(* Membership set of the full table [r]: the anti-probe side of both
   set-difference translations. When [r] is a managed recursive table its
   set persists across iterations and only the delta suffix is added each
   round. *)
let full_table_set t ?name r = build_member_set t ?scan_name:name r (all_cols r)

(* The rows of [src] whose tuple [set] lacks, chunk-parallel. *)
let anti_probe t src set =
  copy_rows t ~checks:[| Chain.anti set (all_cols src) |] (src, 0, Relation.nrows src)

(* The rows of [src] whose tuple [set] holds, chunk-parallel. *)
let semi_probe t src set =
  copy_rows t ~checks:[| Chain.semi set (all_cols src) |] (src, 0, Relation.nrows src)

let opsd_impl t ?name ~rdelta ~r () = with_owned (full_table_set t ?name r) (anti_probe t rdelta)

let tpsd_impl t ?name ~rdelta ~r () =
  (* Phase 1: intersection, building on the smaller input — unless [r]'s
     persistent set already exists, which makes the build side free. *)
  let r_side = Relation.nrows r <= Relation.nrows rdelta || managed t name <> None in
  let build, probe =
    if r_side then (full_table_set t ?name r, rdelta)
    else ((build_transient_set t rdelta (all_cols rdelta), true), r)
  in
  let inter = with_owned build (semi_probe t probe) in
  Fun.protect ~finally:(fun () -> Relation.release inter) @@ fun () ->
  (* The probe side may contain tuples of [r] several times only if [r] had
     duplicates; IDB tables are deduplicated, so [inter] is a set. *)
  (* Phase 2: Rδ − r. *)
  with_owned (build_transient_set t inter (all_cols inter), true) (anti_probe t rdelta)

let with_span t name f =
  match t.trace with Some tr -> Rs_obs.Trace.span tr ~kind:"executor" name f | None -> f ()

let opsd t ?name ~rdelta ~r () = with_span t "opsd" (opsd_impl t ?name ~rdelta ~r)
let tpsd t ?name ~rdelta ~r () = with_span t "tpsd" (tpsd_impl t ?name ~rdelta ~r)
