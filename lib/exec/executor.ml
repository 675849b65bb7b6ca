module Relation = Rs_relation.Relation
module Hash_index = Rs_relation.Hash_index
module Dedup = Rs_relation.Dedup
module Pool = Rs_parallel.Pool
module Int_vec = Rs_util.Int_vec

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

let estimate t p = Plan.estimate (fun name -> Catalog.stat_rows t.catalog name) p

let arity_of t p = Plan.arity (fun name -> Relation.arity (Catalog.rel t.catalog name)) p

(* short operator label for trace spans/events *)
let plan_label = function
  | Plan.Scan n -> "scan:" ^ n
  | Plan.Old { table; _ } -> "old:" ^ table
  | Plan.Rel _ -> "rel"
  | Plan.Filter _ -> "filter"
  | Plan.Project _ -> "project"
  | Plan.Join _ -> "join"
  | Plan.AntiJoin _ -> "anti_join"
  | Plan.UnionAll ps -> Printf.sprintf "union_all(%d)" (List.length ps)
  | Plan.Aggregate _ -> "aggregate"

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
}

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

let release_cache c =
  Hashtbl.iter (fun _ idx -> Hash_index.release idx) c.indexes;
  Hashtbl.iter (fun _ set -> Dedup.release set) c.sets

(* Acquisition for compiled kernels: same three-tier policy as a join's
   build side, minus the per-query cache (a kernel is not a query). The
   head table's set is taken for writing: the kernels claim into it. *)
let acquire_index t ?scan_name rel keys = build_index t ?scan_name rel keys

let claim_set t ?scan_name rel keys =
  acquire t ~from_manager:Index_manager.claim_set ~build:build_transient_set
    ~tbl:(fun c -> c.sets) ?scan_name rel keys

(* The row bound of an [Old] read: how many rows of [table] come before
   its Δ-suffix. A Δ longer than its table means the suffix invariant is
   broken, and reading a prefix would silently drop or repeat rows. *)
let old_bound t ~table ~delta =
  let n = Relation.nrows (Catalog.rel t.catalog table) in
  let d = Relation.nrows (Catalog.rel t.catalog delta) in
  if d > n then
    invalid_arg
      (Printf.sprintf "Plan.Old: %s has %d rows, more than the %d of %s" delta d n table);
  n - d

(* Merge per-chunk output fragments in chunk order (the virtual pool runs
   chunks sequentially, so a list ref is race-free; chunk order keeps results
   deterministic). *)
let chunked_output t ~arity ~n f =
  let fragments = ref [] in
  Pool.parallel_for t.pool 0 n (fun lo hi ->
      let frag = Relation.create arity in
      f frag lo hi;
      fragments := frag :: !fragments);
  Relation.concat_parallel t.pool arity (List.rev !fragments)

let rec eval t (cache : cache option) plan : Relation.t =
  match plan with
  | Plan.Scan name -> Catalog.rel t.catalog name
  | Plan.Old _ ->
      (* only reached where no operator reads the prefix in place *)
      let input, n = eval_rows t cache plan in
      let arity = Relation.arity input in
      chunked_output t ~arity ~n (fun frag lo hi ->
          for row = lo to hi - 1 do
            for c = 0 to arity - 1 do
              Int_vec.push (Relation.col frag c) (Relation.get input ~row ~col:c)
            done
          done)
  | Plan.Rel r -> r
  | Plan.Filter (preds, src) ->
      let input, n = eval_rows t cache src in
      let arity = Relation.arity input in
      chunked_output t ~arity ~n (fun frag lo hi ->
          for row = lo to hi - 1 do
            let get c = Relation.get input ~row ~col:c in
            if List.for_all (Expr.test get) preds then
              for c = 0 to arity - 1 do
                Int_vec.push (Relation.col frag c) (get c)
              done
          done)
  | Plan.Project (exprs, src) ->
      let input = eval t cache src in
      let arity = Array.length exprs in
      let n = Relation.nrows input in
      chunked_output t ~arity ~n (fun frag lo hi ->
          for row = lo to hi - 1 do
            let get c = Relation.get input ~row ~col:c in
            Array.iteri (fun i e -> Int_vec.push (Relation.col frag i) (Expr.eval get e)) exprs
          done)
  | Plan.Join j -> eval_join t cache j
  | Plan.AntiJoin a -> eval_anti t cache a
  | Plan.UnionAll ps ->
      let arity = arity_of t plan in
      (* Subplans of one query run back to back; with [share_builds] they
         reuse each other's hash tables via [cache]. The final merge is a
         parallel block copy. *)
      let parts = List.map (fun p -> eval t cache p) ps in
      Relation.concat_parallel t.pool arity parts
  | Plan.Aggregate a -> eval_agg t cache a

(* The relation an operator reads and how many of its leading rows the plan
   covers: an [Old] reads its table in place up to the Δ-suffix, anything
   else is evaluated whole. *)
and eval_rows t cache = function
  | Plan.Old { table; delta } -> (Catalog.rel t.catalog table, old_bound t ~table ~delta)
  | p ->
      let r = eval t cache p in
      (r, Relation.nrows r)

and eval_join t cache { Plan.l; r; lkeys; rkeys; extra; out } =
  (* [Old] shares its table's index with a full scan of it *)
  let scan_name = function Plan.Scan n | Plan.Old { table = n; _ } -> Some n | _ -> None in
  let lrel, lbound = eval_rows t cache l and rrel, rbound = eval_rows t cache r in
  let la = Relation.arity lrel in
  let out_arity =
    match out with Some es -> Array.length es | None -> la + Relation.arity rrel
  in
  (* Build-side choice from optimizer estimates (not true sizes): this is
     the decision OOF keeps honest by refreshing row counts. A side whose
     index persists across iterations (the manager's tables) trumps the
     estimates — its build cost amortizes to ~zero over the fixpoint, so the
     join degenerates to |probe side| hash probes. *)
  let lname = scan_name l and rname = scan_name r in
  let l_managed = managed t lname <> None and r_managed = managed t rname <> None in
  let build_left =
    match (l_managed, r_managed) with
    | true, false -> true
    | false, true -> false
    | _ ->
        let est_l = estimate t l and est_r = estimate t r in
        est_l <= est_r
  in
  let brel, bkeys, bname, bbound, prel, pkeys, n =
    if build_left then (lrel, lkeys, lname, lbound, rrel, rkeys, rbound)
    else (rrel, rkeys, rname, rbound, lrel, lkeys, lbound)
  in
  (* The index covers the whole build table; an [Old] build side skips the
     matches in its Δ-suffix (they lead each newest-first chain). *)
  let idx, own_index = build_index t ?cache ?scan_name:bname brel bkeys in
  let key = Array.make (Array.length pkeys) 0 in
  let result =
    chunked_output t ~arity:out_arity ~n (fun frag lo hi ->
        for prow = lo to hi - 1 do
          Array.iteri (fun i c -> key.(i) <- Relation.get prel ~row:prow ~col:c) pkeys;
          Hash_index.iter_matches idx key (fun brow ->
              let lrow, rrow = if build_left then (brow, prow) else (prow, brow) in
              let get c =
                if c < la then Relation.get lrel ~row:lrow ~col:c
                else Relation.get rrel ~row:rrow ~col:(c - la)
              in
              if brow < bbound && List.for_all (Expr.test get) extra then
                match out with
                | Some exprs ->
                    Array.iteri
                      (fun i e -> Int_vec.push (Relation.col frag i) (Expr.eval get e))
                      exprs
                | None ->
                    for c = 0 to out_arity - 1 do
                      Int_vec.push (Relation.col frag c) (get c)
                    done)
        done)
  in
  if own_index then Hash_index.release idx;
  result

and eval_anti t cache { Plan.al; ar; alkeys; arkeys } =
  let scan_name = function Plan.Scan n -> Some n | _ -> None in
  let lrel = eval t cache al and rrel = eval t cache ar in
  let arity = Relation.arity lrel in
  let n = Relation.nrows lrel in
  let copy_if keep =
    chunked_output t ~arity ~n (fun frag lo hi ->
        for row = lo to hi - 1 do
          if keep row then
            for c = 0 to arity - 1 do
              Int_vec.push (Relation.col frag c) (Relation.get lrel ~row ~col:c)
            done
        done)
  in
  if Array.length arkeys = 0 then
    (* a negated atom that binds no variable holds for every row or none *)
    let none = Relation.nrows rrel = 0 in
    copy_if (fun _ -> none)
  else
    (* The negated side is a lower-stratum table under stratification, so
       its set persists across every iteration of this stratum's fixpoint. *)
    with_owned (build_member_set t ?cache ?scan_name:(scan_name ar) rrel arkeys) @@ fun set ->
    let key = Array.make (Array.length alkeys) 0 in
    copy_if (fun row ->
        Array.iteri (fun i c -> key.(i) <- Relation.get lrel ~row ~col:c) alkeys;
        not (Dedup.mem_row set key))

and eval_agg t cache { Plan.group; aggs; src } =
  let input = eval t cache src in
  let n = Relation.nrows input in
  let ngroup = Array.length group and naggs = Array.length aggs in
  (* Chunked partial aggregation, then a serial merge of the partials —
     QuickStep's two-phase parallel aggregation. Accumulators per agg:
     value plus a count (for AVG). *)
  let partials = ref [] in
  Pool.parallel_for t.pool 0 n (fun lo hi ->
      let table : (int list, int array * int array) Hashtbl.t = Hashtbl.create 256 in
      for row = lo to hi - 1 do
        let get c = Relation.get input ~row ~col:c in
        let k = Array.to_list (Array.map (Expr.eval get) group) in
        let vals, counts =
          match Hashtbl.find_opt table k with
          | Some acc -> acc
          | None ->
              let init =
                Array.map
                  (fun (op, _) ->
                    match op with
                    | Plan.Min -> max_int
                    | Plan.Max -> min_int
                    | Plan.Sum | Plan.Count | Plan.Avg -> 0)
                  aggs
              in
              let acc = (init, Array.make naggs 0) in
              Hashtbl.add table k acc;
              acc
        in
        Array.iteri
          (fun i (op, e) ->
            let v = Expr.eval get e in
            counts.(i) <- counts.(i) + 1;
            match op with
            | Plan.Min -> if v < vals.(i) then vals.(i) <- v
            | Plan.Max -> if v > vals.(i) then vals.(i) <- v
            | Plan.Sum | Plan.Avg -> vals.(i) <- vals.(i) + v
            | Plan.Count -> vals.(i) <- vals.(i) + 1)
          aggs
      done;
      partials := table :: !partials);
  let merged : (int list, int array * int array) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun table ->
      Hashtbl.iter
        (fun k (vals, counts) ->
          match Hashtbl.find_opt merged k with
          | None -> Hashtbl.add merged k (Array.copy vals, Array.copy counts)
          | Some (mv, mc) ->
              Array.iteri
                (fun i (op, _) ->
                  mc.(i) <- mc.(i) + counts.(i);
                  match op with
                  | Plan.Min -> if vals.(i) < mv.(i) then mv.(i) <- vals.(i)
                  | Plan.Max -> if vals.(i) > mv.(i) then mv.(i) <- vals.(i)
                  | Plan.Sum | Plan.Count | Plan.Avg -> mv.(i) <- mv.(i) + vals.(i))
                aggs)
        table)
    (List.rev !partials);
  let out = Relation.create (ngroup + naggs) in
  Hashtbl.iter
    (fun k (vals, counts) ->
      List.iteri (fun i v -> Int_vec.push (Relation.col out i) v) k;
      Array.iteri
        (fun i (op, _) ->
          let v =
            match op with
            | Plan.Avg -> if counts.(i) = 0 then 0 else vals.(i) / counts.(i)
            | _ -> vals.(i)
          in
          Int_vec.push (Relation.col out (ngroup + i)) v)
        aggs)
    merged;
  Relation.account out;
  out

let run_query t plan =
  Pool.add_serial t.pool t.query_overhead_s;
  let go () =
    let cache =
      if t.share_builds then Some { indexes = Hashtbl.create 8; sets = Hashtbl.create 8 }
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

(* The rows of [src] whose tuple is not in [set], chunk-parallel. *)
let anti_probe t src set =
  let arity = Relation.arity src in
  let key = Array.make arity 0 in
  chunked_output t ~arity ~n:(Relation.nrows src) (fun frag lo hi ->
      for row = lo to hi - 1 do
        for c = 0 to arity - 1 do
          key.(c) <- Relation.get src ~row ~col:c
        done;
        if not (Dedup.mem_row set key) then
          for c = 0 to arity - 1 do
            Int_vec.push (Relation.col frag c) key.(c)
          done
      done)

let opsd_impl t ?name ~rdelta ~r () = with_owned (full_table_set t ?name r) (anti_probe t rdelta)

let tpsd_impl t ?name ~rdelta ~r () =
  let arity = Relation.arity rdelta in
  let key = Array.make arity 0 in
  (* Phase 1: intersection, building on the smaller input — unless [r]'s
     persistent set already exists, which makes the build side free. *)
  let r_side = Relation.nrows r <= Relation.nrows rdelta || managed t name <> None in
  let build, probe =
    if r_side then (full_table_set t ?name r, rdelta)
    else ((build_transient_set t rdelta (all_cols rdelta), true), r)
  in
  let inter = Relation.create arity in
  Fun.protect ~finally:(fun () -> Relation.release inter) @@ fun () ->
  with_owned build (fun set ->
      Pool.parallel_for t.pool 0 (Relation.nrows probe) (fun lo hi ->
          for row = lo to hi - 1 do
            for c = 0 to arity - 1 do
              key.(c) <- Relation.get probe ~row ~col:c
            done;
            if Dedup.mem_row set key then
              for c = 0 to arity - 1 do
                Int_vec.push (Relation.col inter c) key.(c)
              done
          done));
  Relation.account inter;
  (* The probe side may contain tuples of [r] several times only if [r] had
     duplicates; IDB tables are deduplicated, so [inter] is a set. *)
  (* Phase 2: Rδ − r. *)
  with_owned (build_transient_set t inter (all_cols inter), true) (anti_probe t rdelta)

let with_span t name f =
  match t.trace with Some tr -> Rs_obs.Trace.span tr ~kind:"executor" name f | None -> f ()

let opsd t ?name ~rdelta ~r () = with_span t "opsd" (opsd_impl t ?name ~rdelta ~r)
let tpsd t ?name ~rdelta ~r () = with_span t "tpsd" (tpsd_impl t ?name ~rdelta ~r)
