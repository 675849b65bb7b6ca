module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Hash_index = Rs_relation.Hash_index
module Pool = Rs_parallel.Pool
module Expr = Rs_exec.Expr
module Kernel = Rs_exec.Kernel
module An = Recstep.Analyzer
module Ast = Recstep.Ast
module Planner = Recstep.Planner

let name = "Souffle-like"

let capabilities =
  {
    Engine_intf.scale_up = true;
    scale_out = false;
    memory_consumption = "medium";
    cpu_utilization = "medium";
    cpu_efficiency = "high";
    tuning_required = "no";
    mutual_recursion = true;
    nonrecursive_aggregation = true;
    recursive_aggregation = false;
    incremental = false;
  }

(* --- storage: one store per predicate, its indexes kept current --- *)

type pred_store = {
  arity : int;
  store : Relation.t;
  dedup : Dedup.t;
  mutable indexes : (int list * Hash_index.t) list;
  mutable delta_lo : int;
  mutable delta_hi : int;
      (* rows [delta_lo, delta_hi) are the current Δ; both stay 0 until the
         predicate's own stratum runs *)
}

let make_store name arity =
  {
    arity;
    store = Relation.create ~name arity;
    dedup = Dedup.create Dedup.Fast arity;
    indexes = [];
    delta_lo = 0;
    delta_hi = 0;
  }

let insert ps row = if Dedup.add_row ps.dedup row then Relation.push_row ps.store row

(* Extend every index of [ps] over the rows inserted since: eager index
   maintenance, charged serially after each insert batch and before the
   next variant takes a view. *)
let extend_indexes ps = List.iter (fun (_, idx) -> ignore (Hash_index.append idx)) ps.indexes

let insert_all ps rel =
  let tuple = Array.make ps.arity 0 in
  for row = 0 to Relation.nrows rel - 1 do
    for c = 0 to ps.arity - 1 do
      tuple.(c) <- Relation.get rel ~row ~col:c
    done;
    insert ps tuple
  done;
  extend_indexes ps

(* The index on sorted key positions [key], built on first use. *)
let ensure_index ps key =
  match List.assoc_opt key ps.indexes with
  | Some idx -> idx
  | None ->
      let idx = Hash_index.build ps.store (Array.of_list key) in
      ps.indexes <- (key, idx) :: ps.indexes;
      idx

let account ps =
  Relation.account ps.store;
  Dedup.account ps.dedup;
  List.iter (fun (_, idx) -> Hash_index.account idx) ps.indexes

(* --- rule compilation: chain steps over one frame --- *)

(* One positive atom as a variant reads it: its store and its slice of the
   frame, the index it probes ([None]: a scan) with the frame columns of
   the key, its tests, and the frame columns it binds. *)
type access = {
  a_store : pred_store;
  a_off : int;
  a_index : Hash_index.t option;
  a_probe : int array;
  a_preds : Expr.pred list;
  a_bind : int array;
}

(* One semi-naive variant of a rule: the driver is iterated wholesale (over
   its Δ rows when [v_delta]), the other atoms are probed or scanned in
   [v_steps] order. Constants that key a probe or a negation sit in frame
   slots [v_consts] past the atoms' columns, set once per run. *)
type variant = {
  v_driver : access;
  v_delta : bool;
  v_steps : access array;
  v_antis : Kernel.anti array;
  v_consts : (int * int) list;
  v_width : int;
  v_head : Expr.t array;
}

(* The variant of [rule] driven by its [driver]-th positive atom. The frame
   holds the atoms' columns side by side in binding order; a variable lives
   at its first binding column. The other atoms join greedily, most bound
   arguments first, each keyed on its constants and already-bound
   variables (a repeated variable is tested); a comparison joins the
   preds of the atom that binds its last variable, and one bound before
   any step tests the driver. Negations become anti-checks against the
   negated predicate's store. *)
let chain_variant stores rule ~driver ~delta =
  let positives = List.filter_map (function Ast.L_pos a -> Some a | _ -> None) rule.Ast.body in
  let negs = List.filter_map (function Ast.L_neg a -> Some a | _ -> None) rule.Ast.body in
  let pending =
    ref (List.filter_map (function Ast.L_cmp (o, a, b) -> Some (o, a, b) | _ -> None) rule.Ast.body)
  in
  let atoms_width = List.fold_left (fun w a -> w + List.length a.Ast.args) 0 positives in
  let binds = ref [] and width = ref 0 and consts = ref [] in
  let is_bound v = List.mem_assoc v !binds in
  let const_slot c =
    let slot = atoms_width + List.length !consts in
    consts := (slot, c) :: !consts;
    slot
  in
  let flush_cmps () =
    let ready, waiting =
      List.partition
        (fun (_, a, b) -> List.for_all is_bound (Ast.expr_vars a @ Ast.expr_vars b))
        !pending
    in
    pending := waiting;
    List.map (Planner.cmp_to_exec !binds) ready
  in
  (* Place [a] in the frame; its (position, bound value) pairs key a probe,
     or are tests of the driver. *)
  let place a ~as_driver =
    let ps = Hashtbl.find stores a.Ast.pred in
    let off = !width in
    width := off + ps.arity;
    let keys = ref [] and tests = ref [] and here = ref [] in
    List.iteri
      (fun pos t ->
        let col = off + pos in
        match t with
        | Ast.Const c -> keys := (pos, Expr.Const c) :: !keys
        | Ast.Var v -> (
            match List.assoc_opt v !here with
            | Some first -> tests := Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Col first) :: !tests
            | None -> (
                match List.assoc_opt v !binds with
                | Some b ->
                    here := (v, b) :: !here;
                    keys := (pos, Expr.Col b) :: !keys
                | None ->
                    here := (v, col) :: !here;
                    binds := (v, col) :: !binds))
        | Ast.Wildcard -> assert false)
      a.Ast.args;
    let keys = List.sort compare !keys in
    let tests = List.rev !tests in
    let a =
      { a_store = ps; a_off = off; a_index = None; a_probe = [||]; a_preds = []; a_bind = [||] }
    in
    if as_driver then
      let eqs = List.map (fun (pos, e) -> Expr.Cmp (Expr.Eq, Expr.Col (off + pos), e)) keys in
      { a with a_preds = eqs @ tests @ flush_cmps () }
    else
      let slot = function Expr.Const c -> const_slot c | Expr.Col b -> b | _ -> assert false in
      {
        a with
        a_index = (if keys = [] then None else Some (ensure_index ps (List.map fst keys)));
        a_probe = Array.of_list (List.map (fun (_, e) -> slot e) keys);
        a_preds = tests @ flush_cmps ();
      }
  in
  let driver_atom = List.nth positives driver in
  let d = place driver_atom ~as_driver:true in
  let score a =
    List.fold_left
      (fun acc t ->
        match t with
        | Ast.Const _ -> acc + 1
        | Ast.Var v -> if is_bound v then acc + 1 else acc
        | Ast.Wildcard -> acc)
      0 a.Ast.args
  in
  let rec order remaining acc =
    match remaining with
    | [] -> List.rev acc
    | first :: _ ->
        let a = List.fold_left (fun b a -> if score a > score b then a else b) first remaining in
        let placed = place a ~as_driver:false in
        order (List.filter (fun x -> x != a) remaining) (placed :: acc)
  in
  let steps = order (List.filteri (fun i _ -> i <> driver) positives) [] in
  let anti_cols =
    let col = function
      | Ast.Const c -> const_slot c
      | Ast.Var v -> List.assoc v !binds
      | Ast.Wildcard -> assert false
    in
    List.map (fun a -> (a, Array.of_list (List.map col a.Ast.args))) negs
  in
  let head = Planner.head_exprs !binds rule.Ast.head_args in
  (* An atom copies into the frame only the columns something reads. *)
  let used = Array.make (atoms_width + List.length !consts) false in
  let mark c = used.(c) <- true in
  let mark_preds = List.iter (fun p -> List.iter mark (Expr.pred_cols p)) in
  List.iter
    (fun a ->
      Array.iter mark a.a_probe;
      mark_preds a.a_preds)
    (d :: steps);
  List.iter (fun (_, cols) -> Array.iter mark cols) anti_cols;
  Array.iter (fun e -> List.iter mark (Expr.cols e)) head;
  let with_bind a =
    let cols = List.init a.a_store.arity (( + ) a.a_off) in
    { a with a_bind = Array.of_list (List.filter (fun c -> used.(c)) cols) }
  in
  {
    v_driver = with_bind d;
    v_delta = delta;
    v_steps = Array.of_list (List.map with_bind steps);
    v_antis =
      Array.of_list
        (List.map (fun (a, cols) -> Kernel.anti (Hashtbl.find stores a.Ast.pred).dedup cols) anti_cols);
    v_consts = !consts;
    v_width = Array.length used;
    v_head = head;
  }

let compile_rule stores stratum rule =
  let positives = List.filter_map (function Ast.L_pos a -> Some a | _ -> None) rule.Ast.body in
  let recursive_positions =
    List.concat
      (List.mapi (fun i a -> if List.mem a.Ast.pred stratum.An.preds then [ i ] else []) positives)
  in
  let base = chain_variant stores rule ~driver:0 ~delta:false in
  (base, List.map (fun i -> chain_variant stores rule ~driver:i ~delta:true) recursive_positions)

(* --- execution --- *)

(* Resolve [v] against the stores as they stand and run it through the
   shared chain loop, the driver's rows chunked over the pool. Every match
   is appended to [out]; nothing the loop reads grows meanwhile. *)
let run_chain pool v ~out =
  let d = v.v_driver.a_store in
  let lo, hi = if v.v_delta then (d.delta_lo, d.delta_hi) else (0, Relation.nrows d.store) in
  if hi > lo then begin
    let frame = Array.make v.v_width 0 in
    List.iter (fun (slot, c) -> frame.(slot) <- c) v.v_consts;
    let step a =
      let view =
        match a.a_index with Some idx -> Hash_index.view idx | None -> Hash_index.empty_view
      in
      Kernel.step a.a_store.store ~off:a.a_off ~at:a.a_bind ~preds:a.a_preds
        ~bound:(Relation.nrows a.a_store.store) ~probe:a.a_probe view
    in
    let tuple = Array.make (Array.length v.v_head) 0 in
    let emit () =
      for i = 0 to Array.length tuple - 1 do
        tuple.(i) <- Expr.eval_frame frame v.v_head.(i)
      done;
      Relation.push_row out tuple
    in
    let chain =
      {
        Kernel.frame;
        driver = step v.v_driver;
        steps = Array.map step v.v_steps;
        antis = v.v_antis;
        residual = [];
        emit;
      }
    in
    Pool.parallel_for pool lo hi (Kernel.drive chain)
  end

(* --- aggregation (non-recursive strata only) --- *)

let fold_aggregate an pred candidates =
  let sig_ = Option.get (An.agg_sig an pred) in
  let arity = An.arity an pred in
  let ops = Array.of_list sig_.An.agg_positions in
  let init = function
    | Ast.Min -> max_int
    | Ast.Max -> min_int
    | Ast.Sum | Ast.Count | Ast.Avg -> 0
  in
  let table : (int list, int array * int array) Hashtbl.t = Hashtbl.create 256 in
  let seen = Dedup.create Dedup.Fast arity in
  let tuple = Array.make arity 0 in
  for row = 0 to Relation.nrows candidates - 1 do
    for c = 0 to arity - 1 do
      tuple.(c) <- Relation.get candidates ~row ~col:c
    done;
    if Dedup.add_row seen tuple then begin
      let key = List.map (fun p -> tuple.(p)) sig_.An.group_positions in
      let vals, counts =
        match Hashtbl.find_opt table key with
        | Some acc -> acc
        | None ->
            let acc = (Array.map (fun (_, op) -> init op) ops, Array.make (Array.length ops) 0) in
            Hashtbl.add table key acc;
            acc
      in
      Array.iteri
        (fun i (pos, op) ->
          let v = tuple.(pos) in
          counts.(i) <- counts.(i) + 1;
          match op with
          | Ast.Min -> if v < vals.(i) then vals.(i) <- v
          | Ast.Max -> if v > vals.(i) then vals.(i) <- v
          | Ast.Sum | Ast.Avg -> vals.(i) <- vals.(i) + v
          | Ast.Count -> vals.(i) <- vals.(i) + 1)
        ops
    end
  done;
  let out = Relation.create ~name:pred arity in
  Hashtbl.iter
    (fun key (vals, counts) ->
      let t = Array.make arity 0 in
      List.iteri (fun i p -> t.(p) <- List.nth key i) sig_.An.group_positions;
      Array.iteri
        (fun i (p, op) ->
          t.(p) <- (if op = Ast.Avg && counts.(i) > 0 then vals.(i) / counts.(i) else vals.(i)))
        ops;
      Relation.push_row out t)
    table;
  out

let run ~pool ?deadline_vs ?trace ~edb program =
  let an = An.analyze program in
  let iterations = ref 0 in
  let rule_evals = ref 0 in
  let with_span sname f =
    match trace with Some tr -> Rs_obs.Trace.span tr ~kind:"engine" sname f | None -> f ()
  in
  let note_iteration ~stratum ~iteration ~idb ~delta_rows =
    match trace with
    | Some tr ->
        Rs_obs.Trace.iteration tr
          {
            Rs_obs.Trace.it_stratum = stratum;
            it_iteration = iteration;
            it_idb = idb;
            it_delta_rows = delta_rows;
            it_vtime = Pool.vtime_now pool;
          }
    | None -> ()
  in
  let check_deadline () =
    match deadline_vs with
    | Some budget ->
        let v = Pool.vtime_now pool in
        if v > budget then raise (Recstep.Interpreter.Timeout_simulated v)
    | None -> ()
  in
  (* Souffle has no recursive aggregation. *)
  List.iter
    (fun s ->
      if s.An.recursive then
        List.iter
          (fun p ->
            if An.agg_sig an p <> None then
              Engine_intf.unsupported "%s: recursive aggregation (%s)" name p)
          s.An.preds)
    an.An.strata;
  let stores : (string, pred_store) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (p, arity) -> Hashtbl.replace stores p (make_store p arity))
    an.An.arities;
  (* load EDBs (deduplicated, as souffle does on input) *)
  List.iter
    (fun p ->
      match List.assoc_opt p edb with
      | Some r ->
          let ps = Hashtbl.find stores p in
          let arity = Relation.arity r in
          if arity <> ps.arity then Engine_intf.unsupported "%s: arity mismatch on %s" name p;
          insert_all ps r;
          account ps
      | None -> Engine_intf.unsupported "%s: missing input %s" name p)
    an.An.edbs;
  (* stratum loop *)
  List.iter
    (fun stratum ->
      check_deadline ();
      with_span (Printf.sprintf "stratum-%d" stratum.An.index) @@ fun () ->
      let agg_preds = List.filter (fun p -> An.agg_sig an p <> None) stratum.An.preds in
      let candidates : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun p -> Hashtbl.replace candidates p (Relation.create ~name:(p ^ "@cand") (An.arity an p)))
        agg_preds;
      let compiled =
        List.filter_map
          (fun r -> if r.Ast.body = [] then None else Some (r, compile_rule stores stratum r))
          stratum.An.rules
      in
      let sink head out_rel =
        (* route derived tuples: aggregate heads collect candidates,
           plain heads insert (dedup + index maintenance) *)
        match Hashtbl.find_opt candidates head with
        | Some cand -> Relation.append_all cand out_rel
        | None -> insert_all (Hashtbl.find stores head) out_rel
      in
      (* facts *)
      List.iter
        (fun r ->
          if r.Ast.body = [] then
            let tuple =
              List.map
                (function
                  | Ast.H_term (Ast.Const c) -> c
                  | _ -> Engine_intf.unsupported "%s: non-ground fact" name)
                r.Ast.head_args
            in
            sink r.Ast.head_pred (Relation.of_rows (List.length tuple) [ Array.of_list tuple ]))
        stratum.An.rules;
      (* One round: every compiled variant [pick] selects, each sunk before
         the next resolves its steps. *)
      let round pick =
        incr iterations;
        List.iter
          (fun (r, variants) ->
            List.iter
              (fun v ->
                let out = Relation.create (List.length r.Ast.head_args) in
                incr rule_evals;
                run_chain pool v ~out;
                sink r.Ast.head_pred out)
              (pick variants))
          compiled
      in
      (* The rows a round added become each predicate's Δ; whether any did. *)
      let advance iteration =
        List.fold_left
          (fun any p ->
            let ps = Hashtbl.find stores p in
            ps.delta_lo <- ps.delta_hi;
            ps.delta_hi <- Relation.nrows ps.store;
            note_iteration ~stratum:stratum.An.index ~iteration ~idb:p
              ~delta_rows:(ps.delta_hi - ps.delta_lo);
            account ps;
            any || ps.delta_hi > ps.delta_lo)
          false stratum.An.preds
      in
      (* iteration 0: base variants of every rule; everything so far is Δ0 *)
      round (fun (base, _) -> [ base ]);
      ignore (advance 0);
      if stratum.An.recursive then begin
        let iteration = ref 0 and continue_ = ref true in
        while !continue_ do
          check_deadline ();
          incr iteration;
          round snd;
          continue_ := advance !iteration
        done
      end;
      (* fold aggregates of this stratum *)
      List.iter
        (fun p ->
          let cand = Hashtbl.find candidates p in
          let folded = fold_aggregate an p cand in
          Relation.release cand;
          let ps = Hashtbl.find stores p in
          insert_all ps folded;
          account ps)
        agg_preds)
    an.An.strata;
  let relation_of pred =
    match Hashtbl.find_opt stores pred with
    | Some ps -> ps.store
    | None -> invalid_arg (Printf.sprintf "%s: unknown relation %s" name pred)
  in
  Engine_intf.mk_result ~pool ?trace ~iterations:!iterations ~queries:!rule_evals relation_of

let maintain ~pool ?trace ~edb program =
  Engine_intf.maintain_by_recompute run ~pool ?trace ~edb program
