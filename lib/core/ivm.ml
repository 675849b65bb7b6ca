(* Incremental view maintenance: counting for non-recursive strata, DRed
   (delete-rederive) for recursive ones. See ivm.mli for the mode-selection
   argument; the shared machinery below mirrors the naive oracle's
   evaluator, extended with a per-literal state selector so the delta-rule
   expansion can read "new" relations to the left of the delta position and
   "old" relations to the right. *)

module Delta = Rs_relation.Delta
module Relation = Rs_relation.Relation

module Rows = Set.Make (struct
  type t = int list

  let compare = compare
end)

exception Unsupported of string

exception Count_underflow of { pred : string; row : int list; count : int }

type stats = {
  applies : int;
  count_updates : int;
  dred_deleted : int;
  dred_rederived : int;
  emitted_inserts : int;
  emitted_retracts : int;
  seeded_strata : int;
}

type mstats = {
  mutable m_applies : int;
  mutable m_count_updates : int;
  mutable m_dred_deleted : int;
  mutable m_dred_rederived : int;
  mutable m_emitted_inserts : int;
  mutable m_emitted_retracts : int;
  mutable m_seeded_strata : int;
}

type t = {
  an : Analyzer.t;
  db : (string, Rows.t) Hashtbl.t;  (* current materialized sets, all preds *)
  counts : (string, (int list, int) Hashtbl.t) Hashtbl.t;
      (* derivation counts, non-recursive IDB preds only *)
  ms : mstats;
  prov : Provenance.t option;
      (* why-provenance tags for the maintained IDB rows; reconciled against
         the net change of every apply so the view stays explainable across
         EDB deltas *)
}

let rel db pred = match Hashtbl.find_opt db pred with Some s -> s | None -> Rows.empty

let set db pred v = Hashtbl.replace db pred v

(* --- the evaluator (naive.ml's machinery + indexed literals) ------------ *)

type env = (string * int) list

let rec eval_expr (env : env) = function
  | Ast.T (Ast.Const c) -> c
  | Ast.T (Ast.Var v) -> (
      match List.assoc_opt v env with
      | Some c -> c
      | None -> invalid_arg ("ivm: unbound variable " ^ v))
  | Ast.T Ast.Wildcard -> invalid_arg "ivm: wildcard in expression"
  | Ast.Add (a, b) -> eval_expr env a + eval_expr env b
  | Ast.Sub (a, b) -> eval_expr env a - eval_expr env b
  | Ast.Mul (a, b) -> eval_expr env a * eval_expr env b

let cmp_holds op a b =
  match op with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b

let match_args env args row =
  let rec go env args row =
    match (args, row) with
    | [], [] -> Some env
    | a :: args', v :: row' -> (
        match a with
        | Ast.Const c -> if c = v then go env args' row' else None
        | Ast.Wildcard -> go env args' row'
        | Ast.Var x -> (
            match List.assoc_opt x env with
            | Some c -> if c = v then go env args' row' else None
            | None -> go ((x, v) :: env) args' row'))
    | _ -> None
  in
  go env args row

let ground_args env args =
  List.map
    (function
      | Ast.Const c -> c
      | Ast.Var x -> (
          match List.assoc_opt x env with
          | Some c -> c
          | None -> invalid_arg ("ivm: unsafe negation on " ^ x))
      | Ast.Wildcard -> invalid_arg "ivm: wildcard under negation")
    args

let head_row env head_args =
  List.map
    (function
      | Ast.H_term (Ast.Const c) -> c
      | Ast.H_term (Ast.Var x) -> (
          match List.assoc_opt x env with
          | Some c -> c
          | None -> invalid_arg ("ivm: unsafe head variable " ^ x))
      | Ast.H_term Ast.Wildcard -> invalid_arg "ivm: wildcard in head"
      | Ast.H_agg _ -> raise (Unsupported "ivm does not maintain aggregates"))
    head_args

(* Bind the head's variables from a concrete row — the entry point of the
   DRed re-derivation check ("is this tuple still derivable?"). *)
let head_env head_args row =
  let rec go env hs vs =
    match (hs, vs) with
    | [], [] -> Some env
    | Ast.H_term (Ast.Const c) :: hs', v :: vs' -> if c = v then go env hs' vs' else None
    | Ast.H_term (Ast.Var x) :: hs', v :: vs' -> (
        match List.assoc_opt x env with
        | Some c -> if c = v then go env hs' vs' else None
        | None -> go ((x, v) :: env) hs' vs')
    | Ast.H_term Ast.Wildcard :: _, _ -> invalid_arg "ivm: wildcard in head"
    | Ast.H_agg _ :: _, _ -> raise (Unsupported "ivm does not maintain aggregates")
    | _ -> None
  in
  go [] head_args row

(* Body literals keep their source index so the delta-rule expansion can
   split old/new state by position, whatever order evaluation visits them. *)
type lit = { li : int; l : Ast.literal }

let indexed_body r = List.mapi (fun li l -> { li; l }) r.Ast.body

(* The leading run of already-ground argument positions. Rows.t orders
   equal-length int lists lexicographically, so all rows extending a ground
   prefix form a contiguous range of the set — scanning an atom costs
   O(log n + matches) instead of a full sweep whenever its leading columns
   are bound (the common case in delta seeding and DRed re-derivation,
   where the head row grounds the recursive literal's key). *)
let bound_prefix env args =
  let rec go acc = function
    | Ast.Const c :: tl -> go (c :: acc) tl
    | Ast.Var x :: tl -> (
        match List.assoc_opt x env with
        | Some c -> go (c :: acc) tl
        | None -> List.rev acc)
    | Ast.Wildcard :: _ | [] -> List.rev acc
  in
  go [] args

let iter_prefix set prefix f =
  match prefix with
  | [] -> Rows.iter f set
  | _ ->
      let rec has_prefix p row =
        match (p, row) with
        | [], _ -> true
        | a :: p', b :: row' -> a = b && has_prefix p' row'
        | _, [] -> false
      in
      (* [prefix] is shorter than any row, so it sorts just before the range *)
      let rec go s =
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons (row, tl) ->
            if has_prefix prefix row then begin
              f row;
              go tl
            end
      in
      go (Rows.to_seq_from prefix set)

(* Enumerate every extension of [env] satisfying [lits]; [state li pred]
   supplies the relation value seen by the literal at source index [li].
   Positive atoms first — the analyzer's safety check makes negations and
   comparisons ground once the positives are matched. *)
let eval_lits ~state lits env k =
  let pos, rest =
    List.partition (fun x -> match x.l with Ast.L_pos _ -> true | _ -> false) lits
  in
  let rec go env = function
    | [] -> k env
    | { li; l = Ast.L_pos a } :: tl ->
        iter_prefix (state li a.Ast.pred) (bound_prefix env a.Ast.args) (fun row ->
            match match_args env a.Ast.args row with
            | Some env' -> go env' tl
            | None -> ())
    | { li; l = Ast.L_neg a } :: tl ->
        if not (Rows.mem (ground_args env a.Ast.args) (state li a.Ast.pred)) then
          go env tl
    | { l = Ast.L_cmp (op, lhs, rhs); _ } :: tl ->
        if cmp_holds op (eval_expr env lhs) (eval_expr env rhs) then go env tl
  in
  go env (pos @ rest)

exception Found

let exists_lits ~state lits env =
  match eval_lits ~state lits env (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* --- per-apply bookkeeping ---------------------------------------------- *)

(* Net change of one relation within the current apply. *)
type chg = { mutable ins : Rows.t; mutable del : Rows.t }

let chg_of tbl pred =
  match Hashtbl.find_opt tbl pred with
  | Some c -> c
  | None ->
      let c = { ins = Rows.empty; del = Rows.empty } in
      Hashtbl.replace tbl pred c;
      c

(* Pre-apply snapshots, saved lazily before a relation's first mutation.
   Rows.t is persistent, so a snapshot is one pointer. *)
let save_old db old pred =
  if not (Hashtbl.mem old pred) then Hashtbl.replace old pred (rel db pred)

let old_rel db old pred =
  match Hashtbl.find_opt old pred with Some s -> s | None -> rel db pred

let counts_of t pred =
  match Hashtbl.find_opt t.counts pred with
  | Some c -> c
  | None ->
      let c = Hashtbl.create 64 in
      Hashtbl.replace t.counts pred c;
      c

(* --- counting maintenance (non-recursive strata) ------------------------ *)

(* Σ_i new(<i) ⋈ ΔLi ⋈ old(>i): each delta tuple at position i seeds the
   evaluation of the remaining literals, reading post-change state to the
   left and pre-change state to the right. Every produced head row adjusts
   its derivation count by the delta's sign (inverted through negation);
   count transitions through zero become the stratum's own net change. *)
let maintain_counting t old chgs (stratum : Analyzer.stratum) =
  let dc : (string, (int list, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
  let bump pred row s =
    let tbl =
      match Hashtbl.find_opt dc pred with
      | Some x -> x
      | None ->
          let x = Hashtbl.create 32 in
          Hashtbl.replace dc pred x;
          x
    in
    Hashtbl.replace tbl row (s + (try Hashtbl.find tbl row with Not_found -> 0))
  in
  List.iter
    (fun r ->
      let lits = indexed_body r in
      List.iter
        (fun x ->
          match x.l with
          | Ast.L_cmp _ -> ()
          | Ast.L_pos a | Ast.L_neg a -> (
              match Hashtbl.find_opt chgs a.Ast.pred with
              | None -> ()
              | Some c ->
                  let i = x.li in
                  let rest = List.filter (fun y -> y.li <> i) lits in
                  let state li p =
                    if li < i then rel t.db p else old_rel t.db old p
                  in
                  let seed sign rows =
                    Rows.iter
                      (fun row ->
                        match match_args [] a.Ast.args row with
                        | None -> ()
                        | Some env0 ->
                            eval_lits ~state rest env0 (fun env ->
                                bump r.Ast.head_pred
                                  (head_row env r.Ast.head_args)
                                  sign))
                      rows
                  in
                  let s_ins =
                    match x.l with Ast.L_neg _ -> -1 | _ -> 1
                  in
                  seed s_ins c.ins;
                  seed (-s_ins) c.del))
        lits)
    stratum.Analyzer.rules;
  Hashtbl.iter
    (fun pred tbl ->
      let ct = counts_of t pred in
      Hashtbl.iter
        (fun row d ->
          if d <> 0 then begin
            t.ms.m_count_updates <- t.ms.m_count_updates + 1;
            let c0 = try Hashtbl.find ct row with Not_found -> 0 in
            let c1 = c0 + d in
            if c1 < 0 then raise (Count_underflow { pred; row; count = c1 });
            if c1 = 0 then Hashtbl.remove ct row else Hashtbl.replace ct row c1;
            if c0 = 0 && c1 > 0 then begin
              save_old t.db old pred;
              set t.db pred (Rows.add row (rel t.db pred));
              let c = chg_of chgs pred in
              c.ins <- Rows.add row c.ins
            end
            else if c0 > 0 && c1 = 0 then begin
              save_old t.db old pred;
              set t.db pred (Rows.remove row (rel t.db pred));
              let c = chg_of chgs pred in
              c.del <- Rows.add row c.del
            end
          end)
        tbl)
    dc

(* --- semi-naive insertion propagation (shared by DRed phase C and the
   bootstrap of recursive strata) ----------------------------------------- *)

(* Drain [work]: each popped (pred, row) is joined, at every positive body
   position naming [pred], against the current database; [put] receives the
   derived head rows (it filters duplicates and feeds the queue). *)
let drain db lits_of work put =
  let state _ p = rel db p in
  while not (Queue.is_empty work) do
    let p, row = Queue.pop work in
    List.iter
      (fun (r, lits) ->
        List.iter
          (fun x ->
            match x.l with
            | Ast.L_pos a when a.Ast.pred = p -> (
                match match_args [] a.Ast.args row with
                | None -> ()
                | Some env0 ->
                    let rest = List.filter (fun y -> y.li <> x.li) lits in
                    eval_lits ~state rest env0 (fun env ->
                        put r.Ast.head_pred (head_row env r.Ast.head_args)))
            | _ -> ())
          lits)
      lits_of
  done

(* --- DRed maintenance (recursive strata) -------------------------------- *)

let maintain_dred t old chgs (stratum : Analyzer.stratum) =
  let sp = stratum.Analyzer.preds in
  let in_stratum p = List.mem p sp in
  let lits_of =
    List.map (fun r -> (r, indexed_body r)) stratum.Analyzer.rules
  in
  (* pre-stratum values of the stratum's own preds, for the final net diff *)
  let snap = List.map (fun p -> (p, rel t.db p)) sp in

  (* Phase A — overestimate deletions against the old state. Stratum preds
     are untouched so far, so their current value is their old value;
     changed externals read their pre-apply snapshot. *)
  let state_old li p = ignore li; if in_stratum p then rel t.db p else old_rel t.db old p in
  let del : (string, Rows.t ref) Hashtbl.t = Hashtbl.create 4 in
  let del_of p =
    match Hashtbl.find_opt del p with
    | Some r -> r
    | None ->
        let r = ref Rows.empty in
        Hashtbl.replace del p r;
        r
  in
  let work = Queue.create () in
  let mark p row =
    let d = del_of p in
    if Rows.mem row (rel t.db p) && not (Rows.mem row !d) then begin
      d := Rows.add row !d;
      t.ms.m_dred_deleted <- t.ms.m_dred_deleted + 1;
      Queue.add (p, row) work
    end
  in
  let seed_losses (r, lits) x (a : Ast.atom) rows =
    Rows.iter
      (fun row ->
        match match_args [] a.Ast.args row with
        | None -> ()
        | Some env0 ->
            let rest = List.filter (fun y -> y.li <> x.li) lits in
            eval_lits ~state:state_old rest env0 (fun env ->
                mark r.Ast.head_pred (head_row env r.Ast.head_args)))
      rows
  in
  List.iter
    (fun (r, lits) ->
      List.iter
        (fun x ->
          match x.l with
          | Ast.L_cmp _ -> ()
          | Ast.L_pos a when not (in_stratum a.Ast.pred) -> (
              match Hashtbl.find_opt chgs a.Ast.pred with
              | Some c when not (Rows.is_empty c.del) -> seed_losses (r, lits) x a c.del
              | _ -> ())
          | Ast.L_neg a -> (
              (* a tuple entering a negated (lower-stratum) relation removes
                 derivations *)
              match Hashtbl.find_opt chgs a.Ast.pred with
              | Some c when not (Rows.is_empty c.ins) -> seed_losses (r, lits) x a c.ins
              | _ -> ())
          | Ast.L_pos _ -> ())
        lits)
    lits_of;
  (* internal propagation of the overestimate, still over old state *)
  while not (Queue.is_empty work) do
    let p, row = Queue.pop work in
    List.iter
      (fun (r, lits) ->
        List.iter
          (fun x ->
            match x.l with
            | Ast.L_pos a when a.Ast.pred = p -> (
                match match_args [] a.Ast.args row with
                | None -> ()
                | Some env0 ->
                    let rest = List.filter (fun y -> y.li <> x.li) lits in
                    eval_lits ~state:state_old rest env0 (fun env ->
                        mark r.Ast.head_pred (head_row env r.Ast.head_args)))
            | _ -> ())
          lits)
      lits_of
  done;

  (* Phase B — physically remove the overestimate, then give back every
     tuple still derivable from what remains. One derivability check per
     deleted tuple; a restored tuple may in turn support other deleted
     tuples, so restorations propagate through the deleted set on a
     worklist (a global re-scan fixpoint would recheck the whole
     overestimate once per restoration wave). *)
  Hashtbl.iter
    (fun p d ->
      if not (Rows.is_empty !d) then begin
        save_old t.db old p;
        set t.db p (Rows.diff (rel t.db p) !d)
      end)
    del;
  let state_new li p = ignore li; rel t.db p in
  let derivable p row =
    List.exists
      (fun ((r : Ast.rule), lits) ->
        r.Ast.head_pred = p
        &&
        match head_env r.Ast.head_args row with
        | None -> false
        | Some env0 -> exists_lits ~state:state_new lits env0)
      lits_of
  in
  let rework = Queue.create () in
  let restore p row =
    let d = del_of p in
    if Rows.mem row !d then begin
      d := Rows.remove row !d;
      set t.db p (Rows.add row (rel t.db p));
      t.ms.m_dred_rederived <- t.ms.m_dred_rederived + 1;
      Queue.add (p, row) rework
    end
  in
  Hashtbl.iter
    (fun p d -> Rows.iter (fun row -> if derivable p row then restore p row) !d)
    del;
  while not (Queue.is_empty rework) do
    let p, row = Queue.pop rework in
    List.iter
      (fun ((r : Ast.rule), lits) ->
        List.iter
          (fun x ->
            match x.l with
            | Ast.L_pos a when a.Ast.pred = p -> (
                match match_args [] a.Ast.args row with
                | None -> ()
                | Some env0 ->
                    let rest = List.filter (fun y -> y.li <> x.li) lits in
                    eval_lits ~state:state_new rest env0 (fun env ->
                        restore r.Ast.head_pred (head_row env r.Ast.head_args)))
            | _ -> ())
          lits)
      lits_of
  done;

  (* Phase C — semi-naive insertion propagation over new state. Seeds:
     external gains (inserted rows under positive literals, retracted rows
     under negated ones); internal derivations ride the worklist. *)
  let iwork = Queue.create () in
  let put p row =
    if not (Rows.mem row (rel t.db p)) then begin
      save_old t.db old p;
      set t.db p (Rows.add row (rel t.db p));
      Queue.add (p, row) iwork
    end
  in
  List.iter
    (fun ((r : Ast.rule), lits) ->
      List.iter
        (fun x ->
          match x.l with
          | Ast.L_cmp _ -> ()
          | Ast.L_pos a when not (in_stratum a.Ast.pred) -> (
              match Hashtbl.find_opt chgs a.Ast.pred with
              | Some c when not (Rows.is_empty c.ins) ->
                  (* seed by direct evaluation so the delta tuple needs no
                     membership in any stratum set *)
                  Rows.iter
                    (fun row ->
                      match match_args [] a.Ast.args row with
                      | None -> ()
                      | Some env0 ->
                          let rest = List.filter (fun y -> y.li <> x.li) lits in
                          eval_lits ~state:state_new rest env0 (fun env ->
                              put r.Ast.head_pred (head_row env r.Ast.head_args)))
                    c.ins
              | _ -> ())
          | Ast.L_neg a -> (
              match Hashtbl.find_opt chgs a.Ast.pred with
              | Some c when not (Rows.is_empty c.del) ->
                  Rows.iter
                    (fun row ->
                      match match_args [] a.Ast.args row with
                      | None -> ()
                      | Some env0 ->
                          let rest = List.filter (fun y -> y.li <> x.li) lits in
                          eval_lits ~state:state_new rest env0 (fun env ->
                              put r.Ast.head_pred (head_row env r.Ast.head_args)))
                    c.del
              | _ -> ())
          | Ast.L_pos _ -> ())
        lits)
    lits_of;
  drain t.db lits_of iwork put;

  (* net stratum change = diff against the pre-stratum snapshot *)
  List.iter
    (fun (p, before) ->
      let after = rel t.db p in
      let ins = Rows.diff after before and dl = Rows.diff before after in
      if not (Rows.is_empty ins && Rows.is_empty dl) then begin
        let c = chg_of chgs p in
        c.ins <- Rows.union c.ins ins;
        c.del <- Rows.union c.del dl
      end)
    snap

(* --- construction -------------------------------------------------------- *)

let supported (p : Ast.program) = not (List.exists Ast.is_aggregate_rule p.Ast.rules)

let zero_stats () =
  {
    m_applies = 0;
    m_count_updates = 0;
    m_dred_deleted = 0;
    m_dred_rederived = 0;
    m_emitted_inserts = 0;
    m_emitted_retracts = 0;
    m_seeded_strata = 0;
  }

(* A recursive stratum's sets read from a completed engine run, or [None]
   when any of its predicates cannot be read (the engine does not expose
   it, or reading it fails) or comes back at the wrong arity. *)
let adopt an fixpoint (s : Analyzer.stratum) =
  match
    List.map
      (fun p ->
        let r = fixpoint p in
        if Relation.arity r <> Analyzer.arity an p then invalid_arg "ivm: fixpoint arity";
        (p, Rows.of_list (List.map Array.to_list (Relation.to_rows r))))
      s.Analyzer.preds
  with
  | sets -> Some sets
  | exception _ -> None

let create ?prov ?fixpoint ~edb (program : Ast.program) =
  let an = Analyzer.analyze program in
  (match an.Analyzer.agg_sigs with
  | (p, _) :: _ ->
      raise (Unsupported (Printf.sprintf "ivm does not maintain aggregates (%s)" p))
  | [] -> ());
  let db : (string, Rows.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      match List.assoc_opt name edb with
      | Some rows ->
          List.iter
            (fun row ->
              if List.length row <> arity then
                invalid_arg (Printf.sprintf "ivm: %s expects arity %d" name arity))
            rows;
          Hashtbl.replace db name (Rows.of_list rows)
      | None ->
          if List.mem name an.Analyzer.edbs then
            invalid_arg (Printf.sprintf "ivm: no EDB named %s was supplied" name))
    (List.filter (fun (n, _) -> List.mem n an.Analyzer.edbs) an.Analyzer.arities);
  let t = { an; db; counts = Hashtbl.create 8; ms = zero_stats (); prov } in
  t.ms.m_applies <- 1;
  (* Initial evaluation — NOT a delta apply: rules satisfied with no
     positive support (empty bodies, negation over an empty relation) would
     never be triggered by a delta, so each stratum gets one full pass.
     Recursive strata then close semi-naively off that pass — or adopt the
     engine's fixpoint, which is the same least model, when [fixpoint]
     exposes every predicate of the stratum; counting strata seed their
     derivation counts from the full enumeration either way. *)
  let state _ p = rel db p in
  List.iter
    (fun (s : Analyzer.stratum) ->
      if s.Analyzer.recursive then begin
        match Option.bind fixpoint (fun f -> adopt an f s) with
        | Some sets ->
            List.iter (fun (p, rows) -> set db p rows) sets;
            t.ms.m_seeded_strata <- t.ms.m_seeded_strata + 1
        | None ->
            let lits_of = List.map (fun r -> (r, indexed_body r)) s.Analyzer.rules in
            let work = Queue.create () in
            let put p row =
              if not (Rows.mem row (rel db p)) then begin
                set db p (Rows.add row (rel db p));
                Queue.add (p, row) work
              end
            in
            List.iter
              (fun ((r : Ast.rule), lits) ->
                eval_lits ~state lits [] (fun env ->
                    put r.Ast.head_pred (head_row env r.Ast.head_args)))
              lits_of;
            drain db lits_of work put
      end
      else
        List.iter
          (fun (r : Ast.rule) ->
            let lits = indexed_body r in
            let pred = r.Ast.head_pred in
            let ct = counts_of t pred in
            eval_lits ~state lits [] (fun env ->
                let row = head_row env r.Ast.head_args in
                t.ms.m_count_updates <- t.ms.m_count_updates + 1;
                Hashtbl.replace ct row (1 + (try Hashtbl.find ct row with Not_found -> 0));
                set db pred (Rows.add row (rel db pred))))
          s.Analyzer.rules)
    an.Analyzer.strata;
  (* Seed the tag store from the bootstrap evaluation: every maintained IDB
     row starts explainable. *)
  (match prov with
  | None -> ()
  | Some p ->
      List.iter
        (fun (s : Analyzer.stratum) ->
          List.iter
            (fun pred ->
              let rows = rel db pred in
              Provenance.reserve p ~pred ~arity:(Analyzer.arity an pred) (Rows.cardinal rows);
              Rows.iter
                (fun row ->
                  Provenance.record p ~pred ~stratum:s.Analyzer.index ~iteration:0 row)
                rows)
            s.Analyzer.preds)
        an.Analyzer.strata);
  t

(* --- apply --------------------------------------------------------------- *)

let stratum_touched chgs (s : Analyzer.stratum) =
  List.exists
    (fun r -> List.exists (fun p -> Hashtbl.mem chgs p) (Ast.rule_body_preds r))
    s.Analyzer.rules

let apply t (d : Delta.t) =
  t.ms.m_applies <- t.ms.m_applies + 1;
  List.iter
    (fun rl ->
      if not (List.mem rl t.an.Analyzer.edbs) then
        if List.mem rl t.an.Analyzer.idbs then
          invalid_arg
            (Printf.sprintf "ivm: delta names IDB predicate %s (IDBs change only through maintenance)" rl)
        else invalid_arg (Printf.sprintf "ivm: delta names unknown relation %s" rl))
    (Delta.rels d);
  List.iter
    (fun rl ->
      let arity = Analyzer.arity t.an rl in
      List.iter
        (fun (o : Delta.op) ->
          if Array.length o.Delta.row <> arity then
            invalid_arg (Printf.sprintf "ivm: %s expects arity %d" rl arity))
        (Delta.ops d rl))
    (Delta.rels d);
  (* set-level normalization: over-retraction and re-insertion net out here,
     so the maintenance core only ever sees genuine membership changes *)
  let changes =
    Delta.normalize ~mem:(fun rl row -> Rows.mem (Array.to_list row) (rel t.db rl)) d
  in
  let old : (string, Rows.t) Hashtbl.t = Hashtbl.create 8 in
  let chgs : (string, chg) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (rl, (c : Delta.change)) ->
      let ins = Rows.of_list (List.map Array.to_list c.Delta.insert)
      and dl = Rows.of_list (List.map Array.to_list c.Delta.retract) in
      save_old t.db old rl;
      set t.db rl (Rows.diff (Rows.union (rel t.db rl) ins) dl);
      let cc = chg_of chgs rl in
      cc.ins <- ins;
      cc.del <- dl)
    changes;
  if Hashtbl.length chgs > 0 then
    List.iter
      (fun (s : Analyzer.stratum) ->
        if stratum_touched chgs s then
          if s.Analyzer.recursive then maintain_dred t old chgs s
          else maintain_counting t old chgs s)
      t.an.Analyzer.strata;
  (* Reconcile tags with the net IDB change: rows that entered a maintained
     relation are tagged at this apply's sequence point, rows that left drop
     their tag. DRed's transient delete-then-restore churn nets out in
     [chgs], so a rederived row keeps its original tag; reconciliation is
     against final membership, so tags always mirror the view exactly. *)
  (match t.prov with
  | None -> ()
  | Some p ->
      let iteration = t.ms.m_applies in
      Hashtbl.iter
        (fun pred (c : chg) ->
          if List.mem pred t.an.Analyzer.idbs then begin
            let stratum = Analyzer.stratum_of t.an pred in
            Rows.iter
              (fun row ->
                if Rows.mem row (rel t.db pred) then
                  Provenance.record p ~pred ~stratum ~iteration row)
              c.ins;
            Rows.iter
              (fun row ->
                if not (Rows.mem row (rel t.db pred)) then Provenance.retract p ~pred row)
              c.del
          end)
        chgs);
  let out =
    List.concat_map
      (fun (s : Analyzer.stratum) ->
        List.filter_map
          (fun p ->
            match Hashtbl.find_opt chgs p with
            | Some c when not (Rows.is_empty c.ins && Rows.is_empty c.del) ->
                Some
                  ( p,
                    {
                      Delta.insert = List.map Array.of_list (Rows.elements c.ins);
                      retract = List.map Array.of_list (Rows.elements c.del);
                    } )
            | _ -> None)
          s.Analyzer.preds)
      t.an.Analyzer.strata
  in
  let dlt = Delta.of_changes out in
  t.ms.m_emitted_inserts <- t.ms.m_emitted_inserts + Delta.count dlt Delta.Insert;
  t.ms.m_emitted_retracts <- t.ms.m_emitted_retracts + Delta.count dlt Delta.Retract;
  dlt

(* --- accessors ----------------------------------------------------------- *)

let rows t pred = Rows.elements (rel t.db pred)

let idbs t = t.an.Analyzer.idbs

let analyzer t = t.an

let provenance t = t.prov

let outputs t =
  List.concat_map
    (fun (s : Analyzer.stratum) -> List.map (fun p -> (p, rows t p)) s.Analyzer.preds)
    t.an.Analyzer.strata

let stats t =
  {
    applies = t.ms.m_applies;
    count_updates = t.ms.m_count_updates;
    dred_deleted = t.ms.m_dred_deleted;
    dred_rederived = t.ms.m_dred_rederived;
    emitted_inserts = t.ms.m_emitted_inserts;
    emitted_retracts = t.ms.m_emitted_retracts;
    seeded_strata = t.ms.m_seeded_strata;
  }
