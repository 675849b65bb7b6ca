(* Incremental view maintenance: counting for non-recursive strata, DRed
   (delete-rederive) for recursive ones. See ivm.mli for the mode-selection
   argument. Rule bodies go through the row-set evaluator that Explain also
   searches with (Row_eval); its per-literal state selector lets the
   delta-rule expansion read "new" relations to the left of the delta
   position and "old" relations to the right. *)

module Delta = Rs_relation.Delta
module Relation = Rs_relation.Relation

open Row_eval

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

(* --- firing rules from single rows ------------------------------------ *)

(* A rule entered at one body literal: a changed row of the literal's
   relation binds the atom, the remaining literals are evaluated around it. *)
type entry = { rule : Ast.rule; at : lit; atom : Ast.atom; rest : lit list }

let entries rules =
  List.concat_map
    (fun (r : Ast.rule) ->
      let lits = indexed_body r in
      List.filter_map
        (fun x ->
          match x.l with
          | Ast.L_cmp _ -> None
          | Ast.L_pos atom | Ast.L_neg atom ->
              Some { rule = r; at = x; atom; rest = List.filter (fun y -> y.li <> x.li) lits })
        lits)
    rules

(* Hand [emit] every head row of [r] that extends [env] over [lits]. *)
let derive ~state (r : Ast.rule) lits env emit =
  eval_lits ~state lits env (fun env -> emit r.Ast.head_pred (head_row env r.Ast.head_args))

(* ... and every head row [e] derives from one [row] of its literal. *)
let fire ~state e row emit =
  match match_args [] e.atom.Ast.args row with
  | None -> ()
  | Some env0 -> derive ~state e.rule e.rest env0 emit

(* Drain [work]: each popped (pred, row) fires every positive body
   occurrence of [pred]; [emit] filters duplicates and feeds the queue. *)
let drain ~state entries work emit =
  while not (Queue.is_empty work) do
    let p, row = Queue.pop work in
    List.iter
      (fun e ->
        match e.at.l with Ast.L_pos a when a.Ast.pred = p -> fire ~state e row emit | _ -> ())
      entries
  done

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

(* External changes entering each entry's literal, each handed to
   [f e sign rows] with its sign as seen through the literal: inserted rows
   count +1 under a positive literal and -1 under a negated one, retracted
   rows the reverse. Inserts come first; entries on [skip] predicates are
   passed over. Counting takes both signs, DRed's overdelete the losses and
   its insertion phase the gains. *)
let seed_external chgs ~skip entries f =
  List.iter
    (fun e ->
      let p = e.atom.Ast.pred in
      if not (skip p) then
        match Hashtbl.find_opt chgs p with
        | None -> ()
        | Some c ->
            let s = match e.at.l with Ast.L_neg _ -> -1 | _ -> 1 in
            f e s c.ins;
            f e (-s) c.del)
    entries

(* --- counting maintenance (non-recursive strata) ------------------------ *)

(* Σ_i new(<i) ⋈ ΔLi ⋈ old(>i): each delta tuple at position i seeds the
   evaluation of the remaining literals, reading post-change state to the
   left and pre-change state to the right. Every produced head row adjusts
   its derivation count by the delta's sign (inverted through negation);
   count transitions through zero become the stratum's own net change. *)
let maintain_counting t old chgs (stratum : Analyzer.stratum) =
  let dc : (string, (int list, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
  let bump s pred row =
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
  seed_external chgs ~skip:(fun _ -> false) (entries stratum.Analyzer.rules)
    (fun e sign rows ->
      let i = e.at.li in
      let state li p = if li < i then rel t.db p else old_rel t.db old p in
      Rows.iter (fun row -> fire ~state e row (bump sign)) rows);
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

(* --- DRed maintenance (recursive strata) -------------------------------- *)

let maintain_dred t old chgs (stratum : Analyzer.stratum) =
  let sp = stratum.Analyzer.preds in
  let in_stratum p = List.mem p sp in
  let bodies = List.map (fun r -> (r, indexed_body r)) stratum.Analyzer.rules in
  let entries = entries stratum.Analyzer.rules in
  (* pre-stratum values of the stratum's own preds, for the final net diff *)
  let snap = List.map (fun p -> (p, rel t.db p)) sp in
  let work = Queue.create () in

  (* Phase A — overestimate deletions against the old state. Stratum preds
     are untouched so far, so their current value is their old value;
     changed externals read their pre-apply snapshot. Seeds: external
     losses (retracted rows under positive literals, inserted rows under
     negated ones); the overestimate then propagates internally. *)
  let state_old _ p = if in_stratum p then rel t.db p else old_rel t.db old p in
  let del : (string, Rows.t ref) Hashtbl.t = Hashtbl.create 4 in
  let del_of p =
    match Hashtbl.find_opt del p with
    | Some r -> r
    | None ->
        let r = ref Rows.empty in
        Hashtbl.replace del p r;
        r
  in
  let mark p row =
    let d = del_of p in
    if Rows.mem row (rel t.db p) && not (Rows.mem row !d) then begin
      d := Rows.add row !d;
      t.ms.m_dred_deleted <- t.ms.m_dred_deleted + 1;
      Queue.add (p, row) work
    end
  in
  seed_external chgs ~skip:in_stratum entries (fun e sign rows ->
      if sign < 0 then Rows.iter (fun row -> fire ~state:state_old e row mark) rows);
  drain ~state:state_old entries work mark;

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
  let state_new _ p = rel t.db p in
  let derivable p row =
    List.exists
      (fun ((r : Ast.rule), lits) ->
        r.Ast.head_pred = p
        &&
        match head_env r.Ast.head_args row with
        | None -> false
        | Some env0 -> exists_lits ~state:state_new lits env0)
      bodies
  in
  let restore p row =
    let d = del_of p in
    if Rows.mem row !d then begin
      d := Rows.remove row !d;
      set t.db p (Rows.add row (rel t.db p));
      t.ms.m_dred_rederived <- t.ms.m_dred_rederived + 1;
      Queue.add (p, row) work
    end
  in
  Hashtbl.iter
    (fun p d -> Rows.iter (fun row -> if derivable p row then restore p row) !d)
    del;
  drain ~state:state_new entries work restore;

  (* Phase C — semi-naive insertion propagation over new state. Seeds:
     external gains (inserted rows under positive literals, retracted rows
     under negated ones), evaluated directly so the delta tuple needs no
     membership in any stratum set; internal derivations ride the
     worklist. *)
  let put p row =
    if not (Rows.mem row (rel t.db p)) then begin
      save_old t.db old p;
      set t.db p (Rows.add row (rel t.db p));
      Queue.add (p, row) work
    end
  in
  seed_external chgs ~skip:in_stratum entries (fun e sign rows ->
      if sign > 0 then Rows.iter (fun row -> fire ~state:state_new e row put) rows);
  drain ~state:state_new entries work put;

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
            let work = Queue.create () in
            let put p row =
              if not (Rows.mem row (rel db p)) then begin
                set db p (Rows.add row (rel db p));
                Queue.add (p, row) work
              end
            in
            List.iter (fun r -> derive ~state r (indexed_body r) [] put) s.Analyzer.rules;
            drain ~state (entries s.Analyzer.rules) work put
      end
      else
        List.iter
          (fun (r : Ast.rule) ->
            let ct = counts_of t r.Ast.head_pred in
            derive ~state r (indexed_body r) [] (fun pred row ->
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
