module Relation = Rs_relation.Relation
module Int_vec = Rs_util.Int_vec
module Dedup = Rs_relation.Dedup
module Hash_index = Rs_relation.Hash_index
module Pool = Rs_parallel.Pool
module Fault = Rs_chaos.Fault
module Inject = Rs_chaos.Inject

exception Degraded of string

let () =
  Printexc.register_printer (function
    | Degraded point -> Some (Printf.sprintf "Rs_exec.Kernel.Degraded(%s)" point)
    | _ -> None)

(* A scan side reduced to its table plus the filters sitting on it; the
   predicates use the table's local column frame. *)
type probe_side = { p_name : string; p_preds : Expr.pred list }

type binary = {
  b_probe : probe_side;  (* the Δ-side, scanned row by row *)
  b_build_name : string;  (* the indexed side *)
  b_build_before : string option;
      (* [Some delta] when the build side is [Plan.Old]: matches at rows
         from the table's Δ-suffix on are skipped *)
  b_probe_keys : int array;
  b_build_keys : int array;
  b_extra : Expr.pred list;  (* over the combined l++r frame *)
  b_la : int;  (* left arity of the combined frame *)
  b_probe_is_left : bool;
}

(* One join step of an n-way chain: probe [s_name]'s index on [s_keys]
   (local columns) with the values at frame columns [s_probe], skip matches
   at or past the bound [s_before] puts on the table, copy the matched row
   into the frame at [s_off], then test [s_preds] — the atom's own filters
   plus any equality that did not become a key column — over the frame. *)
type step = {
  s_name : string;
  s_before : string option;  (* as [b_build_before] *)
  s_off : int;
  s_arity : int;
  s_keys : int array;
  s_probe : int array;
  s_preds : Expr.pred list;
}

type chain = {
  c_delta : step;  (* the Δ-atom; its [s_keys]/[s_probe] are empty *)
  c_steps : step array;  (* the other atoms, in binding order *)
  c_extra : Expr.pred list;  (* the residual, over the combined frame *)
  c_width : int;  (* total arity of the combined frame *)
}

type shape = Binary of binary | Unary of probe_side | Chain of chain

(* [cols] is the head as plain frame columns, when every head expression
   is one: such heads emit without evaluating [out]. *)
type t = { shape : shape; out : Expr.t array; cols : int array option; arity : int }

let arity k = k.arity

let make shape out =
  let cols =
    if Array.for_all (function Expr.Col _ -> true | _ -> false) out then
      Some (Array.map (function Expr.Col c -> c | _ -> assert false) out)
    else None
  in
  { shape; out; cols; arity = Array.length out }

(* Collapse Filter* over a Scan or an Old into (table, the Δ-table bounding
   it if any, filters); anything deeper is not kernel-shaped. *)
let rec flatten_scan preds = function
  | Plan.Scan name -> Some (name, None, preds)
  | Plan.Old { table; delta } -> Some (table, Some delta, preds)
  | Plan.Filter (ps, src) -> flatten_scan (preds @ ps) src
  | _ -> None

(* An atom of a flattened join tree, as a step not yet keyed: its filters
   are already shifted into the combined frame. *)
let atom_step table_arity ~off (name, before, preds) =
  {
    s_name = name;
    s_before = before;
    s_off = off;
    s_arity = table_arity name;
    s_keys = [||];
    s_probe = [||];
    s_preds = List.map (Expr.shift_pred off) preds;
  }

(* Flatten the planner's left-deep [Join (Join (a, b), c)] into its atoms in
   body order plus the column equalities between them, both sides in the
   combined frame. Inner joins never carry a residual or a projection. *)
let rec flatten_joins table_arity = function
  | Plan.Join { l; r; lkeys; rkeys; extra = []; out = None } -> (
      match (flatten_joins table_arity l, flatten_scan [] r) with
      | Ok (atoms, eqs, width), Some scan ->
          let atom = atom_step table_arity ~off:width scan in
          let eqs' = Array.to_list (Array.map2 (fun lc rc -> (lc, width + rc)) lkeys rkeys) in
          Ok (atoms @ [ atom ], eqs @ eqs', width + atom.s_arity)
      | (Error _ as e), _ -> e
      | Ok _, None -> Error "shape")
  | Plan.Join _ -> Error "shape"
  | p -> (
      match flatten_scan [] p with
      | None -> Error "shape"
      | Some scan ->
          let atom = atom_step table_arity ~off:0 scan in
          Ok ([ atom ], [], atom.s_arity))

(* The n-way chain: the Δ-atom drives; each remaining atom, in body order,
   joins as soon as an equality connects it to the atoms already bound. Every
   equality is consumed once, at the step that binds its later side: as a key
   column if that column is not keyed yet, else as a test. *)
let compile_chain table_arity ~probe_table (j : Plan.join) =
  match flatten_joins table_arity (Plan.Join { j with extra = []; out = None }) with
  | Error _ as e -> e
  | Ok (atoms, eqs, width) -> (
      match List.partition (fun a -> a.s_name = probe_table && a.s_before = None) atoms with
      | [ delta ], rest ->
          let owns a c = c >= a.s_off && c < a.s_off + a.s_arity in
          let rec order bound eqs rest acc =
            if rest = [] then Ok (List.rev acc)
            else
              let is_bound c = List.exists (fun b -> owns b c) bound in
              (* [Some (col of a, bound col)] when [e] links [a] to the bound set *)
              let link a (x, y) =
                if owns a x && is_bound y then Some (x, y)
                else if owns a y && is_bound x then Some (y, x)
                else None
              in
              match List.find_opt (fun a -> List.exists (fun e -> link a e <> None) eqs) rest with
              | None -> Error "cross"
              | Some a ->
                  let mine, others = List.partition (fun e -> link a e <> None) eqs in
                  let keys, tests =
                    List.fold_left
                      (fun (keys, tests) e ->
                        let ac, bc = Option.get (link a e) in
                        if List.mem_assoc ac keys then
                          (keys, tests @ [ Expr.Cmp (Expr.Eq, Expr.Col ac, Expr.Col bc) ])
                        else (keys @ [ (ac, bc) ], tests))
                      ([], []) mine
                  in
                  let step =
                    {
                      a with
                      s_keys = Array.of_list (List.map (fun (ac, _) -> ac - a.s_off) keys);
                      s_probe = Array.of_list (List.map snd keys);
                      s_preds = a.s_preds @ tests;
                    }
                  in
                  order (a :: bound) others (List.filter (fun b -> b != a) rest) (step :: acc)
          in
          Result.map
            (fun steps ->
              { c_delta = delta; c_steps = Array.of_list steps; c_extra = j.extra; c_width = width })
            (order [ delta ] eqs rest [])
      | _ -> Error "probe")

let compile_shape (ex : Executor.t) ~probe_table plan =
  let table_arity name = Relation.arity (Catalog.rel ex.catalog name) in
  match plan with
  | Plan.Project (out, src) -> (
      match flatten_scan [] src with
      | Some (name, None, preds) when name = probe_table ->
          Ok (make (Unary { p_name = name; p_preds = preds }) out)
      | Some _ -> Error "probe"
      | None -> Error "shape")
  | Plan.Join ({ l = Plan.Join _; out = Some out; _ } as j) ->
      Result.map
        (fun c -> make (Chain c) out)
        (compile_chain table_arity ~probe_table j)
  | Plan.Join { l; r; lkeys; rkeys; extra; out = Some out } -> (
      match (flatten_scan [] l, flatten_scan [] r) with
      | Some (lname, lbefore, lpreds), Some (rname, rbefore, rpreds) -> (
          if Array.length lkeys = 0 then Error "cross"
          else
            let drives name before = name = probe_table && before = None in
            match (drives lname lbefore, drives rname rbefore) with
            | true, true | false, false -> Error "probe"
            | probe_is_left, _ ->
                let la = table_arity lname in
                let probe, probe_keys, build_name, build_before, build_keys, build_preds =
                  if probe_is_left then
                    (* build side is the right table: lift its local filters
                       into the combined frame *)
                    ( { p_name = lname; p_preds = lpreds },
                      lkeys,
                      rname,
                      rbefore,
                      rkeys,
                      List.map (Expr.shift_pred la) rpreds )
                  else
                    ({ p_name = rname; p_preds = rpreds }, rkeys, lname, lbefore, lkeys, lpreds)
                in
                Ok
                  (make
                     (Binary
                        {
                          b_probe = probe;
                          b_build_name = build_name;
                          b_build_before = build_before;
                          b_probe_keys = probe_keys;
                          b_build_keys = build_keys;
                          b_extra = build_preds @ extra;
                          b_la = la;
                          b_probe_is_left = probe_is_left;
                        })
                     out))
      | _ -> Error "shape")
  | Plan.Join { out = None; _ } -> Error "shape"
  | Plan.AntiJoin _ -> Error "negation"
  | Plan.Aggregate _ -> Error "aggregate"
  | _ -> Error "shape"

let compile ex ~probe_table plan =
  match Inject.kernel_should_fail ~point:"kernel.compile" with
  | () -> compile_shape ex ~probe_table plan
  | exception Fault.Injected _ -> Error "chaos"

let count (ex : Executor.t) name n =
  match ex.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

(* The row bound a step's [Old] puts on its table, or [max_int]. *)
let bound_of ex name = function
  | None -> max_int
  | Some delta -> Executor.old_bound ex ~table:name ~delta

let run (ex : Executor.t) k ~dedup ~r_set ~out =
  (* The exec probe sits before any write, so a fired fault leaves [dedup],
     [r_set] and [out] untouched. *)
  (match Inject.kernel_should_fail ~point:"kernel.exec" with
  | () -> ()
  | exception Fault.Injected _ -> raise (Degraded "kernel.exec"));
  let offered = ref 0 in
  let emitted = ref 0 in
  let batches = ref 0 in
  (* Emit, monomorphized on head arity: one two-table claim hashes the
     tuple once, claims it in FAST-DEDUP and, when fresh, in R's membership
     set, and a tuple R's set lacked is appended — the set difference runs
     inside the loop, R's set stays current for the next iteration, and no
     intermediate relation ever exists. Claiming in the dedup table first
     keeps [offered] and [emitted] the figures of the candidate multiset
     the interpreted path's bag would hold. *)
  let emit1 v0 =
    incr offered;
    match Dedup.claim1 dedup ~set:r_set v0 with
    | Dedup.Repeat -> ()
    | Dedup.Known -> incr emitted
    | Dedup.Added ->
        incr emitted;
        Relation.push1 out v0
  in
  let emit2 v0 v1 =
    incr offered;
    match Dedup.claim2 dedup ~set:r_set v0 v1 with
    | Dedup.Repeat -> ()
    | Dedup.Known -> incr emitted
    | Dedup.Added ->
        incr emitted;
        Relation.push2 out v0 v1
  in
  (* wider heads fill a scratch tuple; it is chunk-safe: the virtual pool runs
     chunks sequentially, and both dedup layouts copy on insert *)
  let tuple = Array.make k.arity 0 in
  let emit_tuple () =
    incr offered;
    match Dedup.claim_row dedup ~set:r_set tuple with
    | Dedup.Repeat -> ()
    | Dedup.Known -> incr emitted
    | Dedup.Added ->
        incr emitted;
        if k.arity = 3 then Relation.push3 out tuple.(0) tuple.(1) tuple.(2)
        else Relation.push_row out tuple
  in
  (* Computed heads evaluate their expressions over a column accessor. *)
  let emit_get =
    match k.out with
    | [| e0 |] -> fun get -> emit1 (Expr.eval get e0)
    | [| e0; e1 |] -> fun get -> emit2 (Expr.eval get e0) (Expr.eval get e1)
    | exprs ->
        fun get ->
          for i = 0 to k.arity - 1 do
            tuple.(i) <- Expr.eval get exprs.(i)
          done;
          emit_tuple ()
  in
  (match k.shape with
  | Unary u ->
      let prel = Catalog.rel ex.catalog u.p_name in
      let n = Relation.nrows prel in
      Pool.parallel_for ex.pool 0 n (fun lo hi ->
          incr batches;
          count ex "kernel.batch_rows" (hi - lo);
          for row = lo to hi - 1 do
            let get c = Relation.get prel ~row ~col:c in
            if List.for_all (Expr.test get) u.p_preds then emit_get get
          done);
      count ex "kernel.fused_probes" n
  | Binary b ->
      let prel = Catalog.rel ex.catalog b.b_probe.p_name in
      let brel = Catalog.rel ex.catalog b.b_build_name in
      let bound = bound_of ex b.b_build_name b.b_build_before in
      let la = b.b_la in
      let lrel, rrel = if b.b_probe_is_left then (prel, brel) else (brel, prel) in
      let p_preds = b.b_probe.p_preds in
      (* [load prow] runs once per surviving probe row, [visit prow brow]
         once per match; matches at or past [bound] are skipped. *)
      let load, visit =
        match k.cols with
        | Some cols when b.b_extra = [] ->
            (* Column-direct emit: a head column of the probe row is read
               once per probe row into [pv]; one of the build row is read
               straight from its column. *)
            let pv = Array.make k.arity 0 in
            let on_probe c = (c < la) = b.b_probe_is_left in
            let local c = if c < la then c else c - la in
            let load prow =
              for i = 0 to k.arity - 1 do
                if on_probe cols.(i) then pv.(i) <- Relation.get prel ~row:prow ~col:(local cols.(i))
              done
            in
            let reader i c =
              if on_probe c then fun _ -> pv.(i)
              else
                let v = Relation.col brel (local c) in
                fun brow -> Int_vec.get v brow
            in
            let visit =
              match cols with
              | [| c0 |] ->
                  let r0 = reader 0 c0 in
                  fun _ brow -> if brow < bound then emit1 (r0 brow)
              | [| c0; c1 |] ->
                  let r0 = reader 0 c0 and r1 = reader 1 c1 in
                  fun _ brow -> if brow < bound then emit2 (r0 brow) (r1 brow)
              | cols ->
                  let rs = Array.mapi reader cols in
                  fun _ brow ->
                    if brow < bound then begin
                      for i = 0 to k.arity - 1 do
                        tuple.(i) <- rs.(i) brow
                      done;
                      emit_tuple ()
                    end
            in
            (load, visit)
        | _ ->
            let visit prow brow =
              if brow < bound then
                let lrow, rrow = if b.b_probe_is_left then (prow, brow) else (brow, prow) in
                let get c =
                  if c < la then Relation.get lrel ~row:lrow ~col:c
                  else Relation.get rrel ~row:rrow ~col:(c - la)
                in
                if b.b_extra = [] || List.for_all (Expr.test get) b.b_extra then emit_get get
            in
            (ignore, visit)
      in
      let idx, owned = Executor.acquire_index ex ~scan_name:b.b_build_name brel b.b_build_keys in
      (* Probe closure monomorphized on key shape: 1- and 2-column keys go
         through the specialized index entry points (no key array). *)
      let probe_row =
        match b.b_probe_keys with
        | [| c0 |] ->
            fun prow ->
              Hash_index.iter_matches1 idx
                (Relation.get prel ~row:prow ~col:c0)
                (fun brow -> visit prow brow)
        | [| c0; c1 |] ->
            fun prow ->
              Hash_index.iter_matches2 idx
                (Relation.get prel ~row:prow ~col:c0)
                (Relation.get prel ~row:prow ~col:c1)
                (fun brow -> visit prow brow)
        | pkeys ->
            let key = Array.make (Array.length pkeys) 0 in
            fun prow ->
              Array.iteri (fun i c -> key.(i) <- Relation.get prel ~row:prow ~col:c) pkeys;
              Hash_index.iter_matches idx key (fun brow -> visit prow brow)
      in
      let n = Relation.nrows prel in
      Fun.protect
        ~finally:(fun () -> if owned then Hash_index.release idx)
        (fun () ->
          Pool.parallel_for ex.pool 0 n (fun lo hi ->
              incr batches;
              count ex "kernel.batch_rows" (hi - lo);
              for prow = lo to hi - 1 do
                let pget c = Relation.get prel ~row:prow ~col:c in
                if p_preds = [] || List.for_all (Expr.test pget) p_preds then begin
                  load prow;
                  probe_row prow
                end
              done));
      count ex "kernel.fused_probes" n
  | Chain ch ->
      (* Every bound atom's row is copied into one frame of the combined
         width; keys, filters, the residual and the head all read it. The
         virtual pool runs chunks sequentially and the steps nest strictly,
         so each step's scratch key and frame slice are never live twice. *)
      let frame = Array.make ch.c_width 0 in
      let get c = frame.(c) in
      let acquired = ref [] in
      let index_for s rel =
        let key = (s.s_name, s.s_keys) in
        match List.assoc_opt key !acquired with
        | Some (idx, _) -> idx
        | None ->
            let ((idx, _) as got) = Executor.acquire_index ex ~scan_name:s.s_name rel s.s_keys in
            acquired := (key, got) :: !acquired;
            idx
      in
      let bind rel s row =
        for j = 0 to s.s_arity - 1 do
          frame.(s.s_off + j) <- Relation.get rel ~row ~col:j
        done
      in
      let passes preds = preds = [] || List.for_all (Expr.test get) preds in
      (* a head of plain columns emits straight from the frame *)
      let emit =
        match k.cols with
        | Some [| c0 |] -> fun () -> emit1 frame.(c0)
        | Some [| c0; c1 |] -> fun () -> emit2 frame.(c0) frame.(c1)
        | Some cols ->
            fun () ->
              for i = 0 to k.arity - 1 do
                tuple.(i) <- frame.(cols.(i))
              done;
              emit_tuple ()
        | None -> fun () -> emit_get get
      in
      let finish () = if passes ch.c_extra then emit () in
      let d = ch.c_delta in
      let drel = Catalog.rel ex.catalog d.s_name in
      let n = Relation.nrows drel in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (_, (idx, owned)) -> if owned then Hash_index.release idx) !acquired)
        (fun () ->
          (* Compose the steps innermost-first into one closure per step. *)
          let body =
            Array.fold_right
              (fun s next ->
                let rel = Catalog.rel ex.catalog s.s_name in
                let idx = index_for s rel in
                let bound = bound_of ex s.s_name s.s_before in
                let visit row =
                  if row < bound then begin
                    bind rel s row;
                    if passes s.s_preds then next ()
                  end
                in
                match s.s_probe with
                | [| c0 |] -> fun () -> Hash_index.iter_matches1 idx frame.(c0) visit
                | [| c0; c1 |] ->
                    fun () -> Hash_index.iter_matches2 idx frame.(c0) frame.(c1) visit
                | probe ->
                    let key = Array.make (Array.length probe) 0 in
                    fun () ->
                      Array.iteri (fun i c -> key.(i) <- frame.(c)) probe;
                      Hash_index.iter_matches idx key visit)
              ch.c_steps finish
          in
          Pool.parallel_for ex.pool 0 n (fun lo hi ->
              incr batches;
              count ex "kernel.batch_rows" (hi - lo);
              for row = lo to hi - 1 do
                bind drel d row;
                if passes d.s_preds then body ()
              done));
      count ex "kernel.fused_probes" n);
  count ex "kernel.execs" 1;
  count ex "kernel.batches" !batches;
  count ex "kernel.emitted" !emitted;
  count ex "dedup.probes" !offered;
  count ex "dedup.hits" (!offered - !emitted);
  !emitted
