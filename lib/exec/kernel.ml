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

(* One atom of the flattened body: [s_name]'s rows below the bound an
   [Old] read ([s_before] = its Δ-table) puts on the table, bound into the
   combined frame at [s_off]. A step probes [s_name]'s index on local
   columns [s_keys] with the frame values at [s_probe], then tests
   [s_preds] — the atom's own filters plus any equality that did not become
   a key column — over the frame. The Δ-atom is scanned instead: its
   [s_keys]/[s_probe] are empty. [s_bind] lists the frame columns of this
   atom that a later probe, filter, the residual or the head reads; only
   they are copied into the frame. *)
type atom = {
  s_name : string;
  s_before : string option;
  s_off : int;
  s_arity : int;
  s_keys : int array;
  s_probe : int array;
  s_preds : Expr.pred list;
  s_bind : int array;
}

type t = {
  delta : atom;  (* at its body offset, so either side of a join may drive *)
  steps : atom array;  (* the other atoms, in binding order *)
  extra : Expr.pred list;  (* the residual, over the combined frame *)
  width : int;  (* total arity of the combined frame *)
  out : Expr.t array;  (* the head, over the combined frame *)
}

(* Collapse Filter* over a Scan or an Old into (table, the Δ-table bounding
   it if any, filters); anything deeper is not kernel-shaped. *)
let rec flatten_scan preds = function
  | Plan.Scan name -> Some (name, None, preds)
  | Plan.Old { table; delta } -> Some (table, Some delta, preds)
  | Plan.Filter (ps, src) -> flatten_scan (preds @ ps) src
  | _ -> None

(* An atom of a flattened join tree, not yet keyed: its filters are
   already shifted into the combined frame. *)
let atom_of table_arity ~off (name, before, preds) =
  {
    s_name = name;
    s_before = before;
    s_off = off;
    s_arity = table_arity name;
    s_keys = [||];
    s_probe = [||];
    s_preds = List.map (Expr.shift_pred off) preds;
    s_bind = [||];
  }

(* Flatten the planner's left-deep [Join (Join (a, b), c)] into its atoms in
   body order plus the column equalities between them, both sides in the
   combined frame. Inner joins never carry a residual or a projection. *)
let rec flatten_joins table_arity = function
  | Plan.Join { l; r; lkeys; rkeys; extra = []; out = None } -> (
      match (flatten_joins table_arity l, flatten_scan [] r) with
      | Ok (atoms, eqs, width), Some scan ->
          let atom = atom_of table_arity ~off:width scan in
          let eqs' = Array.to_list (Array.map2 (fun lc rc -> (lc, width + rc)) lkeys rkeys) in
          Ok (atoms @ [ atom ], eqs @ eqs', width + atom.s_arity)
      | (Error _ as e), _ -> e
      | Ok _, None -> Error "shape")
  | Plan.Join _ -> Error "shape"
  | p -> (
      match flatten_scan [] p with
      | None -> Error "shape"
      | Some scan ->
          let atom = atom_of table_arity ~off:0 scan in
          Ok ([ atom ], [], atom.s_arity))

(* Fill in each atom's [s_bind]: the columns read after it is bound. An
   atom's own key columns are compared in place and need no copy. *)
let with_binds k =
  let used = Array.make k.width false in
  let mark c = used.(c) <- true in
  let mark_preds = List.iter (fun p -> List.iter mark (Expr.pred_cols p)) in
  mark_preds k.delta.s_preds;
  mark_preds k.extra;
  Array.iter (fun s -> Array.iter mark s.s_probe; mark_preds s.s_preds) k.steps;
  Array.iter (fun e -> List.iter mark (Expr.cols e)) k.out;
  let binds s =
    { s with s_bind = Array.of_list (List.filter (fun c -> used.(c)) (List.init s.s_arity (( + ) s.s_off))) }
  in
  { k with delta = binds k.delta; steps = Array.map binds k.steps }

(* The chain over [body]'s atoms: the Δ-atom drives; each remaining atom,
   in body order, joins as soon as an equality connects it to the atoms
   already bound. Every equality is consumed once, at the step that binds
   its later side: as a key column if that column is not keyed yet, else
   as a test. A single-atom body is a chain of no steps. *)
let compile_chain table_arity ~probe_table ~out ~extra body =
  match flatten_joins table_arity body with
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
            (fun steps -> with_binds { delta; steps = Array.of_list steps; extra; width; out })
            (order [ delta ] eqs rest [])
      | _ -> Error "probe")

let compile_shape (ex : Executor.t) ~probe_table plan =
  let table_arity name = Relation.arity (Catalog.rel ex.catalog name) in
  match plan with
  | Plan.Project (out, src) -> compile_chain table_arity ~probe_table ~out ~extra:[] src
  | Plan.Join ({ out = Some out; extra; _ } as j) ->
      compile_chain table_arity ~probe_table ~out ~extra (Plan.Join { j with extra = []; out = None })
  | Plan.Join { out = None; _ } -> Error "shape"
  | Plan.AntiJoin _ -> Error "negation"
  | Plan.Aggregate _ -> Error "aggregate"
  | _ -> Error "shape"

let compile ex ~probe_table plan =
  match Inject.kernel_should_fail ~point:"kernel.compile" with
  | () -> compile_shape ex ~probe_table plan
  | exception Fault.Injected _ -> Error "chaos"

(* --- the chain loop ---------------------------------------------------- *)

type step = {
  at : int array;
  src : int array array;
  preds : Expr.pred list;
  bound : int;
  probe : int array;
  key : int array;
  view : Hash_index.view;
}

type anti = { set : Dedup.t; cols : int array; tuple : int array }

let step rel ~off ~at ~preds ~bound ~probe view =
  let nk = Array.length probe in
  {
    at;
    src = Array.map (fun c -> Int_vec.unsafe_data (Relation.col rel (c - off))) at;
    preds;
    bound;
    probe;
    key = (if nk > 1 then Array.make nk 0 else [||]);
    view;
  }

let anti set cols = { set; cols; tuple = Array.make (Array.length cols) 0 }

type chain = {
  frame : int array;
  driver : step;
  steps : step array;
  antis : anti array;
  residual : Expr.pred list;
  emit : unit -> unit;
}

(* Copy row [row] of the raw column data [src] into the frame at [at]. *)
let[@inline] bind frame at src row =
  for j = 0 to Array.length at - 1 do
    Array.unsafe_set frame (Array.unsafe_get at j) (Array.unsafe_get (Array.unsafe_get src j) row)
  done

let rec passes_all frame = function
  | [] -> true
  | p :: ps -> Expr.test_frame frame p && passes_all frame ps

let[@inline] passes frame = function [] -> true | preds -> passes_all frame preds

(* Whether [row] holds the probe key [key] in key columns [0, j]. *)
let rec same_key (keys : int array array) (key : int array) row j =
  j < 0 || (Array.unsafe_get keys.(j) row = key.(j) && same_key keys key row (j - 1))

(* Whether no anti-check from [i] on finds the frame's tuple in its set. *)
let rec absent frame (antis : anti array) i =
  i = Array.length antis
  ||
  let a = antis.(i) in
  (match a.cols with
  | [| c0; c1 |] -> not (Dedup.mem2 a.set frame.(c0) frame.(c1))
  | cols ->
      for j = 0 to Array.length cols - 1 do
        a.tuple.(j) <- frame.(cols.(j))
      done;
      not (Dedup.mem_row a.set a.tuple))
  && absent frame antis (i + 1)

(* Step [i] scans rows [0, bound), or walks its bucket chain newest row
   first and skips rows past its bound or with another key; it binds each
   match and descends. Past the last step come the anti-checks, the
   residual and the emit. *)
let rec descend c i =
  let frame = c.frame in
  if i = Array.length c.steps then begin
    if absent frame c.antis 0 && passes frame c.residual then c.emit ()
  end
  else begin
    let s = c.steps.(i) in
    let nk = Array.length s.probe in
    if nk = 0 then
      for r = 0 to s.bound - 1 do
        bind frame s.at s.src r;
        if passes frame s.preds then descend c (i + 1)
      done
    else begin
      let v = s.view in
      let bound = s.bound and nexts = v.nexts in
      let k0 = frame.(s.probe.(0)) and kc0 = v.keys.(0) in
      let row =
        ref
          (if nk = 1 then Hash_index.first1 v k0
           else begin
             for j = 0 to nk - 1 do
               s.key.(j) <- frame.(s.probe.(j))
             done;
             Hash_index.first v s.key
           end)
      in
      while !row >= 0 do
        let r = !row in
        if
          r < bound
          && if nk = 1 then Array.unsafe_get kc0 r = k0 else same_key v.keys s.key r (nk - 1)
        then begin
          bind frame s.at s.src r;
          if passes frame s.preds then descend c (i + 1)
        end;
        row := Array.unsafe_get nexts r
      done
    end
  end

let drive c lo hi =
  let d = c.driver in
  for row = lo to hi - 1 do
    bind c.frame d.at d.src row;
    if passes c.frame d.preds then descend c 0
  done

(* --- resolve and run --------------------------------------------------- *)

let count (ex : Executor.t) name n =
  match ex.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

(* The row bound a step's [Old] puts on its table, or [max_int]. *)
let bound_of ex name = function
  | None -> max_int
  | Some delta -> Executor.old_bound ex ~table:name ~delta

(* The emit for head [exprs] over [frame] — the one indirect call per
   match that reaches the head — monomorphized on head arity and on a
   head of plain frame columns. One two-table claim hashes the tuple once,
   claims it in FAST-DEDUP and, when fresh, in R's membership set [r_set],
   and a tuple R's set lacked is appended to [out]: the set difference runs
   inside the loop, R's set stays current for the next iteration, and no
   intermediate relation ever exists. Claiming in the dedup table first
   keeps [offered] and [emitted] the figures of the candidate multiset the
   interpreted path's bag would hold. Only the arms a head needs are
   allocated, once per run. *)
let emitter ~dedup ~r_set ~out ~offered ~emitted frame exprs =
  let claimed = function
    | Dedup.Repeat -> false
    | Dedup.Known ->
        incr emitted;
        false
    | Dedup.Added ->
        incr emitted;
        true
  in
  match exprs with
  | [| e0 |] ->
      let emit1 v0 =
        incr offered;
        if claimed (Dedup.claim1 dedup ~set:r_set v0) then Relation.push1 out v0
      in
      (match e0 with
      | Expr.Col c0 -> fun () -> emit1 frame.(c0)
      | _ -> fun () -> emit1 (Expr.eval_frame frame e0))
  | [| e0; e1 |] -> (
      let emit2 v0 v1 =
        incr offered;
        if claimed (Dedup.claim2 dedup ~set:r_set v0 v1) then Relation.push2 out v0 v1
      in
      match (e0, e1) with
      | Expr.Col c0, Expr.Col c1 -> fun () -> emit2 frame.(c0) frame.(c1)
      | _ -> fun () -> emit2 (Expr.eval_frame frame e0) (Expr.eval_frame frame e1))
  | _ ->
      (* wider heads fill a scratch tuple: both dedup layouts copy on insert *)
      let arity = Array.length exprs in
      let tuple = Array.make arity 0 in
      fun () ->
        for i = 0 to arity - 1 do
          tuple.(i) <- Expr.eval_frame frame exprs.(i)
        done;
        incr offered;
        if claimed (Dedup.claim_row dedup ~set:r_set tuple) then
          if arity = 3 then Relation.push3 out tuple.(0) tuple.(1) tuple.(2)
          else Relation.push_row out tuple

let run (ex : Executor.t) k ~dedup ~r_set ~out =
  (* The exec probe sits before any write, so a fired fault leaves [dedup],
     [r_set] and [out] untouched. *)
  (match Inject.kernel_should_fail ~point:"kernel.exec" with
  | () -> ()
  | exception Fault.Injected _ -> raise (Degraded "kernel.exec"));
  let offered = ref 0 in
  let emitted = ref 0 in
  let batches = ref 0 in
  (* Every bound atom's columns sit in one frame of the combined width;
     probes, filters, the residual and the head all read it. It is
     chunk-safe: the virtual pool runs chunks sequentially, and the steps
     nest strictly, each binding only its own slice. *)
  let frame = Array.make k.width 0 in
  let emit = emitter ~dedup ~r_set ~out ~offered ~emitted frame k.out in
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
  let drel = Catalog.rel ex.catalog k.delta.s_name in
  let n = Relation.nrows drel in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, (idx, owned)) -> if owned then Hash_index.release idx) !acquired)
    (fun () ->
      (* Each distinct (table, key columns) index is acquired once per run,
         and every raw array is fetched once: R and the Δ-tables change
         only at absorb, and [out] is none of them. *)
      let resolve s =
        let rel = Catalog.rel ex.catalog s.s_name in
        let view = Hash_index.view (index_for s rel) in
        step rel ~off:s.s_off ~at:s.s_bind ~preds:s.s_preds ~bound:(bound_of ex s.s_name s.s_before)
          ~probe:s.s_probe view
      in
      let driver =
        let d = k.delta in
        step drel ~off:d.s_off ~at:d.s_bind ~preds:d.s_preds ~bound:n ~probe:[||]
          Hash_index.empty_view
      in
      let c =
        {
          frame;
          driver;
          steps = Array.map resolve k.steps;
          antis = [||];
          residual = k.extra;
          emit;
        }
      in
      Pool.parallel_for ex.pool 0 n (fun lo hi ->
          incr batches;
          count ex "kernel.batch_rows" (hi - lo);
          drive c lo hi));
  count ex "kernel.fused_probes" n;
  count ex "kernel.execs" 1;
  count ex "kernel.batches" !batches;
  count ex "kernel.emitted" !emitted;
  count ex "dedup.probes" !offered;
  count ex "dedup.hits" (!offered - !emitted);
  !emitted
