module Relation = Rs_relation.Relation
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

(* One atom of the flattened body: the rows of [s_name] that [s_read]
   names (the whole table, the rows before its Δ, or the Δ), bound into the
   combined frame at [s_off]. A step probes [s_name]'s index on local
   columns [s_keys] with the frame values at [s_probe], then tests
   [s_preds] — the atom's own filters plus any equality that did not become
   a key column — over the frame. The Δ-atom is scanned instead: its
   [s_keys]/[s_probe] are empty. [s_bind] lists the frame columns of this
   atom that a later probe, filter, the residual or the head reads; only
   they are copied into the frame. *)
type atom = {
  s_name : string;
  s_read : Catalog.read;
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

(* Collapse Filter* over a leaf into (table, what it reads of it, filters);
   anything deeper is not kernel-shaped. *)
let rec flatten_scan preds = function
  | Plan.Scan name -> Some (name, Catalog.Full, preds)
  | Plan.Old name -> Some (name, Catalog.Old, preds)
  | Plan.Delta name -> Some (name, Catalog.Delta, preds)
  | Plan.Filter (ps, src) -> flatten_scan (preds @ ps) src
  | _ -> None

(* An atom of a flattened join tree, not yet keyed: its filters are
   already shifted into the combined frame. *)
let atom_of table_arity ~off (name, read, preds) =
  {
    s_name = name;
    s_read = read;
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
let compile_chain table_arity ~out ~extra body =
  match flatten_joins table_arity body with
  | Error _ as e -> e
  | Ok (atoms, eqs, width) -> (
      match List.partition (fun a -> a.s_read = Catalog.Delta) atoms with
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

let compile_shape (ex : Executor.t) plan =
  let table_arity name = Relation.arity (Catalog.rel ex.catalog name) in
  match plan with
  | Plan.Project (out, src) -> compile_chain table_arity ~out ~extra:[] src
  | Plan.Join ({ out = Some out; extra; _ } as j) ->
      compile_chain table_arity ~out ~extra (Plan.Join { j with extra = []; out = None })
  | Plan.Join { out = None; _ } -> Error "shape"
  | Plan.AntiJoin _ -> Error "negation"
  | _ -> Error "shape"

let compile ex plan =
  match Inject.kernel_should_fail ~point:"kernel.compile" with
  | () -> compile_shape ex plan
  | exception Fault.Injected _ -> Error "chaos"

(* --- resolve and run --------------------------------------------------- *)

let count (ex : Executor.t) name n =
  match ex.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

(* The emit for head [exprs] over [frame] — the one indirect call per
   match that reaches the head — monomorphized on head arity and on a
   head of plain frame columns. One two-table claim hashes the tuple once,
   claims it in FAST-DEDUP and, when fresh, in R's membership set [r_set],
   and a tuple R's set lacked is appended to R itself: the set difference
   runs inside the loop, R's set stays equal to R's rows, and no
   intermediate relation ever exists. Claiming in the dedup table first
   keeps [offered] and [emitted] the figures of the candidate multiset the
   interpreted path's bag would hold. Only the arms a head needs are
   allocated, once per run. *)
let emitter ~dedup ~r_set ~r ~offered ~emitted frame exprs =
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
        if claimed (Dedup.claim1 dedup ~set:r_set v0) then Relation.push1 r v0
      in
      (match e0 with
      | Expr.Col c0 -> fun () -> emit1 frame.(c0)
      | _ -> fun () -> emit1 (Expr.eval_frame frame e0))
  | [| e0; e1 |] -> (
      let emit2 v0 v1 =
        incr offered;
        if claimed (Dedup.claim2 dedup ~set:r_set v0 v1) then Relation.push2 r v0 v1
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
          if arity = 3 then Relation.push3 r tuple.(0) tuple.(1) tuple.(2)
          else Relation.push_row r tuple

(* One kernel bound to its tables for one round: the chain over the
   fetched arrays and views, the row range its driver covers, the chunk
   function that drives it, the indexes it acquired and its counts. *)
type resolved = {
  ex : Executor.t;
  lo : int;
  hi : int;
  drive : int -> int -> unit;
  acquired : ((string * int array) * (Hash_index.t * bool)) list;
  offered : int ref;
  emitted : int ref;
  batches : int ref;
}

let release_indexes acquired =
  List.iter (fun (_, (idx, owned)) -> if owned then Hash_index.release idx) acquired

let release rk = release_indexes rk.acquired

let resolve (ex : Executor.t) k ~dedup ~r_set ~head =
  (* The exec probe sits before any acquisition or write, so a fired fault
     leaves [dedup], [r_set] and [head] untouched and owes no release. *)
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
  let emit = emitter ~dedup ~r_set ~r:head ~offered ~emitted frame k.out in
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
  let drel, lo, hi = Catalog.read ex.catalog k.delta.s_name Catalog.Delta in
  (* Each distinct (table, key columns) index is acquired once per round,
     and every raw array is fetched once. [head] may be a table the kernel
     reads (a recursive head's Δ is a range of it), but every read ends at
     the catalog's round-start bound: rows pushed past it may move a column
     to a fresh array, and the arrays fetched here still hold every row
     below it. *)
  let step s =
    let rel, _, bound = Catalog.read ex.catalog s.s_name s.s_read in
    let view = Hash_index.view (index_for s rel) in
    Chain.step rel ~off:s.s_off ~at:s.s_bind ~preds:s.s_preds ~bound ~probe:s.s_probe view
  in
  match Array.map step k.steps with
  | exception e ->
      release_indexes !acquired;
      raise e
  | steps ->
      let d = k.delta in
      let driver =
        Chain.step drel ~off:d.s_off ~at:d.s_bind ~preds:d.s_preds ~bound:hi ~probe:[||]
          Hash_index.empty_view
      in
      let c = { Chain.frame; driver; steps; checks = [||]; residual = k.extra; emit } in
      let drive lo hi =
        incr batches;
        count ex "kernel.batch_rows" (hi - lo);
        Chain.drive c lo hi
      in
      { ex; lo; hi; drive; acquired = !acquired; offered; emitted; batches }

let range rk = (rk.lo, rk.hi, rk.drive)

let finish rk =
  let ex = rk.ex in
  count ex "kernel.fused_probes" (rk.hi - rk.lo);
  count ex "kernel.execs" 1;
  count ex "kernel.batches" !(rk.batches);
  count ex "kernel.emitted" !(rk.emitted);
  count ex "dedup.probes" !(rk.offered);
  count ex "dedup.hits" (!(rk.offered) - !(rk.emitted));
  !(rk.emitted)

let run (ex : Executor.t) k ~dedup ~r_set ~head =
  let rk = resolve ex k ~dedup ~r_set ~head in
  Fun.protect ~finally:(fun () -> release rk) (fun () -> Pool.batch ex.pool [ range rk ]);
  finish rk
