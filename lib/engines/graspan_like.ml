module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Pool = Rs_parallel.Pool
module Int_vec = Rs_util.Int_vec
module Int_key = Rs_util.Int_key
module An = Recstep.Analyzer
module Ast = Recstep.Ast

let name = "Graspan-like"

let capabilities =
  {
    Engine_intf.scale_up = true;
    scale_out = false;
    memory_consumption = "low";
    cpu_utilization = "medium";
    cpu_efficiency = "low";
    tuning_required = "yes (lightweight)";
    mutual_recursion = true;
    nonrecursive_aggregation = false;
    recursive_aggregation = false;
    incremental = false;
  }

(* --- grammar normalization --- *)

type oriented = { label : string; reversed : bool }

type production =
  | Edge of { head : string; src : oriented }
  | Self of { head : string; src : string; endpoint : [ `Src | `Dst ] }
  | Compose of { head : string; a : oriented; b : oriented }

let unsupported = Engine_intf.unsupported

(* Orientations of an atom as a (from, to) edge between two distinct vars. *)
let atom_ends a =
  match a.Ast.args with
  | [ Ast.Var u; Ast.Var v ] when u <> v ->
      [ ((u, v), { label = a.Ast.pred; reversed = false });
        ((v, u), { label = a.Ast.pred; reversed = true }) ]
  | _ -> unsupported "%s: atom %s is not a binary edge over distinct variables" name (Ast.atom_to_string a)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* Find an oriented chain covering all atoms from x to y. *)
let find_chain atoms x y =
  let rec orientations = function
    | [] -> [ [] ]
    | a :: rest ->
        let tails = orientations rest in
        List.concat_map (fun o -> List.map (fun t -> o :: t) tails) (atom_ends a)
  in
  let fits chain =
    let rec go from = function
      | [] -> from = y
      | ((u, v), _) :: rest -> u = from && go v rest
    in
    go x chain
  in
  List.find_map
    (fun perm -> List.find_opt fits (orientations perm))
    (permutations atoms)

let fresh_aux =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "@aux%d" !c

let normalize_rule rule =
  List.iter
    (function
      | Ast.L_pos _ -> ()
      | l -> unsupported "%s: literal %s outside the grammar fragment" name (Ast.literal_to_string l))
    rule.Ast.body;
  if Ast.is_aggregate_rule rule then unsupported "%s: aggregation" name;
  let atoms = List.filter_map (function Ast.L_pos a -> Some a | _ -> None) rule.Ast.body in
  match rule.Ast.head_args with
  | [ Ast.H_term (Ast.Var x); Ast.H_term (Ast.Var y) ] when x = y -> (
      (* h(x,x) :- a(...x...): a self production *)
      match atoms with
      | [ a ] -> (
          match a.Ast.args with
          | [ Ast.Var u; Ast.Var _ ] when u = x ->
              [ Self { head = rule.Ast.head_pred; src = a.Ast.pred; endpoint = `Src } ]
          | [ Ast.Var _; Ast.Var v ] when v = x ->
              [ Self { head = rule.Ast.head_pred; src = a.Ast.pred; endpoint = `Dst } ]
          | _ -> unsupported "%s: unsupported self rule %s" name (Ast.rule_to_string rule))
      | _ -> unsupported "%s: unsupported self rule %s" name (Ast.rule_to_string rule))
  | [ Ast.H_term (Ast.Var x); Ast.H_term (Ast.Var y) ] -> (
      match find_chain atoms x y with
      | None -> unsupported "%s: body of %s is not an x->y chain" name (Ast.rule_to_string rule)
      | Some chain -> (
          match List.map snd chain with
          | [ o ] -> [ Edge { head = rule.Ast.head_pred; src = o } ]
          | [ a; b ] -> [ Compose { head = rule.Ast.head_pred; a; b } ]
          | [ a; b; c ] ->
              let aux = fresh_aux () in
              [
                Compose { head = aux; a; b };
                Compose { head = rule.Ast.head_pred; a = { label = aux; reversed = false }; b = c };
              ]
          | _ -> unsupported "%s: more than three atoms in %s" name (Ast.rule_to_string rule)))
  | _ -> unsupported "%s: head of %s is not binary" name (Ast.rule_to_string rule)

(* --- edge store --- *)

type label_store = {
  dedup : Dedup.t;
  succ : (int, Int_vec.t) Hashtbl.t;
  pred : (int, Int_vec.t) Hashtbl.t;
}

let make_label_store () =
  { dedup = Dedup.create Dedup.Fast 2; succ = Hashtbl.create 256; pred = Hashtbl.create 256 }

let adj_push table k v =
  let vec =
    match Hashtbl.find_opt table k with
    | Some vec -> vec
    | None ->
        let vec = Int_vec.create ~capacity:4 () in
        Hashtbl.add table k vec;
        vec
  in
  Int_vec.push vec v

let insert_edge ls u v =
  if Dedup.add2 ls.dedup u v then begin
    adj_push ls.succ u v;
    adj_push ls.pred v u;
    true
  end
  else false

let iter_out ls z reversed f =
  let table = if reversed then ls.pred else ls.succ in
  match Hashtbl.find_opt table z with Some vec -> Int_vec.iter f vec | None -> ()

let iter_in ls z reversed f =
  let table = if reversed then ls.succ else ls.pred in
  match Hashtbl.find_opt table z with Some vec -> Int_vec.iter f vec | None -> ()

let store_bytes ls =
  let adj t = Hashtbl.fold (fun _ v acc -> acc + Int_vec.capacity_bytes v + 32) t 0 in
  Dedup.bytes ls.dedup + adj ls.succ + adj ls.pred

let run ~pool ?deadline_vs ?trace ~edb program =
  let an = An.analyze program in
  List.iter
    (fun (p, arity) -> if arity <> 2 then unsupported "%s: relation %s has arity %d" name p arity)
    an.An.arities;
  let rounds = ref 0 in
  let productions = List.concat_map normalize_rule an.An.program.Ast.rules in
  (* label table *)
  let stores : (string, label_store) Hashtbl.t = Hashtbl.create 32 in
  let store l =
    match Hashtbl.find_opt stores l with
    | Some s -> s
    | None ->
        let s = make_label_store () in
        Hashtbl.add stores l s;
        s
  in
  (* index productions by participating label *)
  let by_label : (string, production) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun p ->
      match p with
      | Edge { src; _ } -> Hashtbl.add by_label src.label p
      | Self { src; _ } -> Hashtbl.add by_label src p
      | Compose { a; b; _ } ->
          Hashtbl.add by_label a.label p;
          if a.label <> b.label then Hashtbl.add by_label b.label p)
    productions;
  let accounted = ref 0 in
  let reaccount () =
    let b = Hashtbl.fold (fun _ s acc -> acc + store_bytes s) stores 0 in
    let delta = b - !accounted in
    if delta > 0 then Rs_storage.Memtrack.alloc delta else Rs_storage.Memtrack.free (-delta);
    accounted := b
  in
  let fx = Recstep.Fixpoint.create ?trace ?deadline:deadline_vs ~kind:"engine" pool in
  (* seed with EDB edges *)
  let worklist = ref [] in
  List.iter
    (fun p ->
      match List.assoc_opt p edb with
      | Some r ->
          let ls = store p in
          for row = 0 to Relation.nrows r - 1 do
            let u = Relation.get r ~row ~col:0 and v = Relation.get r ~row ~col:1 in
            (* edges travel packed through the worklist; vertices outside the
               packed range (negative ids) would be corrupted by unpack2 *)
            if not (Int_key.fits2 u v) then
              unsupported "%s: vertex id outside [0, 2^31) in %s" name p;
            if insert_edge ls u v then worklist := (p, Int_key.pack2 u v) :: !worklist
          done
      | None -> unsupported "%s: missing input %s" name p)
    an.An.edbs;
  reaccount ();
  (* rounds: sort the batch (Graspan's sort-heavy processing), expand in
     parallel against the adjacency lists, then a serial merge *)
  let batch = ref (Array.of_list !worklist) in
  while Array.length !batch > 0 do
    Recstep.Fixpoint.check_deadline fx;
    incr rounds;
    (match trace with
    | Some tr ->
        Rs_obs.Trace.begin_span tr ~kind:"engine" (Printf.sprintf "round-%d" !rounds);
        Rs_obs.Trace.count tr "graspan.batch_edges" (Array.length !batch)
    | None -> ());
    (* Graspan is disk-based: every round loads and stores edge partitions.
       Model that I/O (1 ms seek + 150 MB/s on 16-byte edges) — it is the
       dominant cost the paper measures for Graspan, which our in-memory
       adjacency lists would otherwise hide. *)
    Pool.add_serial pool (0.001 +. (float_of_int (16 * Array.length !batch) /. 150e6));
    Array.sort compare !batch;
    let fragments = ref [] in
    let arr = !batch in
    Pool.parallel_for pool 0 (Array.length arr) (fun lo hi ->
        let out = Int_vec.create () in
        let out_labels = ref [] in
        let emit head u v =
          out_labels := head :: !out_labels;
          Int_vec.push out (Int_key.pack2 u v)
        in
        for i = lo to hi - 1 do
          let label, key = arr.(i) in
          let u, v = Int_key.unpack2 key in
          List.iter
            (fun p ->
              match p with
              | Edge { head; src } ->
                  if src.label = label then
                    if src.reversed then emit head v u else emit head u v
              | Self { head; src; endpoint } ->
                  if src = label then (
                    match endpoint with `Src -> emit head u u | `Dst -> emit head v v)
              | Compose { head; a; b } ->
                  if a.label = label then begin
                    let x, z = if a.reversed then (v, u) else (u, v) in
                    iter_out (store b.label) z b.reversed (fun y -> emit head x y)
                  end;
                  if b.label = label then begin
                    let z, y = if b.reversed then (v, u) else (u, v) in
                    iter_in (store a.label) z a.reversed (fun x -> emit head x y)
                  end)
            (Hashtbl.find_all by_label label)
        done;
        fragments := (List.rev !out_labels, out) :: !fragments);
    (* serial merge: dedup-insert the candidates, building the next batch *)
    let next = ref [] in
    List.iter
      (fun (labels, out) ->
        List.iteri
          (fun i head ->
            let key = Int_vec.get out i in
            let u, w = Int_key.unpack2 key in
            if insert_edge (store head) u w then next := (head, key) :: !next)
          labels)
      (List.rev !fragments);
    reaccount ();
    batch := Array.of_list !next;
    (* one worklist round = one fixpoint iteration over all labels *)
    Recstep.Fixpoint.note fx ~stratum:0 ~iteration:!rounds "worklist" (Array.length !batch);
    Option.iter Rs_obs.Trace.end_span trace
  done;
  let relation_of p =
    match Hashtbl.find_opt stores p with
    | Some ls ->
        let r = Relation.create ~name:p 2 in
        Hashtbl.iter (fun u vec -> Int_vec.iter (fun v -> Relation.push2 r u v) vec) ls.succ
        |> ignore;
        Relation.account r;
        r
    | None when List.mem_assoc p an.An.arities ->
        (* known predicate that derived no edges (stores are created
           lazily): the empty relation, not an error *)
        let r = Relation.create ~name:p 2 in
        Relation.account r;
        r
    | None -> invalid_arg (Printf.sprintf "%s: unknown relation %s" name p)
  in
  Engine_intf.mk_result ~pool ?trace ~iterations:!rounds ~queries:!rounds relation_of

let maintain ~pool ?trace ~edb program =
  Engine_intf.maintain_by_recompute run ~pool ?trace ~edb program
