(* Workload inputs and their reference answers. Every input is a pure
   function of the seed; the references are computed by code that shares
   nothing with the evaluator under test (breadth-first search and a
   worklist closure for the serve programs) or by the interpreter with
   every optimization off (the batch analyses). *)

module Relation = Rs_relation.Relation
module Delta = Rs_relation.Delta
module Rng = Rs_util.Rng
module Int_key = Rs_util.Int_key
module Service = Rs_service.Service
module Admission = Rs_service.Admission
module Edb_store = Rs_service.Edb_store

(* ---------- order-independent output digests ---------- *)

type digest = { rows : int; sum : int }

let row_hash arity get =
  let h = ref (Int_key.hash arity) in
  for c = 0 to arity - 1 do
    h := Int_key.hash_combine !h (get c)
  done;
  !h

(* Sum of row hashes: independent of row order, and equal to the digest of
   the sorted distinct rows whenever the relation holds no duplicates (a
   duplicate shows up in [rows]). *)
let digest_rel rel =
  let k = Relation.arity rel in
  let sum = ref 0 in
  for r = 0 to Relation.nrows rel - 1 do
    sum := !sum + row_hash k (fun c -> Relation.get rel ~row:r ~col:c)
  done;
  { rows = Relation.nrows rel; sum = !sum }

let digest_rows rows =
  List.fold_left
    (fun d row -> { rows = d.rows + 1; sum = d.sum + row_hash (Array.length row) (Array.get row) })
    { rows = 0; sum = 0 } rows

(* ---------- pa-join: CSPA on the httpd profile ---------- *)

(* [pa_parts] independent Prog_analysis.cspa_input "httpd" programs at
   scale [pa_scale], renumbered into disjoint variable ranges. One input at
   scale 8 makes either about 1.03M or about 1.26M dedup probes, depending
   on the seed, so its work and memory jump by a fifth from one seed to the
   next; the sum of independent parts varies less. *)
let pa_parts = 4
let pa_scale = 2

let cspa_union ~seed =
  let assign = Relation.create ~name:"assign" 2 in
  let deref = Relation.create ~name:"dereference" 2 in
  let offset = ref 0 in
  for p = 0 to pa_parts - 1 do
    let part = Rs_datagen.Prog_analysis.cspa_input ~seed:((seed * pa_parts) + p) ~scale:pa_scale "httpd" in
    let top = ref 0 in
    List.iter
      (fun (name, rel) ->
        let dst = if name = "assign" then assign else deref in
        for r = 0 to Relation.nrows rel - 1 do
          let a = Relation.get rel ~row:r ~col:0 and b = Relation.get rel ~row:r ~col:1 in
          top := max !top (max a b);
          Relation.push2 dst (!offset + a) (!offset + b)
        done;
        Relation.release rel)
      part;
    offset := !offset + !top + 1
  done;
  List.iter Relation.account [ assign; deref ];
  [ ("assign", assign); ("dereference", deref) ]

(* ---------- deep-chain: CSDA on a fixed-depth control-flow graph ---------- *)

(* The [arc]/[nullEdge] shape of Prog_analysis.csda_input — straight-line
   code with forward branches of 2..17 nodes and sparse null seeds — cut
   into [cfg_procs] gap-free procedures of [cfg_len] nodes, one seed near
   each entry. csda_input's iteration count is the depth of its longest
   gap-free stretch, an extreme value that ranges from 390 to 962 over
   seeds 1-8 at scale 32, so its work doubles from one seed to the next.
   Fixed-length procedures keep the depth, and with it the work, within a
   few percent across seeds. *)
let cfg_procs = 100
let cfg_len = 930
let cfg_branch = 0.1

let csda_cfg ~seed =
  let rng = Rng.create (seed lxor 0x5ca1ab1e) in
  let arc = Relation.create ~name:"arc" 2 in
  let null_edge = Relation.create ~name:"nullEdge" 2 in
  for p = 0 to cfg_procs - 1 do
    let base = p * cfg_len in
    for d = 0 to cfg_len - 2 do
      Relation.push2 arc (base + d) (base + d + 1);
      if Rng.bool rng cfg_branch then
        Relation.push2 arc (base + d) (base + min (cfg_len - 1) (d + 2 + Rng.int rng 16))
    done;
    let s = base + Rng.int rng (cfg_len / 8) in
    Relation.push2 null_edge s (s + 1)
  done;
  List.iter Relation.account [ arc; null_edge ];
  [ ("nullEdge", null_edge); ("arc", arc) ]

(* ---------- serve-churn: a Zipf multi-tenant trace ---------- *)

(* Three size-class databases, as in Rs_load. Each is a dependency chain of
   [len] vertices that drains into a dense hot region of [hot] vertices
   (G(hot, hot_p)). Reach queries start in the first half of the chain, so
   a miss runs hundreds of semi-naive iterations through the compiled
   kernel and costs several times the 2.5 ms the simulator charges per
   run; on
   Rs_load's G(n, 0.05) graphs a reach miss is ~3 ms, almost all charged,
   and growing those graphs makes SG's maintained view take minutes to
   build. SG pairs and the churn live in the hot region.

   Every delta goes to the smallest database. The service's shared index
   manager keys indexes by relation name alone, so a delta to one
   database's [arc] re-points the [arc] index last built on another
   database at the new relation whenever that index is no longer than it
   (Edb_store.apply -> Index_manager.rebase_to), and later queries probe
   the wrong rows. An [arc] index from the two larger databases is always
   longer than the smallest one's relation, by more than 200 rows, so the
   rebase refuses it and the index is rebuilt.

   A reach run costs about 45% more once its [arc] relation holds more
   than 1024 rows. A chain of 800 put the smallest database at 1005-1049
   rows, on either side of that step depending on the seed and on how
   many deltas had landed. The chain lengths keep every database clear of
   it at every version: about 930 rows for the smallest, 1230 and 1330
   for the others. *)
let dbs = [| ("db_gold", 1100); ("db_silver", 1000); ("db_bronze", 700) |]
let hot = 48
let hot_p = 0.1
let tenants = 1000
let skew = 1.1
let queries = 200
let horizon_s = 40.0
let deltas = 6
let delta_ops = 4

type query = Reach of int | Sg | Twohop of int

type sub = { id : string; tenant : string; db : int; query : query; at : float }

type delta = { d_at : float; d_db : int; d_edges : (int * int) list }

type trace = {
  subs : sub list;  (* arrival order *)
  deltas : delta list;  (* time order *)
  base : (int * int) list array;  (* per database, the initial arc edges *)
}

let db_name i = fst dbs.(i)
let db_len i = snd dbs.(i)

(* The Rs_load program mix. *)
let reach_src c =
  Printf.sprintf ".input arc\nreach(y) :- arc(%d, y).\nreach(y) :- reach(x), arc(x, y).\n.output reach" c

let twohop_src c =
  Printf.sprintf ".input arc\ntwohop(y) :- arc(%d, x), arc(x, y).\n.output twohop" c

let source = function
  | Reach c -> reach_src c
  | Twohop c -> twohop_src c
  | Sg -> Recstep.Programs.sg

let output_name = function Reach _ -> "reach" | Twohop _ -> "twohop" | Sg -> "sg"

(* Rs_load's rank cuts: ~1% gold, ~9% silver, the tail bronze. *)
let class_of_rank rank =
  let gold = max 1 (tenants / 100) in
  let silver = max (gold + 1) (tenants / 10) in
  if rank < gold then 0 else if rank < silver then 1 else 2

let graph rng i =
  let len = db_len i in
  let edges = ref [] in
  for v = 0 to len - 2 do
    edges := (v, v + 1) :: !edges
  done;
  edges := (len - 1, len) :: !edges;
  for u = len to len + hot - 1 do
    for v = len to len + hot - 1 do
      if u <> v && Rng.bool rng hot_p then edges := (u, v) :: !edges
    done
  done;
  List.rev !edges

(* Systematic sampling of the Zipf law: query [q] goes to the rank whose
   CDF interval holds [(q + u) / queries], for one seeded offset [u]. Every
   seed sends each tenant its expected share to within one query; plain
   sampling varied the number of distinct tenants, hence of engine runs,
   by 15% from seed to seed. *)
let zipf_ranks rng =
  let zipf = Rs_load.Zipf.create ~n:tenants ~s:skew in
  let u = Rng.float rng 1.0 in
  let cdf = ref (Rs_load.Zipf.weight zipf 0) and rank = ref 0 in
  List.init queries (fun q ->
      let x = (float_of_int q +. u) /. float_of_int queries in
      while !rank < tenants - 1 && !cdf <= x do
        incr rank;
        cdf := !cdf +. Rs_load.Zipf.weight zipf !rank
      done;
      !rank)

(* A tenant watches one query. Its kind follows the Rs_load mix (5 reach,
   3 SG, 2 two-hop in 10) by the tenant's place among its class's tenants,
   so each class gets the same mix on every seed; its source vertex is
   distinct from the other tenants' on the same database.
   Reach sources span the first half of the chain, so the three
   databases' miss costs overlap into one smooth spread: with sources near
   the head, the median miss sat between the smallest database's mode and
   the others' and jumped by a quarter from seed to seed. The [j]-th reach
   source of a database is the point [u + j * phi] (mod 1) of the golden
   ratio sequence, for one seeded offset [u] per database: every prefix of
   the sequence covers the range evenly, so the mix of long and short
   reach runs changes little from seed to seed, as with the Zipf
   sampling above. *)
let golden = (sqrt 5.0 -. 1.0) /. 2.0

let tenant_queries rng ranks =
  let queries = Hashtbl.create 64 and used = Hashtbl.create 64 in
  let seen = Array.make (Array.length dbs) 0 in
  let reaches = Array.make (Array.length dbs) 0 in
  let offset = Array.init (Array.length dbs) (fun _ -> Rng.float rng 1.0) in
  (* the first unused vertex at or after [lo + v] (mod n) *)
  let claim db lo n v =
    let rec go v =
      if Hashtbl.mem used (db, lo + v) then go ((v + 1) mod n)
      else begin
        Hashtbl.add used (db, lo + v) ();
        lo + v
      end
    in
    go v
  in
  let fresh db lo n = claim db lo n (Rng.int rng n) in
  let spread db n =
    let j = reaches.(db) in
    reaches.(db) <- j + 1;
    let x = Float.rem (offset.(db) +. (float_of_int j *. golden)) 1.0 in
    claim db 0 n (min (n - 1) (int_of_float (x *. float_of_int n)))
  in
  List.iter
    (fun rank ->
      if not (Hashtbl.mem queries rank) then begin
        let db = class_of_rank rank in
        let len = db_len db in
        let q =
          match seen.(db) mod 10 with
          | 0 | 1 | 2 | 3 | 4 -> Reach (spread db (len / 2))
          | 5 | 6 | 7 -> Sg
          | _ -> Twohop (fresh db len hot)
        in
        seen.(db) <- seen.(db) + 1;
        Hashtbl.add queries rank q
      end)
    ranks;
  Hashtbl.find queries

let trace ~seed =
  let rng = Rng.create seed in
  let base = Array.init (Array.length dbs) (fun i -> graph rng i) in
  let ranks = zipf_ranks rng in
  let query = tenant_queries rng ranks in
  let subs =
    List.mapi
      (fun q rank ->
        (* open loop, uniform arrivals: no bursts *)
        let at = Rng.float rng horizon_s in
        let db = class_of_rank rank in
        { id = Printf.sprintf "q%d" (q + 1); tenant = "t" ^ string_of_int rank; db; query = query rank; at })
      ranks
    |> List.stable_sort (fun a b -> compare a.at b.at)
  in
  let deltas =
    List.init deltas (fun d ->
        let db = Array.length dbs - 1 in
        let len = db_len db in
        {
          d_at = horizon_s *. (float_of_int d +. 0.5) /. float_of_int deltas;
          d_db = db;
          d_edges =
            List.init delta_ops (fun _ -> (len + Rng.int rng hot, len + Rng.int rng hot));
        })
  in
  { subs; deltas; base }

let relation_of_edges edges =
  let r = Relation.create ~name:"arc" 2 in
  List.iter (fun (u, v) -> Relation.push2 r u v) edges;
  Relation.account r;
  r

let make_store t =
  let store = Edb_store.create () in
  Array.iteri
    (fun i edges -> Edb_store.define store (db_name i) [ ("arc", relation_of_edges edges) ])
    t.base;
  store

let parse_memo : (string, Recstep.Ast.program) Hashtbl.t = Hashtbl.create 64

let program q =
  let src = source q in
  match Hashtbl.find_opt parse_memo src with
  | Some p -> p
  | None ->
      let p = Recstep.Parser.parse src in
      Hashtbl.add parse_memo src p;
      p

let delta_of_edges edges = Delta.of_inserts "arc" (List.map (fun (u, v) -> [| u; v |]) edges)

let events t =
  let subs =
    List.map
      (fun s ->
        let mem = match s.query with Sg -> Admission.Medium | _ -> Admission.Small in
        Service.Submit
          (Service.submission ~id:s.id ~at:s.at ~mem ~tenant:s.tenant ~edb:(db_name s.db)
             (program s.query)))
      t.subs
  in
  let deltas =
    List.map
      (fun d -> Service.delta_event ~at:d.d_at ~edb:(db_name d.d_db) (delta_of_edges d.d_edges))
      t.deltas
  in
  List.stable_sort
    (fun a b -> compare (Service.event_time a) (Service.event_time b))
    (subs @ deltas)

(* The store version a query dispatched at [started] saw: the service
   applies every event due at or before the clock before it dispatches. *)
let version t ~db ~started =
  List.length (List.filter (fun d -> d.d_db = db && d.d_at <= started) t.deltas)

let edges_at t ~db ~version =
  let mine = List.filter (fun d -> d.d_db = db) t.deltas in
  List.concat (t.base.(db) :: List.filteri (fun i _ -> i < version) (List.map (fun d -> d.d_edges) mine))

(* ---------- reference answers for the serve programs ---------- *)

let successors t ~db ~version =
  let n = db_len db + hot in
  let adj = Array.make n [] in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (u, v) ->
      if not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.add seen (u, v) ();
        adj.(u) <- v :: adj.(u)
      end)
    (edges_at t ~db ~version);
  adj

let answer adj = function
  | Reach src ->
      (* vertices reachable from [src] by one or more arcs *)
      let seen = Array.make (Array.length adj) false in
      let rec walk = function
        | [] -> ()
        | v :: rest ->
            let fresh = List.filter (fun w -> not seen.(w)) adj.(v) in
            List.iter (fun w -> seen.(w) <- true) fresh;
            walk (fresh @ rest)
      in
      walk [ src ];
      List.filter_map (fun v -> if seen.(v) then Some [| v |] else None)
        (List.init (Array.length adj) Fun.id)
  | Twohop src ->
      List.concat_map (fun x -> adj.(x)) adj.(src)
      |> List.sort_uniq compare
      |> List.map (fun y -> [| y |])
  | Sg ->
      (* same generation: siblings, then pairs whose parents are a pair *)
      let pairs = Hashtbl.create 4096 in
      let work = Queue.create () in
      let add x y =
        if not (Hashtbl.mem pairs (x, y)) then begin
          Hashtbl.add pairs (x, y) ();
          Queue.add (x, y) work
        end
      in
      Array.iter
        (fun kids -> List.iter (fun x -> List.iter (fun y -> if x <> y then add x y) kids) kids)
        adj;
      while not (Queue.is_empty work) do
        let a, b = Queue.pop work in
        List.iter (fun x -> List.iter (fun y -> add x y) adj.(b)) adj.(a)
      done;
      Hashtbl.fold (fun (x, y) () acc -> [| x; y |] :: acc) pairs []
      |> List.sort compare

(* Checksum of the value the service should serve, in the result cache's
   own format (output name -> sorted distinct rows). *)
let expected_checksum t =
  let adjs = Hashtbl.create 16 and sums = Hashtbl.create 256 in
  fun ~db ~version q ->
    match Hashtbl.find_opt sums (db, version, q) with
    | Some c -> c
    | None ->
        let adj =
          match Hashtbl.find_opt adjs (db, version) with
          | Some a -> a
          | None ->
              let a = successors t ~db ~version in
              Hashtbl.add adjs (db, version) a;
              a
        in
        let c = Rs_service.Result_cache.value_checksum [ (output_name q, answer adj q) ] in
        Hashtbl.add sums (db, version, q) c;
        c
