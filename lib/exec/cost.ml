module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
type choice = Opsd | Tpsd

let default_alpha = 1.3

(* Self-contained set-difference micro-kernels for calibration (mirrors of
   Algorithms 4 and 5 without the executor plumbing): the hash tables are
   membership sets, as the executor's are. *)
let pair_set r =
  let n = Relation.nrows r in
  let set = Dedup.create_set ~expected:n 2 in
  Dedup.add_rows set r [| 0; 1 |] 0 n;
  set

let count_absent ~rdelta set =
  let kept = ref 0 in
  for row = 0 to Relation.nrows rdelta - 1 do
    if not (Dedup.mem2 set (Relation.get rdelta ~row ~col:0) (Relation.get rdelta ~row ~col:1))
    then incr kept
  done;
  !kept

let mini_opsd ~rdelta ~r = count_absent ~rdelta (pair_set r)

let mini_tpsd ~rdelta ~r =
  let build, probe =
    if Relation.nrows r <= Relation.nrows rdelta then (r, rdelta) else (rdelta, r)
  in
  let hb = pair_set build in
  let inter = Relation.create 2 in
  for row = 0 to Relation.nrows probe - 1 do
    let x = Relation.get probe ~row ~col:0 and y = Relation.get probe ~row ~col:1 in
    if Dedup.mem2 hb x y then Relation.push2 inter x y
  done;
  count_absent ~rdelta (pair_set inter)

(* Offline training (the paper's pre-computed α): run both set-difference
   translations on synthetic (R, Rδ) pairs of growing β = |R|/|Rδ| and fit α
   from the observed cost crossover β*, using the model's own threshold
   β* = 2α/(α-1)  ⇔  α = β*/(β*-2). *)
let calibrate pool () =
  ignore pool;
  let n_delta = 1 lsl 14 in
  let rng = Rs_util.Rng.create 0xca11b8 in
  let make_pair beta =
    let n_r = int_of_float (beta *. float_of_int n_delta) in
    let r = Relation.create 2 in
    for i = 0 to n_r - 1 do
      Relation.push2 r i (Rs_util.Rng.int rng 1_000_000)
    done;
    let rdelta = Relation.create 2 in
    for i = 0 to n_delta - 1 do
      if i land 1 = 0 && n_r > 0 then begin
        let row = Rs_util.Rng.int rng n_r in
        Relation.push2 rdelta (Relation.get r ~row ~col:0) (Relation.get r ~row ~col:1)
      end
      else Relation.push2 rdelta (1_000_000 + i) (Rs_util.Rng.int rng 1_000_000)
    done;
    (r, rdelta)
  in
  let diff_at beta =
    let r, rdelta = make_pair beta in
    let time f =
      let t0 = Rs_util.Clock.now () in
      ignore (f ());
      Rs_util.Clock.now () -. t0
    in
    (* interleave 2 runs of each to damp noise *)
    let to_ = time (fun () -> mini_opsd ~rdelta ~r) +. time (fun () -> mini_opsd ~rdelta ~r) in
    let tt = time (fun () -> mini_tpsd ~rdelta ~r) +. time (fun () -> mini_tpsd ~rdelta ~r) in
    to_ -. tt
  in
  let betas = [ 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ] in
  let diffs = List.map (fun b -> (b, diff_at b)) betas in
  (* find the first sign change and interpolate the crossover *)
  let rec crossover = function
    | (b1, d1) :: ((b2, d2) :: _ as rest) ->
        if d1 <= 0.0 && d2 > 0.0 then
          let t = d1 /. (d1 -. d2) in
          Some (b1 +. (t *. (b2 -. b1)))
        else crossover rest
    | _ -> None
  in
  let beta_star =
    match crossover diffs with
    | Some b -> b
    | None -> if List.for_all (fun (_, d) -> d > 0.0) diffs then 2.5 else 64.0
  in
  let beta_star = if beta_star < 2.5 then 2.5 else if beta_star > 64.0 then 64.0 else beta_star in
  beta_star /. (beta_star -. 2.0)

(* A persistent membership set of R makes OPSD's build free, and TPSD's
   first phase is OPSD's whole probe loop: the α model only decides when R
   is re-indexed per query. *)
let choose ~alpha ~r_index_persists ~r_rows ~rdelta_rows ~mu_prev =
  if r_index_persists || rdelta_rows = 0 then Opsd
  else begin
    let beta = float_of_int r_rows /. float_of_int rdelta_rows in
    if beta <= 1.0 then Opsd
    else begin
      let alpha = if alpha <= 1.0 then 1.1 else alpha in
      let threshold = 2.0 *. alpha /. (alpha -. 1.0) in
      if beta >= threshold then Tpsd
      else
        match mu_prev with
        | None -> Opsd
        | Some mu ->
            let mu = if mu < 1.0 then 1.0 else mu in
            (* Sign of equation (5): positive → OPSD costlier → pick TPSD. *)
            if (beta *. (alpha -. 1.0)) -. (alpha +. (alpha /. mu)) > 0.0 then Tpsd else Opsd
    end
  end

let observed_mu ~rdelta_rows ~intersection_rows =
  if intersection_rows = 0 then float_of_int (max 1 rdelta_rows)
  else float_of_int rdelta_rows /. float_of_int intersection_rows

(* --- compiled-kernel admission gate ------------------------------------ *)

let kernel_max_arity = 3

(* The compiler monomorphizes emitters up to arity 3; beyond that the
   generic row path erases the win over the interpreter. Cold rules
   (non-recursive strata run exactly once) never amortize compilation, and
   aggregates need the interpreter's grouping machinery. Shape-level
   reasons (negation, deep join trees) are reported by the compiler itself;
   this gate only holds the facts the interpreter knows before looking at
   plans. *)
let kernel_gate ~recursive ~has_agg ~head_arity =
  if not recursive then Error "cold"
  else if has_agg then Error "aggregate"
  else if head_arity > kernel_max_arity then Error "arity"
  else Ok ()
