module Rng = Rs_util.Rng
module Int_key = Rs_util.Int_key

type state = {
  plan : Fault.plan;
  specs : Fault.spec option array;  (* indexed by Fault.cls_index *)
  rngs : Rng.t array;  (* one deterministic stream per class *)
  probes : int array;
  fired : int array;
}

(* The active plan is a single scoped global: fault points live in the
   lowest layers (Memtrack, Pool, Dedup), which have no way to receive a
   context argument without threading chaos through every signature in the
   repo. [with_plan] is the only writer and restores the previous state on
   every exit path, so a crash mid-scope can never leak an armed plan into
   later runs (the bug the old [Dedup.chaos_drop] flag had). *)
let current : state option ref = ref None

let active () = !current <> None

let state_of (plan : Fault.plan) =
  let specs = Array.make Fault.n_classes None in
  List.iter (fun (s : Fault.spec) -> specs.(Fault.cls_index s.cls) <- Some s) plan.specs;
  {
    plan;
    specs;
    rngs =
      Array.init Fault.n_classes (fun i ->
          Rng.create ((plan.seed * 0x9E3779B9) lxor ((i + 1) * 0x85EBCA6B)));
    probes = Array.make Fault.n_classes 0;
    fired = Array.make Fault.n_classes 0;
  }

let with_plan plan f =
  let prev = !current in
  current := Some (state_of plan);
  Fun.protect ~finally:(fun () -> current := prev) f

let fires () =
  match !current with
  | None -> []
  | Some st ->
      List.filter_map
        (fun cls ->
          let n = st.fired.(Fault.cls_index cls) in
          if n > 0 then Some (cls, n) else None)
        Fault.all_classes

let plan_label () =
  match !current with Some st -> Some (Fault.plan_to_string st.plan) | None -> None

(* One probe: advance the class's deterministic stream and decide. The
   stream advances on every armed probe (fired or not), so a decision
   depends only on the plan and the probe's ordinal, never on wall time. *)
let decide st (s : Fault.spec) =
  let i = Fault.cls_index s.cls in
  let n = st.probes.(i) in
  st.probes.(i) <- n + 1;
  let draw = Rng.float st.rngs.(i) 1.0 in
  if n < s.after then false
  else if s.limit >= 0 && st.fired.(i) >= s.limit then false
  else if draw < s.p then begin
    st.fired.(i) <- st.fired.(i) + 1;
    true
  end
  else false

let probe cls =
  match !current with
  | None -> false
  | Some st -> (
      match st.specs.(Fault.cls_index cls) with
      | None -> false
      | Some s -> decide st s)

let raise_if cls point =
  if probe cls then raise (Fault.Injected { cls; point })

(* --- the per-class probe API -------------------------------------------- *)

let mem_should_fail ~live =
  match !current with
  | None -> false
  | Some st -> (
      match st.specs.(Fault.cls_index Fault.Mem) with
      | None -> false
      | Some s -> live >= s.threshold && decide st s)

let txn_should_abort ~point = raise_if Fault.Txn point

let stall_factor () =
  match !current with
  | None -> 1.0
  | Some st -> (
      match st.specs.(Fault.cls_index Fault.Stall) with
      | None -> 1.0
      | Some s -> if decide st s then s.factor else 1.0)

let crash_point ~point = raise_if Fault.Crash point

let dedup_should_fail ~point = raise_if Fault.Dedup_fail point

(* Per-key, not per-probe: the same key is dropped (or kept) everywhere it
   is probed, so the injected corruption is a consistent "lost derivation"
   — the failure shape the differential oracle is meant to catch — and the
   decision is independent of chunking order in the parallel dedup path. *)
let dedup_drops ~key =
  match !current with
  | None -> false
  | Some st -> (
      match st.specs.(Fault.cls_index Fault.Dedup_drop) with
      | None -> false
      | Some s ->
          let i = Fault.cls_index Fault.Dedup_drop in
          let h = Int_key.hash (key lxor (st.plan.seed * 0x2545F491)) in
          let drop = float_of_int (h land 0xFFFF) < (s.p *. 65536.0) in
          st.probes.(i) <- st.probes.(i) + 1;
          if drop then st.fired.(i) <- st.fired.(i) + 1;
          drop)

let index_should_fail ~point = raise_if Fault.Index_fail point

let cache_should_corrupt () = probe Fault.Cache_corrupt

let delta_should_abort ~point = raise_if Fault.Delta_abort point

let kernel_should_fail ~point = raise_if Fault.Kernel_fail point
