module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace

exception Timeout_simulated of float

let expire v = raise (Timeout_simulated v)
let timeout pool = expire (Pool.vtime_now pool)

type t = {
  pool : Pool.t;
  trace : Trace.t option;
  on_iteration : (Trace.iteration -> unit) option;
  deadline : float option;
  kind : string;
  counter : string;
  mutable iterations : int;
}

let create ?trace ?on_iteration ?deadline ~kind pool =
  { pool; trace; on_iteration; deadline; kind; counter = kind ^ ".iterations"; iterations = 0 }

let check_deadline t =
  match t.deadline with
  | Some budget ->
      let v = Pool.vtime_now t.pool in
      if v > budget then expire v
  | None -> ()

let iterations t = t.iterations

let count_iteration t =
  t.iterations <- t.iterations + 1;
  match t.trace with Some tr -> Trace.count tr t.counter 1 | None -> ()

let note t ~stratum ~iteration idb rows =
  if t.trace <> None || t.on_iteration <> None then begin
    let info =
      { Trace.it_stratum = stratum; it_iteration = iteration; it_idb = idb; it_delta_rows = rows;
        it_vtime = Pool.vtime_now t.pool }
    in
    (match t.trace with Some tr -> Trace.iteration tr info | None -> ());
    match t.on_iteration with Some f -> f info | None -> ()
  end

(* [name ()] is built only when a trace is attached: it runs once per
   iteration. *)
let span t name f =
  match t.trace with Some tr -> Trace.span tr ~kind:t.kind (name ()) f | None -> f ()

let stratum t index f =
  check_deadline t;
  span t (fun () -> Printf.sprintf "stratum-%d" index) f

let run t ~recursive ~base ~delta =
  count_iteration t;
  let rec go live i =
    if recursive && live then begin
      count_iteration t;
      check_deadline t;
      go (span t (fun () -> Printf.sprintf "iter-%d" i) (fun () -> delta i)) (i + 1)
    end
  in
  go (span t (fun () -> "iter-0") base) 1
