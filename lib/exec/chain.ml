module Relation = Rs_relation.Relation
module Int_vec = Rs_util.Int_vec
module Dedup = Rs_relation.Dedup
module Hash_index = Rs_relation.Hash_index

type step = {
  at : int array;
  src : int array array;
  preds : Expr.pred list;
  bound : int;
  probe : int array;
  key : int array;
  view : Hash_index.view;
}

(* A membership check of the frame's tuple in columns [cols]: the match
   survives iff [set]'s answer is [keep] (true: a semi-join, false: a
   negation). *)
type check = { set : Dedup.t; cols : int array; tuple : int array; keep : bool }

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

let check ~keep set cols = { set; cols; tuple = Array.make (Array.length cols) 0; keep }
let anti set cols = check ~keep:false set cols
let semi set cols = check ~keep:true set cols

type t = {
  frame : int array;
  driver : step;
  steps : step array;
  checks : check array;
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

(* Whether every check from [i] on gets its [keep] answer for the frame's
   tuple. *)
let rec checked frame (checks : check array) i =
  i = Array.length checks
  ||
  let a = checks.(i) in
  (match a.cols with
  | [| c0; c1 |] -> Dedup.mem2 a.set frame.(c0) frame.(c1) = a.keep
  | cols ->
      for j = 0 to Array.length cols - 1 do
        a.tuple.(j) <- frame.(cols.(j))
      done;
      Dedup.mem_row a.set a.tuple = a.keep)
  && checked frame checks (i + 1)

(* A chain link: row [r]'s 32-bit successor in the view's [nexts], read
   with the primitive itself so that each chain step is one load, not a
   call into [Hash_index]. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(* Step [i] scans rows [0, bound) newest first, or walks its bucket chain
   newest row first and skips rows past its bound or with another key; it
   binds each match and descends. Past the last step come the set checks,
   the residual and the emit. *)
let rec descend c i =
  let frame = c.frame in
  if i = Array.length c.steps then begin
    if checked frame c.checks 0 && passes frame c.residual then c.emit ()
  end
  else begin
    let s = c.steps.(i) in
    let nk = Array.length s.probe in
    if nk = 0 then
      for r = s.bound - 1 downto 0 do
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
        row := Int32.to_int (get32 nexts (r lsl 2))
      done
    end
  end

let drive c lo hi =
  let d = c.driver in
  for row = lo to hi - 1 do
    bind c.frame d.at d.src row;
    if passes c.frame d.preds then descend c 0
  done
