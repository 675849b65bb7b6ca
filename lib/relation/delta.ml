type sign = Insert | Retract

type op = { sign : sign; row : int array }

type t = (string * op list) list

type change = { insert : int array list; retract : int array list }

let empty : t = []

let is_empty (d : t) = List.for_all (fun (_, ops) -> ops = []) d

let size (d : t) = List.fold_left (fun acc (_, ops) -> acc + List.length ops) 0 d

let rels (d : t) =
  List.rev
    (List.fold_left (fun acc (r, _) -> if List.mem r acc then acc else r :: acc) [] d)

let ops (d : t) rel =
  List.concat_map (fun (r, ops) -> if r = rel then ops else []) d

let of_inserts rel rows : t = [ (rel, List.map (fun row -> { sign = Insert; row }) rows) ]

let of_retracts rel rows : t = [ (rel, List.map (fun row -> { sign = Retract; row }) rows) ]

let merge (a : t) (b : t) : t = a @ b

(* Net change per relation: replay the ops against a membership overlay.
   The overlay records only touched tuples (key = int list, for structural
   hashing); untouched membership comes from [mem]. *)
let normalize ~mem (d : t) =
  List.filter_map
    (fun rel ->
      let overlay : (int list, bool) Hashtbl.t = Hashtbl.create 16 in
      let held row =
        let k = Array.to_list row in
        match Hashtbl.find_opt overlay k with
        | Some b -> b
        | None -> mem rel row
      in
      let inserted = ref [] and retracted = ref [] in
      List.iter
        (fun (r, ops) ->
          if r = rel then
            List.iter
              (fun { sign; row } ->
                match sign with
                | Insert ->
                    if not (held row) then begin
                      Hashtbl.replace overlay (Array.to_list row) true;
                      inserted := row :: !inserted
                    end
                | Retract ->
                    if held row then begin
                      Hashtbl.replace overlay (Array.to_list row) false;
                      retracted := row :: !retracted
                    end)
              ops)
        d;
      (* a tuple both retracted and (re)inserted along the way nets to its
         final overlay state vs its initial membership *)
      let net_insert =
        List.rev (List.filter (fun row -> not (mem rel row) && held row) !inserted)
      in
      let net_retract =
        List.rev (List.filter (fun row -> mem rel row && not (held row)) !retracted)
      in
      (* drop duplicates introduced by repeated flip-flops: keep first *)
      let dedup rows =
        let seen = Hashtbl.create 16 in
        List.filter
          (fun row ->
            let k = Array.to_list row in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          rows
      in
      let insert = dedup net_insert and retract = dedup net_retract in
      if insert = [] && retract = [] then None else Some (rel, { insert; retract }))
    (rels d)

let of_changes (cs : (string * change) list) : t =
  List.map
    (fun (rel, c) ->
      ( rel,
        List.map (fun row -> { sign = Retract; row }) c.retract
        @ List.map (fun row -> { sign = Insert; row }) c.insert ))
    cs

let count (d : t) sign =
  List.fold_left
    (fun acc (_, ops) ->
      acc + List.length (List.filter (fun o -> o.sign = sign) ops))
    0 d
