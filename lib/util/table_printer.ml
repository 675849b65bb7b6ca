let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let pad r = r @ List.init (ncols - List.length r) (fun _ -> "") in
  let all = List.map pad all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let buf = Buffer.create 1024 in
  let line row =
    List.iteri
      (fun i c ->
        Buffer.add_string buf c;
        if i < ncols - 1 then Buffer.add_string buf (String.make (widths.(i) - String.length c + 2) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  (match all with
  | h :: rest ->
      line h;
      Buffer.add_string buf (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
      Buffer.add_char buf '\n';
      List.iter line rest
  | [] -> ());
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)
