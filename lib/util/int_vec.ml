type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

let length v = v.len

let grow v needed =
  let cap = max needed (2 * Array.length v.data) in
  let data = Array.make cap 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Int_vec.set";
  Array.unsafe_set v.data i x

let clear v = v.len <- 0

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }

let create_sized n = { data = Array.make (max n 1) 0; len = n }

let blit src spos dst dpos len =
  if spos < 0 || len < 0 || spos + len > src.len || dpos < 0 || dpos + len > dst.len then
    invalid_arg "Int_vec.blit";
  Array.blit src.data spos dst.data dpos len

let unsafe_data v = v.data

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let append dst src =
  if dst.len + src.len > Array.length dst.data then grow dst (dst.len + src.len);
  Array.blit src.data 0 dst.data dst.len src.len;
  dst.len <- dst.len + src.len

let capacity_bytes v = 8 * Array.length v.data
