type t = { words : int array; n : int }

let create n = { words = Array.make ((n + 62) / 63) 0; n }

let mem t i = t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let add t i =
  let w = i / 63 in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod 63))

let remove t i =
  let w = i / 63 in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod 63))

let test_and_set t i =
  let w = i / 63 and b = 1 lsl (i mod 63) in
  let old = t.words.(w) in
  if old land b <> 0 then false
  else begin
    t.words.(w) <- old lor b;
    true
  end

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      let b = !w land - !w in
      let i = (wi * 63) + (let rec lg b k = if b = 1 then k else lg (b lsr 1) (k + 1) in lg b 0) in
      f i;
      w := !w land lnot b
    done
  done

let union_into dst src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into";
  let changed = ref false in
  for i = 0 to Array.length dst.words - 1 do
    let u = dst.words.(i) lor src.words.(i) in
    if u <> dst.words.(i) then begin
      dst.words.(i) <- u;
      changed := true
    end
  done;
  !changed
