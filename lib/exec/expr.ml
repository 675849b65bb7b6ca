type t =
  | Col of int
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred = Cmp of cmp * t * t

let rec eval_frame frame = function
  | Col c -> frame.(c)
  | Const k -> k
  | Add (a, b) -> eval_frame frame a + eval_frame frame b
  | Sub (a, b) -> eval_frame frame a - eval_frame frame b
  | Mul (a, b) -> eval_frame frame a * eval_frame frame b

let[@inline] holds op (x : int) (y : int) =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let test_frame frame (Cmp (op, a, b)) = holds op (eval_frame frame a) (eval_frame frame b)

let rec cols = function
  | Col c -> [ c ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> cols a @ cols b

let pred_cols (Cmp (_, a, b)) = cols a @ cols b

let rec shift k = function
  | Col c -> Col (c + k)
  | Const x -> Const x
  | Add (a, b) -> Add (shift k a, shift k b)
  | Sub (a, b) -> Sub (shift k a, shift k b)
  | Mul (a, b) -> Mul (shift k a, shift k b)

let shift_pred k (Cmp (op, a, b)) = Cmp (op, shift k a, shift k b)

let rec to_string = function
  | Col c -> Printf.sprintf "$%d" c
  | Const k -> string_of_int k
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)

let cmp_to_string = function
  | Eq -> "=" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pred_to_string (Cmp (op, a, b)) =
  Printf.sprintf "%s %s %s" (to_string a) (cmp_to_string op) (to_string b)
