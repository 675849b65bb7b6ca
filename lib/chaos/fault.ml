type cls =
  | Mem
  | Txn
  | Stall
  | Crash
  | Dedup_fail
  | Dedup_drop
  | Index_fail
  | Cache_corrupt
  | Delta_abort
  | Kernel_fail

exception Injected of { cls : cls; point : string }

let all_classes =
  [ Mem; Txn; Stall; Crash; Dedup_fail; Dedup_drop; Index_fail; Cache_corrupt; Delta_abort;
    Kernel_fail ]

let cls_index = function
  | Mem -> 0
  | Txn -> 1
  | Stall -> 2
  | Crash -> 3
  | Dedup_fail -> 4
  | Dedup_drop -> 5
  | Index_fail -> 6
  | Cache_corrupt -> 7
  | Delta_abort -> 8
  | Kernel_fail -> 9

let n_classes = List.length all_classes

let cls_name = function
  | Mem -> "mem"
  | Txn -> "txn"
  | Stall -> "stall"
  | Crash -> "crash"
  | Dedup_fail -> "dedup"
  | Dedup_drop -> "dedup_drop"
  | Index_fail -> "index"
  | Cache_corrupt -> "cache"
  | Delta_abort -> "delta"
  | Kernel_fail -> "kernel"

let cls_of_name = function
  | "mem" -> Some Mem
  | "txn" -> Some Txn
  | "stall" -> Some Stall
  | "crash" -> Some Crash
  | "dedup" -> Some Dedup_fail
  | "dedup_drop" -> Some Dedup_drop
  | "index" -> Some Index_fail
  | "cache" -> Some Cache_corrupt
  | "delta" -> Some Delta_abort
  | "kernel" -> Some Kernel_fail
  | _ -> None

(* A crash mid-injection must still name what was injected. *)
let () =
  Printexc.register_printer (function
    | Injected { cls; point } ->
        Some (Printf.sprintf "Rs_chaos.Fault.Injected(%s@%s)" (cls_name cls) point)
    | _ -> None)

type spec = {
  cls : cls;
  p : float;  (* per-probe firing probability *)
  after : int;  (* probes to let through before arming *)
  limit : int;  (* max fires; -1 = unlimited *)
  threshold : int;  (* Mem: live-bytes floor below which probes don't count *)
  factor : float;  (* Stall: virtual-makespan inflation *)
}

let spec ?(p = 1.0) ?(after = 0) ?(limit = -1) ?(threshold = 0) ?(factor = 4.0) cls =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.spec: p outside [0, 1]";
  if factor < 1.0 then invalid_arg "Fault.spec: factor < 1";
  { cls; p; after; limit; threshold; factor }

type plan = { seed : int; specs : spec list }

let plan ?(seed = 0) specs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.cls then
        invalid_arg ("Fault.plan: duplicate spec for class " ^ cls_name s.cls);
      Hashtbl.add seen s.cls ())
    specs;
  { seed; specs }

let with_seed seed plan = { plan with seed }

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Plan syntax, one spec per ';'-separated group:
     mem:p=1,threshold=4096;crash:limit=1;stall:factor=8
   The class name alone means "always fire" (p=1, no limit). *)
let spec_of_string group =
  let name, params =
    match String.index_opt group ':' with
    | None -> (group, "")
    | Some i ->
        (String.sub group 0 i, String.sub group (i + 1) (String.length group - i - 1))
  in
  let name = String.trim name in
  let cls =
    match cls_of_name name with
    | Some c -> c
    | None -> parse_fail "unknown fault class %S" name
  in
  let base = spec cls in
  let apply s kv =
    let kv = String.trim kv in
    if kv = "" then s
    else
      match String.index_opt kv '=' with
      | None -> parse_fail "bad parameter %S (expected key=value)" kv
      | Some i ->
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          let int_v () =
            match int_of_string_opt v with
            | Some n -> n
            | None -> parse_fail "bad integer %S for %s" v k
          in
          let float_v () =
            match float_of_string_opt v with
            | Some f -> f
            | None -> parse_fail "bad number %S for %s" v k
          in
          (match k with
          | "p" -> { s with p = float_v () }
          | "after" -> { s with after = int_v () }
          | "limit" -> { s with limit = int_v () }
          | "threshold" -> { s with threshold = int_v () }
          | "factor" -> { s with factor = float_v () }
          | _ -> parse_fail "unknown parameter %S" k)
  in
  let s = List.fold_left apply base (String.split_on_char ',' params) in
  (* re-run the smart constructor's range checks on the parsed values;
     [plan_of_string] folds the [Invalid_argument] into [Parse_error] *)
  spec ~p:s.p ~after:s.after ~limit:s.limit ~threshold:s.threshold ~factor:s.factor s.cls

let plan_of_string ?(seed = 0) s =
  let groups =
    List.filter (fun g -> String.trim g <> "") (String.split_on_char ';' s)
  in
  if groups = [] then parse_fail "empty fault plan";
  match plan ~seed (List.map spec_of_string groups) with
  | p -> p
  | exception Invalid_argument m -> parse_fail "%s" m

let spec_to_string s =
  let d = spec s.cls in
  let params =
    List.concat
      [
        (if s.p <> d.p then [ Printf.sprintf "p=%g" s.p ] else []);
        (if s.after <> d.after then [ Printf.sprintf "after=%d" s.after ] else []);
        (if s.limit <> d.limit then [ Printf.sprintf "limit=%d" s.limit ] else []);
        (if s.threshold <> d.threshold then [ Printf.sprintf "threshold=%d" s.threshold ]
         else []);
        (if s.factor <> d.factor then [ Printf.sprintf "factor=%g" s.factor ] else []);
      ]
  in
  match params with
  | [] -> cls_name s.cls
  | ps -> cls_name s.cls ^ ":" ^ String.concat "," ps

let plan_to_string p = String.concat ";" (List.map spec_to_string p.specs)
