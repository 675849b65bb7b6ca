module Relation = Rs_relation.Relation
module Delta = Rs_relation.Delta

exception Script_error of { path : string; line : int; msg : string }

type t = {
  settings : (string * string) list;
  defs : (string * (string * Relation.t) list) list;
  events : Service.event list;
}

(* Every [set] key the serve command reads, with the type of its value.
   [parse] rejects any other key and any value that does not parse as its
   key's type, so a typo cannot silently fall back to a default. *)
type kind = Int | Float | Bool

let setting_kinds =
  [
    ("workers", Int);
    ("queue", Int);
    ("cache_bytes", Int);
    ("seed", Int);
    ("budget", Int);
    ("hit_cost", Float);
    ("ivm", Bool);
    ("ivm_max_delta", Int);
    ("kernels", Bool);
    ("autoscale", Bool);
    ("autoscale_min", Int);
    ("autoscale_max", Int);
    ("autoscale_target_ms", Float);
  ]

let kind_name = function Int -> "an integer" | Float -> "a number" | Bool -> "true or false"

let parses kind v =
  match kind with
  | Int -> int_of_string_opt v <> None
  | Float -> float_of_string_opt v <> None
  | Bool -> bool_of_string_opt v <> None

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* Helpers signal malformed input with [Failure msg]; the per-line
   dispatcher in [parse] turns that into a positioned [Script_error]. *)

(* "rel:arity" *)
let parse_spec spec =
  match String.index_opt spec ':' with
  | Some i -> (
      let rel = String.sub spec 0 i in
      let a = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt a with
      | Some arity when arity >= 1 && rel <> "" -> (rel, arity)
      | _ -> failwith (Printf.sprintf "bad relation spec %S (expected name:arity)" spec))
  | None -> failwith (Printf.sprintf "bad relation spec %S (expected name:arity)" spec)

(* "0 1; 1 2; 2 3" with a fixed arity *)
let parse_rows ~arity s =
  String.split_on_char ';' s
  |> List.filter_map (fun row ->
         match tokens row with
         | [] -> None
         | fields ->
             let vals =
               List.map
                 (fun f ->
                   match int_of_string_opt f with
                   | Some v -> v
                   | None -> failwith (Printf.sprintf "not an integer: %S" f))
                 fields
             in
             if List.length vals <> arity then
               failwith
                 (Printf.sprintf "expected %d fields, got %d in row %S" arity
                    (List.length vals) row)
             else Some (Array.of_list vals))

(* split a line at its first [c], trimming both halves *)
let split_at line c what =
  match String.index_opt line c with
  | Some i ->
      ( String.trim (String.sub line 0 i),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  | None -> failwith (Printf.sprintf "missing %c in %s line" c what)

let kv_args toks =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> failwith (Printf.sprintf "expected key=value, got %S" tok))
    toks

let parse ?(path = "<script>") src =
  let dir = Filename.dirname path in
  let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
  let programs = Hashtbl.create 8 in
  let program_of p =
    let p = resolve p in
    match Hashtbl.find_opt programs p with
    | Some ast -> ast
    | None ->
        let ast = Recstep.Parser.parse_file p in
        Hashtbl.add programs p ast;
        ast
  in
  let settings = ref [] and defs = ref [] and events = ref [] in
  let arity_of name rel =
    match List.assoc_opt name !defs with
    | Some rels -> (
        match List.assoc_opt rel rels with
        | Some r -> Relation.arity r
        | None -> failwith (Printf.sprintf "unknown relation %s.%s" name rel))
    | None -> failwith (Printf.sprintf "unknown EDB %S" name)
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let fail msg = raise (Script_error { path; line = lineno; msg }) in
      let err fmt = Printf.ksprintf fail fmt in
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then
        try
        match tokens line with
        | "set" :: key :: value :: [] -> (
            match List.assoc_opt key setting_kinds with
            | None -> err "unknown setting %S" key
            | Some kind when not (parses kind value) ->
                err "set %s takes %s, got %S" key (kind_name kind) value
            | Some _ -> settings := (key, value) :: !settings)
        | "set" :: _ -> err "set takes exactly: set KEY VALUE"
        | "edb" :: name :: spec :: rest -> (
            let rel, arity = parse_spec spec in
            let r =
              match rest with
              | "@" :: path_tok :: [] ->
                  Recstep.Frontend.load_tsv ~name:rel ~arity (resolve path_tok)
              | _ when List.exists (fun t -> String.contains t '=') (spec :: rest) ->
                  let _, rhs = split_at line '=' "edb" in
                  let rows = parse_rows ~arity rhs in
                  let r = Relation.of_rows ~name:rel arity rows in
                  Relation.account r;
                  r
              | _ -> err "edb needs '= rows' or '@ file'"
            in
            let rels = (rel, r) :: Option.value ~default:[] (List.assoc_opt name !defs) in
            defs := (name, rels) :: List.remove_assoc name !defs)
        | (("delta" | "retract") as verb) :: rest -> (
            let mk = if verb = "delta" then Delta.of_inserts else Delta.of_retracts in
            let at, rest =
              match rest with
              | tok :: more when String.length tok > 3 && String.sub tok 0 3 = "at=" -> (
                  match float_of_string_opt (String.sub tok 3 (String.length tok - 3)) with
                  | Some t -> (t, more)
                  | None -> err "bad at= value in %S" tok)
              | _ -> (0.0, rest)
            in
            match rest with
            | name :: rel :: "@" :: path_tok :: [] ->
                let arity = arity_of name rel in
                let r = Recstep.Frontend.load_tsv ~name:rel ~arity (resolve path_tok) in
                events :=
                  Service.delta_event ~at ~edb:name (mk rel (Relation.to_rows r)) :: !events
            | name :: rel :: "=" :: _ ->
                let arity = arity_of name rel in
                (* rows contain no '=', so the last '=' is the separator
                   (an at= pair earlier in the line has its own) *)
                let j = String.rindex line '=' in
                let rhs = String.trim (String.sub line (j + 1) (String.length line - j - 1)) in
                let rows = parse_rows ~arity rhs in
                events := Service.delta_event ~at ~edb:name (mk rel rows) :: !events
            | _ -> err "%s takes: %s [at=T] EDB REL = rows | @ file" verb verb)
        | "submit" :: rest ->
            let args = kv_args rest in
            let get k = List.assoc_opt k args in
            let require k =
              match get k with Some v -> v | None -> err "submit is missing %s=" k
            in
            let tenant = require "tenant" and edb = require "edb" in
            let program = program_of (require "program") in
            let flt k =
              Option.map
                (fun v ->
                  match float_of_string_opt v with
                  | Some f -> f
                  | None -> err "bad %s= value %S" k v)
                (get k)
            in
            let mem =
              match get "mem" with
              | None -> Admission.Small
              | Some v -> (
                  match Admission.memclass_of_string v with
                  | Some m -> m
                  | None -> err "bad mem= value %S (small|medium|large)" v)
            in
            let repeat =
              match get "repeat" with
              | None -> 1
              | Some v -> (
                  match int_of_string_opt v with
                  | Some n when n >= 1 -> n
                  | _ -> err "bad repeat= value %S" v)
            in
            let at = Option.value ~default:0.0 (flt "at") in
            let every = Option.value ~default:0.0 (flt "every") in
            for k = 0 to repeat - 1 do
              let id =
                match get "id" with
                | None -> ""
                | Some id -> if repeat = 1 then id else Printf.sprintf "%s#%d" id (k + 1)
              in
              events :=
                Service.Submit
                  (Service.submission ~id ~at:(at +. (float_of_int k *. every))
                     ?deadline_vs:(flt "deadline") ~mem ?engine:(get "engine") ~tenant ~edb
                     program)
                :: !events
            done
        | cmd :: _ -> err "unknown directive %S" cmd
        | [] -> ()
        with Failure msg -> fail msg)
    lines;
  { settings = List.rev !settings; defs = List.rev !defs; events = List.rev !events }

(* Typed reads of a [set] value. [parse] has already checked the value, so
   the conversion cannot fail; asking for an undeclared key or with the
   wrong type is a programming error. *)
let setting kind conv t key =
  if List.assoc_opt key setting_kinds <> Some kind then
    invalid_arg (Printf.sprintf "Script: setting %S does not take %s" key (kind_name kind));
  Option.map (fun v -> Option.get (conv v)) (List.assoc_opt key t.settings)

let int_setting = setting Int int_of_string_opt
let float_setting = setting Float float_of_string_opt
let bool_setting = setting Bool bool_of_string_opt

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse ~path src

(* Render a typed delta back to script lines — one line per relation and
   sign, preserving op order within each line. Parsing the lines back and
   merging the events' deltas (in order) reproduces the input's net effect;
   the round-trip test in test_service.ml holds the parser and this
   renderer to that contract. *)
let render_delta ~at ~edb (d : Delta.t) =
  let row_str row =
    String.concat " " (List.map string_of_int (Array.to_list row))
  in
  List.concat_map
    (fun rel ->
      let ops = Delta.ops d rel in
      let part sign verb =
        match List.filter (fun (o : Delta.op) -> o.Delta.sign = sign) ops with
        | [] -> []
        | os ->
            [
              Printf.sprintf "%s at=%g %s %s = %s" verb at edb rel
                (String.concat "; " (List.map (fun (o : Delta.op) -> row_str o.Delta.row) os));
            ]
      in
      part Delta.Insert "delta" @ part Delta.Retract "retract")
    (Delta.rels d)
