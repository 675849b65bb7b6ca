(* validate.exe KIND FILE...: checks the reports of the CI check (bench/check.sh);
   prints a summary, or the failed claim naming its key and exits 1. *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | kind :: (_ :: _ as files) -> (
      match Rs_benchkit.Validate.check_files kind files with
      | Ok summary -> print_endline summary
      | Error msg ->
          Printf.eprintf "validate %s %s: %s\n" kind (String.concat " " files) msg;
          exit 1)
  | _ ->
      Printf.eprintf "usage: validate KIND FILE...\nkinds: %s\n"
        (String.concat ", " Rs_benchkit.Validate.kinds);
      exit 2
