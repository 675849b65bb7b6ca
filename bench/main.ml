(* Benchmark harness: regenerates every table and figure of the paper
   (default mode), or runs the Bechamel operator microbenches (--micro).

     dune exec bench/main.exe                 # all experiments, scale 1
     dune exec bench/main.exe -- --only fig10 --scale 2
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --micro *)

let machine_mib = 256

(* --- Bechamel microbenches: one Test.make per paper table/figure, timing
   the kernel that dominates that experiment. --- *)

let micro () =
  let open Bechamel in
  let pool () =
    let p = Rs_parallel.Pool.create ~workers:8 () in
    Rs_parallel.Pool.begin_run p;
    p
  in
  let arc = Rs_datagen.Graphs.gnp ~seed:1 ~n:300 ~p:0.03 in
  let rmat = Rs_datagen.Graphs.rmat ~seed:2 ~n:4096 ~m:40960 in
  let aa = Rs_datagen.Prog_analysis.andersen_dataset ~seed:3 ~scale:1 2 in
  let cspa = Rs_datagen.Prog_analysis.cspa_input ~seed:4 ~scale:1 "httpd" in
  let csda = Rs_datagen.Prog_analysis.csda_input ~seed:5 ~scale:1 "httpd" in
  let run_program src edb =
    let program = Recstep.Parser.parse src in
    fun () ->
      let p = pool () in
      let edb = List.map (fun (n, r) -> (n, Rs_relation.Relation.copy r)) edb in
      ignore (Recstep.Interpreter.run ~pool:p ~edb program)
  in
  let staged f = Staged.stage f in
  let tests =
    [
      (* Table 1 is qualitative; its "kernel" is engine dispatch. *)
      Test.make ~name:"table1:capability_lookup"
        (staged (fun () -> ignore (Rs_engines.Engines.by_name "RecStep")));
      Test.make ~name:"fig2:cspa_httpd_recstep" (staged (run_program Recstep.Programs.cspa cspa));
      Test.make ~name:"fig3:dedup_fast_1e4"
        (staged (fun () ->
             let d = Rs_relation.Dedup.create Rs_relation.Dedup.Fast 2 in
             for i = 0 to 9999 do
               ignore (Rs_relation.Dedup.add2 d (i land 255) i)
             done));
      Test.make ~name:"fig6:pbme_tc_kernel"
        (staged (fun () ->
             let p = pool () in
             let m = Rs_bitmatrix.Pbme.tc p ~n:300 ~arc in
             Rs_bitmatrix.Bitmatrix.release m));
      Test.make ~name:"fig7:pbme_sg_kernel"
        (staged (fun () ->
             let p = pool () in
             let m = Rs_bitmatrix.Pbme.sg p ~n:300 ~arc in
             Rs_bitmatrix.Bitmatrix.release m));
      Test.make ~name:"fig8:tc_gnp_recstep" (staged (run_program Recstep.Programs.tc [ ("arc", arc) ]));
      Test.make ~name:"fig9:cc_rmat_recstep" (staged (run_program Recstep.Programs.cc [ ("arc", rmat) ]));
      Test.make ~name:"fig10:sg_gnp_recstep" (staged (run_program Recstep.Programs.sg [ ("arc", arc) ]));
      Test.make ~name:"fig11:hash_join_probe"
        (staged (fun () ->
             let idx = Rs_relation.Hash_index.build arc [| 0 |] in
             let hits = ref 0 in
             let key = [| 0 |] in
             for v = 0 to 299 do
               key.(0) <- v;
               Rs_relation.Hash_index.iter_matches idx key (fun _ -> incr hits)
             done));
      Test.make ~name:"fig12:reach_rmat_recstep"
        (staged
           (let id = Rs_relation.Relation.of_rows ~name:"id" 1 [ [| 0 |] ] in
            run_program Recstep.Programs.reach [ ("arc", rmat); ("id", id) ]));
      Test.make ~name:"fig13:cc_realworld_kernel" (staged (run_program Recstep.Programs.cc [ ("arc", rmat) ]));
      Test.make ~name:"fig14:relation_append_account"
        (staged (fun () ->
             let r = Rs_relation.Relation.create 2 in
             for i = 0 to 9999 do
               Rs_relation.Relation.push2 r i (i * 7)
             done;
             Rs_relation.Relation.account r;
             Rs_relation.Relation.release r));
      Test.make ~name:"fig15:andersen_recstep" (staged (run_program Recstep.Programs.andersen aa));
      Test.make ~name:"fig16:csda_httpd_recstep" (staged (run_program Recstep.Programs.csda csda));
      Test.make ~name:"table4:pool_parallel_for"
        (staged (fun () ->
             let p = pool () in
             let acc = ref 0 in
             Rs_parallel.Pool.parallel_for p 0 100000 (fun lo hi ->
                 for i = lo to hi - 1 do
                   acc := !acc + i
                 done)));
      Test.make ~name:"costmodel:opsd_vs_tpsd"
        (staged (fun () ->
             let p = pool () in
             ignore (Rs_exec.Cost.calibrate p ())));
    ]
  in
  let test = Test.make_grouped ~name:"recstep" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.merge ols instances [ Analyze.all ols Toolkit.Instance.monotonic_clock raw ]
  in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      List.iter
        (fun (name, ols_result) ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Printf.sprintf "%12.0f ns/run" e
            | _ -> "n/a"
          in
          Printf.printf "%-40s %s\n" name est)
        (List.sort compare rows))
    results

(* --- CLI --- *)

let () =
  Rs_storage.Memtrack.set_machine_bytes (machine_mib * 1024 * 1024);
  let scale = ref 1 in
  let only = ref [] in
  let list_only = ref false in
  let micro_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := max 1 (int_of_string v);
        parse rest
    | "--only" :: v :: rest ->
        only := !only @ String.split_on_char ',' v;
        parse rest
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--micro" :: rest ->
        micro_mode := true;
        parse rest
    | other :: _ ->
        Printf.eprintf "unknown argument %s\n" other;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Rs_benchkit.Registry.id e.Rs_benchkit.Registry.title)
      Rs_benchkit.Registry.all
  else if !micro_mode then micro ()
  else begin
    Printf.printf
      "RecStep reproduction harness — simulated %d-core pool, machine memory %d MiB, scale %d\n"
      (Rs_parallel.Pool.workers (Rs_parallel.Pool.create ()))
      machine_mib !scale;
    let selected =
      match !only with
      | [] -> Rs_benchkit.Registry.all
      | ids ->
          List.map
            (fun id ->
              match Rs_benchkit.Registry.find id with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %s (try --list)\n" id;
                  exit 2)
            ids
    in
    let t0 = Unix.gettimeofday () in
    List.iter (fun e -> e.Rs_benchkit.Registry.run ~scale:!scale) selected;
    Printf.printf "\nharness done in %.1fs wall\n" (Unix.gettimeofday () -. t0)
  end
