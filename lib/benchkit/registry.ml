(** Experiment registry: one entry per paper table / figure. *)

type experiment = { id : string; title : string; run : scale:int -> unit }

let all =
  [
    { id = "table1"; title = "System feature matrix (Table 1)"; run = (fun ~scale -> ignore scale; Exp_tables.table1 ()) };
    { id = "fig2"; title = "Optimization ablation (Figure 2)"; run = (fun ~scale -> ignore (Exp_ablation.fig2 ~scale)) };
    { id = "fig3"; title = "Memory effects of optimizations (Figure 3)"; run = (fun ~scale -> Exp_ablation.fig3 ~scale) };
    { id = "fig6"; title = "PBME memory saving (Figure 6)"; run = (fun ~scale -> Exp_pbme.fig6 ~scale) };
    { id = "fig7"; title = "SG-PBME coordination (Figure 7)"; run = (fun ~scale -> Exp_pbme.fig7 ~scale) };
    { id = "fig8"; title = "Scaling-up cores (Figure 8)"; run = (fun ~scale -> Exp_scaling.fig8 ~scale) };
    { id = "fig9"; title = "Scaling-up data (Figure 9)"; run = (fun ~scale -> Exp_scaling.fig9 ~scale) };
    { id = "fig10"; title = "TC and SG across systems (Figure 10)"; run = (fun ~scale -> Exp_cross.fig10 ~scale) };
    { id = "fig11"; title = "Memory usage of TC and SG (Figure 11)"; run = (fun ~scale -> Exp_cross.fig11 ~scale) };
    { id = "fig12"; title = "RMAT sweep across systems (Figure 12)"; run = (fun ~scale -> Exp_cross.fig12 ~scale) };
    { id = "fig13"; title = "Real-world graphs across systems (Figure 13)"; run = (fun ~scale -> Exp_cross.fig13 ~scale) };
    { id = "fig14"; title = "Memory on livejournal (Figure 14)"; run = (fun ~scale -> Exp_cross.fig14 ~scale) };
    { id = "fig15"; title = "Program analyses across systems (Figure 15)"; run = (fun ~scale -> Exp_progan.fig15 ~scale) };
    { id = "fig16"; title = "CPU utilization on program analyses (Figure 16)"; run = (fun ~scale -> Exp_progan.fig16 ~scale) };
    { id = "table4"; title = "CPU efficiency (Table 4)"; run = (fun ~scale -> Exp_tables.table4 ~scale) };
    { id = "costmodel"; title = "DSD cost model (Appendix A)"; run = (fun ~scale -> ignore scale; Exp_tables.costmodel ()) };
    { id = "coord_sweep"; title = "EXTRA: SG-PBME threshold sweep (paper's future work)"; run = (fun ~scale -> Exp_extra.coord_sweep ~scale) };
    { id = "uie_sharing"; title = "EXTRA: UIE batching vs cache sharing"; run = (fun ~scale -> Exp_extra.uie_sharing ~scale) };
    { id = "service"; title = "EXTRA: serving throughput, result cache on vs off"; run = (fun ~scale -> Exp_service.service ~scale) };
    { id = "load"; title = "EXTRA: SLO scorecard under Zipf burst load, autoscaler on vs off (BENCH_service.json)"; run = (fun ~scale -> Exp_load.exp ~scale) };
    { id = "join"; title = "EXTRA: join-index maintenance — rebuild vs delta-append vs radix"; run = (fun ~scale -> Exp_join.exp ~scale) };
    { id = "ivm"; title = "EXTRA: incremental maintenance vs recompute-per-delta (BENCH_ivm.json)"; run = (fun ~scale -> Exp_ivm.exp ~scale) };
    { id = "kernel"; title = "EXTRA: compiled rule kernels vs interpreted fixpoint (BENCH_kernel.json)"; run = (fun ~scale -> Exp_kernel.exp ~scale) };
    { id = "prov"; title = "EXTRA: why-provenance recording overhead, tags on vs off (BENCH_prov.json)"; run = (fun ~scale -> Exp_prov.exp ~scale) };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
