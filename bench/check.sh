#!/bin/sh
# CI check: full build, test suite, and a CLI profiling smoke test.
# Run from the repository root:  sh bench/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== quickstart example =="
dune exec examples/quickstart.exe >/dev/null

echo "== CLI profiling smoke =="
tmp="${TMPDIR:-/tmp}/recstep-check.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

# The bench/main.exe experiments write their BENCH_*.json reports to the
# working directory. Run them inside $tmp and validate the reports there,
# so a check leaves the committed snapshots as they are.
bench_exe="$PWD/_build/default/bench/main.exe"
validate="$PWD/_build/default/bench/validate.exe"
bench_in_tmp() { (cd "$tmp" && "$bench_exe" "$@" >/dev/null); }

dune exec bin/recstep_cli.exe -- gen gnp -n 200 -p 0.03 --seed 7 -o "$tmp/arc.tsv"

# TC plus a non-recursive stratum on top, so the profile covers the
# relational executor as well as the PBME-collapsed recursive stratum.
cat >"$tmp/tc.dl" <<'EOF'
.input arc
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
twohop(x, y) :- tc(x, z), tc(z, y).
.output tc
.output twohop
EOF

dune exec bin/recstep_cli.exe -- run "$tmp/tc.dl" --fact "arc=$tmp/arc.tsv" \
  --profile "$tmp/p.json" >/dev/null

# the profile must be valid JSON and cover the instrumented subsystems
"$validate" profile "$tmp/p.json"

echo "== persistent-index smoke =="
# A pure TC fixpoint on the relational path (--no-pbme keeps the bit-matrix
# kernel out of the way, --dsd opsd pins the set-difference strategy so the
# counter budget below is exact): the index manager must turn per-iteration
# index builds into reuse hits / delta appends.
cat >"$tmp/tc_only.dl" <<'EOF'
.input arc
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
.output tc
EOF

dune exec bin/recstep_cli.exe -- run "$tmp/tc_only.dl" --fact "arc=$tmp/arc.tsv" \
  --no-pbme --dsd opsd --profile "$tmp/pidx.json" --out "$tmp/idx_on" >/dev/null

"$validate" index "$tmp/pidx.json"

# results must be identical with the manager disabled (row order inside the
# unordered bag output may differ; the tuple sets may not)
dune exec bin/recstep_cli.exe -- run "$tmp/tc_only.dl" --fact "arc=$tmp/arc.tsv" \
  --no-pbme --dsd opsd --no-persistent-indexes --profile "$tmp/pidx_off.json" \
  --out "$tmp/idx_off" >/dev/null
sort "$tmp/idx_on/tc.tsv" >"$tmp/tc_on.sorted"
sort "$tmp/idx_off/tc.tsv" >"$tmp/tc_off.sorted"
cmp "$tmp/tc_on.sorted" "$tmp/tc_off.sorted"
echo "results identical with and without persistent indexes"

# The ablation keeps no index across queries, so it rebuilds at least once
# per fixpoint iteration.
"$validate" index-off "$tmp/pidx_off.json"

echo "== compiled-kernel smoke =="
# The same relational TC fixpoint with the fused rule kernels on (default)
# and off: output checksums must be byte-identical, and the profile must
# show the recursive rule actually compiled (not silently gated out) and
# the per-iteration set-difference pass gone.
dune exec bin/recstep_cli.exe -- run "$tmp/tc_only.dl" --fact "arc=$tmp/arc.tsv" \
  --no-pbme --profile "$tmp/pkern.json" --out "$tmp/kern_on" >/dev/null
dune exec bin/recstep_cli.exe -- run "$tmp/tc_only.dl" --fact "arc=$tmp/arc.tsv" \
  --no-pbme --no-kernels --profile "$tmp/pkern_off.json" --out "$tmp/kern_off" >/dev/null
sort "$tmp/kern_on/tc.tsv" >"$tmp/tc_kern_on.sorted"
sort "$tmp/kern_off/tc.tsv" >"$tmp/tc_kern_off.sorted"
cmp "$tmp/tc_kern_on.sorted" "$tmp/tc_kern_off.sorted"
echo "results identical with and without compiled kernels"

"$validate" kernel-profile "$tmp/pkern.json"

# Kernels append their Δ to the head table while the round still reads
# it, so every read stops at the round-start rows. The per-round Δ
# timeline (stratum, iteration, IDB, Δ rows) must then be identical with
# kernels on and off: on TC, and on a mutual recursion whose non-linear
# rule reads an IDB the round is appending to.
"$validate" delta-timeline "$tmp/pkern.json" "$tmp/pkern_off.json"
cat >"$tmp/mutual.dl" <<'EOF'
.input arc
a(x, y) :- arc(x, y).
b(x, z) :- a(x, y), a(y, z).
a(x, z) :- b(x, y), a(y, z).
.output a
.output b
EOF
for side in on off; do
  flag=""
  [ "$side" = off ] && flag="--no-kernels"
  dune exec bin/recstep_cli.exe -- run "$tmp/mutual.dl" --fact "arc=$tmp/arc.tsv" \
    --no-pbme $flag --profile "$tmp/pmut_$side.json" --out "$tmp/mut_$side" >/dev/null
  sort "$tmp/mut_$side/a.tsv" "$tmp/mut_$side/b.tsv" >"$tmp/mut_$side.sorted"
done
cmp "$tmp/mut_on.sorted" "$tmp/mut_off.sorted"
"$validate" delta-timeline "$tmp/pmut_on.json" "$tmp/pmut_off.json"

# Every row of a non-aggregated IDB enters it through exactly one Δ: over
# each profile's timeline an IDB's Δ rows add up to the rows the run wrote
# for it. The same TC and mutual recursion run once more on the
# Souffle-like baseline, which drives its strata through the same loop.
rows_json() {
  printf '{'
  sep=''
  for f in "$@"; do
    printf '%s"%s":%d' "$sep" "$(basename "$f" .tsv)" "$(wc -l <"$f")"
    sep=','
  done
  echo '}'
}
for prog in tc_only mutual; do
  dune exec bin/recstep_cli.exe -- run "$tmp/$prog.dl" --fact "arc=$tmp/arc.tsv" \
    --engine Souffle-like --profile "$tmp/p${prog}_souffle.json" --out "$tmp/${prog}_souffle" >/dev/null
done
for run in "pkern kern_on" "pkern_off kern_off" "ptc_only_souffle tc_only_souffle" \
  "pmut_on mut_on" "pmut_off mut_off" "pmutual_souffle mutual_souffle"; do
  set -- $run
  rows_json "$tmp/$2"/*.tsv >"$tmp/$2.rows.json"
  "$validate" delta-sum "$tmp/$1.json" "$tmp/$2.rows.json"
done

# Kernel benchmark: the fused path must be at least 2x faster in simulated
# time on recursive TC, with byte-identical outputs on every workload, and
# SG's three-atom recursive rule must compile to an n-way chain kernel.
# CSPA's non-linear rules must make the same dedup probes with kernels on
# and off: both paths run the same exact delta plans.
bench_in_tmp --only kernel
"$validate" bench-kernel "$tmp/BENCH_kernel.json"

echo "== explain smoke =="
# Why-provenance and the explain surface: a derived TC fact must explain
# down to EDB leaves naming at least one rule, an absent fact must exit
# non-zero, and the chain must be identical with tag recording disabled.
# Tags can re-order the proof search in general (semi-naive tags do); this
# TC is one PBME solve, which tags its rows in lexicographic order, and
# that order leaves the candidate order exactly as without tags.
fact=$(head -1 "$tmp/idx_on/tc.tsv" | awk '{printf "tc(%s, %s)", $1, $2}')
dune exec bin/recstep_cli.exe -- explain "$tmp/tc_only.dl" "$fact" \
  --fact "arc=$tmp/arc.tsv" >"$tmp/explain_on.out"
grep -q "rule" "$tmp/explain_on.out"
grep -q "\[edb\]" "$tmp/explain_on.out"
dune exec bin/recstep_cli.exe -- explain "$tmp/tc_only.dl" "$fact" \
  --fact "arc=$tmp/arc.tsv" --no-provenance >"$tmp/explain_off.out"
sed 's| @s[0-9]*/i[0-9]*/#[0-9]*||g' "$tmp/explain_on.out" >"$tmp/explain_on.stripped"
cmp "$tmp/explain_on.stripped" "$tmp/explain_off.out"
if dune exec bin/recstep_cli.exe -- explain "$tmp/tc_only.dl" "tc(999999, 999999)" \
  --fact "arc=$tmp/arc.tsv" >/dev/null 2>&1; then
  echo "explain smoke FAILED: absent fact did not exit non-zero"
  exit 1
fi
echo "explain smoke OK: $fact explained to EDB leaves, chains identical with tags off"
# Aggregate explain: over arcs 0->2, 2->1, 1->1, cc3(1, 0) has two MIN
# witnesses. The first in lexicographic order (x = 1, the self-loop) cycles
# back through the goal itself, so the search must move on to the second
# (x = 2) and reach an input arc, with tags and without.
printf '0\t2\n2\t1\n1\t1\n' >"$tmp/cc_arc.tsv"
for tags in "" --no-provenance; do
  dune exec bin/recstep_cli.exe -- explain programs/cc.datalog "cc3(1, 0)" \
    --fact "arc=$tmp/cc_arc.tsv" $tags >"$tmp/explain_cc.out"
  grep -q "\[edb\]" "$tmp/explain_cc.out"
done
echo "aggregate explain smoke OK: cc3(1, 0) explained through its second MIN witness"

echo "== aggregate engines smoke =="
# One head with every aggregate op over two rules' overlapping candidates
# (set semantics; negative groups and values; enough rows for several pool
# chunks, so partial states are merged), and CC over arcs with a negative
# node id (the dense MIN path). Each engine's sorted output must equal the
# frozen rows; a missing output file fails. Souffle-like has no recursive
# aggregation, so it runs the first program only.
cat >"$tmp/multi_agg.dl" <<'EOF'
.input m1
.input m2
p(x, MIN(v), MAX(v), SUM(v), COUNT(v), AVG(v)) :- m1(x, v).
p(x, MIN(v), MAX(v), SUM(v), COUNT(v), AVG(v)) :- m2(x, v).
.output p
EOF
awk 'BEGIN { for (i = 0; i < 48; i++) printf "%d\t%d\n", i % 4 - 1, i * 37 % 101 - 50 }' \
  >"$tmp/m1.tsv"
awk 'BEGIN { for (i = 24; i < 64; i++) printf "%d\t%d\n", i % 4 - 1, i * 37 % 101 - 50 }' \
  >"$tmp/m2.tsv"
printf '%b' '-1\t-50\t49\t-8\t16\t0\n0\t-48\t46\t-22\t16\t-1\n1\t-44\t50\t65\t16\t4\n2\t-47\t47\t-50\t16\t-3\n' \
  | LC_ALL=C sort >"$tmp/multi.expected"
printf '%b' '1\t2\n2\t-3\n-3\t4\n' >"$tmp/neg_arc.tsv"
printf '%b' '-3\n1\n' | LC_ALL=C sort >"$tmp/cc.expected"
agg_cmp() {  # expected rows, output file, label
  if [ ! -f "$2" ]; then
    echo "aggregate engines smoke FAILED: $3 wrote no $2"
    exit 1
  fi
  LC_ALL=C sort "$2" >"$tmp/agg.got"
  if ! cmp -s "$1" "$tmp/agg.got"; then
    echo "aggregate engines smoke FAILED: $3 rows differ from the frozen rows"
    diff "$1" "$tmp/agg.got" || true
    exit 1
  fi
}
for engine in RecStep BigDatalog-like Souffle-like; do
  rm -rf "$tmp/agg_out"
  dune exec bin/recstep_cli.exe -- run "$tmp/multi_agg.dl" --engine "$engine" \
    --fact "m1=$tmp/m1.tsv" --fact "m2=$tmp/m2.tsv" -o "$tmp/agg_out" >/dev/null
  agg_cmp "$tmp/multi.expected" "$tmp/agg_out/p.tsv" "$engine multi-aggregate"
  if [ "$engine" != Souffle-like ]; then
    rm -rf "$tmp/agg_out"
    dune exec bin/recstep_cli.exe -- run programs/cc.datalog --engine "$engine" \
      --fact "arc=$tmp/neg_arc.tsv" -o "$tmp/agg_out" >/dev/null
    agg_cmp "$tmp/cc.expected" "$tmp/agg_out/cc.tsv" "$engine CC on negative ids"
  fi
done
echo "aggregate engines smoke OK: RecStep, BigDatalog-like, Souffle-like give the frozen rows"

echo "== NTC engines smoke =="
# NTC joins a negation with a cross product: it runs the executor's
# AntiJoin and its zero-key Join, and the Souffle-like engine's scan step.
# Four runs over the smoke's arcs must write the same rows.
ntc_run() {  # label, then the run's extra arguments
  label="$1"
  shift
  rm -rf "$tmp/ntc_out"
  dune exec bin/recstep_cli.exe -- run programs/ntc.datalog --fact "arc=$tmp/arc.tsv" \
    -o "$tmp/ntc_out" "$@" >/dev/null
  if [ ! -s "$tmp/ntc_out/ntc.tsv" ]; then
    echo "NTC engines smoke FAILED: $label wrote no rows to ntc.tsv"
    exit 1
  fi
  LC_ALL=C sort "$tmp/ntc_out/ntc.tsv" >"$tmp/ntc.$label.tsv"
  if [ "$label" != recstep ] && ! cmp -s "$tmp/ntc.recstep.tsv" "$tmp/ntc.$label.tsv"; then
    echo "NTC engines smoke FAILED: $label rows differ from RecStep's defaults"
    exit 1
  fi
}
ntc_run recstep
ntc_run recstep-no-kernels-no-pbme --no-kernels --no-pbme
ntc_run bigdatalog --engine BigDatalog-like
ntc_run souffle --engine Souffle-like
echo "NTC engines smoke OK: $(wc -l <"$tmp/ntc.recstep.tsv") rows, identical on all four runs"

# Provenance overhead benchmark: tags on must stay within 2x of tags off in
# simulated time, with byte-identical outputs and full tag coverage.
bench_in_tmp --only prov
"$validate" bench-prov "$tmp/BENCH_prov.json"

echo "== differential fuzz smoke =="
# A fixed-seed campaign over every engine and every optimization-toggle
# configuration must agree with the naive reference evaluator on all cases.
dune exec bin/recstep_cli.exe -- fuzz --seed 42 --iters 25 \
  --report "$tmp/fuzz.json" >/dev/null

"$validate" fuzz "$tmp/fuzz.json"

echo "== delta-stream fuzz smoke =="
# Fixed-seed delta-sequence campaign: random insert/retract streams
# maintained through the IVM must match a from-scratch recompute at every
# version.
dune exec bin/recstep_cli.exe -- fuzz --delta-stream --seed 42 --iters 20 \
  --deltas 6 --report "$tmp/dfuzz.json" >/dev/null

"$validate" delta-fuzz "$tmp/dfuzz.json"

echo "== incremental maintenance smoke =="
# The demo workload carries a mid-run insert+retract delta. With
# maintenance on (default) the cached results must be refreshed in place;
# with --no-ivm they are invalidated and recomputed. The two runs must
# serve byte-identical results (checksums per query), proving the warm
# refresh path returns exactly what a recompute would.
dune exec bin/recstep_cli.exe -- serve programs/serve_demo.workload \
  --report "$tmp/serve_ivm.json" >/dev/null
dune exec bin/recstep_cli.exe -- serve programs/serve_demo.workload \
  --no-ivm --report "$tmp/serve_noivm.json" >/dev/null

"$validate" serve-ivm "$tmp/serve_ivm.json" "$tmp/serve_noivm.json"

# Incremental-vs-recompute benchmark: the maintained view must beat
# recompute-per-delta on the serving-shaped churn stream, with identical
# outputs at every version.
bench_in_tmp --only ivm

"$validate" bench-ivm "$tmp/BENCH_ivm.json"

echo "== CLI serve smoke =="
dune exec bin/recstep_cli.exe -- serve programs/serve_demo.workload \
  --report "$tmp/serve.json" >/dev/null

# the service report must carry all 26 declared counters, the accounting
# identities must hold, the counters must agree with the per-query list,
# and the demo's repeated queries must actually hit
"$validate" serve "$tmp/serve.json"

echo "== chaos smoke =="
# A fixed-seed chaos campaign: seeded fault plans (allocation failures,
# forced txn aborts, worker crashes and stalls, dedup/index build failures,
# cache corruption) composed with the fuzz generator through the full
# serving stack. Every faulted case must end correct or typed-rejected,
# with live bytes back at the pre-case baseline.
dune exec bin/recstep_cli.exe -- chaos --seed 42 --iters 50 \
  --report "$tmp/chaos.json" >/dev/null

"$validate" chaos "$tmp/chaos.json"

# Kernel arm: compiled kernels claim every tuple they emit into the head
# table's membership set, so a round whose later kernel degrades leaves
# claims R never receives unless the fallback drops the set. Half of all
# kernel probes fire here; every case must still end correct.
dune exec bin/recstep_cli.exe -- chaos --seed 42 --iters 30 --plan "kernel:p=0.5" \
  --report "$tmp/chaos_kernel.json" >/dev/null

"$validate" chaos-kernel "$tmp/chaos_kernel.json"

# Self-test: a plan that silently corrupts dedup MUST trip the oracle and
# exit non-zero — a harness that stays green under seeded silent corruption
# proves nothing.
if dune exec bin/recstep_cli.exe -- chaos --seed 7 --iters 5 \
  --plan "dedup_drop:p=0.5" --report "$tmp/chaos_trip.json" >/dev/null 2>&1; then
  echo "chaos self-test FAILED: seeded silent corruption was not detected"
  exit 1
fi
echo "chaos self-test OK: seeded silent corruption detected and reported"

echo "== load model smoke =="
# Fixed-seed production-shaped load: a 20k-tenant Zipf population, bursty
# open-loop arrivals, EDB churn, autoscaler on. The SLO report must be
# well-formed (three classes, ordered quantiles, population accounting that
# adds up to the submitted queries) and the autoscaler must actually move.
dune exec bin/recstep_cli.exe -- load --tenants 20000 --queries 120 --seed 42 \
  --duration 0.5 --deltas 2 --report "$tmp/slo.json" >/dev/null

"$validate" load "$tmp/slo.json"

# Autoscaler A/B benchmark: same generated load against a fixed-size
# service and an autoscaled one. Served outputs must be byte-identical
# (the scaler may only move latency, never answers), the scaled arm must
# win the tail.
bench_in_tmp --only load
"$validate" bench-service "$tmp/BENCH_service.json"

echo "== perfbench smoke =="
# One traced batch of pa-join and of deep-chain through the repository
# benchmark: the served answers must match their reference checksums,
# each workload's property must hold (pa-join's counters; deep-chain's
# more than 400 iterations), and every work counter must repeat exactly
# across the traced repetitions (trace.drifting_counters present and 0).
# None of these depends on host speed. serve-churn
# stays out: its floor property compares host-timed miss latency against
# the charged floor, which a loaded CI machine can fail without any defect
# in the code.
for w in pa-join deep-chain; do
  sh perfbench/run.sh --workload "$w" --seed 1 --seconds 0 --trace 1 >"$tmp/perf.$w.out"
  "$validate" perfbench "$tmp/perf.$w.out"
done

echo "== check passed =="
