#!/bin/sh
# CI check: full build, test suite, and a CLI profiling smoke test.
# Run from the repository root:  sh bench/check.sh
set -eu

cd "$(dirname "$0")/.."

# Every report below is validated by a python3 script; without python3 the
# gates would check nothing, so refuse to run rather than pass.
if ! command -v python3 >/dev/null 2>&1; then
  echo "check.sh: python3 is required to validate the JSON reports" >&2
  exit 1
fi

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
cat >"$tmp/validate.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    p = json.load(f)
kinds = {s["kind"] for s in p["spans"]}
need = {"storage", "dedup", "executor", "interpreter"}
missing = need - kinds
assert not missing, "missing span kinds: %s" % missing
assert p["iterations"], "no per-iteration records"
print("profile OK: %d spans over %s, %d iteration records, %d counters"
      % (len(p["spans"]), sorted(kinds), len(p["iterations"]), len(p["counters"])))
EOF
python3 "$tmp/validate.py" "$tmp/p.json"

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

cat >"$tmp/validate_index.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    p = json.load(f)
c = p["counters"]
iters = c["interpreter.iterations"]
builds = c["executor.index_builds"]
assert iters >= 5, "TC fixpoint too short to be meaningful: %d iterations" % iters
assert c.get("executor.index_reuse_hits", 0) > 0, "no index reuse across iterations"
# This program has exactly two persistent access patterns (arc's join
# index on column 0 for the delta-rule join, tc's membership set on all
# columns for the kernel's claims and iteration 0's OPSD), so
# builds must stay O(#patterns) — not O(#iterations).  Allow a small
# constant slack for transient builds outside the fixpoint.
assert builds <= 4, \
    "index_builds scales with iterations: %d builds over %d iterations" % (builds, iters)
assert c.get("executor.index_appends", 0) > 0, "recursive table was never delta-appended"
print("index manager OK: %d iterations, %d builds, %d appends, %d reuse hits, %d rehashes"
      % (iters, builds, c.get("executor.index_appends", 0),
         c.get("executor.index_reuse_hits", 0), c.get("executor.index_rehashes", 0)))
EOF
python3 "$tmp/validate_index.py" "$tmp/pidx.json"

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
cat >"$tmp/validate_index_off.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    c = json.load(f)["counters"]
iters = c["interpreter.iterations"]
builds = c["executor.index_builds"]
assert builds >= iters, \
    "no-persistent-indexes run reused indexes: %d builds over %d iterations" % (builds, iters)
print("index ablation OK: %d builds over %d iterations" % (builds, iters))
EOF
python3 "$tmp/validate_index_off.py" "$tmp/pidx_off.json"

echo "== compiled-kernel smoke =="
# The same relational TC fixpoint with the fused rule kernels on (default)
# and off: output checksums must be byte-identical, and the profile must
# show the recursive rule actually compiled (not silently gated out) and
# the per-iteration set-difference pass gone.
dune exec bin/recstep_cli.exe -- run "$tmp/tc_only.dl" --fact "arc=$tmp/arc.tsv" \
  --no-pbme --profile "$tmp/pkern.json" --out "$tmp/kern_on" >/dev/null
dune exec bin/recstep_cli.exe -- run "$tmp/tc_only.dl" --fact "arc=$tmp/arc.tsv" \
  --no-pbme --no-kernels --out "$tmp/kern_off" >/dev/null
sort "$tmp/kern_on/tc.tsv" >"$tmp/tc_kern_on.sorted"
sort "$tmp/kern_off/tc.tsv" >"$tmp/tc_kern_off.sorted"
cmp "$tmp/tc_kern_on.sorted" "$tmp/tc_kern_off.sorted"
echo "results identical with and without compiled kernels"

cat >"$tmp/validate_kernel.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    p = json.load(f)
c = p["counters"]
assert c.get("kernel.compiled_rules", 0) > 0, "no rule compiled to a fused kernel"
assert c.get("kernel.execs", 0) > 0, "compiled kernels never executed"
assert c.get("kernel.fallbacks", 0) == 0, "kernel executions degraded without faults"
# The kernels do the set difference themselves (claims into R's
# full-column membership set): only iteration 0's absorb runs a separate OPSD/TPSD
# pass, and nothing rebuilds an index per iteration.
sd = [s for s in p["spans"] if s["kind"] == "executor" and s["name"] in ("opsd", "tpsd")]
assert len(sd) <= 1, "%d set-difference passes with kernels on (expected at most 1)" % len(sd)
builds = c["executor.index_builds"]
assert builds <= 2, "%d index builds with kernels on (expected at most 2)" % builds
print("kernel profile OK: %d compiled rules, %d executions, %d fused probes, %d rows emitted, "
      "%d set-difference pass(es), %d index builds"
      % (c["kernel.compiled_rules"], c["kernel.execs"], c["kernel.fused_probes"],
         c["kernel.emitted"], len(sd), builds))
EOF
python3 "$tmp/validate_kernel.py" "$tmp/pkern.json"

# Kernel benchmark: the fused path must be at least 2x faster in simulated
# time on recursive TC, with byte-identical outputs on every workload, and
# SG's three-atom recursive rule must compile to an n-way chain kernel.
# CSPA's non-linear rules must make the same dedup probes with kernels on
# and off: both paths run the same exact delta plans.
dune exec bench/main.exe -- --only kernel >/dev/null
cat >"$tmp/validate_bench_kernel.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
ws = {w["workload"]: w for w in b["workloads"]}
for w in b["workloads"]:
    assert w["identical"], "%s outputs diverged between kernel and interpreted runs" % w["workload"]
tc = ws["tc"]
assert tc["compiled_rules"] > 0, "TC recursive rule did not compile"
assert tc["ratio"] >= 2.0, \
    "kernels under 2x on recursive TC: %.2fx" % tc["ratio"]
sg = ws["sg"]
assert sg["compiled_rules"] > 0, "SG three-atom recursive rule did not compile"
assert sg["identical"], "SG outputs diverged between kernel and interpreted runs"
cspa = ws["cspa"]
assert cspa["compiled_rules"] > 0, "CSPA recursive rules did not compile"
assert cspa["identical"], "CSPA outputs diverged between kernel and interpreted runs"
assert cspa["dedup_probes_on"] > 0, "CSPA made no dedup probes"
assert cspa["dedup_probes_on"] == cspa["dedup_probes_off"], \
    "CSPA dedup probes differ, kernels %d vs interpreted %d: the paths ran different delta plans" \
    % (cspa["dedup_probes_on"], cspa["dedup_probes_off"])
print("BENCH_kernel OK: tc %.1fx with %d compiled rules, sg %d compiled rules, "
      "cspa %d dedup probes on both paths, %d workloads identical"
      % (tc["ratio"], tc["compiled_rules"], sg["compiled_rules"], cspa["dedup_probes_on"],
         len(b["workloads"])))
EOF
python3 "$tmp/validate_bench_kernel.py" BENCH_kernel.json

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

# Provenance overhead benchmark: tags on must stay within 2x of tags off in
# simulated time, with byte-identical outputs and full tag coverage.
dune exec bench/main.exe -- --only prov >/dev/null
cat >"$tmp/validate_bench_prov.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
for w in b["workloads"]:
    assert w["identical"], "%s outputs diverged with provenance on" % w["workload"]
    assert w["full_coverage"], "%s not fully tagged at sample 1.0" % w["workload"]
    assert w["overhead"] <= 2.0, \
        "%s provenance overhead above 2x: %.2fx" % (w["workload"], w["overhead"])
print("BENCH_prov OK: " + ", ".join(
    "%s %.2fx (%d tags)" % (w["workload"], w["overhead"], w["recorded"])
    for w in b["workloads"]))
EOF
python3 "$tmp/validate_bench_prov.py" BENCH_prov.json

echo "== differential fuzz smoke =="
# A fixed-seed campaign over every engine and every optimization-toggle
# configuration must agree with the naive reference evaluator on all cases.
dune exec bin/recstep_cli.exe -- fuzz --seed 42 --iters 25 \
  --report "$tmp/fuzz.json" >/dev/null

cat >"$tmp/validate_fuzz.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
runs = r["runs"]
assert runs["diverged"] == 0, "campaign diverged: %s" % r["divergences"]
assert runs["failed"] == 0, "campaign had crashed runs"
assert runs["total"] == (r["cases"] - r["invalid"]) * r["runners"], "runs identity"
assert runs["total"] == runs["ok"] + runs["skipped"] + runs["diverged"] + runs["failed"], \
    "disposition identity"
print("fuzz OK: seed %d, %d cases x %d runners = %d runs, %d ok, %d skipped"
      % (r["seed"], r["cases"], r["runners"], runs["total"], runs["ok"], runs["skipped"]))
EOF
python3 "$tmp/validate_fuzz.py" "$tmp/fuzz.json"

echo "== delta-stream fuzz smoke =="
# Fixed-seed delta-sequence campaign: random insert/retract streams
# maintained through the IVM must match a from-scratch recompute at every
# version.
dune exec bin/recstep_cli.exe -- fuzz --delta-stream --seed 42 --iters 20 \
  --deltas 6 --report "$tmp/dfuzz.json" >/dev/null

cat >"$tmp/validate_dfuzz.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["divergences"] == [], "delta-stream campaign diverged: %s" % r["divergences"]
assert r["versions"] >= (r["cases"] - r["invalid"]) * 6, "too few versions checked"
assert r["ops"] > r["versions"], "streams carried fewer ops than versions"
print("delta fuzz OK: seed %d, %d cases, %d versions, %d ops, 0 divergences"
      % (r["seed"], r["cases"], r["versions"], r["ops"]))
EOF
python3 "$tmp/validate_dfuzz.py" "$tmp/dfuzz.json"

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

cat >"$tmp/validate_ivm.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    warm = json.load(f)
with open(sys.argv[2]) as f:
    cold = json.load(f)
wc, cc = warm["counters"], cold["counters"]
assert wc["delta_applied"] > 0, "no delta was applied"
assert wc["refreshed"] > 0, "maintenance on but nothing was refreshed"
assert cc["refreshed"] == 0, "--no-ivm still refreshed entries"
assert wc["cache_hit"] > cc["cache_hit"], \
    "warm refresh did not save a recompute (hits %d vs %d)" % (wc["cache_hit"], cc["cache_hit"])
def sums(r):
    return {q["id"]: q.get("checksum") for q in r["queries"] if q["outcome"] == "done"}
ws, cs = sums(warm), sums(cold)
assert set(ws) == set(cs), "query sets differ between ivm and no-ivm runs"
diff = [q for q in ws if ws[q] != cs[q]]
assert not diff, "refreshed results differ from recompute for %s" % diff
print("ivm smoke OK: %d deltas applied, %d entries refreshed, "
      "%d queries byte-identical to recompute" % (wc["delta_applied"], wc["refreshed"], len(ws)))
EOF
python3 "$tmp/validate_ivm.py" "$tmp/serve_ivm.json" "$tmp/serve_noivm.json"

# Incremental-vs-recompute benchmark: the maintained view must beat
# recompute-per-delta on the serving-shaped churn stream, with identical
# outputs at every version. BENCH_ivm.json lands in the working directory
# (tracked, like the other BENCH_*.json snapshots).
dune exec bench/main.exe -- --only ivm >/dev/null
BENCH_IVM="BENCH_ivm.json"

cat >"$tmp/validate_bench_ivm.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
assert b["identical"], "incremental outputs diverged from recompute"
assert b["ratio"] > 1.0, \
    "incremental maintenance not faster than recompute: ratio %.2f" % b["ratio"]
print("BENCH_ivm OK: %d deltas, recompute/incremental = %.1fx, outputs identical"
      % (b["deltas"], b["ratio"]))
EOF
python3 "$tmp/validate_bench_ivm.py" "$BENCH_IVM"

echo "== CLI serve smoke =="
dune exec bin/recstep_cli.exe -- serve programs/serve_demo.workload \
  --report "$tmp/serve.json" >/dev/null

# the service report must carry the full counter set, the accounting
# identities must hold, and the demo's repeated queries must actually hit
cat >"$tmp/validate_serve.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
c = r["counters"]
need = {"submitted", "admitted", "rejected", "done", "oom", "timeout",
        "unsupported", "fault", "cache_hit", "cache_miss", "retried",
        "degraded", "deadline_miss"}
missing = need - set(c)
assert not missing, "missing counters: %s" % missing
assert c["submitted"] == c["admitted"] + c["rejected"], "submitted identity"
assert c["admitted"] == c["done"] + c["oom"] + c["timeout"] + c["unsupported"] \
    + c["fault"], "admitted identity"
assert c["cache_hit"] > 0, "demo workload produced no cache hits"
assert len(r["queries"]) == c["submitted"], "one disposition per submission"
print("serve OK: %d submitted, %d served, %d cache hits, p95=%.4fs"
      % (c["submitted"], c["done"], c["cache_hit"], r["latency"]["p95"]))
EOF
python3 "$tmp/validate_serve.py" "$tmp/serve.json"

echo "== chaos smoke =="
# A fixed-seed chaos campaign: seeded fault plans (allocation failures,
# forced txn aborts, worker crashes and stalls, dedup/index build failures,
# cache corruption) composed with the fuzz generator through the full
# serving stack. Every faulted case must end correct or typed-rejected,
# with live bytes back at the pre-case baseline.
dune exec bin/recstep_cli.exe -- chaos --seed 42 --iters 50 \
  --report "$tmp/chaos.json" >/dev/null

cat >"$tmp/validate_chaos.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["clean"], "chaos campaign not clean: %s" % r["violations"]
assert r["violations"] == [], "chaos campaign has violations"
assert r["leaks"] == 0, "chaos campaign leaked live bytes"
assert r["fault_classes"] >= 5, \
    "too few fault classes exercised: %d" % r["fault_classes"]
assert r["recovered"] > 0, "no faulted case recovered to a correct answer"
assert r["rejected_typed"] > 0, "no case ended in a typed rejection"
print("chaos OK: seed %d, %d cases, %d fault classes (%s), "
      "%d recovered, %d typed rejections"
      % (r["seed"], r["cases"], r["fault_classes"],
         ",".join(sorted(r["injected"])), r["recovered"], r["rejected_typed"]))
EOF
python3 "$tmp/validate_chaos.py" "$tmp/chaos.json"

# Kernel arm: compiled kernels claim every tuple they emit into the head
# table's membership set, so a round whose later kernel degrades leaves
# claims R never receives unless the fallback drops the set. Half of all
# kernel probes fire here; every case must still end correct.
dune exec bin/recstep_cli.exe -- chaos --seed 42 --iters 30 --plan "kernel:p=0.5" \
  --report "$tmp/chaos_kernel.json" >/dev/null

cat >"$tmp/validate_chaos_kernel.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["clean"], "kernel chaos arm not clean: %s" % r["violations"]
assert r["violations"] == [], "kernel chaos arm has violations"
assert r["leaks"] == 0, "kernel chaos arm leaked live bytes"
assert r["injected"].get("kernel", 0) >= 1, "kernel chaos arm injected no kernel fault"
print("chaos kernel arm OK: %d kernel faults injected, %d recovered"
      % (r["injected"]["kernel"], r["recovered"]))
EOF
python3 "$tmp/validate_chaos_kernel.py" "$tmp/chaos_kernel.json"

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

cat >"$tmp/validate_load.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
classes = r["classes"]
assert [c["class"] for c in classes] == ["gold", "silver", "bronze"], "class order"
total = 0
for c in classes:
    lat = c["latency"]
    assert lat["count"] == c["served"], \
        "%s: histogram holds %d of %d served" % (c["class"], lat["count"], c["served"])
    if lat["count"] == 0:
        # zero-sample class: no quantiles may be fabricated
        assert set(lat) == {"count"}, \
            "%s: empty class reports quantiles: %s" % (c["class"], sorted(lat))
    else:
        qs = [lat["p50"], lat["p95"], lat["p99"], lat["p999"]]
        assert qs == sorted(qs), "%s: quantiles not monotone: %s" % (c["class"], qs)
        assert lat["min"] <= lat["p50"] and lat["p999"] <= lat["max"], \
            "%s: quantiles escape [min, max]" % c["class"]
    assert 0.0 <= c["attainment"] <= 1.0, "%s: attainment out of range" % c["class"]
    assert c["degraded"] <= c["served"], "%s: degraded exceeds served" % c["class"]
    total += c["served"] + c["failed"] + c["rejected"]
assert total == r["spec"]["queries"], \
    "class accounting (%d) does not cover the %d submitted queries" % (total, r["spec"]["queries"])
a = r["autoscale"]
assert a["evals"] > 0, "autoscaler never evaluated a window"
assert a["up"] + a["down"] > 0, "autoscaler never resized under burst load"
assert r["tenants_used"] > 0 and r["top_tenants"], "no tenant accounting"
print("load smoke OK: %d tenants drawn, %d queries accounted, autoscale evals=%d up=%d down=%d"
      % (r["tenants_used"], total, a["evals"], a["up"], a["down"]))
EOF
python3 "$tmp/validate_load.py" "$tmp/slo.json"

# Autoscaler A/B benchmark: same generated load against a fixed-size
# service and an autoscaled one. Served outputs must be byte-identical
# (the scaler may only move latency, never answers), the scaled arm must
# win the tail, and BENCH_service.json lands in the working directory
# (tracked, like the other BENCH_*.json snapshots).
dune exec bench/main.exe -- --only load >/dev/null
cat >"$tmp/validate_bench_load.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    b = json.load(f)
assert b["identical_outputs"], "autoscaler changed served results"
arms = {a["autoscale"]: a for a in b["arms"]}
assert set(arms) == {True, False}, "expected exactly an on and an off arm"
on, off = arms[True], arms[False]
assert on["slo"]["autoscale"]["up"] > 0, "autoscaler never scaled up"
assert off["slo"]["autoscale"]["evals"] == 0, "fixed arm ran the scaler"
gold = {c["class"]: c for c in on["slo"]["classes"]}["gold"]
gold_off = {c["class"]: c for c in off["slo"]["classes"]}["gold"]
assert gold["latency"]["p95"] < gold_off["latency"]["p95"], \
    "autoscaled gold p95 (%.4f) did not beat fixed (%.4f)" \
    % (gold["latency"]["p95"], gold_off["latency"]["p95"])
assert on["slo"]["makespan_s"] <= off["slo"]["makespan_s"], "autoscaling lost makespan"
print("BENCH_service OK: outputs identical, gold p95 %.4fs -> %.4fs, makespan %.3fs -> %.3fs"
      % (gold_off["latency"]["p95"], gold["latency"]["p95"],
         off["slo"]["makespan_s"], on["slo"]["makespan_s"]))
EOF
python3 "$tmp/validate_bench_load.py" BENCH_service.json

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
cat >"$tmp/validate_perf.py" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = f.read().splitlines()
w = sys.argv[2]
assert lines, "perfbench %s printed nothing" % w
r = json.loads(lines[-1])
assert r["correct"] is True, "perfbench %s reported correct=%r" % (w, r["correct"])
assert r["attempted"] > 0, "perfbench %s attempted no operations" % w
assert r["failed"] == 0, "perfbench %s: %d of %d operations failed" % (w, r["failed"], r["attempted"])
drift = r["metrics"].get("trace.drifting_counters")
assert drift is not None, "perfbench %s reported no trace.drifting_counters" % w
assert drift["value"] == 0, "perfbench %s: %r counters drift across repetitions" % (w, drift["value"])
print("perfbench smoke OK: %s, %d operations, all correct, no drifting counter"
      % (w, r["attempted"]))
EOF
for w in pa-join deep-chain; do
  sh perfbench/run.sh --workload "$w" --seed 1 --seconds 0 --trace 1 >"$tmp/perf.$w.out"
  python3 "$tmp/validate_perf.py" "$tmp/perf.$w.out" "$w"
done

echo "== check passed =="
