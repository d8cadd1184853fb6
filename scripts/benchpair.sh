#!/usr/bin/env bash
# Runs the repository benchmark on PARENT and on the working tree in
# alternating pairs, parent first, and writes both sides' results to one
# JSON file:
#
#   bash scripts/benchpair.sh PARENT [--pairs N] [--workloads "w1 w2 …"]
#       [--seconds S] [--seed N] [--trace 0|1] --out BENCH_<n>.json
#
# PARENT is any commit-ish. It is checked out as a detached git worktree
# under .bench_build/ (removed again on exit), and each side is built and
# run through its own bench/run.sh, from its own root, so each keeps its
# own .bench_build/. Defaults: 10 pairs of every workload in
# BENCHMARK.json, 10 s, seed 7, trace 0.
#
# The file holds both SHAs, the shared conditions, every run's gated
# metrics (BENCHMARK.json's end_to_end list) with its correct and
# ops_failed, and per workload and metric: each side's median and
# interquartile range, the change/parent ratio of the medians and the
# number of pairs the change won. `jq '.ratios.cycle.op_p50_ms' FILE`
# reads one ratio. A host drifts between runs made hours apart, so the
# file holds both sides side by side, never a bare absolute.
#
# The gate: the script exits 1, after writing the file, when a change
# run is not correct, failed operations or left no result line, or when
# on some workload the change loses every pair on a gated metric by
# more than that metric's BENCHMARK.json bound. Each metric's line
# prints both sides' IQR as a share of their median beside the ratio,
# so a verdict inside the noise shows as one.
set -euo pipefail

usage() {
	sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10 workloads="" seconds=10 seed=7 trace=0 out=""
while [ $# -gt 0 ]; do
	case $1 in
	--pairs) pairs=$2 ;;
	--workloads) workloads=$2 ;;
	--seconds) seconds=$2 ;;
	--seed) seed=$2 ;;
	--trace) trace=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$out" ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_sha=$(git rev-parse --verify "$parent^{commit}")
change_sha=$(git rev-parse HEAD)
dirty=false
[ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true
if [ -z "$workloads" ]; then
	workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

wt=$root/.bench_build/benchpair-parent
runs=$(mktemp -d)
cleanup() {
	git worktree remove --force "$wt" >/dev/null 2>&1 || true
	git worktree prune
	rm -rf "$runs"
}
trap cleanup EXIT
git worktree remove --force "$wt" >/dev/null 2>&1 || true
git worktree prune
mkdir -p "$root/.bench_build"
git worktree add --detach "$wt" "$parent_sha" >/dev/null

# Build both sides before the first timed run: run.sh builds
# incrementally, and -h exits once the binary is built.
for side in "$wt" "$root"; do
	(cd "$side" && bash bench/run.sh -h >/dev/null 2>&1) || true
done

started=$(date -u +%FT%TZ)
for p in $(seq 1 "$pairs"); do
	for w in $workloads; do
		for side in parent change; do
			dir=$root
			[ $side = parent ] && dir=$wt
			echo "pair $p/$pairs $w $side" >&2
			(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null) |
				grep '"metrics"' | tail -1 >"$runs/$w.$p.$side.json" || true
		done
	done
done
finished=$(date -u +%FT%TZ)

python3 - "$runs" "$out" <<EOF
import json, os, statistics, sys

runs_dir, out = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
gated = {m["name"]: m["better"] for m in bench["end_to_end"]}
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
workloads = "$workloads".split()
pairs = $pairs

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

doc = {
    "parent": "$parent_sha",
    "change": "$change_sha",
    "change_dirty": $( [ $dirty = true ] && echo True || echo False ),
    "conditions": {
        "pairs": pairs, "workloads": workloads, "seconds": float("$seconds"),
        "seed": int("$seed"), "trace": int("$trace"), "order": "parent first in every pair",
        "nproc": os.cpu_count(), "go": os.popen("go env GOVERSION").read().strip(),
        "kernel": os.uname().release, "started": "$started", "finished": "$finished",
    },
    "runs": {}, "summary": {}, "ratios": {},
}
failures = []
for w in workloads:
    rows = []
    for p in range(1, pairs + 1):
        row = {"pair": p}
        for side in ("parent", "change"):
            path = os.path.join(runs_dir, f"{w}.{p}.{side}.json")
            text = open(path).read().strip() if os.path.exists(path) else ""
            if not text:
                row[side] = {"correct": False, "ops_failed": None, "error": "no result line"}
                continue
            r = json.loads(text)
            row[side] = {
                "correct": r["correct"], "ops_failed": r["failed"], "ops_attempted": r["attempted"],
                "metrics": {k: v["value"] for k, v in r["metrics"].items() if k in gated},
            }
        rows.append(row)
    doc["runs"][w] = rows
    summary, ratios = {}, {}
    for m, better in gated.items():
        both = [(r["parent"]["metrics"][m], r["change"]["metrics"][m]) for r in rows
                if "metrics" in r["parent"] and "metrics" in r["change"]
                and m in r["parent"]["metrics"] and m in r["change"]["metrics"]]
        if not both:
            continue
        par, chg = [b[0] for b in both], [b[1] for b in both]
        pq, cq = quartiles(par), quartiles(chg)
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in both)
        ratio = cq[1] / pq[1] if pq[1] else None
        # How much worse the change is than the parent in each pair, as
        # a share of the parent's value.
        losses = [((c - p) if better == "lower" else (p - c)) / p if p else 0.0 for p, c in both]
        if min(losses) > bounds[m]:
            failures.append(f"{w} {m}: the change lost every pair by more than {bounds[m]:.0%} "
                            f"(the least by {min(losses):.1%})")
        summary[m] = {
            "better": better, "pairs": len(both), "wins": wins, "ratio": ratio,
            "least_loss": min(losses),
            "parent": {"median": pq[1], "iqr": pq[2] - pq[0]},
            "change": {"median": cq[1], "iqr": cq[2] - cq[0]},
        }
        ratios[m] = ratio
    doc["summary"][w] = summary
    doc["ratios"][w] = ratios

bad = [(w, r["pair"], side) for w in workloads for r in doc["runs"][w] for side in ("parent", "change")
       if not r[side]["correct"] or r[side]["ops_failed"]]
failures += [f"{w} pair {p} change: incorrect, failed operations or no result line"
             for w, p, side in bad if side == "change"]
doc["gate"] = {"passed": not failures, "failures": failures}

with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

def spread(side):
    return side["iqr"] / side["median"] if side["median"] else 0.0

for w in workloads:
    for m, s in doc["summary"][w].items():
        print(f"{w:9s} {m:12s} ratio {s['ratio']:.3f} (IQR/median parent {spread(s['parent']):.1%}, "
              f"change {spread(s['change']):.1%})  wins {s['wins']}/{s['pairs']}  "
              f"parent {s['parent']['median']:.4g}  change {s['change']['median']:.4g}")
for w, p, side in bad:
    print(f"{w} pair {p} {side}: incorrect or failed operations", file=sys.stderr)
for f in failures:
    print(f"gate: {f}", file=sys.stderr)
print("gate: " + ("passed" if not failures else "FAILED"), file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
