#!/usr/bin/env bash
# Compares a base revision with this checkout on one perfbench workload,
# in alternating pairs of runs. Run it from the root of the checkout:
#
#   bash scripts/perfbench_pairs.sh <rev> <workload> <seed>...
#
# <rev> is checked out offline with `git worktree add` under
# .bench_build/, and the worktree is removed on exit. Each seed runs one
# pair: `perfbench/run.sh --seed <seed> --seconds <s> --trace 0` on both
# trees, <s> being the run_seconds of BENCHMARK.json, the base first on
# odd seeds and this checkout first on even ones, so neither side always
# runs second on a warmed host. For every end-to-end metric of
# BENCHMARK.json the script prints each side's median and quartiles over
# the pairs and how many pairs this checkout won (a tie is not a win).
# Every run's output stays in .bench_build/pairs/.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <rev> <workload> <seed>..." >&2
	exit 2
fi
rev=$1 workload=$2
shift 2
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$secs" ]; then
	echo "$0: no run_seconds in BENCHMARK.json" >&2
	exit 2
fi
root=$(pwd)
base="$root/.bench_build/pairs-base"
out="$root/.bench_build/pairs"

git worktree remove --force "$base" 2>/dev/null || true
git worktree add --detach --quiet "$base" "$rev"
trap 'git -C "$root" worktree remove --force "$base"' EXIT
mkdir -p "$out"
: >"$out/metrics.txt"

# run <side> <tree> <seed>: one perfbench run, its metrics appended to
# metrics.txt as "<seed> <side> <name> <value>" lines.
run() {
	local log="$out/$1-$3.log"
	echo "seed $3: $1" >&2
	if ! (cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$secs" --trace 0) </dev/null >"$log" 2>&1; then
		echo "seed $3: $1 failed, see $log" >&2
	fi
	tail -n 1 "$log" | grep -o '"[a-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed "s/^\"\([^\"]*\)\":{\"value\":/$3 $1 \1 /" >>"$out/metrics.txt" || true
}

for seed in "$@"; do
	if ((seed % 2)); then
		run base "$base" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$base" "$seed"
	fi
done

# The end-to-end metrics and their directions, from BENCHMARK.json.
sed -n '/"end_to_end"/,/]/p' BENCHMARK.json |
	sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p' >"$out/directions.txt"

awk -v n_pairs=$# '
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the q-quantile of the sorted a[1..n], interpolating linearly.
function q(a, n, p,    h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function stats(side, m,    s, n, v) {
	n = 0
	for (s in seen) if ((s, side, m) in val) v[++n] = val[s, side, m]
	if (n == 0) return "-"
	sortv(v, n)
	return sprintf("%.4g [%.4g, %.4g]", q(v, n, 0.5), q(v, n, 0.25), q(v, n, 0.75))
}
FILENAME ~ /directions/ { order[++nm] = $1; better[$1] = $2; next }
{ val[$1, $2, $3] = $4; seen[$1] = 1 }
END {
	printf "%-16s %-34s %-34s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change wins"
	for (i = 1; i <= nm; i++) {
		m = order[i]; wins = 0; pairs = 0
		for (s in seen) {
			if (!((s, "base", m) in val) || !((s, "change", m) in val)) continue
			pairs++
			b = val[s, "base", m]; c = val[s, "change", m]
			if ((better[m] == "higher" && c > b) || (better[m] == "lower" && c < b)) wins++
		}
		printf "%-16s %-34s %-34s %d of %d\n", m, stats("base", m), stats("change", m), wins, pairs
	}
	printf "(%d seeds requested)\n", n_pairs
}' "$out/directions.txt" "$out/metrics.txt"
