#!/usr/bin/env bash
# Runs each benchmark workload once at seed 1 and compares its result
# digest with scripts/perfbench_digests.txt. Run it from the root of the
# checkout:
#
#   bash scripts/perfbench_digests.sh [seconds]
#
# The run must complete the operations its digest covers and enough for
# perfbench's tail percentile (100 sweep operations); a run that prints
# "the run was too short", or fails, fails the check. seconds defaults
# to 15, which clears both on a 2-CPU host.
set -uo pipefail

secs="${1:-15}"
fail=0
while read -r workload want; do
	case "$workload" in '' | '#'*) continue ;; esac
	if ! out=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds "$secs" --trace 0 2>&1 </dev/null); then
		echo "$workload: perfbench failed:" && echo "$out"
		fail=1
		continue
	fi
	got=$(awk '$1 == "digest" { print $2 }' <<<"$out")
	if grep -q "the run was too short" <<<"$out"; then
		echo "$workload: the run was too short for its digest"
		fail=1
	elif [ "$got" != "$want" ]; then
		echo "$workload: digest $got, want $want"
		fail=1
	else
		echo "$workload: digest $got"
	fi
done <scripts/perfbench_digests.txt
exit "$fail"
