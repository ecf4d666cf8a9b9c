#!/usr/bin/env bash
# A/B the benchmark between a reference commit (the parent) and this checkout:
#
#   scripts/ab.sh REF [PAIRS=10] [WORKLOAD...]      # default: every workload
#
# REF's committed files are extracted into a temporary directory (git archive,
# so nothing is registered in .git and bench/run.sh builds from source there
# exactly as it does here). For seed i = 1..PAIRS each workload runs once on
# each side with BENCHMARK.json's command, run length and seed i, alternating
# which side goes first. Every run is printed, then per workload x end-to-end
# metric: both medians, the parent's quartiles, how many pairs the change won
# or tied, and a verdict by the simplicity-review rule —
#
#   unresolved          the parent's own interquartile spread is wider than the
#                       metric's bound in BENCHMARK.json (a noisy host), unless
#                       every run of the change reads better than every run of
#                       the parent
#   worse-beyond-bound  the change's median is worse than the parent's by more
#                       than that bound
#   ok                  otherwise
#
# plus `failed` summed over each side's runs. The script exits 1 when any
# verdict is worse-beyond-bound or the change failed more runs than the parent
# on some workload; unresolved does not fail. A run takes about 30 s on a
# 2-vCPU host, so ten pairs take about ten minutes per workload. Needs bash,
# git, tar, jq and the Go toolchain.
set -euo pipefail

ref=${1:?usage: scripts/ab.sh REF [PAIRS=10] [WORKLOAD...]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
manifest=$root/BENCHMARK.json
seconds=$(jq -r .run_seconds "$manifest")
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(jq -r '.workloads[].name' "$manifest")
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# A run is a background job in its own process group (set -m), so INT or TERM
# stops the whole run — bench/run.sh, its go build or the wwtbench it execs —
# and waits for it before the EXIT trap removes the tree it runs from.
set -m
child=
stop() {
	trap - INT TERM
	if [ -n "$child" ]; then
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	exit "$1"
}
trap 'stop 130' INT
trap 'stop 143' TERM
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

# run TREE WORKLOAD SEED prints the run's result object on one line; a run
# that dies before printing one counts as a failed run with no metrics.
run() {
	bash "$1/bench/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 >"$tmp/out" 2>/dev/null &
	child=$!
	wait "$child" || true
	child=
	tail -n 1 "$tmp/out" | jq -ce . 2>/dev/null || echo '{"failed":1,"metrics":{}}'
}

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		order=(parent change)
		if ((i % 2 == 0)); then order=(change parent); fi
		for side in "${order[@]}"; do
			tree=$root
			if [ "$side" = parent ]; then tree=$tmp/parent; fi
			run "$tree" "$w" "$i" >>"$tmp/$w.$side"
		done
		jq -rn --arg w "$w" --arg i "$i" --arg first "${order[0]}" \
			--slurpfile p "$tmp/$w.parent" --slurpfile c "$tmp/$w.change" '
			def row: [.metrics | to_entries[] | "\(.key)=\(.value.value * 1000 | round / 1000)"] + ["failed=\(.failed)"] | join(" ");
			"\($w) seed \($i) (\($first) first)\n  parent \($p[-1] | row)\n  change \($c[-1] | row)"'
	done
done

for w in "${workloads[@]}"; do
	jq -rn --arg w "$w" --slurpfile m "$manifest" \
		--slurpfile p "$tmp/$w.parent" --slurpfile c "$tmp/$w.change" '
		def quantile(q): sort as $s | ((($s | length) - 1) * q) as $h | ($h | floor) as $lo
			| $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
		def r3: . * 1000 | round / 1000;
		"\n\($w): \($p | length) pairs, failed parent \([$p[].failed] | add) change \([$c[].failed] | add)",
		($m[0].end_to_end[] | . as $e
			| ($e.better == "lower") as $lower
			| [$p[].metrics[$e.name].value // empty] as $pv
			| [$c[].metrics[$e.name].value // empty] as $cv
			| if ($pv | length) == 0 or ($cv | length) == 0 then "  \($e.name): no data" else
				($pv | quantile(0.5)) as $pm | ($cv | quantile(0.5)) as $cm
				| ($pv | quantile(0.25)) as $q1 | ($pv | quantile(0.75)) as $q3
				| (if $lower then $cm - $pm else $pm - $cm end / $pm) as $worse
				| ([range(0; [$pv, $cv] | map(length) | min)
					| if $cv[.] == $pv[.] then 0 elif ($cv[.] < $pv[.]) == $lower then 1 else -1 end]) as $cmp
				| (if $lower then ($cv | max) < ($pv | min) else ($cv | min) > ($pv | max) end) as $allBetter
				| (if (($q3 - $q1) / $pm) > $e.bound and ($allBetter | not) then "unresolved"
					elif $worse > $e.bound then "worse-beyond-bound"
					else "ok" end) as $verdict
				| "  \($e.name) (\($e.better) is better, bound \($e.bound * 100)%): parent \($pm | r3) [\($q1 | r3)-\($q3 | r3)] change \($cm | r3) (\($worse * 1000 | round / 10 | if . > 0 then "\(.)% worse" else "\(-.)% better" end)) wins \($cmp | map(select(. > 0)) | length) ties \($cmp | map(select(. == 0)) | length) of \($cmp | length): \($verdict)"
			end)'
done | tee "$tmp/summary"

if grep -q ': worse-beyond-bound$' "$tmp/summary" ||
	! awk '/ pairs, failed parent / && $NF > $(NF - 2) { bad = 1 } END { exit bad }' "$tmp/summary"; then
	exit 1
fi
