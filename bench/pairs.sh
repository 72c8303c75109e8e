#!/bin/sh
# pairs.sh BASE PAIRS SECONDS KEEP WORKLOAD... is the body of
# `make bench-pairs`: it measures the working tree against the commit BASE
# on each WORKLOAD and writes bench/BENCH_<short-sha>.json, named after
# HEAD (with "-dirty" when tracked files differ from it).
#
# The benchmark at BASE is built in a git worktree under bin/, which is
# removed once built; the working tree's is built beside it. For each
# workload the two binaries run PAIRS times each, alternately and at seed
# 1, for SECONDS of measured time (the driver form `--workload W --seed N
# --seconds S`); the first binary of a pair alternates too. Counts are
# exact per seed, so two runs of one binary that differ in a count KEEP
# selects fail the run. KEEP is the jq filter `make bench` keeps a run's
# counts with ($w is the workload), so both leave out the same noisy ones.
# The file holds, per workload and end-to-end metric, each side's median,
# quartiles and range, and in how many pairs the working tree was better
# (the direction is BENCHMARK.json's "better").
#
# A working tree measured before it is committed is named by
# go_diff_sha256, the sha256 of `git diff HEAD -- '*.go' go.mod go.sum`
# when it ran. Once the change is committed as C on HEAD,
# `git diff C~1 C -- '*.go' go.mod go.sum | sha256sum` prints the same hash
# if C builds what was measured. An untracked Go file would be built but
# not hashed, so one fails the run. Needs jq.
set -eu

[ $# -ge 5 ] || { echo "usage: pairs.sh BASE PAIRS SECONDS KEEP WORKLOAD..." >&2; exit 2; }
base_rev=$1 pairs=$2 secs=$3 keep=$4
shift 4
workloads=$*

base=$(git rev-parse --short "$base_rev^{commit}")
head=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- || head="$head-dirty"
untracked=$(git ls-files --others --exclude-standard -- '*.go')
[ -z "$untracked" ] || { echo "bench-pairs: untracked Go files: $untracked" >&2; exit 2; }
go_diff=$(git diff --no-ext-diff --no-color HEAD -- '*.go' go.mod go.sum | sha256sum | cut -d ' ' -f 1)
out=bench/BENCH_$head.json
start=$(date +%s)

mkdir -p bin
tree=bin/bench-pairs-base
runs=$(mktemp -d)
cleanup() {
	rm -rf "$runs"
	if [ -d "$tree" ]; then git worktree remove --force "$tree"; fi
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" "$base"
(cd "$tree" && go build -o ../benchmark-base ./benchmark)
git worktree remove --force "$tree"
go build -o bin/benchmark-head ./benchmark

for w in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		order="base head"
		if [ $((i % 2)) -eq 0 ]; then order="head base"; fi
		for side in $order; do
			echo "bench-pairs: $w pair $i/$pairs $side" >&2
			"bin/benchmark-$side" --workload "$w" --seed 1 --seconds "$secs" --trace 0 --out "$runs/spans" \
				> "$runs/run.json" 2> "$runs/log" ||
				{ cat "$runs/log" >&2; echo "bench-pairs: $side $w pair $i failed" >&2; exit 1; }
			jq -c --arg w "$w" --arg s "$side" --argjson i "$i" \
				'{workload: $w, side: $s, pair: $i, failed, checked: ('"$keep"' | keys),
				  values: (.metrics | map_values(.value)), units: (.metrics | map_values(.unit))}' \
				"$runs/run.json" >> "$runs/runs.jsonl"
		done
		i=$((i + 1))
	done
done

jq -s -S \
	--slurpfile decl BENCHMARK.json \
	--arg base "$base" --arg head "$head" --arg go_diff "$go_diff" \
	--argjson pairs "$pairs" --argjson secs "$secs" \
	--argjson wall "$(($(date +%s) - start))" \
	--arg go "$(go env GOVERSION)" --argjson cpus "$(getconf _NPROCESSORS_ONLN)" '
	def quant(p): sort as $s | ((($s | length) - 1) * p) as $i
		| ($i | floor) as $lo | ($i | ceil) as $hi
		| $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
	def spread: {median: quant(0.5), q1: quant(0.25), q3: quant(0.75), min: min, max: max};
	def exact($check; $w; $side; $m):
		if $check and (unique | length > 1) then error("\($w): \($side) runs differ in the count \($m): \(.)") else . end;
	($decl[0].end_to_end | map({key: .name, value: .better}) | from_entries) as $better
	| {base: $base, head: $head, pairs: $pairs, seconds: $secs, seed: 1,
	   go_diff_sha256: $go_diff, go: $go, cpus: $cpus, wall_s: $wall,
	   workloads: (group_by(.workload) | map(
		.[0].workload as $w
		| (map(select(.side == "base")) | sort_by(.pair)) as $b
		| (map(select(.side == "head")) | sort_by(.pair)) as $h
		| {key: $w, value: (
			{failed: {base: ($b | map(.failed) | add), head: ($h | map(.failed) | add)}}
			+ ([$b[0].units | to_entries[] | .key as $m | .value as $unit
				| ($m | IN($b[0].checked[])) as $check
				| ($b | map(.values[$m]) | exact($check; $w; "base"; $m)) as $bv
				| ($h | map(.values[$m]) | exact($check; $w; "head"; $m)) as $hv
				| {key: $m, value: {unit: $unit, better: $better[$m],
					base: ($bv | spread), head: ($hv | spread),
					head_won: ([range(0; $bv | length)
						| select(if $better[$m] == "higher" then $hv[.] > $bv[.] else $hv[.] < $bv[.] end)] | length)}}
			  ] | from_entries))}
	   ) | from_entries)}
	' "$runs/runs.jsonl" > "$runs/bench.json"
mv "$runs/bench.json" "$out"
echo "bench-pairs: wrote $out in $(($(date +%s) - start)) s" >&2
