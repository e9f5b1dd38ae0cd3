#!/usr/bin/env bash
# scripts/pair.sh — alternating parent/change pairs of the end-to-end
# benchmark, each side built from a clean export.
#
#   scripts/pair.sh [-k N] [-seed S] [-seconds T] <parent-ref> [<change-ref>|--staged] [workload...]
#
# The parent and the change (a ref, HEAD by default, or --staged for the
# index as `git write-tree` sees it) are each exported once with
# `git archive` into a temporary directory, and every run goes through
# that side's own benchmark/run.sh. For each workload (all of those in
# BENCHMARK.json by default) it runs k pairs (default 10), alternating
# which side goes first, and after every second pair one A/A pair of the
# parent against itself, also alternating. It then prints one JSON object
# per workload and end-to-end metric (scripts/pairstat): each side's
# median and [Q1, Q3], the change/parent ratio, wins out of k, a one-sided
# sign-test p, and the A/A ratio as the noise floor. Progress and every
# run's result line go to stderr. Needs git, bash and the Go toolchain.
set -euo pipefail

k=10 seed=1 seconds=20
while [ $# -gt 0 ]; do
	case $1 in
	-k) k=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	*) break ;;
	esac
done
if [ $# -lt 1 ]; then
	sed -n '5p' "$0" | sed 's/^# *//' >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify "$1^{commit}")
shift
change=HEAD
if [ $# -gt 0 ] && [ "$1" = --staged ]; then
	change=$(git write-tree)
	shift
elif [ $# -gt 0 ] && git rev-parse --verify -q "$1^{tree}" >/dev/null; then
	change=$1
	shift
fi
change=$(git rev-parse --verify "$change^{tree}")
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	read -ra workloads <<<"$(go run ./scripts/pairstat -workloads BENCHMARK.json)"
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for side in parent change; do
	mkdir "$tmp/$side"
	git archive "${!side}" | tar -x -C "$tmp/$side"
done
echo "pair: parent $parent, change tree $change, k $k, seed $seed, ${seconds}s, workloads ${workloads[*]}" >&2

# run <side> <role> <workload> <pair>: one benchmark run, recorded as
# {"workload", "role", "pair", "result"} in $tmp/runs.jsonl.
run() {
	local out
	out=$(cd "$tmp/$1" && bash benchmark/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
	case $out in
	\{*) ;;
	*) out='{"correct": false}' ;;
	esac
	echo "{\"workload\": \"$3\", \"role\": \"$2\", \"pair\": $4, \"result\": $out}" | tee -a "$tmp/runs.jsonl" >&2
}

for w in "${workloads[@]}"; do
	for ((i = 0; i < k; i++)); do
		if ((i % 2 == 0)); then
			run parent parent "$w" "$i"
			run change change "$w" "$i"
		else
			run change change "$w" "$i"
			run parent parent "$w" "$i"
		fi
		if ((i % 2 == 1)); then
			a=aa1 b=aa2
			if ((i % 4 == 3)); then a=aa2 b=aa1; fi
			run parent "$a" "$w" "$i"
			run parent "$b" "$w" "$i"
		fi
	done
done
go run ./scripts/pairstat -bench BENCHMARK.json "$tmp/runs.jsonl"
