#!/bin/sh
# verify.sh — the full local gate, with the elapsed time of each stage:
# formatting, build, no encoding/gob import, no encoding/base64 import in
# non-test internal/wire, no internal/resilience import in non-test
# internal/soap, no internal/journal import in non-test
# internal/experiment, vet of the repo and of the
# benchmark module (so a change that breaks an API benchmark/ pins fails
# here, not in the benchmark run), the benchmark module's own tests, the
# benchmark's own smoke (every workload for half a
# second, replies checked against the oracle: correctness only, no
# timing), one plain and one -race pass over every test, twenty -race
# passes over the model pool, the dataset column mirror (the code
# concurrent requests share) and the admission in-flight bound, ten over
# the retry loop's hedge/pool/retry tests (each -run pattern first
# checked to match a test in every package it names), ten seconds of
# every fuzz target the packages declare, the deterministic
# short-mode replica-churn soak, then the end-to-end smoke
# (scripts/smoke.sh: live dmserver probes, traced dmexp batch, chaos
# failover, the admission flood + graceful-drain drill, the model-store
# replica-failover drill, the 1024-row dmb1 classifyBatch drill, the
# replica-churn soak, the journaled-workflow kill/resume drill, and the
# chained filterBatch -> clusterBatch binary-pipeline drill).
# Run from the repo root.
set -eu

# stage NAME CMD...: run one gate stage and print how long it took.
stage() {
	name=$1
	shift
	began=$(date +%s)
	echo "== $name"
	"$@"
	echo "== $name: $(($(date +%s) - began))s"
}

check_gofmt() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		return 1
	fi
}

# vet gates on output, not just exit code: anything it prints is a
# finding, and findings fail the gate.
check_vet() {
	vetout=$("$@" 2>&1) || {
		echo "$vetout" >&2
		return 1
	}
	if [ -n "$vetout" ]; then
		echo "go vet findings:" >&2
		echo "$vetout" >&2
		return 1
	fi
}

# Model snapshots have their own codec (internal/model); encoding/gob may
# not come back, in code or tests. benchmark/ is its own module, outside
# ./... here.
check_no_gob() {
	importers=$(go list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... |
		grep -w 'encoding/gob' || true)
	if [ -n "$importers" ]; then
		echo "encoding/gob imported by:" >&2
		echo "$importers" | cut -d: -f1 >&2
		return 1
	fi
}

# The wire codec converts straight between columns and base64 text
# (internal/wire/base64.go); encoding/base64 is only its test oracle, so a
# second, two-pass codec path cannot come back in non-test wire code.
check_wire_base64() {
	if go list -f '{{join .Imports " "}}' ./internal/wire | grep -qw 'encoding/base64'; then
		echo "internal/wire imports encoding/base64 outside its tests" >&2
		return 1
	fi
}

# Retry, backoff and failover live in resilience.Policy.Do alone; the SOAP
# client is one HTTP round trip, so internal/soap may not import
# internal/resilience outside its tests.
check_soap_no_resilience() {
	if go list -f '{{join .Imports " "}}' ./internal/soap | grep -qw 'repro/internal/resilience'; then
		echo "internal/soap imports internal/resilience outside its tests" >&2
		return 1
	fi
}

# The workflow engine is the one job runner that journals: an experiment
# batch runs as an engine graph and resumes from the engine's step
# journal, so non-test internal/experiment may not import
# internal/journal.
check_experiment_no_journal() {
	if go list -f '{{join .Imports " "}}' ./internal/experiment | grep -qw 'repro/internal/journal'; then
		echo "internal/experiment imports internal/journal outside its tests" >&2
		return 1
	fi
}

# Two real dmserver replicas on one store directory, a SIGKILL every
# 2.5s, background GC on — the run must end inside its error budget
# (exit 0) with zero failed requests and at least one kill survived.
soak() {
	out=$(mktemp)
	go run ./cmd/dmsoak -short -out "$out"
	grep -q '"failed": 0' "$out"
	grep -Eq '"kills": [1-9]' "$out"
	rm -f "$out"
}

# race_run COUNT PATTERN PKG...: COUNT -race passes of the tests in every
# PKG that match PATTERN, after a `go test -list` check that each PKG has
# one, so a renamed test cannot drop out of the harness unnoticed.
race_run() {
	count=$1
	pattern=$2
	shift 2
	for pkg in "$@"; do
		if ! go test -list "$pattern" "$pkg" | grep -q '^Test'; then
			echo "race harness: no $pkg test matches '$pattern'" >&2
			return 1
		fi
	done
	go test -race -count="$count" -run "$pattern" "$@"
}

# Twenty -race passes over the shared-state code: the model pool, the
# dataset column mirror, and the admission controller's in-flight tests
# (the bound must hold on the handler and on the gauge); then ten over the
# retry loop's callers, since the hedged race runs inside it; then twenty
# over IBk scoring, whose neighbour index concurrent scorers share; then
# twenty over the kernels' helper budget, and five over the kernel
# determinism tests, whose contended cases share that budget between
# nested fan-outs.
race_harness() {
	go test -race -count=20 ./internal/harness ./internal/dataset
	race_run 20 'InFlight' ./internal/admission
	race_run 10 'Hedge|PoolDo|Retry' ./internal/resilience ./internal/workflow ./internal/admission ./internal/experiment
	race_run 20 'IBkConcurrent|IBkUpdate|IBkPruned' ./internal/classify
	go test -race -count=20 ./internal/parallel
	race_run 5 'ParallelDeterminism|SearchDeterminismAcrossProcs' ./internal/classify ./internal/cluster ./internal/attrsel
}

# Ten seconds of every fuzz target in the module, found by
# `go test -list '^Fuzz'` rather than named here, so a new target joins
# the stage without an edit. A failing input lands in the package's
# testdata/fuzz/ and fails every later `go test`.
fuzz() {
	list=$(go test -list '^Fuzz' ./...)
	targets=$(printf '%s\n' "$list" | awk '
		/^Fuzz/ { names = names " " $1; next }
		/^ok/ { n = split(names, f, " "); for (i = 1; i <= n; i++) print $2 ":" f[i]; names = "" }')
	for t in $targets; do
		go test -run '^$' -fuzz "^${t#*:}\$" -fuzztime 10s "${t%%:*}"
	done
}

stage gofmt check_gofmt
stage build go build ./...
stage "no gob" check_no_gob
stage "no base64 in wire" check_wire_base64
stage "no resilience in soap" check_soap_no_resilience
stage "no journal in experiment" check_experiment_no_journal
stage vet check_vet go vet ./...
stage "vet benchmark" check_vet go -C benchmark vet ./...
stage "benchmark tests" go -C benchmark test ./...
stage "benchmark smoke" bash benchmark/run.sh --smoke
stage test go test ./...
stage "test -race" go test -race ./...
stage "race harness" race_harness
stage fuzz fuzz
stage soak soak
stage smoke ./scripts/smoke.sh
