#!/bin/sh
# scripts/smoke.sh — end-to-end smoke in nine phases. Phase 1 covers the
# observability layer: start a real dmserver, probe /healthz and /metrics,
# then run a small dmexp batch against the registry and check that ONE
# trace ID crosses the client log, the server log and the journal.
# Phase 2 covers resilience: a standalone dmregistry, two dmservers
# publishing into it — one answering every SOAP call with an injected
# fault — and a batch that must finish on the healthy replica with the
# failover visible in the client metrics. Phase 3 covers admission
# control: flood one dmserver at many times its -max-inflight, assert the
# overflow is shed as ServerBusy, the batch still completes via retries,
# the in-flight bound held, and SIGINT drains gracefully. Phase 4 covers
# the parallel kernels: a crossValidate call against
# the live phase-1 dmserver must finish under the client's propagated
# deadline and leave the kernel_ms metric on /metrics. Phase 5 covers the
# model store: two dmservers share a -store-dir behind a registry, a
# session trained on one replica is SIGKILLed away, and the next classify
# must resume warm on the survivor — snapshot restored from the store,
# zero retrains. Phase 6 covers batched binary scoring: a 1024-row dmb1
# payload through one Session classifyBatch call, with the decoded dmr1
# reply and the batch_rows_total / batch_decode_ms metrics asserted.
# Phase 7 covers replica churn + store GC: a ~30s dmsoak run — three
# dmservers sharing a store directory, a SIGKILL every 10s, background
# compaction enabled — must finish with zero failed requests, at least
# one replica kill survived, and a nonzero GC byte reclaim. Phase 8
# covers durable workflows: a journaled dmflow run trains a session on
# one replica, is SIGKILLed while the classify step waits out injected
# latency on a second replica, and the -resume re-run must finish by
# replaying the journaled train step — proven by the first replica's
# createSession counter standing still across the resume. Phase 9
# covers the chained binary pipeline: a 1024-row dmb1 block through a
# live filterBatch (Normalize) whose reply payload cables straight into
# clusterBatch — no ARFF between hops — with the DMC1 reply decoded by
# dminfo and the per-op batch_rows_total counters asserted.
# Run from the repo root.
set -eu

WORK=$(mktemp -d)
SERVER_PID=""
REG_PID=""
GOOD_PID=""
BAD_PID=""
FLOOD_PID=""
REG2_PID=""
REPA_PID=""
REPB_PID=""
WFA_PID=""
WFB_PID=""
DMFLOW_PID=""
cleanup() {
	for pid in "$SERVER_PID" "$REG_PID" "$GOOD_PID" "$BAD_PID" "$FLOOD_PID" "$REG2_PID" "$REPA_PID" "$REPB_PID" "$WFA_PID" "$WFB_PID" "$DMFLOW_PID"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/dmserver" ./cmd/dmserver
go build -o "$WORK/dmexp" ./cmd/dmexp
go build -o "$WORK/dmregistry" ./cmd/dmregistry

"$WORK/dmserver" -addr 127.0.0.1:0 -log-level info >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

# The server prints its ephemeral base URL; wait for it.
BASE=""
i=0
while [ $i -lt 50 ]; do
	BASE=$(sed -n 's|^dmserver listening on \(http://[^ ]*\).*|\1|p' "$WORK/server.log" | head -1)
	[ -n "$BASE" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$BASE" ]; then
	echo "smoke: dmserver did not start" >&2
	cat "$WORK/server.log" >&2
	exit 1
fi

# /healthz must answer 200 ok.
code=$(curl -fsS -o "$WORK/health.json" -w '%{http_code}' "$BASE/healthz")
if [ "$code" != 200 ] || ! grep -q '"ok"' "$WORK/health.json"; then
	echo "smoke: /healthz -> $code: $(cat "$WORK/health.json")" >&2
	exit 1
fi

cat >"$WORK/spec.json" <<'EOF'
{
  "name": "smoke",
  "folds": 3,
  "datasets": [{"name": "breast-cancer", "builtin": "breast-cancer"}],
  "algorithms": [{"algorithm": "J48"}]
}
EOF

# Registry-discovered remote dispatch with trace collection; client-side
# structured logs land on stderr.
"$WORK/dmexp" run -spec "$WORK/spec.json" -journal "$WORK/batch.jsonl" \
	-registry "$BASE/registry" -trace -log-level info \
	>"$WORK/dmexp.out" 2>"$WORK/client.log"

# The journal records the batch's trace ID; exactly one ID must cross every
# layer: journal, client log, server log, and the printed trace tree.
TRACE=$(sed -n 's/.*"traceId":"\([^"]*\)".*/\1/p' "$WORK/batch.jsonl" | sort -u)
if [ -z "$TRACE" ]; then
	echo "smoke: journal carries no traceId" >&2
	cat "$WORK/batch.jsonl" >&2
	exit 1
fi
if [ "$(printf '%s\n' "$TRACE" | wc -l)" -ne 1 ]; then
	echo "smoke: journal has several trace IDs:" >&2
	printf '%s\n' "$TRACE" >&2
	exit 1
fi
for probe in "trace=$TRACE:$WORK/client.log" "trace=$TRACE:$WORK/server.log" "trace $TRACE:$WORK/client.log"; do
	pat=${probe%%:*}
	file=${probe#*:}
	if ! grep -q "$pat" "$file"; then
		echo "smoke: $pat absent from $file" >&2
		tail -20 "$file" >&2
		exit 1
	fi
done

# /metrics must now carry non-zero soap and harness counters.
curl -fsS "$BASE/metrics" >"$WORK/metrics.json"
if [ ! -s "$WORK/metrics.json" ]; then
	echo "smoke: /metrics returned an empty body" >&2
	exit 1
fi
for want in soap_server_requests_total harness_cache_; do
	if ! grep -q "\"$want" "$WORK/metrics.json"; then
		echo "smoke: no $want metric at /metrics" >&2
		cat "$WORK/metrics.json" >&2
		exit 1
	fi
done

echo "smoke: phase 1 ok (base=$BASE trace=$TRACE)"

# ---------------------------------------------------------------------------
# Phase 2: chaos/failover. A shared dmregistry, two dmservers publishing
# into it with heartbeats, one of them injecting a soap:Server fault into
# EVERY service call. The batch must still complete every job — with a
# hair-trigger breaker (-breaker-failures 1) the faulty replica is ejected
# after one failure — and the evidence must land in the metrics snapshot.
"$WORK/dmregistry" -addr 127.0.0.1:0 -ttl 30s >"$WORK/registry.log" 2>&1 &
REG_PID=$!
REG=""
i=0
while [ $i -lt 50 ]; do
	REG=$(sed -n 's|^dmregistry listening on \(http://[^ ]*\).*|\1|p' "$WORK/registry.log" | head -1)
	[ -n "$REG" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$REG" ]; then
	echo "smoke: dmregistry did not start" >&2
	cat "$WORK/registry.log" >&2
	exit 1
fi

"$WORK/dmserver" -addr 127.0.0.1:0 -publish "$REG" -heartbeat 1s \
	>"$WORK/good.log" 2>&1 &
GOOD_PID=$!
"$WORK/dmserver" -addr 127.0.0.1:0 -publish "$REG" -heartbeat 1s \
	-chaos 'fault=1' >"$WORK/bad.log" 2>&1 &
BAD_PID=$!

# Both hosts publish the Classifier service under the same name; wait
# until the registry's inquiry lists two distinct endpoints for it.
i=0
while [ $i -lt 100 ]; do
	n=$(curl -fsS "$REG/inquiry?category=classifier" 2>/dev/null |
		grep -o '"endpoint"' | wc -l) || n=0
	[ "$n" -ge 2 ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ "$n" -lt 2 ]; then
	echo "smoke: registry lists $n classifier endpoint(s), want 2" >&2
	cat "$WORK/good.log" "$WORK/bad.log" >&2
	exit 1
fi

cat >"$WORK/chaos-spec.json" <<'EOF'
{
  "name": "smoke-chaos",
  "folds": 3,
  "datasets": [{"name": "weather", "builtin": "weather"}],
  "algorithms": [{"algorithm": "ZeroR"}, {"algorithm": "OneR"}]
}
EOF

"$WORK/dmexp" run -spec "$WORK/chaos-spec.json" -journal "$WORK/chaos.jsonl" \
	-registry "$REG" -breaker-failures 1 -retries 3 \
	-metrics-out "$WORK/chaos-metrics.json" \
	>"$WORK/chaos.out" 2>"$WORK/chaos.err" || {
	echo "smoke: chaos batch failed despite a healthy replica" >&2
	cat "$WORK/chaos.out" "$WORK/chaos.err" >&2
	exit 1
}
if grep -q '"status":"failed"' "$WORK/chaos.jsonl"; then
	echo "smoke: chaos journal records failed jobs" >&2
	cat "$WORK/chaos.jsonl" >&2
	exit 1
fi

# The failover must be visible: the chaotic endpoint's breaker opened and
# the pool ejected it at least once.
for want in resilience_breaker_opens_total resilience_endpoint_ejections_total; do
	if ! grep -Eq "\"$want\{[^\"]*\}\": *[1-9]" "$WORK/chaos-metrics.json"; then
		echo "smoke: no nonzero $want in the client metrics snapshot" >&2
		cat "$WORK/chaos-metrics.json" >&2
		exit 1
	fi
done

echo "smoke: phase 2 ok (registry=$REG, failover confirmed)"

# ---------------------------------------------------------------------------
# Phase 3: admission control under flood. One dmserver with only 2
# execution slots and 2 queue seats, 12 dmexp workers pushing 12 jobs at
# it — a sustained ~10x overload at the burst. Chaos latency stretches
# each service call to 200ms so the burst actually collides (the real
# handlers answer in ~1ms, too fast to ever fill 2 slots). The overflow
# must be shed as soap:Server.Busy (visible in BOTH the server's shed
# counter and the client's fault-class counter), the in-flight bound
# must hold at its peak, and the batch must still complete every job
# through retries.
"$WORK/dmserver" -addr 127.0.0.1:0 -max-inflight 2 -queue 2 \
	-chaos 'latency=200ms' -log-level info >"$WORK/flood.log" 2>&1 &
FLOOD_PID=$!
FLOOD=""
i=0
while [ $i -lt 50 ]; do
	FLOOD=$(sed -n 's|^dmserver listening on \(http://[^ ]*\).*|\1|p' "$WORK/flood.log" | head -1)
	[ -n "$FLOOD" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$FLOOD" ]; then
	echo "smoke: flood dmserver did not start" >&2
	cat "$WORK/flood.log" >&2
	exit 1
fi

cat >"$WORK/flood-spec.json" <<'EOF'
{
  "name": "smoke-flood",
  "folds": 3,
  "datasets": [{"name": "weather", "builtin": "weather"}, {"name": "iris", "builtin": "iris"}],
  "algorithms": [{"algorithm": "ZeroR"}, {"algorithm": "OneR"}, {"algorithm": "DecisionStump"},
                 {"algorithm": "NaiveBayes"}, {"algorithm": "J48"}, {"algorithm": "IBk"}]
}
EOF

"$WORK/dmexp" run -spec "$WORK/flood-spec.json" -journal "$WORK/flood.jsonl" \
	-endpoints "$FLOOD/services/Classifier" -workers 12 -retries 8 \
	-metrics-out "$WORK/flood-metrics.json" \
	>"$WORK/flood.out" 2>"$WORK/flood.err" || {
	echo "smoke: flood batch failed despite retries" >&2
	cat "$WORK/flood.out" "$WORK/flood.err" >&2
	exit 1
}
if grep -q '"status":"failed"' "$WORK/flood.jsonl"; then
	echo "smoke: flood journal records failed jobs" >&2
	cat "$WORK/flood.jsonl" >&2
	exit 1
fi

# The server must have shed (the flood exceeded its capacity)...
curl -fsS "$FLOOD/metrics" >"$WORK/flood-server-metrics.json"
if ! grep -Eq '"admission_shed_total\{[^"]*\}": *[1-9]' "$WORK/flood-server-metrics.json"; then
	echo "smoke: flood produced no admission_shed_total on the server" >&2
	cat "$WORK/flood-server-metrics.json" >&2
	exit 1
fi
# ...while never exceeding its in-flight bound, even at the peak.
peak=$(sed -n 's/.*"admission_inflight_peak": *\([0-9]*\).*/\1/p' "$WORK/flood-server-metrics.json" | head -1)
if [ -z "$peak" ] || [ "$peak" -lt 1 ] || [ "$peak" -gt 2 ]; then
	echo "smoke: admission_inflight_peak=$peak, want within [1,2]" >&2
	cat "$WORK/flood-server-metrics.json" >&2
	exit 1
fi
# The client must have seen the sheds as ServerBusy faults (and retried
# through them — the journal check above proves the retries worked).
if ! grep -Eq '"soap_client_faults_total\{[^"]*soap:Server\.Busy[^"]*\}": *[1-9]' "$WORK/flood-metrics.json"; then
	echo "smoke: no soap:Server.Busy fault class in the client metrics" >&2
	cat "$WORK/flood-metrics.json" >&2
	exit 1
fi

# SIGINT must drain gracefully: withdraw, finish, announce, exit.
kill -INT "$FLOOD_PID"
i=0
while [ $i -lt 100 ]; do
	grep -q "dmserver: drained, bye" "$WORK/flood.log" && break
	i=$((i + 1))
	sleep 0.1
done
if ! grep -q "dmserver: draining (grace" "$WORK/flood.log" ||
	! grep -q "dmserver: drained, bye" "$WORK/flood.log"; then
	echo "smoke: flood dmserver did not drain cleanly on SIGINT" >&2
	tail -20 "$WORK/flood.log" >&2
	exit 1
fi
wait "$FLOOD_PID" 2>/dev/null || true
FLOOD_PID=""

echo "smoke: phase 3 ok (flood=$FLOOD, peak=$peak, sheds confirmed)"

# ---------------------------------------------------------------------------
# Phase 4: parallel cross-validation over live SOAP. The Classifier
# service's crossValidate operation fans folds across workers; the call
# runs under dmclient's 30s timeout (propagated to the server as
# X-DM-Deadline, which cancels in-flight training if it expires), must
# report a sane accuracy, and must leave the parallel-kernel metrics on
# the server's /metrics endpoint.
go build -o "$WORK/dmclient" ./cmd/dmclient
go build -o "$WORK/dminfo" ./cmd/dminfo
"$WORK/dminfo" -embedded breast-cancer -arff >"$WORK/breast.arff"

"$WORK/dmclient" -url "$BASE/services/Classifier" -op crossValidate \
	-timeout 30s -file "dataset=$WORK/breast.arff" \
	-part classifier=J48 -part attribute=Class \
	-part folds=5 >"$WORK/cv.out" 2>"$WORK/cv.err" || {
	echo "smoke: parallel crossValidate failed under the 30s deadline" >&2
	cat "$WORK/cv.out" "$WORK/cv.err" >&2
	exit 1
}
acc=$(sed -n '/^=== accuracy ===$/{n;p;}' "$WORK/cv.out")
case "$acc" in
0.[0-9]* | 1.0*) ;;
*)
	echo "smoke: crossValidate returned accuracy '$acc'" >&2
	cat "$WORK/cv.out" >&2
	exit 1
	;;
esac

curl -fsS "$BASE/metrics" >"$WORK/cv-metrics.json"
for want in "kernel_ms{kernel=crossvalidate}" "kernel_runs_total{kernel=crossvalidate}"; do
	if ! grep -qF "\"$want\"" "$WORK/cv-metrics.json"; then
		echo "smoke: no $want metric after the parallel crossValidate" >&2
		cat "$WORK/cv-metrics.json" >&2
		exit 1
	fi
done

echo "smoke: phase 4 ok (accuracy=$acc, parallel fold kernel observed)"

# ---------------------------------------------------------------------------
# Phase 5: model store failover. Two dmserver replicas share one
# -store-dir and publish into a fresh registry. A session is created
# (trained) on replica A; A is then SIGKILLed — no drain, no goodbye —
# and the same session token must classify on replica B: restored from
# the shared store (store_hits_total > 0 on B) without a single retrain
# (no harness build on B).
# The phase-2 servers are done; stop them so they don't pollute lookups.
kill "$GOOD_PID" "$BAD_PID" 2>/dev/null || true
GOOD_PID=""
BAD_PID=""

"$WORK/dmregistry" -addr 127.0.0.1:0 -ttl 30s >"$WORK/registry2.log" 2>&1 &
REG2_PID=$!
REG2=""
i=0
while [ $i -lt 50 ]; do
	REG2=$(sed -n 's|^dmregistry listening on \(http://[^ ]*\).*|\1|p' "$WORK/registry2.log" | head -1)
	[ -n "$REG2" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$REG2" ]; then
	echo "smoke: phase-5 dmregistry did not start" >&2
	cat "$WORK/registry2.log" >&2
	exit 1
fi

STOREDIR="$WORK/modelstore"
"$WORK/dmserver" -addr 127.0.0.1:0 -store-dir "$STOREDIR" -publish "$REG2" \
	-heartbeat 1s >"$WORK/repA.log" 2>&1 &
REPA_PID=$!
"$WORK/dmserver" -addr 127.0.0.1:0 -store-dir "$STOREDIR" -publish "$REG2" \
	-heartbeat 1s >"$WORK/repB.log" 2>&1 &
REPB_PID=$!
REPA=""
REPB=""
i=0
while [ $i -lt 100 ]; do
	REPA=$(sed -n 's|^dmserver listening on \(http://[^ ]*\).*|\1|p' "$WORK/repA.log" | head -1)
	REPB=$(sed -n 's|^dmserver listening on \(http://[^ ]*\).*|\1|p' "$WORK/repB.log" | head -1)
	[ -n "$REPA" ] && [ -n "$REPB" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$REPA" ] || [ -z "$REPB" ]; then
	echo "smoke: store replicas did not start" >&2
	cat "$WORK/repA.log" "$WORK/repB.log" >&2
	exit 1
fi
# Both replicas must be discoverable behind the registry before the drill.
i=0
while [ $i -lt 100 ]; do
	n=$(curl -fsS "$REG2/inquiry?name=Session" 2>/dev/null |
		grep -o '"endpoint"' | wc -l) || n=0
	[ "$n" -ge 2 ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ "$n" -lt 2 ]; then
	echo "smoke: registry lists $n Session endpoint(s), want 2" >&2
	exit 1
fi

# Train a session on replica A; the token must be the portable dms1 form.
"$WORK/dmclient" -url "$REPA/services/Session" -op createSession \
	-timeout 30s -file "dataset=$WORK/breast.arff" \
	-part classifier=J48 -part attribute=Class >"$WORK/sess.out" 2>"$WORK/sess.err" || {
	echo "smoke: createSession on replica A failed" >&2
	cat "$WORK/sess.out" "$WORK/sess.err" >&2
	exit 1
}
TOKEN=$(sed -n '/^=== session ===$/{n;p;}' "$WORK/sess.out")
case "$TOKEN" in
dms1.*) ;;
*)
	echo "smoke: session id '$TOKEN' is not a portable dms1 token" >&2
	cat "$WORK/sess.out" >&2
	exit 1
	;;
esac

# Kill the serving replica the hard way: SIGKILL, mid-session.
kill -9 "$REPA_PID" 2>/dev/null || true
wait "$REPA_PID" 2>/dev/null || true
REPA_PID=""

# The very next call lands on the survivor and must answer warm.
"$WORK/dmclient" -url "$REPB/services/Session" -op classify \
	-timeout 30s -part "session=$TOKEN" -file "instances=$WORK/breast.arff" \
	>"$WORK/resume.out" 2>"$WORK/resume.err" || {
	echo "smoke: classify on the survivor failed after SIGKILL" >&2
	cat "$WORK/resume.out" "$WORK/resume.err" >&2
	exit 1
}
labels=$(sed -n '/^=== labels ===$/,$p' "$WORK/resume.out" | grep -c 'recurrence\|no-recurrence') || labels=0
if [ "$labels" -lt 1 ]; then
	echo "smoke: survivor returned no labels" >&2
	cat "$WORK/resume.out" >&2
	exit 1
fi

# The survivor must prove it resumed from the store, not by retraining:
# a nonzero store hit, and no harness build at all.
curl -fsS "$REPB/metrics" >"$WORK/storeB-metrics.json"
if ! grep -Eq '"store_hits_total[^"]*": *[1-9]' "$WORK/storeB-metrics.json"; then
	echo "smoke: survivor shows no store_hits_total" >&2
	cat "$WORK/storeB-metrics.json" >&2
	exit 1
fi
if ! grep -Eq '"harness_store_restores_total[^"]*": *[1-9]' "$WORK/storeB-metrics.json"; then
	echo "smoke: survivor shows no harness_store_restores_total" >&2
	cat "$WORK/storeB-metrics.json" >&2
	exit 1
fi
if grep -Eq '"harness_builds_total[^"]*": *[1-9]' "$WORK/storeB-metrics.json"; then
	echo "smoke: survivor retrained (harness_builds_total > 0)" >&2
	cat "$WORK/storeB-metrics.json" >&2
	exit 1
fi

echo "smoke: phase 5 ok (token resumed on survivor, store hit, zero retrains)"

# ---------------------------------------------------------------------------
# Phase 6: batched binary scoring. A 1024-row dmb1 payload (the embedded
# breast-cancer rows tiled to batch size) goes through the phase-1
# dmserver's Session service in ONE classifyBatch call: train a session,
# ship the block, get a dmr1 result block back. The reply must carry all
# 1024 labels (decoded and counted with dminfo -decode-dmb1), and the
# server's /metrics must show the batch path ran: batch_rows_total
# counts the decoded rows, batch_decode_ms timed the wire decode.
"$WORK/dminfo" -embedded breast-cancer -tile 1024 -dmb1 >"$WORK/payload.b64"

"$WORK/dmclient" -url "$BASE/services/Session" -op createSession \
	-timeout 30s -file "dataset=$WORK/breast.arff" \
	-part classifier=J48 -part attribute=Class >"$WORK/sess6.out" 2>"$WORK/sess6.err" || {
	echo "smoke: phase-6 createSession failed" >&2
	cat "$WORK/sess6.out" "$WORK/sess6.err" >&2
	exit 1
}
TOKEN6=$(sed -n '/^=== session ===$/{n;p;}' "$WORK/sess6.out")

"$WORK/dmclient" -url "$BASE/services/Session" -op classifyBatch \
	-timeout 30s -part "session=$TOKEN6" -part encoding=dmb1 \
	-file "payload=$WORK/payload.b64" >"$WORK/batch6.out" 2>"$WORK/batch6.err" || {
	echo "smoke: classifyBatch failed" >&2
	cat "$WORK/batch6.out" "$WORK/batch6.err" >&2
	exit 1
}
rows=$(sed -n '/^=== rows ===$/{n;p;}' "$WORK/batch6.out")
if [ "$rows" != 1024 ]; then
	echo "smoke: classifyBatch returned rows=$rows, want 1024" >&2
	cat "$WORK/batch6.out" >&2
	exit 1
fi
# The result payload must decode as a dmr1 block carrying 1024 labels.
sed -n '/^=== payload ===$/{n;p;}' "$WORK/batch6.out" >"$WORK/result.b64"
"$WORK/dminfo" -decode-dmb1 "$WORK/result.b64" >"$WORK/result.txt"
if ! grep -q "dmr1 result block: .* 1024 row(s)" "$WORK/result.txt"; then
	echo "smoke: result block did not decode to 1024 rows" >&2
	cat "$WORK/result.txt" >&2
	exit 1
fi

curl -fsS "$BASE/metrics" >"$WORK/batch-metrics.json"
rowsTotal=$(sed -n 's/.*"batch_rows_total{op=classifyBatch}": *\([0-9]*\).*/\1/p' "$WORK/batch-metrics.json" | head -1)
if [ -z "$rowsTotal" ] || [ "$rowsTotal" -lt 1024 ]; then
	echo "smoke: batch_rows_total=$rowsTotal, want >= 1024" >&2
	cat "$WORK/batch-metrics.json" >&2
	exit 1
fi
if ! grep -q '"batch_decode_ms{op=classifyBatch}' "$WORK/batch-metrics.json"; then
	echo "smoke: no batch_decode_ms histogram after classifyBatch" >&2
	cat "$WORK/batch-metrics.json" >&2
	exit 1
fi

echo "smoke: phase 6 ok (1024-row dmb1 batch scored in one call, metrics observed)"

# ---------------------------------------------------------------------------
# Phase 7: replica churn + store GC. dmsoak boots three dmservers on one
# store directory behind its own registry, drives a mixed train /
# classify / classifyBatch workload through resilience pools, SIGKILLs
# and restarts a random replica every 10s, and deletes stored models so
# the replicas' background GC has dead bytes to reclaim. The soak must
# end with zero client-visible failures, at least one kill survived, and
# a nonzero GC reclaim (the run's sweeps plus the closing forced
# compaction).
go build -o "$WORK/dmsoak" ./cmd/dmsoak

"$WORK/dmsoak" -replicas 3 -duration 30s -kill-every 10s -workers 4 \
	-dmserver "$WORK/dmserver" -out "$WORK/soak.json" \
	>"$WORK/soak.out" 2>"$WORK/soak.err" || {
	echo "smoke: dmsoak run failed (error budget exceeded?)" >&2
	cat "$WORK/soak.json" 2>/dev/null >&2 || cat "$WORK/soak.out" >&2
	tail -40 "$WORK/soak.err" >&2
	exit 1
}
if ! grep -q '"failed": 0' "$WORK/soak.json"; then
	echo "smoke: soak saw client-visible failures" >&2
	cat "$WORK/soak.json" >&2
	exit 1
fi
kills=$(sed -n 's/.*"kills": *\([0-9]*\).*/\1/p' "$WORK/soak.json" | head -1)
if [ -z "$kills" ] || [ "$kills" -lt 1 ]; then
	echo "smoke: soak killed $kills replica(s), want >= 1" >&2
	cat "$WORK/soak.json" >&2
	exit 1
fi
reclaimed=$(sed -n 's/.*"reclaimed_bytes": *\([0-9]*\).*/\1/p' "$WORK/soak.json" | head -1)
if [ -z "$reclaimed" ] || [ "$reclaimed" -lt 1 ]; then
	echo "smoke: soak reclaimed $reclaimed byte(s) of garbage, want > 0" >&2
	cat "$WORK/soak.json" >&2
	exit 1
fi

echo "smoke: phase 7 ok (kills=$kills survived, failed=0, gc reclaimed ${reclaimed}B)"

# ---------------------------------------------------------------------------
# Phase 8: durable workflow resume. Two dmservers share a model store; a
# journaled dmflow run trains a session on the fast replica and then
# classifies on a replica whose classify op carries 3s of injected
# latency. dmflow is SIGKILLed mid-classify — after the train step was
# journaled — and re-run with -resume. The resumed run must complete,
# print the labels, and must NOT re-invoke createSession: the trained
# step replays from the journal, proven by the fast replica's
# soap_server_requests_total{op=createSession} counter standing still.
go build -o "$WORK/dmflow" ./cmd/dmflow

WFSTORE="$WORK/wfstore"
"$WORK/dmserver" -addr 127.0.0.1:0 -store-dir "$WFSTORE" >"$WORK/wfA.log" 2>&1 &
WFA_PID=$!
"$WORK/dmserver" -addr 127.0.0.1:0 -store-dir "$WFSTORE" \
	-chaos 'op=classify,latency=3s' >"$WORK/wfB.log" 2>&1 &
WFB_PID=$!
WFA=""
WFB=""
i=0
while [ $i -lt 100 ]; do
	WFA=$(sed -n 's|^dmserver listening on \(http://[^ ]*\).*|\1|p' "$WORK/wfA.log" | head -1)
	WFB=$(sed -n 's|^dmserver listening on \(http://[^ ]*\).*|\1|p' "$WORK/wfB.log" | head -1)
	[ -n "$WFA" ] && [ -n "$WFB" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$WFA" ] || [ -z "$WFB" ]; then
	echo "smoke: phase-8 dmservers did not start" >&2
	cat "$WORK/wfA.log" "$WORK/wfB.log" >&2
	exit 1
fi

# The workflow: one embedded dataset feeding createSession on the fast
# replica, whose session token cables into classify on the slow one.
cat >"$WORK/wf.xml" <<EOF
<?xml version="1.0" encoding="UTF-8"?>
<workflow name="smoke-resume">
  <task id="data">
    <unit kind="const">
      <config name="name">dataset-source</config>
      <config name="value.dataset">$(cat "$WORK/breast.arff")</config>
    </unit>
  </task>
  <task id="train">
    <unit kind="soap">
      <config name="endpoint">$WFA/services/Session</config>
      <config name="service">Session</config>
      <config name="operation">createSession</config>
      <config name="in.0">dataset</config>
      <config name="in.1">classifier</config>
      <config name="in.2">attribute</config>
      <config name="out.0">session</config>
    </unit>
    <param name="classifier">J48</param>
    <param name="attribute">Class</param>
  </task>
  <task id="score">
    <unit kind="soap">
      <config name="endpoint">$WFB/services/Session</config>
      <config name="service">Session</config>
      <config name="operation">classify</config>
      <config name="in.0">session</config>
      <config name="in.1">instances</config>
      <config name="out.0">labels</config>
    </unit>
  </task>
  <cable fromTask="data" fromPort="dataset" toTask="train" toPort="dataset"/>
  <cable fromTask="data" fromPort="dataset" toTask="score" toPort="instances"/>
  <cable fromTask="train" fromPort="session" toTask="score" toPort="session"/>
</workflow>
EOF

# First run: journaled, killed the hard way once the train step lands in
# the journal (the classify step is then waiting out the 3s of chaos).
"$WORK/dmflow" -sequential -journal "$WORK/wf.jsonl" "$WORK/wf.xml" \
	>"$WORK/wf1.out" 2>"$WORK/wf1.err" &
DMFLOW_PID=$!
i=0
while [ $i -lt 100 ]; do
	grep '"step":"train"' "$WORK/wf.jsonl" 2>/dev/null | grep -q '"status":"ok"' && break
	i=$((i + 1))
	sleep 0.1
done
if ! grep '"step":"train"' "$WORK/wf.jsonl" 2>/dev/null | grep -q '"status":"ok"'; then
	echo "smoke: train step never reached the journal" >&2
	cat "$WORK/wf1.err" "$WORK/wf.jsonl" 2>/dev/null >&2
	exit 1
fi
kill -9 "$DMFLOW_PID" 2>/dev/null || true
wait "$DMFLOW_PID" 2>/dev/null || true
DMFLOW_PID=""
if grep '"step":"score"' "$WORK/wf.jsonl" | grep -q '"status":"ok"'; then
	echo "smoke: score step completed before the kill; injected latency too low" >&2
	exit 1
fi

# Snapshot the fast replica's createSession count before the resume.
curl -fsS "$WFA/metrics" >"$WORK/wfA-metrics-1.json"
trains_before=$(sed -n 's/.*"soap_server_requests_total{op=createSession,service=Session}": *\([0-9]*\).*/\1/p' "$WORK/wfA-metrics-1.json" | head -1)
if [ -z "$trains_before" ] || [ "$trains_before" -lt 1 ]; then
	echo "smoke: fast replica shows createSession=$trains_before before resume, want >= 1" >&2
	cat "$WORK/wfA-metrics-1.json" >&2
	exit 1
fi

# Resume: the journaled data/train steps must replay, score must run.
"$WORK/dmflow" -sequential -journal "$WORK/wf.jsonl" -resume "$WORK/wf.xml" \
	>"$WORK/wf2.out" 2>"$WORK/wf2.err" || {
	echo "smoke: resumed dmflow run failed" >&2
	cat "$WORK/wf2.err" >&2
	exit 1
}
if ! grep -q "\[replayed\] train" "$WORK/wf2.err"; then
	echo "smoke: resumed run did not replay the train step" >&2
	cat "$WORK/wf2.err" >&2
	exit 1
fi
labels=$(sed -n '/^=== score.labels ===$/,$p' "$WORK/wf2.out" | grep -c 'recurrence\|no-recurrence') || labels=0
if [ "$labels" -lt 1 ]; then
	echo "smoke: resumed run produced no labels" >&2
	cat "$WORK/wf2.out" >&2
	exit 1
fi

# The replay must have spared the service: createSession count unchanged.
curl -fsS "$WFA/metrics" >"$WORK/wfA-metrics-2.json"
trains_after=$(sed -n 's/.*"soap_server_requests_total{op=createSession,service=Session}": *\([0-9]*\).*/\1/p' "$WORK/wfA-metrics-2.json" | head -1)
if [ "$trains_after" != "$trains_before" ]; then
	echo "smoke: resume re-invoked createSession ($trains_before -> $trains_after)" >&2
	exit 1
fi

# -report renders the journal: every step ok after the resumed run.
"$WORK/dmflow" -journal "$WORK/wf.jsonl" -report >"$WORK/wf-report.out"
if ! grep -q "3 completed, " "$WORK/wf-report.out"; then
	echo "smoke: journal report does not show 3 completed steps" >&2
	cat "$WORK/wf-report.out" >&2
	exit 1
fi

echo "smoke: phase 8 ok (train journaled once, resume replayed it, createSession=$trains_after unchanged)"

# ---------------------------------------------------------------------------
# Phase 9: chained binary pipeline. A 1024-row weather-numeric dmb1
# block goes through the phase-1 dmserver's Filter service as ONE
# filterBatch call (Normalize); the reply payload — still a dmb1 block,
# no ARFF materialised — cables directly into a clusterBatch call on the
# Clusterer service. The DMC1 reply must decode to 1024 assignments
# across 2 clusters, and /metrics must show both batch ops counted
# their rows.
"$WORK/dminfo" -embedded weather-numeric -tile 1024 -dmb1 >"$WORK/pipe.b64"

"$WORK/dmclient" -url "$BASE/services/Filter" -op filterBatch \
	-timeout 30s -part filter=Normalize -part encoding=dmb1 \
	-file "payload=$WORK/pipe.b64" >"$WORK/pipe-f.out" 2>"$WORK/pipe-f.err" || {
	echo "smoke: filterBatch failed" >&2
	cat "$WORK/pipe-f.out" "$WORK/pipe-f.err" >&2
	exit 1
}
frows=$(sed -n '/^=== rows ===$/{n;p;}' "$WORK/pipe-f.out")
if [ "$frows" != 1024 ]; then
	echo "smoke: filterBatch returned rows=$frows, want 1024" >&2
	cat "$WORK/pipe-f.out" >&2
	exit 1
fi
sed -n '/^=== payload ===$/{n;p;}' "$WORK/pipe-f.out" >"$WORK/pipe-filtered.b64"

# Hop 2: the filtered block is the clusterBatch payload, byte for byte.
"$WORK/dmclient" -url "$BASE/services/Clusterer" -op clusterBatch \
	-timeout 30s -part clusterer=SimpleKMeans -part 'options={"k":"2"}' \
	-part encoding=dmb1 -file "payload=$WORK/pipe-filtered.b64" \
	>"$WORK/pipe-c.out" 2>"$WORK/pipe-c.err" || {
	echo "smoke: clusterBatch on the filtered payload failed" >&2
	cat "$WORK/pipe-c.out" "$WORK/pipe-c.err" >&2
	exit 1
}
crows=$(sed -n '/^=== rows ===$/{n;p;}' "$WORK/pipe-c.out")
if [ "$crows" != 1024 ]; then
	echo "smoke: clusterBatch returned rows=$crows, want 1024" >&2
	cat "$WORK/pipe-c.out" >&2
	exit 1
fi
sed -n '/^=== payload ===$/{n;p;}' "$WORK/pipe-c.out" >"$WORK/pipe-result.b64"
"$WORK/dminfo" -decode-dmb1 "$WORK/pipe-result.b64" >"$WORK/pipe-result.txt"
if ! grep -q "DMC1 cluster result block: .* 1024 row(s), 2 cluster(s)" "$WORK/pipe-result.txt"; then
	echo "smoke: chained reply did not decode to a 1024-row 2-cluster DMC1 block" >&2
	cat "$WORK/pipe-result.txt" >&2
	exit 1
fi

# Both hops must have counted their rows on the server.
curl -fsS "$BASE/metrics" >"$WORK/pipe-metrics.json"
for op in filterBatch clusterBatch; do
	n=$(sed -n 's/.*"batch_rows_total{op='"$op"'}": *\([0-9]*\).*/\1/p' "$WORK/pipe-metrics.json" | head -1)
	if [ -z "$n" ] || [ "$n" -lt 1024 ]; then
		echo "smoke: batch_rows_total{op=$op}=$n, want >= 1024" >&2
		cat "$WORK/pipe-metrics.json" >&2
		exit 1
	fi
done

echo "smoke: phase 9 ok (filterBatch -> clusterBatch chained binary, 1024 rows per hop)"
echo "smoke: ok"
