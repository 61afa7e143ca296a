#!/bin/sh
# CI smoke test for the telemetry layer and the campaign engine: run one
# tiny campaign with tracing, the metrics endpoint, and the
# final-snapshot dump all enabled (every campaign restores its runs from
# its row's checkpoint ladder), then a second campaign with liveness
# pruning, a 3-rung ladder, and the -prune-verify differential
# guard on top, then a detail-window campaign with the -window-verify
# differential guard, then a figures round (the same window flags through
# the paper-regeneration CLI), then a kill-and-resume round and a distributed
# coordinator/worker round with a SIGKILLed worker, and finally an
# observability round: divergence provenance plus span tracing single-
# node and distributed, with a live SSE subscription and the fleet-
# aggregated snapshot cross-checked against the per-worker snapshots,
# and finally an adaptive round: a sequentially-stopped campaign whose
# stop point must survive kill/resume and distribution byte-for-byte,
# with and without pruning —
# all artifacts validated with scripts/smokecheck — and a campaign-
# service round: an always-on multi-tenant faultcampd -service daemon
# takes submissions over /v1, is SIGKILLed and restarted mid-campaign
# (the spooled queue resumes from the journal, byte-identical), and the
# one-shot compatibility mode replays the pruned and detail-window
# campaigns through the same public API.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

tool=gefin-x86
bench=qsort
structure=rf.int
key="${tool}__${bench}__${structure}"

go run ./cmd/faultcamp \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 25 -seed 1 -logs "$tmp/logs" \
    -trace -metrics-addr 127.0.0.1:0 -snapshot-json "$tmp/snap.json" \
    -progress-every 500ms

go run ./scripts/smokecheck \
    -logs "$tmp/logs" -key "$key" -snapshot "$tmp/snap.json"

# Pruned campaign: the L1D data array prunes heavily, -prune-verify
# simulates a sample of the pruned masks anyway and fails on any class
# disagreement, and smokecheck -prune asserts the trace still carries
# one provenance-flagged row per injection.
structure=l1d.data
key="${tool}__${bench}__${structure}"

go run ./cmd/faultcamp \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 40 -seed 2 -logs "$tmp/logs" \
    -prune -prune-verify 25 -ladder 3 \
    -trace -snapshot-json "$tmp/snap_prune.json" \
    -progress-every 500ms

go run ./scripts/smokecheck \
    -logs "$tmp/logs" -key "$key" -snapshot "$tmp/snap_prune.json" -prune

# Windowed campaign: detail-window execution runs each injection
# cycle-accurately only inside a window around its fault and functionally
# everywhere else; -window-verify re-simulates a sample of the windowed
# runs fully cycle-accurately from the same window entries and fails the
# campaign on any outcome-class disagreement. smokecheck -window asserts
# the fast tier actually carried work and at least one window closed.
structure=rf.int
key="${tool}__${bench}__${structure}"

go run ./cmd/faultcamp \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 30 -seed 4 -logs "$tmp/logs" \
    -detail-window -window-verify 10 \
    -trace -snapshot-json "$tmp/snap_window.json" \
    -progress-every 500ms

go run ./scripts/smokecheck \
    -logs "$tmp/logs" -key "$key" -snapshot "$tmp/snap_window.json" -window

# MaFIN L1D round: in MaFIN's dual-copy caches a consumed data-array
# fault closes its window once a store has made the faulted line equal
# to RAM again (DESIGN §12); the benchmark's own population (seed 7,
# live-only) has consumed faults, -window-verify covers every windowed
# mask, and smokecheck -window asserts the windows do close.
# -prune-verify covers every pruned mask: a dead one re-runs without the
# window, because its verdict is a proof about the exact run (mask 77 is
# dead but simulates SDC when its window is entered functionally).
go run ./cmd/faultcamp \
    -tool mafin-x86 -bench "$bench" -structure l1d.data \
    -n 100 -seed 7 -live-only -logs "$tmp/logs" \
    -prune -prune-verify 100 -ladder 3 -detail-window -window-verify 100 \
    -trace -quiet -snapshot-json "$tmp/snap_mafin_l1d.json"

go run ./scripts/smokecheck \
    -logs "$tmp/logs" -key "mafin-x86__${bench}__l1d.data" \
    -snapshot "$tmp/snap_mafin_l1d.json" -prune -window
echo "smoke: MaFIN L1D windows close by content and verify on every windowed and pruned mask"

# Windowed round: the default windowed campaign (the functional tier
# always runs with its predecoded-instruction cache and fast-forward
# rung ladder; internal/core's TestTurboTierIsTheReference holds them
# byte-identical to booting every window entry). Its logs and trace are
# the baseline the one-shot service round below must reproduce.
go run ./cmd/faultcamp \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 30 -seed 4 -logs "$tmp/windowed" \
    -detail-window -trace -quiet -snapshot-json "$tmp/snap_windowed.json"

go run ./scripts/smokecheck \
    -logs "$tmp/windowed" -key "$key" -snapshot "$tmp/snap_windowed.json" -window
echo "smoke: windowed campaign ran its functional tails"

# Figures round: the paper-regeneration CLI runs through the same
# RunConfig as faultcamp, so the shared campaign flags it registers take
# effect — here the detail window with its verify guard — and its trace
# and log header name the campaign by the key its log is stored under.
go run ./cmd/figures -fig 2 -n 12 -benchmarks "$bench" -tools "$tool" \
    -detail-window -window-verify 4 -logs "$tmp/figlogs" \
    -trace -quiet -snapshot-json "$tmp/snap_fig.json" > /dev/null

go run ./scripts/smokecheck \
    -logs "$tmp/figlogs" -key "$key" -trace "$tmp/figlogs/matrix.trace.jsonl" \
    -snapshot "$tmp/snap_fig.json" -window
echo "smoke: figures honours the shared window flags and names its campaign by the log key"

# Crash-and-resume: run a journaled reference campaign to completion,
# then start an identical campaign, SIGKILL it mid-flight, and resume it
# from the journal. The resumed logs and trace must be byte-identical to
# the uninterrupted reference, and smokecheck validates the journal's
# provenance (one fsync'd entry per simulated run, none for pruned ones).
# Built as a binary: kill -9 on `go run` would orphan the real campaign.
structure=rf.int
key="${tool}__${bench}__${structure}"
go build -o "$tmp/faultcamp" ./cmd/faultcamp

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 60 -seed 3 -logs "$tmp/ref" \
    -journal -trace -quiet -snapshot-json "$tmp/snap_ref.json"

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 60 -seed 3 -logs "$tmp/resumed" -workers 1 \
    -journal -trace -quiet -snapshot-json "$tmp/snap_gone.json" &
pid=$!
journal="$tmp/resumed/${key}.journal.jsonl"
i=0
while [ "$(wc -l < "$journal" 2>/dev/null || echo 0)" -lt 10 ] && [ $i -lt 600 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 60 -seed 3 -logs "$tmp/resumed" \
    -resume -trace -quiet -snapshot-json "$tmp/snap_resumed.json"

cmp "$tmp/ref/${key}.log.jsonl" "$tmp/resumed/${key}.log.jsonl"
cmp "$tmp/ref/${key}.trace.jsonl" "$tmp/resumed/${key}.trace.jsonl"

go run ./scripts/smokecheck \
    -logs "$tmp/resumed" -key "$key" -snapshot "$tmp/snap_resumed.json" \
    -journal -want-resumed
echo "smoke: resumed campaign is byte-identical to the uninterrupted reference"

# Distributed campaign: a faultcampd coordinator shards the same rf.int
# campaign over HTTP; the first worker is SIGKILLed mid-campaign so its
# leased shard expires and is requeued, and a second worker finishes the
# matrix. The merged logs and trace must be byte-identical to the
# single-node reference above, and smokecheck -journal validates the
# coordinator's exactly-once ledger against them.
go build -o "$tmp/faultcampd" ./cmd/faultcampd
go build -o "$tmp/faultworker" ./cmd/faultworker

"$tmp/faultcampd" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 60 -seed 3 -logs "$tmp/dist" \
    -shard-size 10 -lease-ttl 2s -retry-backoff 100ms \
    -addr-file "$tmp/coord.addr" \
    -journal -trace -quiet -snapshot-json "$tmp/snap_dist.json" &
dpid=$!

# The doomed worker runs alone until the coordinator has merged (and
# journaled) at least one shard — at that point it holds a lease on the
# next one — then dies without a goodbye.
"$tmp/faultworker" -addr-file "$tmp/coord.addr" -id doomed -quiet &
doomed=$!
# The coordinator creates the journal lazily on the first merged shard,
# so count through cat: a missing file reads as zero lines, not an error.
journal="$tmp/dist/${key}.journal.jsonl"
i=0
while [ "$(cat "$journal" 2>/dev/null | wc -l)" -lt 10 ] && [ $i -lt 1200 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$doomed" 2>/dev/null || true
wait "$doomed" 2>/dev/null || true

"$tmp/faultworker" -addr-file "$tmp/coord.addr" -id survivor -quiet
wait "$dpid"

cmp "$tmp/ref/${key}.log.jsonl" "$tmp/dist/${key}.log.jsonl"
cmp "$tmp/ref/${key}.trace.jsonl" "$tmp/dist/${key}.trace.jsonl"
go run ./scripts/smokecheck \
    -logs "$tmp/dist" -key "$key" -snapshot "$tmp/snap_dist.json" -journal
echo "smoke: distributed campaign merged byte-identical to the single-node reference"

# Observability round. A single-node reference campaign records
# divergence provenance and a span trace; the same campaign distributed
# over two workers must flush a byte-identical divergence file (the
# provenance is a deterministic function of the plan, not of the
# scheduling), while a live smokecheck probe subscribes to the
# coordinator's SSE /events mid-campaign and the fleet-aggregated
# snapshot is cross-checked against the per-worker final snapshots.
# Seed 42's mask population includes runs that architecturally diverge.
structure=rf.int
key="${tool}__${bench}__${structure}"

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 40 -seed 42 -logs "$tmp/obsref" \
    -divergence -spans -trace -quiet -snapshot-json "$tmp/snap_obsref.json"

go run ./scripts/smokecheck \
    -logs "$tmp/obsref" -key "$key" -snapshot "$tmp/snap_obsref.json" \
    -divergence -spans

go build -o "$tmp/smokecheck" ./scripts/smokecheck

"$tmp/faultcampd" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 40 -seed 42 -logs "$tmp/obsdist" \
    -shard-size 8 -addr-file "$tmp/obs.addr" \
    -divergence -spans -trace -quiet \
    -fleet-json "$tmp/fleet.json" -snapshot-json "$tmp/snap_obsdist.json" &
opid=$!

i=0
while [ ! -s "$tmp/obs.addr" ] && [ $i -lt 600 ]; do
    sleep 0.05
    i=$((i + 1))
done
addr="$(cat "$tmp/obs.addr")"

# The live probe subscribes before the workers start — a mid-campaign
# connect whose first frame must be a coherent aggregated snapshot,
# followed by streamed run and span frames as shards merge.
"$tmp/smokecheck" -live "$addr" -min-run-frames 5 -min-span-frames 5 &
livepid=$!

"$tmp/faultworker" -addr-file "$tmp/obs.addr" -id obs-w1 -quiet \
    -snapshot-json "$tmp/obs_w1.json" &
w1=$!
"$tmp/faultworker" -addr-file "$tmp/obs.addr" -id obs-w2 -quiet \
    -snapshot-json "$tmp/obs_w2.json" &
w2=$!
wait "$w1"
wait "$w2"
wait "$livepid"
wait "$opid"

cmp "$tmp/obsref/${key}.divergence.jsonl" "$tmp/obsdist/${key}.divergence.jsonl"
"$tmp/smokecheck" \
    -logs "$tmp/obsdist" -key "$key" -snapshot "$tmp/snap_obsdist.json" \
    -divergence -spans \
    -fleet "$tmp/fleet.json" -worker-snaps "$tmp/obs_w1.json,$tmp/obs_w2.json"
echo "smoke: observability round OK — distributed divergence provenance byte-identical, SSE live, fleet snapshot balanced"

# Adaptive round: a 25pp margin at 99% confidence decides at the first
# 25-run boundary whatever the outcomes, so this 120-mask campaign stops
# at 25 simulated runs and settles the other 95 as stopped-early
# provenance rows. A journaled reference run establishes the artifacts;
# an identical campaign is SIGKILLed mid-flight and resumed — the
# contiguous-prefix stopping rule must re-derive the identical stop
# point, logs and trace byte-for-byte; and the same campaign distributed
# through a coordinator must merge to the same bytes with the stop
# cancelling its queued shards.
structure=rf.int
key="${tool}__${bench}__${structure}"

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 120 -seed 5 -logs "$tmp/adaptref" \
    -stop-margin 0.25 -stop-check-every 25 \
    -journal -trace -quiet -snapshot-json "$tmp/snap_adapt.json"

"$tmp/smokecheck" \
    -logs "$tmp/adaptref" -key "$key" -snapshot "$tmp/snap_adapt.json" \
    -journal -adaptive

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 120 -seed 5 -logs "$tmp/adaptresumed" -workers 1 \
    -stop-margin 0.25 -stop-check-every 25 \
    -journal -trace -quiet -snapshot-json "$tmp/snap_adapt_gone.json" &
pid=$!
journal="$tmp/adaptresumed/${key}.journal.jsonl"
i=0
while [ "$(cat "$journal" 2>/dev/null | wc -l)" -lt 10 ] && [ $i -lt 600 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 120 -seed 5 -logs "$tmp/adaptresumed" \
    -stop-margin 0.25 -stop-check-every 25 \
    -resume -trace -quiet -snapshot-json "$tmp/snap_adapt_resumed.json"

cmp "$tmp/adaptref/${key}.log.jsonl" "$tmp/adaptresumed/${key}.log.jsonl"
cmp "$tmp/adaptref/${key}.trace.jsonl" "$tmp/adaptresumed/${key}.trace.jsonl"
"$tmp/smokecheck" \
    -logs "$tmp/adaptresumed" -key "$key" -snapshot "$tmp/snap_adapt_resumed.json" \
    -journal -want-resumed -adaptive
echo "smoke: resumed adaptive campaign re-derived the identical stop point"

"$tmp/faultcampd" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 120 -seed 5 -logs "$tmp/adaptdist" \
    -stop-margin 0.25 -stop-check-every 25 \
    -shard-size 10 -addr-file "$tmp/adapt.addr" \
    -journal -trace -quiet -snapshot-json "$tmp/snap_adapt_dist.json" &
apid=$!
"$tmp/faultworker" -addr-file "$tmp/adapt.addr" -id adapt-w1 -quiet
wait "$apid"

cmp "$tmp/adaptref/${key}.log.jsonl" "$tmp/adaptdist/${key}.log.jsonl"
cmp "$tmp/adaptref/${key}.trace.jsonl" "$tmp/adaptdist/${key}.trace.jsonl"
"$tmp/smokecheck" \
    -logs "$tmp/adaptdist" -key "$key" -snapshot "$tmp/snap_adapt_dist.json" \
    -journal -adaptive

# The pruned pair: with -prune most masks settle at plan time and the
# rule counts only the simulated ones, so the coordinator must feed,
# cancel and report the cell (the log's adaptive trailer) exactly as
# faultcamp does.
structure=l1d.data
key="${tool}__${bench}__${structure}"
"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 200 -seed 5 -prune -logs "$tmp/adaptpruned" \
    -stop-margin 0.25 -stop-check-every 25 -trace -quiet
"$tmp/faultcampd" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 200 -seed 5 -prune -logs "$tmp/adaptpruneddist" \
    -stop-margin 0.25 -stop-check-every 25 \
    -shard-size 10 -addr-file "$tmp/adaptpruned.addr" -trace -quiet &
apid=$!
"$tmp/faultworker" -addr-file "$tmp/adaptpruned.addr" -id adapt-w2 -quiet
wait "$apid"
cmp "$tmp/adaptpruned/${key}.log.jsonl" "$tmp/adaptpruneddist/${key}.log.jsonl"
cmp "$tmp/adaptpruned/${key}.trace.jsonl" "$tmp/adaptpruneddist/${key}.trace.jsonl"
echo "smoke: adaptive round OK — early stop deterministic across kill/resume and the distributed coordinator, pruned or not"

# Campaign-service round: an always-on faultcampd -service daemon takes
# submissions from two tenants over the /v1 API, shares one fleet
# worker, is SIGKILLed mid-campaign and restarted on the same spool —
# the spooled campaign must resume from its journal and merge
# byte-identical to the single-node reference — while the second
# tenant's campaign is cancelled mid-run and must release its work
# without leaving a result index behind.
structure=rf.int
key="${tool}__${bench}__${structure}"
go build -o "$tmp/faultctl" ./cmd/faultctl

cat > "$tmp/tenants.json" <<'EOF'
[{"name": "alice", "token": "tok-alice", "max_active": 2},
 {"name": "bob", "token": "tok-bob", "max_active": 1}]
EOF
cat > "$tmp/svc_a.json" <<EOF
{"campaigns": [{"tool": "$tool", "benchmark": "$bench", "structure": "$structure"}],
 "injections": 60, "seed": 3}
EOF
cat > "$tmp/svc_b.json" <<EOF
{"campaigns": [{"tool": "$tool", "benchmark": "$bench", "structure": "$structure"}],
 "injections": 1000, "seed": 11}
EOF

"$tmp/faultcampd" -service -logs "$tmp/svclogs" \
    -spool "$tmp/spool" -index "$tmp/svcindex" -tenants "$tmp/tenants.json" \
    -listen 127.0.0.1:0 -addr-file "$tmp/svc.addr" \
    -shard-size 10 -lease-ttl 2s -retry-backoff 100ms &
spid=$!
i=0
while [ ! -s "$tmp/svc.addr" ] && [ $i -lt 600 ]; do
    sleep 0.05
    i=$((i + 1))
done
addr="$(cat "$tmp/svc.addr")"
hostport="${addr#http://}"

# A request without (or with a bogus) token must bounce off the
# bearer-auth envelope before anything is spooled.
if "$tmp/faultctl" -addr "$addr" submit -config "$tmp/svc_a.json" 2>/dev/null; then
    echo "smoke: FAIL — tokenless submit was accepted" >&2
    exit 1
fi

idA="$("$tmp/faultctl" -addr "$addr" -token tok-alice submit \
    -config "$tmp/svc_a.json" -name parity -journal -trace)"

"$tmp/faultworker" -coordinator "$addr" -id fleet-w1 -quiet &
fwpid=$!

# SIGKILL the daemon once campaign A's journal carries at least 10
# merged runs; the fleet worker stays up and rides out the restart.
journal="$tmp/svclogs/$idA/${key}.journal.jsonl"
i=0
while [ "$(cat "$journal" 2>/dev/null | wc -l)" -lt 10 ] && [ $i -lt 1200 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true

# Restart on the same spool and the same address (the worker's base URL
# is fixed): the non-terminal spool entry re-queues flagged resumed and
# the coordinator replays the journal.
"$tmp/faultcampd" -service -logs "$tmp/svclogs" \
    -spool "$tmp/spool" -index "$tmp/svcindex" -tenants "$tmp/tenants.json" \
    -listen "$hostport" -addr-file "$tmp/svc.addr" \
    -shard-size 10 -lease-ttl 2s -retry-backoff 100ms &
spid=$!

stateA="$("$tmp/faultctl" -addr "$addr" -token tok-alice wait "$idA")"
if [ "$stateA" != "done" ]; then
    echo "smoke: FAIL — campaign $idA finished $stateA, want done" >&2
    exit 1
fi

cmp "$tmp/ref/${key}.log.jsonl" "$tmp/svclogs/$idA/${key}.log.jsonl"
cmp "$tmp/ref/${key}.trace.jsonl" "$tmp/svclogs/$idA/${key}.trace.jsonl"
"$tmp/faultctl" -addr "$addr" -token tok-alice snapshot "$idA" > "$tmp/snap_svc_a.json"
"$tmp/smokecheck" \
    -logs "$tmp/svclogs/$idA" -key "$key" -snapshot "$tmp/snap_svc_a.json" \
    -journal -want-resumed
echo "smoke: service campaign survived the daemon SIGKILL/restart byte-identical to the reference"

# Tenant bob: a long campaign on the shared fleet, probed live over the
# service-root SSE plane mid-run, then cancelled; alice must not see it.
idB="$("$tmp/faultctl" -addr "$addr" -token tok-bob submit -config "$tmp/svc_b.json" -name doomed)"
if "$tmp/faultctl" -addr "$addr" -token tok-alice status "$idB" 2>/dev/null; then
    echo "smoke: FAIL — cross-tenant status leak for $idB" >&2
    exit 1
fi
i=0
while [ $i -lt 1200 ]; do
    set -- $("$tmp/faultctl" -addr "$addr" -token tok-bob status "$idB")
    state=$2
    done_shards=${3%%/*}
    if [ "$state" = "running" ] && [ "$done_shards" -ge 1 ]; then
        break
    fi
    sleep 0.05
    i=$((i + 1))
done
"$tmp/smokecheck" -live "$addr" -min-run-frames 3
"$tmp/faultctl" -addr "$addr" -token tok-bob cancel "$idB" > /dev/null
stateB="$("$tmp/faultctl" -addr "$addr" -token tok-bob wait "$idB")"
if [ "$stateB" != "cancelled" ]; then
    echo "smoke: FAIL — campaign $idB finished $stateB, want cancelled" >&2
    exit 1
fi

# The result repository serves alice's aggregated breakdown without
# re-reading the logs; bob's cancelled campaign must have none.
"$tmp/faultctl" -addr "$addr" -token tok-alice results "$idA" | grep -q '"runs": 60'
if "$tmp/faultctl" -addr "$addr" -token tok-bob results "$idB" 2>/dev/null; then
    echo "smoke: FAIL — cancelled campaign $idB served results" >&2
    exit 1
fi

kill "$fwpid" 2>/dev/null || true
wait "$fwpid" 2>/dev/null || true
kill "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true

"$tmp/smokecheck" -service "$idA=done,$idB=cancelled" \
    -spool "$tmp/spool" -index "$tmp/svcindex"
echo "smoke: service round OK — durable queue resumed across SIGKILL, cancel released the fleet, results indexed"

# One-shot compatibility mode: the legacy faultcampd contract now runs
# as a submission through the same /v1 API. The pruned ladder campaign
# and the detail-window campaign must merge byte-identical to their
# single-node references through that path.
structure=l1d.data
key="${tool}__${bench}__${structure}"

"$tmp/faultcamp" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 40 -seed 2 -logs "$tmp/svc_prune_ref" \
    -prune -ladder 3 -trace -quiet

"$tmp/faultcampd" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 40 -seed 2 -logs "$tmp/svc_prune" \
    -prune -ladder 3 \
    -shard-size 10 -addr-file "$tmp/oneshot.addr" \
    -trace -quiet -snapshot-json "$tmp/snap_svc_prune.json" &
ospid=$!
"$tmp/faultworker" -addr-file "$tmp/oneshot.addr" -id oneshot-w1 -quiet
wait "$ospid"

cmp "$tmp/svc_prune_ref/${key}.log.jsonl" "$tmp/svc_prune/${key}.log.jsonl"
cmp "$tmp/svc_prune_ref/${key}.trace.jsonl" "$tmp/svc_prune/${key}.trace.jsonl"
"$tmp/smokecheck" \
    -logs "$tmp/svc_prune" -key "$key" -snapshot "$tmp/snap_svc_prune.json" -prune

structure=rf.int
key="${tool}__${bench}__${structure}"
rm -f "$tmp/oneshot.addr"

"$tmp/faultcampd" \
    -tool "$tool" -bench "$bench" -structure "$structure" \
    -n 30 -seed 4 -logs "$tmp/svc_window" \
    -detail-window \
    -shard-size 10 -addr-file "$tmp/oneshot.addr" \
    -trace -quiet -snapshot-json "$tmp/snap_svc_window.json" &
ospid=$!
"$tmp/faultworker" -addr-file "$tmp/oneshot.addr" -id oneshot-w2 -quiet
wait "$ospid"

cmp "$tmp/windowed/${key}.log.jsonl" "$tmp/svc_window/${key}.log.jsonl"
cmp "$tmp/windowed/${key}.trace.jsonl" "$tmp/svc_window/${key}.trace.jsonl"
"$tmp/smokecheck" \
    -logs "$tmp/svc_window" -key "$key" -snapshot "$tmp/snap_svc_window.json" -window
echo "smoke: one-shot mode through the service API merged the pruned and windowed campaigns byte-identical"
