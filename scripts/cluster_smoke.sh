#!/usr/bin/env bash
# Smoke-test the gpujouled cluster end to end:
#   1. build the daemon, cmd/sweep, and cmd/loadgen; start three
#      cluster nodes (fresh per-node caches) plus a gateway fronting
#      them;
#   2. sweep a grid through the gateway and assert the CSV is
#      byte-identical to a local (in-process) run of the same grid;
#   3. kill one node hard (-9) mid-stream-sweep and assert the sweep
#      still completes with the byte-identical CSV — the gateway fails
#      the dead node's points over to their ring successors;
#   4. drive the surviving cluster with loadgen: concurrent overlapping
#      sweeps must finish with zero dropped/duplicated points and a
#      cluster-wide cache hit rate above the floor, written to
#      BENCH_cluster.json;
#   5. scrape node and gateway /metrics into artifacts.
#
# Usage: scripts/cluster_smoke.sh [workdir]   (default: a fresh mktemp dir)
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"

GATE="127.0.0.1:18344"
N1="127.0.0.1:18345"
N2="127.0.0.1:18346"
N3="127.0.0.1:18347"
PEERS="http://$N1,http://$N2,http://$N3"
GRID="-workloads Stream,Kmeans -scale 0.05 -gpms 1,2 -bw 1x,2x"

go build -o "$WORK/gpujouled" ./cmd/gpujouled
go build -o "$WORK/sweep" ./cmd/sweep
go build -o "$WORK/loadgen" ./cmd/loadgen

start_node() { # addr cachedir logfile -> pid
    "$WORK/gpujouled" -addr "$1" -self "http://$1" -peers "$PEERS" \
        -cache "$2" -queue 4096 -executors 8 -peer-timeout 10s \
        >"$3" 2>&1 &
    echo $!
}

P1=$(start_node "$N1" "$WORK/cache1" "$WORK/node1.log")
P2=$(start_node "$N2" "$WORK/cache2" "$WORK/node2.log")
P3=$(start_node "$N3" "$WORK/cache3" "$WORK/node3.log")
"$WORK/gpujouled" -addr "$GATE" -gateway -peers "$PEERS" \
    -cache "$WORK/cache-gw" -queue 4096 -executors 8 \
    >"$WORK/gateway.log" 2>&1 &
PGW=$!
trap 'kill "$P1" "$P2" "$P3" "$PGW" 2>/dev/null || true' EXIT

for addr in "$N1" "$N2" "$N3" "$GATE"; do
    for _ in $(seq 50); do
        curl -sf "http://$addr/v1/version" >/dev/null && break
        sleep 0.2
    done
    curl -sf "http://$addr/v1/version" >/dev/null || { echo "node $addr never came up" >&2; exit 1; }
done
echo "3 nodes + gateway up"

# --- Byte-identical distributed sweep ----------------------------------
# shellcheck disable=SC2086
"$WORK/sweep" $GRID -o "$WORK/local.csv"
# shellcheck disable=SC2086
"$WORK/sweep" $GRID -server "$GATE" -o "$WORK/cluster.csv"
cmp "$WORK/local.csv" "$WORK/cluster.csv"
echo "gateway sweep CSV byte-identical to local run"

# --- Kill one node mid-sweep -------------------------------------------
# A fresh grid (nothing cached anywhere) streams through the gateway
# while one node dies hard partway in: the sweep must still complete
# with bytes identical to a local run of the same grid.
KGRID="-workloads Stream,Kmeans -scale 0.07 -gpms 1,2 -bw 1x,2x"
# shellcheck disable=SC2086
"$WORK/sweep" $KGRID -o "$WORK/local_kill.csv"
# shellcheck disable=SC2086
"$WORK/sweep" $KGRID -server "$GATE" -stream -o "$WORK/cluster_kill.csv" &
STREAMER=$!
sleep 0.5
kill -9 "$P2"
echo "killed node $N2 mid-sweep"
wait "$STREAMER"
cmp "$WORK/local_kill.csv" "$WORK/cluster_kill.csv"
echo "post-kill streamed CSV byte-identical to local run"

# --- Concurrent overlapping load ---------------------------------------
# Overlapping sweeps drawn from a small pool: after the first wave
# everything is somewhere in the cluster's caches, so the hit rate must
# clear 50% even though one node is gone.
"$WORK/loadgen" -server "http://$GATE" -sweeps 1200 -concurrency 1000 \
    -workloads Stream,Kmeans -gpms 1,2 -bw 1x,2x -scale 0.05 \
    -min-hit-rate 0.5 -o "$WORK/BENCH_cluster.json"
python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
assert r["errors"] == 0, r
assert r["dropped_points"] == 0 and r["duplicate_points"] == 0, r
assert r["cluster_hit_rate"] > 0.5, r
print("loadgen: %d sweeps, %d points, %.1f%% cluster hit rate, p99 %.3fs" % (
    r["sweeps"], r["points"], 100 * r["cluster_hit_rate"], r["latency_seconds"]["p99"]))
' "$WORK/BENCH_cluster.json"

# --- Metrics artifacts -------------------------------------------------
curl -sf "http://$N1/metrics" >"$WORK/node1_metrics.txt"
curl -sf "http://$GATE/metrics" >"$WORK/gateway_metrics.txt"
grep -q "gpujoule_cluster_peer_hits" "$WORK/node1_metrics.txt"
grep -q "gpujoule_cluster_replica_pending" "$WORK/node1_metrics.txt"
grep -q "gpujoule_sched_queued_points" "$WORK/gateway_metrics.txt"
grep -q "gpujoule_gateway_failovers" "$WORK/gateway_metrics.txt"
grep -q "gpujoule_cluster_peers_unhealthy" "$WORK/gateway_metrics.txt"
echo "cluster metrics captured"

kill -TERM "$P1" "$P3" "$PGW" 2>/dev/null || true
wait "$P1" "$P3" "$PGW" 2>/dev/null || true
trap - EXIT
echo "cluster smoke OK (artifacts in $WORK)"
