#!/bin/sh
# Observability smoke test: runs a checkpointed gretacli workload with
# the metrics endpoint armed, scrapes /metrics while the run lingers,
# and asserts the key series families are present and the exposition
# parses (via cmd/promcheck, which reuses the in-repo parser). Also
# exercises the cluster coordinator's endpoint against live shards.
#
# Usage: scripts/obs_smoke.sh
set -eu

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$tmp/gretacli" ./cmd/gretacli
go build -o "$tmp/gretacluster" ./cmd/gretacluster
go build -o "$tmp/promcheck" ./cmd/promcheck

# --- runtime endpoint: checkpointed stock run, scraped mid-linger ----
"$tmp/gretacli" \
    -query 'RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector WITHIN 60 seconds SLIDE 20 seconds' \
    -workload stock -events 20000 \
    -checkpoint-dir "$tmp/ck" -checkpoint-every 2 \
    -metrics 127.0.0.1:0 -stats-interval 1s -linger 6s \
    >"$tmp/cli.out" 2>"$tmp/cli.err" &
cli=$!

url=""
for _ in $(seq 1 50); do
    url="$(sed -n 's/^metrics: //p' "$tmp/cli.err" | head -n1)"
    [ -n "$url" ] && break
    sleep 0.2
done
[ -n "$url" ] || { echo "obs_smoke: gretacli never echoed a metrics URL" >&2; cat "$tmp/cli.err" >&2; exit 1; }

# Let the feed finish so the gauges reflect the whole stream, then
# scrape during the linger window (the stream is fed in well under 6s).
sleep 3
curl -fsS "$url" >"$tmp/cli.prom"
"$tmp/promcheck" \
    greta_events_total \
    greta_watermark \
    greta_watermark_lag \
    greta_event_time_max \
    greta_statements \
    greta_stmt_events_total \
    greta_stmt_summary_folds_total \
    greta_checkpoint_writes_total \
    greta_checkpoint_age_seconds \
    <"$tmp/cli.prom"
curl -fsS "${url%/metrics}/metrics.json" >/dev/null
wait "$cli" || { echo "obs_smoke: gretacli failed" >&2; cat "$tmp/cli.err" >&2; exit 1; }
grep -q '^stats: events=' "$tmp/cli.err" || { echo "obs_smoke: -stats-interval never printed" >&2; exit 1; }

# --- cluster endpoint: 2 shards, coordinator scraped mid-linger ------
"$tmp/gretacluster" shard -listen 127.0.0.1:0 >"$tmp/s1.out" 2>&1 &
"$tmp/gretacluster" shard -listen 127.0.0.1:0 >"$tmp/s2.out" 2>&1 &
a1=""; a2=""
for _ in $(seq 1 50); do
    a1="$(sed -n 's/^shard listening on //p' "$tmp/s1.out" | head -n1)"
    a2="$(sed -n 's/^shard listening on //p' "$tmp/s2.out" | head -n1)"
    [ -n "$a1" ] && [ -n "$a2" ] && break
    sleep 0.2
done
[ -n "$a1" ] && [ -n "$a2" ] || { echo "obs_smoke: shards never came up" >&2; exit 1; }

"$tmp/gretacluster" coord -shards "$a1,$a2" \
    -query 'RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E) WHERE [job, mapper] AND M.load < NEXT(M).load GROUP-BY mapper WITHIN 20 seconds SLIDE 10 seconds' \
    -workload cluster -events 30000 \
    -metrics 127.0.0.1:0 -linger 6s \
    >"$tmp/co.out" 2>"$tmp/co.err" &
co=$!

curl_url=""
for _ in $(seq 1 50); do
    curl_url="$(sed -n 's/^metrics: //p' "$tmp/co.err" | head -n1)"
    [ -n "$curl_url" ] && break
    sleep 0.2
done
[ -n "$curl_url" ] || { echo "obs_smoke: coordinator never echoed a metrics URL" >&2; cat "$tmp/co.err" >&2; exit 1; }

sleep 3
curl -fsS "$curl_url" >"$tmp/co.prom"
"$tmp/promcheck" \
    greta_cluster_events_total \
    greta_cluster_frames_total \
    greta_cluster_frame_bytes_total \
    greta_cluster_barriers_total \
    greta_cluster_barrier_rtt_seconds \
    greta_cluster_watermark \
    greta_cluster_low_watermark \
    greta_cluster_slot_ack_lag \
    greta_cluster_shards \
    greta_cluster_slots \
    <"$tmp/co.prom"
wait "$co" || { echo "obs_smoke: coordinator failed" >&2; cat "$tmp/co.err" >&2; exit 1; }

echo "obs_smoke: ok"
