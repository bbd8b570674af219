#!/usr/bin/env bash
# Full verification: format, lints, tests, examples, experiment binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace

echo "== docs =="
./scripts/check_docs.sh

echo "== examples =="
for ex in quickstart heat_2d ocean_circular dse_explorer generate_verilog \
          axi_stream image_blur temporal_blocking game_of_life; do
  echo "-- example: $ex"
  cargo run --example "$ex" --release >/dev/null
done
rm -rf smache_rtl

echo "== experiment binaries =="
for bin in fig2 table1 ablations mpstream; do
  echo "-- bin: $bin"
  cargo run -p smache-bench --bin "$bin" --release >/dev/null
done

echo "== chaos smoke (fixed seed) =="
cargo run -p smache-bench --bin chaos --release -- --chaos-seed 7 --instances 5 >/dev/null
grep -q '"stall_attribution"' BENCH_chaos.json || {
  echo "BENCH_chaos.json is missing the telemetry stall attribution"; exit 1; }

echo "== temporal smoke (T=4 pipeline bit-exact vs 4 sequential single-step runs) =="
pipe_out=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --timesteps 4 \
  --instances 4 --seed 7 --verify)
echo "$pipe_out" | grep -q 'pipeline: 4 stage(s)' || {
  echo "--timesteps 4 did not engage the temporal pipeline"; exit 1; }
echo "$pipe_out" | grep -q 'verified against golden' || {
  echo "pipelined run failed golden verification"; exit 1; }
pipe_fp=$(echo "$pipe_out" | grep -o 'fp=[0-9a-f]*' | head -n1)
seq_fp=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 4 --seed 7 \
  --replay off | grep -o 'fp=[0-9a-f]*' | head -n1)
[ -n "$pipe_fp" ] && [ "$pipe_fp" = "$seq_fp" ] || {
  echo "T=4 pipeline diverged from 4 sequential single-step runs: $pipe_fp vs $seq_fp"; exit 1; }

echo "== lanes smoke (a 2-word DRAM bus runs 2 lanes, bit-exact vs one lane) =="
lanes_out=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 4 --seed 7 \
  --lanes 2 --verify)
echo "$lanes_out" | grep -q 'Smache-x2' || { echo "--lanes 2 did not run two lanes"; exit 1; }
echo "$lanes_out" | grep -q 'warm-up [1-9][0-9]* cycles' || {
  echo "--lanes 2 reported no warm-up for a plan with static buffers"; exit 1; }
lanes_fp=$(echo "$lanes_out" | grep -o 'fp=[0-9a-f]*' | head -n1)
[ -n "$lanes_fp" ] && [ "$lanes_fp" = "$seq_fp" ] || {
  echo "2 lanes diverged from one lane: $lanes_fp vs $seq_fp"; exit 1; }
# Regenerate the temporal artefact at a temp path (the committed
# BENCH_temporal.json documents one measured run; the bench itself
# asserts traffic falls with depth and cycles fall with channels).
temporal_json=$(mktemp)
cargo run -p smache-bench --bin temporal --release -- --json "$temporal_json" >/dev/null
grep -q '"artefact": "temporal_sweep"' "$temporal_json" || {
  echo "temporal artefact is missing or malformed"; exit 1; }
rm -f "$temporal_json"
grep -q '"artefact": "temporal_sweep"' BENCH_temporal.json || {
  echo "committed BENCH_temporal.json is missing or malformed"; exit 1; }

echo "== capture smoke (lowered source rows: replay matches full sim at 1 and 2 lanes) =="
for lanes in 1 2; do
  capture_args="simulate --grid 64x64 --shape nine --rows mirror --instances 3 --seed 7 --lanes $lanes"
  capture_out=$(cargo run -p smache-cli --release -- $capture_args --replay on --verify)
  echo "$capture_out" | grep -q 'engine=replay' || {
    echo "--replay on did not replay at $lanes lane(s)"; exit 1; }
  echo "$capture_out" | grep -q 'verified against golden' || {
    echo "capture at $lanes lane(s) failed golden verification"; exit 1; }
  capture_fp=$(echo "$capture_out" | grep -o 'fp=[0-9a-f]*' | head -n1)
  capture_full_fp=$(cargo run -p smache-cli --release -- $capture_args --replay off \
    | grep -o 'fp=[0-9a-f]*' | head -n1)
  [ -n "$capture_fp" ] && [ "$capture_fp" = "$capture_full_fp" ] || {
    echo "replay at $lanes lane(s) diverged from full sim: $capture_fp vs $capture_full_fp"; exit 1; }
done
predict_args="predict --grid 32x32 --rows open --cols open --instances 4"
predict_one=$(cargo run -p smache-cli --release -- $predict_args --lanes 1 | grep 'smache:')
predict_four=$(cargo run -p smache-cli --release -- $predict_args --lanes 4 | grep 'smache:')
[ "$predict_one" != "$predict_four" ] || { echo "predict ignores --lanes"; exit 1; }

echo "== geometry smoke (predict models a pipeline; a pipeline batches bit-exactly) =="
geo_args="--grid 24x24 --rows open --timesteps 4 --instances 8"
geo_sim=$(cargo run -p smache-cli --release -- simulate $geo_args --replay off \
  | grep -o '[0-9]* cycles @' | head -n1 | awk '{print $1}')
geo_pred=$(cargo run -p smache-cli --release -- predict $geo_args | awk '/smache:/{print $2}')
awk -v s="$geo_sim" -v p="$geo_pred" \
  'BEGIN { d = p - s; if (d < 0) d = -d; exit (s > 0 && d <= 0.06 * s) ? 0 : 1 }' || {
  echo "predict ${geo_pred:-missing} is not within 6% of simulate ${geo_sim:-missing}"; exit 1; }
geo_batch="simulate --grid 11x11 --timesteps 2 --channels 2 --instances 4 --batch 4 --jobs 2 --verify"
geo_fast=$(cargo run -p smache-cli --release -- $geo_batch)
echo "$geo_fast" | grep -q 'engine=replay' || { echo "pipelined --batch did not replay"; exit 1; }
geo_full=$(cargo run -p smache-cli --release -- $geo_batch --replay off)
geo_fast_fp=$(echo "$geo_fast" | grep -o 'fp=[0-9a-f]*')
[ "$(echo "$geo_fast_fp" | wc -l)" -eq 4 ] && \
  [ "$geo_fast_fp" = "$(echo "$geo_full" | grep -o 'fp=[0-9a-f]*')" ] || {
  echo "pipelined --batch lanes diverged from --replay off"; exit 1; }

echo "== cli smoke =="
cargo run -p smache-cli --release -- plan >/dev/null
cargo run -p smache-cli --release -- cost --grid 64x64 >/dev/null
cargo run -p smache-cli --release -- predict --grid 32x32 --instances 10 >/dev/null
cargo run -p smache-cli --release -- simulate --grid 8x8 --instances 2 --design both --verify >/dev/null
cargo run -p smache-cli --release -- simulate --grid 8x8 --instances 2 --batch 2 --jobs 2 --verify >/dev/null
cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 5 \
  --chaos-seed 7 --chaos-profile heavy --verify >/dev/null

echo "== replay smoke (auto picks replay, fingerprint matches full sim) =="
replay_out=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 3 --seed 7 --replay auto)
echo "$replay_out" | grep -q 'engine=replay' || { echo "--replay auto did not replay"; exit 1; }
full_out=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 3 --seed 7 --replay off)
echo "$full_out" | grep -q 'engine=full_sim' || { echo "--replay off did not run the full sim"; exit 1; }
replay_fp=$(echo "$replay_out" | grep -o 'fp=[0-9a-f]*' | head -n1)
full_fp=$(echo "$full_out" | grep -o 'fp=[0-9a-f]*' | head -n1)
[ -n "$replay_fp" ] && [ "$replay_fp" = "$full_fp" ] || {
  echo "replay output diverged from full sim: replay $replay_fp vs full $full_fp"; exit 1; }
# Regenerate the replay artefact at a temp path (the committed
# BENCH_replay.json documents one measured run; CI only checks the
# generator still produces bit-exact, speedup-bearing output).
replay_json=$(mktemp)
cargo run -p smache-bench --bin replay --release -- --jobs 2 --json "$replay_json" >/dev/null
grep -q '"speedup"' "$replay_json" || { echo "replay artefact is missing batch speedups"; exit 1; }
grep -q '"fingerprints_match": true' "$replay_json" || {
  echo "replay artefact reports a fingerprint mismatch"; exit 1; }
rm -f "$replay_json"
grep -q '"artefact": "replay"' BENCH_replay.json || {
  echo "committed BENCH_replay.json is missing or malformed"; exit 1; }
# The committed artefact must keep the 64-lane sweep above the
# pre-lane-batching floor (19.3x, the last per-lane-replay measurement).
speedup64=$(awk '/"lanes": 64/{f=1} f && /"speedup"/{gsub(/[",]/,""); print $2; exit}' BENCH_replay.json)
awk -v s="$speedup64" 'BEGIN { exit (s + 0 > 19.3) ? 0 : 1 }' || {
  echo "committed 64-lane replay speedup regressed: ${speedup64:-missing} (floor 19.3x)"; exit 1; }
# Each committed `loops` row must keep 16-lane replay at or below the
# ns per cell update the element-by-element loop was last committed at
# (3.53, 13.11, 6.39 and 4.41 ns, kept to four decimals).
awk '
  BEGIN { ceil["paper-11x11"] = 3.5301; ceil["nine-40x40"] = 13.1078
          ceil["pipe-16x16-t2c2"] = 6.3886; ceil["chaos-16x16"] = 4.4098 }
  /"spec":/ { gsub(/[",]/, ""); spec = $2 }
  /"lanes16_ns_per_cell":/ {
    gsub(/[",]/, ""); seen[spec] = 1
    if (spec in ceil && $2 + 0 > ceil[spec]) {
      printf "committed 16-lane replay of %s regressed: %s ns per cell (ceiling %s)\n", spec, $2, ceil[spec]
      bad = 1
    }
    spec = ""
  }
  END {
    for (s in ceil) if (!(s in seen)) { printf "BENCH_replay.json has no loops row for %s\n", s; bad = 1 }
    exit bad
  }' BENCH_replay.json

echo "== chaos-replay smoke (latency-only plan, fixed chaos seed, replay vs full sim) =="
chaos_fast=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 3 \
  --chaos-seed 7 --chaos-profile storms --batch 4 --jobs 2 --replay on --verify)
echo "$chaos_fast" | grep -q 'engine=replay' || {
  echo "chaos batch with --replay on did not replay"; exit 1; }
chaos_full=$(cargo run -p smache-cli --release -- simulate --grid 11x11 --instances 3 \
  --chaos-seed 7 --chaos-profile storms --batch 4 --jobs 2 --replay off --verify)
# --verify golden-checks every lane's output; the per-lane cycle/beat and
# fault-counter lines must also agree between the two engines.
[ "$(echo "$chaos_fast" | grep -E 'seed|chaos:' | sed 's/engine=.*//')" = \
  "$(echo "$chaos_full" | grep -E 'seed|chaos:' | sed 's/engine=.*//')" ] || {
  echo "chaos replay diverged from the full simulation"; exit 1; }
chaos_sweep_json=$(mktemp)
cargo run -p smache-bench --bin chaos --release -- --sweep 4 --chaos-seed 7 \
  --instances 5 --jobs 2 --replay on --json "$chaos_sweep_json" >/dev/null
grep -q '"artefact": "chaos_replay_sweep"' "$chaos_sweep_json" || {
  echo "chaos sweep artefact is missing"; exit 1; }
grep -Eq '"replayed_lanes": [1-9]' "$chaos_sweep_json" || {
  echo "chaos sweep served no lane by replay"; exit 1; }
rm -f "$chaos_sweep_json"

echo "== serve smoke (unix socket: cache hit, malformed request, clean drain) =="
serve_sock="/tmp/smache-ci-$$.sock"
rm -f "$serve_sock"
# Build first so the backgrounded server is up within the wait window.
cargo build -p smache-cli --release
cargo run -p smache-cli --release -- serve --listen "unix:$serve_sock" --workers 2 &
serve_pid=$!
for _ in $(seq 1 120); do [ -S "$serve_sock" ] && break; sleep 0.5; done
[ -S "$serve_sock" ] || { echo "server socket never appeared"; exit 1; }
serve_req='{"id":"s1","cmd":"simulate","spec":{"grid":"11x11"},"seed":7,"instances":2}'
cargo run -p smache-cli --release -- call --to "unix:$serve_sock" --json "$serve_req" \
  | grep -Eq '"cached": ?false' || { echo "first call unexpectedly cached"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$serve_sock" --json "$serve_req" \
  | grep -Eq '"cached": ?true' || { echo "repeat call missed the cache"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$serve_sock" \
  --json '{"cmd":"simulate","bogus":1}' \
  | grep -Eq '"status": ?"error"' || { echo "malformed request not answered with error"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$serve_sock" \
  --json '{"cmd":"stats"}' \
  | grep -Eq '"serve.cache.hits": ?1' || { echo "stats does not report the cache hit"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$serve_sock" \
  --json '{"cmd":"shutdown"}' >/dev/null
wait "$serve_pid"
[ ! -S "$serve_sock" ] || { echo "socket file survived the drain"; exit 1; }

echo "== store smoke (warm restart served from disk, bit-exact) =="
store_dir=$(mktemp -d)
store_sock="/tmp/smache-ci-store-$$.sock"
rm -f "$store_sock"
cargo run -p smache-cli --release -- serve --listen "unix:$store_sock" --workers 2 \
  --store "$store_dir" &
store_pid=$!
for _ in $(seq 1 120); do [ -S "$store_sock" ] && break; sleep 0.5; done
[ -S "$store_sock" ] || { echo "store server socket never appeared"; exit 1; }
store_req='{"id":"t1","cmd":"simulate","spec":{"grid":"11x11"},"seed":7,"instances":2}'
cold_resp=$(cargo run -p smache-cli --release -- call --to "unix:$store_sock" --json "$store_req")
echo "$cold_resp" | grep -Eq '"status": ?"ok"' || { echo "cold store call failed"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$store_sock" --json '{"cmd":"stats"}' \
  | grep -Eq '"serve.store.writes": ?1' || { echo "cold capture was not persisted"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$store_sock" \
  --json '{"cmd":"shutdown"}' >/dev/null
wait "$store_pid"
# Restart on the same store: the same request must be served by replaying
# the persisted schedule (no recapture) with a byte-identical report
# modulo the engine tag.
cargo run -p smache-cli --release -- serve --listen "unix:$store_sock" --workers 2 \
  --store "$store_dir" &
store_pid=$!
for _ in $(seq 1 120); do [ -S "$store_sock" ] && break; sleep 0.5; done
[ -S "$store_sock" ] || { echo "restarted store server socket never appeared"; exit 1; }
warm_resp=$(cargo run -p smache-cli --release -- call --to "unix:$store_sock" --json "$store_req")
echo "$warm_resp" | grep -Eq '"engine": ?"replay"' || {
  echo "warm restart did not serve from the store"; exit 1; }
stats=$(cargo run -p smache-cli --release -- call --to "unix:$store_sock" --json '{"cmd":"stats"}')
echo "$stats" | grep -Eq '"serve.store.hits": ?1' || { echo "store hit not counted"; exit 1; }
echo "$stats" | grep -Eq '"serve.store.writes": ?0' || { echo "warm restart recaptured"; exit 1; }
norm() { sed 's/"engine": *"replay"/"engine": "full_sim"/'; }
[ "$(echo "$cold_resp" | norm)" = "$(echo "$warm_resp" | norm)" ] || {
  echo "warm report diverged from the cold run"; exit 1; }
cargo run -p smache-cli --release -- call --to "unix:$store_sock" \
  --json '{"cmd":"shutdown"}' >/dev/null
wait "$store_pid"
# Admin surface: ls/verify see the entry; export/import ship it.
cargo run -p smache-cli --release -- schedules ls --store "$store_dir" \
  | grep -q '1 entries' || { echo "schedules ls does not list the entry"; exit 1; }
cargo run -p smache-cli --release -- schedules verify --store "$store_dir" \
  | grep -q '1 sound, 0 damaged' || { echo "schedules verify failed"; exit 1; }
store_pack=$(mktemp)
store_dir2=$(mktemp -d)
cargo run -p smache-cli --release -- schedules export --store "$store_dir" --out "$store_pack" >/dev/null
cargo run -p smache-cli --release -- schedules import --store "$store_dir2" --from "$store_pack" \
  | grep -q 'imported 1 entries' || { echo "schedules import failed"; exit 1; }
rm -rf "$store_dir" "$store_dir2" "$store_pack"

echo "== store bench (warm-start speedup artefact) =="
store_json=$(mktemp)
cargo run -p smache-bench --bin store --release -- --json "$store_json" >/dev/null
grep -q '"warm_start_speedup"' "$store_json" || {
  echo "store bench artefact is missing the warm-start speedup"; exit 1; }
rm -f "$store_json"
grep -q '"bench": "store_warm_start"' BENCH_store.json || {
  echo "committed BENCH_store.json is missing or malformed"; exit 1; }

echo "== serve loadgen (cache speedup artefact) =="
serve_json=$(mktemp)
cargo run -p smache-bench --bin loadgen --release -- --json "$serve_json" >/dev/null
grep -q '"cache_speedup_closed"' "$serve_json" || {
  echo "loadgen artefact is missing the cache speedup"; exit 1; }
rm -f "$serve_json"
grep -q '"cache_speedup_closed"' BENCH_serve.json || {
  echo "committed BENCH_serve.json is missing the cache speedup"; exit 1; }

echo "== serve ramp (256 concurrent reactor clients, byte-identical cached responses) =="
# The ramp's own assertions cover the hard guarantees: every pipelined
# request is answered (no hangs), RSS stays bounded, and the wire-level
# probe checks two cached responses are byte-identical. CI caps the ramp
# at the 256-client rung and writes to a temp path; the committed
# BENCH_loadgen.json documents the full 2048-client run.
ramp_json=$(mktemp)
cargo run -p smache-bench --bin loadgen --release -- --ramp --max-clients 256 \
  --ramp-json "$ramp_json" >/dev/null
grep -q '"byte_identical_repeat": true' "$ramp_json" || {
  echo "ramp artefact is missing the byte-identity probe"; exit 1; }
grep -q '"clients": 256' "$ramp_json" || {
  echo "ramp never reached the 256-client rung"; exit 1; }
rm -f "$ramp_json"
grep -q '"bench": "serve_ramp"' BENCH_loadgen.json || {
  echo "committed BENCH_loadgen.json is missing or malformed"; exit 1; }
grep -q '"clients": 2048' BENCH_loadgen.json || {
  echo "committed BENCH_loadgen.json lacks the 2048-client overload rung"; exit 1; }

echo "== trace smoke (artifacts + self-checks + no-trace cycle guard) =="
# The CLI self-checks every artifact before writing; a non-empty file
# therefore implies a parseable trace.
trace_tmp=$(mktemp -d)
cargo run -p smache-cli --release -- trace --grid 8x8 --instances 2 \
  --trace=vcd --trace-out "$trace_tmp/smoke.vcd" >/dev/null
test -s "$trace_tmp/smoke.vcd" || { echo "empty VCD artifact"; exit 1; }
grep -q '\$enddefinitions' "$trace_tmp/smoke.vcd" || { echo "malformed VCD"; exit 1; }
cargo run -p smache-cli --release -- trace --grid 8x8 --instances 2 \
  --trace=chrome --trace-out "$trace_tmp/smoke.json" >/dev/null
test -s "$trace_tmp/smoke.json" || { echo "empty Chrome trace"; exit 1; }
grep -q '"traceEvents"' "$trace_tmp/smoke.json" || { echo "malformed Chrome trace"; exit 1; }
cargo run -p smache-cli --release -- trace --grid 8x8 --instances 2 \
  --trace=ascii --analyze >/dev/null
# Telemetry off must not move a single cycle: same seed with and without
# a trace attached reports identical metrics lines.
plain=$(cargo run -p smache-cli --release -- simulate --grid 8x8 --instances 3 --seed 11 | grep 'cycles @')
traced=$(cargo run -p smache-cli --release -- simulate --grid 8x8 --instances 3 --seed 11 \
  --trace vcd --trace-out "$trace_tmp/guard.vcd" | grep 'cycles @')
[ "$plain" = "$traced" ] || {
  echo "telemetry changed the cycle count:"; echo " off: $plain"; echo "  on: $traced"; exit 1; }
rm -rf "$trace_tmp"

echo "ALL GREEN"
