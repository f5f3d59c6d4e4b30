#!/usr/bin/env bash
# Local CI: build and test the plain and the ASan+UBSan configurations,
# then take a quick perf reading and diff it against the committed baseline.
#
#   tools/ci.sh            # all configs + quick bench + quick fuzz
#   tools/ci.sh plain      # header lint, then RelWithDebInfo (+ quick bench
#                          #   + quick fuzz + perfbench pinned digests)
#   tools/ci.sh sanitize   # ASan+UBSan only (no bench — numbers meaningless)
#   tools/ci.sh tsan       # ThreadSanitizer, concurrency test binaries only
#   tools/ci.sh chaos_net  # control-plane chaos only (needs build/)
#   tools/ci.sh perf       # native/AVX2 preset + engine crosscheck suite
#                          # (skipped cleanly on hosts without avx2+fma)
#   tools/ci.sh --full     # like "all" but with a larger fuzz sweep
#
# The fuzz stage first runs `rcb_fuzz --canary` (the harness self-check: a
# known ledger mutation must be detected and shrunk), then a bounded
# fixed-seed scenario sweep (~200 cases; 1000 with --full).  The generated
# scenario space includes the multi-channel axis (mc_broadcast with C
# weighted toward {1, 2, 4}), so every config exercises the per-channel
# budget ledger and the event-vs-dense slotwise crosscheck both at C = 1
# (the single-channel model) and beyond.  A rare default-cap axis runs a
# duel at the protocols' default epoch caps (34) with a budget of at least
# 2^37; such a case can take seconds.  Any oracle violation fails CI and
# the minimized scenario + RCB_REPRO record paths are printed for local
# replay with rcb_replay --verify.
#
# The bench step runs bench_m1_micro with a short --benchmark_min_time and
# bench_m2_engine_scaling (default grid), writes build/BENCH_m{1,2}.json,
# and runs tools/bench_compare against the committed baselines in warn-only
# mode: perf drift is printed on every run without flaking CI on machine
# noise.  Tighten by dropping --warn_only once runners are dedicated.  Two
# numbers ARE gated hard: the m2/speedup/event_vs_dense and
# m2/channels/speedup ratios are structural properties of the slotwise
# engine's event and dense paths (O(slots + events) vs O(slots * nodes)),
# not machine noise, so both must stay >= 5x on any host.
#
# Exits non-zero on the first failing build or test run.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
what="${1:-all}"
fuzz_cases=200
if [[ "$what" == "--full" ]]; then
  what="all"
  fuzz_cases=1000
fi

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S "$repo" "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Chaos: the crash-safe supervisor's kill/resume guarantees, end to end.
#  1. SIGKILL a checkpointed sweep mid-run, resume, and require the final
#     aggregate digest to equal an uninterrupted reference run's.
#  2. Same with SIGINT (graceful drain path, exit 130 + resume hint).
#  3. A deliberately stuck trial (spoofing jammer, no timeout_slots) is
#     quarantined by the deterministic slot-budget watchdog without
#     stalling the sweep, and its RCB_REPRO record replays bounded under
#     rcb_replay; a tampered record is refused with exit 3.
#  4. Supervision must not change results: the reference args run without
#     --checkpoint_dir print every key the checkpointed reference prints,
#     with the same value, less the supervision block.
chaos_supervisor() {
  local sim="$repo/build/tools/rcb_sim"
  local replay="$repo/build/tools/rcb_replay"
  local work="$repo/build/chaos"
  local digest_re='"aggregate_digest":"[0-9a-f]*"'
  rm -rf "$work"; mkdir -p "$work"
  local args=(--protocol=broadcast --adversary=suffix --n=32 --budget=65536
              --q=0.9 --trials=120 --seed=5 --format=json)

  echo "--- chaos: reference (uninterrupted) sweep"
  "$sim" "${args[@]}" --checkpoint_dir="$work/ref" >"$work/ref.json"
  local ref; ref=$(grep -o "$digest_re" "$work/ref.json")
  [[ -n "$ref" ]] || { echo "chaos: reference digest missing"; return 1; }

  local sig pid got rc
  for sig in KILL INT; do
    echo "--- chaos: SIG$sig mid-sweep, then resume"
    rm -rf "$work/ck"
    "$sim" "${args[@]}" --checkpoint_dir="$work/ck" \
      >"$work/out.json" 2>"$work/err.txt" &
    pid=$!
    # Strike once a handful of trials are journaled (frames are ~250 B).
    for _ in $(seq 1 400); do
      if [[ -f "$work/ck/journal.rcbj" ]] &&
         (( $(wc -c < "$work/ck/journal.rcbj") > 1500 )); then break; fi
      sleep 0.02
    done
    kill "-$sig" "$pid" 2>/dev/null || true
    rc=0; wait "$pid" || rc=$?
    if [[ "$sig" == INT ]]; then
      [[ "$rc" -eq 130 ]] || { echo "chaos: SIGINT exit $rc, want 130"; return 1; }
      grep -q -- "--resume=$work/ck" "$work/err.txt" ||
        { echo "chaos: SIGINT run printed no resume hint"; return 1; }
    fi
    "$sim" --resume="$work/ck" --format=json >"$work/resumed.json"
    got=$(grep -o "$digest_re" "$work/resumed.json")
    if [[ "$got" != "$ref" ]]; then
      echo "chaos: SIG$sig/resume digest $got != reference $ref"; return 1
    fi
  done
  echo "chaos: kill/resume aggregates are bit-identical to the reference"

  echo "--- chaos: stuck-trial quarantine + bounded replay"
  "$sim" --protocol=one_to_one --adversary=spoof --budget=1000000000 \
    --trials=2 --seed=3 --trial_slot_budget=1000000 \
    --checkpoint_dir="$work/stuck" --format=json \
    >"$work/stuck.json" 2>"$work/stuck.err"
  grep -q '"timed_out_rate":1' "$work/stuck.json" ||
    { echo "chaos: stuck trials were not quarantined"; return 1; }
  grep -m1 '^RCB_REPRO ' "$work/stuck.err" | sed 's/^RCB_REPRO //' \
    >"$work/stuck_record.json"
  "$replay" --record="$work/stuck_record.json" --slot_budget=1000000 \
    >"$work/replay.out"
  grep -q 'cancelled by --slot_budget' "$work/replay.out" ||
    { echo "chaos: bounded replay did not report the budget stop"; return 1; }
  sed 's/"budget":1000000000/"budget":999/' "$work/stuck_record.json" \
    >"$work/tampered.json"
  rc=0; "$replay" --record="$work/tampered.json" --slot_budget=1000 \
    >/dev/null 2>&1 || rc=$?
  [[ "$rc" -eq 3 ]] ||
    { echo "chaos: tampered record exit $rc, want 3"; return 1; }
  echo "chaos: quarantined trial replays bounded; tampered record refused"

  echo "--- chaos: unsupervised run of the reference args"
  "$sim" "${args[@]}" >"$work/plain.json"
  sed 's/"timed_out_rate":.*"aggregate_digest":"[0-9a-f]*",//' \
    "$work/ref.json" >"$work/ref_plain.json"
  cmp -s "$work/plain.json" "$work/ref_plain.json" ||
    { echo "chaos: unsupervised run differs from the checkpointed reference"
      diff "$work/ref_plain.json" "$work/plain.json"; return 1; }
  echo "chaos: unsupervised aggregates equal the checkpointed reference's"
}

# Chaos: the work-stealing sweep scheduler's determinism and group-commit
# durability, end to end through rcb_sweep.
#  1. An 8-point heavy-tailed budget sweep must print bit-identical
#     per-point digests for --threads=1, --threads=4, and --threads=0
#     (affinity-mask sizing) — the schedule must not leak into results.
#  2. SIGKILL the checkpointed sweep mid-run (after the async journals have
#     acknowledged some records), resume with a different thread count, and
#     require the resumed digests to equal the reference: group commit must
#     never acknowledge a record a post-kill recovery cannot replay.
chaos_sweep_scheduler() {
  local sweep="$repo/build/tools/rcb_sweep"
  local work="$repo/build/chaos-sched"
  rm -rf "$work"; mkdir -p "$work"
  local args=(--protocol=one_to_one --adversary=full_duel --sweep=budget
              --values=128,256,512,1024,2048,4096,8192,16384 --trials=12
              --seed=11 --fit=none --print_digests)

  echo "--- chaos-sched: digest equality across --threads=1/4/0"
  "$sweep" "${args[@]}" --threads=1 >"$work/t1.out"
  "$sweep" "${args[@]}" --threads=4 >"$work/t4.out"
  "$sweep" "${args[@]}" --threads=0 >"$work/t0.out"
  local ref; ref=$(grep '^# digest' "$work/t1.out")
  [[ -n "$ref" ]] || { echo "chaos-sched: no digests printed"; return 1; }
  diff <(grep '^# digest' "$work/t4.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-sched: --threads=4 digests differ from --threads=1"; return 1; }
  diff <(grep '^# digest' "$work/t0.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-sched: --threads=0 digests differ from --threads=1"; return 1; }

  echo "--- chaos-sched: SIGKILL mid-sweep, then resume with other threads"
  rm -rf "$work/ck"
  "$sweep" "${args[@]}" --threads=4 --checkpoint_dir="$work/ck" \
    >"$work/ck.out" 2>"$work/ck.err" &
  local pid=$!
  # Strike once the group-commit journals have flushed a few records.
  local f bytes
  for _ in $(seq 1 400); do
    bytes=0
    for f in "$work/ck"/point_*/journal.rcbj; do
      if [[ -f "$f" ]]; then bytes=$(( bytes + $(wc -c < "$f") )); fi
    done
    if (( bytes > 1500 )); then break; fi
    sleep 0.02
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  "$sweep" "${args[@]}" --threads=2 --resume="$work/ck" >"$work/resumed.out"
  diff <(grep '^# digest' "$work/resumed.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-sched: resumed digests differ from the reference"; return 1; }
  echo "chaos-sched: digests bit-identical across thread counts and kill/resume"
}

# Chaos: the multi-process sharded sweep's fault tolerance, end to end
# through rcb_sweep --workers (coordinator + shard workers + journal merge).
#  1. Digest equality: --workers=1/2/4 must print per-point digests
#     bit-identical to the in-process --threads=1 reference.
#  2. SIGKILL random *workers* mid-sweep: the coordinator reassigns their
#     shards, resumes the partial shard journals, and the digests still
#     match.
#  3. SIGKILL the *coordinator* mid-sweep (workers die with it via parent-
#     death signal), re-run with --resume: completed shards are adopted,
#     partial ones resumed, and the digests still match.
chaos_multiproc() {
  local sweep="$repo/build/tools/rcb_sweep"
  local work="$repo/build/chaos-multiproc"
  rm -rf "$work"; mkdir -p "$work"
  local args=(--protocol=one_to_one --adversary=full_duel --sweep=budget
              --values=128,256,512,1024,2048,4096 --trials=2000
              --seed=17 --fit=none --print_digests)

  echo "--- chaos-mp: in-process reference digests (--threads=1)"
  "$sweep" "${args[@]}" --threads=1 >"$work/ref.out"
  local ref; ref=$(grep '^# digest' "$work/ref.out")
  [[ -n "$ref" ]] || { echo "chaos-mp: no reference digests"; return 1; }

  local w
  for w in 1 2 4; do
    echo "--- chaos-mp: --workers=$w digest equality"
    rm -rf "$work/w$w"
    "$sweep" "${args[@]}" --workers="$w" --threads=2 \
      --checkpoint_dir="$work/w$w" >"$work/w$w.out"
    diff <(grep '^# digest' "$work/w$w.out") <(echo "$ref") >/dev/null ||
      { echo "chaos-mp: --workers=$w digests differ from --threads=1"; return 1; }
  done

  echo "--- chaos-mp: SIGKILL random workers mid-sweep"
  rm -rf "$work/kill"
  "$sweep" "${args[@]}" --workers=3 --threads=1 \
    --checkpoint_dir="$work/kill" >"$work/kill.out" 2>"$work/kill.err" &
  local pid=$! rounds=0 victims victim
  while kill -0 "$pid" 2>/dev/null && (( rounds < 6 )); do
    sleep 0.05
    victims=$(pgrep -P "$pid" 2>/dev/null || true)
    if [[ -n "$victims" ]]; then
      victim=$(echo "$victims" | shuf -n1)
      kill -KILL "$victim" 2>/dev/null || true
      rounds=$((rounds + 1))
    fi
  done
  local rc=0; wait "$pid" || rc=$?
  [[ "$rc" -eq 0 ]] ||
    { echo "chaos-mp: sweep with killed workers exited $rc"
      cat "$work/kill.err"; return 1; }
  grep -q 'worker restart' "$work/kill.err" ||
    { echo "chaos-mp: no kill landed mid-shard"; return 1; }
  diff <(grep '^# digest' "$work/kill.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-mp: digests differ after random worker kills"; return 1; }

  echo "--- chaos-mp: SIGKILL the coordinator, then --resume"
  rm -rf "$work/co"
  "$sweep" "${args[@]}" --workers=2 --threads=1 \
    --checkpoint_dir="$work/co" >"$work/co.out" 2>"$work/co.err" &
  pid=$!
  # Strike once the shard journals have flushed a few records (every
  # attempt journals into shard_<i>/try_<k>/).
  local f bytes
  for _ in $(seq 1 400); do
    bytes=0
    for f in "$work/co"/shard_*/try_*/journal.rcbj; do
      if [[ -f "$f" ]]; then bytes=$(( bytes + $(wc -c < "$f") )); fi
    done
    if (( bytes > 1500 )); then break; fi
    sleep 0.02
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  ! grep -q '^# digest' "$work/co.out" ||
    { echo "chaos-mp: the sweep finished before the coordinator kill"; return 1; }
  "$sweep" "${args[@]}" --workers=2 --threads=1 --resume="$work/co" \
    >"$work/co_resumed.out"
  diff <(grep '^# digest' "$work/co_resumed.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-mp: coordinator kill/resume digests differ"; return 1; }
  echo "chaos-mp: sharded digests bit-identical across worker counts, worker kills, and coordinator kill/resume"
}

# Chaos: the partition-tolerant control plane, end to end through
# rcb_sweep --listen: two spawned workers plus one external --attach worker
# that dials the coordinator's TCP listener, all speaking framed RCBC
# control frames (the data plane stays the shard journals), with seeded
# faults on every frame of both connection origins.
#  1. Digest equality: the sweep under frame faults
#     (drop/delay/duplicate/reorder/close) must print per-point digests
#     bit-identical to the in-process --threads=1 reference —
#     at-least-once reconciliation absorbs any fault schedule.
#  2. SIGKILL random workers, spawned and attached, mid-sweep under the
#     same faults: a dead spawned worker is revoked at EOF and respawned,
#     a dead attached worker's lease runs out; each shard restarts under a
#     fresh try_ dir seeded with the partial journal, and the digests
#     still match.
#  3. SIGKILL the *coordinator*; re-run with --resume: completed shard
#     attempts are adopted, in-flight ones restart, and the attached worker
#     reconnects with backoff to the resumed coordinator; digests still
#     match.
chaos_net() {
  local sweep="$repo/build/tools/rcb_sweep"
  local work="$repo/build/chaos-net"
  rm -rf "$work"; mkdir -p "$work"
  local args=(--protocol=one_to_one --adversary=full_duel --sweep=budget
              --values=128,256,512,1024,2048,4096 --trials=2000
              --seed=23 --fit=none --print_digests)
  local net=(--net_fault_seed=777 --net_fault_rate=0.05
             --lease_timeout=1500 --heartbeat_interval=25)

  echo "--- chaos-net: in-process reference digests (--threads=1)"
  "$sweep" "${args[@]}" --threads=1 >"$work/ref.out"
  local ref; ref=$(grep '^# digest' "$work/ref.out")
  [[ -n "$ref" ]] || { echo "chaos-net: no reference digests"; return 1; }

  # start_net <name> <listen addr> [extra flags...]: starts the coordinator
  # in the background and, once it prints its port, one attached worker;
  # sets $pid (coordinator), $attached (worker) and $port.
  local pid attached port
  start_net() {
    local name=$1 listen=$2; shift 2
    rm -f "$work/$name.err"
    "$sweep" "${args[@]}" "${net[@]}" --workers=2 --threads=1 \
      --listen="$listen" "$@" >"$work/$name.out" 2>"$work/$name.err" &
    pid=$!
    port=""
    for _ in $(seq 1 250); do
      port=$(sed -n 's/^# listening on port \([0-9]*\).*/\1/p' \
               "$work/$name.err" 2>/dev/null)
      [[ -n "$port" ]] && break
      sleep 0.02
    done
    [[ -n "$port" ]] || { echo "chaos-net: $name printed no port"
                          cat "$work/$name.err"; return 1; }
    "$sweep" --attach="127.0.0.1:$port" 2>"$work/$name.attach.err" &
    attached=$!
  }
  # stop_attached: the attached worker exits 0 on the shutdown directive
  # unless a close fault cut it off as the sweep ended; then it keeps
  # reconnecting, so put it down.
  stop_attached() {
    kill -KILL "$attached" 2>/dev/null || true
    wait "$attached" 2>/dev/null || true
  }

  echo "--- chaos-net: spawned + attached workers under seeded frame faults"
  rm -rf "$work/sock"
  start_net sock 127.0.0.1:0 --checkpoint_dir="$work/sock" || return 1
  local rc=0; wait "$pid" || rc=$?
  stop_attached
  [[ "$rc" -eq 0 ]] ||
    { echo "chaos-net: sweep failed"; cat "$work/sock.err"; return 1; }
  diff <(grep '^# digest' "$work/sock.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-net: digests differ from --threads=1"; return 1; }

  echo "--- chaos-net: SIGKILL random spawned and attached workers under faults"
  rm -rf "$work/kill"
  start_net kill 127.0.0.1:0 --checkpoint_dir="$work/kill" || return 1
  local rounds=0 victims victim attached_alive=1
  while kill -0 "$pid" 2>/dev/null && (( rounds < 4 )); do
    sleep 0.1
    victims=$(pgrep -P "$pid" 2>/dev/null || true)
    if (( attached_alive )); then
      victims=$(printf '%s\n%s' "$victims" "$attached")
    fi
    victim=$(echo "$victims" | grep . | shuf -n1 || true)
    if [[ -n "$victim" ]]; then
      kill -KILL "$victim" 2>/dev/null || true
      [[ "$victim" == "$attached" ]] && attached_alive=0
      rounds=$((rounds + 1))
    fi
  done
  # (braces: keep bash's notice about the killed attached job quiet)
  rc=0; { wait "$pid" || rc=$?; } 2>/dev/null
  stop_attached
  [[ "$rc" -eq 0 ]] ||
    { echo "chaos-net: sweep with killed workers exited $rc"
      cat "$work/kill.err"; return 1; }
  grep -q 'worker restart' "$work/kill.err" ||
    { echo "chaos-net: no kill landed mid-shard"; return 1; }
  diff <(grep '^# digest' "$work/kill.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-net: digests differ after worker kills"; return 1; }

  echo "--- chaos-net: SIGKILL the coordinator, then --resume"
  rm -rf "$work/co"
  start_net co 127.0.0.1:0 --checkpoint_dir="$work/co" || return 1
  # Strike once the per-attempt shard journals have flushed a few records
  # (attempts journal into shard_<i>/try_<k>/).
  local bytes
  for _ in $(seq 1 400); do
    bytes=$(find "$work/co" -path '*/try_*/journal.rcbj' -exec cat {} + \
              2>/dev/null | wc -c)
    if (( bytes > 1500 )); then break; fi
    sleep 0.02
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  ! grep -q '^# digest' "$work/co.out" ||
    { echo "chaos-net: the sweep finished before the coordinator kill"; return 1; }
  # The attached worker outlives the coordinator and re-attaches to the
  # resumed one on the same port.
  rc=0
  "$sweep" "${args[@]}" "${net[@]}" --workers=2 --threads=1 \
    --listen="127.0.0.1:$port" --resume="$work/co" \
    >"$work/co_resumed.out" 2>"$work/co_resumed.err" || rc=$?
  stop_attached
  [[ "$rc" -eq 0 ]] ||
    { echo "chaos-net: resumed sweep failed"
      cat "$work/co_resumed.err"; return 1; }
  diff <(grep '^# digest' "$work/co_resumed.out") <(echo "$ref") >/dev/null ||
    { echo "chaos-net: coordinator kill/resume digests differ"; return 1; }
  echo "chaos-net: digests bit-identical under frame faults, spawned and attached worker kills, and coordinator kill/resume"
}

# Fuzz stage: canary self-check, then a fixed-seed scenario sweep.  Oracle
# violations land minimized in $fuzz_out and fail the stage; the rcb_fuzz
# output names the exact files to replay.
fuzz_stage() {
  local fuzz="$1" fuzz_out="$2"
  rm -rf "$fuzz_out"; mkdir -p "$fuzz_out"
  echo "--- fuzz: canary (known mutation must be caught and shrunk)"
  "$fuzz" --canary --quiet ||
    { echo "fuzz: canary FAILED — harness cannot be trusted"; return 1; }
  echo "--- fuzz: $fuzz_cases fixed-seed scenarios"
  local rc=0
  "$fuzz" --seed=1 --cases="$fuzz_cases" --out="$fuzz_out" --quiet || rc=$?
  if [[ "$rc" -ne 0 ]]; then
    echo "fuzz: oracle violations found; minimized scenarios in:"
    ls "$fuzz_out" | sed "s|^|  $fuzz_out/|"
    echo "replay with: build/tools/rcb_replay --record=<file>.repro.json --verify"
    return 1
  fi
  # Re-run a slice of the sweep with the AVX2 kernels forced (the env
  # override is a no-op on hosts without avx2+fma, where this degenerates
  # to a scalar re-run).  The generated space weights the multi-channel
  # axis, so this exercises the mc event engine's SIMD fast path — packed
  # keys, bulk jam_run_masks, fill kernels — against the differential
  # oracles under the wide path.
  echo "--- fuzz: $((fuzz_cases / 2)) scenarios with RCB_SIMD=avx2 (mc axis)"
  rc=0
  RCB_SIMD=avx2 "$fuzz" --seed=2 --cases="$((fuzz_cases / 2))" \
    --out="$fuzz_out" --quiet || rc=$?
  if [[ "$rc" -ne 0 ]]; then
    echo "fuzz (RCB_SIMD=avx2): oracle violations found; minimized scenarios in:"
    ls "$fuzz_out" | sed "s|^|  $fuzz_out/|"
    echo "replay with: build/tools/rcb_replay --record=<file>.repro.json --verify"
    return 1
  fi
}

# Header reachability: a src/rcb/ header that only its own .cpp includes
# (in src/, tools/, bench/, examples/ or perfbench/) is code no program runs.
header_reachability() {
  local h n unreached=0
  for h in $(cd "$repo/src" && find rcb -name '*.hpp' | sort); do
    n=$(cd "$repo" && grep -rlF --include='*.[ch]pp' "#include \"$h\"" src \
          tools bench examples perfbench | grep -cvxF "src/${h%.hpp}.cpp" || true)
    [[ "$n" != 0 ]] || { echo "lint: src/$h has no includer"; unreached=1; }
  done
  return "$unreached"
}

# perfbench pins: build the end-to-end benchmark from this checkout into
# build/perfbench and run every workload untraced for its minimum three
# sweeps.  rcb_perfbench exits non-zero when any check fails (a pinned
# seed-1 digest, digests that differ between sweeps, or duel_sharded's
# merged digests against an in-process run of the same points), and that
# fails this stage.
perfbench_pins() {
  local dir="$repo/build/perfbench" w
  cmake -S "$repo/perfbench" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$jobs" --target rcb_perfbench
  for w in broadcast_budget mc_jam duel_sharded; do
    echo "--- perfbench: $w"
    (cd "$repo" && "$dir/rcb_perfbench" --config perfbench/workloads.json \
      --workload "$w" --seconds 0 --trace 0 --work_dir "$dir/work")
  done
}

if [[ "$what" == "all" || "$what" == "plain" ]]; then
  echo "=== [plain] lint: header reachability ==="
  header_reachability
  run_config plain "$repo/build" -DRCB_WERROR=ON
  echo "=== [plain] chaos: supervisor kill/resume ==="
  chaos_supervisor
  echo "=== [plain] chaos: sweep scheduler determinism + group commit ==="
  chaos_sweep_scheduler
  echo "=== [plain] chaos: multi-process sharded sweep fault tolerance ==="
  chaos_multiproc
  echo "=== [plain] chaos: control-plane partition tolerance ==="
  chaos_net
  echo "=== [plain] fuzz: scenario oracles ==="
  fuzz_stage "$repo/build/tools/rcb_fuzz" "$repo/build/fuzz-out"
  echo "=== [plain] perfbench: pinned digests on every workload ==="
  perfbench_pins
  echo "=== [plain] quick bench ==="
  "$repo/build/bench/bench_m1_micro" --benchmark_min_time=0.05 \
    --rcb_out="$repo/build/BENCH_m1.json"
  "$repo/build/tools/bench_compare" \
    --baseline="$repo/bench/baselines/BENCH_m1_baseline.json" \
    --current="$repo/build/BENCH_m1.json" --threshold=0.5 --warn_only
  echo "=== [plain] engine scaling bench ==="
  "$repo/build/bench/bench_m2_engine_scaling" \
    --out="$repo/build/BENCH_m2.json"
  "$repo/build/tools/bench_compare" \
    --baseline="$repo/bench/baselines/BENCH_m2_baseline.json" \
    --current="$repo/build/BENCH_m2.json" --metric=slots_per_sec \
    --threshold=0.5 --warn_only
  speedup=$(grep -o '"m2/speedup/event_vs_dense"[^]]*' \
      "$repo/build/BENCH_m2.json" |
    grep -o '"slots_per_sec":[0-9.eE+-]*' | head -n1 | cut -d: -f2)
  [[ -n "$speedup" ]] ||
    { echo "bench: m2/speedup/event_vs_dense entry missing"; exit 1; }
  awk -v s="$speedup" 'BEGIN { exit (s >= 5.0) ? 0 : 1 }' ||
    { echo "bench: event-vs-dense speedup ${speedup}x below the 5x bar"; exit 1; }
  echo "bench: event-vs-dense speedup ${speedup}x (bar: >= 5x)"
  # Same structural gate for the multi-channel engine pair: the mc event
  # path (bulk jam_run_masks over eventless runs) vs the dense mc reference.
  mc_speedup=$(grep -o '"m2/channels/speedup"[^]]*' \
      "$repo/build/BENCH_m2.json" |
    grep -o '"slots_per_sec":[0-9.eE+-]*' | head -n1 | cut -d: -f2)
  [[ -n "$mc_speedup" ]] ||
    { echo "bench: m2/channels/speedup entry missing"; exit 1; }
  awk -v s="$mc_speedup" 'BEGIN { exit (s >= 5.0) ? 0 : 1 }' ||
    { echo "bench: mc event-vs-dense speedup ${mc_speedup}x below the 5x bar"; exit 1; }
  echo "bench: mc event-vs-dense speedup ${mc_speedup}x (bar: >= 5x)"
fi

if [[ "$what" == "all" || "$what" == "sanitize" ]]; then
  run_config sanitize "$repo/build-sanitize" -DRCB_SANITIZE=ON
  echo "=== [sanitize] fuzz: scenario oracles ==="
  fuzz_stage "$repo/build-sanitize/tools/rcb_fuzz" \
    "$repo/build-sanitize/fuzz-out"
fi

if [[ "$what" == "all" || "$what" == "perf" ]]; then
  # The perf preset builds with -march=native and defaults the engines to
  # the AVX2 kernels (RCB_NATIVE_BUILD).  Worth running only where the CPU
  # actually has the instructions; elsewhere skip cleanly so "all" stays
  # green on portable runners.  The suite is the digest-critical one: the
  # event engines against the dense oracle, the batch engine's pinned
  # digests and its exact match with the slotwise engine at C=1, kernel
  # bit-equivalence, arena reuse and per-call scoping, the event-key sort
  # against std::sort, cross-seed determinism, the pinned Rng stream with
  # its integer Bernoulli form, and the pinned duel-protocol digests — all
  # with the wide path and native codegen.
  if grep -q avx2 /proc/cpuinfo 2>/dev/null &&
     grep -q fma /proc/cpuinfo 2>/dev/null; then
    echo "=== [perf] configure (native/AVX2) ==="
    (cd "$repo" && cmake --preset perf)
    echo "=== [perf] build engine crosscheck suite ==="
    perf_tests=(engine_crosscheck_test sampling_simd_test arena_test
                engine_kernels_test sampling_test repetition_engine_test
                determinism_test mc_engine_test mc_degeneration_test rng_test
                duel_pin_test)
    cmake --build "$repo/build-perf" -j "$jobs" --target "${perf_tests[@]}"
    echo "=== [perf] run engine crosscheck suite ==="
    for t in "${perf_tests[@]}"; do
      "$repo/build-perf/tests/$t"
    done
  else
    echo "=== [perf] skipped: host CPU lacks avx2+fma ==="
  fi
fi

if [[ "$what" == "chaos_net" ]]; then
  echo "=== [chaos_net] control-plane partition tolerance ==="
  chaos_net
fi

if [[ "$what" == "all" || "$what" == "tsan" ]]; then
  # TSan instruments only what it needs: the concurrency-bearing binaries
  # (pool, supervisor/scheduler with its claiming cursors and batched
  # merges, async journal, and replay_test for the per-thread
  # scenario_to_json memo).  A full test run under TSan is ~10x slower for
  # no extra thread coverage.
  echo "=== [tsan] configure ==="
  cmake -B "$repo/build-tsan" -S "$repo" -DRCB_TSAN=ON
  echo "=== [tsan] build ==="
  cmake --build "$repo/build-tsan" -j "$jobs" \
    --target thread_pool_test supervisor_test checkpoint_test \
             coordinator_test transport_test replay_test
  echo "=== [tsan] run concurrency tests ==="
  "$repo/build-tsan/tests/thread_pool_test"
  "$repo/build-tsan/tests/supervisor_test"
  "$repo/build-tsan/tests/replay_test"
  "$repo/build-tsan/tests/checkpoint_test"
  "$repo/build-tsan/tests/coordinator_test"
  "$repo/build-tsan/tests/transport_test"
fi

echo "CI OK"
