#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml, one function per CI job.
#
# Usage: tools/ci.sh [job ...]
#   release   Release + -Werror build, full ctest, broker smoke
#   debug     Debug build, full ctest
#   obsoff    Release + -Werror with the observability layer compiled out
#             (-DHETERO_OBS=OFF), full ctest
#   bench     bench-regression: run the four paper-figure benches with
#             --json and hold them to bench/baselines/ via check_bench.py;
#             then re-run fig4 with --jobs 8 and require byte-identical
#             output (the campaign engine's determinism guarantee)
#   kernels   kernel-regression: run bench_kernels --json and hold the
#             fast/reference speedups and arithmetic intensities to
#             bench/baselines/kernels.json via check_bench.py
#   asan      ASan+UBSan build, full ctest (includes the property-based
#             numeric tests la_prop_test and kernels_diff_test)
#   tsan      TSan build, concurrency + kernel-mode tests only
#   faultsoak fault-soak: ASan+UBSan build; runs the fault-injection and
#             recovery tests plus bench_ablation_failure_recovery against
#             its baseline, and requires --jobs 8 output byte-identical to
#             --jobs 1 (fault schedules are pure hashes of the seed)
#   svc       advisory daemon: svc tests under ASan, a 10k piped-request
#             soak split across a mid-stream restart (warm replay must be
#             byte-identical to the unbroken run, stream validated by
#             check_bench.py --schema svc), and the Release
#             bench_svc_throughput warm-speedup gate
#   rebroker  closed-loop re-brokering: rebroker tests under ASan,
#             bench_ablation_rebroker against bench/baselines/rebroker.json
#             (adaptive must beat static on cost AND completion at a 3%
#             storm rate), the decision trail validated by check_bench.py
#             --schema rebroker, and a byte-identity gate on the trail
#             across --jobs 8 and a fresh same-seed re-run
#   loadbalance  per-rank skew + load balancing: partitioner/balancer tests
#             under ASan, bench_ablation_load_balance against
#             bench/baselines/load_balance.json (balancing must win >= 1.2x
#             of modeled total time at 27 ranks under 2x skew while calm
#             cells stay bitwise), a --jobs 1 vs 8 byte-identity gate, and
#             same-seed replay gates on balance+shrink and balance+rebroker
#   procsoak  multi-process backend: proc tests under ASan, a
#             500-experiment chaos soak (5% crash/hang/exit injected; must
#             complete byte-identical minus quarantined poison jobs), and a
#             --workers 4 vs --workers 0 byte-diff gate on the CLI
#   grid      grid-benchmark matrix: grid/campaign/proc tests under ASan,
#             the self-checking bench_grid_matrix, the 500-cell ci matrix
#             validated by check_bench.py --schema grid against
#             bench/baselines/grid.json, a SIGTERM-at-50% interrupt-resume
#             byte-diff gate on the CLI, and a seed-perturbation gate
#             (--against --expect-stochastic-drift)
#   all       everything above, in that order (the default)
#
# Each job builds in its own directory (build-ci-<job>) so sanitizer and
# debug artifacts never mix. ccache is used automatically when installed.
set -eu

# Portable parallelism: GNU nproc, then POSIX getconf, then BSD sysctl.
detect_jobs() {
  nproc 2>/dev/null ||
    getconf _NPROCESSORS_ONLN 2>/dev/null ||
    sysctl -n hw.ncpu 2>/dev/null ||
    echo 4
}
JOBS="$(detect_jobs)"

LAUNCHER_FLAG=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_FLAG="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

configure_and_build() {
  # $1 build dir; remaining args are extra cmake cache settings.
  dir="$1"
  shift
  # $LAUNCHER_FLAG is intentionally unquoted: empty means "no extra flag".
  # shellcheck disable=SC2086
  cmake -B "$dir" -S . $LAUNCHER_FLAG "$@"
  cmake --build "$dir" -j "$JOBS"
}

job_release() {
  echo "== ci job: release (Release + -Werror, full ctest, broker smoke) =="
  configure_and_build build-ci-release \
      -DCMAKE_BUILD_TYPE=Release -DHETERO_WERROR=ON
  ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
      --timeout 600
  if [ ! -x build-ci-release/tools/heterolab ]; then
    echo "ci: FAIL — heterolab binary missing after build" >&2
    exit 1
  fi
  if [ ! -x build-ci-release/bench/bench_broker_frontier ]; then
    echo "ci: FAIL — broker smoke binary bench_broker_frontier missing" >&2
    exit 1
  fi
  build-ci-release/tools/heterolab broker --app rd --elements 1000000 \
      --deadline-h 24 --budget-usd 50
  build-ci-release/bench/bench_broker_frontier
}

job_debug() {
  echo "== ci job: debug (Debug build, full ctest) =="
  configure_and_build build-ci-debug \
      -DCMAKE_BUILD_TYPE=Debug -DHETERO_WERROR=ON
  ctest --test-dir build-ci-debug --output-on-failure -j "$JOBS" \
      --timeout 600
}

job_obsoff() {
  echo "== ci job: obsoff (observability compiled out, full ctest) =="
  configure_and_build build-ci-obsoff \
      -DCMAKE_BUILD_TYPE=Release -DHETERO_WERROR=ON -DHETERO_OBS=OFF
  ctest --test-dir build-ci-obsoff --output-on-failure -j "$JOBS" \
      --timeout 600
}

job_bench() {
  echo "== ci job: bench (paper-figure regression gate) =="
  configure_and_build build-ci-release -DCMAKE_BUILD_TYPE=Release \
      -DHETERO_WERROR=ON
  out_dir=build-ci-release/bench-out
  mkdir -p "$out_dir"
  for bench in fig4_rd_weak_scaling fig5_ns_weak_scaling \
               fig6_rd_cost table2_placement_groups; do
    if [ ! -x build-ci-release/bench/bench_"$bench" ]; then
      echo "ci: FAIL — bench binary bench_$bench missing" >&2
      exit 1
    fi
    build-ci-release/bench/bench_"$bench" --jobs 1 \
        --json "$out_dir/$bench.jsonl"
    python3 tools/check_bench.py --baseline bench/baselines/"$bench".json \
        "$out_dir/$bench.jsonl"
  done
  # Parallel determinism gate: --jobs 8 must reproduce --jobs 1 byte for
  # byte, table and JSONL alike.
  build-ci-release/bench/bench_fig4_rd_weak_scaling --jobs 8 \
      --json "$out_dir/fig4_rd_weak_scaling.jobs8.jsonl" \
      > "$out_dir/fig4.jobs8.txt"
  build-ci-release/bench/bench_fig4_rd_weak_scaling --jobs 1 \
      > "$out_dir/fig4.jobs1.txt"
  diff "$out_dir/fig4.jobs1.txt" "$out_dir/fig4.jobs8.txt"
  diff "$out_dir/fig4_rd_weak_scaling.jsonl" \
      "$out_dir/fig4_rd_weak_scaling.jobs8.jsonl"
}

job_kernels() {
  echo "== ci job: kernels (hot-path kernel regression gate) =="
  configure_and_build build-ci-release -DCMAKE_BUILD_TYPE=Release \
      -DHETERO_WERROR=ON
  out_dir=build-ci-release/bench-out
  mkdir -p "$out_dir"
  if [ ! -x build-ci-release/bench/bench_kernels ]; then
    echo "ci: FAIL — bench binary bench_kernels missing" >&2
    exit 1
  fi
  build-ci-release/bench/bench_kernels --json "$out_dir/kernels.jsonl"
  python3 tools/check_bench.py --baseline bench/baselines/kernels.json \
      "$out_dir/kernels.jsonl"
}

job_asan() {
  echo "== ci job: asan (ASan+UBSan, full ctest) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600
}

job_tsan() {
  echo "== ci job: tsan (TSan, concurrency tests) =="
  configure_and_build build-ci-tsan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=thread
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(simmpi_test|resil_test|la_test|la_prop_test|kernels_diff_test|obs_test|campaign_engine_test|rebroker_test|lb_test|svc_test|proc_test|grid_test)$'
}

job_svc() {
  echo "== ci job: svc (advisory daemon: soak, warm restart, throughput) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(svc_test|cli_serve_pipe|cli_broker_requests_conflict)$'
  out_dir=build-ci-asan/svc-out
  mkdir -p "$out_dir"
  rm -f "$out_dir"/memo.log "$out_dir"/memo-fresh.log
  # 10k piped requests under ASan, split across a mid-stream restart: the
  # second process warm-starts from the first one's memo store, and the
  # concatenated answers must be byte-identical to one unbroken run.
  python3 tools/gen_svc_requests.py --total 10000 --unique 100 \
      > "$out_dir/all.jsonl"
  python3 tools/gen_svc_requests.py --total 5000 --unique 100 \
      > "$out_dir/first.jsonl"
  python3 tools/gen_svc_requests.py --total 5000 --unique 100 \
      --skip 5000 --start-id 5000 > "$out_dir/second.jsonl"
  build-ci-asan/tools/heterolab serve --store "$out_dir/memo.log" \
      --queue 16384 < "$out_dir/first.jsonl" > "$out_dir/out1.jsonl"
  build-ci-asan/tools/heterolab serve --store "$out_dir/memo.log" \
      --queue 16384 < "$out_dir/second.jsonl" > "$out_dir/out2.jsonl"
  build-ci-asan/tools/heterolab serve --store "$out_dir/memo-fresh.log" \
      --queue 16384 < "$out_dir/all.jsonl" > "$out_dir/outc.jsonl"
  cat "$out_dir/out1.jsonl" "$out_dir/out2.jsonl" \
      | grep -v '"type":"bye"' > "$out_dir/split.jsonl"
  grep -v '"type":"bye"' "$out_dir/outc.jsonl" > "$out_dir/unbroken.jsonl"
  diff "$out_dir/split.jsonl" "$out_dir/unbroken.jsonl"
  python3 tools/check_bench.py --schema svc "$out_dir/outc.jsonl"
  # Warm-restart throughput gate, in Release (timing under ASan is noise).
  configure_and_build build-ci-release -DCMAKE_BUILD_TYPE=Release \
      -DHETERO_WERROR=ON
  mkdir -p build-ci-release/bench-out
  build-ci-release/bench/bench_svc_throughput \
      --json build-ci-release/bench-out/svc_throughput.jsonl
  python3 tools/check_bench.py --baseline bench/baselines/svc.json \
      build-ci-release/bench-out/svc_throughput.jsonl
}

job_faultsoak() {
  echo "== ci job: fault-soak (ASan+UBSan fault injection + recovery) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  # The resilience surface: fault plan, recovery loop, checkpoint IO,
  # reclaim storms, broker failover, and the CLI failure paths.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(resil_test|simmpi_test|io_test|cloud_test|core_test|campaign_engine_test|broker_test|cli_failure_test)$'
  out_dir=build-ci-asan/bench-out
  mkdir -p "$out_dir"
  build-ci-asan/bench/bench_ablation_failure_recovery --jobs 1 \
      --json "$out_dir/ablation_failure_recovery.jsonl" \
      > "$out_dir/faults.jobs1.txt"
  python3 tools/check_bench.py \
      --baseline bench/baselines/ablation_failure_recovery.json \
      "$out_dir/ablation_failure_recovery.jsonl"
  # Fault injection must not cost determinism: --jobs 8 reproduces the
  # sequential sweep byte for byte, text and JSONL alike.
  build-ci-asan/bench/bench_ablation_failure_recovery --jobs 8 \
      --json "$out_dir/ablation_failure_recovery.jobs8.jsonl" \
      > "$out_dir/faults.jobs8.txt"
  diff "$out_dir/faults.jobs1.txt" "$out_dir/faults.jobs8.txt"
  diff "$out_dir/ablation_failure_recovery.jsonl" \
      "$out_dir/ablation_failure_recovery.jobs8.jsonl"
}

job_rebroker() {
  echo "== ci job: rebroker (closed-loop re-brokering gate) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  # The closed-loop surface: controller/quote unit tests plus the
  # resilience and core suites the migration path leans on.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(rebroker_test|resil_test|core_test|campaign_engine_test)$'
  out_dir=build-ci-asan/bench-out
  mkdir -p "$out_dir"
  # Tentpole gate: at a 3% storm rate the adaptive plan must beat the
  # static one on completion AND summed dollars, and the decision trail
  # must parse as heterolab-rebroker-v1.
  build-ci-asan/bench/bench_ablation_rebroker --jobs 1 \
      --json "$out_dir/ablation_rebroker.jsonl" \
      --trail "$out_dir/rebroker_trail.jsonl" \
      > "$out_dir/rebroker.jobs1.txt"
  python3 tools/check_bench.py --baseline bench/baselines/rebroker.json \
      "$out_dir/ablation_rebroker.jsonl"
  python3 tools/check_bench.py --schema rebroker \
      "$out_dir/rebroker_trail.jsonl"
  # Migration decisions are pure functions of seed + virtual time, so the
  # trail is a determinism artifact: --jobs 8 and a fresh same-seed process
  # must reproduce --jobs 1 byte for byte.
  build-ci-asan/bench/bench_ablation_rebroker --jobs 8 \
      --json "$out_dir/ablation_rebroker.jobs8.jsonl" \
      --trail "$out_dir/rebroker_trail.jobs8.jsonl" \
      > "$out_dir/rebroker.jobs8.txt"
  diff "$out_dir/rebroker.jobs1.txt" "$out_dir/rebroker.jobs8.txt"
  diff "$out_dir/ablation_rebroker.jsonl" \
      "$out_dir/ablation_rebroker.jobs8.jsonl"
  diff "$out_dir/rebroker_trail.jsonl" "$out_dir/rebroker_trail.jobs8.jsonl"
  build-ci-asan/bench/bench_ablation_rebroker --jobs 8 \
      --trail "$out_dir/rebroker_trail.rerun.jsonl" > /dev/null
  diff "$out_dir/rebroker_trail.jsonl" "$out_dir/rebroker_trail.rerun.jsonl"
}

job_loadbalance() {
  echo "== ci job: loadbalance (per-rank skew + balancing gate) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  # The balancing surface: skew plan, weighted partitioners, the balancer
  # itself, the core driver's rebalance loop, and the CLI flag audit.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(lb_test|partition_test|simmpi_test|core_test|campaign_engine_test|cli_failure_test)$'
  out_dir=build-ci-asan/bench-out
  mkdir -p "$out_dir"
  # Tentpole gate: balancing must win >= 1.2x of modeled total time at 27
  # ranks under 2x slow-core skew, while every zero-skew cell stays
  # bitwise identical to its unbalanced twin.
  build-ci-asan/bench/bench_ablation_load_balance --jobs 1 \
      --json "$out_dir/ablation_load_balance.jsonl" \
      > "$out_dir/loadbalance.jobs1.txt"
  python3 tools/check_bench.py \
      --baseline bench/baselines/load_balance.json \
      "$out_dir/ablation_load_balance.jsonl"
  # Skew factors are pure hashes of (seed, platform, rank) and rebalance
  # verdicts replicate per rank, so the whole ablation is a determinism
  # artifact: --jobs 8 must reproduce --jobs 1 byte for byte.
  build-ci-asan/bench/bench_ablation_load_balance --jobs 8 \
      --json "$out_dir/ablation_load_balance.jobs8.jsonl" \
      > "$out_dir/loadbalance.jobs8.txt"
  diff "$out_dir/loadbalance.jobs1.txt" "$out_dir/loadbalance.jobs8.txt"
  diff "$out_dir/ablation_load_balance.jsonl" \
      "$out_dir/ablation_load_balance.jobs8.jsonl"
  # Balancing composes with shrink-on-crash (27 -> 8 ranks) and with
  # re-brokering (ec2 -> puma): both share the one restart path, and each
  # composed run must finish and replay byte for byte from the same seed.
  for rep in 1 2; do
    build-ci-asan/tools/heterolab run --app rd --platform puma --ranks 27 \
        --mode direct --cells 2 --steps 8 --seed 12 --skew 2 --balance \
        --balance-threshold 1.1 --faults 0.008 --recovery ckpt --shrink \
        --json "$out_dir/compose_shrink.$rep.jsonl" \
        > "$out_dir/compose_shrink.$rep.txt"
    build-ci-asan/tools/heterolab run --app rd --platform ec2 --ranks 8 \
        --mode direct --cells 2 --steps 16 --seed 46 --skew 2 --balance \
        --balance-threshold 1.1 --storm-rate 0.03 --recovery ckpt \
        --rebroker puma --rebroker-deadline-s 40 \
        --rebroker-trail "$out_dir/compose_rebroker_trail.$rep.jsonl" \
        --json "$out_dir/compose_rebroker.$rep.jsonl" \
        > "$out_dir/compose_rebroker.$rep.txt"
  done
  for f in compose_shrink compose_rebroker; do
    diff "$out_dir/$f.1.txt" "$out_dir/$f.2.txt"
    diff "$out_dir/$f.1.jsonl" "$out_dir/$f.2.jsonl"
  done
  diff "$out_dir/compose_rebroker_trail.1.jsonl" \
      "$out_dir/compose_rebroker_trail.2.jsonl"
}

job_procsoak() {
  echo "== ci job: proc-soak (supervised worker pool under chaos) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  # The fault-tolerance surface: wire protocol, chaos planner, shard logs,
  # supervisor end-to-end, the shared-store contention harness, and the
  # graceful-shutdown/flush paths the CLI wires around the pool.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(proc_test|support_test|io_test|cli_store_contention_test|cli_failure_test)$'
  out_dir=build-ci-asan/proc-out
  mkdir -p "$out_dir"
  # Tentpole gate: a 500-experiment campaign on 4 workers with 5% crash,
  # hang, and exit chaos each must complete with every surviving row
  # byte-identical to a fault-free single-process reference; quarantined
  # poison jobs must carry an explained failure. The bench exits non-zero
  # on any violation or leaked child.
  build-ci-asan/bench/bench_proc_chaos_soak --experiments 500 --workers 4 \
      --json "$out_dir/proc_chaos_soak.jsonl"
  # CLI byte-diff gate: the worker-process pool must reproduce the
  # in-process pool's stdout byte for byte (proc summary goes to stderr).
  build-ci-asan/tools/heterolab fig4 --workers 4 > "$out_dir/fig4.w4.txt"
  build-ci-asan/tools/heterolab fig4 --workers 0 > "$out_dir/fig4.w0.txt"
  diff "$out_dir/fig4.w0.txt" "$out_dir/fig4.w4.txt"
}

job_grid() {
  echo "== ci job: grid (standing grid-benchmark matrix gate) =="
  configure_and_build build-ci-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  # The matrix surface: expansion/report/differential tests, the engine and
  # worker pool underneath, the report validator's own fixture suite, and
  # the grid flag audit inside cli_failure_test.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
      --timeout 600 \
      -R '^(grid_test|campaign_engine_test|proc_test|check_bench_test|cli_failure_test)$'
  out_dir=build-ci-asan/grid-out
  rm -rf "$out_dir"
  mkdir -p "$out_dir"
  # Self-checking bench: the jobs-level report differential plus the
  # balanced<=unbalanced invariant, asserted in-process.
  build-ci-asan/bench/bench_grid_matrix --matrix ci \
      --json "$out_dir/grid_matrix.jsonl"
  # Tentpole gate: the 500-cell ci matrix through the worker-pool backend
  # with a persistent store, held to the standing baseline (anchor cells
  # pinned exactly) and the cross-cell invariants by --schema grid.
  build-ci-asan/tools/heterolab grid --matrix ci --workers 4 \
      --store "$out_dir/ci.log" --out "$out_dir/ci.jsonl"
  python3 tools/check_bench.py --schema grid \
      --baseline bench/baselines/grid.json "$out_dir/ci.jsonl"
  # Interrupt-resume gate: SIGTERM after 4 of the 8 shards (50%), then a
  # fresh process resumes from the store and must reproduce the
  # uninterrupted report byte for byte.
  rc=0
  build-ci-asan/tools/heterolab grid --matrix ci --shard-size 64 \
      --abort-after-shards 4 --store "$out_dir/resume.log" \
      --out "$out_dir/interrupted.jsonl" || rc=$?
  if [ "$rc" -ne 143 ]; then
    echo "ci: FAIL — interrupted grid run exited $rc, want 143 (SIGTERM)" >&2
    exit 1
  fi
  build-ci-asan/tools/heterolab grid --matrix ci --shard-size 64 \
      --store "$out_dir/resume.log" --out "$out_dir/resumed.jsonl"
  diff "$out_dir/ci.jsonl" "$out_dir/resumed.jsonl"
  # Seed-perturbation gate: under --seed 43 every stochastic cell launched
  # in both reports must move while no calm cell does.
  build-ci-asan/tools/heterolab grid --matrix ci --seed 43 \
      --out "$out_dir/ci.seed43.jsonl"
  python3 tools/check_bench.py --schema grid "$out_dir/ci.seed43.jsonl" \
      --against "$out_dir/ci.jsonl" --expect-stochastic-drift
}

run_job() {
  case "$1" in
    release) job_release ;;
    debug) job_debug ;;
    obsoff) job_obsoff ;;
    bench) job_bench ;;
    kernels) job_kernels ;;
    asan) job_asan ;;
    tsan) job_tsan ;;
    faultsoak) job_faultsoak ;;
    svc) job_svc ;;
    rebroker) job_rebroker ;;
    loadbalance) job_loadbalance ;;
    procsoak) job_procsoak ;;
    grid) job_grid ;;
    all) job_release; job_debug; job_obsoff; job_bench; job_kernels; job_asan; job_tsan; job_faultsoak; job_svc; job_rebroker; job_loadbalance; job_procsoak; job_grid ;;
    *)
      echo "ci: unknown job '$1' (expected release|debug|obsoff|bench|kernels|asan|tsan|faultsoak|svc|rebroker|loadbalance|procsoak|grid|all)" >&2
      exit 2
      ;;
  esac
}

if [ "$#" -eq 0 ]; then
  set -- all
fi
for job in "$@"; do
  run_job "$job"
done

echo "ci: all requested gates passed ($*)"
