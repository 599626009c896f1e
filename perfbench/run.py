#!/usr/bin/env python3
"""Host-cost benchmark of heterolab: what a run costs this machine in
seconds and bytes (never the model's virtual time).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (Release) into .bench_build/ of the checkout, then runs
one measured run at a time, each in its own child process, until S seconds
have passed. Peak RSS and CPU seconds come from wait4() on each child.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
CHILD = BUILD / "perfbench_child"
RECORD = ROOT / ".bench_build" / "perfbench-results.jsonl"

STEPS = 3            # time steps per direct run (ExperimentRunner's default)
MIN_RUNS = 3         # measured runs per invocation, however long they take
CHILD_TIMEOUT = 150  # seconds; a child past this is killed and counts failed
GRID_CELLS = 16200

# Direct workloads: the topology, CPU model and mesh run_direct builds.
WORKLOADS = {
    "rd-p1-c20": ["--app", "rd", "--platform", "puma", "--ranks", "1",
                  "--cells", "20"],
    "ns-th-p1-c12": ["--app", "ns", "--order", "2", "--platform", "puma",
                     "--ranks", "1", "--cells", "12"],
    "rd-p216-c2": ["--app", "rd", "--platform", "ec2", "--ranks", "216",
                   "--cells", "2"],
    "grid-full": None,
}

END_TO_END = [
    ("setup_s", "s"), ("step_s", "s"), ("wall_s", "s"),
    ("peak_rss_mb", "MB"), ("cpu_s", "s"),
    ("cells_per_s", "1/s"), ("warm_cells_per_s", "1/s"),
]

DIRECT_LAYERS = [
    ("mesh.build_s", "s"), ("fem.space_s", "s"), ("fem.dirichlet_s", "s"),
    ("la.ownership_s", "s"), ("la.freeze_s", "s"),
    ("fem.assembly_s", "s"), ("fem.assembly_entries", "count"),
    ("la.refill_s", "s"),
    ("solvers.precond_build_s", "s"), ("solvers.precond_apply_s", "s"),
    ("solvers.krylov_s", "s"), ("solvers.iterations", "count"),
    ("la.spmv_s", "s"), ("la.spmv_calls", "count"), ("la.nnz", "count"),
    ("la.spmv_bytes_computed", "B"), ("la.spmv_gbs", "GB/s"),
    ("la.matrix_bytes", "B"), ("solvers.precond_bytes", "B"),
    ("la.halo_s", "s"), ("la.halo_bytes", "B"),
    ("simmpi.spawn_join_s", "s"), ("simmpi.allreduce_s", "s"),
    ("simmpi.barrier_s", "s"), ("simmpi.collectives", "count"),
    ("simmpi.messages", "count"), ("simmpi.bytes", "B"),
    ("apps.setup_s", "s"), ("apps.step_s", "s"),
    ("core.direct_overhead_s", "s"),
    ("trace.replay_iters_diff", "count"), ("trace.replay_error_diff", "1"),
]
GRID_LAYERS = [
    ("grid.expand_s", "s"), ("core.evaluate_s", "s"),
    ("core.unique_ratio", "1"), ("core.modeled_run_us", "us"),
    ("grid.report_s", "s"), ("grid.report_bytes", "B"),
    ("svc.store_write_s", "s"), ("svc.store_read_s", "s"),
    ("svc.store_bytes", "B"),
]
COMMON_LAYERS = [
    ("host.triad_gbs", "GB/s"), ("trace.coverage", "1"),
    ("trace.overhead_s", "s"),
]
PER_LAYER = DIRECT_LAYERS + GRID_LAYERS + COMMON_LAYERS
COMPUTED = {"la.spmv_bytes_computed", "la.spmv_gbs", "la.matrix_bytes",
            "solvers.precond_bytes"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


# ---- build and environment -------------------------------------------------

def build():
    """Configures (once) and builds the child in Release; exits on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    WORK.mkdir(parents=True, exist_ok=True)
    log_path = ROOT / ".bench_build" / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_child", "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = Path(log_path).read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)}")


def llc_bytes():
    """Sum of the distinct last-level caches of the CPUs this run may use."""
    seen = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        base = Path(f"/sys/devices/system/cpu/cpu{cpu}/cache")
        best = None
        for idx in base.glob("index*"):
            try:
                level = int((idx / "level").read_text())
                kind = (idx / "type").read_text().strip()
                size = (idx / "size").read_text().strip()
                shared = (idx / "shared_cpu_list").read_text().strip()
            except OSError:
                continue
            if kind == "Instruction":
                continue
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            nbytes = int(size.rstrip("KMG")) * mult
            if best is None or level > best[0]:
                best = (level, shared, nbytes)
        if best:
            seen[(best[0], best[1])] = best[2]
    return sum(seen.values()) or 32 << 20


def meminfo(key):
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) * 1024
    return 0


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def environment():
    child = run_child([str(CHILD), "env"])
    if child["json"] is None:
        fail("the child program does not start")
    env = dict(child["json"])
    env.update({
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc(),
        "mem_total_bytes": meminfo("MemTotal"),
        "llc_bytes": llc_bytes(),
        "HETERO_OBS": env.pop("hetero_obs"),
        "HETERO_KERNELS": os.environ.get("HETERO_KERNELS", "(unset)"),
    })
    return env


# ---- one child process ------------------------------------------------------

def run_child(argv, timeout=CHILD_TIMEOUT):
    """Runs one child to completion; returns its JSON line and rusage."""
    out_path = WORK / f"child-{os.getpid()}.out"
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
    finally:
        os.close(fd)
    deadline = time.monotonic() + timeout
    while True:
        wpid, status, usage = os.wait4(pid, os.WNOHANG)
        if wpid == pid:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            break
        time.sleep(0.002)
    text = out_path.read_text().strip().splitlines()
    out_path.unlink()
    parsed = None
    if os.waitstatus_to_exitcode(status) == 0 and text:
        try:
            parsed = json.loads(text[-1])
        except json.JSONDecodeError:
            parsed = None
    return {
        "json": parsed,
        "exit": os.waitstatus_to_exitcode(status),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def repeat(seconds, fn, min_runs=MIN_RUNS):
    """Calls fn(i) for i = 0, 1, ... at least `min_runs` times, then while
    the next call is expected to end no more than half a call past
    `seconds`; returns the results."""
    start = time.monotonic()
    results = []
    while True:
        elapsed = time.monotonic() - start
        if len(results) >= min_runs and (
                elapsed + 0.5 * elapsed / len(results) >= seconds):
            return results
        results.append(fn(len(results)))


def direct_argv(mode, workload):
    return [str(CHILD), mode, *WORKLOADS[workload], "--steps", str(STEPS)]


def grid_argv(mode, seed):
    return [str(CHILD), mode, "--seed", str(seed), "--jobs", str(nproc()),
            "--work", str(WORK)]


# ---- end-to-end run -----------------------------------------------------------

def end_to_end(workload, seed, seconds):
    samples = {name: [] for name, _ in END_TO_END}
    attempted = failed = 0
    argv = (grid_argv("grid", seed) if WORKLOADS[workload] is None
            else direct_argv("direct", workload))
    for r in repeat(seconds, lambda _: run_child(argv)):
        j = r["json"]
        ok = j is not None and j["ok"]
        if WORKLOADS[workload] is None:
            attempted += 2 * GRID_CELLS
            failed += 0 if ok else 2 * GRID_CELLS
        else:
            attempted += 1
            failed += 0 if ok else 1
        if not ok:
            print(f"perfbench: run failed: {j}", file=sys.stderr)
            continue
        samples["setup_s"].append(j["setup_s"])
        samples["wall_s"].append(j["wall_s"])
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        samples["cpu_s"].append(r["cpu_s"])
        if WORKLOADS[workload] is None:
            samples["step_s"] += [j["cold_s"], j["warm_s"]]
            samples["cells_per_s"].append(j["cells"] / j["cold_s"])
            samples["warm_cells_per_s"].append(j["cells"] / j["warm_s"])
        else:
            steps = [s["s"] for s in j["steps"]]
            work = j["global_cells"] ** 3 * len(steps)
            samples["step_s"] += steps[1:]
            samples["cells_per_s"].append(work / j["wall_s"])
            samples["warm_cells_per_s"].append(work / sum(steps))
    return samples, attempted, failed


# ---- traced run -----------------------------------------------------------------

def triad():
    """STREAM triad with each array at least 4x the last-level cache."""
    llc = llc_bytes()
    array = 4 * llc
    # Three arrays must fit comfortably beside everything else.
    room = meminfo("MemAvailable") // 2
    note = ""
    if 3 * array > room:
        array = room // 3
        note = " (shrunk to fit memory: below the 4x LLC rule)"
    mb = max(64, array // (1 << 20) + 1)
    r = run_child([str(CHILD), "triad", "--mb", str(mb)])
    j = r["json"]
    if j is None or not j["ok"]:
        return None
    print(f"  host.triad_gbs: arrays of {j['array_bytes'] / 2**20:.0f} MiB "
          f"each, last-level cache {llc / 2**20:.0f} MiB{note}")
    return j["triad_gbs"]


def traced_direct(workload, seconds):
    """Sets of an untraced apps-level run, the run through the experiment
    layer, and the traced replay, each in its own child."""
    def one_set(k):
        spans = WORK / f"spans-{workload}-{k}.json"
        return tuple(run_child(argv)["json"] for argv in (
            direct_argv("direct", workload), direct_argv("runner", workload),
            direct_argv("replay", workload) + ["--spans", str(spans)]))

    sets = repeat(seconds, one_set, min_runs=1)
    values = {}
    attempted = failed = 0
    for apps, runner, replay in sets:
        attempted += 3
        oks = [x is not None and x["ok"] for x in (apps, runner, replay)]
        failed += oks.count(False)
        if not all(oks):
            print(f"perfbench: traced set failed: {apps} {runner} {replay}",
                  file=sys.stderr)
            continue
        L = dict(replay["layers"])
        apps_steps = [s["s"] for s in apps["steps"]]
        L["apps.setup_s"] = apps["setup_s"]
        L["apps.step_s"] = statistics.median(apps_steps[1:] or apps_steps)
        L["simmpi.collectives"] = apps["collectives"]
        L["simmpi.messages"] = apps["messages"]
        L["simmpi.bytes"] = apps["bytes"]
        L["core.direct_overhead_s"] = runner["wall_s"] - apps["wall_s"]
        L["trace.coverage"] = L["replay.step_covered_s"] / L["apps.step_s"]
        L["trace.overhead_s"] = (
            L["replay.setup_s"] + sum(s["s"] for s in replay["steps"])
            - apps["setup_s"] - sum(apps_steps))
        pairs = list(zip(apps["steps"], replay["steps"]))
        L["trace.replay_iters_diff"] = sum(
            abs(a["iters"] - b["iters"]) for a, b in pairs) + abs(
            len(apps["steps"]) - len(replay["steps"]))
        L["trace.replay_error_diff"] = max(
            (abs(a["nodal_error"] - b["nodal_error"]) for a, b in pairs),
            default=0.0)
        if L["trace.replay_iters_diff"] or L["trace.replay_error_diff"]:
            print(f"perfbench: replay differs from the apps-level run: "
                  f"iterations {[s['iters'] for s in apps['steps']]} vs "
                  f"{[s['iters'] for s in replay['steps']]}, nodal errors "
                  f"{[s['nodal_error'] for s in apps['steps']]} vs "
                  f"{[s['nodal_error'] for s in replay['steps']]}")
        for k, v in L.items():
            values.setdefault(k, []).append(v)
    return values, attempted, failed, len(sets)


def traced_grid(seed, seconds):
    """Sets of an untraced and a traced grid run, each in its own child."""
    def one_set(k):
        spans = WORK / f"spans-grid-full-{k}.json"
        return tuple(run_child(argv)["json"] for argv in (
            grid_argv("grid", seed),
            grid_argv("trace-grid", seed) + ["--spans", str(spans)]))

    sets = repeat(seconds, one_set, min_runs=1)
    values = {}
    attempted = failed = 0
    for plain, traced in sets:
        attempted += 4 * GRID_CELLS
        for j in (plain, traced):
            failed += 0 if j is not None and j["ok"] else 2 * GRID_CELLS
        if plain is None or traced is None or not (plain["ok"] and
                                                   traced["ok"]):
            print(f"perfbench: traced grid run failed: {plain} {traced}",
                  file=sys.stderr)
            continue
        L = dict(traced["layers"])
        untraced = plain["cold_s"] + plain["warm_s"]
        L["trace.coverage"] = L["grid.pass_covered_s"] / untraced
        L["trace.overhead_s"] = traced["cold_s"] + traced["warm_s"] - untraced
        for k, v in L.items():
            values.setdefault(k, []).append(v)
    return values, attempted, failed, len(sets)


# ---- report ---------------------------------------------------------------

def describe(values):
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    text = f"median of {n}"
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        q = statistics.quantiles(values, n=100, method="inclusive")
        text += f", p{pct} {q[pct - 1]:.6g}"
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("HETERO_KERNELS") == "reference":
        fail("refusing to measure the reference kernels "
             "(HETERO_KERNELS=reference is set)")
    build()
    env = environment()
    if env["build_type"] != "Release" or env["kernel_mode"] != "fast":
        fail(f"refusing to measure build_type={env['build_type']} "
             f"kernel_mode={env['kernel_mode']}")

    grid = WORKLOADS[args.workload] is None
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {mode}")
    metrics = {}
    if args.trace:
        gbs = triad()
        if grid:
            values, attempted, failed, runs = traced_grid(args.seed,
                                                          args.seconds)
            live = {n for n, _ in GRID_LAYERS + COMMON_LAYERS}
        else:
            values, attempted, failed, runs = traced_direct(args.workload,
                                                            args.seconds)
            live = {n for n, _ in DIRECT_LAYERS + COMMON_LAYERS}
        values["host.triad_gbs"] = [gbs] if gbs else []
        print(f"  per-layer metrics, median of {runs} traced set(s):")
        for name, unit in PER_LAYER:
            if name in live and values.get(name):
                value = statistics.median(values[name])
                note = ("  (computed from array sizes)"
                        if name in COMPUTED else "")
                print(f"  {name:26s} {value:14.6g} {unit}{note}")
            else:
                value = 0.0  # the workload does not run this layer
                print(f"  {name:26s} {'n/a':>14s} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        samples, attempted, failed = end_to_end(args.workload, args.seed,
                                                args.seconds)
        for name, unit in END_TO_END:
            vals = samples[name]
            value = statistics.median(vals) if vals else 0.0
            print(f"  {name:18s} {value:14.6g} {unit:4s} ({describe(vals)})")
            metrics[name] = {"value": value, "unit": unit}
    unit = "grid cells" if grid else "runs"
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':18s} {frac:14.6g}      "
          f"({failed}/{attempted} {unit} failed)")
    correct = attempted > 0 and failed == 0
    if args.trace and not values["host.triad_gbs"]:
        print("perfbench: the triad reference run failed", file=sys.stderr)
        correct = False
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(RECORD, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
