#!/usr/bin/env python3
"""Benchmark for logsurf: four seeded workloads, exact checks, traced layers.

One workload run (the last stdout line is the JSON result):

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
op list untraced and then traced, and reports the per-layer metrics.
``--all`` runs every workload both ways in fresh processes, prints every
metric and writes a run record under bench/records/.  See bench/README.md.
"""
import time

T_TOP = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import PROBE_REF_S, WORKLOADS, Tally, probe_seconds, run_in_process  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# CPUs this process may use, read before run_one pins it to one of them.
NPROC = len(os.sched_getaffinity(0))

MAX_WALL_S = 150.0  # stop measuring even when short of the minimum op count
SETUP_SAMPLES = 9  # this process plus eight fresh ones

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metric suffix -> field of tracer.aggregate, per traced function.
_CALLS_BUSY = {"calls": "calls", "busy_ms": "busy"}
_BUSY_SELF = {"busy_ms": "busy", "self_ms": "self"}
_LAYER_FIELDS = {
    "solve.solve_symmetric": {**_CALLS_BUSY, "dim_sum": "work", "dim3_sum": "work3"},
    "solve.is_negative_definite_matrix": {**_CALLS_BUSY, "dim3_sum": "work3"},
    "zariski.zariski_decompose": {**_CALLS_BUSY, "self_ms": "self", "failed": "failed"},
    "lattice.pairing": {**_CALLS_BUSY, "terms": "work"},
    "lattice.pairings_with_curves": _CALLS_BUSY,
    "lattice.is_negative_definite": _CALLS_BUSY,
    "lattice.make_config": _CALLS_BUSY,
    "birational.blow_up": _CALLS_BUSY,
    "birational.contract_minus_one": _CALLS_BUSY,
    "birational.apply_script": {"busy_ms": "busy"},
    "birational.total_transform": {"busy_ms": "busy"},
    "birational.boundary_adjustment": {"busy_ms": "busy"},
    "birational.pushforward": {"busy_ms": "busy"},
    "birational.mmp_contract_disjoint": _BUSY_SELF,
    "birational.mmp_contract_log": _BUSY_SELF,
    "birational.contract_lc_trivial": _BUSY_SELF,
    "boundary.tower": {"busy_ms": "busy"},
    "boundary.semistable_part": {"busy_ms": "busy"},
    "catalog.table1": {"busy_ms": "busy"},
    "catalog.example_143": {"busy_ms": "busy"},
    "catalog.example_25_84": {"busy_ms": "busy"},
    "catalog.example_rational_shape": {"busy_ms": "busy"},
    "catalog.min_volume_pipeline": {"calls": "calls"},
    "cli.run": {"busy_ms": "busy"},
}
PER_LAYER_FIELDS = [
    (f"{fn}.{suffix}", "ms" if suffix.endswith("_ms") else "count", fn, field)
    for fn, fields in _LAYER_FIELDS.items()
    for suffix, field in fields.items()
]

PER_LAYER_DERIVED = [
    ("zariski.rounds_per_decompose", "count"),
    ("zariski.support_size_mean", "count"),
    ("birational.gram_cells_built", "count"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_share", "ratio"),
]
PER_LAYER = [(name, unit) for name, unit, _, _ in PER_LAYER_FIELDS] + PER_LAYER_DERIVED

COUNTERS = {
    "solve.solve_symmetric": lambda args, result: len(args[0]),
    "solve.is_negative_definite_matrix": lambda args, result: len(args[0]),
    "lattice.pairing": lambda args, result: len(args[1].coeffs) * len(args[2].coeffs),
    "birational.blow_up": lambda args, result: result.n ** 2,
    "birational.contract_minus_one": lambda args, result: result.n ** 2,
    "zariski.zariski_decompose": lambda args, result: len(result.support),
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import logsurf from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "logsurf" / "__init__.py").is_file():
        fail(f"no package at {src / 'logsurf'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import logsurf

    if Path(logsurf.__file__).resolve().parent != (src / "logsurf").resolve():
        fail(f"imported logsurf from {logsurf.__file__}, not from {src}")
    return logsurf


def layers(lg) -> dict:
    import logsurf.cli  # noqa: F401  (binds lg.cli)

    return {
        "lattice": lg.lattice, "solve": lg._solve, "zariski": lg.zariski,
        "birational": lg.birational, "boundary": lg.boundary,
        "catalog": lg.catalog, "cli": lg.cli,
    }


def spawn_seconds(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------

def timed_pass(ops, run, tally):
    """Run `ops` once with a speed probe after each; check outputs after.

    Returns (key, seconds, baseline seconds, speed scale) per successful
    op; the scale is PROBE_REF_S over the mean of the probes either side.
    """
    timed, outs = [], []
    before = probe_seconds()
    for op in ops:
        try:
            out, dt, base = run(op)
        except Exception as exc:  # a failing op is counted, not fatal
            outs.append((op.key, None, exc))
            continue
        after = probe_seconds()
        timed.append((op.key, dt, base, 2 * PROBE_REF_S / (before + after)))
        before = after
        outs.append((op.key, out, None))
    for key, out, exc in outs:
        tally.add(key, out, exc)
    return timed


def measure(workload, tally, seconds: float):
    """Whole cycles until `seconds` of wall time and the workload's minimum
    number of ops have passed."""
    samples = []
    start = time.perf_counter()
    while True:
        samples += timed_pass(workload.cycle, workload.run, tally)
        wall = time.perf_counter() - start
        if (wall >= seconds and tally.attempted >= workload.min_ops) or wall >= MAX_WALL_S:
            return samples


def speed_scale() -> float:
    return PROBE_REF_S / statistics.median(probe_seconds() for _ in range(5))


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def latency_metrics(times: list[float]) -> dict:
    return {
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
        "throughput_ops_s": len(times) / sum(times),
    }


def end_to_end(args, workload, tally, setup_own: float):
    samples = measure(workload, tally, args.seconds)
    rss = workload.peak_rss_mb()
    setups = setup_samples(args, setup_own)
    if len(samples) < 2:
        fail(f"only {len(samples)} successful ops")
    keys = [key for key, _, _, _ in samples]
    base = statistics.median(b * s for _, _, b, s in samples)
    times = [t * s - base for _, t, _, s in samples]
    raw_base = statistics.median(b for _, _, b, _ in samples)
    raw = [t - raw_base for _, t, _, _ in samples]
    values = {"setup_s": statistics.median(setups), **latency_metrics(times), "peak_rss_mb": rss}
    counts = {"setup_s": len(setups), "op_p50_ms": len(times), "op_p90_ms": len(times),
              "throughput_ops_s": len(times), "peak_rss_mb": 1}
    by_key: dict[str, list] = {}
    for key, t in zip(keys, times):
        by_key.setdefault(key, []).append(t)
    detail = {
        "setup_samples_s": setups,
        "raw_wall_clock": latency_metrics(raw),
        "speed_scale_median": statistics.median(s for _, _, _, s in samples),
        "op_median_ms_by_key": {k: statistics.median(v) * 1000 for k, v in sorted(by_key.items())},
        "ops_beyond_p90": sum(t * 1000 > values["op_p90_ms"] for t in times),
    }
    if raw_base:
        detail["bare_start_median_ms"] = raw_base * 1000
    return values, counts, detail


def cli_import_ms(samples: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, imp = [], []
    for _ in range(samples):
        bare.append(spawn_seconds(["-c", "pass"], env))
        imp.append(spawn_seconds(["-c", "import logsurf"], env))
    return (statistics.median(imp) - statistics.median(bare)) * 1000


def traced(args, lg, workload, tally):
    """Each op of the trace list plain and traced; per-layer metrics from spans.

    The two runs of an op are back to back, in alternating order, so
    warm-up and machine speed phases fall on both sides alike.  The
    wrappers are in place only while a traced op runs: probes and checks
    stay out of the spans.  Milliseconds are rescaled by the traced runs'
    median speed scale.
    """
    from tracer import PARENT, Tracer, aggregate, has_ancestor

    tracer = Tracer(layers(lg), COUNTERS)

    def run_traced(op):
        with tracer:
            return run_in_process(op)

    ops = workload.trace_cycle()
    timed, ratios = [], []
    for k, op in enumerate(ops):
        tracer.op = k
        runs = {}
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            runs[with_trace] = timed_pass([op], run_traced if with_trace else run_in_process, tally)
        timed += runs[True]
        if runs[False] and runs[True]:
            (_, t_plain, _, s_plain), (_, t_traced, _, s_traced) = runs[False][0], runs[True][0]
            ratios.append(t_traced * s_traced / (t_plain * s_plain))
    if not ratios:
        fail("no traced op succeeded")
    scale = statistics.median(s for _, _, _, s in timed)

    spans = tracer.spans
    stats = aggregate(spans)
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0, "work3": 0, "failed": 0}
    values = {}
    for name, unit, fn, field in PER_LAYER_FIELDS:
        value = stats.get(fn, empty)[field]
        values[name] = value * 1000 * scale if unit == "ms" else value

    decompose = stats.get("zariski.zariski_decompose", empty)
    rounds = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "solve.solve_symmetric" and has_ancestor(spans, i, "zariski.zariski_decompose")
    )
    ok_decompose = decompose["calls"] - decompose["failed"]
    values["zariski.rounds_per_decompose"] = rounds / decompose["calls"] if decompose["calls"] else 0
    values["zariski.support_size_mean"] = decompose["work"] / ok_decompose if ok_decompose else 0
    values["birational.gram_cells_built"] = (
        stats.get("birational.blow_up", empty)["work"]
        + stats.get("birational.contract_minus_one", empty)["work"]
    )
    values["cli.import_ms"] = cli_import_ms() * speed_scale()
    values["trace.overhead_ratio"] = statistics.median(ratios)
    values["trace.self_time_share"] = (
        sum(s[2] - s[1] for s in spans if s[PARENT] < 0) / sum(t for _, t, _, _ in timed)
    )

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    samples = dict.fromkeys(values, len(timed))
    detail = {"trace_ops": len(ops), "overhead_pairs": len(ratios), "spans": len(spans),
              "speed_scale_median": scale}
    return values, samples, detail


# ---------------------------------------------------------------------------
# Records.
# ---------------------------------------------------------------------------

def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    commit, dirty = "unknown", None  # not a git checkout
    try:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "dirty": dirty,  # uncommitted changes: the numbers are not those of `commit` alone
    }


def git(*argv) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                          text=True, check=True).stdout.strip()


def print_metrics(label: str, values: dict, units: dict, samples: dict) -> None:
    for name, value in values.items():
        print(f"{label:<8} {name:<44} {value:>14.4f} {units[name]:<6} n={samples[name]}")


def run_one(args) -> None:
    # One CPU for this process and its children, so each probe runs where
    # the op next to it ran.  Only this process's own affinity changes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    lg = load_program()
    workload = WORKLOADS[args.workload](lg, args.seed, ROOT)
    setup_own = (time.perf_counter() - T_TOP) * speed_scale()
    if args.setup_only:
        print(f"{setup_own:.6f}")
        return
    tally = Tally(workload)
    if args.trace:
        values, samples, detail = traced(args, lg, workload, tally)
        units = dict(PER_LAYER)
    else:
        values, samples, detail = end_to_end(args, workload, tally, setup_own)
        units = dict(END_TO_END)
    from checks import KNOWN_DISCREPANCIES

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "result": result, "samples": samples, "detail": detail,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "errors": tally.errors, "known_discrepancies": KNOWN_DISCREPANCIES,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_metrics(args.workload, values, units, samples)
    for name, value in detail.get("raw_wall_clock", {}).items():
        print(f"{args.workload:<8} raw wall clock {name:<29} {value:>14.4f} {units[name]}")
    print(f"{args.workload:<8} failed_ratio {record['failed_ratio']:.4f} "
          f"({tally.failed}/{tally.attempted}); record {path.relative_to(ROOT)}")
    for key, error in tally.errors.items():
        print(f"{args.workload:<8} FAILED {key}: {error}")
    print(json.dumps(result))


def run_all(args) -> None:
    """Every workload, untraced and traced, in fresh processes; one record."""
    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                fail(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr.strip()}")
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            runs.setdefault(name, {})[f"trace{trace}"] = json.loads(
                (OUT / f"run-{name}-seed{args.seed}-trace{trace}.json").read_text("utf-8")
            )
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "runs": runs}
    path = HERE / "records" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record written to {path.relative_to(ROOT)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print set-up seconds and exit")
    parser.add_argument("--all", action="store_true", help="run every workload, write a record")
    parser.add_argument("--label", default="local", help="record name: records/BENCH_<label>.json")
    args = parser.parse_args()
    if args.all:
        run_all(args)
    elif args.workload:
        run_one(args)
    else:
        parser.error("give --workload or --all")


if __name__ == "__main__":
    main()
