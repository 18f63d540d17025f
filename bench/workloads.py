"""The four workloads: seeded inputs, one op each, and its exact check.

A workload exposes ``cycle``, the fixed seeded list of ops that a run
repeats, and ``check(key, output)``.  Ops call the package only through
attribute lookups on ``logsurf`` and its modules at call time, so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import gen


@dataclass
class Op:
    key: str
    fn: Callable[[], object]


class Workload:
    name = ""
    trace_repeat = 1  # cycles in a traced run
    min_ops = 100  # per run; p90 needs at least ten samples beyond it

    def __init__(self, lg, seed: int, root: Path):
        self.lg = lg
        self.root = root
        self.cycle: list[Op] = []

    def run(self, op: Op):
        return run_in_process(op)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace_cycle(self) -> list[Op]:
        return self.cycle * self.trace_repeat

    def check(self, key: str, out) -> None:
        raise NotImplementedError


# Machine speed drifts in phases of seconds on shared hosts.  Timings are
# rescaled to a fixed speed: the probe below is a fixed pure-Python job
# (Fraction arithmetic and dict updates, like the package's inner loops),
# timed next to every op; an op's time is multiplied by
# PROBE_REF_S / (probe time).  Raw wall-clock figures go to the record.
PROBE_REF_S = 0.002


def probe_seconds() -> float:
    t0 = perf_counter()
    acc, tally = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        tally[i % 17] = tally.get(i % 17, 0) + i
    return perf_counter() - t0


def run_in_process(op: Op):
    """Output of one op, its latency and the baseline to subtract (s)."""
    t0 = perf_counter()
    out = op.fn()
    return out, perf_counter() - t0, 0.0


class Tally:
    """Counts attempted and failed ops.

    An op fails when it raises or its output fails the workload's check.
    The first output for each key gets the full check; later outputs for
    the same key must equal that verified output exactly.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.verified: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, key: str, out, raised: Exception | None = None) -> None:
        self.attempted += 1
        if raised is not None:
            self.errors.setdefault(key, f"raised {type(raised).__name__}: {raised}")
        elif key in self.verified:
            if out == self.verified[key]:
                return
            self.errors.setdefault(key, "differs from its verified output")
        else:
            try:
                self.workload.check(key, out)
            except Exception as exc:  # any check failure, including a malformed output
                self.errors.setdefault(key, f"{type(exc).__name__}: {exc}")
            else:
                self.verified[key] = out
                return
        self.failed += 1


# ---------------------------------------------------------------------------


class Paper(Workload):
    """One op: table1, both routes to 1/143, 25/84 and the rational shape."""

    name = "paper"
    trace_repeat = 8

    def __init__(self, lg, seed, root):
        super().__init__(lg, seed, root)
        self.cycle = [Op("pass", self.reproduce)]

    def reproduce(self):
        lg = self.lg
        return (lg.table1(), lg.example_143(), lg.example_25_84(), lg.example_rational_shape())

    def check(self, key, out):
        checks.check_paper(out)


class Scaling(Workload):
    """One op: one decomposition from a fixed seeded set of large supports."""

    name = "scaling"
    # Instances per cycle of (family, size).  Sorted by cost the 20-op
    # cycle is 6 ops of size 25 or size-50 chains and trees, 8 size-50
    # towers, 1 size-100 chain and tree each, and 4 size-100 towers.  So
    # the median falls in the middle of the size-50 towers and p90 in the
    # middle of the size-100 towers, whose cost does not depend on the
    # seed.  Chain and tree costs do: their support-growth rounds vary
    # with the seed-drawn shape, so they stay away from both percentiles.
    MIX = {
        ("chain", 25): 1, ("tree", 25): 1, ("tower", 25): 2,
        ("chain", 50): 1, ("tree", 50): 1, ("tower", 50): 8,
        ("chain", 100): 1, ("tree", 100): 1, ("tower", 100): 4,
    }
    min_ops = 120  # six cycles, so at least twelve ops lie beyond p90

    def __init__(self, lg, seed, root):
        super().__init__(lg, seed, root)
        rng = gen.rng_for(seed, "scaling")
        self.golden = checks.load_tower_golden()
        self.cases: dict[str, tuple] = {}
        for (family, size), count in self.MIX.items():
            for j in range(count):
                if family == "tower":
                    self._add_tower(rng.randrange(len(gen.TOWER_BASES)), size)
                else:
                    self._add_support(family, size, j, rng)
        rng.shuffle(self.cycle)

    def _add_tower(self, index: int, n: int):
        lg = self.lg
        base = gen.tower_base(index)
        curves, edges, d, b, _ = base
        cfg, w = lg.make_config(curves, edges), lg.QDivisor(d)
        key = f"tower{n}-base{index}"

        def op():
            history, cls = lg.tower(cfg, "C", "E", w, b, n)
            return history, cls, lg.zariski_decompose(history.top, cls)

        self.cases[key] = ("tower", f"{index}-{n}", base, n)
        self.cycle.append(Op(key, op))

    def _add_support(self, family: str, k: int, j: int, rng):
        lg = self.lg
        curves, edges, d = getattr(gen, family)(rng, k)
        if not gen.is_diagonally_dominant(curves, edges):
            raise RuntimeError(f"{family} generator lost diagonal dominance")
        cfg, divisor = lg.make_config(curves, edges), lg.QDivisor(d)
        key = f"{family}{k}-{j}"
        self.cases[key] = (family, curves, edges, d)
        self.cycle.append(Op(key, lambda: lg.zariski_decompose(cfg, divisor)))

    def check(self, key, out):
        case = self.cases[key]
        if case[0] == "tower":
            _, golden_key, base, n = case
            checks.check_tower(self.golden, golden_key, base, n, out)
        else:
            _, curves, edges, d = case
            checks.check_certificate(gen.RefLattice(curves, edges), d, out)


class Surgery(Workload):
    """One op: replay a long script, transport a class, contract back."""

    name = "surgery"

    def __init__(self, lg, seed, root):
        super().__init__(lg, seed, root)
        rng = gen.rng_for(seed, "surgery")
        self.base = lg.make_config(*gen.SURGERY_BASE)
        self.cases: dict[str, tuple] = {}
        for i, length in enumerate(gen.surgery_lengths(rng)):
            steps, ref = gen.surgery_script(rng, length)
            d = gen.surgery_divisor(rng)
            boundary = gen.surgery_boundary(rng)
            key = f"script{i}-{length}"
            self.cases[key] = (self.base, steps, ref, d, boundary, gen.SURGERY_MARKED)
            self.cycle.append(Op(key, self._op(steps, d, boundary)))

    def _op(self, steps, d, boundary):
        lg, base = self.lg, self.base
        script = [lg.BlowupStep(branches, name, joins) for branches, name, joins in steps]
        divisor = lg.QDivisor(d)
        running = sorted(set(boundary) | {name for _, name, joins in steps if joins})
        marked = [gen.SURGERY_MARKED]

        def op():
            history = lg.apply_script(base, script)
            up = lg.total_transform(history, divisor)
            adjust = lg.boundary_adjustment(history, boundary)
            down = lg.pushforward(history, up + adjust)
            split = lg.semistable_part(history.top, running)
            contracted_config, contracted = lg.mmp_contract_disjoint(history.top, marked)
            return history, up, adjust, down, split, contracted_config, contracted

        return op

    def check(self, key, out):
        checks.check_surgery(self.cases[key], out)


class Cli(Workload):
    """One op: one ``python -m logsurf.cli`` process, net of a bare start."""

    name = "cli"
    trace_repeat = 2
    CHAIN = 25
    SCRIPT_STEPS = 20

    def __init__(self, lg, seed, root):
        super().__init__(lg, seed, root)
        import logsurf.cli  # noqa: F401  (binds lg.cli for the in-process ops)

        rng = gen.rng_for(seed, "cli")
        work = root / "bench" / "out" / f"cli-seed{seed}"
        work.mkdir(parents=True, exist_ok=True)

        curves, edges, d = gen.chain(rng, self.CHAIN)
        ref = gen.RefLattice(curves, edges)
        config_path = self._write(work / "chain.json", ref.to_json())
        divisor_path = self._write(work / "chain_divisor.json", {"coeffs": {k: str(v) for k, v in d.items()}})
        try:
            result = lg.zariski_decompose(lg.make_config(curves, edges), lg.QDivisor(d))
            checks.check_certificate(ref, d, result)  # diagonally dominant: the decomposition
            zariski_golden = checks.render_zariski(result)
        except (lg.LatticeError, checks.CheckError):
            zariski_golden = None  # every zariski op then fails its check

        steps, top = gen.surgery_script(rng, self.SCRIPT_STEPS)
        base_path = self._write(work / "base.json", gen.RefLattice(*gen.SURGERY_BASE).to_json())
        script = [
            {"point": [{"curve": c, "mult": m} for c, m in branches], "name": name, "joins_boundary": joins}
            for branches, name, joins in steps
        ]
        script_path = self._write(work / "script.json", script)
        pg = rng.randint(1, 400)

        self.commands = {
            "table1": (["table1"], checks.static_golden("cli_table1.txt")),
            "example-143": (["example", "143"], checks.static_golden("cli_example_143.txt")),
            "zariski": (["zariski", config_path, "-d", divisor_path, "--json"], zariski_golden),
            "blowup": (["blowup", base_path, "-s", script_path], checks.dumps(top.to_json())),
            "noether": (["noether", "--pg", str(pg)], checks.render_noether(pg)),
        }
        self.cycle = [Op(key, self._spawn_op(argv)) for key, (argv, _) in self.commands.items()]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    @staticmethod
    def _write(path: Path, obj) -> str:
        path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def _spawn(self, argv):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], env=self.env, cwd=self.root,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        )
        return (proc.stdout.decode("utf-8"), proc.returncode), perf_counter() - t0

    def _spawn_op(self, argv):
        return lambda: self._spawn(["-m", "logsurf.cli", *argv])

    def run(self, op):
        bare = self._spawn(["-c", "pass"])[1]
        out, dt = op.fn()
        return out, dt, bare

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def trace_cycle(self):
        """In-process ``cli.run`` ops, so the tracer sees every layer."""
        lg = self.lg

        def inproc(argv):
            def op():
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = lg.cli.run(list(argv))
                return buf.getvalue(), code
            return op

        return [Op(key, inproc(argv)) for key, (argv, _) in self.commands.items()] * self.trace_repeat

    def check(self, key, out):
        text, code = out
        checks.require(code == 0, f"{key}: exit code {code}")
        checks.require(text == self.commands[key][1], f"{key}: stdout differs from golden")


WORKLOADS = {w.name: w for w in (Paper, Scaling, Surgery, Cli)}
