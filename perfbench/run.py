"""braidcert benchmark: seeded workloads timed end to end and per layer.

    python3 perfbench/run.py --workload twist-floor --seed 1 --seconds 35 --trace 0

Each workload is a closed loop: one caller in one thread sends its next
call only after the previous one returned.  With ``--trace 0`` the
workload runs untraced for ``--seconds`` of timed calls (and at least
100 calls) and the end-to-end metrics are reported.  With ``--trace 1``
each group of a fixed, seed-determined prefix of the same stream runs
twice, untraced and traced, and the per-layer metrics come from the
traced pass; the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 1 when any oracle failed and 2 when the program cannot be imported
from the checkout.  The reduction kernel that ran (``c`` or ``python``)
is printed before the result; force one with ``BRAIDCERT_KERNEL``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Spawns whose median is setup_s, spread over the run after one
#: warm-up spawn, so that they sample the machine's slow drifts in speed.
SETUP_SPAWNS = 15
SETUP_CODE = ("import sys\nfrom braidcert.cli import main\n"
              "sys.exit(main(['order', '3: 1']))")
#: p90 needs at least ten samples beyond it.
MIN_CALLS = 100

PER_LAYER_UNITS = {
    "braid.parse_calls": "count", "braid.parse_s": "s",
    "braid.power_calls": "count", "braid.power_letters": "letters",
    "braid.power_s": "s",
    "kernel.sign_calls": "count", "kernel.sign_letters": "letters",
    "kernel.sign_max_letters": "letters", "kernel.sign_s": "s",
    "kernel.reduce_calls": "count", "kernel.reduce_letters": "letters",
    "kernel.reduce_s": "s", "kernel.budget_exceeded": "count",
    "ordering.floor_calls": "count", "ordering.floor_s": "s",
    "ordering.floor_sign_queries": "count", "ordering.floor_letters": "letters",
    "ordering.queries_per_floor": "ratio",
    "ordering.query_calls": "count", "ordering.query_s": "s",
    "fdtc.calls": "count", "fdtc.s": "s", "fdtc.exact_share": "ratio",
    "fdtc.mean_power": "exponent",
    "threebraid.normal_form_calls": "count", "threebraid.normal_form_s": "s",
    "certify.calls": "count", "certify.s": "s", "certify.definite_share": "ratio",
    "replay.certs": "count", "replay.inequalities": "count", "replay.s": "s",
    "replay.rejected": "count",
    "cli.entries": "count", "cli.self_s": "s",
    "trace.calls": "count", "trace.timed_s": "s", "trace.overhead_frac": "ratio",
}


def make_workload(name: str):
    from workloads import CertCorpus, OrderMix, TwistFloor

    if name == "twist-floor":
        return TwistFloor()
    if name == "order-mix":
        return OrderMix()
    if name == "cert-corpus":
        return CertCorpus(OUT / "corpus")
    raise SystemExit(f"unknown workload {name!r}")


class Tally:
    """Latencies, outcomes and oracle failures of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.timed = 0.0
        self.units = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def absorb(self, other: "Tally") -> None:
        """Count another pass's calls and failures as this one's."""
        self.latencies += other.latencies
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:5]


def time_group(workload, group, tally: Tally, call) -> list:
    """Time each call of the group; an exception is its outcome."""
    outcomes = []
    for c in group:
        workload.prepare(c)
        t0 = time.perf_counter()
        try:
            out = call(c)
        except Exception as exc:  # a wrong answer, counted by the oracle
            out = exc
        elapsed = time.perf_counter() - t0
        tally.latencies.append(elapsed)
        tally.timed += elapsed
        outcomes.append(out)
    tally.units += sum(workload.units(c) for c in group)
    return outcomes


def check_group(workload, group, outcomes, tally: Tally) -> None:
    for c, problem in zip(group, workload.check(group, outcomes)):
        if problem:
            tally.fail(f"{c.op}: {problem}")


def timed_loop(workload, seed: int, seconds: float, setup: "SetupTimer") -> Tally:
    tally = Tally()
    stream = workload.groups(seed)
    groups = 0
    while (tally.timed < seconds or len(tally.latencies) < MIN_CALLS
           or groups < workload.min_groups):
        setup.catch_up(tally.timed / seconds)
        group = next(stream)
        check_group(workload, group, time_group(workload, group, tally, workload.run),
                    tally)
        groups += 1
    return tally


def finish(workload, seed: int, tally: Tally) -> None:
    problem = workload.final_check(seed)
    if problem:
        tally.fail(problem)


class SetupTimer:
    """Wall times of fresh interpreters that import braidcert.cli and
    answer order "3: 1", as a CLI user pays it."""

    def __init__(self, spawns: int):
        self.spawns = spawns
        self.times: list[float] = []
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self._env["PYTHONPATH"]] if self._env.get("PYTHONPATH") else []))
        self._spawn()  # warm-up: fills the bytecode cache

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=self._env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "Positive":
            raise RuntimeError(f"CLI start-up check failed: {proc.stdout!r}"
                               f" {proc.stderr!r}")
        return elapsed

    def catch_up(self, progress: float) -> None:
        """Spawn until the share of spawns done matches progress."""
        while len(self.times) < min(self.spawns, int(progress * self.spawns) + 1):
            self.times.append(self._spawn())

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


def end_to_end(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup = SetupTimer(SETUP_SPAWNS)
    tally = timed_loop(workload, seed, seconds, setup)
    setup_s = setup.median()
    finish(workload, seed, tally)
    lat = tally.latencies
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    metrics = {
        "entries_per_s": (tally.units / tally.timed, "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    beyond = sum(1 for x in lat if x > deciles[8])
    print(f"{len(lat)} calls, {tally.units} entries, {tally.timed:.3f} s timed;"
          f" p90 has {beyond} samples beyond it; setup_s is the median of"
          f" {SETUP_SPAWNS} spawns")
    return tally, metrics


def traced(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    import braidcert
    from tracing import Tracer, layer_metrics

    n = max(1, math.ceil(workload.trace_groups_per_s * seconds))
    groups = list(itertools.islice(workload.groups(seed), n))
    tracer = Tracer()
    call = tracer.wrap("bench.call", workload.run)
    plain, tally = Tally(), Tally()
    outcomes = []
    # Each group runs untraced and traced back to back, in alternating
    # order, so that drifts in machine speed fall on both passes alike.
    for i, group in enumerate(groups):
        if i % 2:
            plain_out = time_group(workload, group, plain, workload.run)
        tracer.install()
        try:
            outcomes.append(time_group(workload, group, tally, call))
        finally:
            tracer.uninstall()
        if not i % 2:
            plain_out = time_group(workload, group, plain, workload.run)
        # The oracles run untraced, so no span covers them.
        check_group(workload, group, plain_out, plain)
    for group, out in zip(groups, outcomes):
        check_group(workload, group, out, tally)
    finish(workload, seed, tally)
    layers = layer_metrics(tracer.spans)
    layers["trace.calls"] = len(tally.latencies)
    layers["trace.timed_s"] = tally.timed
    layers["trace.overhead_frac"] = tally.timed / plain.timed - 1
    tally.absorb(plain)
    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "kernel": braidcert.kernel_name(), "groups": n,
                        "span": ["id", "parent", "name", "start", "end", "note"]})
    print(f"{len(tracer.spans)} spans over {layers['trace.calls']} traced calls"
          f" written to {path.relative_to(ROOT)}")
    return tally, {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("twist-floor", "cert-corpus", "order-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidcert" / "__init__.py").is_file():
        print(f"error: braidcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidcert

    workload = make_workload(args.workload)
    print(f"workload {args.workload}, seed {args.seed}, kernel"
          f" {braidcert.kernel_name()}")
    measure = traced if args.trace else end_to_end
    tally, metrics = measure(workload, args.seed, args.seconds)
    for message in tally.failures:
        print(f"FAILED {message}")
    result = {
        "correct": tally.failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
