"""Benchmark of the ``hmctransfer`` CLI, driven the way users run it.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh ``python3 -m hmctransfer.cli <subcommand>``
process on the workload's INI config, with ``--seed N`` passed through.  The
operations form a closed loop with a single client: the next one starts only
after the previous one has exited.  The loop runs for ``--seconds`` and at
least ``MIN_OPS`` operations; BLAS keeps its default thread count.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` of one CLI
run, median ``setup_s`` of a fresh interpreter that imports
``hmctransfer.cli`` and loads the config (timed before each operation, at
least ``SETUP_REPEATS`` times), and median ``peak_rss_mib`` of the CLI
process.  ``--trace 1`` runs one untraced operation and then traced ones
(``bench/tracer.py``), and reports per-layer times, self times and exact work
counts.  Every operation's outputs are checked against closed-form oracles;
an operation fails when it exits non-zero or misses an oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, every operation, every check value) goes to
``.bench_work/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 3
SETUP_REPEATS = 5
# the whole benchmark has to end within 180 s; stop starting operations
# that would run past this point
RUN_BUDGET_S = 165.0

SETUP_CODE = "import sys; from hmctransfer.cli import load_config; load_config(sys.argv[1])"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "operator.assemble_transfer.s": "s",
    "operator.assemble_transfer.self_s": "s",
    "operator.assemble_transfer.images": "count",
    "operator.assemble_transfer.frac_outside": "ratio",
    "operator.assemble_adjoint.s": "s",
    "operator.assemble_adjoint.self_s": "s",
    "kernel_spectral.eigen_spectrum.s": "s",
    "kernel_spectral.eigen_spectrum.self_s": "s",
    "kernel_spectral.eigen_spectrum.n": "count",
    "kernel_spectral.eigen_spectrum.k": "count",
    "operator.matrix_asymmetry.s": "s",
    "operator.weighted_symmetry_residual.s": "s",
    "operator.weighted_symmetry_residual.calls": "count",
    "dynamics.flow_batch.s": "s",
    "dynamics.flow_batch.calls": "count",
    "dynamics.flow_batch.points": "count",
    "dynamics.flow_batch.points_per_s": "1/s",
    "tangent.tangent_batch.s": "s",
    "tangent.tangent_batch.points": "count",
    "tangent.tangent_batch.points_per_s": "1/s",
    "kernel_spectral.assemble_kernel.s": "s",
    "kernel_spectral.assemble_kernel.self_s": "s",
    "distributions.grad.points": "count",
    "distributions.hess.points": "count",
    "distributions.value.points": "count",
    "operator.iterate.s": "s",
    "operator.iterate.steps": "count",
    "operator.iterate.s_per_step": "s",
    "operator.iterate.bytes_computed": "bytes",
    "operator.TransferMatrix.apply.calls": "count",
    "cli.hmc_chain.s": "s",
    "cli.hmc_chain.draws": "count",
    "cli.hmc_chain.s_per_draw": "s",
    "cli.hmc_chain.acceptance": "ratio",
    "cli.io.s": "s",
    "cli.io.bytes": "bytes",
    "kernel_spectral.hs_norm.s": "s",
    "operator.build_grid.s": "s",
    "operator.build_momentum_rule.s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.missing_hooks": "count",
}

# per-layer metrics derived as (numerator, denominator) of other metrics
RATES = {
    "dynamics.flow_batch.points_per_s": ("dynamics.flow_batch.points", "dynamics.flow_batch.s"),
    "tangent.tangent_batch.points_per_s": (
        "tangent.tangent_batch.points", "tangent.tangent_batch.s"),
    "operator.iterate.s_per_step": ("operator.iterate.s", "operator.iterate.steps"),
    "cli.hmc_chain.s_per_draw": ("cli.hmc_chain.s", "cli.hmc_chain.draws"),
}


# ---------------------------------------------------------------- oracles


@dataclass(frozen=True)
class Check:
    """One oracle: ``max`` needs value <= bound, ``min`` value >= bound,
    ``record`` is kept beside the timings but never fails a run."""

    name: str
    value: float
    bound: float
    kind: str = "max"

    @property
    def ok(self) -> bool:
        if self.kind == "max":
            return self.value <= self.bound
        if self.kind == "min":
            return self.value >= self.bound
        return True


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_quartic_kernel(out: Path) -> list[Check]:
    """HS agreement, the HS identity sum mu^2 <= HS, and the determinant bound."""
    rep = _read_json(out / "kernel_report.json")
    hs = rep["hs_norm_sq"]
    return [
        Check("hs_position_momentum_rel_gap", abs(hs - rep["hs_norm_sq_momentum"]) / hs, 1e-3),
        Check("sum_mu_sq_over_hs", rep["sum_mu_sq"] / hs, 1.0 + 1e-3),
        Check("hs_over_determinant_bound", hs / rep["hs_bound_from_determinants"], 1.0),
    ]


def check_quartic_operator(out: Path) -> list[Check]:
    """Mass, self-adjointness, duality, fixed point, and no iteration anomaly."""
    rep = _read_json(out / "operator_report.json")
    return [
        Check("mass_error_max", rep["mass_error_max"], 1e-7),
        Check("self_adjointness_residual", rep["self_adjointness_residual"], 1e-7),
        Check("duality_residual_max", rep["duality_residual_max"], 1e-7),
        Check("fixed_point_residual", rep["fixed_point_residual"], 1e-6),
        Check("iteration_anomaly", float(rep["iteration_anomaly"]), 0.0),
    ]


def check_quartic_sampler(out: Path) -> list[Check]:
    """Acceptance of the leapfrog chain; the histogram distance is only
    recorded, since with rho ~ 0.995 the chain has few effective samples."""
    rep = _read_json(out / "sampler_report.json")
    return [
        Check("acceptance_rate", rep["acceptance_rate"], 0.5, "min"),
        Check("sup_distance", rep["sup_distance"], math.nan, "record"),
    ]


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict
    check: Callable[[Path], list[Check]]
    smoke: dict


_QUARTIC = {
    "model": {"family": "anharmonic", "a": "1.0", "b": "0.5", "halfwidth": "3.5"},
    "flow": {"time": "0.08", "method": "leapfrog", "steps": "36"},
    "grid": {"n_per_axis": "401"},
}
_QUARTIC_SMOKE = {"grid": {"n_per_axis": "121", "momentum_nodes": "129"}}

WORKLOADS = {
    "quartic-kernel": Workload(
        "kernel-norm",
        {**_QUARTIC, "experiment": {"kernel_momentum_nodes": "1025"}},
        check_quartic_kernel,
        {**_QUARTIC_SMOKE, "experiment": {"kernel_momentum_nodes": "257"}},
    ),
    "quartic-operator": Workload(
        "operator",
        {**_QUARTIC, "experiment": {
            "h0_center": "0.8", "h0_sigma": "0.4", "n_max": "12000", "tol": "1e-7"}},
        check_quartic_operator,
        {**_QUARTIC_SMOKE, "experiment": {"n_max": "200"}},
    ),
    "quartic-sampler": Workload(
        "sampler-check",
        {**_QUARTIC, "experiment": {"draws": "5000"}},
        check_quartic_sampler,
        {**_QUARTIC_SMOKE, "experiment": {"draws": "40"}},
    ),
}


def config_text(workload: Workload, smoke: bool) -> str:
    sections = {name: dict(values) for name, values in workload.config.items()}
    sections.setdefault("experiment", {})["kind"] = workload.subcommand
    if smoke:
        for name, values in workload.smoke.items():
            sections.setdefault(name, {}).update(values)
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) + "\n"
        for name, values in sections.items()
    )


# ---------------------------------------------------------------- processes


@dataclass
class Op:
    """One operation: a CLI or tracer process and the checks on its outputs."""

    kind: str
    wall_s: float
    peak_rss_mib: float
    cpu_s: float
    exit_code: int
    checks: list = field(default_factory=list)
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.error) or not all(c.ok for c in self.checks)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], log: Path, timeout_s: float) -> tuple[float, int, object]:
    """Run ``cmd`` to completion; (wall seconds, exit code, its own rusage).

    ``os.wait4`` gives the resource use of this child alone, so peak RSS and
    CPU time are per process.  A child still running after ``timeout_s`` is
    killed and reported with its signal as a negative exit code.
    """
    with open(log, "w") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sink, stderr=sink)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            # a set return code keeps a late timer from signalling a reaped pid
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return wall, proc.returncode, usage


class Runner:
    """Operations of one benchmark run, all under one work directory."""

    def __init__(self, name: str, seed: int, trace: bool, smoke: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = time.perf_counter()
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.ini"
        self.config.write_text(config_text(self.workload, smoke))
        self.ops: list[Op] = []
        self.traces: list[dict] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def setup_s(self) -> float:
        cmd = [sys.executable, "-c", SETUP_CODE, str(self.config)]
        wall, code, _ = spawn(cmd, self.dir / "setup.log", self.remaining())
        if code != 0:
            raise RuntimeError(f"setup exited with {code}, see {self.dir / 'setup.log'}")
        return wall

    def op(self, traced: bool) -> Op:
        index = len(self.ops)
        out = self.dir / f"out{index}"
        cli_args = [self.workload.subcommand, "--config", str(self.config),
                    "--out", str(out), "--seed", str(self.seed)]
        if traced:
            spans = self.dir / f"spans{index}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                   f"{self.name}/{self.seed}/{index}", *cli_args]
        else:
            cmd = [sys.executable, "-m", "hmctransfer.cli", *cli_args]
        wall, code, usage = spawn(cmd, self.dir / f"op{index}.log", self.remaining())
        op = Op(
            kind="traced" if traced else "cli",
            wall_s=wall,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            exit_code=code,
        )
        try:
            op.checks = self.workload.check(out)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        if traced:
            try:
                self.traces.append(_read_json(spans) | {"wall_s": wall})
            except (OSError, ValueError) as exc:
                op.error = op.error or f"trace unreadable: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)
        return op

    def loop(self, seconds: float, traced: bool, min_ops: int, before_op=None):
        """Closed loop: run operations until ``seconds`` have passed and at
        least ``min_ops`` ran, or until the next one could overrun the budget.
        ``before_op``, if given, runs before each operation."""
        begin = time.perf_counter()
        done = 0
        longest = 0.0
        while True:
            if done >= min_ops and time.perf_counter() - begin >= seconds:
                break
            if done and longest > self.remaining():
                break
            if before_op is not None:
                before_op()
            longest = max(longest, self.op(traced).wall_s)
            done += 1


# ---------------------------------------------------------------- metrics


def _under_same_layer(span: dict, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["layer"] == span["layer"]:
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run.

    A layer's ``.s`` is the summed duration of its outermost spans, its
    ``.self_s`` that duration minus the time its direct child spans cover,
    ``.calls`` its span count.  ``trace.unattributed_s`` is the root span's
    self time: CLI time no hooked layer accounts for.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals, selfs, calls = Counter(), Counter(), Counter()
    root_self = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        own = duration - covered[s["id"]]
        calls[s["layer"]] += 1
        selfs[s["layer"]] += own
        if s["parent"] is None:
            root_self += own
        if not _under_same_layer(s, by_id):
            totals[s["layer"]] += duration

    found = {}
    for layer in calls:
        found[f"{layer}.s"] = totals[layer]
        found[f"{layer}.self_s"] = selfs[layer]
        found[f"{layer}.calls"] = calls[layer]
    found.update(trace["counts"])
    found.update(trace["values"])
    found["trace.unattributed_s"] = root_self
    found["trace.missing_hooks"] = len(trace["missing"])
    metrics = {name: found.get(name, 0) for name in PER_LAYER}
    for name, (num, den) in RATES.items():
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0.0
    return metrics


def end_to_end(runner: Runner, setups: list[float]) -> dict:
    cli = [op for op in runner.ops if op.kind == "cli"]
    return {
        "wall_s": statistics.median(op.wall_s for op in cli),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(op.peak_rss_mib for op in cli),
    }


def per_layer(runner: Runner) -> tuple[dict, bool]:
    """Median per-layer metrics over the traced runs, the process metrics of
    the untraced run, and whether the exact counts repeated."""
    if not runner.traces:
        raise RuntimeError(f"no traced run left spans, see the logs in {runner.dir}")
    runs = [layer_metrics(t) for t in runner.traces]
    # exact counts repeat from run to run, so the first run's are reported as is
    exact = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")}
    metrics = {
        name: runs[0][name] if name in exact else statistics.median(r[name] for r in runs)
        for name in PER_LAYER
    }
    base = runner.ops[0]
    metrics["process.cpu_s"] = base.cpu_s
    metrics["process.cpu_per_wall"] = base.cpu_s / base.wall_s
    traced_wall = statistics.median(t["wall_s"] for t in runner.traces)
    metrics["trace.overhead_s"] = traced_wall - base.wall_s
    repeat = all(t["counts"] == runner.traces[0]["counts"] for t in runner.traces)
    return metrics, repeat


# ---------------------------------------------------------------- environment


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threadpoolctl = importlib.util.find_spec("threadpoolctl") is not None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threadpoolctl": threadpoolctl,
        "cli_threads_flag": "caps BLAS threads" if threadpoolctl
        else "no-op: threadpoolctl is absent, BLAS keeps its default threads",
    }


# ---------------------------------------------------------------- main


def run(args) -> dict:
    runner = Runner(args.workload, args.seed, args.trace, args.size == "smoke")
    record = {
        "workload": args.workload,
        "subcommand": runner.workload.subcommand,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "config": runner.config.read_text(),
    }
    if args.trace:
        runner.op(traced=False)
        runner.loop(args.seconds, traced=True, min_ops=2)
        metrics, record["counts_repeat"] = per_layer(runner)
        record["missing_hooks"] = sorted({m for t in runner.traces for m in t["missing"]})
        units = PER_LAYER
    else:
        smoke = args.size == "smoke"
        # set-up is timed before every operation, so that its samples span the
        # run as the operations do: the host's speed drifts over tens of seconds
        setups = []
        runner.loop(args.seconds, traced=False, min_ops=1 if smoke else MIN_OPS,
                    before_op=lambda: setups.append(runner.setup_s()))
        while len(setups) < (1 if smoke else SETUP_REPEATS):
            setups.append(runner.setup_s())
        metrics = end_to_end(runner, setups)
        record["setup_s_samples"] = setups
        units = END_TO_END
    record["ops"] = [asdict(op) | {"failed": op.failed} for op in runner.ops]
    record["wall_s_samples"] = len([op for op in runner.ops if op.kind == "cli"])
    failed = sum(op.failed for op in runner.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    (runner.dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record, runner.dir / "result.json")
    return result


def _describe(check: dict) -> str:
    text = f"{check['name']}={check['value']:.6g}"
    if check["kind"] == "record":
        return text
    return f"{text} ({'<=' if check['kind'] == 'max' else '>='} {check['bound']:g})"


def report(record: dict, path: Path):
    env = record["environment"]
    print(f"workload {record['workload']} ({record['subcommand']}), seed {record['seed']}, "
          f"trace {record['trace']}, {record['wall_s_samples']} untraced CLI runs")
    print(f"environment: nproc {env['nproc']}, {env['blas']} {env['blas_version']} "
          f"with {env['blas_threads']} threads, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"--threads {env['cli_threads_flag']}")
    for i, op in enumerate(record["ops"]):
        status = "FAIL" if op["failed"] else "ok"
        checks = ", ".join(_describe(c) for c in op["checks"])
        print(f"  op {i} {op['kind']}: {status}, exit {op['exit_code']}, "
              f"{op['wall_s']:.3f} s, {op['peak_rss_mib']:.1f} MiB; {checks} {op['error']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny grids and one operation, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "hmctransfer" / "cli.py").is_file():
        print(f"bench: no hmctransfer sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
