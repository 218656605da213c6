"""Traced in-process run of one ``hmctransfer`` CLI call.

Usage::

    PYTHONPATH=src python3 bench/tracer.py SPANS_JSON RUN_ID SUBCOMMAND --config CFG ...

Everything after RUN_ID is passed to ``hmctransfer.cli.main`` unchanged.
Before the call, the public functions of each module are wrapped in the
namespaces that call them (``hmctransfer.operator.flow_batch``,
``hmctransfer.kernel_spectral.tangent_batch``, ``hmctransfer.cli.iterate``
...), so each call records a span; the potentials returned by the CLI's model
factories are wrapped with exact point counters.  Spans and counters stay in
memory and are written to SPANS_JSON when the call ends.  A hooked name that
no longer exists is listed under ``missing`` instead of failing the run.  The
exit code is the CLI's.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (namespace the call is looked up in, attribute, layer it is reported under)
HOOKS = (
    ("hmctransfer.cli", "build_grid", "operator.build_grid"),
    ("hmctransfer.cli", "assemble_transfer", "operator.assemble_transfer"),
    ("hmctransfer.cli", "assemble_adjoint", "operator.assemble_adjoint"),
    ("hmctransfer.cli", "iterate", "operator.iterate"),
    ("hmctransfer.cli", "weighted_symmetry_residual", "operator.weighted_symmetry_residual"),
    ("hmctransfer.cli", "eigen_spectrum", "kernel_spectral.eigen_spectrum"),
    ("hmctransfer.cli", "assemble_kernel", "kernel_spectral.assemble_kernel"),
    ("hmctransfer.cli", "hs_norm", "kernel_spectral.hs_norm"),
    ("hmctransfer.cli", "flow_batch", "dynamics.flow_batch"),
    ("hmctransfer.cli", "tangent_batch", "tangent.tangent_batch"),
    ("hmctransfer.cli", "hmc_chain", "cli.hmc_chain"),
    ("hmctransfer.cli", "write_csv", "cli.io"),
    ("hmctransfer.cli", "write_json", "cli.io"),
    ("hmctransfer.cli", "write_manifest", "cli.io"),
    ("hmctransfer.operator", "flow_batch", "dynamics.flow_batch"),
    ("hmctransfer.operator", "build_momentum_rule", "operator.build_momentum_rule"),
    ("hmctransfer.operator", "TransferMatrix.apply", "operator.TransferMatrix.apply"),
    ("hmctransfer.kernel_spectral", "tangent_batch", "tangent.tangent_batch"),
    ("hmctransfer.kernel_spectral", "weighted_symmetry_residual",
     "operator.weighted_symmetry_residual"),
    ("hmctransfer.kernel_spectral", "matrix_asymmetry", "operator.matrix_asymmetry"),
)

# potential factories the CLI builds its models with; their potentials get point counters
POTENTIAL_FACTORIES = (
    ("hmctransfer.cli", "gaussian_potential"),
    ("hmctransfer.cli", "anharmonic_potential"),
)


def _points(args) -> int:
    """Phase points in a batch argument of shape (..., d)."""
    return int(np.size(args["qs"]) // args["model"].dim)


def _written(args) -> int:
    path = Path(args["path"]) if "path" in args else Path(args["outdir"]) / "manifest.txt"
    return path.stat().st_size


def _probe_transfer(args, result):
    images = result.grid.n * result.meta["momentum_nodes"]
    return (
        {"operator.assemble_transfer.images": images},
        {"operator.assemble_transfer.frac_outside": result.meta["frac_outside"]},
    )


def _probe_spectrum(args, result):
    return {}, {
        "kernel_spectral.eigen_spectrum.n": args["T"].grid.n,
        "kernel_spectral.eigen_spectrum.k": args["k"],
    }


def _probe_iterate(args, result):
    steps = int(result.steps[-1])
    # one dense matvec per step reads the whole matrix once
    return {
        "operator.iterate.steps": steps,
        "operator.iterate.bytes_computed": args["T"].entries.nbytes * steps,
    }, {}


def _probe_chain(args, result):
    return {"cli.hmc_chain.draws": args["draws"]}, {"cli.hmc_chain.acceptance": result[1]}


# layer -> probe(bound arguments, result) -> (counts to add, values to set)
PROBES = {
    "operator.assemble_transfer": _probe_transfer,
    "kernel_spectral.eigen_spectrum": _probe_spectrum,
    "operator.iterate": _probe_iterate,
    "cli.hmc_chain": _probe_chain,
    "dynamics.flow_batch": lambda a, r: ({"dynamics.flow_batch.points": _points(a)}, {}),
    "tangent.tangent_batch": lambda a, r: ({"tangent.tangent_batch.points": _points(a)}, {}),
    "cli.io": lambda a, r: ({"cli.io.bytes": _written(a)}, {}),
}


class Recorder:
    """In-memory spans (name, layer, start, end, parent, run) and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter[str] = Counter()
        self.values: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, layer: str, fn, args=(), kwargs=None, signature=None):
        kwargs = kwargs or {}
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if signature is not None:
            try:
                counts, values = PROBES[layer](signature.bind(*args, **kwargs).arguments, result)
            except (AttributeError, KeyError, TypeError, IndexError, OSError):
                self.note_missing(f"probe:{layer}")
            else:
                for key, n in counts.items():
                    self.counts[key] += n
                self.values.update(values)
        return result

    def wrap(self, name: str, layer: str, fn):
        signature = inspect.signature(fn) if layer in PROBES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, signature)

        return traced

    def count_points(self, key: str, dim: int, fn):
        @functools.wraps(fn)
        def counted(x):
            self.counts[key] += max(1, np.size(x) // dim)
            return fn(x)

        return counted

    def note_missing(self, name: str):
        if name not in self.missing:
            self.missing.append(name)

    def dump(self, path: Path):
        payload = {
            "run": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": self.values,
            "missing": self.missing,
        }
        path.write_text(json.dumps(payload))


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


def install(rec: Recorder):
    """Patch every hook and potential factory; unknown names go to ``missing``."""
    for module_name, attr, layer in HOOKS:
        found = _resolve(module_name, attr)
        if found is None:
            rec.note_missing(f"{module_name}.{attr}")
            continue
        owner, last = found
        setattr(owner, last, rec.wrap(f"{module_name}.{attr}", layer, getattr(owner, last)))

    for module_name, attr in POTENTIAL_FACTORIES:
        found = _resolve(module_name, attr)
        if found is None:
            rec.note_missing(f"{module_name}.{attr}")
            continue
        owner, last = found
        build = getattr(owner, last)

        def counted_build(*args, _build=build, **kwargs):
            pot = _build(*args, **kwargs)
            counted = {
                kind: rec.count_points(f"distributions.{kind}.points", pot.dim, getattr(pot, kind))
                for kind in ("value", "grad", "hess")
            }
            return dataclasses.replace(pot, **counted)

        setattr(owner, last, counted_build)


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    from hmctransfer import cli

    rec = Recorder(run_id)
    install(rec)
    try:
        return rec.call("hmctransfer.cli.main", "cli.main", cli.main, (cli_args,))
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
