"""Experiment driver: config parsing, pipelines, machine-readable outputs.

Subcommands: flow, operator, spectrum, kernel-norm, convergence, sampler-check.
``SETTINGS`` is the one list of the numeric [grid] / [experiment] settings, with
their defaults and bounds.
Each runner writes its CSV and JSON result files and returns its exit code with
its ``result.*`` keys; ``main`` then writes the manifest, which echoes the fully
resolved configuration and those keys.  CSV and the manifest give floats 17
significant digits, JSON Python's shortest round-trip form; both read back
bit-exact, so repeated runs with one config and seed are bit-identical.  Exit
codes: 0 on pass, 2 on certificate failure, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import ModelPair, gaussian_potential, anharmonic_potential, kinetic_energy
from .dynamics import (FlowSpec, check_conjugate_bound, default_flow_spec, determinant_bounds,
                       hmc_chain, tangent_batch)
from .kernel_spectral import certify_rate, eigen_spectrum, hs_norm
from .operator import (
    assemble_transfer,
    build_grid,
    iterate,
    mass,
    probe_densities,
    spline_coefficients,
    spline_pieces,
    weighted_norm,
    weighted_symmetry_residual,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# Every numeric [grid] / [experiment] setting: "section.key": (type, default, least).
# An int may equal its least value; a float must be finite and above it.
SETTINGS = {
    "grid.n_per_axis": (int, 401, 16),
    "grid.momentum_nodes": (int, 257, 4),  # the kernel spline's knots
    "experiment.seed": (int, 0, 0),
    "experiment.samples": (int, 100, 1),
    "experiment.draws": (int, 100000, 0),
    "experiment.bins": (int, 100, 1),
    "experiment.n_max": (int, 400, 0),
    "experiment.tol": (float, 1e-10, 0.0),
    "experiment.top_k": (int, 8, 2),  # the gap uses the second eigenvalue
    # a zero-width or out-of-box initial bump has (almost) no mass on the grid,
    # and the iteration would report convergence at step 0
    "experiment.h0_center": (float, 1.3, -math.inf),  # inside the box, checked with the model
    "experiment.h0_sigma": (float, 0.7, 0.0),
    "experiment.kernel_momentum_nodes": (int, 1025, 4),  # the not-a-knot spline's knots
}


@dataclass
class ExperimentConfig:
    kind: str
    model: ModelPair
    spec: FlowSpec
    output: str | None
    resolved: dict
    n_per_axis: int
    momentum_nodes: int
    seed: int
    samples: int
    draws: int
    bins: int
    n_max: int
    tol: float
    top_k: int
    h0_center: float
    h0_sigma: float
    kernel_momentum_nodes: int


def _number(sec, name: str, kind, default):
    """Value of ``name`` = section.key parsed as ``kind`` (int or float), or ``default``."""
    key = name.split(".")[1]
    if key not in sec:
        return default
    try:
        return kind(sec[key])
    except ValueError as exc:
        raise ConfigError(f"{name}: expected {'an integer' if kind is int else 'a number'}, "
                          f"got {sec[key]!r}") from exc


def _potential(fields: dict, make, *args):
    """``make(*args)``, its ``ValueError`` turned into a ``ConfigError`` naming the config
    field that ``fields`` maps the faulty argument to (the message's first word)."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{fields.get(str(exc).split()[0], 'model')}: {exc}") from exc


def _build_model(cfg: configparser.ConfigParser) -> ModelPair:
    sec = cfg["model"]
    family = sec.get("family", "gaussian").strip()
    halfwidth = _number(sec, "model.halfwidth", float, 8.0)
    if not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ConfigError(f"model.halfwidth: must be finite and positive, got {halfwidth}")
    if family == "gaussian":
        target = _potential({"mean": "model.mean", "precision": "model.precision"},
                            gaussian_potential, _number(sec, "model.mean", float, 0.0),
                            _number(sec, "model.precision", float, 1.0))
    elif family == "anharmonic":
        target = _potential({"a": "model.a", "b": "model.b", "halfwidth": "model.halfwidth"},
                            anharmonic_potential, _number(sec, "model.a", float, 1.0),
                            _number(sec, "model.b", float, 0.0), halfwidth)
    else:
        raise ConfigError(f"model.family: unknown family {family!r}")
    try:
        return ModelPair(target=target, domain_halfwidth=halfwidth)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def load_config(path: str, command: str | None = None) -> ExperimentConfig:
    """The experiment of the INI file at ``path``.  ``command``, the subcommand run,
    overrides the file's ``experiment.kind``, the checks included."""
    # no header names section "": [DEFAULT]'s keys are refused, not copied into every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "experiment" not in parser or "kind" not in parser["experiment"]:
        raise ConfigError("experiment.kind: missing")
    kind = parser["experiment"]["kind"].strip()
    if kind not in ALL_KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}, expected one of {ALL_KINDS}")
    kind = command or kind
    if "model" not in parser:
        raise ConfigError("model: section missing")
    model = _build_model(parser)

    fsec = parser["flow"] if "flow" in parser else {}
    time = _number(fsec, "flow.time", float, 0.7)
    if not (math.isfinite(time) and time > 0):
        raise ConfigError(f"flow.time: must be finite and positive, got {time}")
    method = str(fsec.get("method", "auto")).strip()
    if method not in ("auto", "exact_gaussian", "leapfrog"):
        raise ConfigError(f"flow.method: unknown method {method!r}")
    spec = default_flow_spec(model, time, method=None if method == "auto" else method)
    if str(fsec.get("steps", "auto")).strip() != "auto":
        try:
            spec = replace(spec, steps=_number(fsec, "flow.steps", int, None))
        except ValueError as exc:
            raise ConfigError(f"flow: {exc}") from exc
    if spec.method == "exact_gaussian" and not model.is_gaussian:
        raise ConfigError("flow.method: exact_gaussian requires a Gaussian model pair")

    # every experiment but flow builds an operator, which must stay below the
    # conjugate-point bound
    if kind != "flow":
        try:
            check_conjugate_bound(model, spec)
        except ValueError as exc:
            raise ConfigError(f"flow.time: {exc} for {kind} experiments") from exc

    # a key the run does not read is refused; the target's params are its family's keys
    known = {*SETTINGS, "experiment.kind", "experiment.output", "flow.time", "flow.method",
             "flow.steps", "model.family", "model.halfwidth",
             *(f"model.{key}" for key in model.target.params)}
    for name in (f"{sec}.{key}" for sec in parser.sections() for key in parser[sec]):
        if name not in known:
            raise ConfigError(f"{name}: unknown key")
    settings = {}
    for name, (type_, default, least) in SETTINGS.items():
        section = name.split(".")[0]
        value = _number(parser[section] if section in parser else {}, name, type_, default)
        if not (value >= least if type_ is int else math.isfinite(value) and value > least):
            bound = f"at least {least}" if type_ is int else f"a finite number above {least:g}"
            raise ConfigError(f"{name}: need {bound}, got {value}")
        settings[name] = value
    # the bound that depends on the model
    L = model.domain_halfwidth
    if not -L <= settings["experiment.h0_center"] <= L:
        raise ConfigError(f"experiment.h0_center: need a value in [-{L}, {L}], "
                          f"got {settings['experiment.h0_center']}")

    return ExperimentConfig(
        kind=kind, model=model, spec=spec, output=parser["experiment"].get("output", None),
        resolved={
            **settings,
            "experiment.kind": kind,
            "model.family": model.target.kind,
            "model.dim": model.dim,
            "model.halfwidth": model.domain_halfwidth,
            "model.lambda_min": model.lambda_min,
            "model.lambda_max": model.lambda_max,
            "model.params": model.target.params,
            "flow.time": spec.time,
            "flow.method": spec.method,
            "flow.steps": spec.steps,
            "version": __version__,
        },
        **{name.split(".")[1]: value for name, value in settings.items()},
    )


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_manifest(outdir: Path, config: ExperimentConfig, extra: dict | None = None):
    lines = []
    items = dict(config.resolved)
    if extra:
        items.update(extra)
    for key in sorted(items):
        lines.append(f"{key} = {_fmt(items[key])}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


def write_csv(path: Path, header: list, columns: list):
    """Write numeric columns: an integer column as %d, any other as %.17g."""
    columns = [np.asarray(col) for col in columns]
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns) + "\n"
    # rows go out in joined blocks, one write per block, and only a block's
    # scalars and text are held at a time; Python scalars format faster than
    # numpy ones, to the same text
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for lo in range(0, min(map(len, columns), default=0), 1024):
            block = [col[lo:lo + 1024].tolist() for col in columns]
            out.write("".join(line % row for row in zip(*block)))


def write_json(path: Path, payload: dict) -> dict:
    """Write ``payload``, of Python scalars, to ``path``; return it as ``result.*`` keys."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {f"result.{k}": v for k, v in payload.items()}


def _h0(config: ExperimentConfig, grid):
    """Shifted Gaussian bump used as the iteration's initial density."""
    return np.exp(-0.5 * (grid.x - config.h0_center) ** 2 / config.h0_sigma**2)


def run_flow(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    model, spec = config.model, config.spec
    q, p = random.Random(config.seed).uniform(-0.5, 0.5) + 1.0, 0.0

    def energy(q, p):
        return model.target.value(q) + kinetic_energy(p)

    times, qs, ps, energies, dets = [0.0], [q], [p], [energy(q, p)], [1.0]
    # leapfrog runs in pieces of whole steps, the exact map in `samples` equal
    # pieces; the Jacobian so far is the product of the pieces' Jacobians
    total = spec.steps if spec.method == "leapfrog" else config.samples
    per = max(1, total // config.samples)
    jac = np.eye(2)
    done = 0
    while done < total:
        take = min(per, total - done)
        seg = FlowSpec(time=take * spec.time / total, steps=take, method=spec.method)
        Q, P, J = tangent_batch([q], [p], model, seg)
        q, p, jac = float(Q[0]), float(P[0]), J[0] @ jac
        done += take
        times.append(done * spec.time / total)
        qs.append(q)
        ps.append(p)
        energies.append(energy(q, p))
        dets.append(float(np.linalg.det(jac)))

    write_csv(outdir / "flow.csv", ["s", "q0", "p0", "energy", "det_jacobian"],
              [times, qs, ps, energies, dets])

    # np.max, unlike Python's max, keeps a NaN of a diverged flow
    drift = float(np.max(energies) - np.min(energies))
    det_dev = float(np.max(np.abs(np.subtract(dets, 1.0))))
    write_json(outdir / "conservation.json", {
        "energy_drift": drift,
        "det_jacobian_max_deviation": det_dev,
        "closure_distance": max(abs(qs[-1] - qs[0]), abs(ps[-1] - ps[0])),
    })
    results = {"result.energy_drift": drift, "result.det_dev": det_dev}
    # the files are written first, so a diverged run stays diagnosable
    finite = np.isfinite(energies) & np.isfinite(dets)
    if not finite.all():
        print(f"error: flow diverged: energy or Jacobian determinant not finite at "
              f"s = {_fmt(times[np.argmin(finite)])}", file=sys.stderr)
        return 1, results
    return 0, results


def _operator_stack(config: ExperimentConfig, momentum_nodes: int):
    grid = build_grid(config.model, config.n_per_axis)
    T = assemble_transfer(grid, config.model, config.spec, momentum_nodes)
    return grid, T


def run_operator(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    grid, T = _operator_stack(config, config.momentum_nodes)
    f = grid.target_values

    fp = weighted_norm(T.apply(f) - f, grid) / weighted_norm(f, grid)
    # mass and contraction on the images of the probe family, one product for all;
    # np.max, unlike Python's max, keeps a NaN among the values
    probes = probe_densities(grid)
    pairs = list(zip(probes, probes @ T.entries.T))
    mass_errors = [abs(mass(Th, grid) - mass(h, grid)) / mass(h, grid) for h, Th in pairs]
    contractions = [weighted_norm(Th, grid) / weighted_norm(h, grid) for h, Th in pairs]
    # T* = T for the even momentum law, so the duality <T h, k> = <h, T k> on the
    # same family is the self-adjointness residual; both keys report it
    residual = weighted_symmetry_residual(T)

    trace = iterate(T, _h0(config, grid), config.n_max, config.tol)
    write_csv(outdir / "trace.csv", ["n", "norm", "error"], [trace.steps, trace.norms, trace.errors])
    # the floor is the least error; its step the first within 1% of it, so
    # rounding between near-equal errors at the floor does not move it
    floor = float(np.min(trace.errors))
    floor_at = int(np.argmax(trace.errors <= 1.01 * floor))
    report = {
        "fixed_point_residual": fp,
        "mass_error_max": float(np.max(mass_errors)),
        "contraction_factor_max": float(np.max(contractions)),
        "self_adjointness_residual": residual,
        "duality_residual_max": residual,
        "leaked_mass": T.meta["leaked_mass"],
        "iteration_converged": trace.converged,
        "iteration_anomaly": trace.anomaly,
        "limit_mass_ratio": trace.alpha,
        # the smallest error reached, which the stop rule does not act on
        "iteration_error_floor": floor,
        "iteration_floor_step": int(trace.steps[floor_at]),
        "kernel_width_cells": T.meta["kernel_width_cells"],
    }
    results = write_json(outdir / "operator_report.json", report)
    # the report is written first, so a failed run stays diagnosable
    bad = np.count_nonzero(~np.isfinite(T.entries))
    if bad:
        print(f"error: operator not finite: {bad} of {T.entries.size} entries of T are NaN "
              f"or infinite", file=sys.stderr)
        return 1, results
    return 0, results


def run_spectrum(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    _, T = _operator_stack(config, config.momentum_nodes)
    report = eigen_spectrum(T, config.top_k)
    ks = np.arange(len(report.eigenvalues))
    write_csv(outdir / "spectrum.csv", ["k", "mu"], [ks, report.eigenvalues])
    payload = {f.name: getattr(report, f.name) for f in fields(report)
               if f.name not in ("eigenvalues", "leading_vector")}
    return 0, write_json(outdir / "spectral_report.json", payload)


def run_kernel_norm(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    grid, T = _operator_stack(config, config.kernel_momentum_nodes)
    value = hs_norm(T)
    report = eigen_spectrum(T, min(grid.n - 1, 64))
    payload = {
        "hs_norm_sq": value,
        "hs_norm_sq_momentum": T.meta["hs_norm_sq_momentum"],
        "sum_mu_sq": report.sum_squares,
    }
    try:
        payload["hs_bound_from_determinants"] = determinant_bounds(config.model, config.spec.time)[1]
    except ValueError:  # t * lambda_max outside the bounds' regime
        pass
    return 0, write_json(outdir / "kernel_report.json", payload)


def run_convergence(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    grid, T = _operator_stack(config, config.momentum_nodes)
    report = eigen_spectrum(T, config.top_k)
    trace = iterate(T, _h0(config, grid), config.n_max, config.tol)
    cert = certify_rate(report, trace)
    write_csv(outdir / "trace.csv", ["n", "norm", "error"], [trace.steps, trace.norms, trace.errors])
    ks = np.arange(len(report.eigenvalues))
    write_csv(outdir / "spectrum.csv", ["k", "mu"], [ks, report.eigenvalues])
    write_json(outdir / "certificate.json", asdict(cert))
    return 0 if cert.passed else 2, {
        "result.rho_emp": cert.rho_emp,
        "result.rho_spec": cert.rho_spec,
        "result.passed": cert.passed,
    }


def run_sampler_check(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    model = config.model
    # the reference operator is built and checked before the chain runs, so a
    # config its gates refuse draws nothing, with draws = 0 too
    grid, T = _operator_stack(config, config.momentum_nodes)
    report = eigen_spectrum(T, 2)
    if config.draws == 0:
        write_json(outdir / "sampler_report.json",
                   {"draws": 0, "draws_outside_box": 0, "sup_distance": float("nan")})
        return 0, {"result.draws": 0}
    samples, acceptance = hmc_chain(model, config.spec, config.draws, random.Random(config.seed))
    fixed = report.leading_vector / mass(report.leading_vector, grid)

    L = model.domain_halfwidth
    edges = np.linspace(-L, L, config.bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    # the histogram drops draws outside [-L, L], and the reference is normalised
    # to the box's mass, so the empirical density is normalised over the draws inside
    inside = int(counts.sum())
    if inside == 0:
        raise ValueError(f"draws_outside_box = {config.draws}: no draw landed in "
                         f"[-{L}, {L}], so the histogram cannot be normalised over the box")
    width = edges[1] - edges[0]
    empirical = counts / (inside * width)
    # antiderivative of the interpolated fixed point at the bin edges
    x = grid.x
    slopes = spline_coefficients(x[None], [fixed[None]])[0, :, 0]
    h = np.diff(x)
    # power-form coefficients of each piece, c[r] multiplying s^(3 - r)
    c = np.stack(spline_pieces(fixed, slopes, slice(None, -1), slice(1, None), h))

    def partial(piece, s):
        return s * (c[3, piece] + s * (c[2, piece] / 2 + s * (c[1, piece] / 3 + s * c[0, piece] / 4)))

    whole = np.concatenate([[0.0], np.cumsum(partial(slice(None), h))])
    piece = np.clip(np.searchsorted(x, edges, "right") - 1, 0, grid.n - 2)
    reference = np.diff(whole[piece] + partial(piece, edges - x[piece])) / width
    sup = float(np.max(np.abs(empirical - reference)))
    centers = 0.5 * (edges[:-1] + edges[1:])
    write_csv(outdir / "histogram.csv", ["center", "empirical", "reference"],
              [centers, empirical, reference])
    payload = {"draws": config.draws, "draws_outside_box": config.draws - inside,
               "acceptance_rate": acceptance, "sup_distance": sup}
    if acceptance < 0.5:
        payload["warning"] = "acceptance below 0.5, reduce the leapfrog substep"
    return 0, write_json(outdir / "sampler_report.json", payload)


RUNNERS = {
    "flow": run_flow,
    "operator": run_operator,
    "spectrum": run_spectrum,
    "kernel-norm": run_kernel_norm,
    "convergence": run_convergence,
    "sampler-check": run_sampler_check,
}
ALL_KINDS = tuple(RUNNERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hmctransfer",
        description="Transfer-operator experiments for Hamiltonian Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="INI experiment configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        # the override is checked as the config value it replaces
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        config = load_config(args.config, args.command)
        if args.seed is not None:
            config.seed = args.seed
            config.resolved["experiment.seed"] = args.seed
        outdir = Path(args.out or config.output or f"out-{config.kind}")
        outdir.mkdir(parents=True, exist_ok=True)
        code, results = RUNNERS[config.kind](config, outdir)
        write_manifest(outdir, config, results)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures also map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
