"""Experiment driver: config parsing, pipelines, machine-readable outputs.

Subcommands: flow, operator, spectrum, kernel-norm, convergence, sampler-check.
Each run writes a manifest echoing the fully resolved configuration plus CSV
and JSON-style result files with 17-significant-digit formatting, so repeated
runs with the same config and seed are bit-identical.  Exit codes: 0 on pass,
2 on certificate failure, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import ModelPair, gaussian_potential, anharmonic_potential
from .dynamics import (FlowSpec, PhaseState, _leapfrog, default_flow_spec, exact_gaussian_matrix,
                       total_energy)
from .kernel_spectral import certify_rate, eigen_spectrum, hs_norm
from .operator import (
    assemble_adjoint,
    assemble_transfer,
    build_grid,
    iterate,
    mass,
    random_density,
    spline_coefficients,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)
from .tangent import TangentBlocks, determinant_bounds, tangent_batch

OPERATOR_KINDS = ("operator", "spectrum", "kernel-norm", "convergence")
ALL_KINDS = ("flow",) + OPERATOR_KINDS + ("sampler-check",)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    kind: str
    model: ModelPair
    spec: FlowSpec
    n_per_axis: int
    momentum_nodes: int
    seed: int
    output: str | None
    samples: int
    draws: int
    bins: int
    n_max: int
    tol: float
    top_k: int
    h0_center: float
    h0_sigma: float
    kernel_momentum_nodes: int
    resolved: dict


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


def _parse_matrix(text: str, name: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse matrix {text!r}") from exc
    if len(rows) == 1 and len(rows[0]) == 1:
        return np.array([[rows[0][0]]])
    if len(rows) == 1:
        return np.diag(rows[0])
    return np.array(rows)


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
        try:
            mean = np.array([float(v) for v in sec.get("mean", "0.0").split(",")])
        except ValueError as exc:
            raise ConfigError(f"model.mean: cannot parse vector {sec['mean']!r}") from exc
        precision = _parse_matrix(sec.get("precision", "1.0"), "model.precision")
        if precision.shape[0] != mean.shape[0]:
            raise ConfigError("model.precision: shape incompatible with model.mean")
        target = _potential({"mean": "model.mean", "precision": "model.precision"},
                            gaussian_potential, mean, precision)
    elif family == "anharmonic":
        target = _potential({"a": "model.a", "b": "model.b", "halfwidth": "model.halfwidth"},
                            anharmonic_potential, _number(sec, "model.a", float, 1.0),
                            _number(sec, "model.b", float, 0.0), halfwidth)
    else:
        raise ConfigError(f"model.family: unknown family {family!r}")
    aux_prec = _parse_matrix(sec.get("auxiliary_precision", "1.0"), "model.auxiliary_precision")
    if aux_prec.shape == (1, 1) and target.dim > 1:
        aux_prec = aux_prec[0, 0] * np.eye(target.dim)
    auxiliary = _potential({"precision": "model.auxiliary_precision"},
                           gaussian_potential, np.zeros(target.dim), aux_prec)
    try:
        return ModelPair(
            target=target,
            auxiliary=auxiliary,
            domain_halfwidth=halfwidth,
            auxiliary_even=True,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "experiment" not in parser or "kind" not in parser["experiment"]:
        raise ConfigError("experiment.kind: missing")
    kind = parser["experiment"]["kind"].strip()
    if kind not in ALL_KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}, expected one of {ALL_KINDS}")
    if "model" not in parser:
        raise ConfigError("model: section missing")
    model = _build_model(parser)

    fsec = parser["flow"] if "flow" in parser else {}
    time = _number(fsec, "flow.time", float, 0.7)
    if not (math.isfinite(time) and time > 0):
        raise ConfigError(f"flow.time: must be finite and positive, got {time}")
    method = str(fsec.get("method", "auto")).strip()
    if method == "auto":
        method = "exact_gaussian" if model.is_gaussian else "leapfrog"
    if method not in ("exact_gaussian", "leapfrog"):
        raise ConfigError(f"flow.method: unknown method {method!r}")
    if str(fsec.get("steps", "auto")).strip() == "auto":
        spec = default_flow_spec(model, time, method=method)
    else:
        steps = _number(fsec, "flow.steps", int, None)
        try:
            spec = FlowSpec(time=time, steps=steps, method=method)
        except ValueError as exc:
            raise ConfigError(f"flow: {exc}") from exc
    if spec.method == "exact_gaussian" and not model.is_gaussian:
        raise ConfigError("flow.method: exact_gaussian requires a Gaussian model pair")

    # operator-building experiments must stay below the conjugate-point bound
    if kind in OPERATOR_KINDS and time * model.lambda_max >= math.pi:
        raise ConfigError(
            f"flow.time: t * lambda_max = {time * model.lambda_max:.4f} "
            f"must be < pi for {kind} experiments"
        )

    gsec = parser["grid"] if "grid" in parser else {}
    if "momentum_rule" in gsec:
        raise ConfigError("grid.momentum_rule: option removed; the rule follows from the "
                          "dimension (trapezoid in 1-d, Gauss-Hermite in d >= 2)")
    esec = parser["experiment"]
    config = ExperimentConfig(
        kind=kind,
        model=model,
        spec=spec,
        n_per_axis=_number(gsec, "grid.n_per_axis", int, 401),
        momentum_nodes=_number(gsec, "grid.momentum_nodes", int, 257),
        seed=_number(esec, "experiment.seed", int, 0),
        output=esec.get("output", None),
        samples=_number(esec, "experiment.samples", int, 100),
        draws=_number(esec, "experiment.draws", int, 100000),
        bins=_number(esec, "experiment.bins", int, 100),
        n_max=_number(esec, "experiment.n_max", int, 400),
        tol=_number(esec, "experiment.tol", float, 1e-10),
        top_k=_number(esec, "experiment.top_k", int, 8),
        h0_center=_number(esec, "experiment.h0_center", float, 1.3),
        h0_sigma=_number(esec, "experiment.h0_sigma", float, 0.7),
        kernel_momentum_nodes=_number(esec, "experiment.kernel_momentum_nodes", int, 1025),
        resolved={},
    )
    if config.seed < 0:
        raise ConfigError("experiment.seed: must be non-negative")
    if config.n_per_axis < 16:
        raise ConfigError("grid.n_per_axis: need at least 16")
    least = 4 if model.dim == 1 else 2  # in 1-d the probes are the kernel spline's knots
    if config.momentum_nodes < least:
        raise ConfigError(f"grid.momentum_nodes: need at least {least} in {model.dim}-d, "
                          f"got {config.momentum_nodes}")
    if config.top_k < 2:
        raise ConfigError("experiment.top_k: need at least 2, the gap uses the second eigenvalue")
    if config.kernel_momentum_nodes < 4:
        raise ConfigError("experiment.kernel_momentum_nodes: need at least 4 for the not-a-knot spline")
    if config.n_max < 0:
        raise ConfigError("experiment.n_max: must be non-negative")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise ConfigError(f"experiment.tol: must be finite and positive, got {config.tol}")
    if config.draws < 0:
        raise ConfigError("experiment.draws: must be non-negative")
    if config.bins < 1:
        raise ConfigError("experiment.bins: need at least 1")
    if config.samples < 1:
        raise ConfigError("experiment.samples: need at least 1")
    # a zero-width or out-of-box initial bump has (almost) no mass on the grid,
    # and the iteration would report convergence at step 0
    if not (math.isfinite(config.h0_sigma) and config.h0_sigma > 0):
        raise ConfigError(f"experiment.h0_sigma: must be finite and positive, got {config.h0_sigma}")
    L = model.domain_halfwidth
    if not -L <= config.h0_center <= L:
        raise ConfigError(f"experiment.h0_center: must be finite and lie in [-{L}, {L}], "
                          f"got {config.h0_center}")

    target = model.target
    config.resolved = {
        "experiment.kind": kind,
        "experiment.seed": config.seed,
        "model.family": target.kind,
        "model.dim": model.dim,
        "model.halfwidth": model.domain_halfwidth,
        "model.lambda_min": model.lambda_min,
        "model.lambda_max": model.lambda_max,
        "model.params": {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in target.params.items()
        },
        "flow.time": spec.time,
        "flow.method": spec.method,
        "flow.steps": spec.steps,
        "grid.n_per_axis": config.n_per_axis,
        "grid.momentum_nodes": config.momentum_nodes,
        "experiment.samples": config.samples,
        "experiment.draws": config.draws,
        "experiment.bins": config.bins,
        "experiment.n_max": config.n_max,
        "experiment.tol": config.tol,
        "experiment.top_k": config.top_k,
        "experiment.h0_center": config.h0_center,
        "experiment.h0_sigma": config.h0_sigma,
        "experiment.kernel_momentum_nodes": config.kernel_momentum_nodes,
        "version": __version__,
    }
    return config


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
    # Python scalars format faster than numpy ones, to the same text
    columns = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    # a column of Python floats skips _fmt's type dispatch; every column is a
    # lazy map, so rows are formatted as they are streamed out and the whole
    # text is never held in memory
    cells = [map("{:.17g}".format if all(type(v) is float for v in col) else _fmt, col)
             for col in columns]
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        out.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n")


def _h0(config: ExperimentConfig, grid):
    """Shifted Gaussian bump used as the iteration's initial density."""
    sq = np.sum((grid.nodes - config.h0_center) ** 2, axis=-1)
    return np.exp(-0.5 * sq / config.h0_sigma**2)


def run_flow(config: ExperimentConfig, outdir: Path) -> int:
    model, spec = config.model, config.spec
    rng = np.random.default_rng(config.seed)
    q0 = rng.uniform(-0.5, 0.5, size=model.dim) + 1.0 if model.dim == 1 else rng.normal(size=model.dim)
    state = PhaseState(q=q0, p=np.zeros(model.dim))

    d = model.dim
    times, qs, ps, energies, dets = [0.0], [state.q], [state.p], [total_energy(state, model)], [1.0]
    n_check = config.samples
    if spec.method == "exact_gaussian":
        for s in np.linspace(spec.time / n_check, spec.time, n_check):
            seg = FlowSpec(time=s, steps=1, method="exact_gaussian")
            Q, P, blocks, _, _ = tangent_batch(state.q[None], state.p[None], model, seg)
            times.append(s)
            qs.append(Q[0])
            ps.append(P[0])
            energies.append(float(model.target.value(Q[0]) + model.auxiliary.value(P[0])))
            dets.append(float(np.linalg.det(TangentBlocks(*(b[0] for b in blocks)).matrix())))
    else:
        per = max(1, spec.steps // n_check)
        jac = np.eye(2 * d)
        q, p = state.q.copy(), state.p.copy()
        done = 0
        while done < spec.steps:
            take = min(per, spec.steps - done)
            seg = FlowSpec(time=take * spec.time / spec.steps, steps=take, method="leapfrog")
            Q, P, blocks, _, _ = tangent_batch(q[None], p[None], model, seg)
            q, p = Q[0], P[0]
            jac = TangentBlocks(*(b[0] for b in blocks)).matrix() @ jac
            done += take
            times.append(done * spec.time / spec.steps)
            qs.append(q)
            ps.append(p)
            energies.append(float(model.target.value(q) + model.auxiliary.value(p)))
            dets.append(float(np.linalg.det(jac)))

    cols = [times]
    header = ["s"]
    for axis in range(d):
        header.append(f"q{axis}")
        cols.append([v[axis] for v in qs])
    for axis in range(d):
        header.append(f"p{axis}")
        cols.append([v[axis] for v in ps])
    header += ["energy", "det_jacobian"]
    cols += [energies, dets]
    write_csv(outdir / "flow.csv", header, cols)

    drift = max(energies) - min(energies)
    det_dev = max(abs(v - 1.0) for v in dets)
    write_json(outdir / "conservation.json", {
        "energy_drift": drift,
        "det_jacobian_max_deviation": det_dev,
        "closure_distance": float(
            max(np.max(np.abs(qs[-1] - qs[0])), np.max(np.abs(ps[-1] - ps[0])))
        ),
    })
    write_manifest(outdir, config, {"result.energy_drift": drift, "result.det_dev": det_dev})
    return 0


def _operator_stack(config: ExperimentConfig):
    grid = build_grid(config.model, config.n_per_axis)
    T = assemble_transfer(grid, config.model, config.spec, config.momentum_nodes)
    return grid, T


def run_operator(config: ExperimentConfig, outdir: Path) -> int:
    grid, T = _operator_stack(config)
    model = config.model
    f = grid.target_values
    rng = np.random.default_rng(config.seed)

    fp = weighted_norm(T.apply(f) - f, grid) / weighted_norm(f, grid)
    worst_mass = 0.0
    worst_contr = 0.0
    for _ in range(100):
        h = random_density(grid, rng)
        Th = T.apply(h)
        m0 = mass(h, grid)
        worst_mass = max(worst_mass, abs(mass(Th, grid) - m0) / m0)
        worst_contr = max(worst_contr, weighted_norm(Th, grid) / weighted_norm(h, grid))
    T_adj = assemble_adjoint(grid, model, config.spec, config.momentum_nodes)
    worst_dual = 0.0
    for _ in range(20):
        h = random_density(grid, rng)
        k = random_density(grid, rng)
        lhs = weighted_inner(T.apply(h), k, grid)
        rhs = weighted_inner(h, T_adj.apply(k), grid)
        worst_dual = max(worst_dual, abs(lhs - rhs) / (weighted_norm(h, grid) * weighted_norm(k, grid)))

    trace = iterate(T, _h0(config, grid), config.n_max, config.tol)
    write_csv(outdir / "trace.csv", ["n", "norm", "error"], [trace.steps, trace.norms, trace.errors])
    floor_at = int(np.argmin(trace.errors))
    report = {
        "fixed_point_residual": fp,
        "mass_error_max": worst_mass,
        "contraction_factor_max": worst_contr,
        "self_adjointness_residual": weighted_symmetry_residual(T),
        "duality_residual_max": worst_dual,
        "leaked_mass": T.meta["leaked_mass"],
        "iteration_converged": trace.converged,
        "iteration_anomaly": trace.anomaly,
        "limit_mass_ratio": trace.alpha,
        # the smallest error reached, which the stop rule does not act on
        "iteration_error_floor": float(trace.errors[floor_at]),
        "iteration_floor_step": int(trace.steps[floor_at]),
    }
    if "kernel_width_cells" in T.meta:  # the 1-d Nystrom matrix's resolution
        report["kernel_width_cells"] = T.meta["kernel_width_cells"]
    write_json(outdir / "operator_report.json", report)
    write_manifest(outdir, config, {f"result.{k}": v for k, v in report.items()})
    return 0


def run_spectrum(config: ExperimentConfig, outdir: Path) -> int:
    grid, T = _operator_stack(config)
    report = eigen_spectrum(T, grid, config.top_k)
    ks = np.arange(len(report.eigenvalues))
    write_csv(outdir / "spectrum.csv", ["k", "mu"], [ks, report.eigenvalues])
    payload = {
        "gap": report.gap,
        "rate_bound": report.rate_bound,
        "multiplicity_check": report.multiplicity_check,
        "second_mass": report.second_mass,
        "symmetry_residual": report.symmetry_residual,
        "gap_caveat": report.gap_caveat,
    }
    write_json(outdir / "spectral_report.json", payload)
    write_manifest(outdir, config, {f"result.{k}": v for k, v in payload.items()})
    return 0


def run_kernel_norm(config: ExperimentConfig, outdir: Path) -> int:
    # the momentum-space HS estimate needs the 1-d kernel; in d >= 2 the deposit would
    # also flow kernel_momentum_nodes^d probes from every node before hs_norm refused
    if config.model.dim != 1:
        raise ConfigError("kernel-norm: only 1-d models are supported")
    grid = build_grid(config.model, config.n_per_axis)
    T = assemble_transfer(grid, config.model, config.spec, config.kernel_momentum_nodes)
    value = hs_norm(T)
    report = eigen_spectrum(T, grid, min(grid.n - 1, 64))
    payload = {
        "hs_norm_sq": value,
        "hs_norm_sq_momentum": T.meta["hs_norm_sq_momentum"],
        "sum_mu_sq": report.sum_squares,
    }
    if config.spec.time * config.model.lambda_max < math.pi / 2:
        lo, hi = determinant_bounds(config.model, config.spec.time)
        payload["hs_bound_from_determinants"] = hi
    write_json(outdir / "kernel_report.json", payload)
    write_manifest(outdir, config, {f"result.{k}": v for k, v in payload.items()})
    return 0


def run_convergence(config: ExperimentConfig, outdir: Path) -> int:
    grid, T = _operator_stack(config)
    report = eigen_spectrum(T, grid, config.top_k)
    trace = iterate(T, _h0(config, grid), config.n_max, config.tol)
    cert = certify_rate(report, trace)
    write_csv(outdir / "trace.csv", ["n", "norm", "error"], [trace.steps, trace.norms, trace.errors])
    ks = np.arange(len(report.eigenvalues))
    write_csv(outdir / "spectrum.csv", ["k", "mu"], [ks, report.eigenvalues])
    write_json(outdir / "certificate.json", cert.to_dict())
    write_manifest(outdir, config, {
        "result.rho_emp": cert.rho_emp,
        "result.rho_spec": cert.rho_spec,
        "result.passed": cert.passed,
    })
    return 0 if cert.passed else 2


def hmc_chain(model: ModelPair, spec: FlowSpec, draws: int, rng: np.random.Generator):
    """Plain 1-d HMC chain: momentum refresh, flow, Metropolis correction.

    Returns (positions of shape (draws, 1), acceptance_rate).  The exact
    Gaussian flow conserves energy exactly, so every proposal is accepted and
    the chain reduces to the linear recursion q <- a q + b p on Python floats.
    Leapfrog draws run on Python floats through the potentials' scalar
    evaluators and ``dynamics._leapfrog``, the integrator ``flow_batch`` uses,
    so each draw is bit-identical to one ``flow_batch`` call on a (1,) array.
    Raises ``ValueError`` for a model whose potentials have no scalar form
    (d >= 2).
    """
    if model.target.scalar is None or model.auxiliary.scalar is None:
        raise ValueError(f"hmc_chain: only 1-d models are supported, got dim {model.dim}")
    if draws == 0:
        return np.zeros((0, 1)), float("nan")
    scale = float(np.linalg.cholesky(np.linalg.inv(model.auxiliary.params["precision"]))[0, 0])
    if spec.method == "exact_gaussian":
        a, b = exact_gaussian_matrix(model, spec.time)[0, :2].tolist()
        mu = float(model.target.params["mean"][0])
        q, centered = 0.0, np.empty(draws)
        for i, p in enumerate((rng.standard_normal(draws) * scale).tolist()):
            centered[i] = q = a * q + b * p
        return (centered + mu)[:, None], 1.0
    value_u, grad_u = model.target.scalar
    value_v, grad_v = model.auxiliary.scalar
    tau = spec.time / spec.steps
    q = float(model.target.params["mean"][0]) if model.target.is_gaussian else 0.0
    out = np.empty((draws, 1))
    accepted = 0
    for i in range(draws):
        p = scale * rng.standard_normal()
        e0 = value_u(q) + value_v(p)
        Q, P = _leapfrog(q, p, grad_u, grad_v, tau, spec.steps)
        e1 = value_u(Q) + value_v(P)
        if math.log(rng.uniform()) < e0 - e1:
            q = Q
            accepted += 1
        out[i] = q
    return out, accepted / draws


def run_sampler_check(config: ExperimentConfig, outdir: Path) -> int:
    model = config.model
    if model.dim != 1:
        raise ConfigError("sampler-check: only 1-d models are supported")
    rng = np.random.default_rng(config.seed)
    samples, acceptance = hmc_chain(model, config.spec, config.draws, rng)
    if config.draws == 0:
        write_json(outdir / "sampler_report.json", {"draws": 0, "sup_distance": float("nan")})
        write_manifest(outdir, config, {"result.draws": 0})
        return 0

    grid, T = _operator_stack(config)
    report = eigen_spectrum(T, grid, 2)
    fixed = report.leading_vector / mass(report.leading_vector, grid)

    L = model.domain_halfwidth
    edges = np.linspace(-L, L, config.bins + 1)
    counts, _ = np.histogram(samples[:, 0], bins=edges)
    width = edges[1] - edges[0]
    empirical = counts / (config.draws * width)
    # antiderivative of the interpolated fixed point at the bin edges
    x = grid.axes[0]
    slopes = spline_coefficients(x[None], fixed[None, :, None])[0, :, 0]
    h = np.diff(x)
    rise = np.diff(fixed) / h
    t = (slopes[:-1] + slopes[1:] - 2 * rise) / h
    # power-form coefficients of each piece, c[r] multiplying s^(3 - r)
    c = np.stack((t / h, (rise - slopes[:-1]) / h - t, slopes[:-1], fixed[:-1]))

    def partial(piece, s):
        return s * (c[3, piece] + s * (c[2, piece] / 2 + s * (c[1, piece] / 3 + s * c[0, piece] / 4)))

    whole = np.concatenate([[0.0], np.cumsum(partial(slice(None), h))])
    piece = np.clip(np.searchsorted(x, edges, "right") - 1, 0, grid.n - 2)
    reference = np.diff(whole[piece] + partial(piece, edges - x[piece])) / width
    sup = float(np.max(np.abs(empirical - reference)))
    centers = 0.5 * (edges[:-1] + edges[1:])
    write_csv(outdir / "histogram.csv", ["center", "empirical", "reference"],
              [centers, empirical, reference])
    payload = {"draws": config.draws, "acceptance_rate": acceptance, "sup_distance": sup}
    if acceptance < 0.5:
        payload["warning"] = "acceptance below 0.5, reduce the leapfrog substep"
    write_json(outdir / "sampler_report.json", payload)
    write_manifest(outdir, config, {f"result.{k}": v for k, v in payload.items()})
    return 0


RUNNERS = {
    "flow": run_flow,
    "operator": run_operator,
    "spectrum": run_spectrum,
    "kernel-norm": run_kernel_norm,
    "convergence": run_convergence,
    "sampler-check": run_sampler_check,
}


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
        p.add_argument("--threads", type=int, default=None, help="cap BLAS threads")
    args = parser.parse_args(argv)

    try:
        # the overrides are checked as the config values they replace
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads: need at least 1, got {args.threads}")
        config = load_config(args.config)
        if config.kind != args.command:
            # the subcommand wins; the config's kind is a default
            config.kind = args.command
            config.resolved["experiment.kind"] = args.command
        if args.seed is not None:
            config.seed = args.seed
            config.resolved["experiment.seed"] = args.seed
        outdir = Path(args.out or config.output or f"out-{config.kind}")
        outdir.mkdir(parents=True, exist_ok=True)
        config.resolved["experiment.threads"] = args.threads if args.threads else "default"
        runner = RUNNERS[config.kind]
        if args.threads:
            try:
                from threadpoolctl import threadpool_limits
            except ImportError:
                config.resolved["experiment.threads"] = "default (threadpoolctl unavailable)"
            else:
                with threadpool_limits(limits=args.threads):
                    return runner(config, outdir)
        return runner(config, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures also map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
