"""Experiment driver: config parsing, pipelines, machine-readable outputs.

Subcommands: flow, operator, spectrum, kernel-norm, convergence, sampler-check.
``SETTINGS`` is the one list of the numeric [grid] / [experiment] settings, with
their defaults and bounds.
Each runner writes its CSV and JSON result files and returns its exit code with
its ``result.*`` keys; ``main`` then writes the manifest, which echoes the fully
resolved configuration and those keys.  Every number is formatted to 17
significant digits, so repeated runs with the same config and seed are
bit-identical.  Exit codes: 0 on pass, 2 on certificate failure, 1 on
configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import ModelPair, gaussian_potential, anharmonic_potential
from .dynamics import (FlowSpec, check_conjugate_bound, default_flow_spec, determinant_bounds,
                       hmc_chain, momentum_flip_conjugacy_residual, tangent_batch)
from .kernel_spectral import certify_rate, eigen_spectrum, hs_norm
from .operator import (
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


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# Every numeric [grid] / [experiment] setting: "section.key": (type, default, least).
# An int may equal its least value; a float must be finite and above it.
SETTINGS = {
    "grid.n_per_axis": (int, 401, 16),
    "grid.momentum_nodes": (int, 257, 2),  # at least 4 in 1-d, the kernel spline's knots
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


def load_config(path: str, command: str | None = None) -> ExperimentConfig:
    """The experiment of the INI file at ``path``.  ``command``, the subcommand run,
    overrides the file's ``experiment.kind``, the checks included."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
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

    if "grid" in parser and "momentum_rule" in parser["grid"]:
        raise ConfigError("grid.momentum_rule: option removed; the rule follows from the "
                          "dimension (trapezoid in 1-d, Gauss-Hermite in d >= 2)")
    settings = {}
    for name, (type_, default, least) in SETTINGS.items():
        if name == "grid.momentum_nodes" and model.dim == 1:
            least = 4
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
            "model.params": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                             for k, v in model.target.params.items()},
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
    # one %-format per file: a column of floats or of ints (bool is not one)
    # skips _fmt's type dispatch; an array's elements are judged by its dtype,
    # since its tolist gives Python scalars
    specs = []
    for col in columns:
        if isinstance(col, np.ndarray):
            floats, ints = col.dtype.kind == "f", col.dtype.kind in "iu"
        else:
            floats = all(type(v) is float for v in col)
            ints = not floats and all(type(v) is int for v in col)
        specs.append("%.17g" if floats else "%d" if ints else "%s")
    line = ",".join(specs) + "\n"
    # rows go out in joined blocks, one write per block, and only a block's
    # scalars and text are held at a time; Python scalars format faster than
    # numpy ones, to the same text
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for lo in range(0, min(map(len, columns), default=0), 1024):
            block = [col[lo:lo + 1024] for col in columns]
            block = [col.tolist() if isinstance(col, np.ndarray) else col for col in block]
            block = [map(_fmt, col) if spec == "%s" else col for col, spec in zip(block, specs)]
            out.write("".join(line % row for row in zip(*block)))


def write_json(path: Path, payload: dict) -> dict:
    """Write ``payload`` to ``path``; return it as the manifest's ``result.*`` keys."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n")
    return {f"result.{k}": v for k, v in payload.items()}


def _h0(config: ExperimentConfig, grid):
    """Shifted Gaussian bump used as the iteration's initial density."""
    sq = np.sum((grid.nodes - config.h0_center) ** 2, axis=-1)
    return np.exp(-0.5 * sq / config.h0_sigma**2)


def run_flow(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    model, spec = config.model, config.spec
    rng = np.random.default_rng(config.seed)
    d = model.dim
    q = rng.uniform(-0.5, 0.5, size=d) + 1.0 if d == 1 else rng.normal(size=d)
    p = np.zeros(d)

    def energy(q, p):
        return float(model.target.value(q) + model.auxiliary.value(p))

    times, qs, ps, energies, dets = [0.0], [q], [p], [energy(q, p)], [1.0]
    # leapfrog runs in pieces of whole steps, the exact map in `samples` equal
    # pieces; the Jacobian so far is the product of the pieces' Jacobians
    total = spec.steps if spec.method == "leapfrog" else config.samples
    per = max(1, total // config.samples)
    jac = np.eye(2 * d)
    done = 0
    while done < total:
        take = min(per, total - done)
        seg = FlowSpec(time=take * spec.time / total, steps=take, method=spec.method)
        Q, P, J = tangent_batch(q[None], p[None], model, seg)
        q, p, jac = Q[0], P[0], J[0] @ jac
        done += take
        times.append(done * spec.time / total)
        qs.append(q)
        ps.append(p)
        energies.append(energy(q, p))
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

    # np.max, unlike Python's max, keeps a NaN of a diverged flow
    drift = float(np.max(energies) - np.min(energies))
    det_dev = float(np.max(np.abs(np.subtract(dets, 1.0))))
    write_json(outdir / "conservation.json", {
        "energy_drift": drift,
        "det_jacobian_max_deviation": det_dev,
        "closure_distance": float(
            max(np.max(np.abs(qs[-1] - qs[0])), np.max(np.abs(ps[-1] - ps[0])))
        ),
    })
    return 0, {"result.energy_drift": drift, "result.det_dev": det_dev}


def _operator_stack(config: ExperimentConfig, momentum_nodes: int):
    grid = build_grid(config.model, config.n_per_axis)
    T = assemble_transfer(grid, config.model, config.spec, momentum_nodes)
    return grid, T


def run_operator(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    grid, T = _operator_stack(config, config.momentum_nodes)
    model = config.model
    f = grid.target_values
    rng = np.random.default_rng(config.seed)

    fp = weighted_norm(T.apply(f) - f, grid) / weighted_norm(f, grid)
    # np.max, unlike Python's max, keeps a NaN among the values
    mass_errors, contractions = [], []
    for _ in range(100):
        h = random_density(grid, rng)
        Th = T.apply(h)
        m0 = mass(h, grid)
        mass_errors.append(abs(mass(Th, grid) - m0) / m0)
        contractions.append(weighted_norm(Th, grid) / weighted_norm(h, grid))
    # T* = T: _build_model's auxiliary is a zero-mean Gaussian, so even, and the
    # momentum-flip conjugacy tau . H^-1 . tau = H then makes T self-adjoint;
    # the residual of that premise is recorded at every node, p = +-sigma
    T_adj = T
    sigma = np.full(model.dim, 1.0 / math.sqrt(model.auxiliary.lambda_lo))
    conjugacy = momentum_flip_conjugacy_residual(
        model, config.spec, np.repeat(grid.nodes, 2, axis=0), np.tile([sigma, -sigma], (grid.n, 1)))
    dualities = []
    for _ in range(20):
        h = random_density(grid, rng)
        k = random_density(grid, rng)
        lhs = weighted_inner(T.apply(h), k, grid)
        rhs = weighted_inner(h, T_adj.apply(k), grid)
        dualities.append(abs(lhs - rhs) / (weighted_norm(h, grid) * weighted_norm(k, grid)))

    trace = iterate(T, _h0(config, grid), config.n_max, config.tol)
    write_csv(outdir / "trace.csv", ["n", "norm", "error"], [trace.steps, trace.norms, trace.errors])
    floor_at = int(np.argmin(trace.errors))
    report = {
        "fixed_point_residual": fp,
        "mass_error_max": float(np.max(mass_errors)),
        "contraction_factor_max": float(np.max(contractions)),
        "self_adjointness_residual": weighted_symmetry_residual(T),
        "duality_residual_max": float(np.max(dualities)),
        "momentum_flip_conjugacy_residual": conjugacy,
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
    return 0, write_json(outdir / "operator_report.json", report)


def run_spectrum(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    grid, T = _operator_stack(config, config.momentum_nodes)
    report = eigen_spectrum(T, config.top_k)
    ks = np.arange(len(report.eigenvalues))
    write_csv(outdir / "spectrum.csv", ["k", "mu"], [ks, report.eigenvalues])
    payload = {f.name: getattr(report, f.name) for f in fields(report)
               if f.name not in ("eigenvalues", "leading_vector")}
    return 0, write_json(outdir / "spectral_report.json", payload)


def run_kernel_norm(config: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    # the momentum-space HS estimate needs the 1-d kernel; in d >= 2 the deposit would
    # also flow kernel_momentum_nodes^d probes from every node before hs_norm refused
    if config.model.dim != 1:
        raise ConfigError("kernel-norm: only 1-d models are supported")
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
    if model.dim != 1:
        raise ConfigError("sampler-check: only 1-d models are supported")
    # the reference operator is built and checked before the chain runs, so a
    # config its gates refuse draws nothing, with draws = 0 too
    grid, T = _operator_stack(config, config.momentum_nodes)
    report = eigen_spectrum(T, 2)
    if config.draws == 0:
        write_json(outdir / "sampler_report.json", {"draws": 0, "sup_distance": float("nan")})
        return 0, {"result.draws": 0}
    rng = np.random.default_rng(config.seed)
    samples, acceptance = hmc_chain(model, config.spec, config.draws, rng)
    fixed = report.leading_vector / mass(report.leading_vector, grid)

    L = model.domain_halfwidth
    edges = np.linspace(-L, L, config.bins + 1)
    counts, _ = np.histogram(samples[:, 0], bins=edges)
    width = edges[1] - edges[0]
    empirical = counts / (config.draws * width)
    # antiderivative of the interpolated fixed point at the bin edges
    x = grid.axes[0]
    slopes = spline_coefficients(x[None], [fixed[None]])[0, :, 0]
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
        p.add_argument("--threads", type=int, default=None, help="cap BLAS threads")
    args = parser.parse_args(argv)

    try:
        # the overrides are checked as the config values they replace
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads: need at least 1, got {args.threads}")
        config = load_config(args.config, args.command)
        if args.seed is not None:
            config.seed = args.seed
            config.resolved["experiment.seed"] = args.seed
        outdir = Path(args.out or config.output or f"out-{config.kind}")
        outdir.mkdir(parents=True, exist_ok=True)
        config.resolved["experiment.threads"] = args.threads if args.threads else "default"
        cap = contextlib.nullcontext()
        if args.threads:
            try:
                from threadpoolctl import threadpool_limits
            except ImportError:
                config.resolved["experiment.threads"] = "default (threadpoolctl unavailable)"
            else:
                cap = threadpool_limits(limits=args.threads)
        with cap:
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
