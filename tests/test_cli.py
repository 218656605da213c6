import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmctransfer import cli
from hmctransfer.cli import hmc_chain, load_config, main
from hmctransfer.dynamics import FlowSpec, exact_gaussian_matrix, flow_batch
from hmctransfer.distributions import (
    anharmonic_potential,
    gaussian_potential,
    kinetic_energy,
)

GAUSS_CONV = """
[model]
family = gaussian
mean = 0.0
precision = 1.0
halfwidth = 8.0

[flow]
time = 0.7
method = exact_gaussian

[grid]
n_per_axis = 401
momentum_nodes = 257

[experiment]
kind = convergence
seed = 0
n_max = 400
tol = 1e-12
"""

FLOW_PERIOD = """
[model]
family = gaussian
halfwidth = 8.0

[flow]
time = 6.283185307179586
method = exact_gaussian

[experiment]
kind = flow
seed = 0
samples = 100
"""

FLOW_LEAPFROG = """
[model]
family = anharmonic
a = 1.0
b = 0.5
halfwidth = 3.5

[flow]
time = 0.7
method = leapfrog

[experiment]
kind = flow
seed = 0
samples = 100
"""

ANH_SMALL = """
[model]
family = anharmonic
a = 1.0
b = 0.5
halfwidth = 3.5

[flow]
time = 0.08

[grid]
n_per_axis = 201
momentum_nodes = 129

[experiment]
kind = spectrum
seed = 0
top_k = 6
"""

SAMPLER = """
[model]
family = gaussian
halfwidth = 8.0

[flow]
time = 0.7
method = exact_gaussian

[grid]
n_per_axis = 201
momentum_nodes = 129

[experiment]
kind = sampler-check
seed = 0
draws = 200000
bins = 100
"""

# the benchmark's smoke-sized quartic sampler-check: 36 leapfrog steps per draw
TRACED_SAMPLER = """
[model]
family = anharmonic
a = 1.0
b = 0.5
halfwidth = 3.5

[flow]
time = 0.08
method = leapfrog
steps = 36

[grid]
n_per_axis = 121
momentum_nodes = 129

[experiment]
kind = sampler-check
draws = {draws}
"""

# hooks of bench/tracer.py whose names no longer exist in the package
TRACER_DEAD_HOOKS = {"hmctransfer.cli.assemble_adjoint", "hmctransfer.cli.assemble_kernel",
                     "hmctransfer.cli.flow_batch", "hmctransfer.kernel_spectral.matrix_asymmetry",
                     "hmctransfer.kernel_spectral.tangent_batch"}


# each subcommand's report file and the keys every one of its exits writes
REPORTS = {
    "flow": ("conservation.json", {"energy_drift", "det_jacobian_max_deviation",
                                   "closure_distance"}),
    "operator": ("operator_report.json", {
        "fixed_point_residual", "mass_error_max", "contraction_factor_max",
        "self_adjointness_residual", "duality_residual_max",
        "leaked_mass", "iteration_converged",
        "iteration_anomaly", "limit_mass_ratio", "iteration_error_floor",
        "iteration_floor_step", "kernel_width_cells"}),
    "spectrum": ("spectral_report.json", {"gap", "rate_bound", "multiplicity_check",
                                          "second_mass", "symmetry_residual", "gap_caveat"}),
    "kernel-norm": ("kernel_report.json", {"hs_norm_sq", "hs_norm_sq_momentum", "sum_mu_sq",
                                           "hs_bound_from_determinants"}),
    "convergence": ("certificate.json", {"rho_emp", "rho_spec", "mismatch", "r_squared",
                                         "window", "n_points", "passed", "trivially_converged"}),
    "sampler-check": ("sampler_report.json", {"draws", "draws_outside_box", "acceptance_rate",
                                              "sup_distance"}),
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def mirrored_report(out, kind):
    """The report a ``kind`` run wrote to ``out``, once it is checked to hold its
    full key set and the manifest to mirror exactly its keys as result.*, each
    as ``_fmt`` of the value read back from the JSON."""
    name, keys = REPORTS[kind]
    report = json.loads((out / name).read_text())
    assert set(report) == keys, kind
    mirror = [line for line in (out / "manifest.txt").read_text().splitlines()
              if line.startswith("result.")]
    assert mirror == sorted(f"result.{key} = {cli._fmt(value)}" for key, value in report.items())
    return report


def test_flow_trajectory_closes_after_full_period(tmp_path):
    cfg = write(tmp_path, "flow.ini", FLOW_PERIOD)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "conservation.json").read_text())
    assert report["closure_distance"] < 1e-6
    assert report["energy_drift"] < 1e-10
    assert report["det_jacobian_max_deviation"] < 1e-10
    header = (out / "flow.csv").read_text().splitlines()[0]
    assert header == "s,q0,p0,energy,det_jacobian"


def test_flow_leapfrog_drift_within_budget(tmp_path):
    cfg = write(tmp_path, "flow_lf.ini", FLOW_LEAPFROG)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "conservation.json").read_text())
    assert report["energy_drift"] < 1e-5
    assert report["det_jacobian_max_deviation"] < 1e-10


def test_convergence_pipeline_passes(tmp_path):
    cfg = write(tmp_path, "conv.ini", GAUSS_CONV)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"]
    assert abs(cert["rho_emp"] - np.cos(0.7)) < 0.02 * np.cos(0.7)
    manifest = (out / "manifest.txt").read_text()
    assert "flow.time = 0.69999999999999996" in manifest
    assert "experiment.seed = 0" in manifest


@pytest.mark.parametrize("time", [1.5, math.pi / 2])
def test_convergence_passes_when_the_operator_mixes_in_a_few_steps(tmp_path, time):
    # mu_1 = cos(t): at t = 1.5 fewer than ten errors stay above the floor, and
    # at t = pi/2 the run converges at step 1 with none left to fit
    text = (GAUSS_CONV.replace("time = 0.7", f"time = {time!r}")
            .replace("n_per_axis = 401", "n_per_axis = 201")
            .replace("momentum_nodes = 257", "momentum_nodes = 129"))
    cfg = write(tmp_path, "fast.ini", text)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"]
    if time == 1.5:
        assert not cert["trivially_converged"]
        assert 3 <= cert["n_points"] < 10
        assert abs(cert["rho_emp"] - np.cos(1.5)) < 0.02 * np.cos(1.5)
    else:
        assert cert["trivially_converged"]
        assert cert["n_points"] < 3


@pytest.mark.parametrize("time", [2.0, 2.6])
def test_convergence_passes_past_the_quarter_period(tmp_path, time):
    # past t = pi/2, mu_1 = cos(t) < 0: the error still falls at the rate |cos t|
    text = (GAUSS_CONV.replace("time = 0.7", f"time = {time!r}")
            .replace("n_per_axis = 401", "n_per_axis = 201")
            .replace("momentum_nodes = 257", "momentum_nodes = 129"))
    cfg = write(tmp_path, "late.ini", text)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"]
    assert not cert["trivially_converged"]
    assert abs(cert["rho_emp"] - abs(np.cos(time))) < 0.02 * abs(np.cos(time))
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[2].startswith("1,")
    assert float(rows[2].split(",")[1]) < 0


def test_convergence_failure_exit_code(tmp_path):
    cfg = write(tmp_path, "short.ini", GAUSS_CONV.replace("n_max = 400", "n_max = 5"))
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert not cert["passed"]


def test_outputs_are_deterministic(tmp_path):
    cfg = write(tmp_path, "conv.ini", GAUSS_CONV)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["convergence", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["convergence", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("manifest.txt", "trace.csv", "spectrum.csv", "certificate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_operator_report(tmp_path):
    cfg = write(
        tmp_path, "op.ini", ANH_SMALL.replace("kind = spectrum", "kind = operator")
        + "n_max = 50\ntol = 1e-9\n"
    )
    out = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "operator_report.json").read_text())
    assert report["fixed_point_residual"] < 1e-5
    assert report["mass_error_max"] < 1e-6
    assert report["self_adjointness_residual"] < 1e-6
    assert report["duality_residual_max"] < 1e-6
    assert (out / "trace.csv").exists()


def test_operator_outputs_do_not_depend_on_the_seed(tmp_path):
    # T and its checks draw nothing, so the seed moves only the manifest's echo of it
    cfg = write(tmp_path, "op.ini", ANH_SMALL.replace("kind = spectrum", "kind = operator")
                + "n_max = 50\n")
    outs = [tmp_path / f"seed{seed}" for seed in (1, 2)]
    for seed, out in zip((1, 2), outs):
        assert main(["operator", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
    for name in ("operator_report.json", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_operator_maxima_keep_a_nan(tmp_path, monkeypatch, capsys):
    # Python's max(0.0, nan) is 0.0: one NaN entry of T read as a zero error.  The run
    # fails, but its report and manifest are still written
    assemble = cli.assemble_transfer

    def poisoned(*args, **kwargs):
        T = assemble(*args, **kwargs)
        T.entries[T.grid.n // 2, T.grid.n // 2] = np.nan
        return T

    monkeypatch.setattr(cli, "assemble_transfer", poisoned)
    cfg = write(tmp_path, "op.ini", ANH_SMALL.replace("kind = spectrum", "kind = operator")
                + "n_max = 5\n")
    out = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: operator not finite: 1 of {201 ** 2} entries of T are NaN or infinite"]
    report = mirrored_report(out, "operator")
    for key in ("mass_error_max", "contraction_factor_max", "duality_residual_max"):
        assert math.isnan(report[key]), key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging flow overflows
def test_flow_conservation_keeps_a_nan(tmp_path, capsys):
    # the quartic's leapfrog at 5 time units a step runs off to inf and NaN.  The run
    # fails, but its samples, report and manifest are still written
    text = FLOW_LEAPFROG.replace("time = 0.7", "time = 50\nsteps = 10").replace(
        "samples = 100", "samples = 10")
    cfg = write(tmp_path, "diverge.ini", text)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: flow diverged: energy or Jacobian determinant not finite at s = 25"]
    assert (out / "flow.csv").read_text().splitlines()[6].startswith("25,")
    report = mirrored_report(out, "flow")
    assert math.isnan(report["det_jacobian_max_deviation"])
    assert math.isnan(report["energy_drift"])
    manifest = (out / "manifest.txt").read_text()
    assert "result.det_jacobian_max_deviation = nan" in manifest
    assert "result.energy_drift = nan" in manifest


def test_operator_run_tabulates_the_kernel_once(tmp_path, monkeypatch):
    # the adjoint is T for the even momentum law, so no second tabulation is made
    assemble, calls = cli.assemble_transfer, []

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_transfer", counting)
    cfg = write(tmp_path, "op.ini", ANH_SMALL.replace("kind = spectrum", "kind = operator")
                + "n_max = 5\n")
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_spectrum_report(tmp_path):
    cfg = write(tmp_path, "spec.ini", ANH_SMALL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["multiplicity_check"]
    assert report["gap_caveat"]  # non-Gaussian model
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "k,mu"
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0, abs=1e-4)


def test_kernel_norm_report(tmp_path):
    full_grid = ANH_SMALL.replace("n_per_axis = 201", "n_per_axis = 401").replace(
        "momentum_nodes = 129", "momentum_nodes = 257"
    )
    cfg = write(tmp_path, "kern.ini", full_grid.replace("kind = spectrum", "kind = kernel-norm"))
    out = tmp_path / "out"
    assert main(["kernel-norm", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "kernel_report.json").read_text())
    rel = abs(report["hs_norm_sq"] - report["hs_norm_sq_momentum"]) / report["hs_norm_sq"]
    assert rel < 1e-4
    assert abs(report["sum_mu_sq"] - report["hs_norm_sq"]) < 1e-2 * report["hs_norm_sq"]
    assert report["hs_norm_sq"] <= report["hs_bound_from_determinants"]


def test_kernel_norm_writes_nan_outside_the_determinant_bounds(tmp_path):
    # t lambda_max = 2 lies in [pi/2, pi): the operator is built, outside the
    # determinant bounds' regime, so the key reads NaN instead of going missing
    text = (GAUSS_CONV.replace("time = 0.7", "time = 2.0")
            .replace("n_per_axis = 401", "n_per_axis = 201")
            .replace("momentum_nodes = 257", "momentum_nodes = 129"))
    cfg = write(tmp_path, "late.ini", text + "kernel_momentum_nodes = 257\n")
    out = tmp_path / "out"
    assert main(["kernel-norm", "--config", cfg, "--out", str(out)]) == 0
    report = mirrored_report(out, "kernel-norm")
    assert math.isnan(report["hs_bound_from_determinants"])
    assert report["hs_norm_sq"] > 0


def test_every_subcommand_refuses_a_two_dimensional_model(tmp_path, capsys):
    # the model is 1-d by construction: a vector mean or precision is refused by
    # name at config time, by every subcommand, before its output directory exists
    for field, value in [("model.mean", "0.0, 0.0"), ("model.precision", "1.0, 1.0")]:
        key = field.split(".")[1]
        text = re.sub(rf"^{key} = .*\n", "", GAUSS_CONV, flags=re.M)  # the scalar value, if set
        cfg = write(tmp_path, f"{key}2d.ini", text.replace("[model]\n", f"[model]\n{key} = {value}\n"))
        for command in cli.RUNNERS:
            out = tmp_path / key / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"configuration error: {field}: expected a number, "
                                               f"got {value!r}\n")
            assert not out.exists()


def test_underflowing_target_is_refused_by_every_operator_subcommand(tmp_path, capsys):
    # the standard Gaussian underflows near the ends of [-40, 40], where T would be
    # NaN: each subcommand that assembles it exits 1 naming the underflow
    text = SAMPLER.replace("halfwidth = 8.0", "halfwidth = 40.0").replace(
        "n_per_axis = 201", "n_per_axis = 801").replace("momentum_nodes = 129", "momentum_nodes = 257")
    cfg = write(tmp_path, "wide.ini", text)
    for command in ("operator", "spectrum", "convergence", "kernel-norm", "sampler-check"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: the target density underflows at \d+ of 801 nodes", err), err
        assert not (tmp_path / command / "manifest.txt").exists()


def test_sampler_check(tmp_path):
    cfg = write(tmp_path, "samp.ini", SAMPLER)
    out = tmp_path / "out"
    assert main(["sampler-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "sampler_report.json").read_text())
    assert report["acceptance_rate"] == 1.0
    assert report["sup_distance"] < 0.05
    rows = (out / "histogram.csv").read_text().splitlines()
    assert rows[0] == "center,empirical,reference"
    assert len(rows) == 101


def test_sampler_zero_draws(tmp_path):
    cfg = write(tmp_path, "samp0.ini", SAMPLER.replace("draws = 200000", "draws = 0"))
    out = tmp_path / "out"
    assert main(["sampler-check", "--config", cfg, "--out", str(out)]) == 0
    report = mirrored_report(out, "sampler-check")
    assert report["draws"] == 0
    assert report["draws_outside_box"] == 0
    # the keys of every other exit, NaN where nothing was measured
    assert math.isnan(report["acceptance_rate"]) and math.isnan(report["sup_distance"])


def test_sampler_histogram_is_normalised_over_the_box(tmp_path):
    # on [-2.5, 2.5] 266 of the 20000 draws (1.3%) fall outside the box, which
    # np.histogram drops; dividing by all draws biased every bin by that share
    text = SAMPLER.replace("halfwidth = 8.0", "halfwidth = 2.5").replace("200000", "20000")
    cfg = write(tmp_path, "box.ini", text)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="domain truncation"):
        assert main(["sampler-check", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    report = json.loads((out / "sampler_report.json").read_text())
    config = load_config(cfg)
    samples, _ = hmc_chain(config.model, config.spec, 20000, random.Random(1))
    assert report["draws_outside_box"] == np.count_nonzero(np.abs(samples) > 2.5) == 266
    table = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)
    width = table[1, 0] - table[0, 0]
    assert abs(table[:, 1].sum() * width - 1.0) <= 1e-12


def test_sampler_check_refuses_a_chain_outside_the_box(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "hmc_chain", lambda model, spec, draws, rng: (np.full(draws, 9.0), 1.0))
    cfg = write(tmp_path, "far.ini", SAMPLER.replace("200000", "50"))
    out = tmp_path / "out"
    assert main(["sampler-check", "--config", cfg, "--out", str(out)]) == 1
    assert "draws_outside_box = 50" in capsys.readouterr().err
    # the report and the manifest are still written, with no distance and no histogram
    report = mirrored_report(out, "sampler-check")
    assert (report["draws"], report["draws_outside_box"], report["acceptance_rate"]) == (50, 50, 1.0)
    assert math.isnan(report["sup_distance"])
    assert not (out / "histogram.csv").exists()


def test_sampler_check_advises_on_low_acceptance_on_stderr(tmp_path, monkeypatch, capsys):
    # the advice is printed, and the report keeps its four keys
    monkeypatch.setattr(cli, "hmc_chain", lambda model, spec, draws, rng: (
        hmc_chain(model, spec, draws, rng)[0], 0.3))
    cfg = write(tmp_path, "low.ini", SAMPLER.replace("200000", "2000"))
    out = tmp_path / "out"
    assert main(["sampler-check", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: acceptance below 0.5, reduce the leapfrog substep\n"
    report = mirrored_report(out, "sampler-check")
    assert report["acceptance_rate"] == 0.3


def test_sampler_check_refuses_before_the_chain(tmp_path, monkeypatch, capsys):
    # the quartic at n = 401, t = 0.01 has a kernel narrower than a grid cell: the
    # operator refuses it before the chain draws anything, with draws = 0 too
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return hmc_chain(*args, **kwargs)

    monkeypatch.setattr(cli, "hmc_chain", counting)
    text = ANH_SMALL.replace("n_per_axis = 201", "n_per_axis = 401")
    text = text.replace("time = 0.08", "time = 0.01").replace("kind = spectrum", "kind = sampler-check")
    for draws in (100000, 0):
        cfg = write(tmp_path, f"narrow-{draws}.ini", text + f"draws = {draws}\n")
        out = tmp_path / f"out-{draws}"
        assert main(["sampler-check", "--config", cfg, "--out", str(out)]) == 1
        assert calls == []
        assert "kernel_width_cells" in capsys.readouterr().err
        assert not (out / "sampler_report.json").exists()


def test_config_error_exit_codes(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "missing.ini")]) == 1
    bad_family = write(tmp_path, "bad.ini", ANH_SMALL.replace("family = anharmonic", "family = cauchy"))
    assert main(["spectrum", "--config", bad_family, "--out", str(tmp_path / "o")]) == 1
    # regime violation: t * lambda_max beyond the conjugate-point bound
    bad_regime = write(tmp_path, "regime.ini", ANH_SMALL.replace("time = 0.08", "time = 0.5"))
    assert main(["spectrum", "--config", bad_regime, "--out", str(tmp_path / "o2")]) == 1


def test_config_validation_messages(tmp_path):
    cfg = write(tmp_path, "neg.ini", ANH_SMALL.replace("seed = 0", "seed = -3"))
    with pytest.raises(Exception):
        load_config(cfg).seed  # ConfigError surfaces through main(), checked above
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o3")]) == 1
    cfg = write(tmp_path, "topk.ini", ANH_SMALL.replace("top_k = 6", "top_k = 1"))
    with pytest.raises(cli.ConfigError, match="experiment.top_k"):
        load_config(cfg)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o4")]) == 1
    # iteration and sampler settings that would otherwise run nothing or fail inside numpy
    # and initial bumps with no mass on the grid, which would "converge" at step 0
    # (the box is [-3.5, 3.5])
    for line in ["n_max = -5", "tol = nan", "tol = inf", "tol = 0", "tol = -1e-7", "draws = -3",
                 "bins = 0", "samples = 0", "h0_sigma = 0", "h0_sigma = -0.7", "h0_sigma = nan",
                 "h0_sigma = inf", "h0_center = 9", "h0_center = -3.6", "h0_center = nan",
                 "h0_center = inf"]:
        field = line.split(" = ")[0]
        cfg = write(tmp_path, f"{field}.ini", ANH_SMALL.replace("top_k = 6", f"top_k = 6\n{line}"))
        with pytest.raises(cli.ConfigError, match=f"experiment.{field}"):
            load_config(cfg)
        assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o5")]) == 1
    # a NaN flow time compares false against both time <= 0 and the conjugate-point
    # bound, and ran to an all-zero operator
    for value in ("nan", "inf"):
        cfg = write(tmp_path, f"time-{value}.ini",
                    ANH_SMALL.replace("time = 0.08", f"time = {value}"))
        with pytest.raises(cli.ConfigError, match="flow.time: must be finite and positive"):
            load_config(cfg)
        assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o6")]) == 1
    # one malformed value per numeric key: each is named, not reported as a runtime error
    malformed = [("model.halfwidth", "3.5x"), ("model.a", "one"), ("model.b", "0.5.0"),
                 ("flow.time", "abc"), ("flow.steps", "abc"), ("grid.n_per_axis", "4o1"),
                 ("grid.momentum_nodes", "12.5"), ("experiment.seed", "0x1"),
                 ("experiment.samples", "1e2"), ("experiment.draws", "5e3"),
                 ("experiment.bins", "ten"), ("experiment.n_max", "4oo"), ("experiment.tol", "1e-"),
                 ("experiment.top_k", "6.0"), ("experiment.h0_center", "1,3"),
                 ("experiment.h0_sigma", "0.7s"), ("experiment.kernel_momentum_nodes", "1O25")]
    for field, value in malformed:
        section, key = field.split(".")
        text = re.sub(rf"^{key} = .*\n", "", ANH_SMALL, flags=re.M)  # the valid value, if set
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        if key == "steps":
            text = text.replace("[flow]\n", "[flow]\nmethod = leapfrog\n")
        cfg = write(tmp_path, f"bad-{key}.ini", text)
        with pytest.raises(cli.ConfigError, match=f"{field}: expected"):
            load_config(cfg)
        assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o7")]) == 1
    # every table setting, one value past its bound; a setting added to the table is covered
    for field, (type_, _, least) in cli.SETTINGS.items():
        section, key = field.split(".")
        values = [least - 1] if type_ is int else [least, "nan", "inf"]
        for value in values:
            text = re.sub(rf"^{key} = .*\n", "", ANH_SMALL, flags=re.M)
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
            cfg = write(tmp_path, f"least-{key}.ini", text)
            with pytest.raises(cli.ConfigError, match=f"^{field}: need "):
                load_config(cfg)
            assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o10")]) == 1
    cfg = write(tmp_path, "bad-mean.ini", GAUSS_CONV.replace("mean = 0.0", "mean = 0.o"))
    with pytest.raises(cli.ConfigError, match="model.mean"):
        load_config(cfg)
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o8")]) == 1
    # non-finite or out-of-range model parameters: the flow ran to NaN energy drift and
    # closure distance, a = inf divided by zero, and a, b < 0 failed without a field name;
    # the half-width is checked once, by the potential, for both families
    cases = []
    for value in ("nan", "inf", "-1"):
        cases += [("model.a", ANH_SMALL, "a = 1.0", f"a = {value}"),
                  ("model.b", ANH_SMALL, "b = 0.5", f"b = {value}"),
                  ("model.halfwidth", ANH_SMALL, "halfwidth = 3.5", f"halfwidth = {value}"),
                  ("model.halfwidth", GAUSS_CONV, "halfwidth = 8.0", f"halfwidth = {value}")]
    for value in ("nan", "inf"):
        cases += [("model.mean", GAUSS_CONV, "mean = 0.0", f"mean = {value}"),
                  ("model.precision", GAUSS_CONV, "precision = 1.0", f"precision = {value}")]
    for field, base, line, replacement in cases:
        key = field.split(".")[1]
        cfg = write(tmp_path, f"{key}.ini", base.replace(line, replacement))
        with pytest.raises(cli.ConfigError, match=f"^{field}: {key} must be finite"):
            load_config(cfg)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o9")]) == 1


def test_conjugate_point_refusal_follows_the_subcommand(tmp_path, capsys):
    # t = 2 pi is past the conjugate-point bound: refused for every experiment but flow,
    # whichever kind the file names; sampler-check builds an operator too, and used to
    # run its whole chain before failing
    for kind, command, code in [("operator", "flow", 0), ("flow", "operator", 1),
                                ("flow", "sampler-check", 1)]:
        out = tmp_path / command
        cfg = write(tmp_path, f"{kind}.ini", FLOW_PERIOD.replace("kind = flow", f"kind = {kind}"))
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("configuration error: flow.time:") and command in err
    manifest = (tmp_path / "flow" / "manifest.txt").read_text()
    assert "experiment.kind = flow\n" in manifest
    assert not (tmp_path / "sampler-check" / "sampler_report.json").exists()


@pytest.mark.parametrize("halfwidth", [12.0, 16.0])
def test_wide_gaussian_box_passes_the_gates(tmp_path, halfwidth):
    # the probe densities of every operator check scale with the target's half-width
    # (f above 1e-12 max f), not with the box, so on a wide box they stay where f has mass
    text = GAUSS_CONV.replace("halfwidth = 8.0", f"halfwidth = {halfwidth}")
    text = text.replace("n_max = 400", "n_max = 50")
    cfg = write(tmp_path, "wide.ini", text)
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "op")]) == 0
    report = json.loads((tmp_path / "op" / "operator_report.json").read_text())
    for key in ("mass_error_max", "duality_residual_max", "self_adjointness_residual"):
        assert report[key] <= 1e-7, key
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "sp")]) == 0
    rows = (tmp_path / "sp" / "spectrum.csv").read_text().splitlines()[1:7]
    mu = np.array([float(row.split(",")[1]) for row in rows])
    assert np.max(np.abs(mu - np.cos(0.7) ** np.arange(6))) <= 1e-6


def test_flow_steps_apply_without_method(tmp_path):
    # with no flow.method the default substep count used to win over steps, and
    # a malformed steps value was never parsed
    cfg = write(tmp_path, "steps5.ini", ANH_SMALL.replace("time = 0.08", "time = 0.08\nsteps = 5"))
    spec = load_config(cfg).spec
    assert (spec.method, spec.steps) == ("leapfrog", 5)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    assert "flow.steps = 5\n" in (out / "manifest.txt").read_text()
    cfg = write(tmp_path, "steps-abc.ini", ANH_SMALL.replace("time = 0.08", "time = 0.08\nsteps = abc"))
    with pytest.raises(cli.ConfigError, match="flow.steps: expected an integer"):
        load_config(cfg)
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_benchmark_configs_resolve_to_the_quartic_leapfrog(tmp_path):
    # the benchmark's workload configs, full and smoke, read as the benchmark writes them
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    assert bench.WORKLOADS
    for name, workload in bench.WORKLOADS.items():
        for smoke in (False, True):
            cfg = write(tmp_path, f"{name}-{smoke}.ini", bench.config_text(workload, smoke))
            flow_spec = load_config(cfg).spec
            assert (flow_spec.method, flow_spec.steps, flow_spec.time) == ("leapfrog", 36, 0.08)


def test_tracer_hooks_resolve():
    # the tracer's hooks look names up where they are called; only the five that
    # are already dead may fail, so a moved function keeps its name in cli
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the hooks; install() would patch them
    dead = {f"{module}.{attr}" for module, attr, *_ in tracer.HOOKS + tracer.POTENTIAL_FACTORIES
            if tracer._resolve(module, attr) is None}
    assert dead <= TRACER_DEAD_HOOKS


def test_traced_sampler_counts_the_chain_evaluations(tmp_path):
    # bench/tracer.py wraps the potentials the CLI builds with point counters, and
    # the chain calls them directly: a traced run exits 0 with only the dead hooks
    # missing, and each draw adds its leapfrog's steps + 1 target gradient calls; the
    # momentum gradient is p itself, and no potential counts it.  The
    # benchmark's own smoke test passes even when every traced operation fails
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    points = {}
    for draws in (40, 0):
        cfg = write(tmp_path, f"traced-{draws}.ini", TRACED_SAMPLER.format(draws=draws))
        spans = tmp_path / f"spans-{draws}.json"
        run = subprocess.run([sys.executable, str(root / "bench" / "tracer.py"), str(spans), "t",
                              "sampler-check", "--config", cfg, "--out", str(tmp_path / str(draws))],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        trace = json.loads(spans.read_text())
        assert set(trace["missing"]) == TRACER_DEAD_HOOKS
        points[draws] = trace["counts"]["distributions.grad.points"]
    assert points[40] - points[0] == 40 * (36 + 1)


def test_cli_overrides_are_validated(tmp_path, capsys):
    # a negative seed failed inside numpy
    cfg = write(tmp_path, "spec.ini", ANH_SMALL)
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-2"]) == 1
    assert "configuration error: --seed:" in capsys.readouterr().err
    # there is no thread flag: OPENBLAS_NUM_THREADS or OMP_NUM_THREADS set BLAS threads
    with pytest.raises(SystemExit) as exit_:
        main(["operator", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert exit_.value.code == 2


def test_write_csv_bytes_match_per_cell_format(tmp_path):
    # the reference formats every cell on its own, numpy scalars included
    floats = np.concatenate([np.linspace(-1.0, 2.0, 8) ** 3 / 7, [-0.0, np.nan, np.inf, 1e-300]])
    columns = [np.arange(-3, 9), floats, [np.float64(v) for v in floats[::-1]], list(range(12))]
    header = ["n", "x", "y", "k"]
    path = tmp_path / "t.csv"
    cli.write_csv(path, header, columns)
    rows = [",".join(header)] + [",".join(cli._fmt(col[i]) for col in columns) for i in range(12)]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
    assert path.read_text().splitlines()[1] == "-3,-0.14285714285714285,1e-300,0"
    # rows are written in blocks of 1024: a file across three blocks, shortest column last
    long = [np.arange(2050), np.linspace(0.0, 1.0, 2050) ** 3, [float(v) for v in range(2049)]]
    cli.write_csv(path, ["n", "x", "y"], long)
    rows = [",".join(cli._fmt(col[i]) for col in long) for i in range(2049)]
    assert path.read_bytes() == ("n,x,y\n" + "\n".join(rows) + "\n").encode()


def test_write_json_refuses_numpy_scalars(tmp_path):
    # runners pass Python scalars; a NumPy one is an error, not a JSON string
    with pytest.raises(TypeError):
        cli.write_json(tmp_path / "r.json", {"n": np.int64(3)})


def test_hmc_chain_generic_metropolis_path():
    model = gaussian_potential(0.0, 1.0, 8.0)
    spec = FlowSpec(time=0.7, steps=70, method="leapfrog")
    samples, acceptance = hmc_chain(model, spec, 2000, random.Random(0))
    assert samples.shape == (2000,)
    assert acceptance > 0.95  # tiny substeps keep the energy error small
    assert abs(np.mean(samples)) < 0.2


def _reference_chain(model, spec, draws, rng):
    """The leapfrog chain as one flow_batch call per draw on (1,) arrays, with
    N(0, 1) momenta, energies from (1,) evaluations and uniforms in (0, 1]."""
    q = np.zeros(1) + model.params["mean"] if model.is_gaussian else np.zeros(1)
    out = np.empty(draws)
    accepted = 0
    for i in range(draws):
        p = np.array([rng.gauss(0.0, 1.0)])
        e0 = (model.value(q) + kinetic_energy(p)).item()
        Q, P = flow_batch(q, p, model, spec)
        e1 = (model.value(Q) + kinetic_energy(P)).item()
        if math.log(1.0 - rng.random()) < e0 - e1:
            q = Q
            accepted += 1
        out[i] = q[0]
    return out, accepted / draws


@pytest.mark.parametrize("model, spec, accept_lo", [
    # the benchmark's quartic well: leapfrog of 36 steps, every draw accepted
    (anharmonic_potential(1.0, 0.5, 3.5), FlowSpec(time=0.08, steps=36, method="leapfrog"), 0.99),
    # coarse steps on an off-center, non-unit Gaussian, so draws get rejected; momentum
    # precision 1.7 at t = 1.6 is the unit law at t = sqrt(1.7) 1.6
    (gaussian_potential(0.6, 2.5, 6.0),
     FlowSpec(time=math.sqrt(1.7) * 1.6, steps=2, method="leapfrog"), 0.5),
], ids=["quartic", "gauss-leapfrog"])
def test_hmc_chain_matches_flow_batch_reference(model, spec, accept_lo):
    samples, acceptance = hmc_chain(model, spec, 400, random.Random(11))
    ref, ref_acceptance = _reference_chain(model, spec, 400, random.Random(11))
    assert np.array_equal(samples, ref)
    assert acceptance == ref_acceptance
    assert accept_lo < acceptance <= 1.0
    if accept_lo < 0.99:
        assert acceptance < 1.0  # the rejection branch ran


class _ZeroUniform:
    """A generator whose uniform draws are all 0.0, the one value of [0, 1) whose log
    fails, with the N(0, 1) draws of ``random.Random(seed)``."""

    def __init__(self, seed):
        self.gauss = random.Random(seed).gauss

    def random(self):
        return 0.0


def test_hmc_chain_takes_a_zero_uniform():
    # 1 - 0.0 = 1 is the threshold, so a draw is accepted when its energy falls, about
    # half of the quartic's, where log(0.0) raised ValueError
    model = anharmonic_potential(1.0, 0.5, 3.5)
    spec = FlowSpec(time=0.08, steps=36, method="leapfrog")
    samples, acceptance = hmc_chain(model, spec, 200, _ZeroUniform(5))
    ref, ref_acceptance = _reference_chain(model, spec, 200, _ZeroUniform(5))
    assert np.array_equal(samples, ref)
    assert acceptance == ref_acceptance
    assert 0.0 < acceptance < 1.0


def test_cli_import_leaves_scipy_linalg_unloaded(tmp_path):
    # every subcommand on a quartic (leapfrog) and a Gaussian (exact flow)
    # config, in a fresh process: the package runs on NumPy alone
    smoke = "samples = 10\ndraws = 2000\nn_max = 2000\ntol = 1e-6\nkernel_momentum_nodes = 257\n"
    gauss = GAUSS_CONV.replace("n_per_axis = 401", "n_per_axis = 201").replace(
        "momentum_nodes = 257", "momentum_nodes = 129").replace("n_max = 400\ntol = 1e-12\n", "")
    runs = []
    for name, text in (("quartic", ANH_SMALL), ("gauss", gauss)):
        cfg = write(tmp_path, f"{name}.ini", text + smoke)
        runs += [[kind, "--config", cfg, "--out", str(tmp_path / name / kind)] for kind in cli.RUNNERS]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys; from hmctransfer.cli import main; "
        "codes = [main(args) for args in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-W", "ignore", "-c", code, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True)
    codes, loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(runs), run.stderr
    assert loaded == []


def test_runners_leave_numpy_random_unloaded(tmp_path):
    # no subcommand imports numpy.random, which costs about 8 ms and 5 MiB of resident
    # memory per process: the chain and the flow draw from the standard library's
    # generator, and the operator checks run on the deterministic probe family
    cfg = write(tmp_path, "quartic.ini", ANH_SMALL + "samples = 10\ndraws = 200\nn_max = 2000\n"
                "tol = 1e-6\nkernel_momentum_nodes = 257\n")
    runs = [[kind, "--config", cfg, "--out", str(tmp_path / kind)] for kind in cli.RUNNERS]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys; from hmctransfer.cli import main; "
        "codes = [main(args) for args in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-W", "ignore", "-c", code, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True)
    codes, loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert codes == [0] * 6, run.stderr
    assert not loaded


def test_report_schemas_and_manifest_mirror(tmp_path, monkeypatch):
    # the report keys follow the records' fields; every report is mirrored into
    # the manifest as result.* keys, and main writes the manifest once per run
    write_manifest, writes = cli.write_manifest, []

    def counting(*args, **kwargs):
        writes.append(args)
        return write_manifest(*args, **kwargs)

    monkeypatch.setattr(cli, "write_manifest", counting)
    smoke = "samples = 10\ndraws = 2000\nn_max = 2000\ntol = 1e-6\nkernel_momentum_nodes = 257\n"
    cfg = write(tmp_path, "quartic.ini", ANH_SMALL + smoke)
    assert set(REPORTS) == set(cli.RUNNERS)
    for kind in REPORTS:
        out = tmp_path / kind
        assert main([kind, "--config", cfg, "--out", str(out)]) == 0
        assert len(writes) == 1
        writes.clear()
        mirrored_report(out, kind)


def test_operator_report_records_kernel_width(tmp_path, capsys):
    cfg = write(
        tmp_path, "op.ini", ANH_SMALL.replace("kind = spectrum", "kind = operator")
        + "n_max = 5\ntol = 1e-9\n"
    )
    out = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "operator_report.json").read_text())
    # t = 0.08 moves Q by about t sigma either side, over cells of 7 / 200
    assert report["kernel_width_cells"] == pytest.approx(0.08 / 0.035, rel=0.05)
    manifest = (out / "manifest.txt").read_text()
    assert f"result.kernel_width_cells = {report['kernel_width_cells']:.17g}" in manifest
    # the same run on a twelfth of a cell is refused by name, exit code 1
    short = write(tmp_path, "short.ini", open(cfg).read().replace("time = 0.08", "time = 0.003"))
    capsys.readouterr()
    assert main(["operator", "--config", short, "--out", str(tmp_path / "err")]) == 1
    assert "kernel_width_cells" in capsys.readouterr().err


def test_operator_report_names_the_iteration_floor(tmp_path):
    # at 2000 steps the error still falls slowly, so the least error is the last one,
    # but the floor step comes 9 steps earlier
    cfg = write(
        tmp_path, "op.ini", ANH_SMALL.replace("kind = spectrum", "kind = operator")
        + "n_max = 2000\ntol = 1e-12\n"
    )
    out = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "operator_report.json").read_text())
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert report["iteration_error_floor"] == rows[:, 2].min()
    # the floor step is the first whose error is within 1% of the least error
    step = report["iteration_floor_step"]
    assert 0 < step < len(rows) - 1
    assert rows[step, 2] <= 1.01 * report["iteration_error_floor"]
    assert np.all(rows[:step, 2] > 1.01 * report["iteration_error_floor"])
    manifest = (out / "manifest.txt").read_text()
    assert f"result.iteration_error_floor = {report['iteration_error_floor']:.17g}" in manifest
    assert f"result.iteration_floor_step = {report['iteration_floor_step']}" in manifest


def test_exact_gaussian_chain_matches_linear_filter():
    # the exact chain is the first-order recursion q <- a q + b p that
    # scipy.signal.lfilter solves; the float loop gives the same bits
    from scipy.signal import lfilter

    # momentum precision 1.7 at t = 0.7 is the unit law at t = sqrt(1.7) 0.7
    model = gaussian_potential(0.6, 2.5, 6.0)
    spec = FlowSpec(time=np.sqrt(1.7) * 0.7, steps=1, method="exact_gaussian")
    samples, acceptance = hmc_chain(model, spec, 100000, random.Random(3))
    mat = exact_gaussian_matrix(model, spec.time)
    rng = random.Random(3)
    p = [rng.gauss(0.0, 1.0) for _ in range(100000)]
    ref = lfilter([mat[0, 1]], [1.0, -mat[0, 0]], p) + 0.6
    assert acceptance == 1.0
    assert np.array_equal(samples, ref)


@pytest.mark.parametrize("field, base, old, new", [
    ("grid.n_per_axs", ANH_SMALL, "n_per_axis = 201", "n_per_axs = 101"),
    ("grdi.n_per_axis", ANH_SMALL, "[grid]", "[grdi]"),
    ("model.a", GAUSS_CONV, "mean = 0.0", "mean = 0.0\na = 1.0"),
    ("model.mean", ANH_SMALL, "a = 1.0", "a = 1.0\nmean = 0.0"),
    ("DEFAULT.seed", ANH_SMALL, "[model]", "[DEFAULT]\nseed = 0\n\n[model]"),
    # the momentum law is N(0, 1): its precision is no longer a key
    ("model.auxiliary_precision", GAUSS_CONV, "mean = 0.0",
     "mean = 0.0\nauxiliary_precision = 1.0"),
])
def test_unknown_config_keys_are_refused_by_name(tmp_path, capsys, field, base, old, new):
    # configparser keeps any key: one the run does not read would be ignored silently
    cfg = write(tmp_path, "unknown.ini", base.replace(old, new))
    with pytest.raises(cli.ConfigError, match=f"^{re.escape(field)}: unknown key$"):
        load_config(cfg)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {field}: unknown key\n"
    assert not out.exists()


def test_removed_and_invalid_grid_options_are_named(tmp_path):
    # the removed option is refused by name, as every key the run does not read is
    cfg = write(tmp_path, "rule.ini", ANH_SMALL.replace("[grid]", "[grid]\nmomentum_rule = gauss_hermite"))
    with pytest.raises(cli.ConfigError, match="grid.momentum_rule"):
        load_config(cfg)
    cfg = write(tmp_path, "kern.ini", ANH_SMALL + "kernel_momentum_nodes = 3\n")
    with pytest.raises(cli.ConfigError, match="experiment.kernel_momentum_nodes"):
        load_config(cfg)
    assert main(["kernel-norm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    # in 1-d the probes are the knots of the kernel's not-a-knot spline
    # one minimum, whichever value is below it
    for value in (1, 3):
        cfg = write(tmp_path, f"probes{value}.ini",
                    ANH_SMALL.replace("momentum_nodes = 129", f"momentum_nodes = {value}"))
        with pytest.raises(cli.ConfigError, match="grid.momentum_nodes: need at least 4"):
            load_config(cfg)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / f"p{value}")]) == 1
