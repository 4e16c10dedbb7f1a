"""The benchmark's workloads: inputs made from a seed, and the operations run on them.

`make_inputs` writes everything an operation reads (INI files, the
tabulated spectrum) and draws every random choice from the seed. The seed
picks random state pairs, amplitudes b and `verify` seeds only, never a
size, so a round costs the same on every seed. `build_ops` returns the
workload's fixed list of operations: `run` is the timed call into the
program and `check` compares its output with `reference` afterwards,
untimed, returning the output counts the traced run reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import nonmarkov
import nonmarkov.cli
import reference

WORKLOADS = ("closed_form", "memory_kernel", "validation")

DT = 1e-3

# closed_form
SIMULATE_WIDTH = 0.1
MEASURE_WIDTHS = (0.1, 0.5, 1.0, 2.0, 5.0)
SWEEP = ("0.2", "3.8", 10)
VERIFY_SAMPLES = 10 ** 6

# memory_kernel
VOLTERRA_WIDTH = 1.0
VOLTERRA_T_MAX_LONG = 60.0  # 60k steps; the envelope is 2e-13 there, inside the cutoff
DETUNED = {"width_ratio": 1.0, "detuning": 0.3, "t_max": 40.0}
DETUNED_SIMULATE_T_MAX = 10.0
OHMIC = {"coupling": 0.1, "exponent": 1.0, "cutoff": 1.0, "qubit_frequency": 1.0}
OHMIC_SOLVER = {"dt": 0.01, "t_max": 25.0}
TABLE_POINTS = 1000
TABLE_CENTER = 100.0
# Gaussian J(w) of total weight f(0) = TABLE_WEIGHT and width TABLE_SIGMA: its
# tails vanish at the table's ends, so |b| decays smoothly through zeros.
TABLE_WEIGHT = 7.5
TABLE_SIGMA = 3.0
TABLE_T_MAX = 10.0
MODEL_VERIFY_SAMPLES = 10 ** 5

# validation
VOLTERRA_WIDTHS = (0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 10.0)
VOLTERRA_T_MAX = 10.0
BRUTE_WIDTH = 0.1
BRUTE_DENSITY = 41
ORACLE_PAIRS = 1000
CONCURRENCE_POINTS = 101
THEOREM_WIDTH = 0.5


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _seed(rng) -> int:
    return int(rng.integers(1, 2 ** 31))


def _write_ini(path: Path, sections: dict) -> str:
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()
    )
    path.write_text(text)
    return str(path)


def _random_states(rng, n: int):
    """n random qubit states (alpha, beta) with |beta|^2 <= alpha(1 - alpha)."""
    alpha = rng.uniform(size=n)
    radius = np.sqrt(alpha * (1.0 - alpha) * rng.uniform(size=n))
    return alpha, radius * np.exp(2j * np.pi * rng.uniform(size=n))


def _random_amplitudes(rng, n: int):
    """n amplitudes b uniform in modulus on [0, 1] with a uniform phase."""
    return rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "closed_form":
        return {"verify_seed": _seed(rng)}
    if workload == "memory_kernel":
        w = np.linspace(TABLE_CENTER - 100.0, TABLE_CENTER + 100.0, TABLE_POINTS)
        gauss = TABLE_WEIGHT / (math.sqrt(2.0 * math.pi) * TABLE_SIGMA) * np.exp(
            -0.5 * ((w - TABLE_CENTER) / TABLE_SIGMA) ** 2)
        table = workdir / "spectrum.txt"
        np.savetxt(table, np.column_stack([w, gauss]), fmt="%.17g", header="omega J")
        return {
            "volterra": _write_ini(workdir / "volterra.ini", {
                "model": {"width_ratio": VOLTERRA_WIDTH},
                "solver": {"method": "volterra", "t_max": VOLTERRA_T_MAX_LONG}}),
            "detuned": _write_ini(workdir / "detuned.ini", {
                "model": {"width_ratio": DETUNED["width_ratio"], "detuning": DETUNED["detuning"]},
                "solver": {"t_max": DETUNED["t_max"]}}),
            "ohmic": _write_ini(workdir / "ohmic.ini", {
                "model": {"type": "ohmic", **OHMIC}, "solver": OHMIC_SOLVER}),
            "tabulated": _write_ini(workdir / "tabulated.ini", {
                "model": {"type": "tabulated", "table": table, "qubit_frequency": TABLE_CENTER},
                "solver": {"t_max": TABLE_T_MAX}}),
            "table": str(table),
            "ohmic_seed": _seed(rng),
            "tabulated_seed": _seed(rng),
        }
    if workload == "validation":
        alpha, beta = _random_states(rng, ORACLE_PAIRS)
        mu, nu = _random_states(rng, ORACLE_PAIRS)
        return {
            "pairs": (alpha, beta, mu, nu),
            "pair_b": _random_amplitudes(rng, ORACLE_PAIRS),
            "two_b": _random_amplitudes(rng, ORACLE_PAIRS),
            "concurrence_x": rng.uniform(size=CONCURRENCE_POINTS),
            "theorem_seed": _seed(rng),
        }
    raise ValueError(f"unknown workload {workload!r}")


class ExitCode(RuntimeError):
    """The CLI returned a non-zero exit code."""


def _cli_op(name: str, argv: list, out: Path, check: Callable[[Path], dict | None]) -> Op:
    def run():
        # Looked up at call time, so the traced run sees its wrapper.
        code = nonmarkov.cli.main([str(a) for a in (*argv, "--out", out)])
        if code != 0:
            raise ExitCode(f"{name}: exit code {code}")

    def checked(_):
        counts = check(out) or {}
        counts["cli.out_bytes"] = out.stat().st_size
        return counts

    return Op(name, run, checked)


def build_ops(workload: str, inputs: dict, workdir: Path) -> list:
    return {"closed_form": _closed_form, "memory_kernel": _memory_kernel,
            "validation": _validation}[workload](inputs, workdir)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _closed_form(inputs: dict, workdir: Path) -> list:
    def simulate_check(path):
        rows = checks.check_simulate_csv(
            path, DT, lambda t: reference.lorentzian_b(1.0, SIMULATE_WIDTH, t), None)
        # The default horizon must carry the envelope below the truncation cutoff.
        k = reference.kappa(1.0, SIMULATE_WIDTH)
        t_end = DT * (rows.shape[0] - 1)
        envelope = math.exp(-0.5 * SIMULATE_WIDTH * t_end) * (1.0 + SIMULATE_WIDTH / k)
        checks.require(envelope <= 1e-8, f"simulate horizon {t_end} leaves envelope {envelope:.2e}")
        return {"cli.simulate.rows": rows.shape[0]}

    ops = [_cli_op("simulate", ["simulate", "--width-ratio", SIMULATE_WIDTH], workdir / "simulate.csv",
                   simulate_check)]
    for width in MEASURE_WIDTHS:
        ops.append(_cli_op(
            f"measure_{width:g}", ["measure", "--width-ratio", width], workdir / f"measure_{width:g}.json",
            lambda path, width=width: checks.check_measure_bundle(_json(path), width)))

    lo, hi, steps = SWEEP
    widths = np.linspace(float(lo), float(hi), steps)
    sweep_argv = ["sweep", "--width-from", lo, "--width-to", hi, "--steps", steps]
    jobs2 = workdir / "sweep_jobs2.csv"
    ops.append(_cli_op("sweep_jobs2", [*sweep_argv, "--jobs", 2], jobs2,
                       lambda path: checks.check_sweep_csv(path.read_text(), widths)))

    def sweep_jobs1_check(path):
        checks.check_sweep_csv(path.read_text(), widths)
        checks.check_identical(jobs2.read_bytes(), path.read_bytes(), "sweep at --jobs 2 and --jobs 1")

    ops.append(_cli_op("sweep_jobs1", [*sweep_argv, "--jobs", 1], workdir / "sweep_jobs1.csv",
                       sweep_jobs1_check))
    seed = inputs["verify_seed"]
    ops.append(_cli_op(
        "verify", ["verify", "--width-ratio", SIMULATE_WIDTH, "--samples", VERIFY_SAMPLES, "--seed", seed],
        workdir / "verify.json",
        lambda path: checks.check_verification(_json(path)["verification"], VERIFY_SAMPLES, seed)))
    return ops


def _memory_kernel(inputs: dict, workdir: Path) -> list:
    def volterra_check(path):
        bundle = _json(path)
        checks.require(bundle["config"]["solver"]["method"] == "volterra", "volterra config not honoured")
        checks.check_measure_bundle(bundle, VOLTERRA_WIDTH)

    def detuned_b(t):
        return reference.detuned_b(1.0, DETUNED["width_ratio"], DETUNED["detuning"], t)

    # The reference |b| decreases monotonically over the whole detuned horizon,
    # so every measure must be exactly zero.
    grid = np.abs(detuned_b(DT * np.arange(int(round(DETUNED["t_max"] / DT)) + 1)))
    checks.require(bool(np.all(np.diff(grid) < 0.0)), "detuned reference |b| is not monotone")

    def detuned_simulate_check(path):
        rows = checks.check_simulate_csv(path, DT, detuned_b, checks.VOLTERRA_TOL)
        checks.require(rows.shape[0] == int(round(DETUNED_SIMULATE_T_MAX / DT)) + 1, "detuned rows")
        return {"cli.simulate.rows": rows.shape[0]}

    def ohmic_f_check(f):
        ref = reference.ohmic_f(**OHMIC, t=f.dt * np.arange(f.values.size))
        checks.check_close(f.values, ref, 1e-6 * abs(ref[0]), "Ohmic correlation vs Gamma closed form")

    tab_t = np.arange(6) * 2.0
    tab_ref = reference.tabulated_f(np.loadtxt(inputs["table"]), TABLE_CENTER, tab_t)

    def tabulated_f_check(f):
        checks.check_close(f.values, tab_ref, 1e-9 * abs(tab_ref[0]), "tabulated correlation vs quad")

    def verify_check(seed):
        return lambda path: checks.check_verification(
            _json(path)["verification"], MODEL_VERIFY_SAMPLES, seed)

    ohmic = nonmarkov.OhmicFamily(**OHMIC)
    table = inputs["table"]
    return [
        _cli_op("measure_volterra", ["measure", "--config", inputs["volterra"]],
                workdir / "volterra.json", volterra_check),
        _cli_op("measure_detuned", ["measure", "--config", inputs["detuned"]], workdir / "detuned.json",
                lambda path: checks.check_zero_measures(_json(path), "detuned measure")),
        _cli_op("simulate_detuned",
                ["simulate", "--config", inputs["detuned"], "--t-max", DETUNED_SIMULATE_T_MAX],
                workdir / "detuned.csv", detuned_simulate_check),
        _cli_op("measure_ohmic", ["measure", "--config", inputs["ohmic"]], workdir / "ohmic.json",
                lambda path: checks.check_general_bundle(_json(path), "Ohmic measure")),
        _cli_op("verify_ohmic", ["verify", "--config", inputs["ohmic"], "--samples", MODEL_VERIFY_SAMPLES,
                                 "--seed", inputs["ohmic_seed"]],
                workdir / "ohmic_verify.json", verify_check(inputs["ohmic_seed"])),
        Op("correlation_ohmic",
           lambda: nonmarkov.correlation(ohmic, 0.5, 51), ohmic_f_check),
        _cli_op("measure_tabulated", ["measure", "--config", inputs["tabulated"]],
                workdir / "tabulated.json",
                lambda path: checks.check_general_bundle(_json(path), "tabulated measure")),
        _cli_op("verify_tabulated", ["verify", "--config", inputs["tabulated"],
                                     "--samples", MODEL_VERIFY_SAMPLES, "--seed", inputs["tabulated_seed"]],
                workdir / "tabulated_verify.json", verify_check(inputs["tabulated_seed"])),
        Op("correlation_tabulated",
           lambda: nonmarkov.correlation(nonmarkov.load_tabulated(table, TABLE_CENTER), 2.0, tab_t.size),
           tabulated_f_check),
    ]


def _validation(inputs: dict, workdir: Path) -> list:
    def volterra_op(width):
        def run():
            out = {"closed": nonmarkov.lorentzian_closed_form(1.0, width, DT * np.arange(10001))}
            for dt in (DT, DT / 2):
                cfg = nonmarkov.SolverConfig(dt=dt, t_max=VOLTERRA_T_MAX, method=nonmarkov.Method.VOLTERRA)
                f = nonmarkov.correlation(nonmarkov.Lorentzian(1.0, width), dt, cfg.steps + 1)
                out[dt] = nonmarkov.solve_volterra(f, cfg)
            return out

        def check(out):
            what = f"Volterra at width {width:g}"
            checks.check_close(out["closed"], reference.lorentzian_b(1.0, width, DT * np.arange(10001)),
                               1e-13, f"closed form at width {width:g}")
            errs = []
            for dt in (DT, DT / 2):
                traj = out[dt]
                checks.check_trajectory(traj.values, what)
                errs.append(float(np.max(np.abs(traj.values - reference.lorentzian_b(1.0, width, traj.times())))))
            checks.check_volterra(errs[0], errs[1], what)

        return Op(f"volterra_{width:g}", run, check)

    def brute_run():
        cfg = nonmarkov.SolverConfig(dt=DT, t_max=nonmarkov.default_horizon(1.0, BRUTE_WIDTH))
        traj = nonmarkov.compute_trajectory(nonmarkov.Lorentzian(1.0, BRUTE_WIDTH), cfg)
        return traj, nonmarkov.brute_force_max(traj, BRUTE_DENSITY)

    def brute_check(out):
        traj, result = out
        checks.check_trajectory(traj.values, "brute-force trajectory")
        pair = result.best_pair
        checks.check_brute_force(result.best_total, (pair.first.alpha, pair.first.beta),
                                 (pair.second.alpha, pair.second.beta),
                                 reference.geometric_totals(1.0, BRUTE_WIDTH)["n_single"])

    alpha, beta, mu, nu = inputs["pairs"]
    pair_b = inputs["pair_b"]

    def single_run():
        oracle, closed = [], []
        for i in range(ORACLE_PAIRS):
            first = nonmarkov.QubitInitialState(float(alpha[i]), complex(beta[i]))
            second = nonmarkov.QubitInitialState(float(mu[i]), complex(nu[i]))
            b = complex(pair_b[i])
            oracle.append(nonmarkov.trace_distance(nonmarkov.evolve_single(first, b),
                                                   nonmarkov.evolve_single(second, b)))
            closed.append(nonmarkov.trace_distance_single(nonmarkov.StatePair(first, second), b))
        return np.array(oracle), np.array(closed)

    def single_check(out):
        want = [reference.trace_distance(reference.evolved_qubit(alpha[i], beta[i], pair_b[i]),
                                         reference.evolved_qubit(mu[i], nu[i], pair_b[i]))
                for i in range(ORACLE_PAIRS)]
        checks.check_close(out[0], want, checks.ORACLE_TOL, "single-qubit oracle trace distance")
        checks.check_close(out[1], want, checks.ORACLE_TOL, "single-qubit closed-form trace distance")

    two_b = inputs["two_b"]

    def two_run():
        oracle, closed = [], []
        for b in two_b:
            b = complex(b)
            plus = nonmarkov.evolve_two_qubit(nonmarkov.plus_state(), nonmarkov.plus_state(), b)
            minus = nonmarkov.evolve_two_qubit(nonmarkov.minus_state(), nonmarkov.minus_state(), b)
            oracle.append(nonmarkov.trace_distance(plus, minus))
            closed.append(nonmarkov.trace_distance_two(b))
        return np.array(oracle), np.array(closed)

    def two_check(out):
        want = []
        for b in two_b:
            plus = reference.evolved_qubit(0.5, 0.5, b)
            minus = reference.evolved_qubit(0.5, -0.5, b)
            want.append(reference.trace_distance(np.kron(plus, plus), np.kron(minus, minus)))
        checks.check_close(out[0], want, checks.ORACLE_TOL, "two-qubit oracle trace distance")
        checks.check_close(out[1], want, checks.ORACLE_TOL, "two-qubit closed-form trace distance")

    xs = inputs["concurrence_x"]

    def concurrence_run():
        return np.array([
            (nonmarkov.wootters_concurrence(nonmarkov.evolve_two_qubit(nonmarkov.bell_psi(), None, x)),
             nonmarkov.wootters_concurrence(nonmarkov.evolve_two_qubit(nonmarkov.bell_phi(), None, x)),
             *nonmarkov.concurrence_bell(x))
            for x in xs
        ])

    def concurrence_check(out):
        psi, phi = reference.bell_concurrences(xs)
        for col, want, what in ((0, psi, "Wootters |Psi>"), (1, phi, "Wootters |Phi>"),
                                (2, psi, "closed-form |Psi>"), (3, phi, "closed-form |Phi>")):
            checks.check_close(out[:, col], want, checks.CONCURRENCE_TOL, f"concurrence {what}")

    theorem_seed = inputs["theorem_seed"]

    def theorem_run():
        cfg = nonmarkov.SolverConfig(dt=DT, t_max=nonmarkov.default_horizon(1.0, THEOREM_WIDTH))
        traj = nonmarkov.compute_trajectory(nonmarkov.Lorentzian(1.0, THEOREM_WIDTH), cfg)
        return traj, nonmarkov.verify_theorem(traj, samples=VERIFY_SAMPLES, seed=theorem_seed)

    def theorem_check(out):
        traj, report = out
        checks.check_trajectory(traj.values, "theorem trajectory")
        checks.check_verification(report.to_dict(), VERIFY_SAMPLES, theorem_seed)

    return [
        *(volterra_op(w) for w in VOLTERRA_WIDTHS),
        Op("brute_force", brute_run, brute_check),
        Op("oracle_single", single_run, single_check),
        Op("oracle_two", two_run, two_check),
        Op("oracle_concurrence", concurrence_run, concurrence_check),
        Op("verify_theorem", theorem_run, theorem_check),
    ]
