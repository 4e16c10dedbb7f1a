"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n [PASS|FAIL]` line (visible with -s or
in failure output) and asserts the criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from nonmarkov.amplitude import (
    Method,
    SolverConfig,
    compute_trajectory,
    default_horizon,
    lorentzian_closed_form,
    lorentzian_min_times,
    solve_volterra,
)
from nonmarkov.cli import main
from nonmarkov.dynamics import (
    QubitInitialState,
    StatePair,
    bell_phi,
    bell_psi,
    concurrence_bell,
    evolve_single,
    evolve_two_qubit,
    excited_state,
    ground_state,
    minus_state,
    optimal_pair,
    plus_state,
    population_excited,
    trace_distance_single,
    trace_distance_two,
)
from nonmarkov.linalg import trace_distance, wootters_concurrence
from nonmarkov.measure import (
    brute_force_max,
    find_extrema,
    population_measures,
    sample_state_pairs,
    verify_theorem,
)
from nonmarkov.reservoir import Lorentzian, correlation, kappa
from pair_reference import pair_blp_sum, pair_distance, signal, sum_of_rises


def report(num, description, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def measure_trajectory(width, dt=1e-3):
    cfg = SolverConfig(dt=dt, t_max=default_horizon(1.0, width), method=Method.CLOSED_FORM)
    return compute_trajectory(Lorentzian(1.0, width), cfg)


@pytest.fixture(scope="module")
def traj01():
    return measure_trajectory(0.1)


def measures(traj, width):
    """(n_single, n_eg, n_two_lower) of b(t), measured with its resonant Lorentzian of `width`."""
    return population_measures(population_excited(traj), Lorentzian(1.0, width))


def n_single(traj, width):
    return measures(traj, width)[0]


def geometric_total(width, power=1):
    q = math.exp(-math.pi * width / kappa(Lorentzian(1.0, width))) ** power
    return q / (1.0 - q)


def test_criterion_1_solver_equivalence():
    ok = True
    details = []
    for width in (0.1, 0.5, 1.0, 2.0, 10.0):
        start = time.monotonic()

        def volterra_error(dt):
            cfg = SolverConfig(dt=dt, t_max=60.0, method=Method.VOLTERRA)
            f = correlation(Lorentzian(1.0, width), dt, cfg.steps + 1)
            traj = solve_volterra(f, cfg)
            exact = lorentzian_closed_form(1.0, width, traj.times())
            return float(np.max(np.abs(traj.values - exact)))

        err = volterra_error(1e-3)
        err_half = volterra_error(5e-4)
        elapsed = time.monotonic() - start
        case_ok = err <= 1e-6 and err / err_half >= 3.0 and elapsed < 240.0
        details.append(f"width={width}: err={err:.2e} ratio={err / err_half:.1f}")
        ok = ok and case_ok
    report(1, "Volterra matches closed form to 1e-6 at dt=1e-3, order >= 2; " + "; ".join(details), ok)


def test_criterion_2_closed_form_measure(traj01):
    got_01 = n_single(traj01, 0.1).total
    got_10 = n_single(measure_trajectory(1.0), 1.0).total
    want_01 = geometric_total(0.1)
    want_10 = geometric_total(1.0)
    ok = (
        abs(got_01 - want_01) <= 1e-3
        and abs(got_01 - 0.9470) <= 1e-3
        and abs(got_10 - want_10) <= 1e-4
        and abs(got_10 - 0.04517) <= 1e-4
    )
    report(2, f"N_single(0.1)={got_01:.6f} (geom {want_01:.6f}), N_single(1.0)={got_10:.6f}", ok)


def test_criterion_3_pair_dominance(traj01):
    pair = StatePair(excited_state(), ground_state())
    got = pair_blp_sum(traj01, pair)
    want = geometric_total(0.1, power=2)
    ok = abs(got - want) <= 1e-3 and abs(got - 0.3099) <= 1e-3
    for width in np.linspace(0.1, 1.0, 10):
        traj = measure_trajectory(float(width))
        eg = pair_blp_sum(traj, pair)
        full = n_single(traj, float(width)).total
        ok = ok and eg < full
    report(3, f"N_eg(0.1)={got:.6f} (geom {want:.6f}) and N_eg < N_single on the sweep grid", ok)


def test_criterion_4_markovian_nullity():
    ok = True
    for width in (2.0, 5.0, 10.0):
        traj = measure_trajectory(width)
        n_s, _, n_t = measures(traj, width)
        eg_signal = pair_distance(traj, StatePair(excited_state(), ground_state()))
        ok = ok and n_s.total == 0.0 and sum_of_rises(eg_signal) == 0.0 and n_t.total == 0.0
        ok = ok and not n_s.intervals and not find_extrema(eg_signal) and not n_t.intervals
    report(4, "widths {2, 5, 10}: all three measures exactly 0, no extrema detected", ok)


def test_criterion_5_zero_times(traj01):
    intervals = find_extrema(pair_distance(traj01, optimal_pair()))
    expected = lorentzian_min_times(1.0, 0.1, 10)
    got = np.array([iv.t_min for iv in intervals[:10]])
    residual = np.array([iv.value_at_min for iv in intervals[:10]])
    time_err = float(np.max(np.abs(got - expected)))
    ok = got.size == 10 and time_err <= 1e-4 and float(residual.max()) <= 1e-6
    report(5, f"first 10 minima match the zero-time formula (max err {time_err:.1e}), |b| <= 1e-6 there", ok)


def test_criterion_6_theorem_suite(traj01):
    verification = verify_theorem(traj01, samples=10**4, seed=42)
    single = n_single(traj01, 0.1).total
    brute = brute_force_max(traj01, grid_density=21)
    pair = brute.best_pair
    ok = (
        verification.violations == 0
        and verification.canonical_error <= 1e-12
        and abs(brute.best_total - single) <= 1e-3
        and abs(pair.first.alpha - 0.5) <= 0.05
        and abs(pair.second.alpha - 0.5) <= 0.05
        and abs(pair.first.beta - pair.second.beta) >= 0.95
    )
    report(
        6,
        f"10^4 random pairs: 0 violations; canonical exact; brute force "
        f"{brute.best_total:.6f} vs {single:.6f}",
        ok,
    )


def test_criterion_7_oracle_equivalence():
    alpha, beta, mu, nu = sample_state_pairs(10**4, 2024)
    rng = np.random.default_rng(2025)
    bs = rng.uniform(0.0, 1.0, 10**4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10**4))
    worst_single = 0.0
    for i in range(10**4):
        pair = StatePair(
            QubitInitialState(float(alpha[i]), complex(beta[i])),
            QubitInitialState(float(mu[i]), complex(nu[i])),
        )
        closed = trace_distance_single(pair, bs[i])
        oracle = trace_distance(
            evolve_single(pair.first, bs[i]), evolve_single(pair.second, bs[i])
        )
        worst_single = max(worst_single, abs(closed - oracle))
    worst_two = 0.0
    for b in rng.uniform(0.0, 1.0, 10**4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10**4)):
        closed = trace_distance_two(b)
        oracle = trace_distance(
            evolve_two_qubit(plus_state(), plus_state(), b),
            evolve_two_qubit(minus_state(), minus_state(), b),
        )
        worst_two = max(worst_two, abs(closed - oracle))
    worst_conc = 0.0
    for x in np.linspace(0.0, 1.0, 501):
        c_psi, c_phi = concurrence_bell(x)
        worst_conc = max(
            worst_conc,
            abs(c_psi - wootters_concurrence(evolve_two_qubit(bell_psi(), None, x))),
            abs(c_phi - wootters_concurrence(evolve_two_qubit(bell_phi(), None, x))),
        )
    ok = worst_single <= 1e-10 and worst_two <= 1e-10 and worst_conc <= 1e-8
    report(
        7,
        f"closed forms vs matrix oracles: single {worst_single:.1e}, two-qubit "
        f"{worst_two:.1e}, concurrence {worst_conc:.1e}",
        ok,
    )


def test_criterion_8_two_qubit_lower_bound(traj01):
    # Eq. (14) sums the |++>/|--> distance over its own extrema, Eq. (15) over the population's.
    eq14 = sum_of_rises(signal(traj01, trace_distance_two(traj01.values)))
    eq15 = measures(traj01, 0.1)[2]
    q = math.exp(-math.pi * 0.1 / kappa(Lorentzian(1.0, 0.1)))
    xs = q ** np.arange(1, 400)
    oracle = float(np.sum(xs * np.sqrt(2.0 - 2.0 * xs**2 + xs**4)))
    ok = (
        abs(eq14 - eq15.total) <= 1e-9
        and abs(eq14 - oracle) <= 1e-6
        and abs(eq14 - 1.253) <= 1e-2
    )
    report(
        8,
        f"two-qubit bound {eq14:.6f}: equals population form to 1e-9 and "
        f"term oracle {oracle:.6f}",
        ok,
    )


def test_criterion_9_phenomenology():
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_max=60.0, method=Method.CLOSED_FORM)
    traj = compute_trajectory(Lorentzian(1.0, 0.1), cfg)
    t = traj.times()
    pop = population_excited(traj).values
    zeros = lorentzian_min_times(1.0, 0.1, 3)
    revived = pop[t > zeros[0]].max() > 0.0 and len(find_extrema(population_excited(traj))) > 0
    c_psi = np.abs(traj.values) ** 2
    c_phi = c_psi**2
    conc_ok = True
    for z in zeros:
        window = np.abs(t - z) <= 5e-3
        conc_ok = conc_ok and c_psi[window].max() <= 1e-4 and c_phi[window].max() <= 1e-4
    between = (t > zeros[0]) & (t < zeros[1])
    conc_ok = conc_ok and c_psi[between].max() > 0.01 and c_phi[between].max() > 0.01
    cfg_m = SolverConfig(dt=dt, t_max=10.0, method=Method.CLOSED_FORM)
    traj_m = compute_trajectory(Lorentzian(1.0, 10.0), cfg_m)
    xm = np.abs(traj_m.values)
    markovian_ok = (
        np.all(np.diff(xm) <= 0)
        and np.all(np.diff(xm**2) <= 0)
        and np.all(np.diff(xm * np.sqrt(2 - 2 * xm**2 + xm**4)) <= 1e-15)
    )
    ok = revived and conc_ok and markovian_ok
    report(9, "population revives and concurrences vanish/revive at 0.1; all monotone at 10", ok)


def test_criterion_10_determinism(tmp_path):
    sweep_args = ["sweep", "--width-from", "0.2", "--width-to", "1.0", "--steps", "5"]
    outputs = []
    for jobs, name in ((1, "a.csv"), (4, "b.csv"), (1, "c.csv")):
        out = tmp_path / name
        assert main([*sweep_args, "--jobs", str(jobs), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    verify_args = ["verify", "--width-ratio", "0.1", "--t-max", "60",
                   "--samples", "2000", "--seed", "42"]
    ver = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        assert main([*verify_args, "--out", str(out)]) == 0
        ver.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and ver[0] == ver[1]
    report(10, "sweep bytes identical across --jobs; verify bytes identical across runs", ok)
