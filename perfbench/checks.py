"""Output checks: each raises CheckFailed when the program's output is wrong.

Every check compares against `reference` or against a property the method
must have; none compares against a stored copy of an earlier output.
Tolerances follow tests/test_acceptance.py where a criterion states one.
"""

from __future__ import annotations

import math

import numpy as np

import reference

CSV_HEADER = "t,re_b,im_b,abs_b,pop_e,d_opt,d_eg,d_two,conc_psi,conc_phi"
SWEEP_HEADER = "width_ratio,kappa,regime,n_single,n_eg,n_two_lower"

# Slack on |b| <= 1 for rounding in the last printed digit.
ABS_B_SLACK = 1e-12
# Absolute roundoff of a 12-digit value whose reference is evaluated near a zero of b.
PRINT_FLOOR = 1e-14
# Acceptance-criterion tolerances for the maxima sums (criteria 2, 3 and 8).
TOL_SINGLE = 1e-3
TOL_SINGLE_WIDE = 1e-4  # criterion 2 at width ratio >= 1
TOL_EG = 1e-3
TOL_TWO = 1e-6
VOLTERRA_TOL = 1e-6
VOLTERRA_MIN_RATIO = 3.0
BRUTE_FORCE_TOL = 1e-3
ORACLE_TOL = 1e-10
CONCURRENCE_TOL = 1e-8


class CheckFailed(Exception):
    """The program's output disagrees with the reference or a required property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def twelve_digit_tol(want: np.ndarray) -> np.ndarray:
    """Half a unit in the 12th significant digit of `want`, plus roundoff near zero."""
    mag = np.abs(want)
    exponent = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    return 0.5001 * 10.0 ** (exponent - 11.0) + PRINT_FLOOR


def require_printed(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """`got` parsed from 12-significant-digit text must be `want` rounded."""
    err = np.abs(got - want)
    tol = twelve_digit_tol(want)
    bad = np.flatnonzero(err > tol)
    require(bad.size == 0, f"{what}: {bad.size} values off beyond 12 digits "
            f"(first at index {bad[:1].tolist()}: got {got[bad[:1]].tolist()}, "
            f"want {want[bad[:1]].tolist()})")


def check_trajectory(values: np.ndarray, what: str) -> None:
    """b(0) = 1 exactly and |b| <= 1 everywhere."""
    values = np.asarray(values)
    require(values.size >= 2, f"{what}: trajectory has {values.size} samples")
    require(values[0] == 1.0, f"{what}: b(0) = {values[0]!r}, not 1")
    peak = float(np.max(np.abs(values)))
    require(peak <= 1.0 + ABS_B_SLACK, f"{what}: |b| reaches {peak!r} > 1")


def derived_columns(x: np.ndarray) -> dict:
    """The CSV's signal columns as functions of x = |b|."""
    x2 = x * x
    return {
        "abs_b": x,
        "pop_e": x2,
        "d_opt": x,
        "d_eg": x2,
        "d_two": reference.two_qubit_distance(x),
        "conc_psi": x2,
        "conc_phi": x2 * x2,
    }


def parse_csv(path, header: str) -> np.ndarray:
    """Rows of a CSV file, read straight from disk so the check stays small in memory."""
    with open(path, "rb") as fh:
        fh.seek(-1, 2)
        require(fh.read(1) == b"\n", "CSV does not end with a newline")
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        require(first == header, f"CSV header {first!r}, want {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_simulate_csv(path, dt: float, b_of_t, b_tol: float | None) -> np.ndarray:
    """Check a `simulate` CSV file against reference amplitudes `b_of_t(t)` on its grid.

    With `b_tol` None the trajectory is a closed form: every column must be
    the reference value to the 12 printed significant digits. Otherwise
    (a Volterra solve) re_b and im_b must lie within `b_tol` of the
    reference, and each signal column must be its formula of the printed
    |b| to the printed precision. Returns the parsed rows.
    """
    rows = parse_csv(path, CSV_HEADER)
    require(rows.shape[1] == 10 and rows.shape[0] >= 2, f"CSV has shape {rows.shape}")
    t = dt * np.arange(rows.shape[0])
    require_printed(rows[:, 0], t, "t")
    b_ref = np.asarray(b_of_t(t), dtype=complex)
    b = rows[:, 1] + 1j * rows[:, 2]
    check_trajectory(b, "simulate CSV")
    names = CSV_HEADER.split(",")[3:]
    if b_tol is None:
        require_printed(rows[:, 1], b_ref.real, "re_b")
        require_printed(rows[:, 2], b_ref.imag, "im_b")
        want = derived_columns(np.abs(b_ref))
        for k, name in enumerate(names, start=3):
            require_printed(rows[:, k], want[name], name)
    else:
        err = float(np.max(np.abs(b - b_ref)))
        require(err <= b_tol, f"b(t) differs from the reference by {err:.3e} > {b_tol:g}")
        want = derived_columns(np.abs(b))
        for k, name in enumerate(names, start=3):
            # |b| from the printed re_b and im_b carries their 12-digit rounding,
            # raised to the fourth power in conc_phi.
            tol = 5e-11 * np.abs(want[name]) + twelve_digit_tol(want[name])
            bad = np.flatnonzero(np.abs(rows[:, k] - want[name]) > tol)
            require(bad.size == 0, f"{name}: {bad.size} values disagree with the printed |b|")
    return rows


def check_report(report: dict, what: str) -> None:
    """Structure every maxima-sum report must have."""
    contributions = report["contributions"]
    require(all(c >= 0.0 for c in contributions), f"{what}: negative contribution")
    require(abs(report["total"] - math.fsum(contributions)) <= 1e-12,
            f"{what}: total is not the sum of its contributions")
    require(report["tail_bound"] >= 0.0, f"{what}: negative tail bound")
    require(len(report["extrema"]) == len(contributions), f"{what}: extrema/contribution count")
    for iv in report["extrema"]:
        require(0.0 <= iv["t_min"] < iv["t_max"] <= report["horizon"] + 1e-9,
                f"{what}: interval {iv['t_min']}..{iv['t_max']} out of order or past the horizon")
        require(0.0 <= iv["value_at_min"] <= iv["value_at_max"] <= 1.0 + ABS_B_SLACK,
                f"{what}: extremum values {iv['value_at_min']}, {iv['value_at_max']}")


def check_zero_measures(bundle: dict, what: str) -> None:
    """Exactly zero measures and no extrema, for monotone |b|."""
    for key in ("n_single", "n_eg", "n_two_lower"):
        check_report(bundle[key], f"{what} {key}")
        require(bundle[key]["total"] == 0.0, f"{what}: {key} = {bundle[key]['total']!r}, want exactly 0")
        require(not bundle[key]["extrema"], f"{what}: {key} reports extrema of a monotone signal")


def check_totals(got: dict, width: float, what: str) -> None:
    """n_single, n_eg, n_two_lower against the geometric totals."""
    want = reference.geometric_totals(1.0, width)
    tols = {
        "n_single": TOL_SINGLE_WIDE if width >= 1.0 else TOL_SINGLE,
        "n_eg": TOL_EG,
        "n_two_lower": TOL_TWO,
    }
    for key, tol in tols.items():
        require(abs(got[key] - want[key]) <= tol,
                f"{what}: {key} = {got[key]!r}, geometric total {want[key]!r} (tol {tol:g})")


def regime(width: float) -> str:
    disc = width * width - 2.0 * width
    return "critical" if disc == 0.0 else ("markovian" if disc > 0.0 else "non_markovian")


def check_measure_bundle(bundle: dict, width: float) -> None:
    """A resonant-Lorentzian `measure` bundle at gamma0 = 1."""
    what = f"measure at width {width:g}"
    require(bundle["regime"] == regime(width), f"{what}: regime {bundle['regime']!r}")
    require(abs(bundle["kappa"] - reference.kappa(1.0, width)) <= 1e-12 * max(1.0, width),
            f"{what}: kappa {bundle['kappa']!r}")
    if regime(width) != "non_markovian":
        check_zero_measures(bundle, what)
        return
    for key in ("n_single", "n_eg", "n_two_lower"):
        check_report(bundle[key], f"{what} {key}")
    check_totals({k: bundle[k]["total"] for k in ("n_single", "n_eg", "n_two_lower")}, width, what)


def check_general_bundle(bundle: dict, what: str) -> None:
    """Properties of any `measure` bundle whose minima vanish.

    n_two_lower >= n_single because each maximum x weighs
    x sqrt(1 + (1 - x^2)^2) >= x; n_single >= n_eg because the excited/ground
    pair rises by x^2 <= x.
    """
    for key in ("n_single", "n_eg", "n_two_lower"):
        check_report(bundle[key], f"{what} {key}")
    s, eg, two = (bundle[k]["total"] for k in ("n_single", "n_eg", "n_two_lower"))
    require(two >= s >= eg >= 0.0, f"{what}: totals out of order ({two}, {s}, {eg})")


def check_sweep_csv(text: str, widths: np.ndarray) -> None:
    rows = text.split("\n")
    require(rows[0] == SWEEP_HEADER, f"sweep header {rows[0]!r}")
    require(rows[-1] == "" and len(rows) == widths.size + 2, f"sweep has {len(rows) - 2} rows")
    for width, line in zip(widths, rows[1:-1]):
        fields = line.split(",")
        require(len(fields) == 6, f"sweep row {line!r}")
        got_width = float(fields[0])
        require_printed(np.array([got_width]), np.array([width]), "sweep width_ratio")
        require(fields[2] == regime(width), f"sweep at {width:g}: regime {fields[2]!r}")
        require_printed(np.array([float(fields[1])]), np.array([reference.kappa(1.0, width)]),
                        f"sweep kappa at {width:g}")
        totals = dict(zip(("n_single", "n_eg", "n_two_lower"), map(float, fields[3:])))
        if regime(width) == "non_markovian":
            check_totals(totals, width, f"sweep at {width:g}")
        else:
            require(all(v == 0.0 for v in totals.values()), f"sweep at {width:g}: nonzero Markovian row")


def check_identical(first: bytes, second: bytes, what: str) -> None:
    require(first == second, f"{what}: outputs differ ({len(first)} vs {len(second)} bytes)")


def check_verification(report: dict, samples: int, seed: int) -> None:
    """A `verify_theorem` report: every random pair within the bound D <= |b|."""
    require(report["samples"] == samples and report["seed"] == seed,
            f"verification ran {report['samples']} pairs with seed {report['seed']}")
    require(report["violations"] == 0, f"{report['violations']} pairs violate D(t) <= |b(t)|")
    require(report["max_ratio"] <= 1.0 + 1e-9, f"max distance ratio {report['max_ratio']!r} > 1")
    require(report["canonical_error"] <= 1e-12, f"canonical error {report['canonical_error']!r}")
    require(report["ok"] is True, "verification not ok")


def check_volterra(err: float, err_half: float, what: str) -> None:
    """Volterra error at dt and dt/2 against the closed form: small and second order."""
    require(err <= VOLTERRA_TOL, f"{what}: error {err:.3e} > {VOLTERRA_TOL:g}")
    ratio = err / err_half if err_half > 0.0 else math.inf
    require(ratio >= VOLTERRA_MIN_RATIO, f"{what}: error ratio {ratio:.2f} < {VOLTERRA_MIN_RATIO:g}")


def check_brute_force(best_total: float, first: tuple, second: tuple, n_single: float) -> None:
    """The grid optimum reaches n_single at a pair near |+>/|->.

    `first` and `second` are (alpha, beta) of the winning pair.
    """
    require(abs(best_total - n_single) <= BRUTE_FORCE_TOL,
            f"brute-force optimum {best_total!r} vs n_single {n_single!r}")
    (alpha, beta), (mu, nu) = first, second
    require(abs(alpha - 0.5) <= 0.05 and abs(mu - 0.5) <= 0.05 and abs(beta - nu) >= 0.95,
            f"brute-force pair ({alpha}, {beta}), ({mu}, {nu}) is not near |+>/|->")


def check_close(got, want, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    require(err <= tol, f"{what}: off by {err:.3e} > {tol:g}")
