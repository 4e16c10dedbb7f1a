"""Each output check passes on the program's output and fails on a corrupted copy."""

import json

import numpy as np
import pytest

import checks
import reference
from nonmarkov.cli import main


def cli(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*map(str, argv), "--out", str(out)]) == 0
    return out


def corrupt_cell(path, row, col, new):
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = new
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def bump_last_digit(cell):
    """The same 12-digit number with its last mantissa digit changed."""
    mantissa, _, exp = cell.partition("e")
    digit = int(mantissa[-1])
    return mantissa[:-1] + str((digit + 3) % 10) + ("e" + exp if exp else "")


@pytest.fixture()
def closed_csv(tmp_path):
    return cli(tmp_path, "sim.csv", "simulate", "--width-ratio", 0.1, "--t-max", 5)


def lorentzian(t):
    return reference.lorentzian_b(1.0, 0.1, t)


def test_simulate_check_accepts_program_output(closed_csv):
    rows = checks.check_simulate_csv(closed_csv, 1e-3, lorentzian, None)
    assert rows.shape == (5001, 10)


@pytest.mark.parametrize("col", range(10))
def test_simulate_check_catches_a_wrong_last_digit(closed_csv, col):
    cell = closed_csv.read_text().split("\n")[1234].split(",")[col]
    corrupt_cell(closed_csv, 1234, col, bump_last_digit(cell))
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_csv(closed_csv, 1e-3, lorentzian, None)


def test_simulate_check_catches_a_missing_row(closed_csv):
    text = closed_csv.read_text().split("\n")
    closed_csv.write_text("\n".join(text[:100] + text[101:]))
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_csv(closed_csv, 1e-3, lorentzian, None)


def test_simulate_check_catches_a_bad_initial_row(closed_csv):
    corrupt_cell(closed_csv, 1, 3, "1.0000001")
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_csv(closed_csv, 1e-3, lorentzian, None)


def test_volterra_simulate_check(tmp_path):
    ini = tmp_path / "detuned.ini"
    ini.write_text("[model]\nwidth_ratio = 1.0\ndetuning = 0.3\n[solver]\nt_max = 2\n")
    out = cli(tmp_path, "det.csv", "simulate", "--config", ini)

    def detuned(t):
        return reference.detuned_b(1.0, 1.0, 0.3, t)

    checks.check_simulate_csv(out, 1e-3, detuned, checks.VOLTERRA_TOL)
    with pytest.raises(checks.CheckFailed):  # the resonant amplitude is not the detuned one
        checks.check_simulate_csv(out, 1e-3, lambda t: reference.lorentzian_b(1.0, 1.0, t),
                                  checks.VOLTERRA_TOL)
    corrupt_cell(out, 500, 7, "0.5")
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_csv(out, 1e-3, detuned, checks.VOLTERRA_TOL)


@pytest.mark.parametrize("width", [0.1, 1.0, 2.0, 5.0])
def test_measure_check_accepts_program_output(tmp_path, width):
    bundle = json.loads(cli(tmp_path, "m.json", "measure", "--width-ratio", width).read_text())
    checks.check_measure_bundle(bundle, width)


@pytest.mark.parametrize("key,shift", [("n_single", 2e-4), ("n_eg", 2e-3), ("n_two_lower", 2e-6)])
def test_measure_check_catches_a_wrong_total(tmp_path, key, shift):
    bundle = json.loads(cli(tmp_path, "m.json", "measure", "--width-ratio", 1.0).read_text())
    bundle[key]["contributions"][0] += shift
    bundle[key]["total"] += shift
    with pytest.raises(checks.CheckFailed):
        checks.check_measure_bundle(bundle, 1.0)


def test_measure_check_catches_an_inconsistent_report(tmp_path):
    bundle = json.loads(cli(tmp_path, "m.json", "measure", "--width-ratio", 0.5).read_text())
    bundle["n_eg"]["total"] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_measure_bundle(bundle, 0.5)


def test_measure_check_catches_a_nonzero_markovian_measure(tmp_path):
    bundle = json.loads(cli(tmp_path, "m.json", "measure", "--width-ratio", 5.0).read_text())
    bundle["n_single"]["total"] = 1e-300
    bundle["n_single"]["contributions"] = [1e-300]
    bundle["n_single"]["extrema"] = [{"t_min": 1.0, "t_max": 2.0, "value_at_min": 0.0, "value_at_max": 1e-300}]
    with pytest.raises(checks.CheckFailed):
        checks.check_measure_bundle(bundle, 5.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_measure_bundle(json.loads(cli(tmp_path, "m.json", "measure",
                                                   "--width-ratio", 5.0).read_text()), 0.5)


def test_general_bundle_check(tmp_path):
    bundle = json.loads(cli(tmp_path, "m.json", "measure", "--width-ratio", 0.5).read_text())
    checks.check_general_bundle(bundle, "resonant")
    bundle["n_two_lower"]["contributions"] = [0.0] * len(bundle["n_two_lower"]["contributions"])
    bundle["n_two_lower"]["total"] = 0.0
    with pytest.raises(checks.CheckFailed):
        checks.check_general_bundle(bundle, "resonant")


def test_sweep_check(tmp_path):
    widths = np.linspace(0.2, 3.8, 4)
    argv = ["sweep", "--width-from", 0.2, "--width-to", 3.8, "--steps", 4]
    first = cli(tmp_path, "a.csv", *argv, "--jobs", 2)
    second = cli(tmp_path, "b.csv", *argv, "--jobs", 1)
    checks.check_sweep_csv(first.read_text(), widths)
    checks.check_identical(first.read_bytes(), second.read_bytes(), "sweep")
    lines = first.read_text().split("\n")
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 2e-3)
    lines[1] = ",".join(cells)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep_csv("\n".join(lines), widths)
    with pytest.raises(checks.CheckFailed):
        checks.check_identical(first.read_bytes(), "\n".join(lines).encode(), "sweep")
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep_csv(first.read_text(), np.linspace(0.2, 3.8, 5))


def test_verification_check(tmp_path):
    argv = ["verify", "--width-ratio", 0.5, "--t-max", 30, "--samples", 1000, "--seed", 9]
    report = json.loads(cli(tmp_path, "v.json", *argv).read_text())["verification"]
    checks.check_verification(report, 1000, 9)
    with pytest.raises(checks.CheckFailed):
        checks.check_verification(report, 1000, 10)
    # The program's own negative control: a weakened bound reports violations.
    out = tmp_path / "bad.json"
    assert main([*map(str, argv), "--fault-scale", "0.5", "--out", str(out)]) == 3
    with pytest.raises(checks.CheckFailed):
        checks.check_verification(json.loads(out.read_text())["verification"], 1000, 9)


def test_volterra_check():
    checks.check_volterra(4e-7, 1e-7, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_volterra(2e-6, 5e-7, "too large")
    with pytest.raises(checks.CheckFailed):
        checks.check_volterra(4e-7, 2e-7, "first order")


def test_brute_force_check():
    n_single = reference.geometric_totals(1.0, 0.1)["n_single"]
    checks.check_brute_force(n_single - 1e-4, (0.5, 0.5), (0.5, -0.5), n_single)
    with pytest.raises(checks.CheckFailed):
        checks.check_brute_force(n_single - 2e-3, (0.5, 0.5), (0.5, -0.5), n_single)
    with pytest.raises(checks.CheckFailed):
        checks.check_brute_force(n_single, (1.0, 0.0), (0.0, 0.0), n_single)


def test_oracle_check():
    rng = np.random.default_rng(5)
    want = rng.uniform(size=100)
    checks.check_close(want + 1e-12, want, checks.ORACLE_TOL, "oracle")
    bad = want.copy()
    bad[17] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_close(bad, want, checks.ORACLE_TOL, "oracle")


def test_trajectory_check():
    checks.check_trajectory(np.array([1.0, 0.5, -0.2]), "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_trajectory(np.array([0.999999, 0.5]), "b(0)")
    with pytest.raises(checks.CheckFailed):
        checks.check_trajectory(np.array([1.0, 1.000001j]), "|b| > 1")
