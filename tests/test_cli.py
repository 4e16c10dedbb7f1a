"""Tests for the command-line front end: outputs, determinism, exit codes."""

import contextlib
import io
import json
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nonmarkov import cli, constants
from nonmarkov.amplitude import AmplitudeTrajectory, Method, compute_trajectory, lorentzian_min_times
from nonmarkov.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFICATION, main
from nonmarkov.dynamics import (
    StatePair,
    concurrence_bell,
    excited_state,
    ground_state,
    optimal_pair,
    population_excited,
    trace_distance_two,
)
from nonmarkov.measure import population_measures
from nonmarkov.reservoir import Lorentzian, kappa
from pair_reference import pair_distance

DETUNED_INI = "[model]\nwidth_ratio = 1\ndetuning = 0.3\n[solver]\nt_max = {t_max}\n"
DETUNED_01_INI = "[model]\nwidth_ratio = 0.1\ndetuning = 0.3\n[solver]\ndt = 0.01\n"
PHASE_OVERFLOW = ("nonmarkov: config error: detuning 1e+308 is too large for t up to 1000: "
                  "the phase overflows")
VOLTERRA_INI = "[solver]\nmethod = volterra\n"
OHMIC_INI = (
    "[model]\ntype = ohmic\ncoupling = 0.05\nexponent = 1.0\ncutoff = 1.0\n"
    "qubit_frequency = 1.0\n[solver]\ndt = 0.01\nt_max = 20\n"
)


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def reference_simulate_csv(traj) -> str:
    """The simulate CSV written cell by cell, one `_fmt` call per value: the byte oracle."""
    t = traj.times()
    b = traj.values
    abs_b = np.abs(b)
    d_two = trace_distance_two(b)
    pop, conc_phi = concurrence_bell(b)
    lines = ["t,re_b,im_b,abs_b,pop_e,d_opt,d_eg,d_two,conc_psi,conc_phi"]
    for i in range(b.size):
        row = (t[i], b[i].real, b[i].imag, abs_b[i], pop[i], abs_b[i], pop[i], d_two[i],
               pop[i], conc_phi[i])
        lines.append(",".join(cli._fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Fail at the first differing line; pytest's own diff of megabyte strings takes minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    pytest.fail(f"line {i} differs: {got_lines[i:i + 1]} != {want_lines[i:i + 1]} "
                f"({len(got_lines)} and {len(want_lines)} lines)")


class LineCounter:
    """A write-only binary file that keeps the number of lines written and nothing else."""

    def __init__(self):
        self.lines = 0

    def write(self, data):
        self.lines += data.count(b"\n")


class TestSimulate:
    def test_initial_row(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--width-ratio", "0.1", "--t-max", "20")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "t,re_b,im_b,abs_b,pop_e,d_opt,d_eg,d_two,conc_psi,conc_phi"
        assert lines[1] == "0,1,0,1,1,1,1,1,1,1"

    def test_population_revives_in_non_markovian_regime(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--width-ratio", "0.1", "--t-max", "25")
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
        )
        t, pop = rows[:, 0], rows[:, 4]
        after = pop[t > 8.3]
        # local maximum past the first zero: population climbs back up
        assert after.max() > 0.2
        assert t[np.argmin(pop)] < t[pop.size - 1 - np.argmax(after[::-1])]

    def test_markovian_columns_monotone(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--width-ratio", "10", "--t-max", "10")
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
        )
        for col in range(3, 10):  # abs_b through conc_phi
            assert np.all(np.diff(rows[:, col]) <= 1e-15)

    def test_rows_are_dynamics_signals(self, tmp_path):
        ini = tmp_path / "detuned.ini"
        ini.write_text(DETUNED_INI.format(t_max=10))
        code, text = run(tmp_path, "simulate", "--config", str(ini))
        assert code == EXIT_OK
        traj = cli.RunConfig(width_ratio=1.0, detuning=0.3, t_max=10.0).trajectory()
        b = traj.values
        eg_pair = StatePair(excited_state(), ground_state())
        columns = [
            traj.times(), b.real, b.imag, np.abs(b),
            population_excited(traj).values, pair_distance(traj, optimal_pair()).values,
            pair_distance(traj, eg_pair).values, trace_distance_two(b), *concurrence_bell(b),
        ]
        want = [",".join(cli._fmt(col[i]) for col in columns) for i in range(b.size)]
        # Two full blocks and a partial one.
        assert b.size > 2 * cli._CSV_BLOCK and b.size % cli._CSV_BLOCK
        assert text.splitlines()[1:] == want

    def test_stdout_matches_out_file(self, tmp_path, capfdbinary):
        # The text header, then the rows through the binary stream beneath it.
        argv = ["simulate", "--width-ratio", "0.1", "--t-max", "2.5"]
        assert main(argv) == EXIT_OK
        stdout = capfdbinary.readouterr().out
        assert run(tmp_path, *argv)[0] == EXIT_OK
        rows = stdout.count(b"\n") - 1
        assert rows == 2501 and rows % cli._CSV_BLOCK  # two full blocks and a partial one
        assert stdout == (tmp_path / "out.txt").read_bytes()

    def test_text_stdout_without_binary_buffer_matches_out_file(self, tmp_path):
        # io.StringIO has no binary stream beneath; the rows go to it as text.
        argv = ["simulate", "--width-ratio", "0.1", "--t-max", "2.5"]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == EXIT_OK
        assert run(tmp_path, *argv)[0] == EXIT_OK
        assert stdout.getvalue().encode("ascii") == (tmp_path / "out.txt").read_bytes()

    def test_detuned_default_horizon_decays(self, tmp_path):
        # The slower pole decays at 0.0218, not at the resonant width/2 = 0.05.
        ini = tmp_path / "detuned.ini"
        ini.write_text("[model]\nwidth_ratio = 0.1\ndetuning = 0.3\n[solver]\ndt = 0.01\n")
        code, text = run(tmp_path, "simulate", "--config", str(ini))
        assert code == EXIT_OK
        last = text.splitlines()[-1].split(",")
        assert float(last[0]) > 800.0 and float(last[3]) <= 1e-8

    def test_auto_method_is_closed_form_for_every_lorentzian(self):
        for detuning in (0.0, 0.3):
            cfg = cli.RunConfig(width_ratio=1.0, detuning=detuning)
            assert cfg.build_solver(cfg.build_model()).method is Method.CLOSED_FORM

    def test_twelve_significant_digits(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--width-ratio", "0.5", "--t-max", "5")
        cell = text.splitlines()[2].split(",")[1]
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) <= 12


class TestBlockWriter:
    @pytest.mark.parametrize("t_max, rows", [("1.022", 1023), ("1.023", 1024), ("1.024", 1025),
                                             ("2.048", 2049), ("4.094", 4095), ("4.095", 4096),
                                             ("4.096", 4097), ("8.192", 8193)])
    @pytest.mark.parametrize("model", ["resonant", "detuned"])
    def test_block_boundaries_match_per_cell_writer(self, tmp_path, model, t_max, rows):
        if model == "resonant":
            cfg = cli.RunConfig(width_ratio=0.1, t_max=float(t_max))
            argv = ["simulate", "--width-ratio", "0.1", "--t-max", t_max]
        else:
            ini = tmp_path / "detuned.ini"
            ini.write_text(DETUNED_INI.format(t_max=t_max))
            cfg = cli.RunConfig(width_ratio=1.0, detuning=0.3, t_max=float(t_max))
            argv = ["simulate", "--config", str(ini)]
        code, text = run(tmp_path, *argv)
        assert code == EXIT_OK
        traj = cfg.trajectory()
        assert traj.values.size == rows and text.count("\n") == rows + 1
        assert_same_text(text, reference_simulate_csv(traj))
        if model == "detuned":
            im_b = [line.split(",")[2] for line in text.splitlines()[2:]]
            assert all(cell.startswith("-") and float(cell) < 0 for cell in im_b)

    def test_cells_match_percent_g_formatter(self):
        """Seeded fuzz of every cell path against Python's own `%.12g`."""
        rng = np.random.default_rng(17)
        ties = rng.integers(10**11, 10**12, 3000) * 10 + 5  # 13 digits ending in 5
        neighbours = []
        for direction in (np.inf, 0.0):
            x = np.array([1e-5, 1e-4, 1e11, 1e12])
            for _ in range(4):
                neighbours.append(x)
                x = np.nextafter(x, direction)
        values = np.concatenate([
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),  # any bits
            np.ldexp(rng.uniform(1, 2, 2098), np.arange(-1074, 1024)),  # every exponent
            [float(f"{d}e{x}") for d, x in zip(ties.tolist(), rng.integers(-30, 30, 3000).tolist())],
            [float(f"9.9999999999996e{x}") for x in range(-310, 300, 3)],  # round up to 1e{x+1}
            *neighbours,
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.1, 1.0, 123456789012.0, 999999999999.5, 0.00012345],
            1e-3 * np.arange(5000),
            rng.uniform(-1, 1, 5000) * 10.0 ** rng.integers(-12, 14, 5000),
        ])
        values = np.concatenate([values, -values])
        # Each of the seven distinct columns sees the values in another order.
        cols = [np.roll(values, 997 * j) for j in range(7)]
        blocks = ([col[lo:lo + cli._CSV_BLOCK] for col in cols]
                  for lo in range(0, values.size, cli._CSV_BLOCK))
        sink = io.BytesIO()
        cli._write_rows(sink, blocks)
        fields = [cols[j] for j in (0, 1, 2, 3, 4, 3, 4, 5, 4, 6)]
        got = sink.getvalue().decode("ascii").splitlines()
        assert len(got) == values.size
        bad = [(i, line) for i, line in enumerate(got)
               if line != ",".join("%.12g" % f[i] for f in fields)]
        assert not bad, f"{len(bad)} rows differ, first {bad[:3]}"

    def test_memory_does_not_grow_with_rows(self):
        rng = np.random.default_rng(3)
        for rows in (20_000, 200_000):
            b = rng.uniform(0, 1, rows) * np.exp(2j * np.pi * rng.uniform(size=rows))
            b[0] = 1.0
            traj = AmplitudeTrajectory(dt=1e-3, values=b)
            sink = LineCounter()
            # Allocations from here on are the signals' and the writer's; b exists already.
            tracemalloc.start()
            try:
                cli._write_rows(sink, cli._signal_blocks(traj))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sink.lines == rows
            assert peak < 8 * 2**20, f"{rows} rows: writer peaked at {peak / 2**20:.1f} MiB"


class TestMeasure:
    def test_non_markovian_bundle(self, tmp_path):
        code, text = run(tmp_path, "measure", "--width-ratio", "0.1")
        assert code == EXIT_OK
        data = json.loads(text)
        assert data["regime"] == "non_markovian"
        assert data["n_single"]["total"] == pytest.approx(0.9470, abs=1e-3)
        assert data["n_eg"]["total"] == pytest.approx(0.3099, abs=1e-3)
        assert data["n_two_lower"]["total"] == pytest.approx(1.253, abs=1e-2)

    def test_markovian_bundle_zero(self, tmp_path):
        code, text = run(tmp_path, "measure", "--width-ratio", "10")
        data = json.loads(text)
        assert data["regime"] == "markovian"
        for key in ("n_single", "n_eg", "n_two_lower"):
            assert data[key]["total"] == 0.0

    def test_critical_bundle_zero(self, tmp_path):
        code, text = run(tmp_path, "measure", "--width-ratio", "2")
        data = json.loads(text)
        assert data["regime"] == "critical"
        for key in ("n_single", "n_eg", "n_two_lower"):
            assert data[key]["total"] == 0.0

    @pytest.mark.parametrize(
        "ini_text, regime, kap",
        [("[model]\nwidth_ratio = 0.5\n", "non_markovian", kappa(Lorentzian(1.0, 0.5))),
         (DETUNED_INI.format(t_max=40), None, None),
         (OHMIC_INI, None, None)],
        ids=["resonant", "detuned", "ohmic"],
    )
    def test_regime_and_kappa_from_single_report(self, tmp_path, ini_text, regime, kap):
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text)
        code, text = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_OK
        bundle = json.loads(text)
        assert bundle["regime"] == bundle["n_single"]["regime"] == regime
        assert bundle["kappa"] == bundle["n_single"]["kappa"] == kap

    @pytest.mark.parametrize("ini_text", ("", VOLTERRA_INI), ids=["closed_form", "volterra"])
    def test_short_horizon_is_measured(self, tmp_path, ini_text):
        # A horizon that leaves the envelope above the cutoff is measured on
        # a grid too: the tail covers the maxima past it.
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text)
        code, text = run(tmp_path, "measure", "--config", str(ini), "--width-ratio", "0.1",
                         "--t-max", "30")
        assert code == EXIT_OK
        report = json.loads(text)["n_single"]
        assert len(report["extrema"]) == 2
        assert 0.0 <= report["closed_form_total"] - report["total"] <= report["tail_bound"]


class TestSweep:
    def test_orderings_and_endpoint_consistency(self, tmp_path):
        code, text = run(
            tmp_path, "sweep", "--width-from", "0.1", "--width-to", "1.0", "--steps", "10"
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "width_ratio,kappa,regime,n_single,n_eg,n_two_lower"
        rows = [line.split(",") for line in lines[1:]]
        n_single = [float(r[3]) for r in rows]
        n_eg = [float(r[4]) for r in rows]
        assert all(a > b for a, b in zip(n_single, n_single[1:]))
        assert all(eg < full for eg, full in zip(n_eg, n_single))
        _, first = run(tmp_path, "measure", "--width-ratio", "0.1")
        assert json.loads(first)["n_single"]["total"] == pytest.approx(
            n_single[0], abs=1e-12
        )

    def test_jobs_do_not_change_bytes(self, tmp_path):
        args = ["sweep", "--width-from", "0.3", "--width-to", "0.9", "--steps", "4"]
        _, serial = run(tmp_path, *args, "--jobs", "1")
        _, parallel = run(tmp_path, *args, "--jobs", "3")
        assert serial == parallel

    def test_config_settings_honoured(self, tmp_path):
        ini = tmp_path / "detuned.ini"
        ini.write_text("[model]\ndetuning = 0.3\n[solver]\nmethod = volterra\nt_max = 40\n")
        args = ["sweep", "--width-from", "1", "--width-to", "1.5", "--steps", "2"]
        _, serial = run(tmp_path, *args, "--config", str(ini), "--jobs", "1")
        _, parallel = run(tmp_path, *args, "--config", str(ini), "--jobs", "2")
        _, resonant = run(tmp_path, *args, "--t-max", "40")
        assert serial == parallel
        detuned_totals = [float(row.split(",")[3]) for row in serial.splitlines()[1:]]
        resonant_totals = [float(row.split(",")[3]) for row in resonant.splitlines()[1:]]
        assert detuned_totals == [0.0, 0.0]
        # Regime and kappa belong to the resonant closed form: empty when detuned.
        assert [row.split(",")[1:3] for row in serial.splitlines()[1:]] == [["", ""], ["", ""]]
        # q/(1 - q) with q = exp(-pi * width / kappa)
        assert resonant_totals == pytest.approx([0.0451657, 0.0043523], rel=1e-4)

    def test_non_lorentzian_model_rejected(self, tmp_path):
        ini = tmp_path / "ohmic.ini"
        ini.write_text(
            "[model]\ntype = ohmic\ncoupling = 0.2\nexponent = 1.0\ncutoff = 2.0\n"
            "qubit_frequency = 5.0\n\n[solver]\nt_max = 5.0\n"
        )
        code, _ = run(tmp_path, "sweep", "--width-from", "1", "--width-to", "2",
                      "--steps", "2", "--config", str(ini))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "jobs, steps, cpus, expected",
        [(8, 2, 3, [2]), (8, 5, 3, [3]), (2, 5, 3, [2]), (8, 5, 1, []), (8, 5, None, [])],
    )
    def test_worker_count_capped(self, tmp_path, monkeypatch, jobs, steps, cpus, expected):
        created = []

        class RecordingPool:
            """Runs the points in this process and records the requested size."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        ini = tmp_path / "volterra.ini"  # every point builds a grid
        ini.write_text(VOLTERRA_INI)
        code, text = run(tmp_path, "sweep", "--width-from", "5", "--width-to", "10",
                         "--steps", str(steps), "--jobs", str(jobs), "--config", str(ini))
        assert code == EXIT_OK
        assert len(text.splitlines()) == steps + 1
        assert created == expected

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_step_cap_checked_before_any_point(self, tmp_path, monkeypatch, capsys, jobs):
        # The last width is over the cap; no earlier point may run first.
        started = []

        def pool(*args, **kwargs):
            started.append("pool")
            raise AssertionError("no pool may start")

        monkeypatch.setattr(cli, "_sweep_point", lambda cfg: started.append(cfg.width_ratio))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        ini = tmp_path / "volterra.ini"  # every point builds a grid
        ini.write_text(VOLTERRA_INI)
        code, _ = run(tmp_path, "sweep", "--width-from", "0.1", "--width-to", "1e-6",
                      "--steps", "3", "--jobs", jobs, "--config", str(ini))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "exceeds the cap" in err
        assert started == []

    def test_step_floor(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--width-from", "0.1", "--width-to", "1.0",
                      "--steps", "1")
        assert code == EXIT_CONFIG


class TestVerify:
    def test_clean_run(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--width-ratio", "0.1", "--t-max", "60",
            "--samples", "10000", "--seed", "42",
        )
        assert code == EXIT_OK
        data = json.loads(text)
        assert data["verification"]["violations"] == 0

    def test_injected_fault_exits_3(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--width-ratio", "0.1", "--t-max", "60",
            "--samples", "200", "--seed", "42", "--fault-scale", "0.9",
        )
        assert code == EXIT_VERIFICATION
        assert "worst_pair" in json.loads(text)["verification"]

    def test_same_seed_byte_identical(self, tmp_path):
        args = ("verify", "--width-ratio", "0.1", "--t-max", "60",
                "--samples", "500", "--seed", "11")
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b


class TestConfigHandling:
    def test_config_file_round_trip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[model]\ntype = lorentzian\nwidth_ratio = 0.5\n"
            "[solver]\ndt = 0.001\n"
        )
        _, from_file = run(tmp_path, "measure", "--config", str(ini))
        _, from_flags = run(tmp_path, "measure", "--width-ratio", "0.5", "--dt", "0.001")
        assert json.loads(from_file)["n_single"] == json.loads(from_flags)["n_single"]

    def test_relative_table_path_is_read_next_to_config(self, tmp_path, monkeypatch):
        w = np.linspace(0.0, 40.0, 201)
        np.savetxt(tmp_path / "t.txt", np.column_stack([w, np.exp(-0.5 * ((w - 20.0) / 3.0) ** 2)]))
        rest = "qubit_frequency = 20\n[solver]\ndt = 0.01\nt_max = 10\n"
        (tmp_path / "t.ini").write_text(f"[model]\ntype = tabulated\ntable = t.txt\n{rest}")
        (tmp_path / "abs.ini").write_text(
            f"[model]\ntype = tabulated\ntable = {tmp_path / 't.txt'}\n{rest}"
        )
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, relative = run(work, "measure", "--config", "../t.ini")
        assert code == EXIT_OK
        code, absolute = run(work, "measure", "--config", str(tmp_path / "abs.ini"))
        assert code == EXIT_OK
        relative, absolute = json.loads(relative), json.loads(absolute)
        assert relative.pop("config")["model"]["table"] == "../t.txt"
        assert absolute.pop("config")["model"]["table"] == str(tmp_path / "t.txt")
        assert relative == absolute

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nwidth_ratio = 0.5\nunknown_knob = 3\n")
        code, _ = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_CONFIG

    def test_removed_tolerance_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "old.ini"
        ini.write_text("[solver]\ntolerance = 1e-6\n")
        code, _ = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_CONFIG
        assert "unknown key 'tolerance' in section [solver]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "sweep"])
    def test_removed_measure_section_rejected(self, tmp_path, capsys, command):
        ini = tmp_path / "old.ini"
        ini.write_text("[measure]\nmin_tolerance = 1e-6\n")
        argv = [command, "--config", str(ini)]
        if command == "sweep":
            argv += ["--width-from", "5", "--width-to", "10", "--steps", "2"]
        code, _ = run(tmp_path, *argv)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "nonmarkov: config error: unknown config section [measure]\n"

    @pytest.mark.parametrize(
        "text, fragment",
        [("[run]\nseed = abc\n", "seed = 'abc' is not an integer"),
         ("[model]\nwidth_ratio = wide\n", "width_ratio = 'wide' is not a number"),
         ("seed = 42\n", "no section headers"),
         ("[run]\nseed = 5%\n", "cannot parse config file")],
    )
    def test_unparsable_file_is_one_line_config_error(self, tmp_path, capsys, text, fragment):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        code, _ = run(tmp_path, "verify", "--config", str(ini))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert fragment in err
        assert err.count("\n") == 1 and err.startswith("nonmarkov: config error:")

    @pytest.mark.parametrize(
        "command, section, key",
        [("measure", "run", "jobs"), ("measure", "run", "samples"), ("measure", "run", "seed"),
         ("simulate", "run", "seed"), ("verify", "run", "jobs"),
         ("sweep", "model", "width_ratio"), ("sweep", "run", "samples")],
    )
    def test_key_the_subcommand_does_not_read_rejected(self, tmp_path, capsys, command,
                                                       section, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = 7\n")
        argv = [command, "--config", str(ini)]
        if command == "sweep":
            argv += ["--width-from", "5", "--width-to", "10", "--steps", "2"]
        code, _ = run(tmp_path, *argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == (f"nonmarkov: config error: {command} does not read key {key!r} "
                       f"in section [{section}]\n")

    @pytest.mark.parametrize(
        "command, text",
        [("simulate", "[model]\nwidth_ratio = 10\n[solver]\nt_max = 1\n"),
         ("measure", "[model]\nwidth_ratio = 10\n"),
         ("sweep", "[model]\ndetuning = 0\n[run]\njobs = 1\n"),
         ("verify", "[model]\nwidth_ratio = 10\n[run]\nseed = 3\nsamples = 100\n")],
    )
    def test_keys_the_subcommand_reads_accepted(self, tmp_path, command, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        argv = [command, "--config", str(ini)]
        if command == "sweep":
            argv += ["--width-from", "5", "--width-to", "10", "--steps", "2"]
        code, _ = run(tmp_path, *argv)
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "model_type, key",
        [("lorentzian", key) for key in ("coupling", "exponent", "cutoff", "table",
                                         "qubit_frequency")]
        + [("ohmic", key) for key in ("width_ratio", "detuning", "table")]
        + [("tabulated", key) for key in ("width_ratio", "detuning", "coupling", "exponent",
                                          "cutoff")],
    )
    def test_model_key_the_type_does_not_use_rejected(self, tmp_path, capsys, model_type, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\ntype = {model_type}\n{key} = 7\n")
        code, _ = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"nonmarkov: config error: model type {model_type!r} does not use {key}\n")

    @pytest.mark.parametrize("model_type", ["ohmic", "tabulated"])
    def test_width_ratio_flag_rejected_for_other_model_types(self, tmp_path, capsys, model_type):
        (tmp_path / "t.txt").write_text("0 0\n40 1\n")
        ini = tmp_path / "run.ini"
        ini.write_text(OHMIC_INI if model_type == "ohmic" else
                       "[model]\ntype = tabulated\ntable = t.txt\nqubit_frequency = 20\n"
                       "[solver]\nt_max = 10\n")
        code, _ = run(tmp_path, "measure", "--config", str(ini), "--width-ratio", "9")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"nonmarkov: config error: model type {model_type!r} does not use width_ratio\n")

    def test_unused_model_keys_named_in_table_order(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(OHMIC_INI.replace("[solver]", "detuning = 3\nwidth_ratio = 7\n[solver]"))
        code, _ = run(tmp_path, "measure", "--config", str(ini), "--width-ratio", "9")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "nonmarkov: config error: model type 'ohmic' does not use width_ratio, detuning\n")

    def test_unknown_model_type_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\ntype = lorentzian ; inline comments are part of the value\n")
        code, _ = run(tmp_path, "simulate", "--config", str(ini))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "nonmarkov: config error: unknown model type "
            "'lorentzian ; inline comments are part of the value'; "
            "known types: lorentzian, ohmic, tabulated\n")

    def test_gamma0_key_rejected(self, tmp_path, capsys):
        # The CLI fixes gamma0 = 1: the measures depend only on width/gamma0.
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\ngamma0 = 2\nwidth_ratio = 0.5\n")
        code, _ = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "nonmarkov: config error: unknown key 'gamma0' in section [model]\n")

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[mystery]\nx = 1\n")
        code, _ = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_CONFIG

    def test_flags_override_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nwidth_ratio = 10\n")
        _, text = run(tmp_path, "measure", "--config", str(ini), "--width-ratio", "0.1")
        assert json.loads(text)["regime"] == "non_markovian"

    def test_negative_width_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "measure", "--width-ratio", "-0.5")
        assert code == EXIT_CONFIG

    def test_format_mismatch_rejected(self, tmp_path, capsys):
        # Every subcommand emits one format, so there is no --format flag.
        with pytest.raises(SystemExit) as exit_info:
            run(tmp_path, "measure", "--width-ratio", "0.5", "--format", "json")
        assert exit_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["measure", "--jobs", "4"], ["simulate", "--min-tolerance", "0.5"],
         ["verify", "--min-tolerance", "0.5"], ["measure", "--min-tolerance", "0.5"],
         ["sweep", "--min-tolerance", "0.5", "--width-from", "5", "--width-to", "10", "--steps", "2"],
         ["sweep", "--width-ratio", "7", "--width-from", "5", "--width-to", "10", "--steps", "2"]],
        ids=["measure_jobs", "simulate_min_tolerance", "verify_min_tolerance",
             "measure_min_tolerance", "sweep_min_tolerance", "sweep_width_ratio"],
    )
    def test_flag_of_other_subcommand_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run(tmp_path, *argv, "--width-ratio", "0.5")
        err = capsys.readouterr().err
        assert exit_info.value.code == EXIT_CONFIG
        assert err.count("\n") == 1 and f"unrecognized arguments: {argv[1]}" in err

    @pytest.mark.parametrize(
        "argv, fragment",
        [(["measure", "--t-max", "inf"], "t_max must be positive and finite"),
         (["verify", "--seed", "-1"], "seed must be nonnegative"),
         (["measure", "--width-ratio", "10", "--out", "{tmp}/missing/x.json"],
          "cannot write output"),
         (["measure", "--config", "{tmp}/table.ini"], "table '{tmp}/missing.txt'"),
         # Negative values that argparse's own matcher reads as option names.
         (["measure", "--t-max", "-1e-3"], "t_max must be positive and finite, got -0.001"),
         (["measure", "--width-ratio", "-inf"], "width must be positive, got -inf"),
         (["measure", "--width-ratio", "-1E+2"], "width must be positive, got -100.0"),
         (["sweep", "--width-from", "1", "--width-to", "inf", "--steps", "3"],
          "width ratios must be positive and finite, got 1.0 to inf"),
         (["sweep", "--width-from", "inf", "--width-to", "1", "--steps", "3"],
          "width ratios must be positive and finite, got inf to 1.0"),
         (["measure", "--width-ratio", "1e155"], "width 1e+155 is too large: width^2 overflows"),
         (["sweep", "--width-from", "1", "--width-to", "1e308", "--steps", "3"],
          "width 5e+307 is too large: width^2 overflows"),
         # A non-finite scale would write NaN or Infinity, which is not JSON.
         (["verify", "--width-ratio", "1", "--samples", "1000", "--fault-scale", "nan"],
          "fault_scale must be finite, got nan"),
         (["verify", "--width-ratio", "1", "--samples", "1000", "--fault-scale", "inf"],
          "fault_scale must be finite, got inf"),
         (["verify", "--width-ratio", "1", "--samples", "1000", "--fault-scale", "-inf"],
          "fault_scale must be finite, got -inf")],
        ids=["t_max_inf", "negative_seed", "output_directory_missing", "table_missing",
             "t_max_exponent",
             "width_ratio_minus_inf", "width_ratio_upper_exponent", "sweep_width_to_inf",
             "sweep_width_from_inf", "width_ratio_square_overflows", "sweep_width_square_overflows",
             "fault_scale_nan", "fault_scale_inf", "fault_scale_minus_inf"],
    )
    def test_bad_input_is_one_line_config_error(self, tmp_path, capsys, argv, fragment):
        (tmp_path / "table.ini").write_text(
            f"[model]\ntype = tabulated\ntable = {tmp_path}/missing.txt\nqubit_frequency = 1\n"
            "[solver]\nt_max = 10\n"
        )
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out.txt")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("nonmarkov: config error: ")
        assert fragment.format(tmp=tmp_path) in err and "Traceback" not in err

    def test_non_finite_fault_scale_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        # Width 0.1 at detuning 1 takes 4.4 M steps to its default horizon.
        ini = tmp_path / "detuned.ini"
        ini.write_text("[model]\nwidth_ratio = 0.1\ndetuning = 1\n")
        cfg = cli.RunConfig(width_ratio=0.1, detuning=1.0)
        assert cfg.build_solver(cfg.build_model()).steps > 4_400_000

        def fail(*args, **kwargs):
            raise AssertionError("compute_trajectory ran")

        monkeypatch.setattr(cli, "compute_trajectory", fail)
        out = tmp_path / "v.json"
        code = main(["verify", "--config", str(ini), "--fault-scale", "nan", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "nonmarkov: config error: fault_scale must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "table, fragment",
        [("", "points must be an (n >= 2, 2) array"),
         ("# w J\n", "points must be an (n >= 2, 2) array"),
         ("0 0\n1 1e308\n2 1e308\n3 0\n", "the trapezoid integral of the tabulated J overflows"),
         ("0 1e308\n1 1e308\n", "the trapezoid integral of the tabulated J overflows"),
         ("0 0\n1e-10 1e300\n1 0\n", "a slope of the tabulated J overflows")],
        ids=["empty", "comment_only", "weight_overflows", "flat_weight_overflows",
             "slope_overflows"],
    )
    def test_bad_table_is_one_line_config_error(self, tmp_path, capsys, table, fragment):
        (tmp_path / "t.txt").write_text(table)
        ini = tmp_path / "t.ini"
        ini.write_text("[model]\ntype = tabulated\ntable = t.txt\nqubit_frequency = 0.5\n"
                       "[solver]\ndt = 0.01\nt_max = 1\n")
        assert run(tmp_path, "measure", "--config", str(ini))[0] == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("nonmarkov: config error: ")
        assert fragment in err

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        # numpy's allocation failure is a MemoryError subclass; the sweep's
        # width grid is the first array a huge --steps asks for.
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.24 GiB for an array with shape (300000000,)")

        monkeypatch.setattr(np, "linspace", fail)
        code, _ = run(tmp_path, "sweep", "--width-from", "3", "--width-to", "4",
                      "--steps", "300000000", "--t-max", "1", "--dt", "0.1")
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == ("nonmarkov: out of memory: Unable to allocate 2.24 GiB for an array "
                       "with shape (300000000,)\n")

    def test_missing_t_max_for_ohmic(self, tmp_path):
        ini = tmp_path / "ohmic.ini"
        ini.write_text(
            "[model]\ntype = ohmic\ncoupling = 0.2\nexponent = 1.0\ncutoff = 2.0\n"
            "qubit_frequency = 5.0\n"
        )
        code, _ = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_CONFIG


class TestEffectiveConfigRoundTrip:
    @staticmethod
    def rerun_from_block(tmp_path, argv):
        """Run argv, write its `config` block back as INI, rerun from that file alone."""
        _, first = run(tmp_path, *argv)
        eff = json.loads(first)["config"]
        reads = cli._READS[argv[0]]
        assert set(eff) == set(reads)
        lines = []
        for section, keys in eff.items():
            assert set(keys) <= reads[section]
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in keys.items() if value is not None]
        ini = tmp_path / "effective.ini"
        ini.write_text("\n".join(lines) + "\n")
        code, second = run(tmp_path, argv[0], "--config", str(ini))
        assert code == EXIT_OK
        return first, second

    def test_rerunning_effective_config_reproduces_output(self, tmp_path):
        first, second = self.rerun_from_block(
            tmp_path, ["measure", "--width-ratio", "0.3", "--dt", "0.002"])
        assert first == second

    def test_rerunning_verify_config_reproduces_output(self, tmp_path):
        first, second = self.rerun_from_block(
            tmp_path, ["verify", "--width-ratio", "0.3", "--samples", "500", "--seed", "3"])
        assert first == second

    @pytest.mark.parametrize("model_type", ["ohmic", "tabulated"])
    @pytest.mark.parametrize("command", ["measure", "verify"])
    def test_rerunning_other_model_config_reproduces_output(self, tmp_path, command, model_type):
        w = np.linspace(0.0, 40.0, 201)
        spectrum = np.exp(-0.5 * ((w - 20.0) / 3.0) ** 2)
        np.savetxt(tmp_path / "t.txt", np.column_stack([w, spectrum]))
        ini = tmp_path / "model.ini"
        ini.write_text(OHMIC_INI if model_type == "ohmic" else
                       "[model]\ntype = tabulated\ntable = t.txt\nqubit_frequency = 20\n"
                       "[solver]\ndt = 0.01\nt_max = 10\n")
        argv = [command, "--config", str(ini)]
        if command == "verify":
            argv += ["--samples", "500", "--seed", "3"]
        first, second = self.rerun_from_block(tmp_path, argv)
        assert first == second
        model = json.loads(first)["config"]["model"]
        assert model["type"] == model_type
        assert "width_ratio" not in model and "detuning" not in model


class TestStepCap:
    @pytest.mark.parametrize(
        "argv, steps",
        [(["simulate", "--dt", "1e-300"], "3.864073394e+302"),
         (["verify", "--dt", "1e-300", "--t-max", "1e300"], "inf"),
         (["verify", "--dt", "1", "--t-max", str(constants.MAX_STEPS + 1)],
          str(constants.MAX_STEPS + 1)),
         (["simulate", "--width-ratio", "1e-6"], "3.822906956e+10")],
        ids=["tiny_dt", "infinite_ratio", "one_past_cap", "default_horizon"],
    )
    def test_rejected_before_allocating(self, tmp_path, capsys, argv, steps):
        tracemalloc.start()
        try:
            code = main([*argv, "--out", str(tmp_path / "out.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"nonmarkov: config error: t_max/dt = {steps}") and err.count("\n") == 1
        assert f"exceeds the cap of {constants.MAX_STEPS} steps" in err
        assert peak < 2**20

    @pytest.mark.parametrize("ini_text", [
        "[model]\ntype = ohmic\ncoupling = 0.1\nexponent = 1\ncutoff = 1\nqubit_frequency = 1\n"
        "[solver]\ndt = 0.01\nt_max = 1310.72\n",
        "[model]\nwidth_ratio = 1\n[solver]\nmethod = volterra\nt_max = 131.072\n",
    ], ids=["ohmic_complex", "resonant_real"])
    def test_volterra_measure_within_step_budget(self, tmp_path, ini_text):
        # MAX_STEPS is a 2 GiB budget at 256 bytes per step, which a Volterra measure must fit.
        steps = 2**17
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text)
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, "measure", "--config", str(ini))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 256 * steps, f"peak {peak / steps:.0f} bytes per step"

    def test_closed_form_measure_within_20_bytes_per_step(self):
        # The closed-form grid chain that `measure` no longer runs, through the
        # library: a real b and its population, with the checks' one byte a
        # step; b is freed before the extremum search, and the closed form and
        # the search hold only fixed blocks. 386 407 steps at the default horizon.
        model = Lorentzian(1.0, 0.1)
        solver = cli.RunConfig(width_ratio=0.1).build_solver(model)
        tracemalloc.start()
        try:
            reports = population_measures(population_excited(compute_trajectory(model, solver)), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports[0].intervals) == 25
        assert peak <= 20 * solver.steps, f"peak {peak / solver.steps:.1f} bytes per step"

    @pytest.mark.parametrize("extra, allowed", [(0.0, True), (0.4, True), (0.6, False)])
    def test_cap_is_on_the_rounded_count(self, extra, allowed):
        # build_solver allocates nothing, so the cap itself is checked without running it.
        cfg = cli.RunConfig(dt=1.0, t_max=constants.MAX_STEPS + extra)
        model = cfg.build_model()
        if allowed:
            assert cfg.build_solver(model).steps == constants.MAX_STEPS
        else:
            with pytest.raises(cli.ConfigError, match="exceeds the cap"):
                cfg.build_solver(model)


class TestGridFreeMeasure:
    """A resonant Lorentzian in closed form: `measure` and `sweep` read the exact extrema."""

    def test_extrema_times_exact(self, tmp_path):
        code, text = run(tmp_path, "measure", "--width-ratio", "0.1")
        assert code == EXIT_OK
        bundle = json.loads(text)
        k = kappa(Lorentzian(1.0, 0.1))
        for key in ("n_single", "n_eg", "n_two_lower"):
            extrema = bundle[key]["extrema"]
            n = len(extrema)
            assert n == 25
            np.testing.assert_allclose([iv["t_min"] for iv in extrema],
                                       lorentzian_min_times(1.0, 0.1, n), rtol=1e-12, atol=0)
            np.testing.assert_allclose([iv["t_max"] for iv in extrema],
                                       2 * np.pi * np.arange(1, n + 1) / k, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("width, intervals", [("0.01", 83), ("0.1", 25), ("0.5", 10),
                                                  ("1", 6), ("0.002", 185), ("0.0005", 371)])
    def test_narrow_widths_run_within_the_tail(self, tmp_path, width, intervals):
        # 0.002 and 0.0005 are past the step cap at dt 1e-3 on a grid.
        code, text = run(tmp_path, "measure", "--width-ratio", width)
        assert code == EXIT_OK
        report = json.loads(text)["n_single"]
        assert len(report["extrema"]) == intervals
        assert 0.0 <= report["closed_form_total"] - report["total"] <= report["tail_bound"]

    def test_dt_has_no_effect(self, tmp_path):
        _, coarse = run(tmp_path, "measure", "--width-ratio", "0.1", "--dt", "0.5")
        _, fine = run(tmp_path, "measure", "--width-ratio", "0.1", "--dt", "1e-300")
        coarse, fine = json.loads(coarse), json.loads(fine)
        assert coarse.pop("config") != fine.pop("config")
        assert coarse == fine

    def test_short_horizon_is_no_error(self, tmp_path):
        # The tail covers what the horizon leaves out, with no HorizonError.
        code, text = run(tmp_path, "measure", "--width-ratio", "0.1", "--t-max", "30")
        assert code == EXIT_OK
        report = json.loads(text)["n_single"]
        assert len(report["extrema"]) == 2 and report["horizon"] == 30.0
        assert 0.0 <= report["closed_form_total"] - report["total"] <= report["tail_bound"]

    def test_memory_follows_the_extrema_not_the_horizon(self, tmp_path):
        # Width 0.0005 has a horizon of 76.5 M steps at dt 1e-3, 198 times
        # width 0.1's; the peak grows only with the extrema listed (371
        # against 25): the three reports and their dicts, which read 740
        # bytes each, with the JSON streamed; the bound leaves 38 % margin.
        # The output is read back after the peak is taken.
        run(tmp_path, "measure", "--width-ratio", "0.3")  # imports and caches
        out = tmp_path / "peak.json"
        peaks = {}
        for width in ("0.1", "0.0005"):
            tracemalloc.start()
            try:
                code = main(["measure", "--width-ratio", width, "--out", str(out)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            peaks[width] = peak, len(json.loads(out.read_text())["n_single"]["extrema"])
        (peak_wide, n_wide), (peak_narrow, n_narrow) = peaks["0.1"], peaks["0.0005"]
        assert peak_wide <= 2**18
        assert peak_narrow - peak_wide <= 1024 * (n_narrow - n_wide)

    def test_one_extremum_past_the_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(constants, "MAX_EXTREMA", 25)
        assert run(tmp_path, "measure", "--width-ratio", "0.1")[0] == EXIT_OK
        monkeypatch.setattr(constants, "MAX_EXTREMA", 24)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, "measure", "--width-ratio", "0.1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and err.count("\n") == 1
        assert err == ("nonmarkov: config error: the resonant closed form has 25 extrema up to "
                       "t_max = 386.4073394, which exceeds the cap of 24 extrema\n")
        assert peak < 2**20

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_checks_the_extrema_cap_before_any_point(self, tmp_path, monkeypatch, capsys,
                                                          jobs):
        # Only the last width, 0.1, lists 25 extrema.
        started = []
        monkeypatch.setattr(constants, "MAX_EXTREMA", 24)
        monkeypatch.setattr(cli, "_sweep_point", lambda cfg: started.append(cfg.width_ratio))
        code, _ = run(tmp_path, "sweep", "--width-from", "1", "--width-to", "0.1",
                      "--steps", "3", "--jobs", jobs)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "exceeds the cap of 24 extrema" in err
        assert started == []

    def test_sweep_bytes_across_jobs(self, tmp_path):
        args = ["sweep", "--width-from", "0.2", "--width-to", "3.8", "--steps", "10"]
        outputs = {run(tmp_path, *args, "--jobs", jobs)[1] for jobs in ("1", "2", "4")}
        assert len(outputs) == 1
        assert len(outputs.pop().splitlines()) == 11

    def test_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        def pool(*args, **kwargs):
            raise AssertionError("no pool may start")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        code, _ = run(tmp_path, "sweep", "--width-from", "0.2", "--width-to", "3.8",
                      "--steps", "10", "--jobs", "4")
        assert code == EXIT_OK

    def test_debug_lines_and_clean_outputs(self, tmp_path, caplog):
        _, quiet_measure = run(tmp_path, "measure", "--width-ratio", "0.1")
        args = ["sweep", "--width-from", "0.2", "--width-to", "3.8", "--steps", "10", "--jobs", "2"]
        _, quiet_sweep = run(tmp_path, *args)
        caplog.set_level(logging.DEBUG, logger="nonmarkov")
        _, measure_text = run(tmp_path, "measure", "--width-ratio", "0.1")
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1 and re.fullmatch(
            r"measure: resonant closed form, 25 intervals to t_max 386\.4073394, "
            r"q 0\.4863966750707\d*, no grid", lines[0])
        caplog.clear()
        _, sweep_text = run(tmp_path, *args)
        lines = [r.getMessage() for r in caplog.records]
        assert lines[0] == "sweep: 10 points, 0 on a grid, 1 workers"
        assert len(lines) == 11 and all(" no grid" in line for line in lines[1:])
        assert measure_text == quiet_measure and sweep_text == quiet_sweep

    def test_grid_route_logs_its_search_and_clean_outputs(self, tmp_path, caplog):
        ini = tmp_path / "volterra.ini"
        ini.write_text("[model]\nwidth_ratio = 1\n[solver]\nmethod = volterra\nt_max = 60\n")
        _, quiet = run(tmp_path, "measure", "--config", str(ini))
        caplog.set_level(logging.DEBUG, logger="nonmarkov")
        _, text = run(tmp_path, "measure", "--config", str(ini))
        lines = [r.getMessage() for r in caplog.records if r.name == "nonmarkov.measure"]
        assert len(lines) == 1 and re.fullmatch(
            r"measure: grid of 60001 samples, \d+ rising intervals found, 6 kept, "
            r"tail 1\.29\d+e-09, exact geometric remainder", lines[0]), lines
        assert text == quiet

    def test_sweep_logs_grid_points_and_workers(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        ini = tmp_path / "volterra.ini"
        ini.write_text(VOLTERRA_INI)
        caplog.set_level(logging.DEBUG, logger="nonmarkov.cli")
        code, _ = run(tmp_path, "sweep", "--width-from", "5", "--width-to", "10", "--steps", "3",
                      "--jobs", "1", "--config", str(ini))
        assert code == EXIT_OK
        assert [r.getMessage() for r in caplog.records if r.name == "nonmarkov.cli"] == [
            "sweep: 3 points, 3 on a grid, 1 workers"]


class TestOutputDirectory:
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--width-ratio", "0.5"], ["measure", "--width-ratio", "0.5"],
         ["sweep", "--width-from", "0.1", "--width-to", "1", "--steps", "10"],
         ["verify", "--width-ratio", "0.5", "--samples", "100"]],
        ids=["simulate", "measure", "sweep", "verify"],
    )
    def test_missing_directory_rejected_before_work(self, tmp_path, monkeypatch, capsys, argv):
        computed = []
        monkeypatch.setattr(cli.RunConfig, "trajectory", lambda cfg: computed.append(cfg))
        out = tmp_path / "missing" / "out.txt"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"nonmarkov: config error: cannot write output {str(out)!r}")
        assert computed == [] and list(tmp_path.iterdir()) == []


class TestDetunedMeasure:
    def test_no_resonant_regime_or_kappa(self, tmp_path):
        ini = tmp_path / "detuned.ini"
        ini.write_text("[model]\nwidth_ratio = 1\ndetuning = 0.3\n[solver]\nt_max = 40\n")
        code, text = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_OK
        bundle = json.loads(text)
        assert bundle["config"]["model"]["detuning"] == 0.3
        assert bundle["regime"] is None and bundle["kappa"] is None

    def test_nonvanishing_minima_measured(self, tmp_path):
        # |b|'s minima reach 0.55 here, so the |e>/|g> pair rises most.
        ini = tmp_path / "detuned.ini"
        ini.write_text(DETUNED_01_INI)
        code, text = run(tmp_path, "measure", "--config", str(ini))
        assert code == EXIT_OK
        bundle = json.loads(text)
        assert bundle["n_eg"]["total"] == pytest.approx(0.208652, abs=1e-6)
        assert bundle["n_single"]["total"] == pytest.approx(0.174373, abs=1e-6)
        assert max(iv["value_at_min"] for iv in bundle["n_eg"]["extrema"]) > 0.3

    def test_signal_left_at_the_horizon_is_numerical_failure(self, tmp_path, capsys):
        ini = tmp_path / "detuned.ini"
        ini.write_text(DETUNED_01_INI)
        code, _ = run(tmp_path, "measure", "--config", str(ini), "--t-max", "60")
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "nonmarkov: numerical failure: signal still reaches 2.285e-01 over the last 5% "
            "of the horizon; extend t_max\n")


class TestLogging:
    def test_nm_log_env_accepted(self, tmp_path):
        import os
        import subprocess
        import sys

        out = tmp_path / "m.json"
        env = dict(os.environ, NM_LOG="debug")
        proc = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "measure", "--width-ratio", "10",
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["regime"] == "markovian"

    def test_simulate_logs_rows_bytes_and_python_cells(self, tmp_path, caplog):
        """The debug line's counts, and at most 1 % of a width-0.1 trajectory's cells to Python."""
        caplog.set_level(logging.DEBUG, logger="nonmarkov.cli")
        code, text = run(tmp_path, "simulate", "--width-ratio", "0.1", "--t-max", "60")
        assert code == EXIT_OK
        lines = [r.getMessage() for r in caplog.records if r.name == "nonmarkov.cli"]
        assert len(lines) == 1, lines
        got = re.fullmatch(r"simulate: (\d+) rows, (\d+) bytes written, "
                           r"(\d+) of (\d+) cells formatted by Python", lines[0])
        rows, size, slow, cells = map(int, got.groups())
        assert rows == text.count("\n") - 1 == 60_001 and size == len(text.encode())
        assert cells == 7 * rows and 0 < slow <= cells // 100
        assert "formatted" not in text

    def test_nm_log_debug_reports_tabulated_nodes(self, tmp_path):
        import os
        import subprocess
        import sys

        w = np.linspace(0.0, 40.0, 201)
        np.savetxt(tmp_path / "table.txt", np.column_stack([w, np.exp(-0.5 * ((w - 20.0) / 3.0) ** 2)]))
        ini = tmp_path / "tabulated.ini"
        ini.write_text(f"[model]\ntype = tabulated\ntable = {tmp_path / 'table.txt'}\n"
                       "qubit_frequency = 20\n[solver]\ndt = 0.01\nt_max = 10\n")
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "measure", "--config", str(ini),
             "--out", str(out)],
            env=dict(os.environ, NM_LOG="debug"), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        lines = [line for line in proc.stderr.splitlines() if "nodes kept" in line]
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("DEBUG nonmarkov.reservoir: tabulated correlation: ")
        assert lines[0].endswith(" 1001 samples") and "nodes kept" not in out.read_text()

    @pytest.mark.parametrize(
        "ini_text, argv, code, prefix",
        [
            ("seed = 1\n", ["verify"], EXIT_CONFIG, "nonmarkov: config error: cannot parse"),
            # Far detuned at a coarse step, the scheme goes unstable.
            ("[model]\ndetuning = 100\n[solver]\nmethod = volterra\ndt = 0.1\nt_max = 10\n",
             ["measure"], EXIT_NUMERICAL, "nonmarkov: numerical failure: |b(0.2)| = "),
            # The phase detuning * t passes 1e308, in the closed form and in the
            # correlation that the Volterra solve samples.
            ("[model]\ndetuning = 1e308\n[solver]\ndt = 10\nt_max = 1000\n", ["simulate"],
             EXIT_CONFIG, PHASE_OVERFLOW),
            ("[model]\nwidth_ratio = 1\ndetuning = 1e308\n[solver]\nmethod = volterra\n",
             ["simulate", "--dt", "10", "--t-max", "1000"], EXIT_CONFIG, PHASE_OVERFLOW),
        ],
        ids=["config_error", "numerical_failure", "phase_overflow", "phase_overflow_volterra"],
    )
    def test_failure_is_one_stderr_line(self, tmp_path, ini_text, argv, code, prefix):
        import os
        import subprocess
        import sys

        ini = tmp_path / "run.ini"
        ini.write_text(ini_text)
        env = {k: v for k, v in os.environ.items() if k != "NM_LOG"}
        proc = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", *argv, "--config", str(ini),
             "--out", str(tmp_path / "out.txt")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr


class TestOhmicEndToEnd:
    def test_simulate_ohmic_volterra(self, tmp_path):
        ini = tmp_path / "ohmic.ini"
        ini.write_text(
            "[model]\ntype = ohmic\ncoupling = 0.2\nexponent = 1.0\ncutoff = 2.0\n"
            "qubit_frequency = 5.0\n\n[solver]\ndt = 0.01\nt_max = 5.0\n"
        )
        code, text = run(tmp_path, "simulate", "--config", str(ini))
        assert code == EXIT_OK
        rows = text.splitlines()
        assert rows[1].startswith("0,1,0,1,")
        assert len(rows) == 502

    def test_gamma_overflow_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "ohmic.ini"
        ini.write_text(
            "[model]\ntype = ohmic\ncoupling = 0.2\nexponent = 200\ncutoff = 2.0\n"
            "qubit_frequency = 5.0\n\n[solver]\nmethod = volterra\ndt = 0.01\nt_max = 1.0\n"
        )
        code, _ = run(tmp_path, "simulate", "--config", str(ini))
        assert code == EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, message",
        [("coupling = 0.2\nexponent = 200\ncutoff = 2.0",
          "exponent 200 is too large: Gamma(201) overflows"),
         ("coupling = 1e300\nexponent = 1\ncutoff = 1e200",
          "coupling * cutoff^2 * Gamma(2) overflows (coupling 1e+300, cutoff 1e+200)")],
        ids=["gamma", "prefactor"],
    )
    def test_overflow_names_its_factor(self, tmp_path, capsys, model, message):
        ini = tmp_path / "ohmic.ini"
        ini.write_text(f"[model]\ntype = ohmic\n{model}\nqubit_frequency = 5.0\n"
                       "[solver]\ndt = 0.01\nt_max = 1.0\n")
        assert run(tmp_path, "measure", "--config", str(ini))[0] == EXIT_CONFIG
        assert capsys.readouterr().err == f"nonmarkov: config error: {message}\n"


class TestLargeWidths:
    @pytest.mark.parametrize("width", ["1e16", "1e17", "1e150"])
    def test_measure_is_markovian_with_zero_totals(self, tmp_path, capsys, width):
        code, text = run(tmp_path, "measure", "--width-ratio", width)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        bundle = json.loads(text)
        assert bundle["regime"] == "markovian"
        assert [bundle[key]["total"] for key in ("n_single", "n_eg", "n_two_lower")] == [0.0] * 3

    @pytest.mark.parametrize("width, b1", [("1e8", "0.606530661229"), ("1e17", "0.606530659713")])
    def test_simulate_row_at_one(self, tmp_path, width, b1):
        # b(1) = exp(-r)(1/2 + width/(2 kappa)) to within e^-kappa, r = (width - kappa)/2.
        code, text = run(tmp_path, "simulate", "--width-ratio", width, "--t-max", "2", "--dt", "0.1")
        assert code == EXIT_OK
        assert [row for row in text.splitlines() if row.startswith("1,")][0].startswith(f"1,{b1},0,")


class TestTabulatedTinyStep:
    """A tabulated spectrum at a step so small that t^-2 overflows fails with one stderr line."""

    def run_tabulated(self, tmp_path, dt):
        import os
        import subprocess
        import sys

        w = np.linspace(0.0, 200.0, 1000)
        np.savetxt(tmp_path / "table.txt", np.column_stack([w, np.exp(-0.5 * ((w - 100.0) / 3.0) ** 2)]))
        ini = tmp_path / "tabulated.ini"
        ini.write_text(f"[model]\ntype = tabulated\ntable = {tmp_path / 'table.txt'}\n"
                       "qubit_frequency = 100\n")
        env = {k: v for k, v in os.environ.items() if k not in ("NM_LOG", "PYTHONWARNINGS")}
        return subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "measure", "--config", str(ini),
             "--dt", dt, "--t-max", f"{10 * float(dt):g}", "--out", str(tmp_path / "m.json")],
            env=env, capture_output=True, text=True,
        )

    @pytest.mark.parametrize("dt", ["5e-155", "1e-300"])
    def test_overflow_is_one_config_error_line(self, tmp_path, dt):
        proc = self.run_tabulated(tmp_path, dt)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            f"nonmarkov: config error: dt {float(dt):g} is too small for a tabulated spectrum: "
            "the t^-2 factor overflows"]

    def test_small_step_still_runs(self, tmp_path):
        proc = self.run_tabulated(tmp_path, "1e-150")
        assert proc.returncode == EXIT_OK and proc.stderr == ""


class TestDependencies:
    def test_package_loads_neither_scipy_nor_mpmath(self, tmp_path):
        """The package depends on numpy alone: a run through every route loads no scipy or mpmath module."""
        import os
        import subprocess
        import sys

        ini = tmp_path / "volterra.ini"
        ini.write_text("[model]\nwidth_ratio = 0.5\n[solver]\nmethod = volterra\ndt = 0.01\nt_max = 20\n")
        script = (
            "import sys\n"
            "import nonmarkov, nonmarkov.cli\n"
            "for argv in sys.argv[1:]:\n"
            "    assert nonmarkov.cli.main(argv.split()) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n"
        )
        runs = [f"measure --width-ratio 0.5 --t-max 5 --out {tmp_path / 'closed.json'}",
                f"measure --config {ini} --out {tmp_path / 'volterra.json'}",
                f"simulate --width-ratio 0.5 --dt 0.01 --t-max 1 --out {tmp_path / 'sim.csv'}"]
        env = {k: v for k, v in os.environ.items() if k != "NM_LOG"}
        proc = subprocess.run([sys.executable, "-c", script, *runs], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert json.loads((tmp_path / "volterra.json").read_text())["n_single"]["extrema"]


class TestInputContract:
    """Each input is honoured or refused in one stderr line, with no warning or traceback.

    One key at a time, every key that a subcommand reads takes each of
    `VALUES`, in its INI file and as a flag where it has one. The model keys
    run on the base of their model type; the solver's dt and t_max on every
    base; method and the [run] keys on the Lorentzian one. A second
    Lorentzian base has no t_max, so its default horizon meets each dt and
    width. `sweep` runs on the Lorentzian bases only. The runs are
    in-process with warnings as errors: each must exit 0, 1, 2 or 3, with at
    most one stderr line and none on exit 0.
    """

    VALUES = ["0", "-0.0", "5e-324", "1e-300", "1e-8", "1", "3", "1e8", "1e300",
              "1.7976931348623157e308", "inf", "-inf", "nan", "-1", "abc", ""]
    FLAGS = {"width_ratio", "dt", "t_max", "seed", "samples", "jobs"}
    # Small grids, so that an accepted run takes milliseconds.
    BASES = {
        "lorentzian": {"model": {"type": "lorentzian", "width_ratio": "1", "detuning": "0"},
                       "solver": {"method": "auto", "dt": "0.01", "t_max": "5"},
                       "run": {"seed": "1", "samples": "100", "jobs": "1"}},
        # No t_max: the default horizon, 386 at width 0.1, where the envelope sets it.
        "horizon": {"model": {"width_ratio": "0.1", "detuning": "0"}, "solver": {"dt": "0.2"}},
        "ohmic": {"model": {"type": "ohmic", "coupling": "0.1", "exponent": "1", "cutoff": "1",
                            "qubit_frequency": "1"},
                  "solver": {"dt": "0.01", "t_max": "5"}},
        "tabulated": {"model": {"type": "tabulated", "table": "table.txt", "qubit_frequency": "5"},
                      "solver": {"dt": "0.01", "t_max": "5"}},
    }
    EXTRA = {"simulate": [], "measure": [], "verify": [],
             "sweep": ["--width-from", "0.5", "--width-to", "1", "--steps", "2"]}

    @staticmethod
    def outcome(argv):
        """(exit code, stderr) of one in-process run; a warning or traceback fails the run."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag's value
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - the run's failure is the finding
                return None, f"{type(exc).__name__}: {exc}"
        return code, err.getvalue()

    def cases(self, command, tmp_path):
        """(what, argv) for each probed key, base and value, in INI and as a flag."""
        w = np.linspace(1.0, 9.0, 50)
        np.savetxt(tmp_path / "table.txt", np.column_stack([w, 0.3 * np.exp(-((w - 5.0) ** 2))]))
        (tmp_path / "empty.txt").write_text("")
        reads = cli._READS[command]

        def write(path, sections):
            path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                    for name, keys in sections.items() if keys))
            return [command, "--config", str(path), *self.EXTRA[command]]

        for name, base in self.BASES.items():
            if command == "sweep" and name not in ("lorentzian", "horizon"):
                continue
            base = {section: {k: v for k, v in keys.items() if k in reads.get(section, ())}
                    for section, keys in base.items()}
            for section, keys in base.items():
                for key in keys:
                    if key == "type" and name != "lorentzian":
                        continue
                    # sweep runs at --jobs 1, except where its jobs key itself is probed.
                    extra = ["--jobs", "1"] if command == "sweep" and key != "jobs" else []
                    unset = write(tmp_path / f"{name}-{key}.ini",
                                  {s: {k: v for k, v in ks.items() if k != key} for s, ks in base.items()})
                    for i, value in enumerate(self.VALUES + (["empty.txt"] if key == "table" else [])):
                        ini = {s: dict(ks) for s, ks in base.items()}
                        ini[section][key] = value
                        yield (f"{name} INI {key} = {value!r}",
                               write(tmp_path / f"{name}-{key}-{i}.ini", ini) + extra)
                        if key in self.FLAGS:
                            flag = "--" + key.replace("_", "-")
                            yield f"{name} {flag}={value!r}", unset + extra + [f"{flag}={value}"]

    @pytest.mark.parametrize("command", ["simulate", "measure", "verify", "sweep"])
    def test_every_key_and_extreme_value(self, tmp_path, monkeypatch, command):
        # A resonant closed-form sweep has no grid point, so even jobs = 3 starts no pool.
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
        # One parser for every run: building it is most of the time of a refused run.
        parser = cli.make_parser()
        monkeypatch.setattr(cli, "make_parser", lambda: parser)
        bad, codes = [], []
        for what, argv in self.cases(command, tmp_path):
            code, err = self.outcome(argv)
            codes.append(code)
            if code not in (0, 1, 2, 3) or len(err.splitlines()) > (code != 0):
                bad.append(f"{what}: exit {code}, stderr {err!r}")
        assert not bad, f"{len(bad)} of {len(codes)} runs broke the contract:\n" + "\n".join(bad[:10])
        assert 0 in codes and 1 in codes  # some runs are accepted and some refused
