"""Command-line front end: simulate, measure, sweep, verify.

Units: gamma0 = 1 defines the rate unit, so `--width-ratio` is the
spectral width over gamma0 and times are in 1/gamma0. Configuration comes
from an INI-style file (sections [model], [solver], [measure], [run]) with
flags taking precedence; each subcommand rejects the keys it does not
read. Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification failure. NM_LOG sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import constants
from .amplitude import AmplitudeTrajectory, Method, SolverConfig, compute_trajectory, default_horizon
from .dynamics import (
    StatePair,
    concurrence_bell,
    excited_state,
    ground_state,
    optimal_distance_trajectory,
    pair_distance_trajectory,
    trace_distance_two,
)
from .errors import NumericalFailureError, PhysicalityError, UnsupportedModelError
from .measure import (
    blp_from_trajectory,
    lower_bound_two,
    nonmarkovianity_single,
    verify_theorem,
)
from .reservoir import Lorentzian, OhmicFamily, is_resonant, load_tabulated

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


class ConfigError(Exception):
    pass


_SCHEMA = {
    "model": {"type", "gamma0", "width_ratio", "detuning", "coupling", "exponent",
              "cutoff", "qubit_frequency", "table"},
    "solver": {"method", "dt", "t_max"},
    "measure": {"min_tolerance"},
    "run": {"seed", "samples", "jobs"},
}
# The INI keys each subcommand reads; a file that sets any other key is rejected.
_READS = {
    "simulate": {"model": _SCHEMA["model"], "solver": _SCHEMA["solver"]},
    "measure": {"model": _SCHEMA["model"], "solver": _SCHEMA["solver"],
                "measure": _SCHEMA["measure"]},
    "sweep": {"model": _SCHEMA["model"] - {"width_ratio"}, "solver": _SCHEMA["solver"],
              "measure": _SCHEMA["measure"], "run": {"jobs"}},
    "verify": {"model": _SCHEMA["model"], "solver": _SCHEMA["solver"],
               "run": {"seed", "samples"}},
}

# simulate formats and writes its CSV this many rows at a time.
_CSV_BLOCK = 4096


@dataclass
class RunConfig:
    """Flattened, validated configuration for one CLI invocation."""

    model_type: str = "lorentzian"
    gamma0: float = 1.0
    width_ratio: float = 0.1
    detuning: float = 0.0
    coupling: float | None = None
    exponent: float | None = None
    cutoff: float | None = None
    qubit_frequency: float | None = None
    table: str | None = None
    method: str = "auto"
    dt: float = 1e-3
    t_max: float | None = None
    min_tolerance: float = constants.MIN_VALUE_TOL
    seed: int = 42
    samples: int = 10000
    jobs: int = 1

    def build_model(self):
        if self.model_type == "lorentzian":
            return Lorentzian(
                gamma0=self.gamma0,
                width=self.width_ratio * self.gamma0,
                detuning=self.detuning,
            )
        if self.model_type == "ohmic":
            missing = [k for k in ("coupling", "exponent", "cutoff", "qubit_frequency")
                       if getattr(self, k) is None]
            if missing:
                raise ConfigError(f"ohmic model needs keys: {', '.join(missing)}")
            return OhmicFamily(
                coupling=self.coupling,
                exponent=self.exponent,
                cutoff=self.cutoff,
                qubit_frequency=self.qubit_frequency,
            )
        if self.model_type == "tabulated":
            if self.table is None or self.qubit_frequency is None:
                raise ConfigError("tabulated model needs 'table' and 'qubit_frequency'")
            try:
                return load_tabulated(self.table, self.qubit_frequency)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"table {self.table!r}: {exc}") from None
        raise ConfigError(f"unknown model type {self.model_type!r}")

    def build_solver(self, model) -> SolverConfig:
        if self.method == "auto":
            method = Method.CLOSED_FORM if is_resonant(model) else Method.VOLTERRA
        elif self.method in ("closed_form", "volterra"):
            method = Method(self.method)
        else:
            raise ConfigError(f"unknown solver method {self.method!r}")
        t_max = self.t_max
        if t_max is None:
            if isinstance(model, Lorentzian):
                t_max = default_horizon(model.gamma0, model.width)
            else:
                raise ConfigError("t_max has no automatic rule for this model; pass --t-max")
        # Checked before any array exists: --dt 1e-300 must not reach numpy.
        steps = t_max / self.dt
        if not (math.isfinite(steps) and round(steps) <= constants.MAX_STEPS):
            raise ConfigError(f"t_max/dt = {steps:.10g} steps exceeds the cap of "
                              f"{constants.MAX_STEPS} steps")
        return SolverConfig(dt=self.dt, t_max=t_max, method=method)

    def trajectory(self) -> AmplitudeTrajectory:
        model = self.build_model()
        return compute_trajectory(model, self.build_solver(model))

    def effective(self) -> dict:
        out = {
            "model": {"type": self.model_type, "gamma0": self.gamma0},
            "solver": {"method": self.method, "dt": self.dt, "t_max": self.t_max},
            "measure": {"min_tolerance": self.min_tolerance},
            "run": {"seed": self.seed, "samples": self.samples, "jobs": self.jobs},
        }
        if self.model_type == "lorentzian":
            out["model"]["width_ratio"] = self.width_ratio
            out["model"]["detuning"] = self.detuning
        elif self.model_type == "ohmic":
            out["model"].update(coupling=self.coupling, exponent=self.exponent,
                                cutoff=self.cutoff, qubit_frequency=self.qubit_frequency)
        else:
            out["model"].update(table=self.table, qubit_frequency=self.qubit_frequency)
        return out


_INT_KEYS = {"seed", "samples", "jobs"}
_STR_KEYS = {"type": "model_type", "method": "method", "table": "table"}


def load_config_file(path: str, command: str) -> dict:
    """Parse the INI file into {attribute: value}, rejecting keys `command` does not read."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, ValueError) as exc:
        # configparser messages span lines; the CLI reports one.
        detail = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse config file {path!r}: {detail}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values: dict = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if key not in _READS[command].get(section, ()):
                raise ConfigError(f"{command} does not read key {key!r} in section [{section}]")
            if key in _STR_KEYS:
                values[_STR_KEYS[key]] = raw.strip()
                continue
            kind = int if key in _INT_KEYS else float
            try:
                values[key] = kind(raw)
            except ValueError:
                expected = "an integer" if kind is int else "a number"
                raise ConfigError(f"[{section}] {key} = {raw!r} is not {expected}") from None
    if values.get("table"):
        # A relative table path names a file next to the config file.
        values["table"] = os.path.join(os.path.dirname(path), values["table"])
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config, args.command))
    # Each subcommand defines only the flags it reads; the rest are absent.
    for key in ("width_ratio", "dt", "t_max", "seed", "samples", "jobs", "min_tolerance"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0 < cfg.dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {cfg.dt}")
    if cfg.t_max is not None and not 0 < cfg.t_max < math.inf:
        raise ConfigError(f"t_max must be positive and finite, got {cfg.t_max}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be at least 1")
    return cfg


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


@contextmanager
def _output(path):
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    with fh:
        yield fh


def _check_output_dir(path) -> None:
    """Reject an output path whose directory is missing before any work runs.

    Nothing is created, so a failed run leaves no file behind; any other
    error is reported when `_output` opens the file.
    """
    if path in (None, "-"):
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write output {path!r}: {parent!r} is not a directory")


def _write(path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _cells(col: np.ndarray) -> list[str]:
    """`_fmt` of every value in `col`, formatted by one `%` operation."""
    return (("%.12g\n" * col.size) % tuple(col.tolist())).splitlines()


def _write_signal_rows(fh, t, b, abs_b, pop, d_two, conc_phi) -> None:
    """Write the simulate CSV rows block by block; each distinct column is formatted once.

    d_opt repeats abs_b, and d_eg and conc_psi repeat pop. Only one block
    of rows is held at a time, so memory does not grow with the row count.
    """
    for start in range(0, t.size, _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        tc, rc, ic, ac, pc, dc, cc = (_cells(col[block]) for col in
                                      (t, b.real, b.imag, abs_b, pop, d_two, conc_phi))
        rows = zip(tc, rc, ic, ac, pc, ac, pc, dc, pc, cc)
        fh.write("\n".join(map(",".join, rows)) + "\n")


def cmd_simulate(cfg: RunConfig, out) -> int:
    traj = cfg.trajectory()
    b = traj.values
    abs_b = optimal_distance_trajectory(traj).values
    pop, conc_phi = concurrence_bell(b)
    with _output(out) as fh:
        fh.write("t,re_b,im_b,abs_b,pop_e,d_opt,d_eg,d_two,conc_psi,conc_phi\n")
        _write_signal_rows(fh, traj.times(), b, abs_b, pop, trace_distance_two(b), conc_phi)
    return EXIT_OK


def _measure_bundle(cfg: RunConfig) -> dict:
    traj = cfg.trajectory()
    n_single = nonmarkovianity_single(traj, min_tolerance=cfg.min_tolerance)
    eg_pair = StatePair(first=excited_state(), second=ground_state())
    n_eg = blp_from_trajectory(pair_distance_trajectory(traj, eg_pair))
    n_two = lower_bound_two(traj, min_tolerance=cfg.min_tolerance)
    # The reports carry regime and kappa only for a resonant Lorentzian.
    single = n_single.to_dict()
    return {
        "config": cfg.effective(),
        "regime": single["regime"],
        "kappa": single["kappa"],
        "n_single": single,
        "n_eg": n_eg.to_dict(),
        "n_two_lower": n_two.to_dict(),
    }


def cmd_measure(cfg: RunConfig, out) -> int:
    bundle = _measure_bundle(cfg)
    _write(out, json.dumps(bundle, indent=2) + "\n")
    return EXIT_OK


def _sweep_point(cfg: RunConfig) -> str:
    """One sweep CSV row; module-level so process pools can pickle it."""
    bundle = _measure_bundle(cfg)
    totals = (bundle[key]["total"] for key in ("n_single", "n_eg", "n_two_lower"))
    return ",".join([_fmt(cfg.width_ratio), _fmt(bundle["kappa"]), bundle["regime"] or "",
                     *map(_fmt, totals)])


def cmd_sweep(cfg: RunConfig, args, out) -> int:
    if args.steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    if not (0 < args.width_from and 0 < args.width_to):
        raise ConfigError("width ratios must be positive")
    if cfg.model_type != "lorentzian":
        raise ConfigError(
            f"sweep varies the Lorentzian width; model type {cfg.model_type!r} has none"
        )
    points = [
        replace(cfg, width_ratio=float(r))
        for r in np.linspace(args.width_from, args.width_to, args.steps)
    ]
    for p in points:  # the step cap, for every point before any of them runs
        p.build_solver(p.build_model())
    workers = min(cfg.jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(p) for p in points]
    _write(out, "\n".join(["width_ratio,kappa,regime,n_single,n_eg,n_two_lower", *rows]) + "\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args, out) -> int:
    traj = cfg.trajectory()
    report = verify_theorem(
        traj, samples=cfg.samples, seed=cfg.seed, bound_scale=args.fault_scale
    )
    payload = {"config": cfg.effective(), "verification": report.to_dict()}
    _write(out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are 1
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nonmarkov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, width=True):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output path (default stdout)")
        if width:  # sweep sets the width per point
            p.add_argument("--width-ratio", type=float, dest="width_ratio",
                           help="spectral width over gamma0")
        p.add_argument("--dt", type=float, help="time step (1/gamma0 units)")
        p.add_argument("--t-max", type=float, dest="t_max", help="horizon")

    p_sim = sub.add_parser("simulate", help="trajectory CSV: b(t) and derived signals")
    common(p_sim)

    p_meas = sub.add_parser("measure", help="non-Markovianity report bundle (JSON)")
    common(p_meas)

    p_sweep = sub.add_parser("sweep", help="measures across a range of width ratios")
    common(p_sweep, width=False)
    p_sweep.add_argument("--width-from", type=float, required=True, dest="width_from")
    p_sweep.add_argument("--width-to", type=float, required=True, dest="width_to")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, help="parallel workers")
    for p in (p_meas, p_sweep):
        p.add_argument("--min-tolerance", type=float, dest="min_tolerance",
                       help="zero-qualification tolerance for distance minima")

    p_ver = sub.add_parser("verify", help="random-pair check of the optimal-pair bound")
    common(p_ver)
    p_ver.add_argument("--samples", type=int, help="number of random pairs")
    p_ver.add_argument("--seed", type=int, help="RNG seed")
    p_ver.add_argument("--fault-scale", type=float, default=1.0, dest="fault_scale",
                       help=argparse.SUPPRESS)  # negative-control hook for tests
    return parser


def main(argv=None) -> int:
    level = os.environ.get("NM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        _check_output_dir(args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "measure":
            return cmd_measure(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args, args.out)
        return cmd_verify(cfg, args, args.out)
    except (ConfigError, PhysicalityError, UnsupportedModelError) as exc:
        print(f"nonmarkov: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"nonmarkov: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
