"""Command-line front end: simulate, measure, sweep, verify.

Units: gamma0 = 1 defines the rate unit, so `--width-ratio` is the
spectral width over gamma0 and times are in 1/gamma0; gamma0 is fixed
and has no key. Configuration comes from an INI-style file (sections
[model], [solver], [run]) with flags taking precedence; each
subcommand rejects the keys it does not read, and each model type the
[model] keys it does not use. Exit codes: 0 success, 1 configuration
error or out of memory, 2 numerical failure, 3 verification failure.
NM_LOG sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import mmap
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import constants
from .amplitude import AmplitudeTrajectory, Method, SolverConfig, compute_trajectory, default_horizon
from .dynamics import concurrence_bell, population_excited, trace_distance_two
from .errors import NumericalFailureError, PhysicalityError, UnsupportedModelError
from .measure import (_is_resonant_lorentzian, _resonant_interval_count, _resonant_measures,
                      population_measures, verify_theorem)
from .reservoir import Lorentzian, OhmicFamily, load_tabulated

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

log = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


# Each section's keys, in the order the config block lists them, with the
# type each value is read as. A key is also its RunConfig attribute and the
# dest of its flag, if it has one.
_SECTIONS = {
    "model": {"type": str, "width_ratio": float, "detuning": float, "coupling": float,
              "exponent": float, "cutoff": float, "table": str, "qubit_frequency": float},
    "solver": {"method": str, "dt": float, "t_max": float},
    "run": {"seed": int, "samples": int, "jobs": int},
}
# The [model] keys each model type uses; a run that sets any other is rejected.
_MODEL_KEYS = {
    "lorentzian": {"type", "width_ratio", "detuning"},
    "ohmic": {"type", "coupling", "exponent", "cutoff", "qubit_frequency"},
    "tabulated": {"type", "table", "qubit_frequency"},
}
# The INI keys each subcommand reads; a file that sets any other key is rejected.
_MODEL, _SOLVER = (set(_SECTIONS[s]) for s in ("model", "solver"))
_READS = {
    "simulate": {"model": _MODEL, "solver": _SOLVER},
    "measure": {"model": _MODEL, "solver": _SOLVER},
    "sweep": {"model": _MODEL - {"width_ratio"}, "solver": _SOLVER, "run": {"jobs"}},
    "verify": {"model": _MODEL, "solver": _SOLVER, "run": {"seed", "samples"}},
}

# simulate writes its CSV this many rows at a time, and formats the cells of
# a quarter block at a time, so that the formatter's temporaries stay small.
_CSV_BLOCK = 4096
_CELL_ROWS = 1024


@dataclass
class RunConfig:
    """Flattened, validated configuration for one CLI invocation; see `_SECTIONS`."""

    type: str = "lorentzian"
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
    seed: int = 42
    samples: int = 10000
    jobs: int = 1

    def build_model(self):
        missing = [key for key in _SECTIONS["model"]
                   if key in _MODEL_KEYS[self.type] and getattr(self, key) is None]
        if missing:
            raise ConfigError(f"{self.type} model needs keys: {', '.join(missing)}")
        if self.type == "lorentzian":
            return Lorentzian(gamma0=1.0, width=self.width_ratio, detuning=self.detuning)
        if self.type == "ohmic":
            return OhmicFamily(
                coupling=self.coupling,
                exponent=self.exponent,
                cutoff=self.cutoff,
                qubit_frequency=self.qubit_frequency,
            )
        try:
            return load_tabulated(self.table, self.qubit_frequency)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"table {self.table!r}: {exc}") from None

    def _method(self, model) -> Method:
        if self.method == "auto":
            return Method.CLOSED_FORM if isinstance(model, Lorentzian) else Method.VOLTERRA
        if self.method in ("closed_form", "volterra"):
            return Method(self.method)
        raise ConfigError(f"unknown solver method {self.method!r}")

    def horizon(self, model) -> float:
        if self.t_max is not None:
            return self.t_max
        if isinstance(model, Lorentzian):
            return default_horizon(model.gamma0, model.width, model.detuning)
        raise ConfigError("t_max has no automatic rule for this model; pass --t-max")

    def build_solver(self, model) -> SolverConfig:
        method = self._method(model)
        t_max = self.horizon(model)
        # Checked before any array exists: --dt 1e-300 must not reach numpy.
        steps = t_max / self.dt
        if not (math.isfinite(steps) and round(steps) <= constants.MAX_STEPS):
            raise ConfigError(f"t_max/dt = {steps:.10g} steps exceeds the cap of "
                              f"{constants.MAX_STEPS} steps")
        return SolverConfig(dt=self.dt, t_max=t_max, method=method)

    def measure_solver(self, model) -> SolverConfig | None:
        """The grid `measure` builds for model, under the step cap, or None where it builds none.

        A resonant Lorentzian in closed form is measured at its exact
        extrema (`measure._resonant_measures`), which have a cap of their
        own, MAX_EXTREMA, checked here before any array exists. Both caps
        are checked without running anything.
        """
        if not (_is_resonant_lorentzian(model) and self._method(model) is Method.CLOSED_FORM):
            return self.build_solver(model)
        horizon = self.horizon(model)
        count = _resonant_interval_count(model, horizon)
        if not count <= constants.MAX_EXTREMA:
            raise ConfigError(f"the resonant closed form has {count:.10g} extrema up to t_max = "
                              f"{horizon:.10g}, which exceeds the cap of "
                              f"{constants.MAX_EXTREMA} extrema")
        return None

    def trajectory(self) -> AmplitudeTrajectory:
        model = self.build_model()
        return compute_trajectory(model, self.build_solver(model))

    def effective(self, command: str) -> dict:
        """The settings `command` reads, as INI sections: written back, they load for it."""
        reads, unused = _READS[command], _MODEL - _MODEL_KEYS[self.type]
        return {section: {key: getattr(self, key) for key in keys
                          if key in reads[section] and key not in unused}
                for section, keys in _SECTIONS.items() if section in reads}


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
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items:
            kind = _SECTIONS[section].get(key)
            if kind is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if key not in _READS[command].get(section, ()):
                raise ConfigError(f"{command} does not read key {key!r} in section [{section}]")
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
    values = load_config_file(args.config, args.command) if args.config else {}
    # Each subcommand defines only the flags it reads; the rest are absent.
    for keys in _SECTIONS.values():
        values.update((key, getattr(args, key)) for key in keys
                      if getattr(args, key, None) is not None)
    model_type = values.get("type", RunConfig.type)
    if model_type not in _MODEL_KEYS:
        raise ConfigError(f"unknown model type {model_type!r}; "
                          f"known types: {', '.join(_MODEL_KEYS)}")
    unused = [key for key in _SECTIONS["model"]
              if key in values and key not in _MODEL_KEYS[model_type]]
    if unused:
        raise ConfigError(f"model type {model_type!r} does not use {', '.join(unused)}")
    cfg = RunConfig(**values)
    if not 0 < cfg.dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {cfg.dt}")
    if cfg.t_max is not None and not 0 < cfg.t_max < math.inf:
        raise ConfigError(f"t_max must be positive and finite, got {cfg.t_max}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be at least 1")
    # verify's negative-control hook, checked before the trajectory is built.
    fault_scale = getattr(args, "fault_scale", 1.0)
    if not math.isfinite(fault_scale):
        raise ConfigError(f"fault_scale must be finite, got {fault_scale}")
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


def _write_json(path, payload: dict) -> None:
    """`payload` as indented JSON and a newline, streamed: the whole text is never held."""
    with _output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# A formatted cell is five little-endian 8-byte words: the sign and a "0.000"
# prefix, the twelve digits each followed by a dot slot, and the exponent,
# whose last byte the writer sets to the separator. Unused bytes are NUL,
# and each block drops them after joining its rows.
_E_LO, _E_HI = -325, 308  # e = -325, below the least subnormal's -324, is for 0, nan, inf


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as little-endian 64-bit words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view("<u8")[..., 0]


def _cell_tables() -> SimpleNamespace:
    """The lookup tables of `_format_cells`, indexed by e - _E_LO unless noted.

    Built by each writer call, in about 2 ms: commands that write no CSV
    never pay for them.
    """
    e = np.arange(_E_LO, _E_HI + 1)
    k = 11 - e
    pow10 = np.array([float(f"1e{j}") for j in range(-150, 170)])  # correctly rounded
    # By chunk value: four digits "dddd" as "d.d.d.d.", from which a mask keeps
    # the digits and the one dot.
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    c = np.full((d.shape[0], 8), ord("."), np.uint8)
    c[:, 0::2] = ord("0") + d
    digits = _words(c)
    # By chunk value: its digits up to the last nonzero one. Offset by the
    # chunk's place, their maximum over m's chunks is m's significant digits.
    n = 4 - np.cumprod(d[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    significant = [np.where(n > 0, n + 4 * i, 0).astype(np.int8) for i in range(3)]
    # "e+XX" or "e-XXX" outside fixed notation, -4 <= e < 12.
    fixed = (e >= -4) & (e < 12)
    ae = np.abs(e)
    three = ae >= 100
    c = np.zeros((e.size, 8), np.uint8)
    c[:, 0] = ord("e")
    c[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    c[:, 2] = ord("0") + np.where(three, ae // 100, ae // 10 % 10)
    c[:, 3] = ord("0") + np.where(three, ae // 10 % 10, ae % 10)
    c[:, 4] = np.where(three, ord("0") + ae % 10, 0)
    c[fixed | (e == _E_LO)] = 0
    exponent = _words(c)
    # "0." and up to three zeros for -4 <= e < 0, after the sign's byte.
    lead = fixed & (e < 0)
    c = np.zeros((e.size, 8), np.uint8)
    c[lead, 1:3] = (ord("0"), ord("."))
    c[lead, 3:6] = np.where(np.arange(3) < -1 - e[lead, None], ord("0"), 0)
    # The dot follows digit q: q = e in fixed notation, 0 in exponent notation
    # and -1 (none) after a "0.000" prefix. Digits up to max(q + 1, significant)
    # are kept, and the dot only if a digit follows it. keep[i] masks digit
    # word i, in row 13 (q + 1) + significant.
    q = np.where(fixed, np.where(e < 0, -1, e), 0)
    q1, sig, slot = np.arange(13)[:, None, None], np.arange(13)[None, :, None], np.arange(24)
    keep = (slot % 2 == 0) & (slot // 2 < np.maximum(q1, sig)) | (slot == 2 * q1 - 1) & (sig > q1)
    return SimpleNamespace(
        pow_a=pow10[k // 2 + 150], pow_b=pow10[k - k // 2 + 150], digits=digits,
        significant=significant, exponent=exponent, prefix=_words(c),
        dot_row=((q + 1) * 13).astype(np.int16),
        keep=[np.ascontiguousarray(w) for w in _words(np.where(keep, 255, 0).reshape(-1, 3, 8)).T],
    )


# The distinct column behind each CSV field: d_opt repeats abs_b, and d_eg
# and conc_psi repeat pop_e. The separator that ends each field.
_CSV_FIELDS = np.array([0, 1, 2, 3, 4, 3, 4, 5, 4, 6])
_CSV_ENDS = np.array([ord(",")] * 9 + [ord("\n")], dtype="<u8") << np.uint64(56)


def _format_cells(v: np.ndarray, out: np.ndarray, tables: SimpleNamespace) -> int:
    """Write `_fmt` of each value of `v` into `out` as five NUL-padded words.

    `tables` is `_cell_tables()`. `v` and `out`, of shape v.shape + (5,),
    are C-contiguous. The last
    byte of each cell is left NUL for a separator. Returns the number of
    cells that Python formatted.

    For a finite, nonzero x with e = floor(log10|x|) and k = 11 - e, the
    twelve digits are m = rint(y), y = |x| * P[k//2] * P[k - k//2], where
    each P[j] is 10**j correctly rounded. Those are four roundings, each
    within 2**-53 relative, so |y - |x| * 10**k| < 2**-11 while y < 2**40.
    A cell takes this path only if y >= 1e11 and m < 1e12, so that log10
    gave the right e and rounding did not carry into a thirteenth digit,
    and if y lies more than 2**-9 from a half-integer, so that the exact
    value rounds to the same m. Python formats every other cell, NaN and
    +-inf among them; zeros are written as "0" or "-0".
    """
    v = v.reshape(-1)
    out = out.reshape(-1, 5)
    y = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros and non-finite values
        x = np.log10(y)
        np.floor(x, out=x)
        x = x.astype(np.intp)
        np.clip(x, _E_LO, _E_HI, out=x)
        x -= _E_LO
        y *= tables.pow_a[x]
        y *= tables.pow_b[x]
        m = np.rint(y)
        fast = (y >= 1e11) & (m < 1e12)
        y -= m
        np.abs(y, out=y)
        fast &= y < 0.5 - 2.0**-9
    del y
    m[~fast] = 0.0  # zeros print as "0"; Python writes over the other slow cells
    # Three 4-digit chunks. Each quotient is exact or falls short of the next
    # integer by far more than its rounding, so truncation is floor.
    work = m / 1e8
    hi = work.astype(np.intp)
    m -= np.multiply(hi, 1e8, out=work)
    np.divide(m, 1e4, out=work)
    mid = work.astype(np.intp)
    m -= np.multiply(mid, 1e4, out=work)
    lo = m.astype(np.intp)
    del work, m
    keep = tables.significant[0][hi]
    np.maximum(keep, tables.significant[1][mid], out=keep)
    np.maximum(keep, tables.significant[2][lo], out=keep)
    keep = tables.dot_row[x] + keep
    np.bitwise_or(tables.prefix[x], np.signbit(v) * np.uint64(ord("-")), out=out[:, 0])
    for i, chunk in enumerate((hi, mid, lo)):
        np.bitwise_and(tables.digits[chunk], tables.keep[i][keep], out=out[:, 1 + i])
    out[:, 4] = tables.exponent[x]
    slow = np.flatnonzero(~fast & (v != 0))
    if slow.size:
        text = b"".join((b"%.12g" % c).ljust(40, b"\0") for c in v[slow].tolist())
        out[slow] = np.frombuffer(text, "<u8").reshape(-1, 5)
    return slow.size


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in an anonymous memory map of its own, unmapped once unused."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def _write_signal_rows(fh, t, b, abs_b, pop, d_two, conc_phi) -> tuple[int, int]:
    """Write the simulate CSV rows block by block; each distinct column is formatted once.

    Each block's rows are fixed-width, NUL-padded bytes, which one
    `translate` per block turns into CSV text. The buffers are sized for
    one block, so memory does not grow with the row count. They are
    memory maps, outside the malloc heap: allocated from the heap, like
    whole-block formatter temporaries, they changed its layout so that a
    later 31 MB array of the same process was mapped on top of a grown
    heap, and the closed_form benchmark's peak RSS read 123 MB instead of
    112 MB. Returns the bytes written and the cells Python formatted.
    """
    columns = (t, b.real, b.imag, abs_b, pop, d_two, conc_phi)
    block = _mapped((_CSV_BLOCK, len(columns)), np.float64)
    cells = _mapped((_CSV_BLOCK, len(columns), 5), "<u8")
    rows = _mapped((_CSV_BLOCK, _CSV_FIELDS.size, 5), "<u8")
    tables = _cell_tables()
    written = slow = 0
    for start in range(0, t.size, _CSV_BLOCK):
        n = min(_CSV_BLOCK, t.size - start)
        for j, col in enumerate(columns):
            block[:n, j] = col[start:start + n]
        for part in range(0, n, _CELL_ROWS):
            end = min(n, part + _CELL_ROWS)
            slow += _format_cells(block[part:end], cells[part:end], tables)
        np.take(cells[:n], _CSV_FIELDS, axis=1, out=rows[:n], mode="clip")
        rows[:n, :, 4] |= _CSV_ENDS
        text = rows[:n].tobytes().translate(None, b"\0")
        fh.write(text.decode("ascii"))
        written += len(text)
    return written, slow


def cmd_simulate(cfg: RunConfig, out) -> int:
    traj = cfg.trajectory()
    b = traj.values
    abs_b = np.abs(b)
    pop, conc_phi = concurrence_bell(b)
    header = "t,re_b,im_b,abs_b,pop_e,d_opt,d_eg,d_two,conc_psi,conc_phi\n"
    with _output(out) as fh:
        fh.write(header)
        written, slow = _write_signal_rows(fh, traj.times(), b, abs_b, pop,
                                           trace_distance_two(b), conc_phi)
    log.debug("simulate: %d rows, %d bytes written, %d of %d cells formatted by Python",
              b.size, len(header) + written, slow, 7 * b.size)
    return EXIT_OK


def _measure_bundle(cfg: RunConfig) -> dict:
    model = cfg.build_model()
    solver = cfg.measure_solver(model)
    if solver is None:
        n_single, n_eg, n_two = _resonant_measures(model, cfg.horizon(model))
    else:
        # No name holds b, so it is freed before the extremum search of P.
        n_single, n_eg, n_two = population_measures(
            population_excited(compute_trajectory(model, solver)), model)
    # The reports carry regime and kappa only for a resonant Lorentzian.
    single = n_single.to_dict()
    return {
        "config": cfg.effective("measure"),
        "regime": single["regime"],
        "kappa": single["kappa"],
        "n_single": single,
        "n_eg": n_eg.to_dict(),
        "n_two_lower": n_two.to_dict(),
    }


def cmd_measure(cfg: RunConfig, out) -> int:
    _write_json(out, _measure_bundle(cfg))
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
    if not (0 < args.width_from < math.inf and 0 < args.width_to < math.inf):
        raise ConfigError(f"width ratios must be positive and finite, got "
                          f"{args.width_from} to {args.width_to}")
    if cfg.type != "lorentzian":
        raise ConfigError(f"sweep varies the Lorentzian width; model type {cfg.type!r} has none")
    points = [
        replace(cfg, width_ratio=float(r))
        for r in np.linspace(args.width_from, args.width_to, args.steps)
    ]
    # Every point's cap is checked before any of them runs. A point that
    # builds no grid costs less than starting a worker.
    grid = sum(p.measure_solver(p.build_model()) is not None for p in points)
    workers = max(1, min(cfg.jobs, len(points), os.cpu_count() or 1, grid))
    log.debug("sweep: %d points, %d on a grid, %d workers", len(points), grid, workers)
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
    _write_json(out, {"config": cfg.effective("verify"), "verification": report.to_dict()})
    return EXIT_OK if report.ok else EXIT_VERIFICATION


class _Parser(argparse.ArgumentParser):
    # argparse reads a value as a negative number, not an option name, only
    # when it matches its matcher, which takes -1 and -.5 but not -1e-3,
    # -1E+2 or -inf; this one takes every negative float literal.
    _NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|-(inf|infinity|nan)$",
                                  re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

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
    except MemoryError as exc:
        print(f"nonmarkov: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
