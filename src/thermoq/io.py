"""CSV interchange with fixed schemas and lossless numeric rendering.

Every file format is one ``Table``: its header and the columns stored in
Hz.  Those columns are omega/2pi on disk while the in-memory API is
rad/s throughout.  The Hz boundary is crossed with exact rational
arithmetic so a write-then-read cycle reproduces every IEEE double
bit-for-bit; a naive divide/multiply by 2*pi perturbs roughly one value
in eight by one ulp.  Plain columns are rendered with 17 significant
digits, which also round-trips doubles exactly.  The field separator is
always "," and the decimal mark always ".", independent of locale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cavity import StarkSweepPoint
from .constants import TWO_PI
from .errors import CsvFormatError
from .spectral import Spectrum
from .tlssim import TimeSeries

_TWO_PI_EXACT = Fraction(TWO_PI)


def _render_float(x: float) -> str:
    """Render a double with 17 significant digits; parses back exactly."""
    return f"{x:.17g}"


def _render_hz(omega: float) -> str:
    """Render omega/2pi: 17 significant digits of the exact real quotient.

    Rounding the true quotient (rather than the nearest-double quotient)
    keeps the relative error below half an ulp of omega, so the reader's
    exact multiply-and-round recovers omega without loss.
    """
    if omega == 0.0:
        return "-0" if math.copysign(1.0, omega) < 0 else "0"
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(omega) / Decimal(TWO_PI))


def _parse_hz(token: str) -> float:
    hz = Decimal(token)
    # the exact product drops the sign of zero; restore it from the token
    return math.copysign(float(Fraction(hz) * _TWO_PI_EXACT), hz)


def _parse(parse, token: str, row: int, column: str) -> float:
    try:
        value = parse(token)
    except (InvalidOperation, ValueError, OverflowError, ZeroDivisionError):
        raise CsvFormatError(
            f"row {row}: could not parse {token!r} in column '{column}'"
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"row {row}: non-finite value in column '{column}'")
    return value


@dataclass(frozen=True)
class Table:
    """One CSV format: its header and the names of the columns kept in Hz."""

    header: tuple
    hz: tuple = ()

    def write(self, path, columns) -> None:
        """Write one sequence of floats per header column (rad/s for Hz)."""
        fields = [map(_render_hz if name in self.hz else _render_float,
                      np.asarray(column, dtype=float).tolist())
                  for name, column in zip(self.header, columns, strict=True)]
        lines = [",".join(self.header), *map(",".join, zip(*fields, strict=True))]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def read(self, path) -> list:
        """Return one float array per header column (rad/s for Hz)."""
        numbers, rows = self._split(path)
        columns = []
        for name, tokens in zip(self.header, zip(*rows)):
            parse = _parse_hz if name in self.hz else float
            columns.append(np.array([_parse(parse, token, number, name)
                                     for token, number in zip(tokens, numbers)]))
        return columns

    def _split(self, path) -> tuple:
        """Check the header and every row's width; return row numbers and tokens.

        A separate method, so the file's lines are freed before parsing.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        expected = ",".join(self.header)
        if not lines or lines[0] != expected:
            raise CsvFormatError(f"row 1: expected header '{expected}'")
        numbers, rows = [], []
        for number, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            tokens = line.split(",")
            if len(tokens) != len(self.header):
                raise CsvFormatError(f"row {number}: expected "
                                     f"{len(self.header)} columns, got {len(tokens)}")
            numbers.append(number)
            rows.append(tuple(tokens))  # smaller than the list split returns
        if not rows:
            raise CsvFormatError("row 2: no data rows")
        return numbers, rows


TIME_SERIES = Table(("time_s", "gamma1_hz"), hz=("gamma1_hz",))
SPECTRUM = Table(("freq_hz", "psd_w_per_hz"), hz=("freq_hz",))
STARK_SWEEP = Table(("temp_k", "shift_hz"), hz=("shift_hz",))
FLOOR_POINTS = Table(("temp_k", "psd_w_per_hz"))
GAMMA1_SWEEP = Table(
    ("photon_number", "gamma1_antenna_hz", "gamma1_dispersive_hz",
     "delta_gamma1_res_hz"),
    hz=("gamma1_antenna_hz", "gamma1_dispersive_hz", "delta_gamma1_res_hz"))
DEPHASING_SWEEP = Table(("temp_k", "gamma_phi_hz"), hz=("gamma_phi_hz",))


def write_time_series(path, series: TimeSeries) -> None:
    TIME_SERIES.write(path, (series.times, series.values))


def read_time_series(path) -> TimeSeries:
    times, values = TIME_SERIES.read(path)
    if times.size < 2:
        raise CsvFormatError("need at least 2 rows to infer the sampling interval")
    dt = times[1] - times[0]
    if not dt > 0:
        raise CsvFormatError("row 3: time column must be strictly increasing")
    grid = times[0] + dt * np.arange(times.size)
    if not np.allclose(times, grid, rtol=0.0, atol=1e-9 * dt):
        raise CsvFormatError("time column is not uniformly sampled")
    return TimeSeries(t0=float(times[0]), dt=float(dt), values=values)


def write_spectrum(path, spectrum: Spectrum) -> None:
    SPECTRUM.write(path, (spectrum.omegas, spectrum.values))


def read_spectrum(path) -> Spectrum:
    omegas, values = SPECTRUM.read(path)
    return Spectrum(omegas=omegas, values=values)


def write_stark_sweep(path, points) -> None:
    STARK_SWEEP.write(path, ([p.temperature for p in points],
                             [p.delta_omega_q for p in points]))


def read_stark_sweep(path) -> list:
    temps, shifts = STARK_SWEEP.read(path)
    return [StarkSweepPoint(t, s) for t, s in zip(temps.tolist(), shifts.tolist())]


def write_floor_points(path, points) -> None:
    FLOOR_POINTS.write(path, ([t for t, _ in points], [mu for _, mu in points]))


def read_floor_points(path) -> list:
    temps, mu = FLOOR_POINTS.read(path)
    return list(zip(temps.tolist(), mu.tolist()))
