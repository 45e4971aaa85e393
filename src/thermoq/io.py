"""CSV interchange with fixed schemas and lossless numeric rendering.

Every file format is one ``Table``: its header and the columns stored in
Hz.  Those columns are omega/2pi on disk while the in-memory API is
rad/s throughout.  The Hz boundary is crossed with exact rational
arithmetic so a write-then-read cycle reproduces every IEEE double
bit-for-bit; a naive divide/multiply by 2*pi perturbs roughly one value
in eight by one ulp.  Plain columns are rendered with 17 significant
digits, which also round-trips doubles exactly.  The field separator is
always "," and the decimal mark always ".", independent of locale.

The exact functions ``_render_hz`` and ``_parse_hz`` (``Decimal`` and
``Fraction``) are the reference.  Rows are written, and Hz columns read,
in blocks of ``_BLOCK`` rows, and an Hz block of ``_FAST_MIN_ROWS`` rows
or more first takes a vectorised fast path: the quotient omega/2pi, or the
product of a token with 2pi, is carried as a double-double (Dekker's
error-free product; Dekker 1971, Ogita, Rump & Oishi 2005), and a row
keeps the fast result only when it is certified to be the exact
function's, i.e. when it lies clear of every rounding tie.  Every other
row goes through the exact function: ties and near-ties, quotients that
Decimal writes with fewer than 17 digits, zeros, non-finite values,
magnitudes beyond 1e+-240, and tokens outside the strict form
``-?d+(.d+)?(E[+-]d{1,3})?`` with at most 18 significant digits.  The bytes
on disk and the values read back are the same as with the exact path
alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np

from .cavity import StarkSweepPoint
from .constants import TWO_PI
from .errors import CsvFormatError
from .spectral import Spectrum
from .tlssim import TimeSeries

_TWO_PI_EXACT = Fraction(TWO_PI)

_BLOCK = 8192          # rows per vectorised step; bounds the temporaries
_FAST_MIN_ROWS = 64    # shorter blocks go row by row: numpy's fixed cost dominates
# the fast path takes magnitudes within 10**+-_FAST_DECADES, where the
# Dekker split, the power-of-ten table and every low part stay clear of
# overflow and underflow
_FAST_DECADES = 240
_MAX_POWER = _FAST_DECADES + 20  # 10**k, |k| <= _MAX_POWER, scales every fast row
_MAX_TOKEN = 32        # longer tokens are left to the exact path
# the least distance, in units of the last place, between a fast result
# and a rounding tie (or, when rendering, a quotient with fewer digits)
_MARGIN = 1e-6
_DEKKER = 2.0**27 + 1


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


def _two_product(a, b):
    """Dekker's error-free product: a*b == p + e exactly, for a, b well
    inside the exponent range."""
    p = a * b
    a_hi, a_lo = _dekker_split(a)
    b_hi, b_lo = _dekker_split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dekker_split(a):
    t = a * _DEKKER
    hi = t - (t - a)
    return hi, a - hi


def _dd_multiply(a_hi, a_lo, b_hi, b_lo):
    """Normalised double-double product, relative error about 2**-104."""
    p, e = _two_product(a_hi, b_hi)
    e = e + (a_hi * b_lo + a_lo * b_hi)
    s = p + e
    return s, e - (s - p)


@functools.cache
def _powers_of_ten() -> tuple:
    """10**k as double-double (hi, lo) arrays, indexed by k + _MAX_POWER.

    Built on first use from exact integers; hi is 10**k correctly rounded
    and lo the rounded remainder.
    """
    hi, lo = [], []
    for k in range(-_MAX_POWER, _MAX_POWER + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


@functools.cache
def _layout(k: int, negative: bool) -> tuple:
    """How ``str(Decimal)`` renders a 17-digit coefficient d times 10**-k:
    ``head + d[:cut] + mid + d[cut:] + tail``, read off a rendering of
    seventeen ones so that the layout rules stay Decimal's own."""
    text = str(Decimal((int(negative), (1,) * 17, -k)))
    start = text.index("1")
    body = text[start:start + 18]
    if body.count("1") == 17 and "." in body:
        return text[:start], body.index("."), ".", text[start + 18:]
    return text[:start], 17, "", text[start + 17:]


def _render_hz_block(omega) -> list:
    """``_render_hz`` of every element of the 1-D array ``omega``."""
    if omega.size < _FAST_MIN_ROWS:
        return list(map(_render_hz, omega.tolist()))
    tokens = np.empty(omega.size, dtype=object)
    magnitude = np.abs(omega)
    rows = np.flatnonzero((magnitude >= 10.0**-_FAST_DECADES)
                          & (magnitude <= 10.0**_FAST_DECADES))
    x = magnitude[rows]
    q = x / TWO_PI
    p, e = _two_product(q, TWO_PI)
    q_lo = ((x - p) - e) / TWO_PI   # x/TWO_PI == q + q_lo to about 2**-104
    # scale by 10**k so that the 17-digit coefficient is the integer part
    k = 16 - np.floor(np.log10(q)).astype(np.intp)
    hi, lo = _powers_of_ten()
    s, t = _dd_multiply(q, q_lo, hi[k + _MAX_POWER], lo[k + _MAX_POWER])
    # s is an integer (>= 2**53) whenever the coefficient is in range
    t_floor = np.floor(t)
    frac = t - t_floor
    whole = s.astype(np.int64) + t_floor.astype(np.int64)
    coefficient = whole + (frac > 0.5)
    # a tie, or an exact quotient (which Decimal writes without trailing
    # zeros), is decided by the exact path
    certified = ((whole >= 10**16) & (coefficient < 10**17)
                 & (np.abs(frac - 0.5) > _MARGIN)
                 & (frac > _MARGIN) & (frac < 1.0 - _MARGIN))
    rows, k, coefficient = rows[certified], k[certified], coefficient[certified]
    negative = omega[rows] < 0
    key = 2 * k + negative
    for group in np.unique(key).tolist():
        chosen = key == group
        head, cut, mid, tail = _layout(group // 2, bool(group % 2))
        tokens[rows[chosen]] = [head + d[:cut] + mid + d[cut:] + tail
                                for d in map(str, coefficient[chosen].tolist())]
    exact = np.flatnonzero(np.equal(tokens, None))
    tokens[exact] = list(map(_render_hz, omega[exact].tolist()))
    return tokens.tolist()


def _parse_hz_block(tokens) -> tuple:
    """``(values, certified)``: ``_parse_hz`` of every token where
    ``certified`` is set, for a sequence of strings."""
    n = len(tokens)
    if n < _FAST_MIN_ROWS:
        return np.zeros(n), np.zeros(n, dtype=bool)
    # one byte stream, every token followed by its "," (no token holds one)
    stream = np.frombuffer((",".join(tokens) + ",").encode(), dtype=np.uint8)
    ends = np.flatnonzero(stream == 44)
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts
    width = int(min(length.max(), _MAX_TOKEN))
    # characters as (position, token), zero past each token's end
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((stream, np.zeros(width, dtype=np.uint8))), width)
    place = np.arange(width)[:, None]
    chars = np.where(place < length, windows[starts].T, 0)
    digit = chars - np.uint8(48)
    is_digit = digit < 10
    rows = np.arange(n)
    negative = chars[0] == 45
    is_e, is_dot = chars == 69, chars == 46
    has_e, has_dot = is_e.any(axis=0), is_dot.any(axis=0)
    e_at = np.where(has_e, is_e.argmax(axis=0), length)
    dot_at = np.where(has_dot, is_dot.argmax(axis=0), e_at)
    e_sign = chars[np.minimum(e_at + 1, width - 1), rows]
    n_exponent = length - e_at - 2
    # every character but the sign, point, E and exponent sign is a digit
    ok = ((length <= width)
          & (is_digit.sum(axis=0) == length - negative - has_dot - 2 * has_e)
          & (dot_at > negative)
          & (~has_dot | (e_at > dot_at + 1))
          & (~has_e | (((e_sign == 43) | (e_sign == 45)) & (n_exponent > 0)
                       & (n_exponent <= 3))))
    leading = is_digit & (digit > 0) & (place < e_at)
    lead = leading.argmax(axis=0)
    significant = e_at - lead - (has_dot & (dot_at > lead))
    ok &= leading.any(axis=0) & (significant <= 18)
    coefficient = np.zeros(n, dtype=np.int64)  # Horner; wraps where not ok
    for i in range(width):
        coefficient = np.where(is_digit[i] & (i < e_at), 10 * coefficient + digit[i],
                               coefficient)
    power = np.zeros(n, dtype=np.int64)
    for i in range(3):
        at = e_at + 2 + i
        power = np.where(has_e & (at < length),
                         10 * power + digit[np.minimum(at, width - 1), rows], power)
    power = (np.where(e_sign == 45, -power, power)
             - np.where(has_dot, e_at - dot_at - 1, 0))
    ok &= np.abs(power + significant - 1) <= _FAST_DECADES
    coefficient, power = np.where(ok, coefficient, 0), np.where(ok, power, 0)
    hi, lo = _powers_of_ten()
    c_hi = coefficient.astype(float)
    c_lo = (coefficient - c_hi.astype(np.int64)).astype(float)
    x_hi, x_lo = _dd_multiply(c_hi, c_lo, hi[power + _MAX_POWER], lo[power + _MAX_POWER])
    value, rest = _dd_multiply(x_hi, x_lo, TWO_PI, 0.0)
    # the nearest double is value unless the exact product may sit on the
    # tie between value and its neighbour on the side of rest
    neighbour = np.nextafter(value, np.where(rest < 0, 0.0, np.inf))
    ok &= np.abs(rest) < (1.0 - _MARGIN) * np.abs(neighbour - value) / 2
    return np.where(negative, -value, value), ok


def _parse_hz_column(tokens, numbers, name):
    values = np.empty(len(tokens))
    for start in range(0, len(tokens), _BLOCK):
        block = tokens[start:start + _BLOCK]
        fast, certified = _parse_hz_block(block)
        values[start:start + len(block)] = fast
        for i in np.flatnonzero(~certified).tolist():
            values[start + i] = _parse(_parse_hz, block[i], numbers[start + i], name)
    return values


def _render_plain(x) -> list:
    return list(map(_render_float, x.tolist()))


def _parse_plain_column(tokens, numbers, name):
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    # name the first bad row
    return np.array([_parse(float, token, number, name)
                     for token, number in zip(tokens, numbers)])


@dataclass(frozen=True)
class Table:
    """One CSV format: its header and the names of the columns kept in Hz."""

    header: tuple
    hz: tuple = ()

    def write(self, path, columns) -> None:
        """Write one sequence of floats per header column (rad/s for Hz)."""
        arrays = [np.asarray(column, dtype=float)
                  for _, column in zip(self.header, columns, strict=True)]
        if len({a.shape for a in arrays}) > 1:
            raise ValueError("columns differ in length")
        renders = [_render_hz_block if name in self.hz else _render_plain
                   for name in self.header]
        with open(path, "w", encoding="utf-8") as out:
            out.write(",".join(self.header) + "\n")
            for start in range(0, arrays[0].size, _BLOCK):
                fields = [render(a[start:start + _BLOCK])
                          for render, a in zip(renders, arrays)]
                out.write("\n".join(map(",".join, zip(*fields))) + "\n")

    def read(self, path) -> list:
        """Return one float array per header column (rad/s for Hz)."""
        numbers, columns = self._split(path)
        return [(_parse_hz_column if name in self.hz else _parse_plain_column)(
                    tokens, numbers, name)
                for name, tokens in zip(self.header, columns)]

    def _split(self, path) -> tuple:
        """Check the header and every row's width; return the row numbers
        and one sequence of tokens per column.

        A separate method, so the file's lines are freed before parsing.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        expected = ",".join(self.header)
        if not lines or lines[0] != expected:
            raise CsvFormatError(f"row 1: expected header '{expected}'")
        width = len(self.header)
        del lines[0]
        commas = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp,
                             count=len(lines))
        if lines and (commas == width - 1).all() and "" not in lines:
            # no blank line to skip and no ragged row: split the lot at once
            text = ",".join(lines)
            del lines
            tokens = text.split(",")
            return range(2, len(tokens) // width + 2), [tokens[i::width]
                                                        for i in range(width)]
        numbers, rows = [], []
        for number, line in enumerate(lines, start=2):
            if line == "":
                continue
            tokens = line.split(",")
            if len(tokens) != width:
                raise CsvFormatError(f"row {number}: expected "
                                     f"{width} columns, got {len(tokens)}")
            numbers.append(number)
            rows.append(tuple(tokens))  # smaller than the list split returns
        if not rows:
            raise CsvFormatError("row 2: no data rows")
        return numbers, list(zip(*rows))


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
    """A spectrum CSV as a Spectrum.  The file carries no bin counts, so
    every value counts as one raw periodogram point when it is fitted."""
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
