"""CSV interchange with fixed schemas and lossless numeric rendering.

Every file format is one ``Table``: its header and the columns stored in
Hz.  Those columns are omega/2pi on disk while the in-memory API is
rad/s throughout.  The Hz boundary is crossed with exact rational
arithmetic so a write-then-read cycle reproduces every IEEE double
bit-for-bit; a naive divide/multiply by 2*pi perturbs roughly one value
in eight by one ulp.  Plain columns are rendered with 17 significant
digits (format ``'.17g'``), which also round-trips doubles exactly.  The
field separator is always "," and the decimal mark always ".",
independent of locale.  Files are written in binary mode, so every
platform gets "\n" line ends.

The exact functions ``_render_hz`` and ``_parse_hz`` (``Decimal`` and
``Fraction``), ``_render_float`` and ``float`` are the reference.  Rows
travel as bytes, without a Python string per row:

- Writing turns each column of a block of ``_BLOCK`` rows into a
  NUL-padded (rows, width) uint8 matrix.  A plain block whose every value
  is a whole number below 2**53 is its int64 digits, right-aligned after
  the padding and a "-" wherever the sign bit is set: ``'.17g'`` exactly,
  zeros included.  In any other block the 17-digit coefficient and
  decimal exponent of a Hz value come from one double-double product,
  omega times 10**k/2pi from an exact table (Dekker's error-free product;
  Dekker 1971, Ogita, Rump & Oishi 2005), and those of a plain value from
  x times 10**k.  Their digits are placed by Decimal's layout for Hz and
  by ``'g'``'s, less trailing zeros, for plain columns, without a point
  or fraction columns where no row of an exponent keeps a fraction.  The
  block's bytes are written in one call, straight from the matrix once
  the padding is dropped.
- Reading copies the file, in chunks of at most ``_CHUNK`` bytes cut
  after a "\n", into one zero-padded buffer, splits each chunk at its ","
  and "\n" bytes and parses each column block straight from the buffer.
  The first token not yet read, if of the form ``-?d+(.d+)?`` with at
  most 18 digits, is a template: every token of its length is checked
  against its layout in one comparison, and the tokens that match are
  read together, by Horner over their digit places and with one power of
  ten (the common-case path of Lemire 2021).  A few templates are tried,
  each only where half the next 64 tokens have its length; a per-token
  scanner finds the sign, point, exponent and first digit of the rest.
  Either way a Hz token is its digits times 2pi*10**p, one double-double
  product.  Plain tokens whose every coefficient is below 2**53 and every
  power within 10**+-22 take one IEEE multiply or divide, correctly
  rounded on exact operands (Clinger 1990); any others take digits times
  10**p as a double-double.  Uncertified tokens are parsed once every
  chunk has been split.  A file holding a blank line, a ragged row, an
  empty token, no final "\n" or any byte outside printable ASCII but
  "\n" (every other line break of ``str.splitlines`` among them) is split
  line by line as text instead, which names the first bad row; the rows
  it keeps take the same chunk loop.

A row keeps the fast result only when it is certified to be the exact
function's, i.e. when it lies clear of every rounding tie.  Every other
row goes through the exact function: ties and near-ties, Hz quotients
that Decimal writes with fewer than 17 digits, zeros (but those of a
whole-number block written), magnitudes beyond 1e+-240, tokens outside
the strict form ``-?d+(.d+)?([Ee][+-]d{1,3})?`` with at most 18
significant digits, and every block or chunk under ``_FAST_MIN_ROWS``
rows.  The bytes on disk and the values read back are the same as with
the exact functions alone.  A non-finite value is refused before its
file is opened, since no reader would take it back.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import Context, Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cavity import StarkSweepPoint
from .constants import TWO_PI
from .errors import CsvFormatError, DomainError
from .spectral import Spectrum
from .tlssim import TimeSeries

_TWO_PI_EXACT = Fraction(TWO_PI)
_TWO_PI_DECIMAL = Decimal(TWO_PI)
_HZ_CONTEXT = Context(prec=17)  # the Hz quotient's own, whatever the caller's context

_BLOCK = 8192          # rows per vectorised write step; bounds the temporaries
_CHUNK = 2**18         # bytes per read step, cut after a "\n"; bounds the temporaries
_FAST_MIN_ROWS = 64    # shorter blocks go row by row: numpy's fixed cost dominates
# the fast path takes magnitudes within 10**+-_FAST_DECADES, where the
# Dekker split, the power-of-ten table and every low part stay clear of
# overflow and underflow
_FAST_DECADES = 240
_MAX_POWER = _FAST_DECADES + 20  # 10**k, |k| <= _MAX_POWER, scales every fast row
# the power-of-ten tables' factors, as exact integer ratios: 1 for plain
# columns, 2pi for reading Hz and 1/2pi for writing it
_PLAIN = (1, 1)
_HZ_READ = TWO_PI.as_integer_ratio()
_HZ_WRITE = _HZ_READ[::-1]
# a coefficient below 2**53 times or over 10**p, 0 <= p <= 22, is one
# correctly rounded IEEE operation on exact doubles (Clinger 1990)
_EXACT_COEFFICIENT = 2**53
_EXACT_POWERS = np.array([float(10**p) for p in range(23)])
_DIGIT_POWERS = 10 ** np.arange(17, dtype=np.int64)  # counts a whole number's digits
_MAX_TOKEN = 32        # longer tokens are left to the exact path
# a template token's layout; it may hold 18 digits, those of one int64
_TEMPLATE = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?")
_TEMPLATES = 4         # layouts tried per block: each one costs a pass over the block
# a template is tried only where at least half of the next _TEMPLATE_SAMPLE
# tokens share its length, so a block whose layout changes row to row
# costs the scanner no more than one look at that sample
_TEMPLATE_SAMPLE = 64
# stop after a template that takes under 1/_TEMPLATE_YIELD of the tokens
# left: the block's layouts are too many for another pass to pay
_TEMPLATE_YIELD = 4
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
    return str(_HZ_CONTEXT.divide(Decimal(omega), _TWO_PI_DECIMAL))


def _parse_hz(token: str) -> float:
    hz = Decimal(token)
    # an exact Fraction holds 10**|exponent|, so a token such as 1e99999999
    # would take minutes; past these exponents the outcome is already fixed
    # (finite reads stop at an adjusted exponent of 307, nonzero ones at -325)
    if hz.is_finite() and hz:
        if hz.adjusted() > 310:
            raise OverflowError(token)
        if hz.adjusted() < -330:
            return math.copysign(0.0, hz)
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
def _powers_of_ten(ratio=_PLAIN) -> tuple:
    """10**k times the factor a/b of ``ratio = (a, b)``, as double-double
    (hi, lo) arrays indexed by k + _MAX_POWER.

    Built on first use from exact integers; hi is the product correctly
    rounded and lo the rounded remainder.
    """
    a, b = ratio
    hi, lo = [], []
    for k in range(-_MAX_POWER, _MAX_POWER + 1):
        num, den = (a * 10**k, b) if k >= 0 else (a, b * 10**-k)
        h = num / den
        m, n = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * n - m * den) / (den * n))
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


def _g_layout(k: int, negative: bool) -> tuple:
    """How ``f"{x:.17g}"`` renders a 17-digit coefficient d times 10**-k,
    in ``_layout``'s terms; digits after ``cut`` are fractional and lose
    their trailing zeros."""
    sign = "-" if negative else ""
    e = 16 - k
    if e < -4 or e >= 17:
        return sign, 1, ".", f"e{e:+03d}"
    if e < 0:
        return sign + "0." + "0" * (-e - 1), 0, "", ""
    return sign, e + 1, ".", ""


def _text_matrix(tokens) -> np.ndarray:
    """ASCII tokens as a NUL-padded (rows, width) uint8 matrix."""
    text = np.array(tokens, dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _whole_numbers(x) -> np.ndarray:
    """``_render_float`` of every element of x, each a whole number below
    2**53 in magnitude (zeros included), as a NUL-padded (rows, width)
    uint8 matrix: the int64 digits right-aligned, after a "-" wherever the
    sign bit is set."""
    whole = np.abs(x).astype(np.int64)
    count = np.maximum(np.searchsorted(_DIGIT_POWERS, whole, side="right"), 1)
    negative = np.flatnonzero(np.signbit(x))
    width = int(count.max()) + (negative.size > 0)
    chars = np.zeros((width, x.size), dtype=np.uint8)
    for place in range(width - 1, width - 1 - int(count.max()), -1):
        quotient = whole // 10
        chars[place] = whole - 10 * quotient
        whole = quotient
    chars += 48
    chars *= np.arange(width)[:, None] >= width - count  # NUL before the digits
    chars[width - 1 - count[negative], negative] = 45
    return chars.T


def _encode_block(x, hz: bool) -> np.ndarray:
    """``_render_hz`` (hz) or ``_render_float`` of every element of the
    1-D array x, as a NUL-padded (rows, width) uint8 matrix."""
    render = _render_hz if hz else _render_float
    if x.size < _FAST_MIN_ROWS:
        return _text_matrix(list(map(render, x.tolist())))
    magnitude = np.abs(x)
    in_range = (magnitude >= 10.0**-_FAST_DECADES) & (magnitude <= 10.0**_FAST_DECADES)
    q = magnitude[in_range]
    if not hz and (q < _EXACT_COEFFICIENT).all() and (q == np.floor(q)).all():
        # whole numbers, zeros included, are their own int64 digits; the
        # exact path takes the magnitudes beyond 10**+-_FAST_DECADES
        fast = in_range | (magnitude == 0)
        if fast.all():
            return _whole_numbers(x)
        rows = np.flatnonzero(fast)
        placed = [(rows, _whole_numbers(x[rows]))]
    else:
        rows, placed = _scaled_digits(x, np.flatnonzero(in_range), q, hz)
    exact = np.ones(x.size, dtype=bool)
    exact[rows] = False
    tokens = list(map(render, x[exact].tolist()))
    if tokens:
        placed.append((np.flatnonzero(exact), _text_matrix(tokens)))
    if len(placed) == 1 and rows.size == x.size:
        return placed[0][1]
    out = np.zeros((x.size, max(token.shape[1] for _, token in placed)), dtype=np.uint8)
    for at, token in placed:
        out[at, :token.shape[1]] = token
    return out


def _scaled_digits(x, rows, q, hz: bool) -> tuple:
    """``(rows, placed)``: the rows of x among ``rows`` (whose magnitudes
    are q) that take their 17 digits from one double-double product, and
    their ``(rows, token matrix)`` groups, one per decimal exponent and sign."""
    # scale by 10**k (by 10**k/2pi for Hz) so that the 17-digit
    # coefficient is the integer part
    k = 16 - np.floor(np.log10(q / TWO_PI if hz else q)).astype(np.intp)
    hi, lo = _powers_of_ten(_HZ_WRITE if hz else _PLAIN)
    s, t = _dd_multiply(q, 0.0, hi[k + _MAX_POWER], lo[k + _MAX_POWER])
    # s is an integer (>= 2**53) whenever the coefficient is in range
    t_floor = np.floor(t)
    frac = t - t_floor
    whole = s.astype(np.int64) + t_floor.astype(np.int64)
    coefficient = whole + (frac > 0.5)
    # a tie is decided by the exact path, and so is an exact Hz quotient,
    # which Decimal writes without trailing zeros
    certified = ((whole >= 10**16) & (coefficient < 10**17)
                 & (np.abs(frac - 0.5) > _MARGIN))
    if hz:
        certified &= (frac > _MARGIN) & (frac < 1.0 - _MARGIN)
    rows, k, coefficient = rows[certified], k[certified], coefficient[certified]
    # the 17 digits of every coefficient as characters, from two int32
    # halves: eight digits (with a leading zero) and nine
    high = coefficient // 10**9
    half = np.stack((high, coefficient - high * 10**9)).astype(np.int32)
    digits = np.empty((2, 9, rows.size), dtype=np.uint8)
    for i in range(8, -1, -1):
        quotient = half // 10
        digits[:, i] = half - 10 * quotient + 48
        half = quotient
    digits = digits.reshape(18, rows.size)[1:]
    placed = []
    # one layout per decimal exponent and sign
    key = 2 * k + (x[rows] < 0)
    low = int(key.min(initial=0))
    if not hz:  # the number of digits up to the last non-zero one
        last = ((digits != 48) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    for group in (low + np.flatnonzero(np.bincount(key - low))).tolist():
        chosen = np.flatnonzero(key == group)
        head, cut, mid, tail = (_layout if hz else _g_layout)(group // 2, bool(group % 2))
        d = digits if chosen.size == rows.size else digits[:, chosen]
        point = np.full((chosen.size, 1), 46, dtype=np.uint8)
        if not hz:  # 'g' drops trailing fractional zeros, and then a bare point
            keep = np.maximum(last[chosen], cut)
            if np.all(keep == cut):  # no row keeps a fraction: no point column
                d, mid = d[:cut], ""
            else:
                d[cut:] *= np.arange(cut, 17)[:, None] < keep
                point[keep == cut] = 0
        head, tail = (np.broadcast_to(np.frombuffer(text.encode(), dtype=np.uint8),
                                      (chosen.size, len(text))) for text in (head, tail))
        parts = [head, d[:cut].T, point, d[cut:].T, tail] if mid else [head, d.T, tail]
        placed.append((rows[chosen], np.concatenate(parts, axis=1)))
    return rows, placed


def _parse_block(stream, starts, length, hz: bool) -> tuple:
    """``(values, certified)``: the exact value of every token, times 2pi
    for hz, where ``certified`` is set.  Token i is the
    ``length[i]`` bytes of ``stream`` from ``starts[i]``; the stream ends in
    ``_MAX_TOKEN`` zero bytes.  Tokens that share the layout of a template
    token are read together; ``_scan`` reads the rest one by one."""
    n = starts.size
    if n < _FAST_MIN_ROWS:
        return np.zeros(n), np.zeros(n, dtype=bool)
    rest, parsed = np.arange(n), []  # the tokens no template took, and the taken
    for _ in range(_TEMPLATES):
        size = int(length[rest[0]])
        template = stream[starts[rest[0]]:starts[rest[0]] + size]
        text = template.tobytes()
        if (not _TEMPLATE.fullmatch(text)
                or size - text.startswith(b"-") - (b"." in text) > 18
                or 2 * np.count_nonzero(length[rest[:_TEMPLATE_SAMPLE]] == size)
                < min(rest.size, _TEMPLATE_SAMPLE)):
            break
        digit = template - np.uint8(48) < 10
        same = length[rest] == size
        group = rest[same]
        windows = np.ndarray((stream.size - size + 1,), dtype=f"V{size}", buffer=stream,
                             strides=(1,))
        chars = np.ascontiguousarray(
            windows[starts[group]].view(np.uint8).reshape(group.size, size).T)
        # every place holds the template's byte, or a digit where it has one:
        # less the template's byte (or "0"), it is at most 0 (or 9)
        chars -= np.where(digit, np.uint8(48), template)[:, None]
        match = np.logical_and.reduce(chars <= np.where(digit, 9, 0).astype(np.uint8)[:, None])
        coefficient = np.zeros(group.size, dtype=np.int64)
        for row in chars[digit]:
            coefficient *= 10
            coefficient += row
        coefficient = coefficient[match]
        point = text.find(b".")
        value, certain = _scaled(coefficient, point + 1 - size if point >= 0 else 0, hz)
        same[same] = match
        # a zero coefficient takes the exact path, which keeps the sign of zero
        parsed.append((rest[same], -value if text.startswith(b"-") else value,
                       certain & (coefficient != 0)))
        taken, rest = parsed[-1][0].size, rest[~same]
        if _TEMPLATE_YIELD * taken < taken + rest.size or not rest.size:
            break
    if not parsed:
        del rest  # so that the scanner's temporaries alone set the peak memory
        return _scan(stream, starts, length, hz)
    values, certified = np.empty(n), np.zeros(n, dtype=bool)
    for taken, value, certain in parsed:
        values[taken], certified[taken] = value, certain
    if rest.size:
        values[rest], certified[rest] = _scan(stream, starts[rest], length[rest], hz)
    return values, certified


def _scan(stream, starts, length, hz: bool) -> tuple:
    """``_parse_block`` of tokens of any layout, each scanned for its sign,
    point, exponent and first significant digit."""
    n = starts.size
    width = min(-(-int(length.max()) // 4) * 4, _MAX_TOKEN)
    windows = np.ndarray((stream.size - width + 1,), dtype=f"V{width}", buffer=stream,
                         strides=(1,))
    # characters as (place, token), zero past each token's end
    chars = np.ascontiguousarray(windows[starts].view(np.uint8).reshape(n, width).T)
    place = np.arange(width, dtype=np.uint8)[:, None]
    chars *= place < np.minimum(length, width).astype(np.uint8)
    reverse = np.uint8(width) - place

    def first(mask):
        """The first place where mask is set, or width."""
        return width - (mask * reverse).max(axis=0).astype(np.intp)

    digit = chars - np.uint8(48)
    is_digit = digit < 10
    negative = chars[0] == 45
    e_at = first((chars | 32) == 101)
    has_e = e_at < width
    e_at = np.where(has_e, e_at, length)
    dot_at = first(chars == 46)
    has_dot = dot_at < width
    dot_at = np.where(has_dot, dot_at, e_at)
    lead = first(digit - np.uint8(1) < 9)
    n_exponent = length - e_at - 2
    # every character but the sign, point, E and exponent sign is a digit
    ok = ((length <= width)
          & (is_digit.sum(axis=0, dtype=np.uint8) == length - negative - has_dot - 2 * has_e)
          & (dot_at > negative)
          & (~has_dot | (e_at > dot_at + 1))
          & (~has_e | ((n_exponent > 0) & (n_exponent <= 3)))
          & (lead < e_at))
    significant = e_at - lead - (has_dot & (dot_at > lead))
    ok &= significant <= 18
    # Horner over the mantissa digits, four places a step; wraps where not ok
    mantissa = is_digit & (place < np.minimum(e_at, width).astype(np.uint8))
    factor = mantissa * np.uint8(9) + np.uint8(1)
    digit *= mantissa
    factor, digit = factor[::2] * factor[1::2], digit[::2] * factor[1::2] + digit[1::2]
    factor, digit = (factor[::2].astype(np.uint16) * factor[1::2],
                     digit[::2].astype(np.uint16) * factor[1::2] + digit[1::2])
    coefficient = np.zeros(n, dtype=np.int64)
    for i in range(width // 4):
        coefficient *= factor[i]
        coefficient += digit[i]
    power = np.where(has_dot, dot_at + 1 - e_at, 0)
    exponent = np.flatnonzero(has_e & ok)
    if exponent.size:
        at = starts[exponent] + e_at[exponent] + 1
        sign = stream[at]
        ok[exponent] &= (sign == 43) | (sign == 45)
        value = np.zeros(exponent.size, dtype=np.intp)
        for i in range(1, 4):
            value = np.where(i <= n_exponent[exponent], 10 * value + stream[at + i] - 48,
                             value)
        power[exponent] += np.where(sign == 45, -value, value)
    ok &= np.abs(power + significant - 1) <= _FAST_DECADES
    coefficient, power = np.where(ok, coefficient, 0), np.where(ok, power, 0)
    value, certain = _scaled(coefficient, power, hz)
    return np.where(negative, -value, value), ok & certain


def _scaled(coefficient, power, hz: bool) -> tuple:
    """``(value, certain)``: the int64 coefficient times 10**power (times
    2pi for hz) rounded to the nearest double, exact where ``certain``."""
    c_hi = coefficient.astype(float)
    if (not hz and (coefficient < _EXACT_COEFFICIENT).all()
            and (np.abs(power) < _EXACT_POWERS.size).all()):
        # exact operands: one correctly rounded operation, no tie to test
        scale = _EXACT_POWERS[np.abs(power)]
        return np.where(power < 0, c_hi / scale, c_hi * scale), True
    hi, lo = _powers_of_ten(_HZ_READ if hz else _PLAIN)
    c_lo = (coefficient - c_hi.astype(np.int64)).astype(float)
    value, rest = _dd_multiply(c_hi, c_lo, hi[power + _MAX_POWER], lo[power + _MAX_POWER])
    # the nearest double is value unless the exact product may sit on the
    # tie between value and its neighbour on the side of rest
    neighbour = (value.view(np.int64) + np.where(rest < 0, -1, 1)).view(float)
    return value, np.abs(rest) < (1.0 - _MARGIN) * np.abs(neighbour - value) / 2


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
        if not all(np.isfinite(a).all() for a in arrays):
            # name the first one in file order; nothing is written
            bad = ~np.isfinite(np.column_stack(arrays))
            row, column = divmod(int(np.argmax(bad)), len(arrays))
            raise DomainError(f"row {row + 2}: non-finite value in column "
                              f"'{self.header[column]}'")
        with open(path, "wb") as out:
            out.write((",".join(self.header) + "\n").encode())
            for start in range(0, arrays[0].size, _BLOCK):
                fields = [_encode_block(a[start:start + _BLOCK], name in self.hz)
                          for name, a in zip(self.header, arrays)]
                comma = np.full((fields[0].shape[0], 1), 44, dtype=np.uint8)
                block = np.concatenate([part for field in fields
                                        for part in (field, comma)], axis=1)
                block[:, -1] = 10
                out.write(block[block != 0])

    def read(self, path) -> list:
        """Return one float array per header column (rad/s for Hz)."""
        return self._read(path)[0]

    def _read(self, path) -> tuple:
        """``read``'s columns and the file row numbers of the data rows, for
        ``_file_row``: None when no blank line is skipped."""
        data = Path(path).read_bytes()
        head = (",".join(self.header) + "\n").encode()
        if data.startswith(head) and len(data) > len(head):
            columns = self._parse_rows(data, len(head))
            if columns is not None:
                return columns, None
        numbers, stream = self._lines(data)
        return self._parse_rows(stream, 0, numbers), numbers

    def _parse_rows(self, data: bytes, begin: int, numbers=None):
        """One float array per column from the rows of ``data[begin:]``, in
        chunks of about ``_CHUNK`` bytes cut after a "\n".  Without row
        ``numbers`` (data row j is file row j + 2), None is returned at the
        first chunk the line-by-line split would cut otherwise.  Uncertified
        tokens are parsed after the last chunk, column by column."""
        width = len(self.header)
        # counted a chunk at a time: a mask of the whole file would add its
        # size to the peak memory of the read
        view = np.frombuffer(data, dtype=np.uint8, offset=begin)
        total = sum(np.count_nonzero(view[i:i + _CHUNK] == 10)
                    for i in range(0, view.size, _CHUNK))
        columns = [np.empty(total) for _ in self.header]
        pending = [[] for _ in self.header]  # (row, first byte, end) of each exact parse
        buffer = np.zeros(0, dtype=np.uint8)
        row = 0
        while begin < len(data):
            end = len(data)
            if end - begin > _CHUNK:  # cut after a "\n", or after the row's own
                end = (data.rfind(b"\n", begin, begin + _CHUNK) + 1
                       or data.find(b"\n", begin + _CHUNK) + 1 or end)
            size = end - begin
            if buffer.size < size + _MAX_TOKEN:  # one buffer for every chunk
                buffer = np.empty(size + _MAX_TOKEN, dtype=np.uint8)
            buffer[:size] = np.frombuffer(data, dtype=np.uint8, count=size, offset=begin)
            buffer[size:size + _MAX_TOKEN] = 0
            chunk = buffer[:size]
            ends = np.flatnonzero((chunk == 44) | (chunk == 10))
            count = ends.size // width
            # every line ends in "\n" and holds width tokens, none of them
            # empty, and no control or non-ASCII byte but its "\n" (nor any
            # other line break of str.splitlines)
            if numbers is None and not (
                    chunk[-1] == 10 and ends.size == count * width
                    and np.diff(ends, prepend=-1).min() > 1
                    and ((chunk[ends] == 10).reshape(count, width)
                         == (np.arange(width) == width - 1)).all()
                    and np.count_nonzero(chunk - np.uint8(32) >= 96) == count):
                return None
            ends = ends.reshape(count, width)
            for i, name in enumerate(self.header):
                starts = ends[:, i - 1] + 1 if i else np.concatenate(([0], ends[:-1, -1] + 1))
                length = ends[:, i] - starts
                fast, certified = _parse_block(buffer[:size + _MAX_TOKEN], starts, length,
                                               name in self.hz)
                columns[i][row:row + count] = fast
                exact = np.flatnonzero(~certified)
                pending[i] += zip((row + exact).tolist(), (begin + starts[exact]).tolist(),
                                  (begin + ends[exact, i]).tolist())
            row += count
            begin = end
        for values, name, tokens in zip(columns, self.header, pending):
            parse = _parse_hz if name in self.hz else float
            for j, first, last in tokens:
                values[j] = _parse(parse, data[first:last].decode("utf-8"),
                                   _file_row(numbers, j), name)
        return columns

    def _lines(self, data: bytes) -> tuple:
        """Split the file line by line as text, skipping blank lines and
        naming the first bad row; return the row numbers and the rows as
        one "\n"-terminated byte stream."""
        width = len(self.header)
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            row = len((data[:exc.start].decode("utf-8") + "_").splitlines())
            raise CsvFormatError(f"row {row}: invalid UTF-8 byte "
                                 f"{data[exc.start]:#04x}") from None
        expected = ",".join(self.header)
        if not lines or lines[0] != expected:
            raise CsvFormatError(f"row 1: expected header '{expected}'")
        numbers, rows = [], []
        for number, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            if line.count(",") != width - 1:
                raise CsvFormatError(f"row {number}: expected "
                                     f"{width} columns, got {line.count(',') + 1}")
            numbers.append(number)
            rows.append(line)
        if not rows:
            raise CsvFormatError("row 2: no data rows")
        return numbers, ("\n".join(rows) + "\n").encode()


def _file_row(numbers, j: int) -> int:
    """The file row of data row ``j`` (counted from 0) given ``Table._read``'s
    row numbers."""
    return j + 2 if numbers is None else numbers[j]


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
    (times, values), numbers = TIME_SERIES._read(path)
    if times.size < 2:
        raise CsvFormatError("need at least 2 rows to infer the sampling interval")
    dt = times[1] - times[0]
    if not dt > 0:
        raise CsvFormatError(f"row {_file_row(numbers, 1)}: "
                             "time column must be strictly increasing")
    # |times - (t0 + dt*k)| <= 1e-9*dt with one temporary; NaN fails it
    grid = np.arange(times.size, dtype=float)
    grid *= dt
    grid += times[0]
    grid -= times
    if not np.abs(grid, out=grid).max() <= 1e-9 * dt:
        j = int(np.argmax(~(grid <= 1e-9 * dt)))
        raise CsvFormatError(f"row {_file_row(numbers, j)}: "
                             "time column is not uniformly sampled")
    return TimeSeries(t0=float(times[0]), dt=float(dt), values=values)


def write_spectrum(path, spectrum: Spectrum) -> None:
    SPECTRUM.write(path, (spectrum.omegas, spectrum.values))


def write_stark_sweep(path, points) -> None:
    STARK_SWEEP.write(path, ([p.temperature for p in points],
                             [p.delta_omega_q for p in points]))


def read_stark_sweep(path) -> list:
    (temps, shifts), numbers = STARK_SWEEP._read(path)
    points = []
    for j, (t, s) in enumerate(zip(temps.tolist(), shifts.tolist())):
        try:
            points.append(StarkSweepPoint(t, s))
        except DomainError as exc:
            raise DomainError(f"row {_file_row(numbers, j)}: {exc}") from None
    return points


def write_floor_points(path, points) -> None:
    FLOOR_POINTS.write(path, ([t for t, _ in points], [mu for _, mu in points]))


def read_floor_points(path) -> list:
    """(temperature, white level) pairs; every level must be > 0."""
    (temps, mu), numbers = FLOOR_POINTS._read(path)
    if not (mu > 0).all():
        j = int(np.argmax(~(mu > 0)))
        raise DomainError(f"row {_file_row(numbers, j)}: "
                          f"white level {mu[j].item()!r} must be > 0")
    return list(zip(temps.tolist(), mu.tolist()))
