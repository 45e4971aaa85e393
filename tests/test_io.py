"""Tests for the fixed-schema CSV interchange layer.

All on-disk frequencies are Hz (omega/2pi) while everything in memory
is rad/s; values are rendered with 17 significant digits so a
write-then-read round trip is the identity on IEEE doubles.
"""

import hashlib
import math
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoq import io
from thermoq.cavity import StarkSweepPoint
from thermoq.constants import TWO_PI
from thermoq.errors import CsvFormatError, DomainError
from thermoq.spectral import Spectrum
from thermoq.tlssim import TimeSeries


def sample_series(seed=4):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    values = TWO_PI * (3.9e6 + 215e3 * rng.standard_normal(96))
    return TimeSeries(0.0, 10.0, values)


def near_halfway(rng, scale, count, divisor=1.0):
    """Doubles x with x/divisor within 1e-3 of a 17-digit rounding midpoint."""
    found = []
    while len(found) < count:
        x = float(scale * rng.uniform(-1.0, 1.0))
        q = abs(Fraction(x) / Fraction(divisor))
        digits = 16 - math.floor(math.log10(q))
        if abs(q * Fraction(10) ** digits % 1 - Fraction(1, 2)) < Fraction(1, 1000):
            found.append(x)
    return found


def boundary_values(hz):
    """Doubles that stress the 17-digit rendering and, for hz, the 2pi boundary."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
    divisor = TWO_PI if hz else 1.0
    values = [0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3,
              -TWO_PI * 1e5, -7088.5857179331899 * TWO_PI,
              np.nextafter(TWO_PI * 3.9e6, 0.0), np.nextafter(TWO_PI * 3.9e6, 1e9)]
    values += near_halfway(rng, TWO_PI * 1e6, 6, divisor)
    values += list(TWO_PI * 1e6 * rng.standard_normal(24))
    values.append(-0.0)  # the sign of zero survives in every column
    return np.array(values)


TABLES = {
    "time_series": io.TIME_SERIES, "spectrum": io.SPECTRUM,
    "stark_sweep": io.STARK_SWEEP, "floor_points": io.FLOOR_POINTS,
    "gamma1_sweep": io.GAMMA1_SWEEP, "dephasing_sweep": io.DEPHASING_SWEEP,
}


@pytest.mark.parametrize("name", TABLES)
def test_table_round_trip_is_bit_exact(tmp_path, name):
    table = TABLES[name]
    path = tmp_path / f"{name}.csv"
    columns = [np.roll(boundary_values(col in table.hz), i)
               for i, col in enumerate(table.header)]
    table.write(path, columns)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(table.header)
    assert len(lines) == 1 + columns[0].size
    loaded = table.read(path)
    assert len(loaded) == len(table.header)
    for written, read in zip(columns, loaded):
        assert read.dtype == np.float64
        assert read.tobytes() == written.tobytes()
    for col, written in zip(table.header, columns):
        if col in table.hz:
            # the naive omega/2pi*2pi route would not survive these values
            assert np.any(written / TWO_PI * TWO_PI != written)


@pytest.mark.parametrize("body, message", [
    ("temp_k,shift_hz\n0.5,1e400\n", "row 2: could not parse '1e400' in column 'shift_hz'"),
    ("temp_k,shift_hz\n0.5,1\n0.6,nan\n", "row 3: could not parse 'nan' in column 'shift_hz'"),
    ("temp_k,shift_hz\n0.5,1\ninf,1\n", "row 3: non-finite value in column 'temp_k'"),
    ("temp_k,shift_hz\n\n0.5,1\n0.6\n", "row 4: expected 2 columns, got 1"),
    ("temp_k,shift_hz\n\n", "row 2: no data rows"),
    ("temp_k;shift_hz\n0.5;1\n", "row 1: expected header 'temp_k,shift_hz'"),
])
def test_table_read_errors_name_row_and_column(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(CsvFormatError) as excinfo:
        io.STARK_SWEEP.read(path)
    assert str(excinfo.value) == message


def test_table_write_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        io.DEPHASING_SWEEP.write(tmp_path / "x.csv", ([0.1, 0.2], [1.0]))
    with pytest.raises(ValueError):
        io.DEPHASING_SWEEP.write(tmp_path / "x.csv", ([0.1, 0.2],))


@pytest.mark.parametrize("columns, message", [
    (([0.1, math.nan], [1.0, 2.0]), "row 3: non-finite value in column 'temp_k'"),
    (([0.1, 0.2], [1.0, -math.inf]), "row 3: non-finite value in column 'gamma_phi_hz'"),
    # the first bad row in file order, and within it the first bad column
    (([0.1, 0.2, math.inf], [1.0, math.nan, 3.0]),
     "row 3: non-finite value in column 'gamma_phi_hz'"),
    (([0.1, math.inf], [1.0, math.nan]), "row 3: non-finite value in column 'temp_k'"),
    ((np.arange(100.0), np.where(np.arange(100) == 70, math.inf, 1.0)),
     "row 72: non-finite value in column 'gamma_phi_hz'"),
])
def test_table_write_refuses_non_finite_values(tmp_path, columns, message):
    path = tmp_path / "x.csv"
    with pytest.raises(DomainError) as excinfo:
        io.DEPHASING_SWEEP.write(path, columns)
    assert str(excinfo.value) == message
    assert not path.exists()


def fast_path_values():
    """Omegas for the vectorised Hz path: mostly routine rows, plus every
    kind of row it must hand to the exact path, over more than two blocks."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    routine = TWO_PI * (3.9e6 + 215e3 * rng.standard_normal(2**14))
    halfway = near_halfway(rng, TWO_PI * 1e6, 40, TWO_PI)
    # exact quotients: short decimals, and dyadic ones that sit exactly on
    # a 17-digit rounding midpoint (3/2**25 Hz is 8.94069671630859375e-8)
    short = TWO_PI * np.arange(1, 2001) / 655360
    dyadic = [sign * TWO_PI * j / 2.0**s for sign in (1, -1)
              for j in (1, 3, 5, 7) for s in range(1, 61)]
    # Hz within an ulp of where Decimal switches notation
    switch = [np.nextafter(x, x * direction) for hz in (1e-7, 1e-6, 1e16, 1e17)
              for x in (TWO_PI * hz, -TWO_PI * hz) for direction in (0.0, 1.0, 2.0)]
    extremes = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                0.0, -0.0]
    values = np.concatenate([routine, halfway, short, dyadic, switch, extremes])
    return values[rng.permutation(values.size)]


def plain_fast_path_values(count):
    """Doubles for the vectorised plain path: routine values, uniform times
    at dt = 1/3, and every kind of value it must hand to the exact path."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    routine = rng.standard_normal(4000) * 10.0 ** rng.integers(-30, 30, 4000)
    thirds = np.arange(2000) / 3
    halfway = near_halfway(rng, 1e6, 20)
    # dyadic values on an exact 17-digit rounding midpoint
    # (3/2**25 is 8.94069671630859375e-8)
    dyadic = [sign * j / 2.0**s for sign in (1, -1)
              for j in (1, 3, 5, 7) for s in range(1, 80)]
    # within an ulp of where 'g' switches notation
    switch = [np.nextafter(x, x * direction) for v in (1e-5, 1e-4, 1e16, 1e17)
              for x in (v, -v) for direction in (0.0, 1.0, 2.0)]
    integers = np.arange(-3000.0, 3000.0, 7.0)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1.7976931348623157e308, -1.7976931348623157e308, 1e240, -1e-240]
    values = np.concatenate([routine, thirds, halfway, dyadic, switch, integers,
                             extremes])
    return np.resize(values[rng.permutation(values.size)], count)


def exact_tokens(table, columns):
    """The rows the exact per-value functions alone would write."""
    return [",".join(io._render_hz(x) if name in table.hz else io._render_float(x)
                     for name, x in zip(table.header, row))
            for row in zip(*(c.tolist() for c in columns))]


@pytest.mark.parametrize("name", TABLES)
def test_fast_path_equals_exact_path(tmp_path, name):
    table = TABLES[name]
    values = fast_path_values()
    plain = plain_fast_path_values(values.size)
    columns = [np.roll(values, 7 * i) if col in table.hz else np.roll(plain, 7 * i)
               for i, col in enumerate(table.header)]
    path = tmp_path / f"{name}.csv"
    table.write(path, columns)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == exact_tokens(table, columns)
    tokens = list(zip(*(line.split(",") for line in lines[1:])))
    for col, token_column, read in zip(table.header, tokens, table.read(path)):
        parse = io._parse_hz if col in table.hz else float
        expected = np.array([parse(token) for token in token_column])
        assert read.tobytes() == expected.tobytes()


def test_fast_path_takes_nearly_every_row(tmp_path, monkeypatch):
    """Routine values must not all fall through to the exact functions."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(6)))
    n = 2 * io._BLOCK + 100
    # gamma1-scale rates and magnitudes over 36 decades, plain and scientific
    values = TWO_PI * np.where(rng.uniform(size=n) < 0.5,
                               3.9e6 + 215e3 * rng.standard_normal(n),
                               -(10.0 ** rng.uniform(-12, 24, n)))
    calls = dict.fromkeys(["_render_hz", "_render_float", "_parse"], 0)

    def counted(key, function):
        def wrapper(*args):
            calls[key] += 1
            return function(*args)
        return wrapper

    for key in calls:  # every exact render, and every exact parse of either kind
        monkeypatch.setattr(io, key, counted(key, getattr(io, key)))
    path = tmp_path / "series.csv"
    times = np.arange(n) * 10.0
    io.TIME_SERIES.write(path, (times, values))
    read_times, read = io.TIME_SERIES.read(path)
    assert read.tobytes() == values.tobytes()
    assert read_times.tobytes() == times.tobytes()
    assert all(count <= n // 1000 for count in calls.values()), calls


@pytest.mark.parametrize("factor, ratio", [
    (Fraction(1), io._PLAIN), (Fraction(TWO_PI), io._HZ_READ),
    (1 / Fraction(TWO_PI), io._HZ_WRITE)])
def test_power_tables_are_correctly_rounded(factor, ratio):
    hi, lo = io._powers_of_ten(ratio)
    for k in range(-io._MAX_POWER, io._MAX_POWER + 1):
        exact = Fraction(10) ** k * factor
        assert hi[k + io._MAX_POWER] == float(exact), k
        assert lo[k + io._MAX_POWER] == float(exact - Fraction(hi[k + io._MAX_POWER])), k


def table_calls(monkeypatch):
    """Count the power-of-ten table lookups, which only the general path makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return tables(*args)

    tables = io._powers_of_ten
    monkeypatch.setattr(io, "_powers_of_ten", counted)
    return calls


def read_column(path, tokens):
    path.write_text("x\n" + "".join(f"{t}\n" for t in tokens), encoding="utf-8")
    read, = io.Table(("x",)).read(path)
    return read


def double_rounded(power, count=4):
    """Tokens c*10**power, c < 2**53, that one IEEE operation with the
    rounded 10**|power| gets wrong."""
    scale = float(10 ** abs(power))
    found = []
    for c in range(1, 10**6):
        if (c * scale if power > 0 else c / scale) != float(f"{c}e{power:+d}"):
            found.append(f"{c}e{power:+d}")
            if len(found) == count:
                return found


# short tokens that alone take the one-operation path
SHORT_TOKENS = [f"{i}.{i % 7}e{i % 44 - 21:+d}" for i in range(1, 70)]


@pytest.mark.parametrize("edge, shortcut", [
    # coefficients 2**53 - 1 and 2**53 + 1 over every power the shortcut takes
    ([f"{s}{2**53 - 1}e{p:+d}" for s in ("", "-") for p in range(-22, 23)], True),
    ([f"{s}{2**53 + 1}e{p:+d}" for s in ("", "-") for p in range(-22, 23)], False),
    (["1e+22", "-4722366482869645e+22", "1e-22", "-4722366482869645e-22"], True),
    (double_rounded(23), False),
    (double_rounded(-23), False),
])
def test_one_operation_read_bounds(tmp_path, monkeypatch, edge, shortcut):
    """A plain block reads with one IEEE operation only where every
    coefficient is below 2**53 and every power within 10**+-22; just
    outside, one rounded operand would round twice."""
    calls, parses = table_calls(monkeypatch), []
    monkeypatch.setattr(io, "_parse", lambda *args: parses.append(args) or float(args[1]))
    tokens = SHORT_TOKENS + edge
    read = read_column(tmp_path / "x.csv", tokens)
    assert read.tobytes() == np.array([float(t) for t in tokens]).tobytes()
    assert (calls == []) == shortcut
    assert parses == [] or not shortcut  # 2**53 + 1 is a tie, left to the exact path


WHOLE = [float(v) for v in range(1, 40)] + [float(10**j + d) for j in range(1, 16)
                                            for d in (-1, 0, 1)]


@pytest.mark.parametrize("edge, shortcut", [
    ([2**53 - 1], True), ([2**53], False), ([10**16 - 1], False), ([10**16], False),
    ([10**17, 2**60], False), ([2**53 - 1, 0.5], False),
    # zeros and magnitudes the exact path takes leave the rest to the shortcut
    ([2**53 - 1, 0.0, 1e-300], True),
])
def test_whole_number_write_bounds(tmp_path, monkeypatch, edge, shortcut):
    """A plain block of whole numbers below 2**53 takes its digits from
    int64; one larger or non-whole value sends the block down the general
    path.  Either way the bytes are those of the exact function."""
    calls = table_calls(monkeypatch)
    values = np.array([sign * float(v) for v in WHOLE + edge for sign in (1, -1)])
    path = tmp_path / "x.csv"
    io.Table(("x",)).write(path, (values,))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [io._render_float(x) for x in values.tolist()]
    assert (calls == []) == shortcut
    read, = io.Table(("x",)).read(path)
    assert read.tobytes() == values.tobytes()


def test_g_groups_drop_the_point_only_where_no_row_keeps_a_fraction():
    """Within one exponent and sign, rows with and without a fraction; the
    groups with none are laid out without their empty point and fraction."""
    mixed = [12.0, 12.5, 13.0, 99.25, 10.0, 17.125, -12.0, -12.5, 1e20, 1.5e20, 3e-7,
             3.25e-7, 0.001, 0.0015]
    whole = [100.0, 200.0, 900.0, -300.0, -400.0, 5e20, 7e-7]
    values = np.resize(np.array(mixed + whole), 90)
    tokens = io._encode_block(values, False)
    assert [bytes(row[row != 0]).decode() for row in tokens] == \
        [io._render_float(x) for x in values.tolist()]
    integers = io._encode_block(np.arange(1, 91) * 10.0, False)
    assert integers.shape[1] == 3 and (integers != 0).any(axis=0).all()


LAYOUTS = ["d.d", "dd.dd", "-d.ddd", "dddd", "d.ddddd"]


def with_layout(layout, i):
    """Token i of ``layout``, such as "d.dd"; none of them is zero."""
    n = layout.count("d")
    digits = iter(f"{1 + i % (10**n - 1):0{n}d}")
    return "".join(next(digits) if c == "d" else c for c in layout)


@pytest.mark.parametrize("hz", [False, True])
@pytest.mark.parametrize("tokens, scanned, exact", [
    # the first token's layout is in the minority: it takes only itself
    (["1.25"] + ["12.5", "1250", "-125"] * 30, 90, []),
    # leading zeros, and a zero that the exact path keeps
    (["007.50", "000.25", "012.00", "100.01", "000.00"] * 14, 0, ["000.00"] * 14),
    # 18 digits are one int64; 19 are not, even with a leading zero
    (["123456789012345678", "900719925474099312", "000000000000000001"] * 22, 0, []),
    (["12345678.9012345678", "-0000000.0000000001"] * 33, 0, []),
    (["1234567890123456789", "0123456789012345678"] * 33, 66, ["1234567890123456789"] * 33),
    (["1.250", "0.000"] * 40, 0, ["0.000"] * 40),
    (["-12.5", "-99.0", "-00.1", "-0.00"] * 20, 0, ["-0.00"] * 20),
    # look-alikes of a two-digit template go to the exact functions
    (["12", "34"] * 40 + ["+5", ".5", "5."], 3, ["+5", ".5", "5."]),
    (["1.5"] * 70 + ["1-2"], 1, ["1-2"]),
    # more layouts than templates: the last one goes to the scanner
    ([with_layout(layout, i) for layout, count in zip(LAYOUTS, (400, 300, 150, 100, 50))
      for i in range(count)], 50, []),
], ids=["minority_first", "leading_zeros", "18_digits", "18_digits_two_layouts", "19_digits",
        "zero", "negative", "look_alikes", "bad_look_alike", "many_layouts"])
def test_template_reader_boundaries(tmp_path, monkeypatch, hz, tokens, scanned, exact):
    """Tokens of one layout are read together, whatever digits they hold;
    every other token is read as before, by the scanner or exactly.  Hz
    adds the exact parses of the ties of the product by 2pi."""
    counts, parses = [], []
    scan, parse = io._scan, io._parse
    monkeypatch.setattr(io, "_scan", lambda *args: counts.append(args[1].size) or scan(*args))
    monkeypatch.setattr(io, "_parse", lambda *args: parses.append(args[1]) or parse(*args))
    table = io.Table(("x",), hz=("x",) if hz else ())
    path = tmp_path / "x.csv"
    path.write_text("x\n" + "".join(f"{t}\n" for t in tokens), encoding="utf-8")
    assert_reads_as_reference(table, path)
    counts.clear()
    parses.clear()
    try:
        table.read(path)
    except CsvFormatError:
        pass
    assert sum(counts) == scanned
    assert set(exact) <= set(parses)
    assert hz or sorted(parses) == sorted(exact)


@pytest.mark.parametrize("values, shortcut", [
    ([0.0] * 64, True),
    ([-0.0] * 64, True),
    ([0.0, -0.0, 1.0, -1.0] * 16, True),
    # one negative value, and it is the widest
    ([float(v) for v in range(64)] + [-99.0], True),
    ([float(v) for v in range(64)] + [-5.0], True),
    ([2.0**53 - 1, -(2.0**53 - 1)] + [float(v) for v in range(64)], True),
    ([2.0**53] + [float(v) for v in range(64)], False),
    ([float(v) for v in range(64)] + [0.5], False),
], ids=["zeros", "negative_zeros", "signed_zeros_and_ones", "one_widest_negative",
        "one_narrow_negative", "two_to_53_less_1", "two_to_53", "one_fraction"])
def test_whole_number_tokens(monkeypatch, values, shortcut):
    """A block of whole numbers below 2**53 is its int64 digits, right-aligned
    after NULs and a "-" where the sign bit is set: '.17g' exactly."""
    calls = table_calls(monkeypatch)
    x = np.array(values)
    tokens = io._encode_block(x, False)
    assert [bytes(row[row != 0]).decode() for row in tokens] == \
        [io._render_float(v) for v in x.tolist()]
    assert (calls == []) == shortcut


def convergents(x):
    """Continued-fraction convergents p/q of the Fraction x."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = math.floor(x)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1
        if x == a:
            return
        x = 1 / (x - a)


def near_ties(count):
    """Tokens D*10**E, D < 10**18, whose product with 2pi lies far closer to
    a midpoint between two doubles than a double-double resolves: D/(2j+1)
    is a convergent of 2**(s-1)/(10**E * 2pi), with 2j+1 in [2**53, 2**54)."""
    found = []
    for exponent in range(-30, 30):
        scale = Fraction(10) ** exponent * Fraction(TWO_PI)
        for s in range(-200, 200):
            alpha = Fraction(2) ** (s - 1) / scale
            if not 2**-60 < alpha < 2**7:
                continue
            for p, q in convergents(alpha):
                if q >= 2**54 or p >= 10**18:
                    break
                if q >= 2**53 and q % 2:
                    found.append(f"{p}E{exponent:+d}")
        if len(found) >= count:
            return found[:count]


def test_reader_near_ties_match_exact_path(tmp_path):
    tokens = near_ties(400)
    path = tmp_path / "stark.csv"
    path.write_text("temp_k,shift_hz\n" + "".join(f"0.5,{t}\n" for t in tokens),
                    encoding="utf-8")
    expected = np.array([io._parse_hz(t) for t in tokens])
    assert io.STARK_SWEEP.read(path)[1].tobytes() == expected.tobytes()


def exact_hz(token):
    """``_parse_hz`` without its exponent shortcuts: the token times 2pi,
    one exact product, rounded once, signed as the token."""
    hz = Decimal(token)
    return math.copysign(float(Fraction(hz) * Fraction(TWO_PI)), hz)


def test_hz_exponent_shortcuts_match_exact_parse():
    # around the last finite (adjusted exponent 307) and the last nonzero
    # (-325) reads, and past the shortcuts' bounds of 310 and -330
    digit_forms = [("1", 0), ("-2.5", 0), ("9.99999999999999999999", 0),
                   ("1.7976931348623157", 0), ("-4.9406564584124654", 0),
                   ("999.5", 2), ("-0.00123", -3)]
    for adjusted in [*range(-340, -314), *range(300, 321)]:
        for digits, places in digit_forms:
            token = f"{digits}e{adjusted - places}"
            assert Decimal(token).adjusted() == adjusted
            try:
                expected = exact_hz(token)
            except OverflowError:
                with pytest.raises(OverflowError):
                    io._parse_hz(token)
                continue
            got = io._parse_hz(token)
            assert (got, math.copysign(1.0, got)) == (expected, math.copysign(1.0, expected))


@pytest.mark.parametrize("token, read", [("1e999999999", None), ("-1e-999999999", -0.0),
                                         ("1E10000000", None), ("1e-10000000", 0.0)])
def test_huge_hz_exponent_reads_at_once(tmp_path, token, read):
    # an exact Fraction of such a token would hold 10**|exponent| as an integer
    path = tmp_path / "stark.csv"
    path.write_text(f"temp_k,shift_hz\n0.5,{token}\n", encoding="utf-8")
    start = time.perf_counter()
    if read is None:
        with pytest.raises(CsvFormatError,
                           match=rf"^row 2: could not parse '{token}' in column 'shift_hz'$"):
            io.STARK_SWEEP.read(path)
    else:
        shift = io.STARK_SWEEP.read(path)[1][0]
        assert (shift, math.copysign(1.0, shift)) == (read, math.copysign(1.0, read))
    assert time.perf_counter() - start < 1.0


def reference_read(table, path):
    """Table.read as a plain loop: every token through the exact ``_parse``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expected = ",".join(table.header)
    if not lines or lines[0] != expected:
        raise CsvFormatError(f"row 1: expected header '{expected}'")
    numbers, rows = [], []
    for number, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        tokens = line.split(",")
        if len(tokens) != len(table.header):
            raise CsvFormatError(f"row {number}: expected "
                                 f"{len(table.header)} columns, got {len(tokens)}")
        numbers.append(number)
        rows.append(tokens)
    if not rows:
        raise CsvFormatError("row 2: no data rows")
    return [np.array([io._parse(io._parse_hz if name in table.hz else float,
                                token, number, name)
                      for token, number in zip(tokens, numbers)])
            for name, tokens in zip(table.header, zip(*rows))]


def assert_reads_as_reference(table, path):
    """Table.read gives reference_read's values, or raises its error."""
    try:
        expected = reference_read(table, path)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as excinfo:
            table.read(path)
        assert str(excinfo.value) == str(exc)
        return
    for read, want in zip(table.read(path), expected, strict=True):
        assert read.tobytes() == want.tobytes()


# tokens near the writer's grammar, and anything else the reader may meet
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(io._render_hz),
    st.floats(allow_nan=False, allow_infinity=False).map(io._render_float),
    st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,4})?", fullmatch=True),
    st.text(alphabet="0123456789.-+eE_ \u0663\u0661", max_size=12),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1_000", " 2", "١٢"]),
)


# routine rows, enough for the column to take the vectorised path
BASE_ROWS = [(io._render_float(0.05 * i), io._render_hz(TWO_PI * 1e5 * (i - 30.5)))
             for i in range(io._FAST_MIN_ROWS)]


FLOAT_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(io._render_float)


@settings(max_examples=150, deadline=None)
@given(extra=st.lists(st.tuples(st.integers(0, len(BASE_ROWS)), FLOAT_TOKENS, TOKENS),
                      max_size=6),
       bad_temp=st.none() | st.tuples(st.integers(0, len(BASE_ROWS) - 1), TOKENS))
def test_reader_grammar_matches_exact_parse(tmp_path_factory, extra, bad_temp):
    rows = list(BASE_ROWS)
    for at, temp, shift in extra:
        rows.insert(at, (temp, shift))
    if bad_temp is not None:
        at, temp = bad_temp
        rows[at] = (temp, rows[at][1])
    path = tmp_path_factory.mktemp("grammar") / "stark.csv"
    path.write_text("temp_k,shift_hz\n" + "".join(f"{a},{b}\n" for a, b in rows),
                    encoding="utf-8")
    assert_reads_as_reference(io.STARK_SWEEP, path)


def edge_case_files():
    """(id, bytes) of STARK_SWEEP files the byte splitter must hand to the
    line-by-line path, or split exactly as that path would."""
    head = "temp_k,shift_hz"
    files = {}
    for size in (3, len(BASE_ROWS) + 6):
        rows = [f"{a},{b}" for a, b in (BASE_ROWS * 2)[:size]]

        def text(lines, end="\n"):
            return end.join([head, *lines]) + end

        cases = {"lf": text(rows), "crlf": text(rows, "\r\n"),
                 "no_final_newline": text(rows)[:-1],
                 "interior_blank": text(rows[:2] + [""] + rows[2:]),
                 "trailing_blanks": text(rows) + "\n\n",
                 "ragged_last": text(rows[:-1] + ["0.5"]),
                 "empty_field": text(rows[:-1] + ["0.5,"])}
        for name, brk in [("cr", "\r"), ("vt", "\x0b"), ("ff", "\x0c"), ("fs", "\x1c"),
                          ("gs", "\x1d"), ("rs", "\x1e"), ("nel", "\x85"),
                          ("ls", "\u2028")]:
            # as a line break, and inside a row, where it makes the row ragged
            cases[f"{name}_break"] = text(rows[:1])[:-1] + brk + text(rows[1:])[len(head) + 1:]
            cases[f"{name}_in_row"] = text([rows[0].replace(",", brk + ",")] + rows[1:])
        cases["tab_in_token"] = text([rows[0].replace(",", "\t,")] + rows[1:])
        files.update({f"{name}_{size}": body.encode() for name, body in cases.items()})
    files.update(header_only=f"{head}\n".encode(), header_no_newline=head.encode(),
                 empty=b"")
    return files


EDGE_CASES = edge_case_files()


@pytest.mark.parametrize("name", EDGE_CASES)
def test_splitter_matches_line_by_line_read(tmp_path, name):
    path = tmp_path / "stark.csv"
    path.write_bytes(EDGE_CASES[name])
    assert_reads_as_reference(io.STARK_SWEEP, path)


@pytest.mark.parametrize("name", EDGE_CASES)
@pytest.mark.parametrize("chunk", [1, 40, 512])
def test_splitter_matches_line_by_line_read_in_chunks(tmp_path, monkeypatch, chunk, name):
    """The same files cut into chunks of one row (every row is longer),
    of a row or two, and of a dozen rows."""
    monkeypatch.setattr(io, "_CHUNK", chunk)
    test_splitter_matches_line_by_line_read(tmp_path, name)


# tokens the fast parse never certifies: zeros, more than 18 significant
# digits, beyond 1e+-240 and longer than _MAX_TOKEN
UNCERTIFIED = ["0", "-0", "1234567.8901234567890123", "1e-300", "0." + "0" * 40 + "1"]


def chunk_files():
    """(id, bytes) of STARK_SWEEP files of about six 4 KiB chunks, each
    with its trouble in a chosen chunk."""
    head = b"temp_k,shift_hz\n"
    rows = [f"{io._render_float(0.05 * i)},{io._render_hz(TWO_PI * 1e5 * (i - 300.5))}\n"
            for i in range(600)]
    last = len(rows) - 1

    def body(lines):
        return head + "".join(lines).encode()

    bad_then_ragged = list(rows)
    bad_then_ragged[5] = "0.25,oops\n"       # chunk 1
    bad_then_ragged[300] = "0.25\n"          # chunk 3
    uncertified = [f"{UNCERTIFIED[i % len(UNCERTIFIED)]},{UNCERTIFIED[-i % len(UNCERTIFIED)]}\n"
                   if i % 37 == 0 else row for i, row in enumerate(rows)]
    long_token = list(rows)
    long_token[200] = "0." + "0" * 5000 + "25," + rows[200].split(",")[1]
    return {
        "lf": body(rows),
        "bad_token_then_ragged_row": body(bad_then_ragged),
        "bad_token_only": body(bad_then_ragged[:300] + rows[301:]),
        "cr_in_last_chunk": body(rows[:last] + [rows[last].replace("\n", "\r\n")]),
        "blank_line_in_last_chunk": body(rows[:last] + ["\n", rows[last]]),
        "no_final_newline": body(rows)[:-1],
        "uncertified_in_every_chunk": body(uncertified),
        "row_longer_than_a_chunk": body(long_token),
    }


CHUNK_FILES = chunk_files()


@pytest.mark.parametrize("name", CHUNK_FILES)
@pytest.mark.parametrize("chunk", [1, 4096, io._CHUNK])
def test_chunked_read_matches_line_by_line_read(tmp_path, monkeypatch, chunk, name):
    monkeypatch.setattr(io, "_CHUNK", chunk)
    path = tmp_path / "stark.csv"
    path.write_bytes(CHUNK_FILES[name])
    assert_reads_as_reference(io.STARK_SWEEP, path)


def test_structure_is_checked_before_any_token(tmp_path, monkeypatch):
    """A bad token in the first chunk does not hide a ragged row in the
    third: the row count is reported, as by a whole-file check."""
    monkeypatch.setattr(io, "_CHUNK", 4096)
    path = tmp_path / "stark.csv"
    path.write_bytes(CHUNK_FILES["bad_token_then_ragged_row"])
    assert path.stat().st_size > 3 * io._CHUNK
    with pytest.raises(CsvFormatError, match=r"^row 302: expected 2 columns, got 1$"):
        io.STARK_SWEEP.read(path)
    path.write_bytes(CHUNK_FILES["bad_token_only"])
    with pytest.raises(CsvFormatError,
                       match=r"^row 7: could not parse 'oops' in column 'shift_hz'$"):
        io.STARK_SWEEP.read(path)


def test_time_series_read_memory(tmp_path):
    """Reading holds the file's bytes, the two columns (16 B a row) and
    one chunk's temporaries, not whole-file masks and index arrays."""
    n = 2**17
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8)))
    path = tmp_path / "series.csv"
    io.write_time_series(path, TimeSeries(0.0, 10.0,
                                          TWO_PI * (3.9e6 + 215e3 * rng.standard_normal(n))))
    io.read_time_series(path)  # builds the cached power-of-ten table
    tracemalloc.start()
    try:
        io.read_time_series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - path.stat().st_size) / n <= 48


def test_one_column_blank_line_is_skipped(tmp_path):
    table = io.Table(("x",))
    path = tmp_path / "x.csv"
    path.write_text("x\n" + "".join(f"{i}\n" for i in range(1, 100)) + "\n7\n",
                    encoding="utf-8")
    for read, want in zip(table.read(path), reference_read(table, path)):
        assert read.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, io._CHUNK])
def test_one_column_last_row_without_newline_is_read(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(io, "_CHUNK", chunk)
    table = io.Table(("x",))
    path = tmp_path / "x.csv"
    path.write_text("x\n" + "\n".join(str(i) for i in range(1, 100)), encoding="utf-8")
    read, = table.read(path)
    assert read.tolist() == list(range(1, 100))


def test_invalid_utf8_names_its_row(tmp_path):
    rows = [f"{a},{b}\n".encode() for a, b in BASE_ROWS * 2]
    rows[68] = rows[68].replace(b",", b"\xff,")
    path = tmp_path / "stark.csv"
    path.write_bytes(b"temp_k,shift_hz\r\n" + b"".join(rows))
    with pytest.raises(CsvFormatError, match=r"^row 70: invalid UTF-8 byte 0xff$"):
        io.STARK_SWEEP.read(path)


def test_time_series_bytes_are_pinned(tmp_path):
    """2**17 rows built with integer arithmetic only, so the file is the
    same on every platform; its SHA-256 is that of the exact per-row
    functions' output."""
    i = np.arange(2**17, dtype=np.int64)
    times = (3 * i).astype(float) / 8
    values = ((i * 48271) % 2147483647 - 2**30).astype(float) * 2.0**-8
    path = tmp_path / "series.csv"
    io.TIME_SERIES.write(path, (times, values))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f39190a69700e87855358e3decd963c739edb6bfa3db11ad6185f7efe8cfedc4")
    read_times, read_values = io.TIME_SERIES.read(path)
    assert read_times.tobytes() == times.tobytes()
    assert read_values.tobytes() == values.tobytes()


class TestTimeSeriesRoundTrip:
    def test_identity_on_values(self, tmp_path):
        path = tmp_path / "series.csv"
        original = sample_series()
        io.write_time_series(path, original)
        loaded = io.read_time_series(path)
        assert np.array_equal(loaded.values, original.values)
        assert loaded.t0 == original.t0
        assert loaded.dt == original.dt

    def test_header_and_units(self, tmp_path):
        path = tmp_path / "series.csv"
        series = TimeSeries(0.0, 10.0, np.array([TWO_PI * 1e6, TWO_PI * 2e6]))
        io.write_time_series(path, series)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,gamma1_hz"
        assert float(lines[1].split(",")[1]) == pytest.approx(1e6)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n10.0,2.0\n")
        with pytest.raises(CsvFormatError) as excinfo:
            io.read_time_series(path)
        assert "row 1" in str(excinfo.value)

    def test_malformed_row_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,gamma1_hz\n0.0,1.0\n10.0,oops\n20.0,3.0\n")
        with pytest.raises(CsvFormatError) as excinfo:
            io.read_time_series(path)
        assert "row 3" in str(excinfo.value)

    def test_wrong_column_count_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,gamma1_hz\n0.0,1.0,9.0\n")
        with pytest.raises(CsvFormatError) as excinfo:
            io.read_time_series(path)
        assert "row 2" in str(excinfo.value)

    def test_nonuniform_sampling_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,gamma1_hz\n0.0,1.0\n10.0,2.0\n21.0,3.0\n")
        with pytest.raises(CsvFormatError):
            io.read_time_series(path)

    @pytest.mark.parametrize("body, message", [
        ("0.0,1.0\n\n0.0,2.0\n20.0,3.0\n",
         "row 4: time column must be strictly increasing"),
        ("0.0,1.0\n10.0,2.0\n\n21.0,3.0\n30.0,4.0\n",
         "row 5: time column is not uniformly sampled"),
    ])
    def test_sampling_refusal_names_the_file_row(self, tmp_path, body, message):
        # the blank line is a file row, but no data row
        path = tmp_path / "bad.csv"
        path.write_text("time_s,gamma1_hz\n" + body)
        with pytest.raises(CsvFormatError) as excinfo:
            io.read_time_series(path)
        assert str(excinfo.value) == message

    def test_decimal_point_rendering(self, tmp_path):
        # separator is always the comma, decimal mark always the point
        path = tmp_path / "series.csv"
        io.write_time_series(path, sample_series())
        body = path.read_text()
        assert ";" not in body
        for line in body.splitlines()[1:]:
            assert len(line.split(",")) == 2


class TestSpectrumRoundTrip:
    def test_identity_and_units(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        omegas = np.geomspace(TWO_PI * 1e-4, TWO_PI * 5e-2, 40)
        values = 1e-30 * omegas ** -1.0 + 1e-27
        original = Spectrum(omegas=omegas, values=values)
        io.write_spectrum(path, original)
        loaded_omegas, loaded_values = io.SPECTRUM.read(path)
        assert np.array_equal(loaded_values, original.values)
        assert np.array_equal(loaded_omegas, original.omegas)
        assert path.read_text().splitlines()[0] == "freq_hz,psd_w_per_hz"

    def test_round_trip_survives_rescaling(self, tmp_path):
        # Hz-on-disk conversion must invert exactly: omega -> omega/2pi -> omega
        path = tmp_path / "spectrum.csv"
        omegas = np.array([1.0, 2.0, 4.0]) * TWO_PI * 1.2345678901234567e-3
        original = Spectrum(omegas=omegas, values=np.array([3.0, 2.0, 1.0]) * 1e-24)
        io.write_spectrum(path, original)
        assert np.array_equal(io.SPECTRUM.read(path)[0], omegas)


class TestStarkSweepRoundTrip:
    def test_identity(self, tmp_path):
        path = tmp_path / "stark.csv"
        points = [StarkSweepPoint(0.05 + 0.1 * i, -TWO_PI * 1e5 * i)
                  for i in range(8)]
        io.write_stark_sweep(path, points)
        loaded = io.read_stark_sweep(path)
        assert [p.temperature for p in loaded] == [p.temperature for p in points]
        assert np.allclose([p.delta_omega_q for p in loaded],
                           [p.delta_omega_q for p in points], rtol=0, atol=0)
        assert path.read_text().splitlines()[0] == "temp_k,shift_hz"


class TestFloorPoints:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "floor.csv"
        points = [(0.05, 0.81e-24), (0.5, 0.84e-24), (1.5, 1.06e-24)]
        io.write_floor_points(path, points)
        assert io.read_floor_points(path) == points
        assert path.read_text().splitlines()[0] == "temp_k,psd_w_per_hz"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            io.read_floor_points(path)
