"""Tests for the fixed-schema CSV interchange layer.

All on-disk frequencies are Hz (omega/2pi) while everything in memory
is rad/s; values are rendered with 17 significant digits so a
write-then-read round trip is the identity on IEEE doubles.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from thermoq import io
from thermoq.cavity import StarkSweepPoint
from thermoq.constants import TWO_PI
from thermoq.errors import CsvFormatError
from thermoq.spectral import Spectrum
from thermoq.tlssim import TimeSeries


def sample_series(seed=4):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    values = TWO_PI * (3.9e6 + 215e3 * rng.standard_normal(96))
    return TimeSeries(0.0, 10.0, values, seed_used=seed)


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
        loaded = io.read_spectrum(path)
        assert np.array_equal(loaded.values, original.values)
        assert np.array_equal(loaded.omegas, original.omegas)
        assert path.read_text().splitlines()[0] == "freq_hz,psd_w_per_hz"

    def test_round_trip_survives_rescaling(self, tmp_path):
        # Hz-on-disk conversion must invert exactly: omega -> omega/2pi -> omega
        path = tmp_path / "spectrum.csv"
        omegas = np.array([1.0, 2.0, 4.0]) * TWO_PI * 1.2345678901234567e-3
        original = Spectrum(omegas=omegas, values=np.array([3.0, 2.0, 1.0]) * 1e-24)
        io.write_spectrum(path, original)
        assert np.array_equal(io.read_spectrum(path).omegas, omegas)


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
