"""Tests for JSON run-configuration loading.

On disk every frequency-like quantity is in Hz, temperatures in K,
inductances in H; loading converts to internal rad/s exactly once.
Unknown keys, missing keys, and type mismatches must be reported with
the offending field path.
"""

import json
import math
import pathlib

import pytest

from thermoq import config as config_mod
from thermoq.constants import TWO_PI, hbar
from thermoq.errors import ConfigError


def base_config():
    return {
        "circuit": {
            "omega_q0_hz": 6.92e9, "E_c_hz": 315e6, "omega_r_hz": 6.07e9,
            "g_hz": 67e6, "kappa_i_hz": 50e3, "kappa_x_hz": 8.5e6,
            "kappa_a_hz": 30e3, "gamma1_0_hz": 3.9e6,
            "gamma2_ramsey_hz": 2.1e6, "gamma2_echo_hz": 1.9e6,
            "gamma1_antenna_hz": 820e3, "Z0_ohm": 50.0, "E_J0_hz": 20e9,
        },
        "geometry": {
            "M_a_h": 1.3e-12, "L_loop_h": 50e-12, "L_a_h": 1e-9,
            "Z0_ohm": 50.0,
        },
        "ports": [
            {"label": "internal", "temperature_k": 0.05,
             "kappa_hz": 50e3, "attenuation": 1.0},
            {"label": "readout", "temperature_k": 0.05,
             "kappa_hz": 8.5e6, "attenuation": 0.389},
            {"label": "antenna", "temperature_k": 0.1,
             "kappa_hz": 30e3, "attenuation": 1.0},
        ],
        "tls": {
            "n_tls": 200, "x_exponent": 0.0, "epsilon_max_hz": 10e9,
            "delta_range_hz": [1e9, 10e9], "rate_decades": [1e-5, 1e-1],
            "coupling_scale_hz": 10e3, "base_gamma1_hz": 3.9e6,
            "linewidth_range_hz": [1e9, 10e9], "jump_fraction": 0.5,
        },
        "campaign": {
            "point_rate_hz": 0.1, "duration_s": 12000.0,
            "n_averages": 400000, "temperature_k": 0.05,
        },
        "phenomenological": {
            "mean_hz": 3.9e6, "beta": 1.0, "knee_hz": 1e-3,
            "white_sigma_hz": 215e3,
        },
        "s_delta_w_per_hz": 2.6e-28,
        "gamma_phi_photon_shot_hz": 0.0,
        "seed": 1,
        "output_dir": "out",
    }


class TestUnitsConvertedOnce:
    def test_circuit_frequencies_scaled_by_two_pi(self):
        run = config_mod.parse_config(base_config())
        assert run.circuit.g == TWO_PI * 67e6
        assert run.circuit.omega_q0 == TWO_PI * 6.92e9
        assert run.circuit.E_J0 == TWO_PI * 20e9
        assert run.circuit.Z0 == 50.0

    def test_geometry_is_passthrough(self):
        run = config_mod.parse_config(base_config())
        assert run.geometry.M_a == 1.3e-12
        assert run.geometry.L_loop == 50e-12

    def test_ports_canonical_order_and_units(self):
        data = base_config()
        data["ports"] = [data["ports"][2], data["ports"][0], data["ports"][1]]
        run = config_mod.parse_config(data)
        assert tuple(p.label for p in run.ports) == \
            ("internal", "readout", "antenna")
        assert run.ports[1].kappa == TWO_PI * 8.5e6
        assert run.ports[2].temperature == 0.1

    def test_tls_energies_and_rates(self):
        run = config_mod.parse_config(base_config())
        assert run.tls.epsilon_max == hbar * TWO_PI * 10e9
        assert run.tls.delta_range == (hbar * TWO_PI * 1e9, hbar * TWO_PI * 10e9)
        assert run.tls.linewidth_range == (TWO_PI * 1e9, TWO_PI * 10e9)
        assert run.tls.rate_decades == (1e-5, 1e-1)
        assert run.tls.coupling_scale == TWO_PI * 10e3

    def test_campaign_cadence_not_angular(self):
        # samples-per-second cadence, so no 2*pi factor
        run = config_mod.parse_config(base_config())
        assert run.campaign.point_rate == 0.1
        assert run.campaign.duration == 12000.0
        assert run.campaign.n_averages == 400000

    def test_phenomenological_block(self):
        run = config_mod.parse_config(base_config())
        assert run.phenomenological.mean == TWO_PI * 3.9e6
        assert run.phenomenological.beta == 1.0
        assert run.phenomenological.knee == TWO_PI * 1e-3
        assert run.phenomenological.white_sigma == TWO_PI * 215e3

    def test_single_seed_authority(self):
        # the one top-level seed is the only seed a config carries
        run = config_mod.parse_config(base_config())
        assert run.seed == 1

    def test_block_level_seed_rejected(self):
        data = base_config()
        data["campaign"]["seed"] = 5
        with pytest.raises(ConfigError, match="campaign.*seed"):
            config_mod.parse_config(data)


class TestOptionalFields:
    def test_defaults_when_absent(self):
        data = base_config()
        del data["phenomenological"]
        del data["gamma_phi_photon_shot_hz"]
        run = config_mod.parse_config(data)
        assert run.phenomenological is None
        assert run.gamma_phi_photon_shot == 0.0

    def test_e_j0_optional(self):
        data = base_config()
        del data["circuit"]["E_J0_hz"]
        run = config_mod.parse_config(data)
        assert run.circuit.E_J0 is None


class TestDiagnostics:
    def test_unknown_top_level_key(self):
        data = base_config()
        data["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            config_mod.parse_config(data)

    def test_unknown_nested_key_names_path(self):
        data = base_config()
        data["circuit"]["bogus_hz"] = 1.0
        with pytest.raises(ConfigError, match="circuit.*bogus_hz"):
            config_mod.parse_config(data)

    def test_missing_key_names_path(self):
        data = base_config()
        del data["circuit"]["g_hz"]
        with pytest.raises(ConfigError, match=r"circuit\.g_hz"):
            config_mod.parse_config(data)

    def test_wrong_type_names_path(self):
        data = base_config()
        data["circuit"]["g_hz"] = "fast"
        with pytest.raises(ConfigError, match=r"circuit\.g_hz"):
            config_mod.parse_config(data)

    def test_boolean_is_not_a_number(self):
        data = base_config()
        data["campaign"]["n_averages"] = True
        with pytest.raises(ConfigError, match=r"campaign\.n_averages"):
            config_mod.parse_config(data)

    def test_seed_must_be_nonnegative_integer(self):
        data = base_config()
        data["seed"] = -1
        with pytest.raises(ConfigError, match="seed"):
            config_mod.parse_config(data)
        data["seed"] = 1.5
        with pytest.raises(ConfigError, match="seed"):
            config_mod.parse_config(data)

    def test_ports_must_cover_all_labels(self):
        data = base_config()
        data["ports"] = data["ports"][:2]
        with pytest.raises(ConfigError, match="ports"):
            config_mod.parse_config(data)

    def test_duplicate_port_rejected(self):
        data = base_config()
        data["ports"][2] = dict(data["ports"][0])
        with pytest.raises(ConfigError, match="ports"):
            config_mod.parse_config(data)

    def test_pair_fields_need_two_entries(self):
        data = base_config()
        data["tls"]["delta_range_hz"] = [1e9]
        with pytest.raises(ConfigError, match=r"tls\.delta_range_hz"):
            config_mod.parse_config(data)

    @pytest.mark.parametrize("section, key, value", [
        ("campaign", "duration_s", math.inf),
        ("circuit", "g_hz", -math.inf),
        ("geometry", "M_a_h", math.nan),
        ("tls", "rate_decades", [1e-5, math.inf]),
    ])
    def test_non_finite_number_names_path(self, section, key, value):
        data = base_config()
        data[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected a finite"):
            config_mod.parse_config(data)

    def test_integer_too_large_for_a_float(self):
        data = base_config()
        data["circuit"]["g_hz"] = 10**400
        with pytest.raises(ConfigError, match=r"circuit\.g_hz: expected a finite"):
            config_mod.parse_config(data)

    def test_campaign_tick_cap(self):
        data = base_config()
        rate = data["campaign"]["point_rate_hz"]
        data["campaign"]["duration_s"] = config_mod.MAX_CAMPAIGN_TICKS / rate
        assert config_mod.parse_config(data).campaign.duration == pytest.approx(
            config_mod.MAX_CAMPAIGN_TICKS / rate)
        data["campaign"]["duration_s"] = (config_mod.MAX_CAMPAIGN_TICKS + 1) / rate
        with pytest.raises(ConfigError, match=r"campaign\.duration_s: .* above the cap"):
            config_mod.parse_config(data)

    def test_tls_count_cap(self):
        data = base_config()
        data["tls"]["n_tls"] = config_mod.MAX_TLS
        assert config_mod.parse_config(data).tls.n_tls == config_mod.MAX_TLS
        data["tls"]["n_tls"] = config_mod.MAX_TLS + 1
        with pytest.raises(ConfigError, match=r"tls\.n_tls: must be <= "):
            config_mod.parse_config(data)

    def test_switch_count_cap(self):
        data = base_config()
        # 256 TLS * 4 /s * (1 K / T_ref) * 16384 s = 2^24 expected switches
        data["tls"]["n_tls"] = 256
        data["tls"]["rate_decades"] = [1e-5, 4.0]
        data["campaign"]["temperature_k"] = 1.0
        data["campaign"]["duration_s"] = 16384.0
        assert config_mod.MAX_SWITCHES == 2**24
        assert config_mod.parse_config(data).tls.rate_decades == (1e-5, 4.0)
        data["tls"]["rate_decades"] = [1e-5, 4.000001]
        with pytest.raises(ConfigError, match=r"tls\.rate_decades: .* above the cap"):
            config_mod.parse_config(data)

    def test_switch_count_cap_refuses_hot_fast_ensemble(self):
        # about 4e9 exponential waits per TLS if it were simulated
        data = base_config()
        data["tls"]["rate_decades"] = [1e-5, 1e3]
        data["campaign"]["temperature_k"] = 300.0
        with pytest.raises(ConfigError, match=r"^tls\.rate_decades: .*7\.2e\+11 switches"):
            config_mod.parse_config(data)

    def test_long_record_is_under_the_switch_cap(self):
        data = base_config()
        data["campaign"]["duration_s"] = 2**17 * 10.0
        assert config_mod.parse_config(data).campaign.duration == 2**17 * 10.0

    def test_averaging_count_cap(self):
        data = base_config()
        data["campaign"]["n_averages"] = config_mod.MAX_AVERAGES
        assert config_mod.parse_config(data).campaign.n_averages == \
            config_mod.MAX_AVERAGES
        data["campaign"]["n_averages"] = config_mod.MAX_AVERAGES + 1
        with pytest.raises(ConfigError, match=r"campaign\.n_averages: must be <= "):
            config_mod.parse_config(data)

    def test_physics_invariants_surface_with_section(self):
        data = base_config()
        data["circuit"]["g_hz"] = 500e6  # breaks the dispersive-regime guard
        with pytest.raises(ConfigError, match="circuit"):
            config_mod.parse_config(data)

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            config_mod.parse_config([1, 2, 3])


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_config()))
        run = config_mod.load_config(path)
        assert run.seed == 1
        assert run.output_dir == "out"

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"circuit": }')
        with pytest.raises(ConfigError, match="line"):
            config_mod.load_config(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_rejected(self, tmp_path, constant):
        data = base_config()
        data["ports"][2]["temperature_k"] = "PLACEHOLDER"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', constant))
        with pytest.raises(ConfigError, match=f"non-finite number {constant}"):
            config_mod.load_config(path)

    def test_overflowing_literal_rejected(self, tmp_path):
        # json.loads turns 1e999 into inf without calling parse_constant
        data = base_config()
        data["ports"][2]["temperature_k"] = "PLACEHOLDER"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', "1e999"))
        with pytest.raises(ConfigError,
                           match=r"ports\[2\]\.temperature_k: expected a finite"):
            config_mod.load_config(path)

    def test_overlong_integer_is_config_error(self, tmp_path):
        # past Python's int-string digit limit json.loads raises a plain ValueError
        data = base_config()
        data["seed"] = "PLACEHOLDER"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', "7" * 5000))
        with pytest.raises(ConfigError, match=r"^malformed JSON: .*digits"):
            config_mod.load_config(path)

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(json.dumps(base_config()).encode().replace(b'"out"', b'"\xff"'))
        with pytest.raises(ConfigError, match=r"^config file is not UTF-8: invalid byte 0xff"):
            config_mod.load_config(path)

    def test_shipped_sample_parses(self):
        sample = pathlib.Path(__file__).resolve().parent.parent / "sample.json"
        run = config_mod.load_config(sample)
        assert run.circuit.gamma1_0 == TWO_PI * 3.9e6
