"""Acceptance gate: one check per release criterion, one line of output each.

Each test prints a single machine-greppable ``[criterion NN] PASS/FAIL``
line with the measured numbers, then asserts.  Tolerances are stated
inline; stochastic checks use pinned master seeds so reruns are exact.
"""

import json

import numpy as np
import pytest
from mpmath import mp

from thermoq import cavity, cli, decoherence, experiments, fitting, spectra, spectral, tlssim
from thermoq.constants import TWO_PI, hbar, k_B

from test_cavity import make_params, synthetic_sweep
from test_config import base_config
from test_decoherence import DEPHASING_2ND_15K, OMEGA_Q0, make_geometry, mp_qubit_frequency
from test_experiments import constant_source


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_c01_dispersive_shift_reference(capsys):
    chi = make_params().chi
    target = -TWO_PI * 3.11e6
    rel = abs(chi - target) / abs(target)
    _report(capsys, 1, rel <= 0.005,
            f"chi/2pi = {chi / TWO_PI:.1f} Hz vs -3.11 MHz "
            f"(rel dev {rel:.2e} <= 5e-3)")


def test_c02_rate_budget_identities(capsys):
    params = make_params()
    rates = decoherence.component_rates(params, S_delta=2.6e-28)
    purcell_hz = rates.gamma1_purcell / TWO_PI
    mix_hz = rates.gamma_mix / TWO_PI
    n_crit = cavity.critical_photon_number(params.delta, params.g)
    gamma_phi_0 = params.gamma2_ramsey - params.gamma1_0 / 2
    ok_purcell = abs(purcell_hz - 53e3) / 53e3 <= 0.02
    ok_mix = abs(mix_hz - 14.3e3) / 14.3e3 <= 0.01
    ok_ncrit = abs(n_crit - 40.0) <= 1.0
    ok_phi = abs(gamma_phi_0 - TWO_PI * 150e3) / (TWO_PI * 150e3) <= 1e-12
    _report(capsys, 2, ok_purcell and ok_mix and ok_ncrit and ok_phi,
            f"gamma1_P/2pi = {purcell_hz:.0f} Hz (53 kHz +-2%), "
            f"gamma_mix/2pi = {mix_hz:.0f} Hz (14.3 kHz +-1%), "
            f"n_crit = {n_crit:.3f} (40 +-1), "
            f"gamma_phi_0 = 2pi x 150 kHz to 1e-12")


def test_c03_sideband_psd_inversion(capsys):
    params = make_params()
    gamma_mix = decoherence.component_rates(params, S_delta=2.6e-28).gamma_mix
    gamma1_sb, s_delta = decoherence.invert_sideband_psd(
        -TWO_PI * 17e3, gamma_mix, params.chi, params.delta)
    sb_hz = gamma1_sb / TWO_PI
    ok_rate = abs(sb_hz - 5.8e3) / 5.8e3 <= 0.05
    ok_psd = abs(s_delta - 2.6e-28) / 2.6e-28 <= 0.05
    _report(capsys, 3, ok_rate and ok_psd,
            f"-2pi x 17 kHz/photon -> gamma1_delta/2pi = {sb_hz:.0f} Hz "
            f"(5.8 kHz +-5%), S(delta) = {s_delta:.3e} W/Hz (2.6e-28 +-5%)")


def test_c04_second_order_dephasing_dual_route(capsys):
    geom = make_geometry()
    temps = np.linspace(0.05, 1.5, 20)
    worst = 0.0
    for T in temps:
        direct = decoherence.dephasing_second_order(float(T), geom)
        composed = decoherence.dephasing_second_order_transfer(
            float(T), geom, OMEGA_Q0)
        worst = max(worst, abs(direct - composed) / direct)
    ratios_exact = all(
        decoherence.dephasing_second_order(2 * float(T), geom)
        / decoherence.dephasing_second_order(float(T), geom) == 8.0
        for T in temps)
    value = decoherence.dephasing_second_order(1.5, geom)
    ok_value = (abs(value / TWO_PI - 7.02e3) / 7.02e3 <= 0.01
                and abs(value - DEPHASING_2ND_15K) / DEPHASING_2ND_15K <= 1e-6)
    _report(capsys, 4, worst <= 1e-12 and ratios_exact and ok_value,
            f"route agreement {worst:.2e} <= 1e-12 at 20 temperatures, "
            f"rate(2T)/rate(T) == 8 exactly, "
            f"rate(1.5 K)/2pi = {value / TWO_PI:.1f} Hz (7.02 kHz +-1%, "
            f"independent evaluation to 1e-6)")


def test_c05_second_order_psd_dc_limit(capsys):
    worst = 0.0
    for T in (0.05, 0.5, 1.5):
        omega = 1e-6 * k_B * T / hbar
        limit = TWO_PI * k_B**3 * T**3 / (3 * hbar)
        worst = max(worst, abs(spectra.second_order_psd(omega, T) - limit) / limit)
    _report(capsys, 5, worst <= 1e-5,
            f"S2(omega->0) matches 2pi kB^3 T^3/3hbar to {worst:.2e} <= 1e-5 "
            f"at hbar omega/kB T = 1e-6")


def test_c06_transfer_functions_vs_finite_differences(capsys):
    h = mp.mpf("1e-6")
    worst = 0.0
    for lam in np.linspace(-0.45, 0.45, 19):
        d1, d2 = decoherence.transfer_functions(float(lam), OMEGA_Q0)
        with mp.workdps(50):
            lam_mp = mp.mpf(float(lam))
            fp = mp_qubit_frequency(lam_mp + h, OMEGA_Q0)
            fm = mp_qubit_frequency(lam_mp - h, OMEGA_Q0)
            f0 = mp_qubit_frequency(lam_mp, OMEGA_Q0)
            fd1 = (fp - fm) / (2 * h)
            fd2 = (fp - 2 * f0 + fm) / h**2
        if abs(fd1) > 0:
            worst = max(worst, abs(d1 - float(fd1)) / abs(float(fd1)))
        else:
            worst = max(worst, abs(d1))
        worst = max(worst, abs(d2 - float(fd2)) / abs(float(fd2)))
    _report(capsys, 6, worst <= 1e-6,
            f"D1/D2 match central differences to {worst:.2e} <= 1e-6 "
            f"on the 19-point lambda grid [-0.45, 0.45]")


def test_c07_stark_calibration_round_trip(capsys):
    params = make_params()
    temps = np.linspace(0.05, 1.5, 15)
    alpha_true = 0.389
    full_scale = abs(cavity.ac_stark_shift(
        max(spectra.bose_occupation(params.omega_r, float(T)) for T in temps),
        0.0, params.chi,
        (params.kappa_x, params.kappa_a, params.kappa_tot), alpha_true))
    hits = 0
    for child in np.random.SeedSequence(424242).spawn(100):
        rng = np.random.Generator(np.random.PCG64(child))
        sweep = synthetic_sweep(params, alpha_true, temps,
                                noise_sigma=0.01 * full_scale, rng=rng)
        result = cavity.calibrate_attenuation(sweep, "readout", params)
        if abs(result.parameters["alpha"] - alpha_true) <= \
                3 * result.stderr("alpha"):
            hits += 1
    _report(capsys, 7, hits >= 95,
            f"alpha = 0.389 recovered within 3 sigma in {hits}/100 trials "
            f"(>= 95) under 1% sweep noise")


def test_c08_antenna_slope_monte_carlo(capsys):
    slope_true = TWO_PI * 1.64e6
    intercept = TWO_PI * 3.08e6
    sigma = TWO_PI * 215e3
    n_a = np.linspace(0.0, 1.0, 30)
    hits = 0
    for child in np.random.SeedSequence(20260814).spawn(100):
        rng = np.random.Generator(np.random.PCG64(child))
        y = intercept + slope_true * n_a + sigma * rng.standard_normal(n_a.size)
        result = fitting.linear_fit(n_a, y)
        gamma1_a = result.parameters["slope"] / 2
        if abs(gamma1_a - slope_true / 2) <= 2 * (result.stderr("slope") / 2):
            hits += 1
    _report(capsys, 8, hits >= 95,
            f"gamma1_a from 2pi x 1.64 MHz/photon slope with 2pi x 215 kHz "
            f"scatter recovered within 2 SE in {hits}/100 trials (>= 95)")


def test_c09_spectral_exponent_closed_loop(capsys):
    mean = TWO_PI * 3.9e6
    knee, dt, n = TWO_PI * 1e-3, 10.0, 1200
    sigma = TWO_PI * 215e3
    betas, drops = [], 0
    for child in np.random.SeedSequence(4).spawn(50):
        seed = int(child.generate_state(1)[0])
        series = tlssim.simulate_phenomenological(
            mean, 1.0, knee, sigma, n * dt, dt, seed=seed)
        fit = spectral.fit_knee_spectrum(spectral.psd_estimate(series))
        if fit.degenerate:
            drops += 1
        else:
            betas.append(fit.beta)
    mean_beta = float(np.mean(betas))
    _report(capsys, 9, abs(mean_beta - 1.0) <= 0.15 and len(betas) >= 40,
            f"injected beta = 1.0 at N = 1200, dt = 10 s: mean fitted beta "
            f"{mean_beta:.3f} over {len(betas)}/50 seeds ({drops} degenerate "
            f"drops), |bias| {abs(mean_beta - 1.0):.3f} <= 0.15")


def test_c10_floor_scaling_closed_loop(capsys):
    temps = np.array([0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.25, 1.5])
    mu0, a = 0.8e-24, 1.1e-25
    acc = np.zeros(temps.size)
    children = np.random.SeedSequence(2).spawn(50)
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        acc += (mu0 + a * temps**2) * (1 + 0.10 * rng.standard_normal(temps.size))
    fit = spectral.fit_white_floor_vs_temp(list(zip(temps, acc / len(children))))
    ok = abs(fit.x) <= 0.15 and not fit.x_unidentifiable
    _report(capsys, 10, ok,
            f"x = 0 injected with 10% noise (50-trial average): "
            f"x_fit = {fit.x:+.3f} +- {fit.x_err:.3f}, |x_fit| <= 0.15; "
            f"quoted absolute floor levels annotated as "
            f"mu(0.05 K) ~ 0.8e-24 W/Hz, not asserted")


def test_c11_campaign_estimator_scatter(capsys):
    config = experiments.CampaignConfig(
        point_rate=0.1, duration=12000.0, n_averages=400000,
        temperature=0.05)
    result = experiments.simulate_campaign(config, constant_source(), 13)
    values = result.series.values
    std = float(np.std(values))
    fit = spectral.fit_knee_spectrum(spectral.psd_estimate(result.series))
    ok = std < TWO_PI * 215e3 and fit.degenerate
    _report(capsys, 11, ok,
            f"constant-rate campaign at 4e5 averages: estimator scatter "
            f"2pi x {std / TWO_PI / 1e3:.2f} kHz < 2pi x 215 kHz, "
            f"knee fit degenerate (white) = {fit.degenerate}")


def test_c12_stochastic_commands_are_reproducible(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("THERMOQ_SEED", raising=False)
    monkeypatch.setenv("THERMOQ_TIMESTAMP", "2026-01-01T00:00:00+00:00")
    data = base_config()
    data["tls"]["n_tls"] = 20
    data["campaign"]["duration_s"] = 2560.0
    data["output_dir"] = str(tmp_path / "unused")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))

    commands = {
        "tls-sim/phenomenological": ["tls-sim", "--config", str(cfg),
                                     "--mode", "phenomenological",
                                     "--seed", "7"],
        "tls-sim/microscopic": ["tls-sim", "--config", str(cfg),
                                "--mode", "microscopic", "--seed", "7"],
        "campaign/microscopic": ["campaign", "--config", str(cfg),
                                 "--seed", "7"],
    }
    identical = True
    compared = 0
    for name, argv in commands.items():
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / name.replace("/", "_") / tag
            code = cli.main(argv + ["--output-dir", str(out)])
            assert code == 0, f"{name} exited {code}"
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        if runs[0].keys() != runs[1].keys() or any(
                runs[0][k] != runs[1][k] for k in runs[0]):
            identical = False
        compared += len(runs[0])
    _report(capsys, 12, identical,
            f"tls-sim (both modes) and campaign re-run with --seed 7: "
            f"{compared} output files byte-identical across reruns")
