"""Closed-form oracles for the MSE curves: the SGD error recursion and the ZF error.

With i.i.d. CN(0, 1) channel entries, unit-power symbols, a zero prior and a
noise variance of sigma^2 = K * 10^(-snr/10) per antenna, the expected
per-user squared error of SGD with step mu after n antennas obeys

    p_n = rho * p_{n-1} + mu^2 sigma^2,   rho = 1 - 2 mu + mu^2 (K + 1),   p_0 = 1,

because each antenna's row h is fresh, E[conj(h) h^T] = I and
E[||h||^2 conj(h) h^T] = (K + 1) I. Zero forcing's is sigma^2 / (M - K),
since E[(H^H H)^-1] = I / (M - K) for a complex Wishart matrix with M
degrees of freedom (Tulino and Verdu, 2004). Every point of a sweep must lie
within Z_BOUND of its own standard errors of these values.
"""

import pytest

from daisymimo.chain_sim import TopologyConfig
from daisymimo.harness import AlgorithmSpec, ExperimentSpec, run_mse_sweep

M, K, SNR_DB, TRIALS, MU = 32, 4, 12.0, 2000, 0.05
SIGMA2 = K * 10 ** (-SNR_DB / 10)
Z_BOUND = 4.0
SEEDS = (11, 12)


@pytest.fixture(scope="module", params=SEEDS)
def result(request):
    spec = ExperimentSpec(
        kind="mse_sweep", topology=TopologyConfig(M, K, 1, M),
        algorithms=(AlgorithmSpec("sgd", mu=MU), AlgorithmSpec("zf")), snr_db=SNR_DB,
        constellation_order=4, trials=TRIALS, master_seed=request.param,
    )
    return run_mse_sweep(spec)


def test_sgd_curve_follows_the_error_recursion(result):
    rho = 1 - 2 * MU + MU**2 * (K + 1)
    points = result.curve(f"sgd(mu={MU:g})").points
    assert [p.x for p in points] == list(range(1, M + 1))
    p_n, z = 1.0, []
    for point in points:
        p_n = rho * p_n + MU**2 * SIGMA2
        z.append((point.mean - p_n) / point.stderr)
    assert max(map(abs, z)) < Z_BOUND


def test_zf_point_is_sigma2_over_m_minus_k(result):
    (point,) = result.curve("zf").points
    assert point.x == M and point.n_trials == TRIALS
    assert abs(point.mean - SIGMA2 / (M - K)) / point.stderr < Z_BOUND
