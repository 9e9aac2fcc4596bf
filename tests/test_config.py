import math

import numpy as np
import pytest

from onebit_mimo import SystemConfig, db_to_linear


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig(M=64, K=8, tau=10, T=200, rho_p=0.5, rho_d=1.0)
        assert cfg.M == 64 and cfg.tau == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=0, K=1, tau=1, T=1),
            dict(M=4, K=0, tau=1, T=1),
            dict(M=4, K=3, tau=2, T=10),  # tau < K
            dict(M=4, K=2, tau=12, T=10),  # tau > T
            dict(M=4, K=2, tau=2, T=10, rho_p=-0.1),
            dict(M=4, K=2, tau=2, T=10, rho_d=-0.1),
            # nan < 0 is False: non-finite SNRs used to pass
            dict(M=4, K=2, tau=2, T=10, rho_p=float("nan")),
            dict(M=4, K=2, tau=2, T=10, rho_d=float("nan")),
            dict(M=4, K=2, tau=2, T=10, rho_p=float("inf")),
            dict(M=4, K=2, tau=2, T=10, rho_d=float("inf")),
            # nan < 1 and inf < 1 are False: M = nan and M = inf used to pass
            dict(M=math.nan, K=2, tau=2, T=10),
            dict(M=math.inf, K=2, tau=2, T=10),
            dict(M=-math.inf, K=2, tau=2, T=10),
            # K, tau and T count users and symbols: K = 1.5 and T = inf used to pass
            dict(M=4, K=1.5, tau=2, T=10),
            dict(M=4, K=2.0, tau=2, T=10),
            dict(M=4, K=True, tau=2, T=10),
            dict(M=4, K=2, tau=2.5, T=10),
            dict(M=4, K=2, tau=2, T=10.0),
            dict(M=4, K=2, tau=2, T=math.inf),
            dict(M=4, K=2, tau=2, T=np.float64(10.0)),
            # M, rho_p and rho_d are real: these used to raise TypeError or pass
            dict(M=None, K=2, tau=2, T=10),
            dict(M="3", K=2, tau=2, T=10),
            dict(M=True, K=1, tau=1, T=10),
            dict(M=4, K=2, tau=2, T=10, rho_p="1"),
            dict(M=4, K=2, tau=2, T=10, rho_p=True),
            dict(M=4, K=2, tau=2, T=10, rho_d=None),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    def test_real_antenna_count_and_numpy_integer_counts_are_accepted(self):
        cfg = SystemConfig(M=100.5, K=np.int64(2), tau=np.int32(3), T=np.uint8(10))
        assert (cfg.M, cfg.K, cfg.tau, cfg.T) == (100.5, 2, 3, 10)


def test_db_round_trip():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
