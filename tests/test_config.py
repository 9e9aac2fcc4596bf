import pytest

from onebit_mimo import PowerBudget, SystemConfig, db_to_linear, linear_to_db


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
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    def test_with_snr(self):
        cfg = SystemConfig(M=4, K=2, tau=2).with_snr(0.25)
        assert cfg.rho_p == cfg.rho_d == 0.25


class TestPowerBudget:
    def test_total(self):
        b = PowerBudget(rho=0.1, T=200)
        assert b.P == pytest.approx(20.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PowerBudget(rho=0.0, T=10)
        with pytest.raises(ValueError):
            PowerBudget(rho=1.0, T=0)
        for rho in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PowerBudget(rho=rho, T=10)


def test_db_round_trip():
    for x in (0.001, 1.0, 31.62, 1e4):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
