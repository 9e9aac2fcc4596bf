"""One-bit ADC massive MIMO uplink toolkit.

Bussgang-linearized channel estimation, Monte Carlo and closed-form
achievable-rate evaluation for MRC/ZF receivers, and pilot/power resource
allocation, with a CLI for reproducing the reference experiments.
"""

from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("onebit-mimo")
except PackageNotFoundError:  # running from a source tree
    __version__ = "0.1.0"

from .allocation import (
    AllocationSolution,
    antenna_ratio,
    bit_energy,
    optimize_allocation,
    power_scaling_limit,
    se_at_allocation,
    se_surface,
)
from .channel import (
    data_signal,
    dft_pilots,
    gen_correlated_channel,
    gen_iid_channel,
    laplacian_covariance,
    training_signal,
    unvec,
    vec,
)
from .config import PowerBudget, SystemConfig, db_to_linear, linear_to_db
from .estimators import (
    ChannelEstimate,
    blmmse_fast,
    blmmse_flat,
    estimate_variance,
    ls_estimate,
    mse_closed_form,
    mse_floor,
    nml_estimate,
)
from .ofdm import OfdmConfig, blmmse_ofdm
from .quantize import (
    alpha_d,
    alpha_p,
    arcsine_covariance,
    bussgang_gain,
    one_bit_quantize,
    quantizer_noise_cov,
)
from .rates import (
    RateReport,
    ReceiverMoments,
    conventional_rates,
    ergodic_rate_mc,
    mrc_matrix,
    rate_lemma1,
    rate_mrc_closed,
    rate_zf_closed,
    sum_se,
    zf_matrix,
)
