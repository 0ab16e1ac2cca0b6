"""Random Gaussian embeddings into finite-dimensional Lorentz sequence spaces:
norms, explicit dimension bounds per parameter regime, and Monte Carlo
verification of the almost-isometry and concentration events."""

from .constants import DEFAULT_LEDGER, KNOWN_CONSTANTS, ConstantLedger
from .params import LorentzParams, power_params
from .norms import (lipschitz_constant, lipschitz_maximizer, lorentz_norm,
                    lorentz_norm_images, psi, psi_gradient_norm)
from .sharp import (beta_weights, grad_functional, make_sharp_spec, sharp_norm,
                    SharpNormSpec)
from .analytic import (incomplete_gamma_shape, median_norm_shape,
                       median_psi_shape, power_integral_shape,
                       power_log_sum_shape, uniform_orderstat_upper_all, xi1,
                       xi1_inv_upper)
from .regimes import (BoundReport, RegimeCase, classify_case,
                      compute_bound_report, corollary_dimension_rp,
                      ellinfty_regime, general_dimension, lomain_EF,
                      lomain_EF_simplified, milman_dimension)
from .streams import RandomStream
from .embedding import (DistortionReport, measure_distortion,
                        sample_gaussian_matrix, test_directions)
from .montecarlo import (CalibrationRecord, calibrate,
                         calibrate_embedding_dimension, estimate_median_norm,
                         estimate_median_psi, scaling_probe, verify_embedding,
                         verify_orderorder, wilson_interval)

__version__ = "0.1.0"
