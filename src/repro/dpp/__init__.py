"""``repro.dpp`` — Determinantal Point Process machinery.

Implements everything the LkP criterion stands on:

* :mod:`~repro.dpp.esp` — elementary symmetric polynomials: the paper's
  Algorithm 1, a brute-force reference, and a differentiable
  Newton-identities form used during training;
* :mod:`~repro.dpp.kdpp` — exact k-DPP and standard-DPP distributions
  (probabilities, enumeration, Kulesza–Taskar sampling) plus the
  differentiable ``log P_k(S)`` of Eq. 4; both distributions offer a
  dense O(M³) path and a low-rank dual-kernel O(M r²) path
  (``from_factors``) for catalog-scale serving;
* :mod:`~repro.dpp.kernels` — the quality × diversity kernel assembly of
  Eq. 2 / Eq. 13, the :class:`~repro.dpp.kernels.LowRankKernel` factored
  representation, and the Gaussian-similarity E-variant kernel;
* :mod:`~repro.dpp.diversity_kernel` — the Eq. 3 learner for the
  pre-trained low-rank diversity kernel ``K = V^T V``;
* :mod:`~repro.dpp.map_inference` — fast greedy MAP (Chen et al. 2018)
  for diversified list generation.
"""

from .diversity_kernel import (
    DiversityKernelConfig,
    DiversityKernelLearner,
    category_jaccard_kernel,
)
from .esp import (
    batched_differentiable_log_esp,
    batched_esp_leave_one_out,
    batched_esp_table,
    batched_log_esp,
    differentiable_esps,
    differentiable_log_esp,
    differentiable_log_esp_newton,
    elementary_symmetric_polynomials,
    esp_bruteforce,
    esp_from_power_sums,
    esp_leave_one_out,
    esp_table,
    log_esp,
)
from .kdpp import (
    KDPP,
    StandardDPP,
    batched_log_kdpp_probability,
    batched_sample_elementary_shared,
    batched_sample_elementary_stacked,
    kdpp_spectrum_scale,
    log_kdpp_probability,
    select_eigenvectors_from_esp_table,
    validate_psd_kernel,
)
from .kernels import (
    QUALITY_TRANSFORMS,
    LowRankKernel,
    batched_gaussian_similarity_kernel,
    batched_quality_diversity_kernel,
    exp_quality,
    gaussian_similarity_kernel,
    gaussian_similarity_kernel_np,
    identity_quality,
    quality_diversity_kernel,
    quality_diversity_kernel_np,
    sigmoid_quality,
)
from .map_inference import (
    batched_greedy_map_shared,
    batched_greedy_map_stacked,
    greedy_map,
    greedy_map_reference,
)

__all__ = [
    "KDPP",
    "StandardDPP",
    "log_kdpp_probability",
    "batched_log_kdpp_probability",
    "validate_psd_kernel",
    "kdpp_spectrum_scale",
    "select_eigenvectors_from_esp_table",
    "batched_sample_elementary_shared",
    "batched_sample_elementary_stacked",
    "elementary_symmetric_polynomials",
    "log_esp",
    "batched_log_esp",
    "esp_table",
    "esp_bruteforce",
    "esp_from_power_sums",
    "differentiable_esps",
    "differentiable_log_esp",
    "differentiable_log_esp_newton",
    "esp_leave_one_out",
    "batched_esp_table",
    "batched_esp_leave_one_out",
    "batched_differentiable_log_esp",
    "LowRankKernel",
    "quality_diversity_kernel",
    "quality_diversity_kernel_np",
    "batched_quality_diversity_kernel",
    "gaussian_similarity_kernel",
    "gaussian_similarity_kernel_np",
    "batched_gaussian_similarity_kernel",
    "exp_quality",
    "sigmoid_quality",
    "identity_quality",
    "QUALITY_TRANSFORMS",
    "DiversityKernelConfig",
    "DiversityKernelLearner",
    "category_jaccard_kernel",
    "greedy_map",
    "greedy_map_reference",
    "batched_greedy_map_shared",
    "batched_greedy_map_stacked",
]
