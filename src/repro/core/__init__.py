"""The paper's primary contribution: reconstruction privacy.

* :mod:`repro.core.bounds` — tail-probability bounds for Poisson trials
  (Chernoff, Chebyshev, Markov) and the Theorem-2 conversion between bounds on
  the observed count ``O*`` and bounds on the reconstruction error of ``F'``;
* :mod:`repro.core.criterion` — the (lambda, delta)-reconstruction-privacy
  criterion, the per-value test of Corollary 4 and the maximum group size
  ``s_g`` of Equation (10);
* :mod:`repro.core.testing` — data-set level auditing: which personal groups
  violate the criterion, and the violation rates ``v_g`` / ``v_r``;
* :mod:`repro.core.sps` — the Sampling-Perturbing-Scaling enforcement
  algorithm of Section 5.

The end-to-end workflow (generalise NA values, audit, enforce, publish) is
:func:`repro.publish` with ``strategy="generalize+sps"``.
"""

from repro.core.bounds import (
    chernoff_lower_bound,
    chernoff_upper_bound,
    chebyshev_bound,
    markov_bound,
    convert_omega_to_lambda,
    convert_lambda_to_omega,
    reconstruction_error_bounds,
)
from repro.core.criterion import (
    PrivacySpec,
    max_group_size,
    value_is_private,
)
from repro.core.testing import PrivacyAudit, audit_table
from repro.core.sps import SPSRecords, SPSResult, sps_publish

__all__ = [
    "chernoff_lower_bound",
    "chernoff_upper_bound",
    "chebyshev_bound",
    "markov_bound",
    "convert_omega_to_lambda",
    "convert_lambda_to_omega",
    "reconstruction_error_bounds",
    "PrivacySpec",
    "max_group_size",
    "value_is_private",
    "PrivacyAudit",
    "audit_table",
    "SPSRecords",
    "SPSResult",
    "sps_publish",
]
