"""Resonance-method experiments for Dirichlet L-functions and their
logarithmic derivatives: exact character arithmetic mod a prime, resonator
sums, explicit constants, and a verification harness.

The root re-exports only the names the benchmark's reference checks import
from it; everything else is imported from its module.
"""

from .characters import CharacterGroup
from .lfunctions import (digamma, exact_l, hurwitz_zeta, joint_l_product, joint_logderiv_product,
                         truncated_l)
from .resonator import LinearKernel, SigmaKernel, resonator_sq, s1_congruence_oracle

__version__ = "0.1.0"
