"""Whole-group forms of the per-configuration reductions, for the tests.

The library keeps |R(chi_k)|^2, the joint products and the S2 summands for
k <= N/2 only (N = q - 1), since chi_{N-k} = conj(chi_k).  ``unfold``
rebuilds the whole-group vector from such a half, and the ``full_*``
functions are the full-length reductions the half path replaced, kept here
so the tests can check it against them bit for bit.  ``OVERFLOWING_S2``
lists configurations whose S2 summands overflow, ``VERIFY_CHECKS`` the
``verify`` battery's check names in order, and ``bits`` gives what a
bit-for-bit comparison of a scalar compares.
"""

import math

import numpy as np

from dirichlet_resonance.arithmetic import primes_up_to
from dirichlet_resonance.lfunctions import logderiv_poly_all, prime_sum_all, truncated_l_all

# (theorem, sigma, X) at q = 101 with Y = X: S2 summands overflow to both +inf and -inf
OVERFLOWING_S2 = [(2, 0.75, 20000), (3, None, 9000), (4, 0.75, 14000)]

VERIFY_CHECKS = [
    "orthogonality-delta", "s1-closed-form", "resonance-theorem-1", "resonance-theorem-2",
    "resonance-theorem-3", "resonance-theorem-4", "oracle-class-numbers",
    "oracle-truncation-q5", "constants-identities", "admissibility-ranges", "mertens-band",
]


def bits(value):
    """Type, dtype and bytes of a scalar: 0.0 and -0.0 differ."""
    return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


def unfold(half):
    """The whole-group vector of one kept for k <= N/2: entry N - k is the
    conjugate of entry k."""
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def full_power_reduce(vec, ell, op):
    """out[k] = the op-reduction of vec[(k*j) mod N] over j = 1..ell, all k."""
    order = len(vec)
    ks = np.arange(order, dtype=np.int64)
    out = vec.copy()
    for j in range(2, ell + 1):
        op(out, vec[(ks * j) % order], out=out)
    return out


def full_resonator_sq(group, kernel):
    """|R(chi_k)|^2 for every k from every factor at once: a prime-major
    P x N array multiplied over axis 0, row after row, the bits of a
    streamed product over length-N buffers."""
    order = group.order
    ps = primes_up_to(math.floor(kernel.x))
    ps = ps[ps != group.q]
    rv = kernel.prime_values(ps)
    if len(ps) == 0:
        return np.ones(order)
    half = order // 2
    sin2 = np.empty(order)
    sin2[: half + 1] = np.sin(np.pi * np.arange(half + 1) / order) ** 2
    sin2[half + 1 :] = sin2[1 : order - half][::-1]
    d = group.dlog.dlog[ps % group.q]
    e = (d[:, None] * np.arange(order, dtype=np.int64)[None, :]) % order
    factors = sin2[e] * (4.0 * rv)[:, None] + ((1.0 - rv) ** 2)[:, None]
    return 1.0 / np.prod(factors, axis=0)


_BASES = {"l-product": (truncated_l_all, np.multiply), "prime-sum": (prime_sum_all, np.add),
          "logderiv-product": (logderiv_poly_all, np.multiply)}


def full_joint_product(group, target, ell, sigma, y):
    base, op = _BASES[target]
    return full_power_reduce(base(group, sigma, y), ell, op)


def full_s2_terms(group, target, ell, kernel, y):
    return full_joint_product(group, target, ell, kernel.sigma, y) * full_resonator_sq(group, kernel)
