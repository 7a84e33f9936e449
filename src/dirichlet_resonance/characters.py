"""The dual group of Dirichlet characters mod a prime q.

For prime q the group (Z/qZ)* is cyclic of order q-1, so every character is
chi_a(g^k) = e^{2 pi i a k / (q-1)} for a fixed primitive root g and an index
a in {0, ..., q-2}.  All evaluation is one integer multiplication mod q-1
followed by a root-of-unity table lookup; no floating-point phase ever
accumulates.  The root table is built so that entry q-1-k is the exact
bitwise conjugate of entry k, which makes conjugate characters evaluate to
exact conjugates.  ``power_reduce`` indexes every power family chi^j;
``eligible`` is the one home of the resonance method's eligibility rule.

chi_{q-1-k} = conj(chi_k), so a per-character quantity that is real, or
conjugates with the character, needs only k <= (q-1)/2: ``power_reduce``
with ``half`` reduces a whole-group base vector onto those indices, and
``group_sum`` sums such a half over the whole group.  The base vectors
themselves and the ``eligible`` mask (a user's exclusions need not be
symmetric) stay whole-group.

Groups are immutable but for ``stored``, which keeps each vector read-only
for the group's lifetime; parallel iteration over the character index range
is the intended parallelism axis everywhere else.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .arithmetic import (DiscreteLogTable, _fsum_complex, build_dlog, exact_sum,
                         require_positive)

__all__ = [
    "CharacterGroup",
    "Character",
    "eligible",
    "group_sum",
    "orthogonality_sum",
    "power_reduce",
]

class CharacterGroup:
    """All q-1 Dirichlet characters mod the odd prime q, with their stored vectors."""

    def __init__(self, q: int):
        self.dlog: DiscreteLogTable = build_dlog(q)  # validates q
        self.q = q
        self.order = q - 1
        self._vectors: dict[tuple, np.ndarray] = {}

    def stored(self, compute, *args) -> np.ndarray:
        """compute(self, *args), computed once per validated argument tuple, read-only."""
        key = (compute, *args)
        if key not in self._vectors:
            self._vectors[key] = compute(self, *args)
            self._vectors[key].setflags(write=False)
        return self._vectors[key]

    @functools.cached_property
    def root_table(self) -> np.ndarray:
        """Built on first use: only the scalar and reference evaluators read it."""
        order = self.order
        roots = np.empty(order, dtype=np.complex128)
        half = order // 2
        k = np.arange(half + 1)
        roots[: half + 1] = np.exp(2j * np.pi * k / order)
        roots[0] = 1.0
        if order % 2 == 0:
            roots[half] = -1.0
        # mirror the upper half so conjugate indices are exact conjugates
        if half + 1 < order:
            roots[half + 1 :] = np.conj(roots[1 : order - half][::-1])
        roots.setflags(write=False)
        return roots

    def character(self, index: int) -> "Character":
        return Character(self, index % self.order)

    # -- evaluation ---------------------------------------------------------

    def _gather(self, ks: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """M[i, j] = chi_{ks[i]}(ns[j]) = root[(ks[i] dlog ns[j]) mod (q-1)],
        and 0 where q | ns[j]."""
        ns = np.asarray(ns, dtype=np.int64)
        r = ns % self.q
        out = np.zeros((len(ks), len(ns)), dtype=np.complex128)
        nz = r != 0
        idx = (np.asarray(ks, dtype=np.int64)[:, None] * self.dlog.dlog[r[nz]]) % self.order
        out[:, nz] = self.root_table[idx]
        return out

    def values_matrix(self, ns: np.ndarray) -> np.ndarray:
        """Matrix M[k, i] = chi_k(ns[i]) over every character index k."""
        return self._gather(np.arange(self.order), ns)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CharacterGroup(q={self.q}, g={self.dlog.g})"


class Character:
    """One Dirichlet character mod q, identified by its index in the dual group."""

    __slots__ = ("group", "index")

    def __init__(self, group: CharacterGroup, index: int):
        self.group = group
        self.index = index % group.order

    def __call__(self, n: int) -> complex:
        """chi(n) as an exact root of unity (0 when q | n)."""
        return complex(self.group._gather([self.index], [n % self.group.q])[0, 0])

    def values(self, ns: np.ndarray) -> np.ndarray:
        return self.group._gather([self.index], ns)[0]

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def order(self) -> int:
        """Multiplicative order: (q-1)/gcd(index, q-1)."""
        return self.group.order // math.gcd(self.index, self.group.order)

    def power(self, j: int) -> "Character":
        if j < 0:
            raise ValueError(f"power needs j >= 0, got {j}")
        return Character(self.group, (self.index * j) % self.group.order)

    def conjugate(self) -> "Character":
        return Character(self.group, (-self.index) % self.group.order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and other.group.q == self.group.q
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((self.group.q, self.index))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Character(q={self.group.q}, index={self.index})"


def power_reduce(vec: np.ndarray, ell: int, op, half: bool = False) -> np.ndarray:
    """out[k] = the ``op``-reduction (np.multiply, np.add, np.logical_or) of
    vec[(k*j) mod order] over j = 1..ell, by the rule chi_k^j = chi_{kj},
    for every k, or with ``half`` for k <= order/2 only (``vec`` stays
    whole-group)."""
    order = len(vec)
    ks = np.arange(order // 2 + 1 if half else order, dtype=np.int64)
    out = vec[: len(ks)].copy()
    for j in range(2, ell + 1):
        op(out, vec[(ks * j) % order], out=out)
    return out


def group_sum(half: np.ndarray) -> float:
    """The correctly rounded sum over all q-1 characters of a real vector
    given on k <= (q-1)/2 whose entries at k and q-1-k are equal:
    t_0 + 2 (t_1 + ... + t_{N/2-1}) + t_{N/2}, N = q-1, doubling being exact."""
    folded = 2.0 * half
    folded[[0, -1]] = half[[0, -1]]
    return exact_sum(folded)


def eligible(group: CharacterGroup, ell: int, excluded: tuple[int, ...] = ()) -> np.ndarray:
    """Boolean mask over character indices: True where no power chi^j,
    j in {1, ..., ell}, is principal or one of the ``excluded`` indices
    (taken mod q-1).  Without exclusions that is ord(chi) > ell.  All False
    (not an error) when ell >= q-1.

    kj mod (q-1) is periodic in j with period q-1, so powers past q-1 mark
    nothing new and the family is cut there.
    """
    require_positive("ell", ell)
    marked = np.zeros(group.order, dtype=bool)
    marked[[0, *(e % group.order for e in excluded)]] = True
    return ~power_reduce(marked, min(ell, group.order), np.logical_or)


def orthogonality_sum(group: CharacterGroup, m: int, n: int) -> complex:
    """sum over all characters of chi(m) * conj(chi(n)).

    Equals phi(q) when m = n (mod q) and (n, q) = 1, and 0 otherwise; the
    harness checks the numerical result to 1e-9 * phi(q).
    """
    q = group.q
    if m % q == 0 or n % q == 0:
        return 0j
    dm = group.dlog.of(m)
    dn = group.dlog.of(n)
    diff = (dm - dn) % group.order
    idx = (np.arange(group.order, dtype=np.int64) * diff) % group.order
    return _fsum_complex(group.root_table[idx])
