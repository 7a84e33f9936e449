"""The half-group path: every per-configuration reduction runs on
k <= (q-1)/2 and must give what the full-length form gives, bit for bit."""

import json
import math

import numpy as np
import pytest

from dirichlet_resonance import experiments
from dirichlet_resonance.arithmetic import _fsum_complex, exact_sum
from dirichlet_resonance.characters import CharacterGroup, group_sum, power_reduce
from dirichlet_resonance.experiments import ConfigError, ExperimentConfig, run_theorem
from dirichlet_resonance.resonator import (LinearKernel, SigmaKernel, joint_product,
                                           resonator_sq_all, s2_terms)
from full_group import (full_joint_product, full_power_reduce, full_resonator_sq,
                        full_s2_terms, unfold)

QS = (3, 5, 7, 17, 101, 1009, 10007)
THEOREMS = ((1, None), (2, 0.9), (3, None), (4, 0.9))


def _full_length_form(monkeypatch):
    """Route run_theorem through the full-length reductions: whole-group
    |R|^2, joint products and S2 summands, S1 and S2 summed over all q - 1
    characters, and every character read at its own index."""
    monkeypatch.setattr(experiments, "s2_terms", full_s2_terms)
    monkeypatch.setattr(experiments, "joint_product", full_joint_product)
    monkeypatch.setattr(experiments, "s1",
                        lambda group, kernel: exact_sum(full_resonator_sq(group, kernel)))
    monkeypatch.setattr(experiments, "_s2_sum", _fsum_complex)
    monkeypatch.setattr(experiments, "_half_index", lambda ks, order: ks)


def _report_text(cfg):
    try:
        row = run_theorem(cfg).to_dict()
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    del row["seconds"]
    return json.dumps(row, sort_keys=True)  # repr of every float: -0.0 and nan kept apart


def _configs(q):
    n = q - 1
    for theorem, sigma in THEOREMS:
        for ell in (1, 2, 3):
            for excluded in ((), (3,), (5, 7), ((n - 3) % n,)):
                yield ExperimentConfig(theorem, q, ell, x=None if q >= 17 else 6.0,
                                       sigma=sigma, excluded=excluded)


@pytest.mark.parametrize("q", QS)
def test_run_theorem_matches_the_full_length_form(monkeypatch, q):
    configs = list(_configs(q))
    if q == 1009:  # |R|^2 overflows: S1 = inf, S2 = inf + nan i
        configs.append(ExperimentConfig(1, 1009, 1, x=2000.0, y=2001))
    half = [_report_text(cfg) for cfg in configs]
    with monkeypatch.context() as m:
        _full_length_form(m)
        full = [_report_text(cfg) for cfg in configs]
    assert any("ConfigError" not in text for text in half)
    for cfg, a, b in zip(configs, half, full):
        assert a == b, cfg


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("kernel", [LinearKernel(20.0), SigmaKernel(20.0, 0.75),
                                    LinearKernel(1.5)], ids=["linear", "sigma", "empty"])
def test_resonator_weights_are_the_lower_half(q, kernel):
    group = CharacterGroup(q)
    full = full_resonator_sq(group, kernel)
    got = resonator_sq_all(group, kernel)
    assert len(got) == group.order // 2 + 1
    assert unfold(got).tobytes() == full.tobytes()


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("target", ["l-product", "prime-sum", "logderiv-product"])
def test_joint_products_and_s2_terms_are_the_lower_half(q, target):
    group = CharacterGroup(q)
    kernel = SigmaKernel(20.0, 0.9)
    for ell in (1, 2, 3):
        for got, full in ((joint_product(group, target, ell, 0.9, 1000),
                           full_joint_product(group, target, ell, 0.9, 1000)),
                          (s2_terms(group, target, ell, kernel, 1000),
                           full_s2_terms(group, target, ell, kernel, 1000))):
            assert got.tobytes() == full[: group.order // 2 + 1].tobytes()
            # a prime sum's zero imaginary part may differ in sign between k and N - k
            assert np.array_equal(unfold(got), full)
            assert unfold(got).real.tobytes() == full.real.tobytes()


@pytest.mark.parametrize("order", [2, 4, 12, 100, 1008, 1998, 2002, 10006])
def test_power_reduce_half_is_the_prefix(order):
    rng = np.random.default_rng(order)
    vec = np.exp(2j * np.pi * rng.random(order))  # products of up to order + 2 stay finite
    marked = rng.random(order) < 0.1
    for v, op in ((vec, np.multiply), (vec, np.add), (marked, np.logical_or)):
        for ell in (1, 2, 3, order + 2):
            got = power_reduce(v, ell, op, half=True)
            assert got.dtype == v.dtype
            assert got.tobytes() == full_power_reduce(v, ell, op)[: order // 2 + 1].tobytes()


@pytest.mark.parametrize("order", [2, 4, 100, 1008, 1998, 2002, 10006])
def test_group_sum_is_the_whole_group_fsum(order):
    # on both sides of exact_sum's cut-off for the half and for the whole group
    rng = np.random.default_rng(order + 1)
    for scale in (1.0, 1e290, 1e-300):
        half = rng.standard_normal(order // 2 + 1) * scale
        half[rng.random(len(half)) < 0.1] *= 1e10
        got = group_sum(half)
        assert got.hex() == math.fsum(unfold(half).tolist()).hex()
