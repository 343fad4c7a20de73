import random

import numpy as np
import pytest

from crystalk import crystal, exact_linalg as la, verify


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_random_unimodular_pair_is_inverse(n):
    rng = random.Random(n)
    for _ in range(5):
        g, g_inv = verify._random_unimodular(rng, n)
        assert not np.any(g @ g_inv != la.eye(n))
        assert not np.any(g_inv @ g != la.eye(n))


def test_random_unimodular_draws_only_the_moves():
    # the inverse is built from the same moves, so a seeded stream is
    # consumed exactly as by the moves alone
    rng, ref = random.Random(7), random.Random(7)
    verify._random_unimodular(rng, 4, steps=8)
    for _ in range(8):
        i, j = ref.randrange(4), ref.randrange(4)
        if i != j:
            ref.choice([-2, -1, 1, 2])
    assert rng.random() == ref.random()


def test_all_checks_refuses_a_descriptor_for_other_p_k():
    with pytest.raises(ValueError):
        list(verify.all_checks(3, 2, gamma=crystal.canonical_gamma(3, 1)))


def test_all_checks_shares_one_descriptor(monkeypatch):
    built = []
    real = crystal.canonical_gamma

    def counting(p, k):
        built.append((p, k))
        return real(p, k)
    monkeypatch.setattr(crystal, "canonical_gamma", counting)
    names = [name for name, _fn, _repro in verify.all_checks(3, 1)]
    assert built == [(3, 1)] and len(names) > 0
