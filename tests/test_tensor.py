import itertools

import numpy as np
import pytest

from entmon import (
    bloch_vector,
    correlation_component,
    make_basis_state,
    make_dicke,
    make_ghz,
    make_plus_product,
    make_random_haar,
    pair_block,
    reduced_density_pair,
    reduced_density_single,
    tensor_product,
)
from lu_oracles import is_valid_density


def test_reduced_single_product_state():
    state = tensor_product(make_basis_state(1, "0"), make_plus_product(1))
    assert np.allclose(reduced_density_single(state, 0), np.diag([1.0, 0.0]))


def test_reduced_single_ghz_maximally_mixed():
    g = make_ghz(3)
    for k in range(3):
        assert np.allclose(reduced_density_single(g, k), np.eye(2) / 2)


def test_reduced_single_w_state():
    rho = reduced_density_single(make_dicke(3, 1), 0)
    assert np.allclose(rho, np.diag([2 / 3, 1 / 3]))


def test_reduced_single_index_validation():
    with pytest.raises(ValueError):
        reduced_density_single(make_ghz(2), 2)


def test_reduced_pair_product_state():
    state = tensor_product(make_basis_state(2, "00"), make_plus_product(1))
    rho = reduced_density_pair(state, 0, 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_reduced_pair_ghz():
    rho = reduced_density_pair(make_ghz(3), 0, 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho, expected)


def test_reduced_pair_w_state():
    rho = reduced_density_pair(make_dicke(3, 1), 0, 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1 / 3
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 1 / 3
    assert np.allclose(rho, expected)


def test_reduced_pair_index_validation():
    g = make_ghz(3)
    with pytest.raises(ValueError):
        reduced_density_pair(g, 1, 1)
    with pytest.raises(ValueError):
        reduced_density_pair(g, 2, 1)
    with pytest.raises(ValueError):
        reduced_density_pair(g, 0, 3)


def test_reductions_are_valid_densities():
    for seed in range(5):
        state = make_random_haar(5, seed)
        for k in range(5):
            assert is_valid_density(reduced_density_single(state, k))
        for k, l in itertools.combinations(range(5), 2):
            assert is_valid_density(reduced_density_pair(state, k, l))


def test_bloch_vector_examples():
    assert np.allclose(bloch_vector(np.eye(2) / 2), [0, 0, 0])
    plus = np.full((2, 2), 0.5)
    assert np.allclose(bloch_vector(plus), [1, 0, 0])
    assert np.allclose(bloch_vector(np.diag([2 / 3, 1 / 3])), [0, 0, 1 / 3])


def test_bloch_vector_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        bloch_vector(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_bloch_norm_at_most_one():
    for seed in range(10):
        rho = reduced_density_single(make_random_haar(4, seed), seed % 4)
        assert np.linalg.norm(bloch_vector(rho)) <= 1 + 1e-10


def test_pair_block_ghz():
    T = pair_block(reduced_density_pair(make_ghz(3), 0, 1))
    assert np.allclose(T, np.diag([0.0, 0.0, 1.0]))


def test_pair_block_plus_product():
    rho = np.kron(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    T = pair_block(rho)
    assert np.allclose(T, np.outer([1, 0, 0], [1, 0, 0]))


def test_pair_block_w_state():
    T = pair_block(reduced_density_pair(make_dicke(3, 1), 0, 1))
    assert np.allclose(T, np.diag([2 / 3, 2 / 3, -1 / 3]))


def test_pair_block_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        pair_block(bad)


def test_pair_block_entry_and_norm_bounds():
    for seed in range(10):
        state = make_random_haar(4, 100 + seed)
        for k, l in itertools.combinations(range(4), 2):
            T = pair_block(reduced_density_pair(state, k, l))
            assert np.max(np.abs(T)) <= 1 + 1e-10
            assert np.sum(T**2) <= 3 + 1e-9


def test_correlation_component_basics():
    for state in (make_ghz(3), make_random_haar(3, 3)):
        assert correlation_component(state, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert correlation_component(make_plus_product(3), [1, 1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert correlation_component(make_ghz(3), [1, 1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_correlation_component_validation():
    g = make_ghz(3)
    with pytest.raises(ValueError):
        correlation_component(g, [0, 0])
    with pytest.raises(ValueError):
        correlation_component(g, [0, 0, 4])
    with pytest.raises(ValueError):
        correlation_component(make_plus_product(11), [0] * 11)


def test_two_index_components_match_oracle():
    # smaller version of the acceptance sweep
    for n in (3, 4):
        for seed in range(5):
            state = make_random_haar(n, 17 * n + seed)
            for k, l in itertools.combinations(range(n), 2):
                T = pair_block(reduced_density_pair(state, k, l))
                for i in range(3):
                    for j in range(3):
                        mu = [0] * n
                        mu[k], mu[l] = i + 1, j + 1
                        assert abs(T[i, j] - correlation_component(state, mu)) < 1e-10


def test_bloch_matches_single_index_components():
    for seed in range(5):
        state = make_random_haar(4, 31 + seed)
        for k in range(4):
            b = bloch_vector(reduced_density_single(state, k))
            for i in range(3):
                mu = [0] * 4
                mu[k] = i + 1
                assert abs(b[i] - correlation_component(state, mu)) < 1e-10


def test_ghz_marginal_purity_is_half():
    g = make_ghz(3)
    for k in range(3):
        rho = reduced_density_single(g, k)
        assert np.trace(rho @ rho).real == pytest.approx(0.5, abs=1e-10)


def test_product_state_block_factorizes():
    for seed in range(5):
        a = make_random_haar(2, 61 + seed)
        b = make_random_haar(2, 71 + seed)
        state = tensor_product(a, b)
        for k in range(2):
            for l in range(2, 4):
                T = pair_block(reduced_density_pair(state, k, l))
                bk = bloch_vector(reduced_density_single(state, k))
                bl = bloch_vector(reduced_density_single(state, l))
                assert np.max(np.abs(T - np.outer(bk, bl))) < 1e-10
