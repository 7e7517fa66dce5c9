import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon import (
    ZeroPolicy,
    apply_local_unitary,
    bloch_vector,
    m_kl,
    make_dicke,
    make_ghz,
    make_plus_product,
    make_random_haar,
    pair_block,
    preferred_axes,
    random_rotation,
    reduced_density_pair,
    reduced_density_single,
)
from entmon.frames import _random_axes, rotation_from_quaternion
from entmon.tensor import marginals
from lu_oracles import frame_from_axis, is_rotation, rotate_block, su2_from_rotation


def _rz(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


X, Y, Z = np.eye(3)
POLICIES = {
    "canonical": ZeroPolicy.canonical(),
    "axis": ZeroPolicy.fixed_axis([0, 1, 0]),
    "maximize": ZeroPolicy.maximize(),
}


@pytest.mark.parametrize(
    "bloch, expected, under_axis_policy",
    [
        ([0.0, 0.0, 0.5], Z, Z),
        ([0.3, 0.0, 0.0], X, X),
        ([-0.3, 0.0, 0.0], -X, -X),
        ([0.0, 0.0, -1.0], -Z, -Z),
        ([0.0, 0.0, 0.0], Z, Y),
        ([0.0, 0.0, 1e-10], Z, Y),
    ],
    ids=["+z", "+x", "-x", "-z", "zero", "below-eps"],
)
def test_preferred_axes_table(bloch, expected, under_axis_policy):
    # a nonzero Bloch vector fixes the axis under every policy; a vanishing
    # one gets the axis policy's y, and z otherwise (the maximize search
    # starts there)
    for name, policy in POLICIES.items():
        axes = preferred_axes([bloch, [0.0, 0.6, 0.0]], policy)
        assert axes.shape == (2, 3)
        want = under_axis_policy if name == "axis" else expected
        assert np.array_equal(axes[0], want), name
        assert np.array_equal(axes[1], Y)


def test_preferred_axes_rejects_bad_shape():
    for bad in ([0.0, 0.0, 1.0], np.zeros((2, 2)), np.zeros((1, 3, 3))):
        with pytest.raises(ValueError):
            preferred_axes(bad)


def test_zero_policy_validation():
    with pytest.raises(ValueError):
        ZeroPolicy.fixed_axis([0, 0, 0])
    with pytest.raises(ValueError):
        ZeroPolicy("axis", axis=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ZeroPolicy("axis", axis=(math.nan, 0.0, 0.0))
    for bad in ([math.nan, 0, 0], [math.inf, 0, 0], [0, -math.inf, 1], [1, 0]):
        with pytest.raises(ValueError):
            ZeroPolicy.fixed_axis(bad)
    with pytest.raises(ValueError):
        ZeroPolicy.maximize(seed=-1)
    with pytest.raises(ValueError):
        ZeroPolicy("bogus")
    with pytest.raises(ValueError):
        ZeroPolicy.maximize(samples=0)
    assert ZeroPolicy.canonical().describe() == "canonical"
    assert ZeroPolicy.maximize(samples=32).describe() == "maximize:32"
    assert ZeroPolicy.fixed_axis([0, 0, 1]).describe() == "axis=0,0,1"
    # the norm is taken after scaling by the largest component, so it can
    # neither overflow nor underflow
    assert ZeroPolicy.fixed_axis([1e300, 1e300, 0]).axis == (0.7071067811865475,) * 2 + (0.0,)
    assert ZeroPolicy.fixed_axis([1e-320, 0, 0]).axis == (1.0, 0.0, 0.0)


def test_preferred_frames_examples():
    # a preferred frame is represented by its z axis
    assert np.allclose(preferred_axes(marginals(make_dicke(3, 1))[0]), np.tile(Z, (3, 1)))
    assert np.allclose(preferred_axes(marginals(make_plus_product(3))[0]), np.tile(X, (3, 1)))
    ghz_bloch = marginals(make_ghz(4))[0]
    assert np.array_equal(preferred_axes(ghz_bloch, ZeroPolicy.canonical()), np.tile(Z, (4, 1)))


def test_preferred_frames_align_bloch():
    for seed in range(10):
        state = make_random_haar(4, 1000 + seed)
        blochs = [bloch_vector(reduced_density_single(state, k)) for k in range(4)]
        if min(np.linalg.norm(b) for b in blochs) <= 1e-6:
            continue
        for policy in (ZeroPolicy.canonical(), ZeroPolicy.fixed_axis([0, 1, 0])):
            for a, b in zip(preferred_axes(blochs, policy), blochs):
                assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-15)
                assert a @ b == pytest.approx(np.linalg.norm(b), abs=1e-12)


def test_produced_frames_are_rotations():
    # each produced axis is the z row of a proper rotation
    for seed in range(5):
        state = make_random_haar(4, 4000 + seed)
        bloch = marginals(state)[0]
        for policy in (ZeroPolicy.canonical(), ZeroPolicy.fixed_axis([0, 1, 0])):
            for a in preferred_axes(bloch, policy):
                R = frame_from_axis(a)
                assert is_rotation(R)
                assert np.allclose(R[2], a, atol=1e-15)


def test_rotate_block_identity():
    T = np.arange(9.0).reshape(3, 3)
    assert np.allclose(rotate_block(T, np.eye(3), np.eye(3)), T)


def test_rotate_block_z_block_to_x():
    R = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])  # x -> z
    T = np.diag([0.0, 0.0, 1.0])
    rotated = rotate_block(T, R, R)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(rotated, expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotate_block_preserves_frobenius_norm(seed):
    rng = np.random.default_rng(seed)
    T = rng.uniform(-1, 1, size=(3, 3))
    Rk, Rl = random_rotation(rng), random_rotation(rng)
    assert np.linalg.norm(rotate_block(T, Rk, Rl)) == pytest.approx(
        np.linalg.norm(T), abs=1e-10
    )


def test_random_rotation_is_rotation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert is_rotation(random_rotation(rng))


@pytest.mark.parametrize("n", [2, 5, 8, 13])
def test_random_axes_are_the_z_rows_of_random_rotations(n):
    # one (n, 4) draw must consume the same stream as n draws of 4, so
    # monogamy_stress keeps its seeding contract without building rotations
    for seed in range(50):
        fast, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        axes = _random_axes(fast, n)
        want = np.array([random_rotation(ref)[2] for _ in range(n)])
        assert axes.shape == (n, 3)
        assert np.max(np.abs(axes - want)) <= 4e-15
        assert fast.bit_generator.state == ref.bit_generator.state


def test_su2_lift_of_z_rotation():
    theta = 0.7
    U = su2_from_rotation(_rz(theta))
    expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    assert np.max(np.abs(U - expected)) < 1e-12


def test_su2_lift_round_trips_through_quaternion():
    rng = np.random.default_rng(17)
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        R = rotation_from_quaternion(q)
        U = su2_from_rotation(R)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12
        # the lift must realize R on Pauli expectations: U^dag sigma_a U = sum_b R_ab sigma_b
        from entmon.tensor import PAULI

        for a in range(3):
            lhs = U.conj().T @ PAULI[a + 1] @ U
            rhs = sum(R[a, b] * PAULI[b + 1] for b in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_state_rotation_matches_block_rotation():
    # rotating the state with the SU(2) lifts, then reducing, must agree with
    # reducing first and rotating the block
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        state = make_random_haar(n, int(rng.integers(2**31)))
        rotations = [random_rotation(rng) for _ in range(n)]
        rotated = state
        for k, R in enumerate(rotations):
            rotated = apply_local_unitary(rotated, k, su2_from_rotation(R))
        for k, l in itertools.combinations(range(n), 2):
            direct = pair_block(reduced_density_pair(rotated, k, l))
            via_block = rotate_block(
                pair_block(reduced_density_pair(state, k, l)), rotations[k], rotations[l]
            )
            assert np.max(np.abs(direct - via_block)) < 1e-9


def test_m_kl_is_in_plane_sum_of_rotated_block():
    # the central identity: for any frames R_k, R_l, the squared in-plane
    # entries of R_k T R_l^T depend only on their z rows, which m_kl takes
    rng = np.random.default_rng(41)
    for n in (2, 3, 5):
        for seed in range(4):
            state = make_random_haar(n, 300 + 10 * n + seed)
            rotations = [random_rotation(rng) for _ in range(n)]
            axes = [R[2] for R in rotations]
            for k, l in itertools.combinations(range(n), 2):
                T = pair_block(reduced_density_pair(state, k, l))
                inplane = rotate_block(T, rotations[k], rotations[l])[:2, :2]
                assert m_kl(state, axes, k, l) == pytest.approx(np.sum(inplane**2), abs=1e-12)
