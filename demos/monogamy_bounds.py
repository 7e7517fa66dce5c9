"""How tightly random states approach the pairwise monogamy bounds.

Each pair value is capped at 2, any two pair values sharing a qubit sum to
at most 2, each triple sums to at most 3, and the grand total is capped at
2 for two qubits and C(n,2) otherwise. Random states stay well inside; the
extremes are reached by special states (a Bell pair hits the pair bound, the
all-plus product hits the global bound in computational axes).
"""
import math

import numpy as np

from entmon import (
    m_kl,
    m_total,
    make_ghz,
    make_plus_product,
    monogamy_check,
    monogamy_stress,
)


def z_axes(n: int) -> np.ndarray:
    """The computational z axis for every qubit."""
    return np.tile([0.0, 0.0, 1.0], (n, 1))


bell = make_ghz(2)
print(f"Bell pair value: {m_kl(bell, z_axes(2), 0, 1):.6f}  (bound 2, tight)")

plus = make_plus_product(6)
print(
    f"all-plus product, computational axes: total {m_total(plus, z_axes(6)):.6f}"
    f"  (bound C(6,2) = {math.comb(6, 2)}, tight)"
)
print()

for n in (3, 4, 5):
    summary = monogamy_stress(n, trials=2000, seed=7)
    print(
        f"n={n}: 2000 random states in random frames -> "
        f"min slacks pair {summary.min_pair_slack:.4f}, "
        f"two-term {summary.min_two_term_slack:.4f}, "
        f"triple {summary.min_triple_slack:.4f}, "
        f"total {summary.min_total_slack:.4f}; violations {summary.violations}"
    )
print()

w4 = monogamy_check(make_plus_product(4), z_axes(4))
print("all-plus product of 4 qubits in computational axes:")
print(f"  every pair value:   {sorted(round(v, 6) for v in w4.pair_values.values())}")
print(f"  worst two-term sum: {max(w4.two_term_sums.values()):.6f}  (bound 2, tight)")
print(f"  worst triple sum:   {max(w4.triple_sums.values()):.6f}  (bound 3, tight)")
