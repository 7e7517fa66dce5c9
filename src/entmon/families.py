"""Closed-form detection values for named state families.

These are the analytic oracles the numerical pipeline is checked against.
The Dicke closed form is stated for odd qubit counts, where no qubit's Bloch
vector can vanish; for even counts the value is still returned and callers
can flag it as outside the stated domain (numerically the canonical policy
reproduces it there as well, which the sweep reports as data).
"""
from __future__ import annotations

from dataclasses import dataclass

from .frames import CANONICAL, ZeroPolicy
from .statevec import PureState, make_dicke, make_ghz, make_plus_product

FAMILY_NAMES = ("dicke", "ghz", "w", "plus-product")


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: dicke needs the excitation count, others only n."""

    family: str
    n: int
    e: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if self.family == "dicke":
            if self.e is None:
                raise ValueError("dicke family requires an excitation count")
            if not 0 <= self.e <= self.n:
                raise ValueError(f"excitation count must be in 0..{self.n}, got {self.e}")
        elif self.e is not None:
            raise ValueError(f"family {self.family!r} takes no excitation count")
        if self.family == "ghz" and self.n < 2:
            raise ValueError("ghz family needs at least 2 qubits")
        if self.family == "w" and self.n < 2:
            raise ValueError("w family needs at least 2 qubits")

    def label(self) -> str:
        if self.family == "dicke":
            return f"dicke(n={self.n}, e={self.e})"
        return f"{self.family}(n={self.n})"


def state_for(spec: FamilySpec) -> PureState:
    """Construct the state a FamilySpec names."""
    if spec.family == "dicke":
        return make_dicke(spec.n, spec.e)
    if spec.family == "w":
        return make_dicke(spec.n, 1)
    if spec.family == "ghz":
        return make_ghz(spec.n)
    return make_plus_product(spec.n)


def dicke_m_pb(n: int, e: int) -> float:
    """Closed-form detection value 4 e^2 (n-e)^2 / (n (n-1)) for the n-qubit
    state with e excitations. Stated for odd n; see dicke_formula_stated_domain."""
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if not 0 <= e <= n:
        raise ValueError(f"excitation count must be in 0..{n}, got {e}")
    return 4.0 * e**2 * (n - e) ** 2 / (n * (n - 1))


def dicke_formula_stated_domain(n: int) -> bool:
    """True when the closed form is inside its stated domain (odd n)."""
    return n % 2 == 1


def dicke_max_m_pb(n: int) -> tuple[int, float]:
    """Excitation count maximizing the closed form for odd n >= 3, and the
    maximum value (n+1)^2 (n-1) / (4n); cross-checked against exhaustive
    evaluation over all excitation counts."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"maximizer requires odd n >= 3, got {n}")
    e_star = (n - 1) // 2
    value = (n + 1) ** 2 * (n - 1) / (4.0 * n)
    brute = max(dicke_m_pb(n, e) for e in range(n + 1))
    if not abs(value - brute) <= 1e-9 * max(1.0, value):
        raise RuntimeError(
            f"closed-form maximum {value!r} disagrees with exhaustive {brute!r} for n={n}"
        )
    return e_star, value


def dicke_claimed_depth(n: int) -> int:
    """Claimed minimum number of mutually entangled parties for the balanced
    state (e = (n-1)/2) of odd n: (n+3)/2."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"depth claim is stated for odd n >= 3, got {n}")
    return (n + 3) // 2


def predicted_m_pb(spec: FamilySpec, policy: ZeroPolicy | None = None) -> float | None:
    """Closed-form prediction for a family member, or None when no analytic
    value is offered (e.g. ghz under a maximize policy)."""
    policy = policy or ZeroPolicy.canonical()
    if spec.family == "dicke":
        return dicke_m_pb(spec.n, spec.e)
    if spec.family == "w":
        return dicke_m_pb(spec.n, 1)
    if spec.family == "plus-product":
        return 0.0
    # ghz: all Bloch vectors vanish, so the value is policy-dependent
    if policy.mode != CANONICAL:
        return None
    # two qubits form a Bell pair whose in-plane block entries are +-1
    return 2.0 if spec.n == 2 else 0.0
