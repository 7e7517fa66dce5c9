"""entmon: multipartite entanglement detection for pure qubit states from
two-qubit correlations and monogamy bounds.

The public names are resolved on first use (PEP 562), so ``import entmon``
loads no submodule and no NumPy. Every access goes to the defining module,
and nothing is cached here: a name patched in its module is seen through
``entmon.<name>`` too.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        [
            "EPS_DET",
            "PartitionMaxRecord",
            "depth_threshold",
            "enumerate_partitions",
            "genuine_threshold",
            "min_entangled_block",
            "partition_bound",
            "partition_table",
            "s_threshold",
            "verify_partition_term_max",
        ],
        "partitions",
    ),
    **dict.fromkeys(
        [
            "DetectionReport",
            "MonogamyReport",
            "StressSummary",
            "exclusion_report",
            "factorization_residual",
            "m_kl",
            "m_pb",
            "m_total",
            "monogamy_check",
            "monogamy_stress",
        ],
        "detector",
    ),
    **dict.fromkeys(
        [
            "FamilySpec",
            "dicke_claimed_depth",
            "dicke_formula_stated_domain",
            "dicke_m_pb",
            "dicke_max_m_pb",
            "predicted_m_pb",
            "state_for",
        ],
        "families",
    ),
    **dict.fromkeys(["EPS_BLOCH", "ZeroPolicy", "preferred_axes", "random_rotation"], "frames"),
    **dict.fromkeys(
        [
            "PureState",
            "apply_local_unitary",
            "make_basis_state",
            "make_dicke",
            "make_ghz",
            "make_plus_product",
            "make_random_haar",
            "max_qubits",
            "state_from_json_bytes",
            "state_from_json_dict",
            "state_to_json_dict",
            "tensor_product",
        ],
        "statevec",
    ),
    **dict.fromkeys(
        [
            "PAULI",
            "bloch_vector",
            "correlation_component",
            "pair_block",
            "reduced_density_pair",
            "reduced_density_single",
        ],
        "tensor",
    ),
}

_SUBMODULES = ("cli", "detector", "families", "frames", "partitions", "statevec", "tensor")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
