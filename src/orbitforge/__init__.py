"""orbitforge: automorphism orbit counts for small finite groups, exact
certificates for the mixed-order groups Q^n x| C_p, and executable cocycle
splitting over divisible torsion-free modules."""

from . import (
    arith,
    auto_orbits,
    catalog,
    classify,
    cocycle_split,
    cyclotomic,
    exact_linear,
    group_core,
    mixed_group,
)

__version__ = "0.1.0"

__all__ = [
    "arith",
    "auto_orbits",
    "catalog",
    "classify",
    "cocycle_split",
    "cyclotomic",
    "exact_linear",
    "group_core",
    "mixed_group",
    "__version__",
]
