"""Equivariant linear maps for hierarchical and product permutation symmetries."""

from .basis import (
    SharingPattern,
    burnside_count,
    commutant_basis,
    materialize,
    orbit_pattern,
    pattern_of_structure,
)
from .perm import (
    PermGroup,
    cyclic_group,
    direct_product_group,
    enumerate_group,
    symmetric_group,
    trivial_group,
    wreath_product_group,
)
from .structure import (
    Cycle,
    Prod,
    Set,
    Structure,
    Trivial,
    Wreath,
    format_structure,
    group_of,
    param_count,
    parse_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "PermGroup",
    "Prod",
    "Set",
    "SharingPattern",
    "Structure",
    "Trivial",
    "Wreath",
    "burnside_count",
    "commutant_basis",
    "cyclic_group",
    "direct_product_group",
    "enumerate_group",
    "format_structure",
    "group_of",
    "materialize",
    "orbit_pattern",
    "param_count",
    "parse_structure",
    "pattern_of_structure",
    "symmetric_group",
    "trivial_group",
    "wreath_product_group",
]
