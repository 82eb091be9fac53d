"""Exact arithmetic for sums, products, and elementary symmetric functions
of element orders of finite abelian groups, with empirical verification
sweeps against independent brute-force oracles."""

from .errors import ConsistencyError, DomainError, NotationError, SizeLimitError
from .groups import (
    AbelianGroup,
    OrderSpectrum,
    brute_force_spectrum,
    canonicalize,
    enumerate_abelian_groups,
    order_spectrum,
)
from .notation import (
    format_group,
    group_to_json_dict,
    parse_group,
    spectrum_to_json_dict,
)
from .partitions import Partition, iter_partitions, partitions_of
from .psi import (
    FactoredInteger,
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_exponent,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    psi_sum,
)
from .symmetric import OrderPolynomial, order_polynomial, psi_all, psi_k
from .verify import (
    CollisionReport,
    ConjectureFReport,
    ConjectureFSweep,
    InjectivityReport,
    InjectivitySweep,
    check_conjecture_f,
    check_theorem_c,
    find_cross_order_collisions,
    sweep_conjecture_f,
    sweep_injectivity,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CollisionReport",
    "ConjectureFReport",
    "ConjectureFSweep",
    "ConsistencyError",
    "DomainError",
    "FactoredInteger",
    "InjectivityReport",
    "InjectivitySweep",
    "NotationError",
    "OrderPolynomial",
    "OrderSpectrum",
    "Partition",
    "SizeLimitError",
    "brute_force_spectrum",
    "canonicalize",
    "check_conjecture_f",
    "check_theorem_c",
    "enumerate_abelian_groups",
    "find_cross_order_collisions",
    "format_group",
    "group_to_json_dict",
    "iter_partitions",
    "order_polynomial",
    "order_spectrum",
    "parse_group",
    "partitions_of",
    "psi_all",
    "psi_k",
    "psi_prime",
    "psi_prime_cyclic_closed_form",
    "psi_prime_exponent",
    "psi_prime_from_spectrum",
    "psi_prime_rank2_closed_form",
    "psi_sum",
    "spectrum_to_json_dict",
    "sweep_conjecture_f",
    "sweep_injectivity",
]
