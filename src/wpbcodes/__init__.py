"""Weighted poset block metrics on GF(q)^n.

Exact, enumeration-based computation of code parameters (minimum distance,
covering and packing radius, coset leaders, perfectness) under the weighted
poset block metric, the five standard code constructions with their poset
and labeling combinators, and a seeded verification suite for the metric's
structural identities and bounds.
"""

from .blockspace import DEFAULT_MAX_SPACE, BlockSpace, Labeling, enumeration_cap
from .codes import Code, CosetTable
from .constructions import (
    ConstructionResult,
    direct_sum_code,
    direct_sum_labeling,
    extended_code,
    plotkin_code,
    punctured_code,
    sum_map_injective,
    tensor_code,
    tensor_labeling,
    tensor_vector,
)
from .checks import CheckReport, verify_suite
from .field import Field, make_field
from .instances import (
    Instance,
    derive_seed,
    load_instance,
    loads_instance,
    random_linear_code,
    save_instance,
)
from .poset import (
    Poset,
    antichain,
    cartesian_product,
    chain,
    disjoint_union,
    extend,
    from_cover_relations,
    lex_product,
    linear_sum,
    puncture,
)
from .weights import WeightFn, custom_weight, hamming_weight, lee_weight

__all__ = [
    "BlockSpace",
    "CheckReport",
    "Code",
    "ConstructionResult",
    "CosetTable",
    "DEFAULT_MAX_SPACE",
    "Field",
    "Instance",
    "Labeling",
    "Poset",
    "WeightFn",
    "antichain",
    "cartesian_product",
    "chain",
    "custom_weight",
    "derive_seed",
    "direct_sum_code",
    "direct_sum_labeling",
    "disjoint_union",
    "enumeration_cap",
    "extend",
    "extended_code",
    "from_cover_relations",
    "hamming_weight",
    "lee_weight",
    "lex_product",
    "linear_sum",
    "load_instance",
    "loads_instance",
    "make_field",
    "plotkin_code",
    "punctured_code",
    "puncture",
    "random_linear_code",
    "save_instance",
    "sum_map_injective",
    "tensor_code",
    "tensor_labeling",
    "tensor_vector",
    "verify_suite",
]

__version__ = "0.1.0"
