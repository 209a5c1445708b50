"""BCH codes of length q^m + 1 (cyclic) and (q^m + 1)/2 (negacyclic).

Closed-form coset-leader values, dual-gap formulas, dual-distance
bounds, and dually-BCH predicates for these two families, together with
brute-force oracles that recompute everything independently.
"""

from .closed_forms import (
    BoundReport,
    FormulaCase,
    GapPair,
    delta_leaders_formula,
    dual_bound,
    dual_bound_cyclic,
    dual_bound_negacyclic,
    dually_bch,
    dually_bch_even_like,
    dually_bch_negacyclic,
    i_delta_cyclic,
    neg_gaps,
    phi_leaders_formula,
)
from .code_core import (
    CodeInstance,
    CodeSpec,
    dimension,
    dual_code,
    generator_matrix,
    is_lcd,
    realize,
    run_bound,
)
from .cyclotomic import (
    CYCLIC,
    FAMILIES,
    NEGACYCLIC,
    coset,
    coset_leaders,
    defining_set,
    dual_defining_set,
    family_parameters,
    kth_largest_leader,
    leader_map,
)
from .errors import BCHLabError
from .examples import all_example_ids, verify_example
from .finite_field import FieldCtx, get_field
from .oracle import (
    DistanceResult,
    check_bound_report,
    dually_sweep,
    gap_profile,
    min_distance,
    min_distance_via_checks,
)

__version__ = "0.1.0"
