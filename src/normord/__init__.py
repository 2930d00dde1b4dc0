"""Normal ordering of grammar-induced derivative operators.

The package turns a substitution grammar (each symbol maps to a
polynomial) into a formal derivative, normal-orders powers of
(multiplier * derivative) into coefficient-by-derivative-power form,
reproduces every coefficient triangle from its recurrence, enumerates
the matching combinatorial objects by brute force, and cross-checks all
of these constructions against each other exactly.
"""

from .checks import (
    CheckResult,
    CheckSpec,
    Witness,
    check_ids,
    render_report,
    results_to_json,
    run_all,
    run_check,
)
from .combinat import (
    list_partitions,
    permutations,
    signed_permutations,
    stat_polynomial,
    stirling_lists,
    stirling_permutations,
)
from .forests import grow_forests
from .grammar import PRESETS, Grammar
from .normal_form import NormalForm, normal_order_power
from .poly import (
    ParseError,
    PoleError,
    Polynomial,
    mono,
    parse,
    variable,
)
from .series import bessel_polynomial, catalan_number
from .triangles import (
    FAMILY_NAMES,
    assemble,
    build_triangle,
    ctilde_xx,
    e_expand,
    family_row,
    family_rows,
    family_spec,
    gamma_expand,
    rising_factorial,
)

__version__ = "1.0.0"

__all__ = [
    "CheckResult",
    "CheckSpec",
    "FAMILY_NAMES",
    "Grammar",
    "NormalForm",
    "PRESETS",
    "ParseError",
    "PoleError",
    "Polynomial",
    "Witness",
    "assemble",
    "bessel_polynomial",
    "build_triangle",
    "catalan_number",
    "check_ids",
    "ctilde_xx",
    "e_expand",
    "family_row",
    "family_rows",
    "family_spec",
    "gamma_expand",
    "grow_forests",
    "list_partitions",
    "mono",
    "normal_order_power",
    "parse",
    "permutations",
    "render_report",
    "results_to_json",
    "rising_factorial",
    "run_all",
    "run_check",
    "signed_permutations",
    "stat_polynomial",
    "stirling_lists",
    "stirling_permutations",
    "variable",
]
