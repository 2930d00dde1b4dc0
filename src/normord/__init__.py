"""Normal ordering of grammar-induced derivative operators.

The package turns a substitution grammar (each symbol maps to a
polynomial) into a formal derivative, normal-orders powers of
(multiplier * derivative) into coefficient-by-derivative-power form,
reproduces every coefficient triangle from its recurrence, enumerates
the matching combinatorial objects by brute force, and cross-checks all
of these constructions against each other exactly.

The package imports its modules lazily (PEP 562): each public name below
is looked up in its module on first access and then kept in the package
namespace, so ``import normord`` loads no module, and
``from normord.normal_form import normal_order_power`` loads ``poly``,
``grammar`` and ``normal_form`` alone.
"""

from importlib import import_module

__version__ = "1.0.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "CheckResult": "checks",
    "CheckSpec": "checks",
    "Witness": "checks",
    "check_ids": "checks",
    "render_report": "checks",
    "results_to_json": "checks",
    "run_all": "checks",
    "run_check": "checks",
    "list_partitions": "combinat",
    "permutations": "combinat",
    "signed_permutations": "combinat",
    "stat_polynomial": "combinat",
    "stirling_lists": "combinat",
    "stirling_permutations": "combinat",
    "grow_forests": "forests",
    "PRESETS": "grammar",
    "Grammar": "grammar",
    "NormalForm": "normal_form",
    "normal_order_power": "normal_form",
    "ParseError": "poly",
    "PoleError": "poly",
    "Polynomial": "poly",
    "mono": "poly",
    "parse": "poly",
    "variable": "poly",
    "bessel_polynomial": "series",
    "catalan_number": "series",
    "e_expand": "symmetric",
    "gamma_expand": "symmetric",
    "FAMILY_NAMES": "triangles",
    "assemble": "triangles",
    "build_triangle": "triangles",
    "ctilde_xx": "triangles",
    "family_columns": "triangles",
    "family_row": "triangles",
    "family_rows": "triangles",
    "family_spec": "triangles",
    "rising_factorial": "triangles",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
