"""Registry of exact cross-verification checks.

Every check pits at least two independently computed sides of one identity
against each other: an operator normal ordering, a triangle recurrence, a
closed form, a generating-function recurrence, or a brute-force enumeration
of combinatorial objects.  Comparisons happen on canonical polynomial
renders, so a pass means byte-identical output and a fail carries the first
differing pair verbatim.

A check is a generator ``sides(n)`` that yields ``(note, left, right)`` for
one level, registered with its metadata by the ``check`` decorator.  Each
side is a polynomial.  The runner built at registration walks the levels in
order, hands every pair to ``_compare`` (the one place sides are rendered
and compared) and stops at the first witness.  A side condition that is not
a comparison raises ValueError or ArithmeticError, as does a side that
cannot be built; either becomes its level's witness, naming the exception
and how many of the level's pairs were built and equal before it, so one
broken check cannot abort a whole run.  Each check declares the
range of levels it covers and two feasibility caps: ``full_cap`` is the
largest level the check is designed to reach, and ``quick_cap`` keeps a
whole-registry run within interactive time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .combinat import stat_keys, stat_polynomial, tally
from .forests import census, grow_forests
from .grammar import Grammar
from .normal_form import normal_order_power
from .poly import ONE, ZERO, Polynomial, mono, variable
from .series import bessel_polynomial, verify_catalan_egf
from .triangles import (
    assemble,
    ctilde_xx,
    e_expand,
    family_row,
    gamma_expand,
    indexed_polynomial,
    rising_factorial,
    row_polynomial,
)

__all__ = [
    "Witness",
    "CheckResult",
    "CheckSpec",
    "REGISTRY",
    "check",
    "check_ids",
    "run_check",
    "run_all",
    "render_report",
    "results_to_json",
]

A, B, Q, U, W, X, Y, Z = (variable(s) for s in "abquwxyz")


@dataclass(frozen=True)
class Witness:
    """First counterexample of a failed comparison, stored as canonical renders."""

    n: int
    note: str
    left: str
    right: str

    def render(self) -> str:
        return f"n={self.n} [{self.note}] left: {self.left} | right: {self.right}"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registered check over an inclusive level range; it passed if no witness."""

    check_id: str
    n_range: Tuple[int, int]
    witness: Optional[Witness]

    @property
    def passed(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def render(self) -> str:
        lo, hi = self.n_range
        head = f"{self.status.upper():4s} {self.check_id} (n={lo}..{hi})"
        if self.witness is None:
            return head
        return f"{head}: {self.witness.render()}"


Runner = Callable[[int, int], Optional[Witness]]


@dataclass(frozen=True)
class CheckSpec:
    """A registered identity check with its level bounds."""

    check_id: str
    summary: str
    n_min: int
    full_cap: int
    quick_cap: int
    runner: Runner


Sides = Callable[[int], Iterator[Tuple[str, Polynomial, Polynomial]]]


def _compare(n: int, note: str, left: Polynomial, right: Polynomial) -> Optional[Witness]:
    """Render both sides once; a witness when the renders differ."""
    lr, rr = left.render(), right.render()
    return None if lr == rr else Witness(n, note, lr, rr)


def _level_runner(sides: Sides) -> Runner:
    def run(lo: int, hi: int) -> Optional[Witness]:
        for n in range(lo, hi + 1):
            equal = 0
            try:
                for note, left, right in sides(n):
                    witness = _compare(n, note, left, right)
                    if witness is not None:
                        return witness
                    equal += 1
            except (ValueError, ArithmeticError) as exc:
                built = "not built"
                if equal:
                    built = f"{equal} pair{'s' * (equal != 1)} built and equal"
                return Witness(n, f"a side raised {type(exc).__name__}", str(exc), built)
        return None

    return run


REGISTRY: Dict[str, CheckSpec] = {}


def check(check_id: str, summary: str, n_min: int, full_cap: int, quick_cap: int):
    """Register the decorated ``sides(n)`` generator as a level-by-level check.

    An id that is already taken raises ValueError and leaves the registry as it was.
    """

    def decorate(sides: Sides) -> Sides:
        if check_id in REGISTRY:
            raise ValueError(f"duplicate check id {check_id!r}")
        REGISTRY[check_id] = CheckSpec(check_id, summary, n_min, full_cap, quick_cap,
                                       _level_runner(sides))
        return sides

    return decorate


# -- shared side builders --------------------------------------------------


def _forest_poly(flavor: str, n: int, names: Tuple[str, ...]) -> Polynomial:
    """Forest tally: the first len(names) - 1 of the x, y, z leaf counts, then the tree count."""
    key = itemgetter(*range(len(names) - 1), 3)
    return tally(map(key, map(census, grow_forests(flavor, n))), names)


def _slice_one_up(family: str, n: int) -> Polynomial:
    """The k = 1 slice of a two-index family at level n + 1, as a polynomial in x^l."""
    row = row_polynomial(family, n + 1, {"x": (0, 0, 1, 0), "z": (0, 1, 0, 0)})
    return row.slices("z").get(1, ZERO)


# Exponent maps {symbol: form} named for the checks below, each form
# (c_n, c_index..., c_0) over (n, *index, 1): _X_K and _Z_K read one index,
# _Z_K2 the first of two.
_X_K = {"x": (0, 1, 0)}
_Z_K = {"z": (0, 1, 0)}
_Z_K2 = {"z": (0, 1, 0, 0)}
_U_L_Z_K = {"u": (0, 0, 1, 0), "z": (0, 1, 0, 0)}
_SIGNED_DESCENT_HOM = {"x": (0, 2, 1), "y": (2, -2, 1)}
_UVW = {"u": (0, 1, 0, 0, 0), "v": (0, 0, 1, 0, 0), "w": (0, 0, 0, 1, 0)}


def _forest_triple(grammar: str, multiplier: Polynomial, assembly: str, flavor: str) -> Sides:
    def sides(n: int):
        op = normal_order_power(multiplier, Grammar.preset(grammar), n).specialize(Z)
        tri = assemble(assembly, n)
        yield "normal order vs triangle assembly", op, tri
        yield ("triangle assembly vs forest enumeration", tri,
               _forest_poly(flavor, n, ("x", "y", "z")))

    return sides


# -- checks ----------------------------------------------------------------


@check("stirling-second-dual",
       "iterated derivative of the growing symbol equals the set-partition row", 0, 10, 8)
def _stirling_second_dual(n: int):
    yield ("iterated derivative vs set-partition triangle",
           Grammar.preset("stirling-dual").derive_power(A, n),
           A * row_polynomial("S2", n, {"b": (0, 1, 0)}))


@check("stirling-second-normal-order",
       "normal ordering over the constant rule matches set-partition counts", 0, 10, 8)
def _stirling_second_normal_order(n: int):
    yield ("normal order vs set-partition triangle",
           normal_order_power(X, Grammar.preset("stirling-second"), n).specialize(Z),
           row_polynomial("S2", n, {"x": (0, 1, 0), "z": (0, 1, 0)}))


@check("stirling-first-surrogate",
       "normal ordering over the self-reproducing rule matches cycle counts", 0, 10, 8)
def _stirling_first_surrogate(n: int):
    left = normal_order_power(A, Grammar.preset("exp-surrogate"), n).specialize(Z)
    row = row_polynomial("S1", n, _Z_K)
    yield "normal order vs cycle-count triangle", left, mono(1, a=n) * row
    yield "cycle-count triangle vs rising factorial", row, rising_factorial("z", n)


@check("eulerian-grammar-self-dual",
       "both symbols derive to the same descent polynomial, matched by enumeration", 1, 8, 6)
def _eulerian_grammar_self_dual(n: int):
    g = Grammar.preset("eulerian-ab")
    row = family_row("eulerian", n)
    da = g.derive_power(A, n)
    yield "derivative of first symbol vs second symbol", da, g.derive_power(B, n)
    yield ("iterated derivative vs descent triangle", da,
           indexed_polynomial(row, n, {"a": (0, 1, 0), "b": (1, -1, 1)}))
    yield ("iterated derivative vs descent enumeration", da,
           tally(((d + 1, n - d) for (d,) in stat_keys("permutations", n, ("des",))), ("a", "b")))
    nf = normal_order_power(X * Y, Grammar.preset("eulerian-full"), n)
    fx = nf.apply_to(X)
    yield "product-multiplier action on x vs on y", fx, nf.apply_to(Y)
    yield ("product-multiplier action vs descent triangle", fx,
           indexed_polynomial(row, n, {"x": (0, 1, 0), "y": (1, -1, 1)}))


check("binary-forest-triple",
      "normal order, triangle recurrence and forest enumeration agree", 1, 9, 6,
      )(_forest_triple("eulerian-xy", X, "A", "binary"))


@check("eulerian-specialization-chain",
       "triangle specializations reach set-partition, descent and cycle counts", 1, 8, 8)
def _eulerian_specialization_chain(n: int):
    a_row, e_row = family_row("A", n), family_row("eulerian", n)
    # The diagonal l = k is the zeroth slice of d^(l - k), never negative in A.
    diagonal = indexed_polynomial(a_row, n, {"d": (0, -1, 1, 0), "z": (0, 1, 0, 0)}).slices("d")
    yield ("triangle diagonal vs set-partition triangle",
           diagonal.get(0, ZERO), row_polynomial("S2", n, _Z_K))
    yield ("third-slot specialization vs descent triangle",
           indexed_polynomial(a_row, n, {"x": (0, 0, 1, 0), "y": (1, 0, -1, 0)}),
           indexed_polynomial(e_row, n, {"x": (0, 1, 0), "y": (1, -1, 0)}))
    yield ("first-two-slot specialization vs rising factorial",
           indexed_polynomial(a_row, n, _Z_K2), rising_factorial("z", n))
    ex = assemble("eulerian-x", n)
    yield "descent recurrence polynomial vs triangle row", ex, indexed_polynomial(e_row, n, _X_K)
    yield ("descent polynomial vs reversed-row symmetry", ex,
           indexed_polynomial(e_row, n, {"x": (1, -1, 1)}))
    yield "single-slice row one level up vs descent polynomial", _slice_one_up("A", n), ex


@check("pq-eulerian-cycle-stats",
       "weighted normal order tracks excedances, cycle descents and cycles", 1, 8, 6)
def _pq_eulerian_cycle_stats(n: int):
    spec = normal_order_power(X, Grammar.preset("pq-eulerian"), n).specialize(Z)
    yield "normal order vs weighted triangle assembly", spec, assemble("Ap", n)
    keys = stat_keys("permutations", n, ("exc", "cdes", "cyc"))
    yield ("normal order vs excedance-cycle enumeration", spec,
           tally(((n - exc, exc, cdes, cyc) for exc, cdes, cyc in keys), ("x", "y", "p", "z")))
    yield "weight-one reduction vs plain triangle assembly", spec.subs({"p": ONE}), assemble("A", n)


check("full-binary-forest-triple",
      "normal order, triangle recurrence and two-child forest enumeration agree", 1, 6, 5,
      )(_forest_triple("eulerian-full", X * Y, "a", "full-binary"))


@check("gamma-basis-expansion",
       "paired-symbol expansion of the assembly matches its own recurrence", 1, 8, 6)
def _gamma_basis_expansion(n: int):
    row = family_row("gamma", n)
    yield ("basis expansion of assembly vs paired-symbol triangle",
           indexed_polynomial(gamma_expand(assemble("a", n)), n, _U_L_Z_K),
           indexed_polynomial(row, n, _U_L_Z_K))
    yield ("surrogate normal order vs paired-symbol triangle",
           normal_order_power(U, Grammar.preset("pair-symmetric"), n).specialize(Z),
           indexed_polynomial(row, n, {"u": (0, 0, 1, 0), "v": (1, 1, -2, 0), "z": (0, 1, 0, 0)}))


@check("lah-closed-form",
       "list counts match the binomial-factorial closed form and row sums", 1, 10, 8)
def _lah_closed_form(n: int):
    closed = Polynomial(
        ({"z": k}, math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k))
        for k in range(1, n + 1)
    )
    yield ("list-count triangle vs binomial-factorial closed form",
           row_polynomial("lah", n, _Z_K), closed)
    yield "ascent-triangle row sums vs closed form", row_polynomial("a", n, _Z_K2), closed


@check("list-partition-ascents",
       "ascent statistics over list partitions reproduce the triangle", 1, 6, 5)
def _list_partition_ascents(n: int):
    enum = stat_polynomial("list-partitions", n, {"asc": "x", "blocks": "z"})
    yield ("list-partition ascent enumeration vs triangle", enum,
           row_polynomial("a", n, {"x": (0, 0, 1, 0), "z": (0, 1, 0, 0)}))
    yield ("list-partition block counts vs list-count triangle", enum.subs({"x": ONE}),
           row_polynomial("lah", n, _Z_K))


@check("gamma-valley-enumeration",
       "valley counts without double descents reproduce the paired triangle", 1, 6, 5)
def _gamma_valley_enumeration(n: int):
    yield ("valley enumeration without double descents vs triangle",
           tally(((blocks + val, blocks)
                  for blocks, val, dd in stat_keys("list-partitions", n, ("blocks", "val", "dd"))
                  if dd == 0), ("u", "z")),
           row_polynomial("gamma", n, _U_L_Z_K))


@check("second-order-row-polynomial",
       "applying the operator power to its multiplier homogenizes the plateau row", 1, 10, 8)
def _second_order_row_polynomial(n: int):
    yield ("operator applied to its multiplier vs homogenized row",
           normal_order_power(X, Grammar.preset("second-order"), n).apply_to(X),
           row_polynomial("eulerian2", n, {"x": (0, 1, 0), "y": (2, -1, 1)}))


check("ternary-forest-triple",
      "normal order, triangle recurrence and three-child forest enumeration agree", 1, 7, 5,
      )(_forest_triple("second-order", X, "Ct", "ternary"))


@check("second-order-row-link",
       "the single-slice row one level up equals the plateau triangle row", 1, 9, 8)
def _second_order_row_link(n: int):
    yield ("single-slice row one level up vs plateau triangle",
           _slice_one_up("C", n), assemble("second-order-x", n))


check("catalan-egf",
      "the diagonal series equals the exponential of a Catalan argument", 0, 10, 6,
      )(verify_catalan_egf)


@check("ctilde-diagonal-recurrence",
       "the assembled diagonal satisfies its own first-order recurrence", 0, 10, 8)
def _ctilde_diagonal(n: int):
    yield ("triangle assembly on the diagonal vs diagonal recurrence",
           assemble("Ct", n).subs({"y": X}), ctilde_xx(n))


@check("bessel-closed-form",
       "the diagonal matches the factorial closed form for weighted pairings", 1, 10, 8)
def _bessel_closed_form(n: int):
    left, row = ctilde_xx(n), family_row("bessel", n - 1)
    yield ("diagonal recurrence vs factorial closed form", left,
           indexed_polynomial(row, n - 1, {"x": (1, 1, 1), "z": (1, -1, 1)}))
    # bessel_polynomial(n), read off the same row.
    yield ("diagonal at unit first slot vs weighted-pairing polynomial",
           left.subs({"x": ONE}), indexed_polynomial(row, n - 1, {"z": (1, -1, 1)}))


@check("trivariate-second-order",
       "four constructions of the symmetric trivariate polynomial coincide", 1, 6, 5)
def _trivariate_second_order(n: int):
    dum = assemble("second-order-xyz", n)
    yield ("product-rule recurrence vs iterated derivative", dum,
           Grammar.preset("trivariate-second-order").derive_power(X, n))
    yield ("recurrence vs ascent-descent-plateau enumeration", dum,
           stat_polynomial("stirling-permutations", n, {"asc": "x", "des": "y", "plat": "z"}))
    trees = map(census, grow_forests("full-ternary", n))
    yield ("recurrence vs single-tree leaf enumeration", dum,
           tally(((x, y, z) for x, y, z, k in trees if k == 1), ("x", "y", "z")))
    yield "symmetry under swapping first two slots", dum, dum.subs({"x": Y, "y": X})
    yield "symmetry under swapping outer slots", dum, dum.subs({"x": Z, "z": X})


@check("full-ternary-forest",
       "normal order over three constant rules matches forest leaf tallies", 1, 6, 4)
def _full_ternary_forest(n: int):
    yield ("normal order vs forest enumeration",
           normal_order_power(X * Y * Z, Grammar.preset("full-ternary"), n).specialize(Q),
           _forest_poly("full-ternary", n, ("x", "y", "z", "q")))


@check("stirling-list-distribution",
       "normal order matches statistics over block partitions into repeated words", 1, 5, 4)
def _stirling_list_distribution(n: int):
    op = normal_order_power(X * Y * Z, Grammar.preset("full-ternary"), n).specialize(Q)
    yield ("normal order vs block-list enumeration", op,
           stat_polynomial("stirling-lists", n,
                           {"asc": "x", "plat": "y", "des": "z", "blocks": "q"}))
    yield ("single-block slice vs ascent-descent-plateau polynomial",
           op.slices("q").get(1, ZERO),
           stat_polynomial("stirling-permutations", n, {"asc": "x", "plat": "y", "des": "z"}))


@check("beta-e-expansion",
       "each operator slice expands positively in elementary symmetric functions", 1, 6, 4)
def _beta_e_expansion(n: int):
    nf = normal_order_power(X * Y * Z, Grammar.preset("full-ternary"), n)
    tri = assemble("beta", n).slices("q")
    for k in range(1, n + 1):
        yield (f"elementary-symmetric expansion of slice {k} vs triangle",
               indexed_polynomial(e_expand(nf.coefficient(k)), n, _UVW),
               tri.get(k, ZERO))


@check("beta-positivity",
       "the surrogate normal order reproduces the nonnegative triangle", 1, 8, 6)
def _beta_positivity(n: int):
    tri = assemble("beta", n)
    yield ("surrogate normal order vs triangle assembly",
           normal_order_power(W, Grammar.preset("elementary-symmetric"), n).specialize(Q), tri)
    # Beta's map is injective: entry (k, j, l) is the term with q^k, v^j and w^(k+l).
    for m, c in tri.terms():
        if not isinstance(c, int) or c < 0:
            e = dict(m)
            idx = (e.get("q", 0), e.get("v", 0), e.get("w", 0) - e.get("q", 0))
            raise ValueError(f"negative or non-integer triangle entry {idx}: {c}")


@check("type-b-eulerian-numbers",
       "the signed-descent row recurrence matches the derivative recurrence", 0, 9, 7)
def _type_b_eulerian_numbers(n: int):
    yield ("scatter recurrence row vs derivative recurrence",
           row_polynomial("eulerianB", n, _X_K), assemble("type-b-x", n))


@check("signed-permutation-descents",
       "signed-word descent enumeration reproduces the recurrence polynomial", 0, 7, 5)
def _signed_permutation_descents(n: int):
    yield ("signed-word descent enumeration vs recurrence",
           stat_polynomial("signed-permutations", n, {"des_b": "x"}), assemble("type-b-x", n))


@check("swap-grammar-expansion",
       "the swap-rule operator expands into the even-odd split triangle", 1, 9, 7)
def _swap_grammar_expansion(n: int):
    nf = normal_order_power(X * Y, Grammar.preset("swap"), n)
    yield "normal order vs triangle assembly", nf.specialize(Z), assemble("B", n)
    yield ("operator applied to its multiplier vs homogenized row",
           nf.apply_to(X * Y), row_polynomial("eulerianB", n, _SIGNED_DESCENT_HOM))


@check("half-square-grammar-expansion",
       "the square-split operator expands into its own triangle and row form", 1, 9, 7)
def _half_square_grammar_expansion(n: int):
    nf = normal_order_power(X, Grammar.preset("type-b-split"), n)
    yield "normal order vs triangle assembly", nf.specialize(Z), assemble("E", n)
    yield ("operator applied to a product vs homogenized row",
           nf.apply_to(X * Y), row_polynomial("eulerianB", n, _SIGNED_DESCENT_HOM))


@check("type-b-normal-order-rows",
       "the single-slice row one level up equals the signed-descent row", 0, 9, 7)
def _type_b_normal_order_rows(n: int):
    yield ("single-slice row one level up vs signed-descent row",
           _slice_one_up("B", n), row_polynomial("eulerianB", n, _X_K))


@check("flag-ascent-plateau",
       "flagged plateau-start counts match the recurrence and the triangle", 0, 7, 5)
def _flag_ascent_plateau(n: int):
    poly = assemble("flag-ascent-plateau-x", n)
    yield ("derivative recurrence vs flagged-plateau enumeration", poly,
           stat_polynomial("stirling-permutations", n, {"fap": "x"}))
    yield ("triangle assembly at unit slots vs recurrence",
           assemble("B", n).subs({"y": ONE, "z": ONE}), poly)


@check("ascent-plateau-rows",
       "plateau-start counts match the single-slice row one level up", 0, 7, 5)
def _ascent_plateau_rows(n: int):
    yield ("single-slice row one level up vs plateau-start enumeration",
           _slice_one_up("E", n), stat_polynomial("stirling-permutations", n, {"ap": "x"}))


@check("bessel-diagonal",
       "unit-slot assembly equals the weighted-pairing polynomial", 1, 10, 8)
def _bessel_diagonal(n: int):
    yield ("triangle assembly at unit slots vs weighted-pairing polynomial",
           assemble("E", n).subs({"x": ONE, "y": ONE}), bessel_polynomial(n))


@check("updown-runs",
       "alternating-run enumeration matches the derivative recurrence", 0, 8, 6)
def _updown_runs(n: int):
    yield ("derivative recurrence vs alternating-run enumeration",
           assemble("updown-run-x", n), stat_polynomial("permutations", n, {"udrun": "x"}))


@check("updown-normal-order",
       "the swap-rule single-symbol operator reaches cycle counts and run polynomials", 0, 10, 8)
def _updown_normal_order(n: int):
    tri = assemble("W", n)
    yield ("normal order vs triangle assembly",
           normal_order_power(X, Grammar.preset("swap"), n).specialize(Z), tri)
    yield ("assembly at unit first slots vs rising factorial",
           tri.subs({"x": ONE, "y": ONE}), rising_factorial("z", n))
    runs = assemble("updown-run-x", n)
    # Homogenize to degree n: each term gains y^(n - its degree).
    hom = Polynomial(((*m, ("y", n - sum(e for _, e in m))), c) for m, c in runs.terms())
    yield ("assembly at unit third slot vs homogenized alternating-run polynomial",
           tri.subs({"z": ONE}), hom)


def check_ids() -> List[str]:
    """All registered check ids, sorted."""
    return sorted(REGISTRY)


def _execute(spec: CheckSpec, n_max: int) -> CheckResult:
    return CheckResult(spec.check_id, (spec.n_min, n_max), spec.runner(spec.n_min, n_max))


def run_check(check_id: str, n_max: Optional[int] = None) -> CheckResult:
    """Run one registered check through level ``n_max`` (default: its full cap)."""
    spec = REGISTRY.get(check_id)
    if spec is None:
        known = ", ".join(check_ids())
        raise KeyError(f"unknown check {check_id!r}; known: {known}")
    if n_max is None:
        n_max = spec.full_cap
    if n_max > spec.full_cap:
        raise ValueError(f"{check_id} is capped at n={spec.full_cap}, requested {n_max}")
    if n_max < spec.n_min:
        raise ValueError(f"{check_id} starts at n={spec.n_min}, requested {n_max}")
    return _execute(spec, n_max)


def run_all(profile: str = "full") -> List[CheckResult]:
    """Run every registered check under the named profile, sorted by id."""
    if profile not in ("quick", "full"):
        raise ValueError(f"profile must be quick or full, got {profile!r}")
    results = []
    for check_id in check_ids():
        spec = REGISTRY[check_id]
        cap = spec.full_cap if profile == "full" else spec.quick_cap
        results.append(_execute(spec, cap))
    return results


def render_report(results: List[CheckResult]) -> str:
    lines = [result.render() for result in results]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)


def results_to_json(results: List[CheckResult]) -> List[dict]:
    """Each result's fields, with its witness as a dict (or None), n_range as a list, and status."""
    return [{**asdict(r), "n_range": list(r.n_range), "status": r.status} for r in results]
