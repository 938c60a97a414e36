"""Closed-form double Roman domination values with explicit witnesses.

Every operation returns the exact invariant value for its family together
with (where a construction is known) a labeling achieving that value on the
canonically-indexed graph. Witnesses are re-validated before being returned,
so a FormulaResult never carries an invalid or wrong-weight labeling. The
pendant coronas G∘K1 and the double corona (G∘K1)∘K1 share one construction:
3 on a dominating set D of the base, 2 on the pendant of every other base
vertex.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DrdError, ExcludedCaseError, InvalidSpecError, WrongFormulaError
from .graph import Graph, complete, complete_bipartite, corona, cycle, grid2, path, trivial
from .labeling import DRLabeling, is_valid_drdf


class FormulaResult(NamedTuple):
    family: str
    params: tuple[int, ...]
    value: int
    witness: DRLabeling | None
    theorem: str  # which catalog rule produced the value
    graph: Graph | None = None


def _finish(
    family: str,
    params: tuple[int, ...],
    value: int,
    witness_values: list[int] | None,
    theorem: str,
    g: Graph | None,
) -> FormulaResult:
    witness = None
    if witness_values is not None:
        assert g is not None
        witness = DRLabeling(tuple(witness_values))
        if witness.weight != value or not is_valid_drdf(g, witness):
            raise DrdError(f"constructed witness for {family}{params} is broken")
    return FormulaResult(family, params, value, witness, theorem, g)


def gamma_dr_cycle(n: int) -> FormulaResult:
    """n when n mod 6 is 0, 2, 3 or 4; otherwise n + 1. No witness is
    emitted: the value is a quoted closed form without a construction."""
    if n < 3:
        raise InvalidSpecError(f"cycles need n >= 3, got {n}")
    value = n if n % 6 in (0, 2, 3, 4) else n + 1
    return _finish("cycle", (n,), value, None, "cycle_closed_form", cycle(n))


def gamma_dr_grid2(n: int) -> FormulaResult:
    """The 2-row grid: floor((3n+4)/2), with the periodic witness.

    3s go at row 1 column 3+4k and row 2 column 1+4k (columns <= n when n
    is odd, strictly < n when even); an even n also takes a single 2 in the
    last column, on row 1 when n = 2 (mod 4) and row 2 when n = 0 (mod 4).
    """
    if n < 1:
        raise InvalidSpecError(f"grid2 needs n >= 1, got {n}")
    if n == 2:
        raise ExcludedCaseError(
            "the 2x2 grid is the 4-cycle; its value comes from gamma_dr_cycle(4)"
        )
    g = grid2(n)
    value = (3 * n + 4) // 2
    vals = [0] * (2 * n)
    limit = n if n % 2 == 1 else n - 1
    for j in range(3, limit + 1, 4):
        vals[j - 1] = 3  # row 1 holds indices 0..n-1
    for j in range(1, limit + 1, 4):
        vals[n + j - 1] = 3
    if n % 2 == 0:
        if n % 4 == 2:
            vals[n - 1] = 2
        else:
            vals[2 * n - 1] = 2
    return _finish("grid2", (n,), value, vals, "grid2_closed_form", g)


def gamma_dr_corona_nontrivial(g: Graph, h: Graph) -> FormulaResult:
    """corona(g, h) for any h on at least two vertices: exactly 3|V(g)|,
    witnessed by 3 on every base vertex and 0 everywhere else."""
    if h.n == 1:
        raise WrongFormulaError(
            "h is a single vertex; use gamma_dr_corona_k1 or the realization builder"
        )
    prod = corona(g, h)
    vals = [3] * g.n + [0] * (g.n * h.n)
    return _finish(
        "corona_nontrivial", (g.n, h.n), 3 * g.n, vals, "corona_nontrivial_3n", prod
    )


def _base_three_positions(n: int) -> set[int]:
    """0-indexed positions of 3s in a minimum 2-free DRDF of the n-path,
    reusable verbatim on the n-cycle: 1, 4, 7, ... plus a final 3 at n-1
    when n = 3k+1 and at n-2 when n = 3k+2."""
    if n % 3 == 2:
        pos = set(range(1, n - 2, 3))
        pos.add(n - 2)
    else:
        pos = set(range(1, n, 3))
        if n % 3 == 1:
            pos.add(n - 1)
    return pos


def _pendant_corona(family: str, params: tuple[int, ...], base: Graph, dominators: set[int],
                    value: int, theorem: str) -> FormulaResult:
    """corona(base, K1) labeled 3 on each vertex of ``dominators``, a
    dominating set D of ``base``, and 2 on the pendant of every other base
    vertex: weight 2n + |D|, checked against the stated ``value``."""
    n = base.n
    vals = [3 if i in dominators else 0 for i in range(n)]
    vals += [0 if i in dominators else 2 for i in range(n)]  # pendant of base i is n + i
    return _finish(family, params, value, vals, theorem, corona(base, trivial(1)))


def gamma_dr_corona_k1(family: str, params: tuple[int, ...]) -> FormulaResult:
    """Pendant coronas of the four resolved families.

    path/cycle: 7n/3 rounded by residue; complete: 2n+1; complete
    bipartite: 2(p+q)+1 when either side is a single vertex, else
    2(p+q+1). Each witness is the pendant-corona labeling on the D below.
    """
    params = tuple(params)
    if family in ("path", "cycle") and len(params) == 1:
        (n,) = params
        base = path(n) if family == "path" else cycle(n)
        value = (7 * n + (0, 2, 1)[n % 3]) // 3
        dominators = _base_three_positions(n)
    elif family == "complete" and len(params) == 1:
        (n,) = params
        base = complete(n)
        value, dominators = 2 * n + 1, {0}
    elif family == "complete_bipartite" and len(params) == 2:
        p, q = params
        base = complete_bipartite(p, q)
        if p == 1 or q == 1:
            value = 2 * (p + q) + 1
            dominators = {0 if p == 1 else p}  # the lone vertex of the unit side
        else:
            value = 2 * (p + q + 1)
            dominators = {0, p}  # the first vertex of each side
    else:
        raise InvalidSpecError(
            f"no pendant-corona formula for family {family!r} with parameters {params}"
        )
    return _pendant_corona(
        f"{family}_corona_k1", params, base, dominators, value, f"corona_k1_{family}"
    )


def gamma_dr_double_corona(g: Graph) -> FormulaResult:
    """Attaching a pendant to every vertex twice always costs exactly 5n:
    the pendant-corona labeling of corona(g, K1) with D = the vertices of g."""
    n = g.n
    return _pendant_corona("double_corona", (n,), corona(g, trivial(1)), set(range(n)), 5 * n,
                           "double_corona_5n")
