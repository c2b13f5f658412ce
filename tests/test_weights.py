import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from pebbling.errors import PebblingError
from pebbling.formulas import pi_cycle
from pebbling.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    make_family,
    path_graph,
    star_graph,
)
from pebbling.solver import pebbling_number, replay
from pebbling.weights import (
    LinearProgram,
    WeightFunction,
    add_weight_functions,
    covering_bound,
    cycle_weight_functions,
    lp_bound,
    lp_bound_details,
    random_weight_function,
    simplex_max,
    validate_weight_function,
    weight_function_from_text,
    weight_function_to_text,
    wfl_solve,
)
from pebbling.configs import enumerate_configs

F = Fraction


def wf(t, *vals):
    return WeightFunction(t, tuple(F(x) for x in vals))


def test_validate_examples():
    g = cycle_graph(5)
    w1, w2 = cycle_weight_functions(5, 0)
    assert validate_weight_function(g, w1)
    assert validate_weight_function(g, w2)
    # nonzero at the target fails
    assert not validate_weight_function(g, wf(0, 1, 4, 2, 1, 2))
    # supported non-neighbor with no doubled neighbor fails
    assert not validate_weight_function(g, wf(0, 0, 4, 3, 0, 2))
    with pytest.raises(PebblingError):
        validate_weight_function(cycle_graph(5, 3), w1)
    with pytest.raises(PebblingError):
        validate_weight_function(g, wf(0, 0, 1))


def test_wfl_solve_requires_strict_excess():
    g = cycle_graph(5)
    w1, _ = cycle_weight_functions(5, 0)
    c = (0, 0, 0, 0, 0)
    with pytest.raises(PebblingError):
        wfl_solve(g, w1, c)


def test_wfl_solve_sound_on_small_graphs():
    # Whenever w . c > |w| the greedy run must terminate with a pebble on
    # the target, every step legal, and w . c never decreasing except
    # possibly on the final step into the (zero-weight) target.
    cases = [
        (cycle_graph(5), 0),
        (cycle_graph(6), 2),
        (path_graph(4), 0),
        (star_graph(3), 1),
    ]
    rng = random.Random(5)
    for g, t in cases:
        for _ in range(8):
            w = random_weight_function(g, t, rng)
            assert validate_weight_function(g, w)
            checked = 0
            for c in enumerate_configs(g.vertex_count, 6):
                if not w.dot(c) > w.total():
                    continue
                checked += 1
                if checked > 60:
                    break
                steps = wfl_solve(g, w, c)
                final = replay(g, c, steps)
                assert final[t] >= 1
                work = c
                for i, (u, v) in enumerate(steps):
                    nxt = replay(g, work, [(u, v)])
                    if i < len(steps) - 1:
                        assert w.dot(nxt) >= w.dot(work)
                    work = nxt


def test_covering_bound_cycles_match_pi():
    # brute-force pi for small cycles, closed form beyond that
    for m in range(3, 13):
        g = cycle_graph(m)
        pi = pi_cycle(m)
        if m <= 7:
            assert pebbling_number(g, 0).value == pi
        ws = list(cycle_weight_functions(m, 0))
        assert covering_bound(g, ws) == pi
        assert lp_bound(g, 0, ws) == pi


def test_covering_bound_requires_cover():
    g = path_graph(3)
    with pytest.raises(PebblingError):
        covering_bound(g, [wf(0, 0, 2, 0)])
    with pytest.raises(PebblingError):
        covering_bound(g, [])


def test_both_bounds_check_the_family_alike():
    g = path_graph(3)
    cases = [
        ([], "at least one weight function"),
        ([wf(0, 0, 2, 0)], "do not cover vertex 2"),
        ([wf(0, 0, 2, 1), wf(2, 1, 2, 0)], "target 2 differs from 0"),
        ([wf(0, 0, 1, 1)], "invalid weight function"),
    ]
    for ws, message in cases:
        with pytest.raises(PebblingError, match=message):
            covering_bound(g, ws)
        with pytest.raises(PebblingError, match=message):
            lp_bound_details(g, 0, ws)
    # the LP's target is given: a family for another target is foreign
    with pytest.raises(PebblingError, match="target 0 differs from 2"):
        lp_bound_details(g, 2, [wf(0, 0, 2, 1)])


def test_covering_bound_on_one_vertex():
    assert covering_bound(Graph(1, ()), [wf(0, 0)]) == 1
    assert lp_bound(Graph(1, ()), 0, [wf(0, 0)]) == 1


def test_add_weight_functions():
    a, b = cycle_weight_functions(5, 0)
    s = add_weight_functions(a, b)
    assert s.total() == a.total() + b.total()
    with pytest.raises(PebblingError):
        add_weight_functions(a, WeightFunction(1, b.weights))


def test_simplex_examples():
    # max x + y st x + 2y <= 4, 3x + y <= 5 -> 13/5 at (6/5, 7/5)
    lp = LinearProgram(
        (F(1), F(1)),
        (((F(1), F(2)), F(4)), ((F(3), F(1)), F(5))),
    )
    opt, point, dual = simplex_max(lp)
    assert opt == F(13, 5)
    assert point == (F(6, 5), F(7, 5))
    # duals certify the optimum: b . y == opt and A^T y >= objective
    assert dual[0] * 4 + dual[1] * 5 == opt
    assert dual[0] + 3 * dual[1] >= 1 and 2 * dual[0] + dual[1] >= 1


def test_simplex_degenerate_and_errors():
    lp = LinearProgram((F(1),), (((F(0),), F(3)),))
    with pytest.raises(PebblingError):
        simplex_max(lp)  # unbounded
    with pytest.raises(PebblingError):
        simplex_max(LinearProgram((F(1),), (((F(1),), F(-1)),)))
    with pytest.raises(PebblingError):
        LinearProgram((F(1),), (((F(1), F(2)), F(1)),))


def test_linear_program_reads_a_generator_of_rows_once():
    # max x st x <= 5: the checks do not use the rows up before the simplex.
    lp = LinearProgram((F(1),), ((row, F(5)) for row in [(F(1),)]))
    assert simplex_max(lp) == (F(5), (F(5),), (F(1),))


def test_linear_program_keeps_its_own_tuples():
    # A float put into the caller's lists later is not one the checks saw.
    objective, row = [F(1)], [F(1)]
    lp = LinearProgram(objective, [(row, F(5))])
    objective[0] = row[0] = 0.5
    assert simplex_max(lp) == (F(5), (F(5),), (F(1),))


def _random_lp(rng):
    """A small random LP whose boundedness is known without solving it.

    Entries come from a small set, so ratio ties are common; bounds may be
    zero (degenerate pivots) and rows may repeat.  Three kinds:
    non-negative rows (unbounded exactly when some variable with a positive
    objective appears in no row), mixed signs with one all-positive row
    (bounded), and mixed signs with a planted ray (a variable with a
    positive objective and no positive coefficient: unbounded)."""
    values = [F(0), F(0), F(1), F(2), F(1, 2), F(3, 4), F(5, 3)]
    nv, mc = rng.randint(1, 5), rng.randint(0, 6)
    kind = rng.choice(("non-negative", "capped", "ray"))
    sign = (lambda: 1) if kind == "non-negative" else (lambda: rng.choice((1, 1, -1)))
    rows = [[sign() * rng.choice(values) for _ in range(nv)] for _ in range(mc)]
    if kind == "capped":
        rows.append([rng.choice(values[2:]) for _ in range(nv)])
    if kind == "ray":
        j = rng.randrange(nv)
        for row in rows:
            row[j] = -abs(row[j])
    rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 2)) if rows]
    objective = [rng.choice((1, 1, -1)) * rng.choice(values) for _ in range(nv)]
    if kind == "ray":
        objective[j] = rng.choice(values[2:])
    bounds = [rng.choice((F(0), F(1), F(3), F(7, 2))) for _ in rows]
    unbounded = any(
        objective[j] > 0 and all(row[j] <= 0 for row in rows) for j in range(nv)
    )
    lp = LinearProgram(
        tuple(objective),
        tuple((tuple(row), b) for row, b in zip(rows, bounds)),
    )
    return lp, unbounded


def test_simplex_certificates_on_random_lps():
    # Checked in exact arithmetic against the LP alone: a feasible primal
    # and a feasible dual with equal objectives prove both optimal.
    rng = random.Random(2024)
    solved = 0
    for _ in range(400):
        lp, unbounded = _random_lp(rng)
        if unbounded:
            with pytest.raises(PebblingError, match="^LP is unbounded$"):
                simplex_max(lp)
            continue
        optimum, x, y = simplex_max(lp)
        solved += 1
        rows = [row for row, _ in lp.constraints]
        b = [bound for _, bound in lp.constraints]
        assert len(x) == len(lp.objective) and len(y) == len(rows)
        assert all(isinstance(v, Fraction) for v in (optimum, *x, *y))
        assert all(v >= 0 for v in x) and all(v >= 0 for v in y)
        for row, bound in lp.constraints:
            assert sum(a * v for a, v in zip(row, x)) <= bound
        for j, c in enumerate(lp.objective):
            assert sum(yi * row[j] for yi, row in zip(y, rows)) >= c
        assert sum(c * v for c, v in zip(lp.objective, x)) == optimum
        assert sum(yi * bi for yi, bi in zip(y, b)) == optimum
    assert 100 < solved < 400


def _certify_lp_families(seed):
    """The random LP families of the certify benchmark workload at this
    seed: one target per family, 60 random weight functions, extended until
    they cover every other vertex."""
    rng = random.Random(seed)
    for family in ("petersen", "hypercube:2:2:2", "lemke"):
        g = make_family(family)
        t = rng.randrange(g.vertex_count)
        ws = [random_weight_function(g, t, rng) for _ in range(60)]
        while any(
            v != t and all(w.weights[v] == 0 for w in ws)
            for v in range(g.vertex_count)
        ):
            ws.append(random_weight_function(g, t, rng))
        yield g, t, ws


def test_lp_bound_details_golden():
    # (bound, optimum, primal, dual) of nine random families and the
    # C4-C10 mirror pairs, pinned from the full-tableau simplex that the
    # condensed integer tableau replaced: same Bland pivots, same answers.
    results = [
        lp_bound_details(g, t, ws)
        for seed in (1, 2, 3)
        for g, t, ws in _certify_lp_families(seed)
    ]
    results += [
        lp_bound_details(cycle_graph(m), 0, list(cycle_weight_functions(m, 0)))
        for m in range(4, 11)
    ]
    assert results[-1] == (32, F(31), (0, 0, 0, 0, 31, 0, 0, 0, 0), (F(1, 2), F(1, 2)))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "3533f27e470a9da184b1018a744424772dd21aeebe321637490b0feb7488eba2"
    )


def test_constructors_reject_inexact_entries():
    for bad in (0.5, Decimal("0.5"), "1/2"):
        with pytest.raises(PebblingError, match="exact rational"):
            WeightFunction(0, (F(0), bad, F(1)))
        with pytest.raises(PebblingError, match="exact rational"):
            LinearProgram((F(1), bad), (((F(1), F(1)), F(2)),))
        with pytest.raises(PebblingError, match="exact rational"):
            LinearProgram((F(1), F(1)), (((F(1), bad), F(2)),))
        with pytest.raises(PebblingError, match="exact rational"):
            LinearProgram((F(1), F(1)), (((F(1), F(1)), bad),))
    # the float certificate that used to come back from a float family
    with pytest.raises(PebblingError, match="exact rational"):
        lp_bound_details(
            cycle_graph(5), 0, [WeightFunction(0, (0, 0.5, 0.25, 0.25, 0.5))]
        )
    # int and Fraction stay accepted, and the answers are Fractions
    assert WeightFunction(0, (0, 1, F(1, 2))).total() == F(3, 2)
    opt, point, dual = simplex_max(LinearProgram((1, F(1, 2)), (((2, 1), 3),)))
    assert (opt, point, dual) == (F(3, 2), (F(3, 2), F(0)), (F(1, 2),))
    assert all(type(v) is Fraction for v in (opt, *point, *dual))


def test_cycle5_lp_optimum():
    pi, opt, primal, dual = lp_bound_details(
        cycle_graph(5), 0, list(cycle_weight_functions(5, 0))
    )
    assert opt == F(14, 3)
    assert pi == 5
    # at most one basic variable per constraint
    assert sum(1 for x in primal if x) <= 2


def test_lp_bound_is_an_upper_bound_on_pi():
    rng = random.Random(17)
    for g, t in [
        (cycle_graph(5), 0),
        (path_graph(4), 3),
        (complete_graph(4), 0),
        (star_graph(4), 0),
        (star_graph(4), 1),
    ]:
        pi = pebbling_number(g, t).value
        for _ in range(30):
            ws = [random_weight_function(g, t, rng) for _ in range(rng.randint(1, 3))]
            try:
                bound = lp_bound(g, t, ws)
            except PebblingError:
                continue  # family does not cover the graph
            assert bound >= pi


def test_weight_text_round_trip():
    w = wf(2, 3, "1/2", 0)
    back = weight_function_from_text(weight_function_to_text(w), 3)
    assert back == w
    with pytest.raises(PebblingError):
        weight_function_from_text("w 0 1\n", 2)  # no target line
    with pytest.raises(PebblingError):
        weight_function_from_text("target 0\nblorp\n", 2)
    with pytest.raises(PebblingError):
        weight_function_from_text("target 0\nw 1 1/0\n", 2)  # zero denominator
    with pytest.raises(PebblingError, match="repeated 'target'"):
        weight_function_from_text("target 0\ntarget 1\nw 1 1\n", 2)
    with pytest.raises(PebblingError, match="repeated 'w 1'"):
        weight_function_from_text("target 0\nw 1 1\nw 1 3\n", 2)


def test_weight_function_from_a_list_equals_one_from_a_tuple():
    a, b = WeightFunction(0, [0, 1]), WeightFunction(0, (0, 1))
    assert a.weights == (0, 1)
    assert a == b and hash(a) == hash(b)
