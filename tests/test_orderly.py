import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, permutations

import pytest

from oracles import orderly_seed_graph, triangle_key
from ringpoints import geometry
from ringpoints.reductions import I_of
from ringpoints.errors import InvalidInputError
from ringpoints.geometry import (
    LineTable,
    Point,
    delta,
    is_cocircular,
    is_collinear,
    is_concyclic,
    is_integral,
    is_set_collinear,
    line_table,
)
from ringpoints.orderly import (
    MODES,
    DeltaMatrix,
    EdgeClassTable,
    PointSetRecord,
    _circle_tables,
    _code_layout,
    _make_record,
    _ordering_exceeds,
    _point_bisector,
    _reaching_relabelings,
    _shift,
    _triangle_key,
    edge_classes,
    is_canonical,
    matrix_key,
    max_cardinality,
    max_cardinality_witness,
    seed_candidates,
    seed_L3,
)
from ringpoints.tables import TABLE2


# The level-by-level orderly generation: the reference that max_cardinality's
# clique search around the canonical triangles is checked against.  Level
# r + 1 is generated from level r by glueing: a canonical matrix supplies the
# base point set, a compatible semi-canonical matrix with the same leading
# block supplies the distance row of the new point, and candidate coordinates
# are scanned from the witness realization.  Keeping exactly the
# semi-canonical extensions makes the enumeration exhaustive without isomorph
# duplication among canonical representatives.


def leading_key(dm: DeltaMatrix) -> tuple[int, ...]:
    """Key of the leading block, the matrix without its last row and column (a key prefix)."""
    r = len(dm)
    return tuple(dm[i][j] for j in range(1, r - 1) for i in range(j))


def compare(d1: DeltaMatrix, d2: DeltaMatrix) -> int:
    """-1, 0, 1 as d1 precedes, equals, or succeeds d2 in the matrix order."""
    if len(d1) != len(d2):
        raise InvalidInputError("matrices must have equal order")
    k1, k2 = matrix_key(d1), matrix_key(d2)
    return (k1 > k2) - (k1 < k2)


def is_semi_canonical(dm: DeltaMatrix, relabelings: tuple[tuple[int, ...], ...] = ()) -> bool:
    """As ``is_canonical`` once the last row and column are dropped."""
    target = leading_key(dm)
    return not any(_ordering_exceeds(dm, target, len(dm) - 1, s) for s in (None, *relabelings))


def brute_canonical_key(dm: DeltaMatrix) -> tuple[int, ...]:
    """Reference maximum key over all permutations; test oracle for small r."""
    r = len(dm)
    return max(
        matrix_key(tuple(tuple(dm[p[i]][p[j]] for j in range(r)) for i in range(r)))
        for p in permutations(range(r))
    )


def delta_matrix(points: tuple[Point, ...], n: int, table: EdgeClassTable | None = None) -> DeltaMatrix:
    """Class-index matrix of an integral point set realization."""
    table = table or edge_classes(n)
    r = len(points)
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            d = delta(points[i], points[j], n)
            idx = table.index.get(d)
            if idx is None:
                raise InvalidInputError(f"points {points[i]}, {points[j]} not at integral distance")
            rows[i][j] = rows[j][i] = idx
    return tuple(tuple(row) for row in rows)


@dataclass
class GenerationStats:
    level_sizes: dict[int, int] = field(default_factory=dict)
    glue_calls: int = 0
    glue_wide_results: int = 0  # glue outputs with more than two extensions


def extend_level(
    level: list[PointSetRecord],
    n: int,
    mode: str = "any",
    table: EdgeClassTable | None = None,
    stats: GenerationStats | None = None,
) -> list[PointSetRecord]:
    """One pass of the generation: all semi-canonical (r+1)-records from level r.

    Each canonical x1 is glued with every x2 <= x1 of the same leading block:
    the new point is scanned from the sphere of x2's last-row class around
    x1's first witness point, must match x2's remaining row and sit at a
    nonzero integral distance to x1's last point, and must pass the position
    filters.  The filter work is shared per x1, and duplicates are dropped
    early through the key-prefix property key(y) = key(x1) + new row.
    """
    table = table or edge_classes(n)
    cls_of = table.class_of_diff
    spheres = table.spheres
    rows = line_table(n).pair_rows
    filtered = mode in ("semi-general", "general")
    circles = mode == "general"

    buckets: dict[tuple[int, ...], list[PointSetRecord]] = defaultdict(list)
    for rec in level:
        buckets[leading_key(rec.matrix)].append(rec)

    out: dict[tuple[int, ...], PointSetRecord] = {}
    seen: set[tuple[int, ...]] = set()
    for x1 in level:
        if not x1.canonical:
            continue
        r = len(x1.matrix)
        witness = x1.witness
        base_x, base_y = witness[0]
        filter_cache: dict[Point, bool] = {}

        def q_passes(q: Point) -> bool:
            cached = filter_cache.get(q)
            if cached is not None:
                return cached
            ok = True
            if filtered:
                d = [(((w[0] - q[0]) % n) * n + (w[1] - q[1]) % n) for w in witness]
                for i in range(r):
                    di = d[i]
                    row = rows[di]
                    for j in range(i + 1, r):
                        if (row >> d[j]) & 1:
                            ok = False
                            break
                    if not ok:
                        break
            if ok and circles:
                bis = [_point_bisector(q, w, n) for w in witness]
                for i in range(r):
                    bi = bis[i]
                    for j in range(i + 1, r):
                        pair = bi & bis[j]
                        if not pair:
                            continue
                        for k in range(j + 1, r):
                            if pair & bis[k]:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
            filter_cache[q] = ok
            return ok

        for x2 in buckets[leading_key(x1.matrix)]:
            if x2.key > x1.key:
                continue
            if stats is not None:
                stats.glue_calls += 1
            target_row = x2.matrix[r - 1][: r - 1]
            found = 0
            for s in spheres[target_row[0]]:
                q = ((base_x + s[0]) % n, (base_y + s[1]) % n)
                ok = True
                for i in range(1, r - 1):
                    w = witness[i]
                    if cls_of[((q[0] - w[0]) % n) * n + (q[1] - w[1]) % n] != target_row[i]:
                        ok = False
                        break
                if not ok:
                    continue
                w = witness[r - 1]
                c_last = cls_of[((q[0] - w[0]) % n) * n + (q[1] - w[1]) % n]
                if c_last <= 0:
                    continue
                if not q_passes(q):
                    continue
                found += 1
                ykey = x1.key + target_row + (c_last,)
                if ykey in seen:
                    continue
                seen.add(ykey)
                new_row = target_row + (c_last,)
                matrix = tuple(
                    tuple(x1.matrix[i]) + (new_row[i],) for i in range(r)
                ) + (new_row + (0,),)
                if is_semi_canonical(matrix, table.relabelings):
                    out[ykey] = PointSetRecord(
                        matrix, witness + (q,), ykey, is_canonical(matrix, table.relabelings)
                    )
            if stats is not None and found > 2:
                stats.glue_wide_results += 1
    return sorted(out.values(), key=lambda rec: rec.key)


def generate_levels(
    n: int,
    mode: str = "any",
    max_level: int | None = None,
    retain_all: bool = False,
) -> tuple[dict[int, list[PointSetRecord]], GenerationStats]:
    """Run the generation to exhaustion.

    Returns the levels dict (all levels with ``retain_all``, otherwise just the
    last nonempty one, which carries the maximum-cardinality witnesses) plus
    per-level counts in the stats.
    """
    if mode not in MODES:
        raise InvalidInputError(f"unknown mode {mode!r}")
    stats = GenerationStats()
    table = edge_classes(n)
    levels: dict[int, list[PointSetRecord]] = {}
    if n == 1:
        return levels, stats
    current = seed_L3(n, mode)
    r = 3
    last: tuple[int, list[PointSetRecord]] | None = None
    while current:
        stats.level_sizes[r] = len(current)
        if retain_all:
            levels[r] = current
        last = (r, current)
        if max_level is not None and r >= max_level:
            break
        current = extend_level(current, n, mode, table, stats)
        r += 1
    if last is not None and not retain_all:
        levels[last[0]] = last[1]
    return levels, stats


def test_edge_classes_small():
    assert edge_classes(2).classes == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert edge_classes(3).classes == ((0, 0), (0, 1), (1, 0))  # (1,1) has length 2, not a square
    for n in (1, 2, 5, 8):
        assert edge_classes(n).classes[0] == (0, 0)


def test_edge_class_spheres():
    table = edge_classes(5)
    for i, vec in enumerate(table.classes):
        for p in table.spheres[i]:
            assert delta(p, (0, 0), 5) == vec


def random_matrix(rng, r, classes=4):
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            rows[i][j] = rows[j][i] = rng.randrange(1, classes)
    return tuple(tuple(row) for row in rows)


def test_compare():
    rng = random.Random(0)
    m1 = random_matrix(rng, 4)
    assert compare(m1, m1) == 0
    # spec example: upper entries read (d01; d02, d12)
    a = ((0, 1, 2), (1, 0, 2), (2, 2, 0))
    b = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert compare(a, b) == 1
    with pytest.raises(InvalidInputError):
        compare(a, random_matrix(rng, 4))


def test_compare_transitivity():
    rng = random.Random(1)
    for _ in range(100):
        ms = [random_matrix(rng, 4) for _ in range(3)]
        ms.sort(key=matrix_key)
        assert compare(ms[0], ms[1]) <= 0
        assert compare(ms[1], ms[2]) <= 0
        assert compare(ms[0], ms[2]) <= 0


def test_canonical_small_orders():
    # single point and pairs have singleton orbits
    assert is_canonical(((0,),))
    assert is_canonical(((0, 3), (3, 0)))
    assert is_semi_canonical(((0, 3), (3, 0)))


def test_canonical_vs_brute_force():
    rng = random.Random(2)
    for r in (3, 4, 5):
        for _ in range(120):
            m = random_matrix(rng, r)
            assert is_canonical(m) == (matrix_key(m) == brute_canonical_key(m))


def test_exactly_one_canonical_per_orbit():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix(rng, 3)
        orbit = {
            tuple(tuple(m[p[i]][p[j]] for j in range(3)) for i in range(3))
            for p in permutations(range(3))
        }
        assert sum(1 for o in orbit if is_canonical(o)) == 1


def test_canonical_implies_semi_canonical():
    rng = random.Random(4)
    for r in (3, 4, 5, 6):
        for _ in range(150):
            m = random_matrix(rng, r)
            if is_canonical(m):
                assert is_semi_canonical(m)


def test_delta_matrix():
    table = edge_classes(5)
    pts = ((0, 0), (1, 0), (0, 2))
    m = delta_matrix(pts, 5, table)
    assert m[0][0] == 0 and m[0][1] >= 1 and m[1][2] >= 1
    assert m == tuple(tuple(row) for row in zip(*m))  # symmetric
    with pytest.raises(InvalidInputError):
        delta_matrix(((0, 0), (1, 1)), 3, edge_classes(3))  # non-integral pair


def brute_seed_classes(n, mode):
    """All 3-point integral classes by exhaustive subsets, up to S_3-orbit of the matrix."""
    pts = [(x, y) for x in range(n) for y in range(n)]
    table = edge_classes(n)
    keys = set()
    for sub in combinations(pts, 3):
        if not all(
            is_integral(sub[i], sub[j], n) for i in range(3) for j in range(i + 1, 3)
        ):
            continue
        if mode == "semi-general" and is_collinear(*sub, n):
            continue
        keys.add(brute_canonical_key(delta_matrix(sub, n, table)))
    return keys


def to_group_canonical(m, table):
    """Reference canonical key under permutations and class relabelings."""
    r = len(m)
    best = None
    sigmas = list(table.relabelings) + [tuple(range(len(table.classes)))]
    for sigma in sigmas:
        relabeled = tuple(tuple(sigma[e] for e in row) for row in m)
        for p in permutations(range(r)):
            k = matrix_key(tuple(tuple(relabeled[p[i]][p[j]] for j in range(r)) for i in range(r)))
            if best is None or k > best:
                best = k
    return best


def test_seed_L3_complete_against_brute_force():
    for n in (2, 3, 4, 5):
        table = edge_classes(n)
        for mode in ("any", "semi-general"):
            brute = {
                to_group_canonical_from_key(k, table)
                for k in brute_seed_classes(n, mode)
            }
            seeded = {to_group_canonical(rec.matrix, table) for rec in seed_L3(n, mode)}
            assert brute == seeded, (n, mode)


def to_group_canonical_from_key(key, table):
    m = ((0, key[0], key[1]), (key[0], 0, key[2]), (key[1], key[2], 0))
    return to_group_canonical(m, table)


def test_seed_L3_examples():
    assert seed_L3(1, "any") == []
    assert seed_L3(2, "semi-general")  # nonempty: the published maximum is 4 >= 3
    for rec in seed_L3(5, "any"):
        assert is_semi_canonical(rec.matrix)
        w = rec.witness
        assert all(
            is_integral(w[i], w[j], 5) for i in range(3) for j in range(i + 1, 3)
        )


def test_class_tops_decide_triangle_semi_canonicity():
    # the closed form against the permutation search, on every triple for small
    # moduli and a seeded sample for even and composite ones
    rng = random.Random(8)
    for n in (5, 8, 9, 12, 16, 25, 27):
        table = edge_classes(n)
        tops = table.tops
        nonzero = range(1, len(table.classes))
        if n <= 12:
            triples = [(a, b, c) for a in nonzero for b in nonzero for c in nonzero]
        else:
            triples = [tuple(rng.choice(nonzero) for _ in range(3)) for _ in range(2000)]
        for c12, c13, c23 in triples:
            matrix = ((0, c12, c13), (c12, 0, c23), (c13, c23, 0))
            closed_form = tops[c12] == c12 and tops[c13] <= c12 and tops[c23] <= c12
            assert closed_form == is_semi_canonical(matrix, table.relabelings), (n, c12, c13, c23)


def test_triangle_key_closed_form_matches_orderings():
    # the closed form against the largest matrix_key over the six orderings
    # under every relabeling, on every triple of nonzero classes (both are
    # symmetric in the three classes, so each multiset once); a seed_L3
    # record is canonical iff its closed-form key is its own key
    for n in range(2, 21):
        table = edge_classes(n)
        tops, lifts = table.tops, table.lifts
        nonzero = range(1, len(table.classes))
        for x in nonzero:
            for y in range(x, len(table.classes)):
                for z in range(y, len(table.classes)):
                    assert _triangle_key(x, y, z, tops, lifts) == triangle_key(x, y, z, table), (n, x, y, z)
        for rec in seed_L3(n, "any"):
            assert rec.canonical == (_triangle_key(*rec.key, tops, lifts) == rec.key), (n, rec.key)


def reference_seed_L3(n, mode):
    """Every ordered pair of points around the origin, first realization of
    each matrix kept before the collinearity filter, then the permutation
    search for semi-canonicity."""
    table = edge_classes(n)
    if n < 2:
        return []
    points = [(p, i) for i in range(1, len(table.classes)) for p in table.spheres[i]]
    out, seen = {}, set()
    for p2, c12 in points:
        for p3, c13 in points:
            if p3 == p2:
                continue
            c23 = table.index.get(delta(p2, p3, n))
            if c23 is None:
                continue
            matrix = ((0, c12, c13), (c12, 0, c23), (c13, c23, 0))
            if matrix in seen:
                continue
            seen.add(matrix)
            if mode != "any" and is_collinear((0, 0), p2, p3, n):
                continue
            if is_semi_canonical(matrix, table.relabelings):
                out[matrix] = _make_record(matrix, ((0, 0), p2, p3), table.relabelings)
    return sorted(out.values(), key=lambda rec: rec.key)


def test_seed_L3_matches_reference_enumeration():
    for n in range(1, 21):
        for mode in ("any", "semi-general", "general"):
            got = [(r.matrix, r.witness, r.canonical) for r in seed_L3(n, mode)]
            want = [(r.matrix, r.witness, r.canonical) for r in reference_seed_L3(n, mode)]
            assert got == want, (n, mode)


def test_seed_L3_canonicity_needs_only_the_reaching_relabelings():
    # past the reference enumeration: the full relabeling list decides every
    # triangle as the reaching ones do, up to the benchmark cells and beyond
    for n in range(21, 41):
        table = edge_classes(n)
        for rec in seed_L3(n, "any"):
            assert rec.canonical == is_canonical(rec.matrix, table.relabelings), (n, rec.matrix)
    # a left-out relabeling maps all three entries below c12, so it keys below
    # the triangle under every ordering; the kept ones are the lifts of the
    # entries that reach c12, identity aside
    for n in range(2, 31):
        table = edge_classes(n)
        tops, lifts = table.tops, table.lifts
        for rec in seed_L3(n, "any"):
            c12 = rec.key[0]
            reach = _reaching_relabelings(table.relabelings, rec.key)
            union = {s for e in rec.key if tops[e] == c12 for s in lifts[e]}
            assert reach == tuple(s for s in table.relabelings if s in union), (n, rec.key)
            for s in table.relabelings:
                if s not in reach:
                    assert all(s[e] < c12 for e in rec.key), (n, rec.key, s)


def test_triangle_realizations_are_reflection_congruent():
    # with p2 pinned to the first point of its sphere, the third points that
    # realize one class triple form one orbit of the sign changes fixing p2
    for n in range(2, 41):
        table = edge_classes(n)
        for c12 in range(1, len(table.classes)):
            p2 = table.spheres[c12][0]
            signs = [
                (e, f) for e in (1, -1) for f in (1, -1)
                if ((e * p2[0]) % n, (f * p2[1]) % n) == p2
            ]
            realizations = defaultdict(set)
            for c13 in range(1, len(table.classes)):
                for p3 in table.spheres[c13]:
                    c23 = table.index.get(delta(p2, p3, n))
                    if c23:
                        realizations[c13, c23].add(p3)
            for triple, p3s in realizations.items():
                q = min(p3s)
                assert {((e * q[0]) % n, (f * q[1]) % n) for e, f in signs} == p3s, (n, c12, triple)


def test_extend_level_glue_contract():
    table = edge_classes(5)
    stats = GenerationStats()
    level4 = extend_level(seed_L3(5, "any"), 5, "any", table, stats)
    assert level4
    for rec in level4:
        w = rec.witness
        assert len(set(w)) == 4  # coinciding placements discarded
        for i in range(4):
            for j in range(i + 1, 4):
                assert is_integral(w[i], w[j], 5)
    # over a prime field two distance spheres meet in at most two points
    assert stats.glue_wide_results == 0


def test_extend_level_completeness_n4():
    """Every integral 4-subset of Z_4^2 has an equivalent class in the generated level."""
    n = 4
    table = edge_classes(n)
    level4 = extend_level(seed_L3(n, "any"), n, "any", table)
    generated = {to_group_canonical(rec.matrix, table) for rec in level4}
    pts = [(x, y) for x in range(n) for y in range(n)]
    brute = set()
    for sub in combinations(pts, 4):
        if all(is_integral(a, b, n) for a, b in combinations(sub, 2)):
            brute.add(to_group_canonical(delta_matrix(sub, n, table), table))
    assert generated == brute


def test_level_records_isomorph_free():
    # no two canonical records of one level share a permutation orbit
    for n in (4, 5, 6):
        table = edge_classes(n)
        levels, _ = generate_levels(n, "semi-general", retain_all=True)
        for recs in levels.values():
            keys = [brute_canonical_key(r.matrix) for r in recs if r.canonical and len(r.matrix) <= 6]
            assert len(keys) == len(set(keys))


def test_filter_soundness_rescan():
    for n in (6, 8, 9):
        levels, _ = generate_levels(n, "semi-general", retain_all=True)
        for recs in levels.values():
            for rec in recs:
                for tri in combinations(rec.witness, 3):
                    assert not is_collinear(*tri, n)
    for n in (6, 8, 9, 10):
        levels, _ = generate_levels(n, "general", retain_all=True)
        for recs in levels.values():
            for rec in recs:
                for tri in combinations(rec.witness, 3):
                    assert not is_collinear(*tri, n)
                for quad in combinations(rec.witness, 4):
                    assert not is_concyclic(*quad, n)
                    assert not is_cocircular(*quad, n)


def test_generation_canonical_matrices_semi_canonical():
    # empirical check of the claim that canonical implies semi-canonical,
    # on the matrices the generation actually produces
    for n in (4, 6, 8):
        levels, _ = generate_levels(n, "any", retain_all=True, max_level=5)
        for recs in levels.values():
            for rec in recs:
                assert is_semi_canonical(rec.matrix)
                if rec.canonical:
                    assert is_canonical(rec.matrix)


def test_max_cardinality_values():
    assert max_cardinality(7, "general") == 3  # levels are empty beyond the triangles
    assert max_cardinality(8, "semi-general") == 6
    assert max_cardinality(30, "semi-general") == 6
    assert max_cardinality(31, "semi-general") == 16
    assert max_cardinality(13, "general") == 5
    assert max_cardinality(18, "general") == 8
    assert max_cardinality(1, "any") == 1
    assert max_cardinality(3, "semi-general") == 2  # no non-collinear triangle exists


def test_line_definition_reproduces_table2(monkeypatch):
    # Table 2 counts cyclic lines {p + w t}; the determinant test
    # det(q - p, r - p) = 0 (mod n) also holds for triples off every cyclic
    # line at composite n, and gives a smaller semi-general maximum at n = 8
    def det_line_table(n):
        n2 = n * n
        rows = tuple(
            sum(1 << r for r in range(n2) if ((q // n) * (r % n) - (q % n) * (r // n)) % n == 0)
            for q in range(n2)
        )
        return LineTable(n, (), rows)

    assert TABLE2[8] == (6, True)
    assert max_cardinality(8, "semi-general") == 6
    monkeypatch.setattr(geometry, "line_table", det_line_table)
    assert max_cardinality(8, "semi-general") == 4


def test_shift_translates_every_point():
    rng = random.Random(23)
    for n in (2, 3, 5, 8, 12):
        for _ in range(4):
            mask = rng.getrandbits(n * n)
            for x in range(n):
                for y in range(n):
                    expect = 0
                    for a in range(n):
                        for b in range(n):
                            if (mask >> (a * n + b)) & 1:
                                expect |= 1 << (((a + x) % n) * n + (b + y) % n)
                    assert _shift(mask, x, y, n) == expect, (n, mask, x, y)


def test_max_cardinality_budget():
    from ringpoints.errors import SearchTimeout

    with pytest.raises(SearchTimeout) as exc_info:
        max_cardinality(29, "semi-general", budget=0.02)
    assert exc_info.value.lower_bound >= 3
    # the timeout carries the incumbent points, here in general position
    n = 29
    with pytest.raises(SearchTimeout) as exc_info:
        max_cardinality(n, "general", budget=0.02)
    bound, witness = exc_info.value.lower_bound, exc_info.value.witness
    assert len(witness) == len(set(witness)) == bound >= 3
    for a, b in combinations(witness, 2):
        assert is_integral(a, b, n)
    for tri in combinations(witness, 3):
        assert not is_collinear(*tri, n)
    for quad in combinations(witness, 4):
        assert not is_cocircular(*quad, n)


def test_circle_tables_translate_every_bisector():
    # bisector(p, q) == _shift(mask for q - p, *p): every pair up to n = 20,
    # every difference from a seeded sample of points above (the exhaustive
    # check of n = 21..30 alone takes over 12 s); the mask for q - p sits at
    # code(q) - code(p), code(x, y) = x*(2n - 1) + y, so up to n = 20 the
    # pairs read every entry, negative code differences included
    rng = random.Random(29)
    for n in range(2, 31):
        w = 2 * n - 1
        origin_bis, _ = _circle_tables(n)
        pts = [(x, y) for x in range(n) for y in range(n)]
        bases = pts if n <= 20 else [(0, 0), (n - 1, n - 1)] + rng.sample(pts, 6)
        for px, py in bases:
            # q runs over p + d for the differences d in row-major order
            qs = [((px + dx) % n, (py + dy) % n) for dx, dy in pts]
            expect = [_point_bisector((px, py), q, n) for q in qs]
            got = [_shift(origin_bis[(qx - px) * w + qy - py], px, py, n) for qx, qy in qs]
            assert got == expect, (n, px, py)


def test_through_origin_inverts_origin_bis():
    # z is in the mask of d iff d is in through_origin[z]: every such
    # incidence read one way is found the other way, and both tables hold as
    # many
    for n in range(2, 31):
        w = 2 * n - 1
        origin_bis, through_origin = _circle_tables(n)
        masks = [origin_bis[x * w + y] for x in range(n) for y in range(n)]
        assert len(origin_bis) == w * w and len(through_origin) == n * n
        for d, mask in enumerate(masks):
            for z in range(n * n):
                if (mask >> z) & 1:
                    assert (through_origin[z] >> d) & 1, (n, d, z)
        assert sum(m.bit_count() for m in masks) == sum(m.bit_count() for m in through_origin)
        assert masks[0] == (1 << n * n) - 1  # every centre sees 0 and 0 alike


def test_candidate_rows_match_per_edge_walk():
    # seed_candidates, which decides the witness lines and triangle keys and
    # builds the gathered rows in each candidate's frame, against the per-edge
    # walk with one bisector call per pair and one triangle key search per
    # witness pair, on seeded samples of the canonical triangles, each sample
    # with a one-candidate seed where the cell has one; a best the candidates
    # cannot beat builds nothing
    rng = random.Random(17)
    single = witness_lines = triangle_drops = 0
    for n in (13, 16, 20, 25):
        table = edge_classes(n)
        tops = table.tops
        classes = (tops, table.lifts, _code_layout(table.class_of_diff, n))
        bit_at = _code_layout([1 << d for d in range(n * n)], n)
        line_at = _code_layout(line_table(n).pair_rows, n)
        seeds = [rec for rec in seed_L3(n, "semi-general") if rec.canonical]
        for mode in ("any", "semi-general", "general"):
            if mode == "any":
                frame = (*classes, (), (), ())
            else:
                frame = (*classes, bit_at, line_at, _circle_tables(n)[0] if mode == "general" else ())
            cases = []
            for rec in seeds:
                allowed = sum(
                    1 << d for d, c in enumerate(table.class_of_diff) if c > 0 and tops[c] <= rec.key[0]
                )
                assert table.admissible[rec.key[0]] == allowed, (n, rec.key)
                found = seed_candidates(rec.witness, rec.key, allowed, frame, n, 3)
                if found is not None:
                    cases.append((rec.witness, rec.key, allowed, *found))
            ones = [case for case in cases if len(case[3]) == 1]
            single += bool(ones)
            for case in rng.sample(cases, 10) + ones[:1]:
                witness, key, allowed, points, spans, pairs, adj, gather = case
                expect_points, expect_spans, expect_pairs, expect_adj = orderly_seed_graph(
                    witness, key, allowed, n, mode
                )
                assert points == expect_points, (n, mode, witness)
                # spans and pairs are held translated by minus their candidate
                assert [_shift(m, x, y, n) for m, (x, y) in zip(spans, points)] == expect_spans
                assert [_shift(m, x, y, n) for m, (x, y) in zip(pairs, points)] == expect_pairs
                assert adj == expect_adj, (n, mode, witness)
                assert gather((1 << n * n) - 1) == (1 << len(points)) - 1
                assert seed_candidates(witness, key, allowed, frame, n, 3 + len(points)) is None
                # without the triangle keys the walk keeps more candidates
                unkeyed = orderly_seed_graph(witness, None, allowed, n, mode)[0]
                triangle_drops += len(unkeyed) > len(points)
                if mode == "semi-general":
                    # without the line filter the walk keeps more candidates
                    unfiltered = orderly_seed_graph(witness, key, allowed, n, "any")[0]
                    witness_lines += len(unfiltered) > len(points)
    assert single >= 6  # one-candidate seeds were compared in most cells
    assert witness_lines  # some sampled seed has a candidate on a witness line
    assert triangle_drops  # some sampled seed has a candidate that keys above it


def test_max_cardinality_matches_clique_value():
    for n in range(2, 25):
        assert max_cardinality(n, "any") == I_of(n, 2)


def test_max_cardinality_witness_valid():
    cells = ((8, "semi-general"), (10, "general"), (5, "any"), (16, "semi-general"), (18, "general"))
    for n, mode in cells:
        value, witness = max_cardinality_witness(n, mode)
        assert len(witness) == value
        assert len(set(witness)) == value
        for a, b in combinations(witness, 2):
            assert is_integral(a, b, n)
        if mode in ("semi-general", "general"):
            for tri in combinations(witness, 3):
                assert not is_collinear(*tri, n)
        if mode == "general":
            for quad in combinations(witness, 4):
                assert not is_cocircular(*quad, n)


def brute_position_max(n, mode):
    """Direct branch-and-bound over point sets; independent of the Delta machinery."""
    pts = [(x, y) for x in range(n) for y in range(n)]
    best = [1]

    def ok(S, q):
        for p in S:
            if not is_integral(p, q, n):
                return False
        for a, b in combinations(S, 2):
            if is_collinear(a, b, q, n):
                return False
        if mode == "general":
            for a, b, c in combinations(S, 3):
                if is_cocircular(a, b, c, q, n):
                    return False
        return True

    def rec(S, cands):
        if len(S) > best[0]:
            best[0] = len(S)
        for i, q in enumerate(cands):
            if len(S) + len(cands) - i <= best[0]:
                return
            if ok(S, q):
                rec(S + [q], [c for c in cands[i + 1 :] if is_integral(c, q, n)])

    rec([(0, 0)], [p for p in pts if p != (0, 0) and is_integral(p, (0, 0), n)])
    return best[0]


def test_against_independent_brute_force():
    for n in range(2, 11):
        assert max_cardinality(n, "semi-general") == brute_position_max(n, "semi-general")
        assert max_cardinality(n, "general") == brute_position_max(n, "general")


def test_dfs_agrees_with_level_engine():
    # the level-by-level generation and the pruned depth-first walk are
    # independent routes to the same maximum
    for n in range(2, 15):
        for mode in ("semi-general", "general"):
            levels, stats = generate_levels(n, mode)
            level_max = max(stats.level_sizes) if stats.level_sizes else 2
            assert max_cardinality(n, mode) == level_max, (n, mode)


def test_semi_general_prime_theorem():
    for p in (7, 11, 19, 23):
        assert max_cardinality(p, "semi-general") == (p + 1) // 2
    for p in (13, 17, 29):
        val = max_cardinality(p, "semi-general")
        assert (p - 1) // 2 <= val <= (p + 3) // 2


def test_collinear_maximality_at_primes():
    # every unfiltered maximum-size point set at n = p in {7, 11} is collinear
    for p in (7, 11):
        levels, _ = generate_levels(p, "any", retain_all=True)
        assert max(levels) == p
        for rec in levels[p]:
            assert is_set_collinear(list(rec.witness), p)

