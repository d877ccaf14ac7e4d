"""Bundle catalogue: twists, section counts, degree bookkeeping, audits."""

import pytest

from detrep.bundles import (
    BundleSpec,
    E,
    M,
    N,
    T,
    ambient_degrees,
    bundle_rank,
    det_degree,
    h0_bundle,
    inequality_audit,
    linearity_onset,
    relation_rows,
    relation_source_degrees,
    select_E_d,
)
from detrep.polynomials import h0_p2

from oracles import bundle_closed_forms, summand_closed_forms

SEQUENCE_FUNCTIONS = {
    f.__name__: f
    for f in (bundle_rank, det_degree, h0_bundle, ambient_degrees, relation_source_degrees)
}


def _sweep_specs():
    for n in range(-1, 13):
        yield T(n)
        if n >= 0:
            yield N(n)
            yield from (M(k, n) for k in range(1, 7))
            yield from (E(r, n) for r in range(2, 5))


# one input per distinct message; the last three have two faults each
CONSTRUCTOR_MESSAGES = [
    (("Q", 0), "unknown family 'Q'"),
    (("T", -2), "T(n) needs n >= -1"),
    (("N", -1), "N(n) needs n >= 0"),
    (("T", 0, 1), "T takes no extra parameter"),
    (("N", 0, 1), "N takes no extra parameter"),
    (("M", 2), "M_k needs k >= 1"),
    (("M", 2, 0), "M_k needs k >= 1"),
    (("M", -1, 2), "M_k(n) needs n >= 0"),
    (("E", 2), "E_r needs 2 <= r <= 4"),
    (("E", 2, 5), "E_r needs 2 <= r <= 4"),
    (("E", -1, 3), "E_r(n) needs n >= 0"),
    (("T", -2, 1), "T(n) needs n >= -1"),
    (("M", -1, 0), "M_k needs k >= 1"),
    (("E", -1, 5), "E_r needs 2 <= r <= 4"),
]


def test_constructor_validation():
    for args, message in CONSTRUCTOR_MESSAGES:
        with pytest.raises(ValueError) as info:
            BundleSpec(*args)
        assert str(info.value) == message, args


def test_twist_shifts_n():
    assert T(0).twist(3) == T(3)
    assert M(2, 1).twist(2) == M(2, 3)


def test_ranks():
    assert bundle_rank(T(0)) == 2
    assert bundle_rank(N(4)) == 2
    assert bundle_rank(M(1, 0)) == 2
    assert bundle_rank(M(2, 0)) == 5
    assert bundle_rank(M(3, 0)) == 9
    assert bundle_rank(E(2, 0)) == 2
    assert bundle_rank(E(4, 1)) == 4


def test_det_degrees():
    assert det_degree(N(0)) == 2
    assert det_degree(N(3)) == 8
    assert det_degree(T(0)) == 3
    assert det_degree(T(2)) == 7
    assert det_degree(M(2, 1)) == 7  # (m-1)n + k with m = 6
    assert det_degree(E(3, 2)) == 8  # rn + 2


def test_h0_closed_forms_hand_checked():
    assert h0_bundle(T(0)) == 8
    assert h0_bundle(N(0)) == 5
    assert h0_bundle(M(1, 0)) == 3
    assert h0_bundle(E(2, 0)) == 4
    # twisting by t shifts n
    assert h0_bundle(N(1)) == h0_bundle(N(0).twist(1))


def test_sequence_table_matches_closed_forms():
    # T from n = -1, the others from 0, up to n = 12; twists -6..8
    for spec in _sweep_specs():
        for t in range(-6, 9):
            expected = {**bundle_closed_forms(spec, t), **summand_closed_forms(spec)}
            for name, f in SEQUENCE_FUNCTIONS.items():
                got = f(spec, t) if name == "h0_bundle" else f(spec)
                assert got == expected[name], (spec.label(), t, name)


def test_large_k_reads_counts_without_expanding():
    # h0(10**6) is about 5 * 10**11: no tuple of that length fits in memory
    spec = M(10**6, 0)
    for name, value in bundle_closed_forms(spec).items():
        assert SEQUENCE_FUNCTIONS[name](spec) == value


def test_relation_rows_map_sources_into_ambient():
    # every entry of row j sends O(s_j) into summand i: s_j + deg == a_i
    for spec in _sweep_specs():
        ambient = ambient_degrees(spec)
        rows = relation_rows(spec)
        sources = relation_source_degrees(spec)
        assert len(rows) == len(sources)
        for row, s in zip(rows, sources):
            assert len(row) == len(ambient)
            assert all(s + entry.degree == a for entry, a in zip(row, ambient)), spec.label()


def test_audit_names_the_twist_that_leaves_the_family():
    with pytest.raises(ValueError, match=r"^twist m = -3 gives T\(-3\), outside the family: T\(n\) needs n >= -1$"):
        inequality_audit(T(0), range(-3, 1), 8)
    with pytest.raises(ValueError, match=r"^twist m = -1 gives M_2\(-1\), outside the family"):
        inequality_audit(M(2, 0), range(-1, 1), 8)
    assert [row.m for row in inequality_audit(T(0), range(-1, 1), 8)] == [-1, 0]


def test_h0_nonnegative_and_monotone():
    for fam, param in (("T", None), ("N", None), ("M", 2), ("E", 3)):
        prev = 0
        for n in range(0, 7):
            spec = BundleSpec(fam, n, param)
            val = h0_bundle(spec)
            assert val >= prev
            prev = val


def test_ambient_and_relations_shape():
    spec = T(1)
    degs = ambient_degrees(spec)
    assert degs == (2, 2, 2)
    rels = relation_rows(spec)
    assert len(rels) == 1
    assert [p.degree for p in rels[0]] == [1, 1, 1]

    spec = N(1)
    assert ambient_degrees(spec) == (1, 1, 2)
    (row,) = relation_rows(spec)
    assert [p.degree for p in row] == [1, 1, 2]

    spec = M(2, 1)
    assert ambient_degrees(spec) == (1,) * 6
    (row,) = relation_rows(spec)
    assert [p.degree for p in row] == [2] * 6

    spec = E(3, 1)
    assert ambient_degrees(spec) == (1,) * 5
    rows = relation_rows(spec)
    assert len(rows) == 2
    # the two rows overlap in the middle three positions
    assert not rows[0][0].is_zero()
    assert rows[0][4].is_zero()
    assert rows[1][0].is_zero()
    assert not rows[1][4].is_zero()


def test_inequality_audit_rows():
    rows = inequality_audit(N(0), range(0, 5), 8)
    assert len(rows) == 5
    assert all(row.holds for row in rows)
    # lhs at m: h0 of plane curves of degree det_degree(N(m)) minus 1
    assert rows[0].lhs == h0_p2(2) - 1
    d = 2
    assert rows[0].rhs == d * (h0_bundle(N(0)) - d) + 8


def test_gap_eventually_linear():
    rows = inequality_audit(T(0), range(0, 12), 8)
    gaps = [r.rhs - r.lhs for r in rows]
    onset = linearity_onset(gaps)
    assert onset is not None
    # second differences vanish from the onset
    for i in range(onset, len(gaps) - 2):
        assert gaps[i + 2] - 2 * gaps[i + 1] + gaps[i] == 0


def test_linearity_onset_none_when_quadratic():
    assert linearity_onset([n * n for n in range(8)]) is None
    assert linearity_onset([3 * n + 1 for n in range(8)]) == 0


def test_linearity_onset_needs_three_values():
    for values in ([], [5], [1, 2]):
        assert linearity_onset(values) is None
    assert linearity_onset([1, 2, 3]) == 0


def test_select_even_degree():
    spec = select_E_d(2)
    assert spec.family == "N"
    assert spec.n == 0
    assert det_degree(spec) == 2


def test_select_odd_degree():
    spec = select_E_d(3)
    assert spec.family == "T"
    assert spec.n == 0
    assert det_degree(spec) == 3
    # the degree-1 case needs the twist below the ambient floor
    line = select_E_d(1)
    assert line.family == "T"
    assert line.n == -1
    assert det_degree(line) == 1


def test_select_rejects_nonpositive():
    with pytest.raises(ValueError):
        select_E_d(0)
