from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from iskk.linalg import QuotientSpace, Span


class DenseQuotient:
    """Reference: the quotient of dense relations read off a reduced Span."""

    def __init__(self, ambient_dim, relations):
        self.span = Span({c: x for c, x in enumerate(r) if x} for r in relations)
        self.free = [c for c in range(ambient_dim) if c not in self.span.pivots]
        self.ambient_dim = ambient_dim

    def to_coords(self, v):
        red = self.span._reduce({c: Fraction(x) for c, x in enumerate(v) if x})
        return [red.get(c, 0) for c in self.free]

    def lifts(self):
        out = []
        for c in self.free:
            red = self.span._reduce({c: 1})
            out.append([red.get(k, 0) for k in range(self.ambient_dim)])
        return out


entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]).map(Fraction)


@st.composite
def quotient_problems(draw):
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=9))
    if n and draw(st.booleans()):
        # a full-rank set: every unit vector, mixed with the drawn rows
        rows += [[1 if c == r else 0 for c in range(n)] for r in range(n)]
    vectors = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
    return n, rows, vectors


@settings(max_examples=200, deadline=None)
@given(quotient_problems())
def test_sparse_quotient_space_matches_dense_span(problem):
    n, rows, vectors = problem
    q, ref = QuotientSpace(n, [{c: x for c, x in enumerate(r) if x} for r in rows]), DenseQuotient(n, rows)
    assert q.free == ref.free and q.dim == len(ref.free)
    # the reduced representative of basis vector i is the unit vector at free[i]
    for i, (c, lift) in enumerate(zip(q.free, ref.lifts())):
        assert lift == [1 if k == c else 0 for k in range(n)]
        assert q.sparse_coords({c: 1}) == {i: 1}
    for v in vectors:
        sparse = q.sparse_coords({c: x for c, x in enumerate(v) if x})
        assert sparse == {i: x for i, x in enumerate(ref.to_coords(v)) if x}
        assert list(sparse) == sorted(sparse)


def test_quotient_space_edge_cases():
    empty = QuotientSpace(3)
    assert empty.free == [0, 1, 2] and empty.sparse_coords({0: 1, 1: 2, 2: 3}) == {0: 1, 1: 2, 2: 3}
    full = QuotientSpace(2, [{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert full.dim == 0 and full.free == [] and full.sparse_coords({0: 5, 1: 7}) == {}
    assert QuotientSpace(0).dim == 0
