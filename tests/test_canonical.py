"""Every operation of the symbolic calculus returns a canonical operator.

TensorOperator.canonical, GeneratorImageTable.set and scale rely on this:
they take their inputs as canonical and do not canonicalise them again.
"""

from hypothesis import given, settings, strategies as st

from bqdim import qoperators as qo, repsoq
from bqdim.repsoq import RepSpec

from test_acceptance import SAMPLE_WORDS

EDGES = st.sampled_from(sorted(repsoq.EDGE_OPERATORS)).map(
    lambda tag: qo.elementary_tensor([repsoq.EDGE_OPERATORS[tag]]))
SCALARS = st.sampled_from([0, -1, 0.5, 2, 1j, -0.25 + 0.5j])


def _combinations(base):
    return st.recursive(base, lambda sub: st.one_of(
        st.builds(qo.add, sub, sub),
        st.builds(qo.scale, SCALARS, sub),
        st.builds(qo.compose, sub, sub),
        st.builds(qo.adjoint, sub)), max_leaves=6)


ONE_SLOT = _combinations(EDGES)
TWO_SLOT = _combinations(st.builds(qo.tensor, ONE_SLOT, ONE_SLOT))


def _is_canonical(op):
    factors = [f for _, fs in op.summands for f in fs]
    return (op.canonical().key() == op.key()
            and all(f.canonical().key() == f.key() for f in factors))


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT))
def test_calculus_returns_canonical_operators(op):
    assert _is_canonical(op)


def test_rep_table_entries_are_canonical():
    for n, words in SAMPLE_WORDS.items():
        for word in words:
            table = repsoq.rep_table(RepSpec(n, word))
            for (k, l), op in table.images.items():
                assert _is_canonical(op), (n, word, k, l)
