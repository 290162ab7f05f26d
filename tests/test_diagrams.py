"""Diagram layers, path enumeration, the path-sum/convolution equivalence,
embedding maps and DOT output."""

import pytest

from bqdim import diagrams, qoperators as qo, repsoq, weylb
from bqdim.diagrams import (
    Diagram,
    EmbeddingMap,
    diagram_for,
    embedding_chain,
    embedding_step,
    layer,
    path_sum,
    paths,
    render_dot,
    verify_embedding,
)

from conftest import all_elements

Q = 0.5


def test_layer_low_reflection():
    ly = layer(("elementary", 1), 2)
    nontrivial = {(a, b) for a, b, p in ly.edges if p.tag != "id"}
    assert nontrivial == {(1, 1), (1, 2), (2, 1), (2, 2),
                          (4, 4), (4, 5), (5, 4), (5, 5)}
    assert {a for a, b, p in ly.edges if p.tag == "id"} == {3}


def test_layer_middle_reflection():
    ly = layer(("elementary", 2), 2)
    block = [(a, b) for a, b, p in ly.edges if p.tag != "id"]
    assert len(block) == 9
    assert all(a in (2, 3, 4) and b in (2, 3, 4) for a, b in block)


def test_layer_realizations_match_table():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            ly = layer(("elementary", i), n)
            table = repsoq.elementary_table(i, n)
            for a, b, prim in ly.edges:
                realized = qo.elementary_tensor([prim.realize()])
                assert realized == table.entry(a, b), (n, i, a, b)
            # edges exist exactly at the nonzero entries
            assert {(a, b) for a, b, _ in ly.edges} == set(table.images)


def test_torus_layer():
    ly = layer(("torus", (1.0, 1.0)), 2)
    assert len(ly.edges) == 5
    assert all(a == b for a, b, _ in ly.edges)
    assert all(p.realize() == 1.0 for _, _, p in ly.edges)


def test_concatenate_counts():
    assert diagram_for(repsoq.RepSpec(3, (1, 2, 3, 2, 1))).layers[1:] == \
        tuple(layer(("elementary", i), 3) for i in (1, 2, 3, 2, 1))


def test_single_identity_layer_paths():
    d = Diagram((layer(("torus", (1.0, 1.0, 1.0)), 3),))
    assert paths(d, 4, 4) == [(4, 4)]
    assert paths(d, 4, 5) == []


def test_five_letter_word_path_counts():
    d = diagram_for(repsoq.RepSpec(3, (1, 2, 3, 2, 1)))
    assert len(paths(d, 1, 3)) == 2
    # the chain of raising corner edges connects node 1 to the top node
    assert len(paths(d, 1, 7)) == 1
    T = repsoq.rep_table(repsoq.RepSpec(3, (1, 2, 3, 2, 1)))
    expected = qo.elementary_tensor([qo.q_power(2, 2)] * 5)
    assert T.entry(1, 7) == expected


def test_zero_pattern_matches_paths():
    spec = repsoq.RepSpec(2, (1, 2))
    d = diagram_for(spec)
    T = repsoq.rep_table(spec)
    for k in range(1, 6):
        for l in range(1, 6):
            has_path = bool(paths(d, k, l))
            assert has_path == ((k, l) in T.images)
            if not has_path:
                assert path_sum(d, k, l).is_zero()


@pytest.mark.parametrize("n,max_len", [(1, 5), (2, 5), (3, 5)])
def test_path_sum_equals_convolution(n, max_len):
    """The central consistency check: path sums reproduce every table entry."""
    for w in all_elements(n):
        if weylb.length(w) > max_len:
            continue
        word = weylb.normal_form(w).word()
        spec = repsoq.RepSpec(n, word)
        d = diagram_for(spec)
        T = repsoq.rep_table(spec)
        for k in range(1, 2 * n + 2):
            for l in range(1, 2 * n + 2):
                assert path_sum(d, k, l) == T.entry(k, l), \
                    (n, word, k, l)


def test_path_sum_window_agreement_spotcheck():
    spec = repsoq.RepSpec(2, (1, 2, 1, 2))
    d = diagram_for(spec)
    T = repsoq.rep_table(spec)
    for k, l in [(1, 1), (1, 3), (3, 3), (5, 1), (2, 4)]:
        assert qo.max_window_deviation(path_sum(d, k, l), T.entry(k, l),
                                       3, Q) < 1e-8


def test_embedding_step_cases():
    # empty following part: the identity map
    w = weylb.from_word((2,), 2)          # parts: (2,), ()
    emb = embedding_step(weylb.parts(w), 1, 2)
    assert emb.mapping == {2: 2, 3: 3, 4: 4}
    # single occurrences move the window outwards
    w = weylb.from_word((2, 1, 2), 2)     # parts: (2,), (1, 2)
    emb = embedding_step(weylb.parts(w), 1, 2)
    assert emb.mapping == {2: 1, 3: 3, 4: 5}
    # double occurrences keep every window node fixed
    w = weylb.from_word((3, 1, 2, 3, 2, 1), 3)
    pw = weylb.parts(w)
    assert pw[2] == (1, 2, 3, 2, 1)
    emb = embedding_step(pw, 2, 3)
    assert emb.mapping == {j: j for j in range(2, 7)}
    # single occurrences push the window outwards on both sides
    w = weylb.from_word((1, 2), 3)
    pw = weylb.parts(w)
    assert pw == [(), (), (1, 2)]
    emb = embedding_step(pw, 2, 3)
    assert emb.mapping == {2: 1, 3: 2, 4: 4, 5: 6, 6: 7}


def test_compose_embeddings():
    w = weylb.from_word((3, 2, 3, 1, 2, 3, 2, 1), 3)
    pw = weylb.parts(w)
    m1 = embedding_step(pw, 1, 3)
    m2 = embedding_step(pw, 2, 3)
    comp = diagrams.compose_embeddings([m1, m2])
    for j in diagrams.node_window(comp.n, comp.k):
        assert comp(j) == m2(m1(j))
    with pytest.raises(ValueError):
        diagrams.compose_embeddings([m2, m1])


@pytest.mark.parametrize("word", [(2, 1, 2), (1, 2, 1), (2, 1, 2, 1)])
def test_verify_embedding_small(word):
    w = weylb.from_word(word, 2)
    emb = embedding_step(weylb.parts(w), 1, 2)
    rep = verify_embedding(w, 1, 1, emb, Q)
    assert rep.ok, rep.failures
    assert all(abs(c) > 1e-8 for c in rep.constants.values())


def test_verify_embedding_negative_control():
    w = weylb.from_word((2, 1, 2), 2)
    emb = embedding_step(weylb.parts(w), 1, 2)
    bad = dict(emb.mapping)
    bad[2] = emb.mapping[2] + 1
    rep = verify_embedding(w, 1, 1, EmbeddingMap(2, 1, 1, bad), Q)
    assert not rep.ok


def test_embedding_chain_depth_n_is_identity():
    w = weylb.from_word((1, 2, 1), 2)
    emb = embedding_chain(w, 2)
    assert all(emb(j) == j for j in diagrams.node_window(emb.n, emb.k))


def test_embedding_sweep_whole_rank_three_group():
    """Vacuum conditions hold for every element, including the longest."""
    for w in all_elements(3):
        pw = weylb.parts(w)
        steps = {i: embedding_step(pw, i, 3) for i in (1, 2)}
        cases = {(1, 1): steps[1], (2, 1): steps[2],
                 (1, 2): diagrams.compose_embeddings([steps[1], steps[2]])}
        for (k, l), emb in cases.items():
            rep = verify_embedding(w, k, l, emb, Q)
            assert rep.ok, (w.images, k, l, rep.failures[:2])


def test_render_dot():
    d = Diagram((layer(("elementary", 2), 2),))
    text = render_dot(d)
    assert text.startswith("digraph")
    assert text.count("L") >= 5 and text.count("R") >= 5
    assert text == render_dot(d)          # deterministic
    d5 = diagram_for(repsoq.RepSpec(3, (1, 2, 3, 2, 1)))
    text5 = render_dot(d5)
    assert "M1_1" in text5 and "M5_7" in text5
    assert text5.endswith("}\n")
