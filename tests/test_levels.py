"""Level graph: validation, normalization, and the four neighborhood queries.

The brute-force oracle evaluates the neighborhood set definitions directly
(reflexive closure over raw edge membership) and is kept independent of the
precomputed tables in the implementation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim.errors import EmptyLevelSet, SelfLoopEdge, UnknownLevel, UnknownLevelEndpoint
from mlsim.levels import LevelGraphSpec, validate


def oracle_out(levels, edges, l):
    return {l} | {b for a, b in edges if a == l}


def oracle_in(levels, edges, l):
    return {l} | {a for a, b in edges if b == l}


# --- worked examples ---------------------------------------------------------

def test_perception_edge_valid_no_warnings():
    g = validate(LevelGraphSpec.make(["l", "lp"], perception_edges=[("l", "lp")]))
    assert g.out_perception("l") == {"l", "lp"}
    assert g.out_perception("lp") == {"lp"}


@pytest.mark.parametrize("edges", [{"influence_edges": [("l", "l")]},
                                   {"perception_edges": [("l", "lp"), ("lp", "lp")]}],
                         ids=["influence", "perception"])
def test_self_loop_rejected(edges):
    with pytest.raises(SelfLoopEdge, match="intra-level relations are implicit"):
        validate(LevelGraphSpec.make(["l", "lp"], **edges))


def test_dangling_endpoint_rejected():
    with pytest.raises(UnknownLevelEndpoint):
        validate(LevelGraphSpec.make(["l"], influence_edges=[("l", "x")]))


def test_every_dangling_edge_is_named_in_sorted_order():
    spec = LevelGraphSpec.make(["a", "b"], influence_edges=[("y", "a"), ("a", "b"), ("b", "z")],
                               perception_edges=[("x", "w")])
    with pytest.raises(UnknownLevelEndpoint) as exc:
        validate(spec)
    assert str(exc.value) == (
        "influence edge (b, z) references unknown level 'z'; "
        "influence edge (y, a) references unknown level 'y'; "
        "perception edge (x, w) references unknown levels 'x', 'w'"
    )


def test_empty_level_set_rejected():
    with pytest.raises(EmptyLevelSet):
        validate(LevelGraphSpec.make([]))


def test_micro_macro_out_influence():
    g = validate(
        LevelGraphSpec.make(["micro", "macro"], influence_edges=[("micro", "macro"), ("macro", "micro")])
    )
    assert g.out_influence("micro") == {"micro", "macro"}


def test_reflexive_singleton():
    g = validate(LevelGraphSpec.make(["l"]))
    assert g.out_influence("l") == {"l"}
    assert g.in_influence("l") == {"l"}
    assert g.out_perception("l") == {"l"}
    assert g.in_perception("l") == {"l"}


def test_in_influence_one_directed_edge():
    g = validate(LevelGraphSpec.make(["micro", "macro"], influence_edges=[("micro", "macro")]))
    assert g.in_influence("macro") == {"macro", "micro"}
    assert g.in_influence("micro") == {"micro"}


def test_empty_perception_relation_is_reflexive_everywhere():
    g = validate(LevelGraphSpec.make(["a", "b", "c"]))
    for l in ("a", "b", "c"):
        assert g.out_perception(l) == {l}
        assert g.in_perception(l) == {l}


def test_unknown_level_query_raises():
    g = validate(LevelGraphSpec.make(["a"]))
    with pytest.raises(UnknownLevel):
        g.out_influence("zz")


# --- property tests ----------------------------------------------------------

def graphs(max_levels=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_levels))
        levels = [f"L{i}" for i in range(n)]
        pairs = [(a, b) for a in levels for b in levels if a != b]
        e_i = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        e_p = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return levels, e_i, e_p

    return build()


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_neighborhoods_match_brute_force(graph):
    levels, e_i, e_p = graph
    g = validate(LevelGraphSpec.make(levels, e_i, e_p))
    ei, ep = set(e_i), set(e_p)
    for l in levels:
        assert g.out_influence(l) == oracle_out(levels, ei, l)
        assert g.in_influence(l) == oracle_in(levels, ei, l)
        assert g.out_perception(l) == oracle_out(levels, ep, l)
        assert g.in_perception(l) == oracle_in(levels, ep, l)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_reflexivity_and_duality(graph):
    levels, e_i, e_p = graph
    g = validate(LevelGraphSpec.make(levels, e_i, e_p))
    for l in levels:
        assert l in g.out_influence(l)
        assert l in g.in_influence(l)
        assert l in g.out_perception(l)
        assert l in g.in_perception(l)
    for l in levels:
        for lp in levels:
            assert (lp in g.out_influence(l)) == (l in g.in_influence(lp))
            assert (lp in g.out_perception(l)) == (l in g.in_perception(lp))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_normalization_idempotent(graph):
    levels, e_i, e_p = graph
    once = validate(LevelGraphSpec.make(levels, e_i, e_p))
    twice = validate(once.spec)
    assert twice.spec == once.spec


def test_random_large_graphs_against_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        levels = [f"L{i}" for i in range(n)]
        pairs = [(a, b) for a in levels for b in levels if a != b]
        e_i = set(rng.sample(pairs, rng.randint(0, len(pairs)))) if pairs else set()
        e_p = set(rng.sample(pairs, rng.randint(0, len(pairs)))) if pairs else set()
        g = validate(LevelGraphSpec.make(levels, e_i, e_p))
        for l in levels:
            assert g.out_influence(l) == oracle_out(levels, e_i, l)
            assert g.in_influence(l) == oracle_in(levels, e_i, l)
            assert g.out_perception(l) == oracle_out(levels, e_p, l)
            assert g.in_perception(l) == oracle_in(levels, e_p, l)
