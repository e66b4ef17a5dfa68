"""Emergence/constraint layer: inhibition filtering, and the engine's emergence
legality and macro-agent life-cycle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsim.engine import (
    BehaviorRule,
    DetectorRule,
    Model,
    ReactionResult,
    identity_reaction,
    produce_influences,
    step,
    validate_model,
)
from mlsim.errors import IllegalInfluenceTarget
from mlsim.hierarchy import (
    Declarations,
    EmergenceKindDecl,
    HierarchicalCoupling,
    InfluenceSelector,
    apply_constraints,
    merge_trapped_groups,
)
from mlsim.levels import LevelGraphSpec, validate
from mlsim.state import (
    CONSTRAINT,
    EMERGENCE,
    AgentRecord,
    Body,
    LevelState,
    SystemState,
    body_key,
    influence,
    member_levels,
)


def ordinary(kind, uid, producer="p", **payload):
    return influence(kind, "micro", producer, uid=uid, **payload)


def constraint(uid, selector, producer="macro-agent"):
    return influence("inhibit", "micro", producer, uid=uid, klass=CONSTRAINT, selector=selector)


# --- apply_constraints examples ----------------------------------------------

def test_matched_pair_filters_to_empty():
    i = ordinary("move", "i1", producer="a1")
    c = constraint("c1", InfluenceSelector(match_kind="move"))
    kept, log = apply_constraints({i, c})
    assert kept == frozenset()
    assert len(log) == 1
    assert log[0].constraint_id == "c1"
    assert log[0].inhibited_ids == ("i1",)


def test_no_constraint_is_identity():
    i = ordinary("move", "i1")
    kept, log = apply_constraints({i})
    assert kept == {i}
    assert log == ()


def test_selector_filters_by_kind():
    i1 = ordinary("move", "i1")
    i2 = ordinary("emit-repulsion", "i2")
    c = constraint("c1", InfluenceSelector(match_kind="move"))
    kept, log = apply_constraints({i1, i2, c})
    assert kept == {i2}
    assert log[0].inhibited_ids == ("i1",)


def test_selector_filters_by_producer():
    i1 = ordinary("move", "i1", producer="a1", cell=(0, 0))
    i2 = ordinary("move", "i2", producer="a2", cell=(0, 0))
    c = constraint("c1", InfluenceSelector(match_kind="move", match_producer="a1"))
    kept, _ = apply_constraints({i1, i2, c})
    assert kept == {i2}


def test_unmatched_constraint_logged_as_noop():
    c = constraint("c1", InfluenceSelector(match_kind="teleport"))
    kept, log = apply_constraints({c})
    assert kept == frozenset()
    assert log[0].inhibited_ids == ()


def test_constraints_never_match_emergence_or_constraints():
    e = influence("deadlock", "micro", "det", uid="e1", klass=EMERGENCE)
    c1 = constraint("c1", InfluenceSelector(match_kind="deadlock"))
    c2 = constraint("c2", InfluenceSelector(match_kind="inhibit"))
    kept, log = apply_constraints({e, c1, c2})
    assert kept == {e}
    assert all(record.inhibited_ids == () for record in log)


# --- inhibition equivalence property -----------------------------------------

def hash_reaction(filtered):
    """Stand-in reaction whose output is a stable digest of what it saw."""
    return hash(tuple(sorted(i.id for i in filtered)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inhibition_equivalence(data):
    kinds = ["move", "emit-repulsion", "can-serve"]
    n = data.draw(st.integers(min_value=0, max_value=12))
    pool = [
        ordinary(data.draw(st.sampled_from(kinds)), f"i{j}", producer=f"a{j % 4}")
        for j in range(n)
    ]
    target_kind = data.draw(st.sampled_from(kinds))
    i = ordinary(target_kind, "target")
    c = constraint("notI", InfluenceSelector(match_kind=target_kind))
    gamma = set(pool) | {i, c}

    with_i, _ = apply_constraints(gamma)
    without_i, _ = apply_constraints(gamma - {i})
    assert with_i == without_i
    assert hash_reaction(with_i) == hash_reaction(without_i)


# --- emergence legality on the engine path -----------------------------------

def make_model(target="macro", detector_name="det", behaviors=None):
    """micro <-> macro coupling plus a `side` level that micro cannot influence.
    Detector `det` at micro emits one deadlock emergence into `target`."""
    graph = validate(
        LevelGraphSpec.make(
            ["micro", "macro", "side"],
            influence_edges=[("micro", "macro"), ("macro", "micro")],
            perception_edges=[("micro", "macro"), ("macro", "micro")],
        )
    )

    def rule(percept, ctx):
        return [ctx.make("deadlock", target, klass=EMERGENCE, trapped=("a1", "a2"))]

    return Model(
        graph=graph,
        behaviors=behaviors or {},
        detectors={detector_name: DetectorRule(detector_name, "micro", rule)},
        reactions={l: identity_reaction for l in graph.levels},
        decls=Declarations(
            {
                "micro": frozenset({"move"}),
                "macro": frozenset({"deadlock"}),
                "side": frozenset({"deadlock"}),
            },
            couplings=(HierarchicalCoupling("micro", "macro"),),
            emergences=(EmergenceKindDecl("deadlock", "macro", detector="det"),),
            constraints=(),
        ),
    )


def three_levels(**agents):
    """Snapshot over micro/macro/side with one body per agent at its level."""
    properties = {l: {} for l in ("micro", "macro", "side")}
    for aid, level in agents.items():
        properties[level][body_key(aid)] = Body(level)
    return SystemState(
        per_level={l: LevelState(l, p) for l, p in properties.items()},
        agents={aid: AgentRecord(aid) for aid in agents},
    )


def test_detector_emergence_is_legal():
    model = make_model()
    assert validate_model(model) == []
    produced = produce_influences(model, three_levels())
    (e,) = produced.per_level["macro"]
    assert (e.producer, e.klass, e.payload["trapped"]) == ("det", EMERGENCE, ("a1", "a2"))


def test_wrong_producer_is_violation():
    class Impostor(BehaviorRule):
        def decide(self, internal_state, ctx):
            return [ctx.make("deadlock", "macro", klass=EMERGENCE)]

    model = make_model(detector_name="other")
    with pytest.raises(IllegalInfluenceTarget, match="only detector"):
        produce_influences(model, three_levels())
    model = make_model(behaviors={"m1": Impostor()})
    with pytest.raises(IllegalInfluenceTarget, match="only detector"):
        produce_influences(model, three_levels(m1="micro"))


def test_emergence_kind_in_micro_is_violation():
    model = make_model()
    model.decls = model.decls._replace(producible_kinds={
        **model.decls.producible_kinds, "micro": frozenset({"move", "deadlock"}),
    })
    issues = validate_model(model)
    assert any(
        i.code == "kind-discipline" and "must not be producible at micro level" in i.message
        for i in issues
    )


def test_reaction_persisting_an_emergence_is_violation():
    def persist_emergence(level, sigma, influences, ctx):
        return ReactionResult(sigma, persisted=(ctx.make("deadlock", "macro", klass=EMERGENCE),))

    model = make_model()
    model.detectors = {}
    model.reactions["micro"] = persist_emergence
    with pytest.raises(IllegalInfluenceTarget, match="only detector"):
        step(model, three_levels())


def test_wrong_target_level_is_violation():
    model = make_model(target="side")
    with pytest.raises(IllegalInfluenceTarget, match="allowed targets"):
        produce_influences(model, three_levels())


# --- trapped-group merging ---------------------------------------------------

def test_disjoint_groups_stay_separate():
    assert merge_trapped_groups([{"a", "b"}, {"c"}]) == [frozenset({"a", "b"}), frozenset({"c"})]


def test_overlapping_groups_merge():
    merged = merge_trapped_groups([{"a", "b"}, {"b", "c"}, {"d"}])
    assert merged == [frozenset({"a", "b", "c"}), frozenset({"d"})]


def test_merge_matches_connected_components_oracle():
    rng = random.Random(3)
    agents = [f"a{i}" for i in range(8)]
    for _ in range(50):
        groups = [
            set(rng.sample(agents, rng.randint(1, 4))) for _ in range(rng.randint(0, 5))
        ]
        merged = merge_trapped_groups(groups)
        # Oracle: iterate unions to a fixed point.
        oracle = [set(g) for g in groups]
        changed = True
        while changed:
            changed = False
            for i in range(len(oracle)):
                for j in range(i + 1, len(oracle)):
                    if oracle[i] and oracle[j] and oracle[i] & oracle[j]:
                        oracle[i] |= oracle[j]
                        oracle[j] = set()
                        changed = True
        oracle = sorted((frozenset(g) for g in oracle if g), key=sorted)
        assert merged == oracle
        for a in agents:
            assert sum(1 for g in merged if a in g) <= 1


# --- macro agent life-cycle on the engine path --------------------------------

def test_spawn_and_dissolve_macro_agent():
    def macro_reaction(level, sigma, influences, ctx):
        if ctx.tick == 0:
            sigma[body_key("solver0")] = Body(level, {"trapped": ("a1", "a2"), "since": ctx.tick})
            return ReactionResult(sigma, spawn=(AgentRecord("solver0", "solver"),))
        if ctx.tick == 2:
            return ReactionResult(sigma, remove=("solver0",))
        return ReactionResult(sigma)

    model = make_model()
    model.detectors = {}
    model.reactions["macro"] = macro_reaction
    state = three_levels()

    state, info = step(model, state)
    assert ("macro", "spawn", {"agent": "solver0", "kind": "solver"}) in info.events
    assert member_levels(state, "solver0") == {"macro"}
    assert state.per_level["macro"].bodies()["solver0"].get("trapped") == ("a1", "a2")

    state, _ = step(model, state)
    assert member_levels(state, "solver0") == {"macro"}

    state, info = step(model, state)
    assert ("macro", "dissolve", {"agent": "solver0"}) in info.events
    assert "solver0" not in state.agents
    assert state.per_level["macro"].bodies() == {}
