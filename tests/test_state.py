"""State algebra: influences, bodies, membership, and the engine's body updates."""

import copy
import pickle

import pytest

from mlsim.engine import Model, ReactionResult, quiet_rule, step
from mlsim.errors import IllegalPerception, UnknownAgent
from mlsim.levels import LevelGraphSpec, validate
from mlsim.state import (
    AgentRecord,
    Body,
    LevelState,
    Percept,
    SystemState,
    bodies_of,
    body_key,
    group_by_level,
    member_levels,
)

from support import identity_reaction, influence


def make_state(bodies=(), levels=("micro",)):
    """A snapshot with one body per (agent id, level) pair in `bodies`."""
    properties = {l: {} for l in levels}
    for aid, level in bodies:
        properties[level][body_key(aid)] = Body(level)
    return SystemState(
        per_level={l: LevelState(l, properties[l]) for l in levels},
        agents={aid: AgentRecord(id=aid) for aid, _ in bodies},
    )


def step_with(state, reaction):
    """One engine step in which every level reacts with `reaction`."""
    graph = validate(LevelGraphSpec.make(list(state.per_level)))
    model = Model(graph=graph, reactions={l: reaction for l in graph.levels})
    nxt, _ = step(model, state)
    return nxt


def without_body(aid):
    def reaction(level, sigma, influences, ctx):
        sigma.pop(body_key(aid), None)
        return ReactionResult(sigma)

    return reaction


# --- member_levels -----------------------------------------------------------

def test_single_body_membership():
    state = make_state([("a1", "micro")])
    assert member_levels(state, "a1") == {"micro"}


def test_two_level_membership():
    state = make_state([("solver", "micro"), ("solver", "macro")], levels=("micro", "macro"))
    assert member_levels(state, "solver") == {"micro", "macro"}


def test_empty_membership():
    state = SystemState(per_level={"micro": LevelState("micro")}, agents={"ghost": AgentRecord("ghost")})
    assert member_levels(state, "ghost") == frozenset()


def test_member_levels_unknown_agent():
    with pytest.raises(UnknownAgent):
        member_levels(make_state(), "nobody")


def test_membership_requires_sigma_registration():
    # Membership is read from the level property map alone: a known agent
    # whose key is absent there is not a member, whatever else the map holds.
    state = make_state([("a1", "micro"), ("a2", "micro")])
    props = dict(state.per_level["micro"].properties)
    del props[body_key("a1")]
    state = SystemState(state.time, {"micro": LevelState("micro", props)}, state.agents)
    assert member_levels(state, "a1") == frozenset()
    assert member_levels(state, "a2") == {"micro"}


# --- merge -------------------------------------------------------------------

def test_merge_empty_sets():
    assert group_by_level(["micro"], [set(), set()]) == {"micro": frozenset()}


def test_merge_dedups_by_id():
    a = influence("move", "micro", "a1", uid="a1@0#0")
    b = influence("move", "micro", "a1", uid="a1@0#0")
    c = influence("move", "micro", "a2", uid="a2@0#0")
    merged = group_by_level(["micro"], [[a], [b, c]])["micro"]
    assert merged == {a, c}
    assert len(merged) == 2


def test_merge_cardinality_is_sum_minus_duplicates():
    carried = [influence("move", "micro", "old", uid=f"old#{i}") for i in range(3)]
    env = [influence("move", "micro", "env", uid="env#0")]
    agents = [influence("move", "micro", "a", uid="a#0"), carried[0]]
    merged = group_by_level(["micro"], [carried, env, agents])["micro"]
    assert len(merged) == 5


# --- bodies in the property map ----------------------------------------------

def test_register_then_member():
    state = make_state([("a1", "micro")])
    assert "micro" in member_levels(state, "a1")
    assert state.per_level["micro"].bodies()["a1"].level == "micro"


def test_register_at_two_levels():
    state = make_state([("a1", "micro"), ("a1", "macro")], levels=("micro", "macro"))
    assert member_levels(state, "a1") == {"micro", "macro"}
    for level in ("micro", "macro"):
        assert state.per_level[level].bodies() == {"a1": Body(level)}


def test_bodies_of_reads_only_body_keys():
    properties = {body_key("a1"): Body("micro"), "tasks": {}, "bodyguard": 1}
    assert bodies_of(properties) == {"a1": Body("micro")}
    assert LevelState("micro", properties).bodies() == bodies_of(properties)


def test_level_bodies_are_built_once_and_read_only():
    level_state = make_state([("a1", "micro")]).per_level["micro"]
    bodies = level_state.bodies()
    assert level_state.bodies() is bodies
    with pytest.raises(TypeError):
        bodies["a2"] = Body("micro")
    with pytest.raises(TypeError):
        del bodies["a1"]
    assert dict(bodies) == {"a1": Body("micro")}


def test_reaction_edit_shows_only_in_the_next_snapshot():
    state = make_state([("a1", "micro")])
    before = state.per_level["micro"].bodies()

    def move_a1(level, sigma, influences, ctx):
        sigma[body_key("a1")] = Body(level, {"cell": (1, 0)})
        return ReactionResult(sigma)

    nxt = step_with(state, move_a1)
    assert state.per_level["micro"].bodies() is before
    assert before == {"a1": Body("micro")}
    assert nxt.per_level["micro"].bodies() == {"a1": Body("micro", {"cell": (1, 0)})}


def test_snapshot_with_read_bodies_can_be_copied():
    state = make_state([("a1", "micro")])
    state.per_level["micro"].bodies()
    copied = copy.deepcopy(state)
    assert copied == state
    assert copied.per_level["micro"].bodies() == {"a1": Body("micro")}


def body_count(level_state):
    return len(level_state.bodies())


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obj: pickle.loads(pickle.dumps(obj))])
def test_a_copied_snapshot_rebuilds_its_caches_and_agrees(clone):
    state = step_with(make_state([("a1", "micro"), ("a2", "macro")], levels=("micro", "macro")),
                      identity_reaction)
    micro = state.per_level["micro"]
    bodies, memberships = micro.bodies(), state.memberships()
    assert micro.derived(body_count) == 1
    assert quiet_rule(micro) is identity_reaction  # the quiet reaction call of the step

    twin = clone(state)
    assert twin.memberships() == memberships == {"a1": {"micro"}, "a2": {"macro"}}

    copied = clone(micro)
    for cache in ("_bodies", "_derived"):
        assert cache not in copied.__dict__
    assert quiet_rule(copied) is None  # the copy's next tick calls its reaction
    assert copied.bodies() == bodies and copied.bodies() is copied.bodies()
    assert copied.derived(body_count) == 1


def test_remove_last_body_empties_membership():
    state = step_with(make_state([("a1", "micro")]), without_body("a1"))
    assert "a1" in state.agents
    assert member_levels(state, "a1") == frozenset()


def test_remove_agent_clears_bodies():
    def remove_a1(level, sigma, influences, ctx):
        return ReactionResult(sigma, remove=("a1",))

    state = step_with(make_state([("a1", "micro")]), remove_a1)
    assert "a1" not in state.agents
    assert body_key("a1") not in state.per_level["micro"].properties


def test_operations_do_not_mutate_input():
    state = make_state([("a1", "micro")])
    frozen = copy.deepcopy(state)
    step_with(state, without_body("a1"))
    step_with(state, identity_reaction)
    assert state == frozen
    assert state.per_level["micro"].properties.keys() == frozen.per_level["micro"].properties.keys()


# --- misc types --------------------------------------------------------------

def test_percept_blocks_out_of_scope_levels():
    percept = Percept({"micro": LevelState("micro")}, requester="a1")
    assert "micro" in percept
    assert percept.levels() == {"micro"}
    with pytest.raises(IllegalPerception):
        percept["macro"]


def test_influence_payload_access():
    inf = influence("move", "micro", "a1", uid="x", to=(1, 0), frm=(0, 0))
    assert inf.payload["to"] == (1, 0)
    assert inf.payload.get("missing", 9) == 9


def test_influence_hashable_and_frozen():
    inf = influence("move", "micro", "a1", uid="x")
    assert inf in {inf}
    with pytest.raises(Exception):
        inf.kind = "other"


def test_body_with_attrs_copies():
    b = Body("micro", {"cell": (0, 0)})
    b2 = b.with_attrs(cell=(1, 0))
    assert b.get("cell") == (0, 0)
    assert b2.get("cell") == (1, 0)
