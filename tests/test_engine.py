"""Two-phase step driver: production, reaction, routing, and run control."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsim.cli import write_trace
from mlsim.engine import (
    BehaviorRule,
    DetectorRule,
    Model,
    ReactionResult,
    StepContext,
    derived_rng,
    produce_influences,
    react,
    run,
    step,
    validate_model,
)
from mlsim.errors import (
    IllegalInfluenceTarget,
    IllegalPerception,
    KindNotProducible,
    MlsimError,
    ModelValidationError,
    ReactionFault,
)
from mlsim.hierarchy import (
    ConstraintKindDecl,
    Declarations,
    HierarchicalCoupling,
    InfluenceSelector,
)
from mlsim.levels import LevelGraphSpec, validate
from mlsim.state import (
    AgentRecord,
    Body,
    Influence,
    LevelState,
    SystemState,
    body_key,
)

from support import identity_reaction, influence


def make_graph(levels=("l",), edges=()):
    return validate(LevelGraphSpec.make(levels, edges, edges))


def sum_reaction(level, sigma, influences, ctx):
    total = sigma.get("total", 0)
    for inf in influences:
        if inf.kind == "inc":
            total += inf.payload.get("amount", 0)
    sigma["total"] = total
    return ReactionResult(sigma)


class IncBehavior(BehaviorRule):
    """Emits one inc influence per step with a fixed amount."""

    def __init__(self, amount, target="l"):
        self.amount = amount
        self.target = target

    def decide(self, internal_state, ctx):
        return [ctx.make("inc", self.target, amount=self.amount)]


def make_state(levels=("l",), agents=()):
    properties = {l: {} for l in levels}
    for aid, level in agents:
        properties[level][body_key(aid)] = Body(level)
    return SystemState(
        per_level={l: LevelState(l, properties[l]) for l in levels},
        agents={aid: AgentRecord(id=aid) for aid, _ in agents},
    )


def make_model(graph=None, behaviors=None, reactions=None, kinds=None):
    graph = graph or make_graph()
    return Model(
        graph=graph,
        behaviors=behaviors or {},
        reactions=reactions or {l: sum_reaction for l in graph.levels},
        decls=Declarations(kinds or {l: frozenset({"inc"}) for l in graph.levels}),
    )


# --- production --------------------------------------------------------------

def test_empty_model_produces_nothing():
    produced = produce_influences(make_model(), make_state())
    assert produced.per_level == {"l": frozenset()}


def test_single_agent_union_with_carried_over():
    carried = influence("inc", "l", "old", uid="old#1", amount=5)
    state = make_state(agents=[("a1", "l")])
    state = SystemState(
        state.time,
        {"l": LevelState("l", state.per_level["l"].properties, frozenset({carried}))},
        state.agents,
    )
    model = make_model(behaviors={"a1": IncBehavior(1)})
    produced = produce_influences(model, state)
    kinds = {(i.producer, i.kind) for i in produced.per_level["l"]}
    assert kinds == {("old", "inc"), ("a1", "inc")}
    assert len(produced.per_level["l"]) == 2


def test_cross_level_partition_no_leakage():
    graph = make_graph(("micro", "macro"), [("micro", "macro"), ("macro", "micro")])
    kinds = {"micro": frozenset({"inc"}), "macro": frozenset({"inc"})}
    model = make_model(
        graph=graph,
        behaviors={"up": IncBehavior(1, target="macro"), "down": IncBehavior(2, target="micro")},
        kinds=kinds,
    )
    state = make_state(("micro", "macro"), [("up", "micro"), ("down", "macro")])
    produced = produce_influences(model, state)
    assert {i.producer for i in produced.per_level["macro"]} == {"up"}
    assert {i.producer for i in produced.per_level["micro"]} == {"down"}


def test_illegal_target_rejected():
    graph = make_graph(("a", "b"))  # no edges: N_I+(a) = {a}
    model = make_model(
        graph=graph,
        behaviors={"x": IncBehavior(1, target="b")},
        kinds={"a": frozenset({"inc"}), "b": frozenset({"inc"})},
    )
    state = make_state(("a", "b"), [("x", "a")])
    with pytest.raises(IllegalInfluenceTarget):
        produce_influences(model, state)


def test_undeclared_kind_rejected():
    model = make_model(behaviors={"x": IncBehavior(1)}, kinds={"l": frozenset()})
    state = make_state(agents=[("x", "l")])
    with pytest.raises(KindNotProducible):
        produce_influences(model, state)


def test_illegal_perception_rejected():
    class Peeker(BehaviorRule):
        def perceive(self, percept, me):
            return percept["b"]

    graph = make_graph(("a", "b"))
    model = make_model(graph=graph, behaviors={"x": Peeker()})
    state = make_state(("a", "b"), [("x", "a")])
    with pytest.raises(IllegalPerception):
        produce_influences(model, state)


# --- reaction ----------------------------------------------------------------

def test_identity_reaction_advances_clock_and_clears_influences():
    carried = influence("inc", "l", "old", uid="old#1")
    state = SystemState(per_level={"l": LevelState("l", {"k": 1}, frozenset({carried}))})
    model = make_model(reactions={"l": identity_reaction})
    nxt, _ = step(model, state)
    assert nxt.time == 1
    assert nxt.per_level["l"].properties == {"k": 1}
    assert nxt.per_level["l"].influences == frozenset()


def test_reaction_consumes_influences():
    model = make_model(behaviors={"a1": IncBehavior(3), "a2": IncBehavior(4)})
    state = make_state(agents=[("a1", "l"), ("a2", "l")])
    nxt, _ = step(model, state)
    assert nxt.per_level["l"].properties["total"] == 7


def test_reaction_fault_on_exception():
    def broken(level, sigma, influences, ctx):
        raise RuntimeError("boom")

    model = make_model(reactions={"l": broken})
    with pytest.raises(ReactionFault):
        step(model, make_state())


def test_reaction_fault_on_bad_return():
    model = make_model(reactions={"l": lambda level, sigma, infs, ctx: None})
    with pytest.raises(ReactionFault):
        step(model, make_state())


def test_duplicate_spawn_rejected():
    def respawn(level, sigma, influences, ctx):
        return ReactionResult(sigma, spawn=(AgentRecord("a1"),))

    model = make_model(reactions={"l": respawn})
    with pytest.raises(ReactionFault, match="duplicate agent 'a1'"):
        step(model, make_state(agents=[("a1", "l")]))


def test_removing_unknown_agent_rejected():
    def remove_ghost(level, sigma, influences, ctx):
        return ReactionResult(sigma, remove=("ghost",))

    with pytest.raises(ReactionFault, match="unknown agent 'ghost'"):
        step(make_model(reactions={"l": remove_ghost}), make_state())


def test_removing_agent_with_body_at_another_level_rejected():
    graph = make_graph(("a", "b"))

    def remove_at_a(level, sigma, influences, ctx):
        return ReactionResult(sigma, remove=("x",) if level == "a" else ())

    model = make_model(graph=graph, reactions={"a": remove_at_a, "b": identity_reaction})
    state = make_state(("a", "b"), [("x", "a"), ("x", "b")])
    with pytest.raises(ReactionFault, match=r"with bodies at \['b'\]"):
        step(model, state)

    def drop_from_b(level, sigma, influences, ctx):
        sigma.pop(body_key("x"), None)
        return ReactionResult(sigma)

    # Once the other level's own reaction drops the body, the removal is legal.
    model.reactions["b"] = drop_from_b
    nxt, _ = step(model, state)
    assert "x" not in nxt.agents
    assert all(l.bodies() == {} for l in nxt.per_level.values())


def test_persisted_influences_survive_into_next_gamma():
    def persist_reaction(level, sigma, influences, ctx):
        return ReactionResult(sigma, persisted=(ctx.make("inc", "l", amount=1),))

    model = make_model(reactions={"l": persist_reaction})
    nxt, _ = step(model, make_state())
    assert len(nxt.per_level["l"].influences) == 1
    (kept,) = nxt.per_level["l"].influences
    assert kept.producer == "reaction:l"


def test_persisted_cross_level_routing():
    graph = make_graph(("a", "b"), [("a", "b")])

    def persist_up(level, sigma, influences, ctx):
        return ReactionResult(sigma, persisted=(ctx.make("inc", "b"),))

    model = make_model(
        graph=graph,
        reactions={"a": persist_up, "b": sum_reaction},
        kinds={"a": frozenset({"inc"}), "b": frozenset({"inc"})},
    )
    nxt, _ = step(model, make_state(("a", "b")))
    assert nxt.per_level["a"].influences == frozenset()
    assert len(nxt.per_level["b"].influences) == 1


def test_persisted_outside_neighborhood_rejected():
    graph = make_graph(("a", "b"))

    def persist_up(level, sigma, influences, ctx):
        if level == "a":
            return ReactionResult(sigma, persisted=(ctx.make("inc", "b"),))
        return ReactionResult(sigma)

    model = make_model(
        graph=graph,
        reactions={"a": persist_up, "b": sum_reaction},
        kinds={"a": frozenset({"inc"}), "b": frozenset({"inc"})},
    )
    with pytest.raises(IllegalInfluenceTarget):
        step(model, make_state(("a", "b")))


# --- influence ids, classes and events are checked where they enter ----------

class Scripted(BehaviorRule):
    """Emits what `script(ctx)` returns."""

    def __init__(self, script):
        self.script = script

    def decide(self, internal_state, ctx):
        return self.script(ctx)


@pytest.mark.parametrize("collect_trace", [False, True])
def test_an_influence_id_that_is_not_a_str_is_rejected(collect_trace):
    """An int id next to a str id once ran untraced and raised a bare
    `TypeError` when the trace sorted them."""
    model = make_model(behaviors={"a1": Scripted(
        lambda ctx: [ctx.make("inc", "l"), influence("inc", "l", "a1", uid=7)])})
    state = make_state(agents=[("a1", "l")])
    with pytest.raises(IllegalInfluenceTarget, match="agent 'a1': influence 'inc' has id 7"):
        run(model, state, ticks=3, collect_trace=collect_trace)


def test_a_persisted_influence_id_that_is_not_a_str_is_rejected():
    def persist(level, sigma, influences, ctx):
        return ReactionResult(sigma, persisted=(influence("inc", "l", "reaction:l", uid=b"k"),))

    with pytest.raises(IllegalInfluenceTarget, match="reaction of level 'l': influence 'inc' "
                                                     "has id b'k'"):
        step(make_model(reactions={"l": persist}), make_state())


def test_a_carried_influence_id_that_is_not_a_str_is_rejected():
    carried = influence("inc", "l", "old", uid=1.5)
    state = SystemState(per_level={"l": LevelState("l", {}, frozenset({carried}))})
    with pytest.raises(IllegalInfluenceTarget, match="level 'l' of the first snapshot"):
        run(make_model(), state, ticks=1)


@pytest.mark.parametrize("field, value, error", [
    ("producer", ["x"], IllegalInfluenceTarget),
    ("target_level", ("l",), IllegalInfluenceTarget),
    ("kind", None, KindNotProducible),
    ("klass", "bogus", IllegalInfluenceTarget),
], ids=["list-producer", "tuple-target", "none-kind", "bogus-class"])
def test_a_carried_influence_gets_the_checks_of_a_produced_one(field, value, error):
    """A carried influence of producer `["x"]` once ran 2 ticks and then
    raised a bare `TypeError` in the trace writer."""
    fields = {"kind": "inc", "target_level": "l", "producer": "old", "klass": "ordinary"}
    fields[field] = value
    carried = influence(fields["kind"], fields["target_level"], fields["producer"],
                        uid="old#1", klass=fields["klass"])
    state = make_state()
    state = SystemState(0, {"l": LevelState("l", {}, frozenset({carried}))}, state.agents)
    with pytest.raises(error, match="level 'l' of the first snapshot"):
        run(make_model(), state, ticks=2, collect_trace=True)


def test_a_reaction_may_not_spawn_an_agent_named_like_a_detector():
    """Such an agent's influence ids would be the detector's; it once ran to
    the tick budget alive."""
    def spawner(level, sigma, influences, ctx):
        spawn = (AgentRecord("watch"),) if ctx.tick == 0 else ()
        return ReactionResult(sigma, spawn=spawn)

    model = make_model(reactions={"l": spawner})
    model.detectors["watch"] = DetectorRule("watch", "l", lambda percept, ctx: [])
    with pytest.raises(ReactionFault, match="spawned agent 'watch', which has the name of a"):
        run(model, make_state(), ticks=3)


class Name(str):
    """A `str` subclass: whatever takes a `str` takes it."""


NAN = float("nan")
HOSTILE = [7, None, ["x"], ("x",), {"x": 1}, NAN]


@st.composite
def entering_influences(draw, producer):
    """Influences as a producer, a reaction or a first snapshot may hand the
    engine: each legal, with its names `str`s or `Name`s, but for at most
    one field, which holds a hostile value."""
    made = []
    for k in range(draw(st.integers(0, 2))):
        name = Name if draw(st.booleans()) else str
        fields = {
            "id": name(f"{producer}#{k}"),
            "kind": name(draw(st.sampled_from(["inc", "inc", "hold"]))),
            "target_level": name(draw(st.sampled_from(["macro", "macro", "micro"]))),
            "producer": name(producer),
            "payload": draw(st.sampled_from(
                [{"amount": 1}, {"selector": InfluenceSelector("inc")}, {"selector": "inc"}])),
            "klass": name(draw(st.sampled_from(
                ["ordinary", "ordinary", "ordinary", "constraint", "emergence"]))),
        }
        for field in draw(st.sets(st.sampled_from(sorted(fields)), max_size=1)):
            fields[field] = draw(st.sampled_from(HOSTILE))
        made.append(Influence(**fields))
    return made


CYCLIC: list = []
CYCLIC.append({"k": CYCLIC})
KEYED_PAYLOADS = {
    "int-key": {7: 1}, "mixed-keys": {7: 1, "a": 2}, "tuple-key": {(1, 2): 1},
    "none-key": {None: 1}, "nested-dict": {"k": {"a": {7: 1}}},
    "dict-in-list": {"k": [1, {7: 1, "a": 2}]}, "dict-in-tuple": {"k": ({(1,): 1},)},
    "cyclic": {"k": CYCLIC},
}
ENTRY_EVENTS = st.one_of(
    st.tuples(st.sampled_from(["note", Name("note"), *HOSTILE]),
              st.sampled_from([{"k": 1}, {"k": NAN}, {"k": ["x"]}, {Name("k"): {"a": [{}]}},
                               *KEYED_PAYLOADS.values(), *HOSTILE])),
    st.sampled_from([("note",), ("note", {}, 1), ["note", {}], "note", *HOSTILE]),
)


@settings(max_examples=150, deadline=None)
@given(two_levels=st.booleans(), returned=entering_influences("a1"),
       persisted=entering_influences("reaction:macro"), events=st.lists(ENTRY_EVENTS, max_size=2),
       carried=entering_influences("old"))
@example(two_levels=False, returned=[], persisted=[], events=[],
         carried=[influence("inc", "macro", ["x"], uid="old#1")])
def test_whatever_enters_a_run_is_traced_or_rejected(tmp_path_factory, two_levels, returned,
                                                     persisted, events, carried):
    """Behaviors, reactions and a first snapshot hand the engine hostile
    values in every influence field and event: each run either writes a
    trace whose every line parses, or raises an `MlsimError`."""
    if two_levels:
        levels = ("micro", "macro")
        graph = make_graph(levels, [("micro", "macro"), ("macro", "micro")])
        decls = Declarations(
            {"micro": frozenset({"inc", "hold"}), "macro": frozenset({"inc"})},
            couplings=(HierarchicalCoupling("micro", "macro"),),
            constraints=(ConstraintKindDecl("hold", "micro", "inc"),),
        )
    else:
        levels = ("macro",)
        graph, decls = make_graph(levels), Declarations({"macro": frozenset({"inc", "hold"})})
    home = "macro"

    def reaction(level, sigma, influences, ctx):
        if level != home:
            return ReactionResult(sigma)
        return ReactionResult(sigma, persisted=tuple(persisted), events=tuple(events))

    model = Model(graph, behaviors={"a1": Scripted(lambda ctx: returned)},
                  reactions={level: reaction for level in levels}, decls=decls)
    state = make_state(levels, [("a1", home)])
    # A snapshot's influence set cannot hold an influence of unhashable id.
    held = frozenset(inf for inf in carried if not isinstance(inf.id, (list, dict)))
    state = SystemState(0, {**state.per_level,
                            home: LevelState(home, {**state.per_level[home].properties}, held)},
                        state.agents)
    try:
        result = run(model, state, ticks=3, collect_trace=True)
    except MlsimError:
        return
    path = tmp_path_factory.mktemp("entry") / "trace.jsonl"
    write_trace(path, result.trace)
    for line in path.read_text().splitlines():
        json.loads(line)


def test_an_influence_class_outside_the_three_is_rejected():
    model = make_model(behaviors={"a1": Scripted(
        lambda ctx: [ctx.make("inc", "l", klass="bogus")])})
    with pytest.raises(IllegalInfluenceTarget, match="of class 'bogus'"):
        run(model, make_state(agents=[("a1", "l")]), ticks=1, collect_trace=True)


@pytest.mark.parametrize("kind, target, error", [
    (["inc"], "l", KindNotProducible), ("inc", ["l"], IllegalInfluenceTarget),
], ids=["list-kind", "list-target"])
def test_a_kind_or_target_that_is_not_a_str_is_rejected(kind, target, error):
    """An unhashable kind or target once raised a bare `TypeError` in the
    producible-kind and target lookups."""
    model = make_model(behaviors={"a1": Scripted(lambda ctx: [ctx.make(kind, target)])})
    with pytest.raises(error):
        run(model, make_state(agents=[("a1", "l")]), ticks=1)


@pytest.mark.parametrize("producer", ["x", ["a1"]], ids=["other-name", "list"])
def test_an_influence_of_another_producer_is_rejected(producer):
    model = make_model(behaviors={"a1": Scripted(
        lambda ctx: [influence("inc", "l", producer, uid=f"a1@{ctx._tick}#0", amount=1)])})
    with pytest.raises(IllegalInfluenceTarget, match="agent 'a1' returned 'inc' of producer"):
        run(model, make_state(agents=[("a1", "l")]), ticks=1)


def test_a_detector_may_return_only_its_own_influences():
    model = make_model()
    model.detectors["watch"] = DetectorRule(
        "watch", "l", lambda percept, ctx: [influence("inc", "l", "a1", uid="a1@0#0")])
    with pytest.raises(IllegalInfluenceTarget, match="detector 'watch' returned 'inc'"):
        run(model, make_state(), ticks=1)


def test_a_persisted_influence_producer_that_is_not_a_str_is_rejected():
    """A reaction may persist any producer's influence, but a list producer
    once reached the trace writer and raised a bare `TypeError` there."""
    def persist(level, sigma, influences, ctx):
        return ReactionResult(sigma, persisted=(influence("inc", "l", ["a1"], uid="k"),))

    with pytest.raises(IllegalInfluenceTarget, match="of producer \\['a1'\\]"):
        step(make_model(reactions={"l": persist}), make_state())


def test_two_different_influences_of_one_id_are_rejected():
    """Two agents each returning a hand-built influence `same` once had the
    second dropped without a word: 3 ticks summed 3, not 33."""
    def same(amount):
        return Scripted(lambda ctx: [influence("inc", "l", ctx.producer, uid="same",
                                               amount=amount)])

    model = make_model(behaviors={"a1": same(1), "a2": same(10)})
    with pytest.raises(IllegalInfluenceTarget, match="id 'same'"):
        run(model, make_state(agents=[("a1", "l"), ("a2", "l")]), ticks=3)


def test_an_agent_with_the_name_of_a_detector_is_rejected():
    """Its influence ids would be the detector's, and one of each pair was
    dropped without a word."""
    model = make_model(behaviors={"watch": IncBehavior(1)})
    model.detectors["watch"] = DetectorRule("watch", "l", lambda percept, ctx: [])
    with pytest.raises(ModelValidationError, match="agent 'watch' has the name of a detector"):
        run(model, make_state(agents=[("watch", "l")]), ticks=1)


@pytest.mark.parametrize("event", [
    ("note",), ("note", {}, 1), ["note", {}], "note", (7, {}), ("note", None), ("note", ("id", 1)),
], ids=["one", "three", "list", "str", "int-name", "none", "tuple-payload"])
def test_a_reaction_event_that_is_not_a_str_dict_pair_is_rejected(event):
    """A non-dict payload once reached the trace writer and raised a bare
    `AttributeError` there."""
    def noisy(level, sigma, influences, ctx):
        return ReactionResult(sigma, events=(event,))

    with pytest.raises(ReactionFault, match="not a \\(str, dict\\) pair"):
        run(make_model(reactions={"l": noisy}), make_state(), ticks=1, collect_trace=True)


@pytest.mark.parametrize("payload", KEYED_PAYLOADS.values(), ids=KEYED_PAYLOADS.keys())
def test_a_reaction_event_whose_payload_has_a_key_that_is_not_a_str_is_rejected(payload):
    """Such a payload once passed the engine, and the trace writer then
    raised a bare `TypeError` (mixed or tuple keys) or wrote the keys of
    another type as strings; a payload that holds itself, a `ValueError`."""
    def noisy(level, sigma, influences, ctx):
        return ReactionResult(sigma, events=(("note", payload),))

    with pytest.raises(ReactionFault, match="holds a dict key that is not a str"):
        run(make_model(reactions={"l": noisy}), make_state(), ticks=1, collect_trace=True)


def test_a_reaction_event_may_nest_str_keyed_dicts_and_share_a_list(tmp_path):
    shared = [1, {"a": None}]
    payload = {"k": shared, "j": (shared, {"b": {"c": [shared]}})}

    def noisy(level, sigma, influences, ctx):
        return ReactionResult(sigma, events=(("note", payload),))

    result = run(make_model(reactions={"l": noisy}), make_state(), ticks=1, collect_trace=True)
    write_trace(tmp_path / "trace.jsonl", result.trace)
    (row,) = map(json.loads, (tmp_path / "trace.jsonl").read_text().splitlines())
    assert row["payload"] == json.loads(json.dumps(payload))


def test_a_reaction_persists_a_received_influence_as_a_copy_under_a_fresh_id():
    """`l`'s reaction sums what it receives and re-persists `a1`'s
    influence, which `a1` makes again on the next tick under the same id,
    `a1@0`.  Persisted as it is, the carried one and the new one would be
    one influence, and the sum would read 4 after 4 ticks, not 7."""
    persisted = []

    def repersist(level, sigma, influences, ctx):
        sigma["total"] = sigma.get("total", 0) + sum(inf.payload["amount"] for inf in influences)
        mine = ctx.make("inc", "l", amount=0)
        kept = tuple(inf for inf in influences if inf.id.startswith("a1@"))
        persisted.append(kept)
        return ReactionResult(sigma, persisted=(mine,) + kept + kept)

    model = make_model(behaviors={"a1": IncBehavior(1)}, reactions={"l": repersist})
    result = run(model, make_state(agents=[("a1", "l")]), ticks=4)
    assert result.final_state.per_level["l"].properties["total"] == 7
    carried = sorted(result.final_state.per_level["l"].influences, key=lambda inf: inf.id)
    assert [(inf.id, inf.producer, inf.payload) for inf in carried] == [
        ("reaction:l@0", "reaction:l", {"amount": 0}), ("reaction:l@1", "a1", {"amount": 1})]
    (original,) = persisted[-1]
    assert original.id == "a1@0" and carried[1].payload is original.payload
    assert (carried[1].kind, carried[1].target_level, carried[1].klass) == (
        original.kind, original.target_level, original.klass)


def test_a_reaction_persists_its_own_influences_as_they_are():
    def persist(level, sigma, influences, ctx):
        return ReactionResult(sigma, persisted=(ctx.make("inc", "l", amount=1),) * 2)

    nxt, _ = step(make_model(reactions={"l": persist}), make_state())
    (kept,) = nxt.per_level["l"].influences
    assert kept.id == "reaction:l@0"


class KeepsItsFirst:
    """Makes `inc` of `first` on its first call and keeps it; on every later
    call returns the kept one next to a fresh `inc` of 1, both `a1@0`."""

    def __init__(self, first):
        self.first = first
        self.kept = None

    def __call__(self, ctx):
        if self.kept is None:
            self.kept = ctx.make("inc", "l", amount=self.first)
            return [self.kept]
        return [self.kept, ctx.make("inc", "l", amount=1)]


@pytest.mark.parametrize("first,total", [(1, 7), (10, 43)], ids=["equal", "different"])
@pytest.mark.parametrize("as_detector", [False, True], ids=["agent", "detector"])
def test_a_producer_returns_an_influence_kept_from_an_earlier_call_as_a_copy(
        first, total, as_detector):
    """Returned as it is, the kept influence and the fresh one share the id
    `a1@0`: an equal pair was merged into one, and the sum read 4 after 4
    ticks, not 7; a different pair raised `IllegalInfluenceTarget`."""
    keeps = KeepsItsFirst(first)
    model, agents = make_model(), []
    if as_detector:
        model.detectors["a1"] = DetectorRule("a1", "l", lambda percept, ctx: keeps(ctx))
    else:
        model.behaviors["a1"] = Scripted(keeps)
        agents = [("a1", "l")]
    state = make_state(agents=agents)
    for _ in range(4):
        produced = produce_influences(model, state)
        state, _ = react(model, state, produced)
    assert state.per_level["l"].properties["total"] == total
    assert not produced.quiet
    fresh, copy = sorted(produced.per_level["l"], key=lambda inf: inf.id)
    assert (fresh.id, fresh.payload, copy.id) == ("a1@0", {"amount": 1}, "a1@1")
    assert copy is not keeps.kept and copy == Influence(
        "a1@1", "inc", "l", "a1", keeps.kept.payload, keeps.kept.klass)
    assert copy.payload is keeps.kept.payload


def test_a_producer_returns_a_kept_influence_with_a_hand_built_id_as_it_is():
    """Only an id of the `producer@<digits>` form can be one its context
    gives; a kept `a1@hand`, `a1@1x` or `a1@²` keeps its id."""
    kept = [influence("inc", "l", "a1", uid=uid, amount=1) for uid in ("a1@hand", "a1@1x", "a1@²")]
    model = make_model(behaviors={"a1": Scripted(lambda ctx: [*kept, ctx.make("inc", "l")])})
    produced = produce_influences(model, make_state(agents=[("a1", "l")]))
    assert {inf.id for inf in produced.per_level["l"]} == {"a1@hand", "a1@1x", "a1@²", "a1@0"}
    assert set(kept) <= produced.per_level["l"]


@pytest.mark.parametrize("what", ["agent", "detector"])
def test_an_agent_or_detector_named_like_a_reaction_is_rejected(what):
    """Its influence ids, `reaction:l@k`, would be those of `l`'s reaction."""
    model, agents = make_model(), []
    if what == "agent":
        model.behaviors["reaction:l"] = IncBehavior(1)
        agents = [("reaction:l", "l")]
    else:
        model.detectors["reaction:l"] = DetectorRule("reaction:l", "l", lambda percept, ctx: [])
    with pytest.raises(ModelValidationError,
                       match=f"{what} 'reaction:l' is named like a reaction"):
        run(model, make_state(agents=agents), ticks=1)


def test_a_reaction_may_not_spawn_an_agent_named_like_a_reaction():
    def spawner(level, sigma, influences, ctx):
        return ReactionResult(sigma, spawn=(AgentRecord("reaction:l"),))

    with pytest.raises(ReactionFault, match="spawned agent 'reaction:l', which is named like a"):
        run(make_model(reactions={"l": spawner}), make_state(), ticks=1)


def test_level_locality_of_reaction():
    graph = make_graph(("a", "b"))
    model = make_model(
        graph=graph,
        behaviors={"x": IncBehavior(2, target="b")},
        kinds={"a": frozenset({"inc"}), "b": frozenset({"inc"})},
    )
    state = make_state(("a", "b"), [("x", "b")])
    baseline, _ = step(model, state)

    def tracer(level, sigma, influences, ctx):
        sigma["tracer"] = True
        return ReactionResult(sigma)

    swapped = make_model(
        graph=graph,
        behaviors={"x": IncBehavior(2, target="b")},
        reactions={"a": tracer, "b": sum_reaction},
        kinds={"a": frozenset({"inc"}), "b": frozenset({"inc"})},
    )
    traced, _ = step(swapped, state)
    assert traced.per_level["b"] == baseline.per_level["b"]
    assert traced.per_level["a"].properties.get("tracer") is True


# --- snapshot isolation ------------------------------------------------------

def test_probe_sees_only_previous_step_influences():
    class Probe(BehaviorRule):
        def perceive(self, percept, me):
            return frozenset(i.id for i in percept["l"].influences)

        def memorize(self, perception, internal_state, ctx):
            return {"seen": perception}

    carried = influence("inc", "l", "old", uid="old#1")
    state = make_state(agents=[("a1", "l"), ("probe", "l")])
    state = SystemState(
        state.time,
        {"l": LevelState("l", state.per_level["l"].properties, frozenset({carried}))},
        state.agents,
    )
    model = make_model(behaviors={"a1": IncBehavior(1), "probe": Probe()})
    nxt, _ = step(model, state)
    assert nxt.agents["probe"].internal_state == {"seen": frozenset({"old#1"})}


# --- determinism / ordering --------------------------------------------------

def test_producer_order_independence():
    agents = [(f"a{i}", "l") for i in range(6)]
    model = make_model(behaviors={aid: IncBehavior(i) for i, (aid, _) in enumerate(agents)})
    forward = make_state(agents=agents)
    backward = make_state(agents=list(reversed(agents)))
    s1, s2 = forward, backward
    for _ in range(5):
        s1, _ = step(model, s1, seed=3)
        s2, _ = step(model, s2, seed=3)
    assert s1 == s2


def test_step_is_deterministic_under_seed():
    class RandomInc(BehaviorRule):
        def decide(self, internal_state, ctx):
            return [ctx.make("inc", "l", amount=ctx.rng.randint(0, 100))]

    model = make_model(behaviors={"a1": RandomInc(), "a2": RandomInc()})
    state = make_state(agents=[("a1", "l"), ("a2", "l")])
    a, _ = step(model, state, seed=42)
    b, _ = step(model, state, seed=42)
    c, _ = step(model, state, seed=43)
    assert a == b
    assert a.per_level["l"].properties != c.per_level["l"].properties or a == c


def test_derived_rng_is_stable_and_keyed():
    assert derived_rng(1, "a", 0).random() == derived_rng(1, "a", 0).random()
    assert derived_rng(1, "a", 0).random() != derived_rng(1, "b", 0).random()
    assert derived_rng(1, "a", 0).random() != derived_rng(2, "a", 0).random()


def test_step_context_ids_are_unique_per_producer():
    """An id is the producer and the count of the context's makes before
    it; the tick is not in it."""
    ids = [[ctx.make("inc", "l").id for _ in range(3)]
           for ctx in (StepContext(7, "a1", random.Random(0)), StepContext(8, "a1"))]
    assert ids == [["a1@0", "a1@1", "a1@2"]] * 2


def test_step_context_seeds_its_rng_on_first_read(monkeypatch):
    import mlsim.engine as engine

    built = []

    def counting_rng(*key):
        built.append(key)
        return derived_rng(*key)

    monkeypatch.setattr(engine, "derived_rng", counting_rng)
    ctx = StepContext(3, "a1", rng_key=(7, "a1", 3))
    ctx.make("inc", "l")
    assert built == []
    first = ctx.rng
    assert ctx.rng is first
    assert built == [(7, "a1", 3)]
    expected = derived_rng(7, "a1", 3)
    assert [first.random() for _ in range(3)] == [expected.random() for _ in range(3)]


def test_step_context_uses_a_given_rng_as_is():
    rng = random.Random(0)
    assert StepContext(0, "a1", rng).rng is rng


def test_step_seeds_only_the_streams_that_are_read(monkeypatch):
    import mlsim.engine as engine

    class RandomInc(BehaviorRule):
        def decide(self, internal_state, ctx):
            return [ctx.make("inc", "l", amount=ctx.rng.randint(0, 100))]

    built = []

    def counting_rng(*key):
        built.append(key)
        return derived_rng(*key)

    monkeypatch.setattr(engine, "derived_rng", counting_rng)
    model = make_model(behaviors={"a1": IncBehavior(2), "a2": RandomInc()})
    state = make_state(agents=[("a1", "l"), ("a2", "l")])
    nxt, _ = step(model, state, seed=5)
    assert built == [(5, "a2", 0)]
    assert nxt.per_level["l"].properties["total"] == 2 + derived_rng(5, "a2", 0).randint(0, 100)


# --- run ---------------------------------------------------------------------

def test_run_one_tick_equals_step():
    model = make_model(behaviors={"a1": IncBehavior(2)})
    state = make_state(agents=[("a1", "l")])
    direct, _ = step(model, state, seed=0)
    result = run(model, state, ticks=1, seed=0)
    assert result.final_state == direct
    assert result.stop_reason == "tick-budget"


def test_run_termination_predicate_stops_early():
    model = make_model(behaviors={"a1": IncBehavior(1)})
    state = make_state(agents=[("a1", "l")])

    def done(s):
        return s.per_level["l"].properties.get("total", 0) >= 3

    done.__name__ = "enough"
    result = run(model, state, ticks=100, termination=done)
    assert result.stop_reason == "termination:enough"
    assert result.final_state.time == 3


def test_run_metrics_deterministic():
    model = make_model(behaviors={"a1": IncBehavior(1)})
    state = make_state(agents=[("a1", "l")])

    def metric(tick, s, info):
        return {"tick": tick, "total": s.per_level["l"].properties.get("total", 0)}

    r1 = run(model, state, ticks=5, seed=9, metrics=metric)
    r2 = run(model, state, ticks=5, seed=9, metrics=metric)
    assert r1.records == r2.records
    assert [row["total"] for row in r1.records] == [1, 2, 3, 4, 5]


def test_run_rejects_nonpositive_ticks():
    with pytest.raises(ValueError):
        run(make_model(), make_state(), ticks=0)


def test_run_validates_model():
    model = make_model()
    model.reactions = {}
    with pytest.raises(ModelValidationError) as err:
        run(model, make_state(), ticks=1)
    assert [(i.code, i.message) for i in err.value.errors] == [
        ("reference", "level 'l' has no reaction rule")
    ]


def test_a_model_without_declarations_gets_its_own_empty_ones():
    graph = make_graph()
    first, second = Model(graph=graph), Model(graph=graph)
    assert first.decls == Declarations({})
    assert first.decls.producible_kinds is not second.decls.producible_kinds


def test_validate_model_reports_missing_coupling_edges():
    from mlsim.hierarchy import HierarchicalCoupling

    model = make_model(graph=make_graph(("a", "b")))
    model.decls = model.decls._replace(couplings=(HierarchicalCoupling("a", "b"),))
    issues = validate_model(model)
    assert any(
        i.code == "coupling-edges" and "requires influence edge" in i.message for i in issues
    )
