"""Two-phase step driver: production, reaction, routing, and run control."""

import random

import pytest

from mlsim.engine import (
    BehaviorRule,
    Model,
    ReactionResult,
    StepContext,
    derived_rng,
    identity_reaction,
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
    ModelValidationError,
    ReactionFault,
)
from mlsim.hierarchy import Declarations
from mlsim.levels import LevelGraphSpec, validate
from mlsim.state import (
    AgentRecord,
    Body,
    LevelState,
    SystemState,
    body_key,
    influence,
)


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
    ctx = StepContext(7, "a1", random.Random(0))
    ids = [ctx.make("inc", "l").id for _ in range(3)]
    assert ids == ["a1@7#0", "a1@7#1", "a1@7#2"]


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
