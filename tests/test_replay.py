"""Replayed reactions: the contract a quiet call is replayed under.

A reaction call is quiet when it returns no persisted influences, spawns,
removals or events, its context made no influence, seeded no stream and read
no clock, and its level state is carried over.  The next tick does not call
the reaction again while the filtered influences echo the quiet call's
(producer, kind, class, payload in id order).  Each test steps a two-level
model and reads which ticks called the reaction of `micro`.
"""

import pytest

from mlsim.engine import BehaviorRule, Model, ReactionResult, echo_of, step
from mlsim.hierarchy import (
    ConstraintKindDecl,
    Declarations,
    HierarchicalCoupling,
    InfluenceSelector,
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
)

from support import identity_reaction, influence

TICKS = 5


class Scripted(BehaviorRule):
    """Emits `script(tick)`: a list of (kind, target level, klass, payload)."""

    def __init__(self, script):
        self.script = script

    def decide(self, internal_state, ctx):
        return [ctx.make(kind, target, klass=klass, **payload)
                for kind, target, klass, payload in self.script(ctx.tick)]


def move(**payload):
    return ("move", "micro", "ordinary", payload)


def make_model(micro_reaction, micro_script=lambda tick: [move(to=1)],
               macro_script=lambda tick: [], macro_reaction=identity_reaction,
               other_script=lambda tick: []):
    """micro <-> macro, agents `p` and `q` at micro and agent `m` at macro.
    Macro may hold micro's moves with a `hold` constraint and poke its own
    level."""
    graph = validate(LevelGraphSpec.make(
        ["micro", "macro"],
        influence_edges=[("micro", "macro"), ("macro", "micro")],
        perception_edges=[("micro", "macro"), ("macro", "micro")],
    ))
    return Model(
        graph=graph,
        behaviors={"p": Scripted(micro_script), "q": Scripted(other_script),
                   "m": Scripted(macro_script)},
        reactions={"micro": micro_reaction, "macro": macro_reaction},
        decls=Declarations(
            {"micro": frozenset({"move", "hold", "nudge"}), "macro": frozenset({"poke", "ping"})},
            couplings=(HierarchicalCoupling("micro", "macro"),),
            constraints=(ConstraintKindDecl("hold", "micro", "move"),),
        ),
    )


def initial_state(agents=()):
    return SystemState(
        per_level={
            "micro": LevelState("micro", {body_key("p"): Body("micro"),
                                          body_key("q"): Body("micro"), "n": 0}),
            "macro": LevelState("macro", {body_key("m"): Body("macro")}),
        },
        agents={aid: AgentRecord(aid) for aid in ("p", "q", "m", *agents)},
    )


def called_ticks(model, state=None, ticks=TICKS):
    """The ticks on which `micro`'s reaction was called, and the last state."""
    reaction = model.reactions["micro"]
    calls = []

    def recorded(*args):
        calls.append(len(calls))
        return reaction(*args)

    model.reactions["micro"] = recorded
    state = state or initial_state()
    called = []
    for _ in range(ticks):
        before = len(calls)
        tick = state.time
        state, _ = step(model, state)
        if len(calls) > before:
            called.append(tick)
    return called, state


def test_a_quiet_reaction_is_called_once_and_then_replayed():
    state = initial_state()
    called, final = called_ticks(make_model(identity_reaction), state)
    assert called == [0]
    assert final.time == TICKS
    assert final.per_level["micro"] is state.per_level["micro"]


def test_a_replayed_tick_keeps_the_level_state_and_its_trace():
    model = make_model(identity_reaction)
    state = initial_state()
    first, _ = step(model, state)
    second, info = step(model, first)
    assert second.per_level["micro"] is first.per_level["micro"] is state.per_level["micro"]
    assert [row["event"] for row in info.trace if row["level"] == "micro"] == ["influence"]


# --- a call that is not quiet is called again ---------------------------------------

def reads_the_clock(level, sigma, influences, ctx):
    ctx.tick
    return ReactionResult(sigma)


def seeds_the_stream(level, sigma, influences, ctx):
    ctx.rng
    return ReactionResult(sigma)


def makes_an_influence(level, sigma, influences, ctx):
    ctx.make("nudge", "micro")
    return ReactionResult(sigma)


def emits_an_event(level, sigma, influences, ctx):
    return ReactionResult(sigma, events=(("note", {}),))


def rebinds_a_property(level, sigma, influences, ctx):
    sigma["n"] = sigma["n"] + 1
    return ReactionResult(sigma)


def rebinds_an_equal_body(level, sigma, influences, ctx):
    sigma[body_key("p")] = Body("micro")  # equal to the old body, not the same
    return ReactionResult(sigma)


@pytest.mark.parametrize("reaction", [
    reads_the_clock, seeds_the_stream, makes_an_influence, emits_an_event,
    rebinds_a_property, rebinds_an_equal_body,
])
def test_a_reaction_that_is_not_quiet_is_called_every_tick(reaction):
    called, _ = called_ticks(make_model(reaction))
    assert called == list(range(TICKS))


def counting_reaction(outcome):
    """A reaction whose n-th call returns `outcome(n)` as the result's extra
    fields; the count stands in for state the test keeps outside the model."""
    calls = []

    def reaction(level, sigma, influences, ctx):
        calls.append(1)
        return ReactionResult(sigma, **outcome(len(calls) - 1))

    return reaction


def test_a_reaction_that_persists_is_called_every_tick():
    reaction = counting_reaction(lambda n: {
        "persisted": (influence("ping", "macro", "reaction:micro", uid=f"reaction:micro#{n}"),),
    })
    called, _ = called_ticks(make_model(reaction))
    assert called == list(range(TICKS))


def test_a_reaction_that_spawns_is_called_every_tick():
    reaction = counting_reaction(lambda n: {"spawn": (AgentRecord(f"x{n}"),)})
    called, state = called_ticks(make_model(reaction))
    assert called == list(range(TICKS))
    assert {f"x{n}" for n in range(TICKS)} <= set(state.agents)


def test_a_reaction_that_removes_is_called_every_tick():
    reaction = counting_reaction(lambda n: {"remove": (f"x{n}",)})
    state = initial_state(agents=[f"x{n}" for n in range(TICKS)])
    called, state = called_ticks(make_model(reaction), state)
    assert called == list(range(TICKS))
    assert not {f"x{n}" for n in range(TICKS)} & set(state.agents)


def test_the_call_after_a_spawn_is_quiet_and_then_replayed():
    """A spawn on the first call only: the second call is quiet, the rest
    are replayed."""
    reaction = counting_reaction(lambda n: {"spawn": (AgentRecord("x"),)} if n == 0 else {})
    called, _ = called_ticks(make_model(reaction))
    assert called == [0, 1]


# --- influences that do not echo the quiet call defeat the replay ---------------

def test_the_echo_reads_producer_kind_class_and_payload_in_id_order():
    def echo(*specs):
        return echo_of(frozenset(influence(kind, "micro", producer, uid, klass, **payload)
                                 for uid, producer, kind, klass, payload in specs))

    base = echo(("a@0#0", "p", "move", "ordinary", {"to": 1}),
                ("b@0#0", "q", "move", "ordinary", {"to": 2}))
    # Other ids in the same order echo the same.
    assert base == echo(("a@7#0", "p", "move", "ordinary", {"to": 1}),
                        ("b@7#0", "q", "move", "ordinary", {"to": 2}))
    assert base == (("p", "move", "ordinary", {"to": 1}), ("q", "move", "ordinary", {"to": 2}))
    for changed in [
        (("a", "q", "move", "ordinary", {"to": 1}), ("b", "q", "move", "ordinary", {"to": 2})),
        (("a", "p", "hold", "ordinary", {"to": 1}), ("b", "q", "move", "ordinary", {"to": 2})),
        (("a", "p", "move", EMERGENCE, {"to": 1}), ("b", "q", "move", "ordinary", {"to": 2})),
        (("a", "p", "move", "ordinary", {"to": 3}), ("b", "q", "move", "ordinary", {"to": 2})),
        (("b", "p", "move", "ordinary", {"to": 1}), ("a", "q", "move", "ordinary", {"to": 2})),
    ]:
        assert echo(*changed) != base


def test_another_producer_defeats_the_replay():
    called, _ = called_ticks(make_model(
        identity_reaction,
        micro_script=lambda tick: [move(to=1)] if tick < 2 else [],
        other_script=lambda tick: [move(to=1)] if tick >= 2 else []))
    assert called == [0, 2]


def test_a_changed_payload_defeats_the_replay():
    values = [1, 1, 2, 2, 2]
    called, _ = called_ticks(make_model(
        identity_reaction, micro_script=lambda tick: [move(to=values[tick])]))
    assert called == [0, 2]


def test_equal_payloads_are_replayed():
    values = [1, True, 1.0, 1, True]  # all equal, as the contract says
    called, _ = called_ticks(make_model(
        identity_reaction, micro_script=lambda tick: [move(to=values[tick])]))
    assert called == [0]


def test_an_added_or_dropped_influence_defeats_the_replay():
    counts = [1, 1, 2, 2, 1]
    called, _ = called_ticks(make_model(
        identity_reaction, micro_script=lambda tick: [move(to=i) for i in range(counts[tick])]))
    assert called == [0, 2, 4]


def test_another_kind_defeats_the_replay():
    kinds = ["move", "move", "nudge", "nudge", "move"]
    called, _ = called_ticks(make_model(
        identity_reaction,
        micro_script=lambda tick: [(kinds[tick], "micro", "ordinary", {"to": 1})]))
    assert called == [0, 2, 4]


def test_a_newly_inhibited_influence_defeats_the_replay():
    hold = ("hold", "micro", CONSTRAINT, {"selector": InfluenceSelector("move", "p")})
    model = make_model(identity_reaction, macro_script=lambda tick: [hold] if tick >= 2 else [])
    called, _ = called_ticks(model)
    assert called == [0, 2]


def test_a_persisted_influence_routed_into_a_quiet_level_defeats_the_replay():
    def macro_reaction(level, sigma, influences, ctx):
        nudges = [ctx.make("nudge", "micro") for inf in influences if inf.kind == "poke"]
        return ReactionResult(sigma, tuple(nudges))

    poke = ("poke", "macro", "ordinary", {})
    model = make_model(identity_reaction, macro_script=lambda tick: [poke] if tick == 1 else [],
                       macro_reaction=macro_reaction)
    called, _ = called_ticks(model)
    # Tick 1 replays micro, but the nudge routed to it makes a new level
    # state: tick 2 reacts to the nudge, tick 3 to its absence.
    assert called == [0, 2, 3]


def test_an_echo_is_replayed_only_for_the_reaction_that_made_it():
    state = initial_state()
    _, state = called_ticks(make_model(identity_reaction), state, ticks=2)
    called, _ = called_ticks(make_model(rebinds_a_property), state, ticks=2)
    assert called == [2, 3]
