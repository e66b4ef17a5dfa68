"""Replayed reactions and frozen ticks: the contracts a quiet call is
replayed under.

A reaction call is quiet when it returns no persisted influences, spawns,
removals or events, its context made no influence, seeded no stream and read
no clock, and its level state is carried over.  After a quiet call on no
filtered influences, the next tick does not call the reaction again while the
level receives none and its rule is the same.  A tick whose producer calls
are all quiet, whose reactions are all replayed or quiet, and which keeps
every level state and the agent map is frozen: the next tick replays its
step whole.  Each test steps a two-level model and reads which ticks called
the reaction of `micro`, or, in the last part, which ticks called a producer
and which were replayed whole.
"""

import copy
import pickle

import pytest

from mlsim import engine
from mlsim.engine import BehaviorRule, DetectorRule, Model, ReactionResult, run, step
from mlsim.hierarchy import (
    ConstraintKindDecl,
    Declarations,
    HierarchicalCoupling,
    InfluenceSelector,
    InhibitionRecord,
)
from mlsim.levels import LevelGraphSpec, validate
from mlsim.state import (
    CONSTRAINT,
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


def make_model(micro_reaction, micro_script=lambda tick: [],
               macro_script=lambda tick: [], macro_reaction=identity_reaction,
               other_script=lambda tick: []):
    """micro <-> macro, agents `p` and `q` at micro and agent `m` at macro.
    Macro may hold micro's moves with a `hold` constraint and poke its own
    level.  Every agent reads the clock, so no tick is frozen."""
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
    poke = ("poke", "macro", "ordinary", {})
    model = make_model(identity_reaction, macro_script=lambda tick: [poke])
    state = initial_state()
    first, _ = step(model, state)
    second, info = step(model, first)
    assert second.per_level["micro"] is first.per_level["micro"] is state.per_level["micro"]
    assert [(row["level"], row["event"]) for row in info.trace] == [("macro", "influence")]


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


# --- a level that receives an influence is called --------------------------------

def test_a_quiet_call_on_no_influences_is_replayed_while_the_level_receives_none():
    """Tick 0 sees a move and records nothing; tick 1 sees none and records
    its quiet call, which ticks 2 and 4 replay.  The call on tick 3's move
    keeps the level state and so the record."""
    called, _ = called_ticks(make_model(
        identity_reaction, micro_script=lambda tick: [move(to=1)] if tick in (0, 3) else []))
    assert called == [0, 1, 3]


# Influences that are the same on every tick, or that differ from tick to tick.
SCRIPTS = {
    "same-move": lambda tick: [move(to=1)],
    "another-producer": lambda tick: [move(to=1)] if tick < 2 else [],
    "changed-payload": lambda tick: [move(to=[1, 1, 2, 2, 2][tick])],
    "equal-payloads": lambda tick: [move(to=[1, True, 1.0, 1, True][tick])],
    "added-or-dropped": lambda tick: [move(to=i) for i in range([1, 1, 2, 2, 1][tick])],
    "another-kind": lambda tick: [(["move", "move", "nudge", "nudge", "move"][tick], "micro",
                                   "ordinary", {"to": 1})],
}


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS.keys())
def test_any_filtered_influence_calls_the_reaction(script):
    """`p` sends `script`, and `q` sends a move from tick 2 on: micro
    receives an influence on every tick."""
    called, _ = called_ticks(make_model(
        identity_reaction, micro_script=script,
        other_script=lambda tick: [move(to=1)] if tick >= 2 else []))
    assert called == list(range(TICKS))


def test_a_level_whose_every_influence_is_inhibited_is_replayed():
    """Macro holds `p`'s moves from tick 1 on: tick 1 filters them all out
    and records its call, which the later ticks replay with the same log."""
    hold = ("hold", "micro", CONSTRAINT, {"selector": InfluenceSelector("move", "p")})
    model = make_model(identity_reaction, micro_script=lambda tick: [move(to=1)],
                       macro_script=lambda tick: [hold] if tick >= 1 else [])
    called, state = called_ticks(model)
    assert called == [0, 1]
    _, info = step(model, state)
    tick = state.time
    assert info.inhibitions["micro"] == (InhibitionRecord(f"m@{tick}#0", (f"p@{tick}#0",)),)


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


def test_a_swapped_reaction_is_called():
    state = initial_state()
    _, state = called_ticks(make_model(identity_reaction), state, ticks=2)
    called, _ = called_ticks(make_model(rebinds_a_property), state, ticks=2)
    assert called == [2, 3]


# --- frozen ticks -----------------------------------------------------------------
#
# A producer call is quiet when its context seeded no stream and read no clock,
# it returned only influences that context made, and (for an agent) `memorize`
# returned the record's internal state itself.  When every call of a tick is
# quiet and the tick keeps every level state and the agent map, the next tick
# re-issues its influences under its own ids instead of calling any producer.

class Steady(BehaviorRule):
    """Emits `script(ctx)` every tick, keeps its internal state, and counts
    the ticks it was called on (outside the model, as a test's probe)."""

    def __init__(self, script=lambda ctx: [ctx.make("move", "micro", to=1)]):
        self.script = script
        self.calls = []

    def memorize(self, perception, internal_state, ctx):
        self.calls.append(ctx._tick)  # the private value: no clock read
        return internal_state

    def decide(self, internal_state, ctx):
        return self.script(ctx)


def silent(ctx):
    return []


def producer_model(p=None, **changes):
    """`make_model` with the quiet identity reactions, `q` and `m` quiet and
    silent, and `p` the producer under test."""
    model = make_model(identity_reaction, **changes)
    model.behaviors.update(p=p if p is not None else Steady(), q=Steady(silent),
                           m=Steady(silent))
    return model


def stepped(model, state=None, ticks=TICKS):
    """The last state and each tick's produced influences at `micro`."""
    state = state or initial_state()
    produced = []
    for _ in range(ticks):
        state, info = step(model, state)
        produced.append(info.produced["micro"])
    return state, produced


def test_a_quiet_producer_is_called_once_and_then_replayed():
    p = Steady()
    _, produced = stepped(producer_model(p))
    assert p.calls == [0]
    assert [sorted(inf.id for inf in infs) for infs in produced] == [
        [f"p@{tick}#0"] for tick in range(TICKS)
    ]
    first, last = (next(iter(infs)) for infs in (produced[0], produced[-1]))
    assert (last.kind, last.target_level, last.klass, last.producer) == (
        first.kind, first.target_level, first.klass, first.producer)
    assert last.payload is first.payload


def test_a_replayed_producer_keeps_its_record_and_the_agent_map():
    model = producer_model()
    state = initial_state()
    first, _ = step(model, state)
    second, _ = step(model, first)
    assert second.agents is first.agents
    assert second.agents["p"] is state.agents["p"]


def reads_the_tick(ctx):
    ctx.tick
    return [ctx.make("move", "micro", to=1)]


def seeds_the_rng(ctx):
    ctx.rng
    return [ctx.make("move", "micro", to=1)]


def built_by_hand(ctx):
    return [influence("move", "micro", "p", uid=f"p@hand#{ctx._tick}", to=1)]


class KeepsItsFirstInfluence:
    """Makes one influence on its first call, which reads the clock, and
    returns that same influence on every later call."""

    def __init__(self):
        self.kept = None

    def __call__(self, ctx):
        if self.kept is None:
            ctx.tick
            self.kept = ctx.make("move", "micro", to=1)
        return [self.kept]


class RemembersAnEqualCopy(Steady):
    def memorize(self, perception, internal_state, ctx):
        super().memorize(perception, internal_state, ctx)
        return dict(internal_state or {})  # equal to the held state, not it


@pytest.mark.parametrize("p", [
    Steady(reads_the_tick), Steady(seeds_the_rng), Steady(built_by_hand),
    Steady(KeepsItsFirstInfluence()), RemembersAnEqualCopy(),
], ids=["reads-tick", "seeds-rng", "built-by-hand", "keeps-an-influence", "equal-copy"])
def test_a_producer_that_is_not_quiet_is_called_every_tick(p):
    stepped(producer_model(p))
    assert p.calls == list(range(TICKS))


def test_a_memorize_that_keeps_its_state_is_replayed():
    p = Steady()
    state = initial_state()
    state.agents["p"] = AgentRecord("p", internal_state={"seen": 1})
    stepped(producer_model(p), state)
    assert p.calls == [0]


class NudgesWhileLow(Steady):
    """Nudges micro while its property `n` is below 2, without a clock read."""

    def __init__(self):
        super().__init__(lambda ctx: [ctx.make("nudge", "micro")] if self.low else [])

    def perceive(self, percept, me):
        self.low = percept["micro"].properties["n"] < 2
        return percept


def test_a_changed_perceived_level_defeats_the_replay():
    """`q` nudges micro while `n` is below 2, and micro's reaction rebinds
    `n` on a nudge: the snapshots after ticks 0 and 1 hold a new micro level
    state, so ticks 1 and 2 step and tick 2 is the first frozen one."""
    def micro_reaction(level, sigma, influences, ctx):
        if any(inf.kind == "nudge" for inf in influences):
            sigma["n"] = sigma["n"] + 1
        return ReactionResult(sigma)

    p = Steady()
    model = producer_model(p)
    model.behaviors["q"] = NudgesWhileLow()
    model.reactions["micro"] = micro_reaction
    assert replayed_ticks(model) == [3, 4]
    assert p.calls == [0, 1, 2]


def test_a_swapped_rule_is_called_again():
    p = Steady()
    model = producer_model(p)
    state, _ = stepped(model, ticks=2)
    model.behaviors["p"] = swapped = Steady()
    stepped(model, state, ticks=3)
    assert p.calls == [0]
    assert swapped.calls == [2]


def test_a_new_record_is_called_again():
    """A successor that keeps every level state but gives `p` another record
    does not hold the frozen step: `p` is called for the new record."""
    p = Steady()
    model = producer_model(p)
    state, _ = stepped(model, ticks=2)
    renewed = state.successor(state.per_level, {
        **state.agents, "p": AgentRecord("p", internal_state={"renewed": True})})
    assert "_held_step" in state.__dict__ and "_held_step" not in renewed.__dict__
    stepped(model, renewed, ticks=3)
    assert p.calls == [0, 3]


def test_swapped_declarations_defeat_the_replay():
    p = Steady()
    model = producer_model(p)
    state, _ = stepped(model, ticks=2)
    model.decls = model.decls._replace(couplings=())
    stepped(model, state, ticks=3)
    assert p.calls == [0, 2]


def test_a_replay_keeps_the_ids_of_the_influences_it_returns():
    """A producer that makes three influences and returns the first and the
    last: the replay numbers them #0 and #2, as a call would."""
    def drops_its_second(ctx):
        made = [ctx.make("move", "micro", to=k) for k in range(3)]
        return [made[0], made[2]]

    p = Steady(drops_its_second)
    _, produced = stepped(producer_model(p))
    assert p.calls == [0]
    for tick, infs in enumerate(produced):
        assert sorted((inf.id, inf.payload["to"]) for inf in infs) == [
            (f"p@{tick}#0", 0), (f"p@{tick}#2", 2)]


def test_a_quiet_detector_is_replayed_and_a_clock_reading_one_is_not():
    """A clock-reading detector keeps every tick from freezing, so the quiet
    detector beside it is called every tick too."""
    calls = {"quiet": [], "clock": []}

    def detector(name, reads_clock):
        def rule(percept, ctx):
            calls[name].append(ctx._tick)
            if reads_clock:
                ctx.tick
            return [ctx.make("ping", "macro")]

        return DetectorRule(name, "micro", rule)

    for names in (["quiet"], ["quiet", "clock"]):
        model = producer_model()
        model.detectors = {name: detector(name, name == "clock") for name in names}
        state = initial_state()
        for tick in range(TICKS):
            state, info = step(model, state)
            assert {inf.id for inf in info.produced["macro"]} == {
                f"{name}@{tick}#0" for name in names}
    assert calls == {"quiet": [0] + list(range(TICKS)), "clock": list(range(TICKS))}


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_snapshot_starts_without_the_production_record(clone):
    p = Steady()
    model = producer_model(p)
    state, _ = stepped(model, ticks=2)
    assert "_held_step" in state.__dict__
    twin = clone(state)
    assert "_held_step" not in twin.__dict__
    assert twin == state
    assert not step(model, twin)[1].replayed
    assert p.calls == [0, 2]


# --- a frozen tick is replayed whole ------------------------------------------------

def replayed_ticks(model, state=None, ticks=TICKS):
    """The ticks whose step was a held frozen step, replayed whole."""
    state = state or initial_state()
    replayed = []
    for _ in range(ticks):
        tick = state.time
        state, info = step(model, state)
        if info.replayed:
            replayed.append(tick)
    return replayed


def test_a_replayed_tick_runs_no_producer_reaction_or_filter(monkeypatch):
    model = producer_model()
    reactions = []
    for level, rule in model.reactions.items():
        model.reactions[level] = lambda *args, rule=rule: reactions.append(args[0]) or rule(*args)
    state, _ = stepped(model, ticks=2)
    held = state.__dict__["_held_step"]

    def never(*args):
        raise AssertionError("called on a replayed tick")

    for name in ("apply_constraints", "quiet_rule", "carried_level", "group_by_level",
                 "_check_influence"):
        monkeypatch.setattr(engine, name, never)
    monkeypatch.setattr(SystemState, "memberships", never)
    for _ in range(3):
        nxt, info = step(model, state)
        assert info.replayed and not info.events
        assert nxt.per_level is state.per_level and nxt.agents is state.agents
        assert nxt.__dict__["_held_step"] is held
        state = nxt
    assert [rule.calls for rule in model.behaviors.values()] == [[0], [0], [0]]
    assert sorted(reactions) == ["macro", "micro"]  # tick 0 only


def with_behavior(make):
    def setup(model):
        model.behaviors["p"] = make()

    return setup


def with_detector(make_script):
    def setup(model):
        script = make_script()
        model.detectors["watch"] = DetectorRule("watch", "micro",
                                                lambda percept, ctx: script(ctx))

    return setup


def with_reaction(make):
    def setup(model):
        model.reactions["micro"] = make()

    return setup


def persists_a_kept_influence():
    kept = influence("ping", "macro", "reaction:micro", uid="reaction:micro@0#0")
    return counting_reaction(lambda n: {"persisted": (kept,)})


NEVER_FROZEN = {
    "behavior-reads-tick": with_behavior(lambda: Steady(reads_the_tick)),
    "behavior-seeds-rng": with_behavior(lambda: Steady(seeds_the_rng)),
    "behavior-built-by-hand": with_behavior(lambda: Steady(built_by_hand)),
    "behavior-keeps-an-influence": with_behavior(lambda: Steady(KeepsItsFirstInfluence())),
    "behavior-equal-copy": with_behavior(RemembersAnEqualCopy),
    "detector-reads-tick": with_detector(lambda: reads_the_tick),
    "detector-seeds-rng": with_detector(lambda: seeds_the_rng),
    "detector-built-by-hand": with_detector(lambda: built_by_hand),
    "detector-keeps-an-influence": with_detector(KeepsItsFirstInfluence),
    "reaction-reads-tick": with_reaction(lambda: reads_the_clock),
    "reaction-seeds-rng": with_reaction(lambda: seeds_the_stream),
    "reaction-makes-an-influence": with_reaction(lambda: makes_an_influence),
    "reaction-persists": with_reaction(lambda: counting_reaction(lambda n: {
        "persisted": (influence("ping", "macro", "reaction:micro", uid=f"reaction:micro#{n}"),),
    })),
    "reaction-persists-a-kept-influence": with_reaction(persists_a_kept_influence),
    "reaction-spawns": with_reaction(
        lambda: counting_reaction(lambda n: {"spawn": (AgentRecord(f"s{n}"),)})),
    "reaction-removes": with_reaction(lambda: counting_reaction(lambda n: {"remove": (f"x{n}",)})),
    "reaction-emits": with_reaction(lambda: emits_an_event),
}


@pytest.mark.parametrize("setup", NEVER_FROZEN.values(), ids=NEVER_FROZEN.keys())
def test_a_tick_with_a_call_that_is_not_quiet_is_never_replayed_whole(setup):
    def replayed(setup):
        model = producer_model()
        model.detectors = {"quiet": DetectorRule("quiet", "micro", lambda percept, ctx: [])}
        setup(model)
        return replayed_ticks(model, initial_state(agents=[f"x{n}" for n in range(TICKS)]))

    assert replayed(lambda model: None) == list(range(1, TICKS))  # all quiet: frozen at once
    assert replayed(setup) == []


@pytest.mark.parametrize("holder", ["m", "m@0#1"])
def test_a_replayed_tick_keeps_each_k_and_remaps_the_inhibition_log(holder):
    """`p` makes three moves and returns its #0 and #2, and the macro agent
    `holder` (its id may hold `@` and `#`) holds `p`'s moves: a replayed tick
    holds the same influences and the same log under its own ids, as
    stepping the same snapshot without its held step does."""
    def drops_its_second(ctx):
        made = [ctx.make("move", "micro", to=k) for k in range(3)]
        return [made[0], made[2]]

    model = producer_model(Steady(drops_its_second))
    del model.behaviors["m"]
    model.behaviors[holder] = Steady(lambda ctx: [
        ctx.make("hold", "micro", klass=CONSTRAINT, selector=InfluenceSelector("move", "p"))])
    state = initial_state()
    agents = {aid: record for aid, record in state.agents.items() if aid != "m"}
    state = SystemState(per_level={**state.per_level, "macro": LevelState(
        "macro", {body_key(holder): Body("macro")})}, agents={**agents, holder: AgentRecord(holder)})
    for tick in range(TICKS):
        stepped_info = step(model, copy.copy(state))[1]
        state, info = step(model, state)
        assert info.replayed == (tick > 0)
        assert not stepped_info.replayed
        assert sorted(inf.id for inf in info.produced["micro"]) == sorted([
            f"{holder}@{tick}#0", f"p@{tick}#0", f"p@{tick}#2"])
        assert info.inhibitions == stepped_info.inhibitions == {
            "macro": (),
            "micro": (InhibitionRecord(f"{holder}@{tick}#0", (f"p@{tick}#0", f"p@{tick}#2")),),
        }
        assert info.produced == stepped_info.produced
        assert info.trace == stepped_info.trace


def test_the_run_records_the_tick_it_froze_from():
    model = producer_model()
    assert run(model, initial_state(), ticks=TICKS).frozen_from == 1
    model.behaviors["p"] = Steady(reads_the_tick)
    assert run(model, initial_state(), ticks=TICKS).frozen_from is None
