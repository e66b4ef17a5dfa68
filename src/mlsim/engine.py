"""Two-phase step driver.

Phase 1 (produce): every agent behavior and registered detector is
evaluated against the same frozen snapshot; outputs are merged with the
carried-over influence sets and partitioned by target level.  Detectors, the
micro-level rules that reify emergences, are the only producers that are not
agents; an agent with no behavior produces nothing.  An influence's payload
is the dict of keyword arguments its producer passed to `StepContext.make`,
read-only from then on.

Phase 2 (react): each level independently filters its produced set through
apply_constraints and invokes its reaction rule.  Reactions see only their own
level's property map and filtered influences; influences they persist are
routed by target level after all reactions ran, so the result is invariant
under level evaluation order.

Everything is deterministic given (model, state, seed): per-producer RNG
streams are keyed by (seed, producer, tick), and one is seeded only when its
producer first reads `ctx.rng`.  Bookkeeping scales with the influences
produced: the graph's route table gives each producer level set its percept
and targets, the snapshot's membership index gives each agent its levels,
and trace rows are built only when `StepInfo.trace` is read.

A level whose tick changed nothing is carried over: when its reaction leaves
every property bound to the very object it held, in the same order, and the
influences routed to it equal the ones it holds, the next snapshot keeps the
old `LevelState` (`carried_level`), and every cache keyed on it survives.

The contracts: a reaction is a function of its property map, of its
influences' producer, kind, class and payload in id order, and of what it
reads of `ctx`; a behavior or detector is a function of the level states it
perceives, of its record and of what it reads of `ctx`; values that compare
equal act the same (`1 == True`); a `memorize` that changes nothing returns
`internal_state` itself.  A call is quiet when its `StepContext` seeded no
stream and read no `tick`; a reaction's also made no influence and returned
no persisted influences, spawns, removals or events; a producer's returned
only influences that context made, and `memorize` kept the internal state.

A carried-over level replays a quiet reaction that saw no influences: its
level state records the rule (`quiet_rule`), and a tick that again filters
none for it, under the same rule, keeps the property map without a call.

A frozen tick is replayed whole.  A tick is frozen when every producer call
was quiet, every reaction was replayed or quiet, and it kept every level
state (and so every agent record): every later tick repeats it.  Its successor
holds its step: the model's rules, and per level the produced influences,
which give each one's producer, `k`, kind, class and payload (a kept level
carries none of its own, as nothing was persisted), and the inhibition log
by (producer, `k`).  A tick on a snapshot holding a step under the same
rules calls no producer and no reaction: it makes each influence again as
`producer@tick#k`, remaps the log to those ids, and keeps the level states
and the agent map, holding the step again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import is_
from types import MappingProxyType
from typing import Any, Callable, Iterable

from .errors import (
    IllegalInfluenceTarget,
    Issue,
    KindNotProducible,
    MlsimError,
    ModelValidationError,
    ReactionFault,
)
from .hierarchy import (
    ConstraintKindDecl,
    Declarations,
    EmergenceKindDecl,
    InhibitionRecord,
    apply_constraints,
    hierarchy_issues,
)
from .levels import LevelId, ValidatedLevelGraph
from .state import (
    CONSTRAINT,
    EMERGENCE,
    ORDINARY,
    REACTION_PRODUCER_PREFIX,
    AgentRecord,
    Influence,
    LevelState,
    Percept,
    SystemState,
    body_key,
    group_by_level,
)


def derived_rng(seed: int, *key) -> random.Random:
    """Stable RNG stream keyed by (seed, *key); independent of iteration order."""
    import hashlib  # only jitter runs draw, so only they pay for the import

    digest = hashlib.sha256(repr((seed,) + key).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


class StepContext:
    """Handed to each producer for one step: id factory and private RNG.

    Pass either `rng` or `rng_key`.  The engine passes `rng_key`: the
    stream `derived_rng(*rng_key)` is seeded the first time `rng` is read,
    so a producer that draws nothing costs no seeding.  Reads of `tick` and
    every influence `make` makes are recorded too: `untouched` (of a
    reaction) and `made_quietly` (of a producer) say whether a call was
    quiet (see the module doc).
    """

    def __init__(self, tick: int, producer: str, rng: random.Random | None = None,
                 rng_key: tuple = ()):
        self._tick = tick
        self._tick_read = False
        self.producer = producer
        self._rng = rng
        self._rng_key = rng_key
        self._made: list[Influence] = []  # in the order `make` made them

    @property
    def tick(self) -> int:
        self._tick_read = True
        return self._tick

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = derived_rng(*self._rng_key)
        return self._rng

    @property
    def untouched(self) -> bool:
        """No influence made, no stream seeded and no clock read so far."""
        return not self._made and self._rng is None and not self._tick_read

    def make(self, kind, target_level, klass=ORDINARY, **payload) -> Influence:
        made = self._made
        inf = Influence(
            id=f"{self.producer}@{self._tick}#{len(made)}",
            kind=kind,
            target_level=target_level,
            producer=self.producer,
            payload=payload,
            klass=klass,
        )
        made.append(inf)
        return inf

    def made_quietly(self, out: list) -> bool:
        """Whether this context made every influence of `out` and seeded no
        stream and read no clock."""
        if self._rng is not None or self._tick_read:
            return False
        made = self._made
        if len(out) == len(made) and all(map(is_, out, made)):
            return True
        ids = set(map(id, made))
        return all(id(inf) in ids for inf in out)


class BehaviorRule:
    """Three-stage behavior: perceive, memorize, decide — invoked in order,
    at most once per agent per step.

    It must keep the contracts of the module doc: a function of what it
    perceives, of its record and of what it reads of `ctx`, with a
    `memorize` that returns `internal_state` itself when nothing changed."""

    def perceive(self, percept: Percept, me: AgentRecord):
        return percept

    def memorize(self, perception, internal_state, ctx: StepContext):
        return internal_state

    def decide(self, internal_state, ctx: StepContext) -> Iterable[Influence]:
        return ()


@dataclass(frozen=True)
class DetectorRule:
    """A distinguished micro-level natural rule permitted to emit emergence
    influences toward a macro level.  Like a behavior, `rule` keeps the
    contracts of the module doc."""

    name: str
    level: LevelId
    rule: Callable  # (percept, ctx) -> iterable[Influence]


@dataclass
class ReactionResult:
    sigma: dict
    persisted: tuple = ()
    spawn: tuple = ()  # new AgentRecords; the reaction writes their bodies into sigma
    remove: tuple = ()  # agent ids whose bodies live only at the reacting level
    events: tuple = ()  # (name, payload-dict) pairs for observers/trace


# Reaction rule signature: (level, sigma: dict, influences: frozenset, ctx) -> ReactionResult,
# keeping the contracts of the module doc.
ReactionRule = Callable[[LevelId, dict, frozenset, StepContext], ReactionResult]


@dataclass
class Model:
    graph: ValidatedLevelGraph
    behaviors: dict = field(default_factory=dict)  # AgentId -> BehaviorRule
    dynamic_behaviors: dict = field(default_factory=dict)  # agent kind -> BehaviorRule
    detectors: dict = field(default_factory=dict)  # name -> DetectorRule
    reactions: dict = field(default_factory=dict)  # LevelId -> ReactionRule
    # The hierarchy declarations, read-only by contract: swap them with
    # `_replace`, never write into them.
    decls: Declarations = field(default_factory=lambda: Declarations({}))

    def behavior_for(self, record: AgentRecord) -> BehaviorRule | None:
        rule = self.behaviors.get(record.id)
        if rule is None:
            rule = self.dynamic_behaviors.get(record.kind)
        return rule

    def constraint_decl(self, kind: str) -> ConstraintKindDecl | None:
        return next((d for d in self.decls.constraints if d.kind == kind), None)

    def emergence_decl(self, kind: str) -> EmergenceKindDecl | None:
        return next((d for d in self.decls.emergences if d.kind == kind), None)


def validate_model(model: Model) -> list[Issue]:
    """Static legality of a model: the hierarchy rules over its declarations,
    plus a reaction for every level.  Returns all issues found (empty = valid)."""
    levels = model.graph.levels
    issues = [
        Issue("reference", f"level {level!r} has no reaction rule")
        for level in sorted(levels)
        if level not in model.reactions
    ]
    detectors = {name: d.level for name, d in model.detectors.items()}
    return issues + hierarchy_issues(levels, model.graph.spec.influence_edges, model.decls,
                                     detectors)


@dataclass
class ProducedStep:
    per_level: dict  # LevelId -> frozenset[Influence]
    new_internal: dict  # AgentId -> internal state at t+dt
    quiet: bool = False  # every producer call was quiet
    held: tuple | None = None  # the frozen step this production replayed


def _check_influence(model: Model, inf: Influence, allowed_targets, producer_desc,
                     producer_levels, detector=None):
    """Raise unless `inf` is legal from its producer; `detector` is the
    producer's name when it is a registered detector."""
    if inf.target_level not in allowed_targets:
        raise IllegalInfluenceTarget(
            f"{producer_desc} produced {inf.kind!r} into {inf.target_level!r}, "
            f"allowed targets are {sorted(allowed_targets)}"
        )
    if inf.kind not in model.decls.producible_kinds.get(inf.target_level, ()):
        raise KindNotProducible(
            f"{producer_desc}: kind {inf.kind!r} is not producible at {inf.target_level!r}"
        )
    if inf.klass == EMERGENCE:
        decl = model.emergence_decl(inf.kind)
        if decl is None or detector is None or detector != decl.detector:
            allowed = decl.detector if decl is not None else "<undeclared>"
            raise IllegalInfluenceTarget(
                f"{producer_desc} produced emergence {inf.kind!r}; only detector "
                f"{allowed!r} may produce it"
            )
    if inf.klass == CONSTRAINT:
        decl = model.constraint_decl(inf.kind)
        if decl is None:
            raise IllegalInfluenceTarget(
                f"{producer_desc} produced undeclared constraint kind {inf.kind!r}"
            )
        if decl.micro_level in producer_levels:
            raise IllegalInfluenceTarget(
                f"{producer_desc} belongs to micro level {decl.micro_level!r} and "
                f"cannot produce constraint {inf.kind!r}"
            )
        if inf.payload.get("selector") is None:
            raise IllegalInfluenceTarget(
                f"constraint {inf.id} from {producer_desc} carries no selector"
            )


def _rules(model: Model) -> tuple:
    """What a frozen step holds of the model: a held step is replayed only
    under the same graph, declarations, producers and reactions."""
    return (model.graph, model.decls, tuple(model.behaviors.items()),
            tuple(model.dynamic_behaviors.items()), tuple(model.detectors.items()),
            tuple(model.reactions.items()))


def produce_influences(model: Model, state: SystemState, seed: int = 0) -> ProducedStep:
    """Phase 1: evaluate all producers against the frozen snapshot.

    A snapshot that holds a frozen step under the same rules calls no
    producer: each held influence is made again under this tick's id."""
    tick = state.time
    held = state.__dict__.get("_held_step")
    if held is not None and held[0] == _rules(model):
        at = f"@{tick}#"
        return ProducedStep({
            level: frozenset([Influence(inf.producer + at + inf.id.rpartition("#")[2], inf.kind,
                                        level, inf.producer, inf.payload, inf.klass)
                              for inf in influences])
            for level, influences in held[1].items()
        }, {}, held=held)
    graph = model.graph
    produced_sets: list[Iterable[Influence]] = [
        level_state.influences for level_state in state.per_level.values()
    ]
    new_internal: dict[str, Any] = {}
    observed: dict = {}  # level set -> the level states its producers perceive
    quiet = True  # every call so far was quiet

    def route(levels, requester):
        """(percept, influence targets) of a producer belonging to `levels`."""
        perceived, targets = graph.routes(levels)
        view = observed.get(levels)
        if view is None:
            view = observed[levels] = MappingProxyType(
                {level: state.per_level[level] for level in perceived}
            )
        return Percept(view, requester=requester), targets

    memberships = state.memberships()
    agents = state.agents
    for agent_id in sorted(agents):
        record = agents[agent_id]
        rule = model.behavior_for(record)
        levels = memberships.get(agent_id)
        if not levels or rule is None:
            continue
        percept, targets = route(levels, agent_id)
        ctx = StepContext(tick, agent_id, rng_key=(seed, agent_id, tick))
        perception = rule.perceive(percept, record)
        internal = rule.memorize(perception, record.internal_state, ctx)
        new_internal[agent_id] = internal
        out = list(rule.decide(internal, ctx))
        desc = f"agent {agent_id!r}"
        for inf in out:
            _check_influence(model, inf, targets, desc, levels)
        produced_sets.append(out)
        if quiet:
            quiet = internal is record.internal_state and ctx.made_quietly(out)

    for name in sorted(model.detectors):
        detector = model.detectors[name]
        levels = frozenset((detector.level,))
        percept, targets = route(levels, name)
        ctx = StepContext(tick, name, rng_key=(seed, name, tick))
        out = list(detector.rule(percept, ctx))
        for inf in out:
            _check_influence(model, inf, targets, f"detector {name!r}", levels, detector=name)
        produced_sets.append(out)
        if quiet:
            quiet = ctx.made_quietly(out)

    return ProducedStep(group_by_level(state.per_level, produced_sets), new_internal, quiet)


def _key(inf_id: str) -> tuple:
    """(producer, k) of the influence id `producer@tick#k`."""
    head, _, k = inf_id.rpartition("#")
    return head.rpartition("@")[0], k


def _by_id(inf: Influence) -> str:
    return inf.id


_NO_INFLUENCES: frozenset = frozenset()


@dataclass
class StepInfo:
    produced: dict  # LevelId -> frozenset (pre-filter)
    inhibitions: dict  # LevelId -> tuple[InhibitionRecord]
    events: tuple  # (level, name, payload) triples
    tick: int  # the time of the snapshot the step started from
    replayed: bool = False  # the step was a held frozen step, replayed whole

    @property
    def trace(self) -> tuple:
        """The step's trace rows, built on each read: every produced
        influence by level and id, then every inhibition by level, then
        the reaction events in order."""
        tick = self.tick
        rows = [
            {
                "tick": tick,
                "level": level,
                "event": "influence",
                "payload": {
                    "id": inf.id,
                    "kind": inf.kind,
                    "class": inf.klass,
                    "producer": inf.producer,
                },
            }
            for level in sorted(self.produced)
            for inf in sorted(self.produced[level], key=_by_id)
        ]
        rows += [
            {
                "tick": tick,
                "level": level,
                "event": "inhibition",
                "payload": {
                    "constraint": record.constraint_id,
                    "inhibited": list(record.inhibited_ids),
                },
            }
            for level in sorted(self.inhibitions)
            for record in self.inhibitions[level]
        ]
        rows += [
            {"tick": tick, "level": level, "event": name, "payload": payload}
            for level, name, payload in self.events
        ]
        return tuple(rows)


def carried_level(old: LevelState, sigma: dict, influences: frozenset) -> LevelState:
    """The level's next state: `old` itself when `sigma` is its property map
    or binds the same keys, in the same order, to the very same objects, and
    `influences` equals the set `old` holds; a new `LevelState` otherwise."""
    properties = old.properties
    if influences == old.influences and (
        sigma is properties
        or (
            len(sigma) == len(properties)
            and all(map(is_, sigma.values(), properties.values()))
            and list(sigma) == list(properties)
        )
    ):
        return old
    return LevelState(old.level, sigma, influences)


def quiet_rule(level_state: LevelState):
    """The reaction whose quiet call on `level_state` saw no influences, or
    None: the one place the record is read."""
    return level_state.__dict__.get("_quiet_rule")


def react(model: Model, state: SystemState, produced: ProducedStep, seed: int = 0):
    """Phase 2: per-level constraint filtering + reaction, then merge.

    A quiet call on no influences is replayed while the level gets none, a
    frozen tick leaves its step on its successor, and a replayed step hands
    back its held inhibition log under this tick's ids and the snapshot's
    level states and agent map (see the module doc)."""
    held = produced.held
    if held is not None:
        at = f"@{state.time}#"
        inhibitions = {
            level: tuple([InhibitionRecord(p + at + k, tuple([q + at + j for q, j in hits]))
                          for (p, k), hits in log]) if log else ()
            for level, log in held[2].items()
        }
        info = StepInfo(produced.per_level, inhibitions, (), state.time, replayed=True)
        return state.successor(state.per_level, state.agents, held), info
    results = {}
    sigmas = {}
    inhibitions = {}
    quiet = {}  # level -> whether its quiet call saw no influences
    for level in sorted(state.per_level):
        level_state = state.per_level[level]
        influences = produced.per_level.get(level, _NO_INFLUENCES)
        filtered, log = apply_constraints(influences)
        inhibitions[level] = log
        rule = model.reactions[level]
        if not filtered and quiet_rule(level_state) is rule:
            sigmas[level] = level_state.properties
            continue
        sigma = dict(level_state.properties)
        ctx = StepContext(state.time, REACTION_PRODUCER_PREFIX + level,
                          rng_key=(seed, "reaction", level, state.time))
        try:
            result = rule(level, sigma, filtered, ctx)
        except MlsimError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced with level id
            raise ReactionFault(f"reaction of level {level!r} failed: {exc}") from exc
        if not isinstance(result, ReactionResult):
            raise ReactionFault(f"reaction of level {level!r} returned {type(result).__name__}")
        results[level] = result
        sigmas[level] = result.sigma
        if ctx.untouched and not (
            result.persisted or result.spawn or result.remove or result.events
        ):
            quiet[level] = not filtered

    # Validate and collect persisted influences.
    persisted: list[Influence] = []
    for level, result in results.items():
        targets = model.graph.out_influence(level)
        for inf in result.persisted:
            _check_influence(model, inf, targets, f"reaction of level {level!r}", {level})
            persisted.append(inf)
    routed = group_by_level(state.per_level, [persisted]) if persisted else {}

    # Agent records: internal-state updates from memorization.  A record
    # whose `memorize` returned its own internal state is kept.
    agents = dict(state.agents)
    for agent_id, internal in produced.new_internal.items():
        record = agents[agent_id]
        if internal is not record.internal_state:
            agents[agent_id] = AgentRecord(record.id, record.kind, internal)

    # Spawns and removals, restricted to the reacting level.
    events = []
    for level in sorted(results):
        result = results[level]
        for record in result.spawn:
            if record.id in agents:
                raise ReactionFault(
                    f"reaction of level {level!r} spawned duplicate agent {record.id!r}"
                )
            agents[record.id] = record
            events.append((level, "spawn", {"agent": record.id, "kind": record.kind}))
        for agent_id in result.remove:
            if agent_id not in agents:
                raise ReactionFault(
                    f"reaction of level {level!r} removed unknown agent {agent_id!r}"
                )
            key = body_key(agent_id)
            foreign = sorted(other for other in sigmas if other != level and key in sigmas[other])
            if foreign:
                raise ReactionFault(
                    f"reaction of level {level!r} removed agent {agent_id!r} "
                    f"with bodies at {foreign}"
                )
            del agents[agent_id]
            sigmas[level].pop(key, None)
            events.append((level, "dissolve", {"agent": agent_id}))
        for name, payload in result.events:
            events.append((level, name, payload))

    per_level = {
        level: carried_level(level_state, sigmas[level], routed.get(level, _NO_INFLUENCES))
        for level, level_state in state.per_level.items()
    }
    # A quiet call on no influences and a kept level state is recorded there,
    # so the next tick can replay it; a new level state starts without one.
    for level, saw_nothing in quiet.items():
        if saw_nothing and per_level[level] is state.per_level[level]:
            per_level[level].__dict__["_quiet_rule"] = model.reactions[level]
    frozen_step = None
    if produced.quiet and len(quiet) == len(results) and all(
        per_level[level] is level_state for level, level_state in state.per_level.items()
    ):
        # A quiet tick kept every record and spawned and removed nothing:
        # it is frozen (see the module doc).
        frozen_step = _rules(model), produced.per_level, {
            level: tuple([(_key(record.constraint_id), tuple(map(_key, record.inhibited_ids)))
                          for record in log]) if log else ()
            for level, log in inhibitions.items()
        }
    next_state = state.successor(per_level, agents, frozen_step)
    return next_state, StepInfo(produced.per_level, inhibitions, tuple(events), state.time)


def step(model: Model, state: SystemState, seed: int = 0):
    produced = produce_influences(model, state, seed)
    return react(model, state, produced, seed)


@dataclass
class RunResult:
    final_state: SystemState
    records: list  # one metrics dict per executed tick
    stop_reason: str
    diagnostics: tuple = ()  # (tick, name, payload) triples
    trace: tuple = ()
    frozen_from: int | None = None  # the tick from which every step was replayed whole


DIAGNOSTIC_EVENTS = {"no-escape-path"}


def run(
    model: Model,
    state: SystemState,
    ticks: int,
    seed: int = 0,
    observers: tuple = (),
    metrics: Callable | None = None,
    termination: Callable | None = None,
    collect_trace: bool = False,
) -> RunResult:
    """Iterate the two-phase step, recording per-tick metrics.

    Observers receive (tick, snapshot-after-step, StepInfo) and must not
    mutate anything.  A termination predicate over the snapshot stops the run
    early with a recorded reason.
    """
    if ticks < 1:
        raise ValueError("ticks must be >= 1")
    issues = validate_model(model)
    if issues:
        raise ModelValidationError(issues)

    records = []
    diagnostics = []
    trace: list = []
    stop_reason = "tick-budget"
    frozen_from = None
    for _ in range(ticks):
        tick = state.time
        state, info = step(model, state, seed)
        if not info.replayed:
            frozen_from = None
        elif frozen_from is None:
            frozen_from = tick
        for level, name, payload in info.events:
            if name in DIAGNOSTIC_EVENTS:
                diagnostics.append((tick, name, payload))
        if collect_trace:
            trace.extend(info.trace)
        for observer in observers:
            observer(tick, state, info)
        if metrics is not None:
            row = metrics(tick, state, info)
            if row is not None:
                records.append(row)
        if termination is not None and termination(state):
            stop_reason = f"termination:{getattr(termination, '__name__', 'predicate')}"
            break
    return RunResult(
        final_state=state,
        records=records,
        stop_reason=stop_reason,
        diagnostics=tuple(diagnostics),
        trace=tuple(trace),
        frozen_from=frozen_from,
    )
