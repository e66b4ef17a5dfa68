"""Two-phase step driver.

Phase 1 (produce): every agent behavior and registered detector is
evaluated against the same frozen snapshot; outputs are merged with the
carried-over influence sets and partitioned by target level.  Detectors, the
micro-level rules that reify emergences, are the only producers that are not
agents.  An influence's payload is the dict of keyword arguments its
producer passed to `StepContext.make`, read-only from then on.

Phase 2 (react): each level independently filters its produced set through
apply_constraints and invokes its reaction rule.  Reactions see only their own
level's property map and filtered influences; influences they persist are
routed by target level after all reactions ran, so the result is invariant
under level evaluation order.

Everything is deterministic given (model, state, seed): per-producer RNG
streams are keyed by (seed, producer, tick), so agent iteration order cannot
leak into results.  A stream is seeded only when its producer first reads
`ctx.rng`.

Bookkeeping scales with the influences produced, not with producers x levels:
the graph's route table gives each producer level set its perceived levels
and influence targets, the snapshot's membership index gives each agent its
levels, and trace rows are built only when `StepInfo.trace` is read.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
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
    digest = hashlib.sha256(repr((seed,) + key).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


class StepContext:
    """Handed to each producer for one step: id factory and private RNG.

    Pass either `rng` or `rng_key`.  The engine passes `rng_key`: the
    stream `derived_rng(*rng_key)` is seeded the first time `rng` is read,
    so a producer that draws nothing costs no seeding.
    """

    def __init__(self, tick: int, producer: str, rng: random.Random | None = None,
                 rng_key: tuple = ()):
        self.tick = tick
        self.producer = producer
        self._rng = rng
        self._rng_key = rng_key
        self._seq = 0

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = derived_rng(*self._rng_key)
        return self._rng

    def make(self, kind, target_level, klass=ORDINARY, **payload) -> Influence:
        uid = f"{self.producer}@{self.tick}#{self._seq}"
        self._seq += 1
        return Influence(
            id=uid,
            kind=kind,
            target_level=target_level,
            producer=self.producer,
            payload=payload,
            klass=klass,
        )


class BehaviorRule:
    """Three-stage behavior: perceive, memorize, decide — invoked in order,
    exactly once per agent per step."""

    def perceive(self, percept: Percept, me: AgentRecord):
        return percept

    def memorize(self, perception, internal_state, ctx: StepContext):
        return internal_state

    def decide(self, internal_state, ctx: StepContext) -> Iterable[Influence]:
        return ()


@dataclass(frozen=True)
class DetectorRule:
    """A distinguished micro-level natural rule permitted to emit emergence
    influences toward a macro level."""

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


# Reaction rule signature: (level, sigma: dict, influences: frozenset, ctx) -> ReactionResult
ReactionRule = Callable[[LevelId, dict, frozenset, StepContext], ReactionResult]


def identity_reaction(level, sigma, influences, ctx) -> ReactionResult:
    """Default reaction: keep properties, persist nothing."""
    return ReactionResult(sigma=sigma)


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


def produce_influences(model: Model, state: SystemState, seed: int = 0) -> ProducedStep:
    """Phase 1: evaluate all producers against the frozen snapshot."""
    graph = model.graph
    tick = state.time
    produced_sets: list[Iterable[Influence]] = [
        level_state.influences for level_state in state.per_level.values()
    ]
    new_internal: dict[str, Any] = {}
    observed: dict = {}  # level set -> the level states its producers perceive

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
    for agent_id in sorted(state.agents):
        record = state.agents[agent_id]
        levels = memberships.get(agent_id)
        if not levels:
            continue
        rule = model.behavior_for(record)
        if rule is None:
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

    for name in sorted(model.detectors):
        detector = model.detectors[name]
        levels = frozenset((detector.level,))
        percept, targets = route(levels, name)
        ctx = StepContext(tick, name, rng_key=(seed, name, tick))
        out = list(detector.rule(percept, ctx))
        for inf in out:
            _check_influence(model, inf, targets, f"detector {name!r}", levels, detector=name)
        produced_sets.append(out)

    return ProducedStep(
        per_level=group_by_level(state.per_level, produced_sets), new_internal=new_internal
    )


def _by_id(inf: Influence) -> str:
    return inf.id


@dataclass
class StepInfo:
    produced: dict  # LevelId -> frozenset (pre-filter)
    inhibitions: dict  # LevelId -> tuple[InhibitionRecord]
    events: tuple  # (level, name, payload) triples
    tick: int  # the time of the snapshot the step started from

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


def react(model: Model, state: SystemState, produced: ProducedStep, seed: int = 0):
    """Phase 2: per-level constraint filtering + reaction, then merge."""
    results = {}
    inhibitions = {}
    for level in sorted(state.per_level):
        influences = produced.per_level.get(level, frozenset())
        filtered, log = apply_constraints(influences)
        inhibitions[level] = log
        sigma = dict(state.per_level[level].properties)
        ctx = StepContext(
            state.time,
            REACTION_PRODUCER_PREFIX + level,
            rng_key=(seed, "reaction", level, state.time),
        )
        rule = model.reactions[level]
        try:
            result = rule(level, sigma, filtered, ctx)
        except MlsimError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced with level id
            raise ReactionFault(f"reaction of level {level!r} failed: {exc}") from exc
        if not isinstance(result, ReactionResult):
            raise ReactionFault(f"reaction of level {level!r} returned {type(result).__name__}")
        results[level] = result

    # Validate and collect persisted influences.
    persisted: list[Influence] = []
    for level, result in results.items():
        targets = model.graph.out_influence(level)
        for inf in result.persisted:
            _check_influence(
                model, inf, targets, f"reaction of level {level!r}", {level}
            )
            persisted.append(inf)
    routed = group_by_level(state.per_level, [persisted])

    # Agent records: internal-state updates from memorization.
    agents = dict(state.agents)
    for agent_id, internal in produced.new_internal.items():
        record = agents.get(agent_id)
        if record is not None:
            agents[agent_id] = AgentRecord(record.id, record.kind, internal)

    # Spawns and removals, restricted to the reacting level.
    sigmas = {level: results[level].sigma for level in results}
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
        level: LevelState(level, sigmas[level], routed[level])
        for level in state.per_level
    }
    next_state = SystemState(time=state.time + 1, per_level=per_level, agents=agents)
    info = StepInfo(
        produced=produced.per_level,
        inhibitions=inhibitions,
        events=tuple(events),
        tick=state.time,
    )
    return next_state, info


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
    for _ in range(ticks):
        tick = state.time
        state, info = step(model, state, seed)
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
    )
