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
and a step's trace record is built only when `StepInfo.record` is called.

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

A run keeps what these contracts let it skip in one `ReplayMemory` (one
model, one seed); without one, `step` and `react` replay nothing.  A quiet
reaction call that saw no influences is replayed: the memory records the
level state it kept, and a tick that again filters none for it keeps its
property map without a call.

A frozen tick is replayed whole.  A tick is frozen when every producer call
was quiet, every reaction was replayed or quiet, and it kept every level
state (and so every agent record): every later tick repeats it.  The memory
holds its step for its successor once, as a `HeldStep`: per level, each
produced influence as a template in id order, with the text of its id before
and after the tick (`producer@`, `#k`), and the inhibition log with its ids
split the same way (a kept level carries no influences of its own, as
nothing was persisted).  A tick on that successor calls no producer and no
reaction: it keeps the level states and the agent map, and holds the step
for its own successor.  Its `StepInfo` carries the held step, and makes the
influences (`producer@tick#k`) and the inhibition records from it only when
`produced` or `inhibitions` is read.  A step whose ids could sort in another
order on a later tick is not held (`ReplayMemory.hold`).

So once a run replays a tick, it replays every later one: a run has at most
one frozen tail, from the first tick on the held step's successor
(`HeldStep.first`, `RunResult.frozen_from`) to its end.
`run(collect_trace=True)` returns the trace as a `Trace`: one compact record
per stepped tick (`StepInfo.record`: a step's influences, inhibitions and
reaction events as tuples of values), then the tail as its held step and
end.  A tail tick's record is its held step's (`HeldStep.record`), in the
same layout.  No trace row is ever built: outside this module only
`cli.write_trace` reads records, and writes each one's lines through one
encoder.

Whatever enters a run is checked where it enters, so that every record is
one that encoder writes: an influence's id, kind, target level and producer
are `str`s and its class one of ordinary, emergence and constraint
(`_check_shape`: the first snapshot's carried influences, and through
`_check_influence` a producer's output, which must also be of that
producer, and a reaction's persisted influences), one id names one
influence (`group_by_level`), no agent has a detector's name (`run`, and a
reaction's spawns), and a reaction event is a `(str, dict)` pair.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, field
from operator import attrgetter, is_
from types import MappingProxyType
from typing import Any, Callable, Iterable

from .errors import (
    IllegalInfluenceTarget,
    Issue,
    KindNotProducible,
    MlsimError,
    ModelValidationError,
    ReactionFault,
    Record,
    Value,
)
from .hierarchy import (
    ConstraintKindDecl,
    Declarations,
    EmergenceKindDecl,
    InfluenceSelector,
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

    __slots__ = ("_tick", "_tick_read", "producer", "_rng", "_rng_key", "_made")

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
        producer = self.producer
        inf = Influence(f"{producer}@{self._tick}#{len(made)}", kind, target_level, producer,
                        payload, klass)
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


@dataclass(init=False, repr=False, eq=False)
class DetectorRule(Value):
    """A distinguished micro-level natural rule permitted to emit emergence
    influences toward a macro level.  Like a behavior, `rule` keeps the
    contracts of the module doc."""

    name: str
    level: LevelId
    rule: Callable  # (percept, ctx) -> iterable[Influence]

    def __init__(self, name, level, rule):
        self.__dict__.update(name=name, level=level, rule=rule)


@dataclass(init=False, repr=False, eq=False)
class ReactionResult(Record):
    """What a level's reaction returns: its new property map `sigma`, and
    what it persists, spawns, removes and reports."""

    sigma: dict
    persisted: tuple = ()
    spawn: tuple = ()  # new AgentRecords; the reaction writes their bodies into sigma
    remove: tuple = ()  # agent ids whose bodies live only at the reacting level
    events: tuple = ()  # (name, payload-dict) pairs for observers/trace

    def __init__(self, sigma, persisted=(), spawn=(), remove=(), events=()):
        self.sigma = sigma
        self.persisted = persisted
        self.spawn = spawn
        self.remove = remove
        self.events = events


# Reaction rule signature: (level, sigma: dict, influences: frozenset, ctx) -> ReactionResult,
# keeping the contracts of the module doc.
ReactionRule = Callable[[LevelId, dict, frozenset, StepContext], ReactionResult]


@dataclass(init=False, repr=False, eq=False)
class Model(Record):
    """A runnable model: the level graph, the behaviors, detectors and
    reactions, and the hierarchy declarations."""

    graph: ValidatedLevelGraph
    behaviors: dict = field(default_factory=dict)  # AgentId -> BehaviorRule
    dynamic_behaviors: dict = field(default_factory=dict)  # agent kind -> BehaviorRule
    detectors: dict = field(default_factory=dict)  # name -> DetectorRule
    reactions: dict = field(default_factory=dict)  # LevelId -> ReactionRule
    # The hierarchy declarations, read-only by contract: swap them with
    # `_replace`, never write into them.
    decls: Declarations = field(default_factory=lambda: Declarations({}))

    def __init__(self, graph, behaviors=MISSING, dynamic_behaviors=MISSING, detectors=MISSING,
                 reactions=MISSING, decls=MISSING):
        self.graph = graph
        self.behaviors = {} if behaviors is MISSING else behaviors
        self.dynamic_behaviors = {} if dynamic_behaviors is MISSING else dynamic_behaviors
        self.detectors = {} if detectors is MISSING else detectors
        self.reactions = {} if reactions is MISSING else reactions
        self.decls = Declarations({}) if decls is MISSING else decls

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


@dataclass(init=False, repr=False, eq=False)
class ProducedStep(Record):
    """Phase 1's output: the produced influences by level and each agent's
    next internal state."""

    per_level: dict  # LevelId -> frozenset[Influence]
    new_internal: dict  # AgentId -> internal state at t+dt
    quiet: bool = False  # every producer call was quiet

    def __init__(self, per_level, new_internal, quiet=False):
        self.per_level = per_level
        self.new_internal = new_internal
        self.quiet = quiet


_CLASSES = (ORDINARY, EMERGENCE, CONSTRAINT)


def _check_shape(inf: Influence, where):
    """Raise unless `inf` has the shape the engine and the trace rely on: its
    id, producer, target level and kind are `str`s (its trace line is
    written from them, and the trace orders influences by id), its class is
    one of the three, and a constraint's payload is a dict whose selector,
    if it has one, is an `InfluenceSelector` of a `str` kind and a `str` or
    None producer (`apply_constraints` looks its hits up by them)."""
    for name in ("id", "producer", "target_level", "kind"):
        value = getattr(inf, name)
        if not isinstance(value, str):
            error = KindNotProducible if name == "kind" else IllegalInfluenceTarget
            raise error(f"{where}: influence {inf.kind!r} has {name.replace('_', ' ')} "
                        f"{value!r}, which is not a str")
    if inf.klass not in _CLASSES:
        raise IllegalInfluenceTarget(
            f"{where}: influence {inf.kind!r} is of class {inf.klass!r}; the classes "
            f"are {ORDINARY!r}, {EMERGENCE!r} and {CONSTRAINT!r}")
    if inf.klass == CONSTRAINT:
        # A payload that is not a dict has no selector to look up.
        selector = inf.payload.get("selector") if isinstance(inf.payload, dict) else False
        if not (selector is None or isinstance(selector, InfluenceSelector)
                and isinstance(selector.match_kind, str)
                and (selector.match_producer is None or isinstance(selector.match_producer, str))):
            raise IllegalInfluenceTarget(
                f"{where}: constraint {inf.id!r} has the payload {inf.payload!r}, not a dict "
                f"whose selector is an InfluenceSelector of a str kind")


def _check_influence(model: Model, inf: Influence, allowed_targets, producer_desc,
                     producer_levels, producer=None, detector=None):
    """Raise unless `inf` is legal from its producer.  `producer` is the name
    of the agent or detector that returned it, which must be its producer
    (None for a reaction's persisted influences, which may be any
    producer's); `detector` is that name when it is a registered detector."""
    if not isinstance(inf.producer, str) or (producer is not None and inf.producer != producer):
        raise IllegalInfluenceTarget(
            f"{producer_desc} returned {inf.kind!r} of producer {inf.producer!r}")
    _check_shape(inf, producer_desc)
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
    elif inf.klass == CONSTRAINT:
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
    """Phase 1: evaluate all producers against the frozen snapshot.

    Producers that belong to the same level set share one read-only view
    of the level states they perceive and one set of influence targets,
    made on the first such producer of the tick.  An ordinary influence
    of its producer, of a producible kind into an allowed target, with an
    exact `str` id, target and kind, is legal as it is; only another one
    goes through `_check_influence`."""
    tick = state.time
    graph = model.graph
    per_level = state.per_level
    producible = model.decls.producible_kinds
    produced_sets: list[Iterable[Influence]] = [
        level_state.influences for level_state in per_level.values()
    ]
    new_internal: dict[str, Any] = {}
    routes: dict = {}  # level set -> (view of the levels it perceives, influence targets)
    quiet = True  # every call so far was quiet

    producers = []  # (name, levels, rule, record or None for a detector)
    memberships = state.memberships()
    agents = state.agents
    behaviors, dynamic = model.behaviors, model.dynamic_behaviors
    for agent_id in sorted(agents):
        levels = memberships.get(agent_id)
        if not levels:
            continue
        record = agents[agent_id]
        rule = behaviors.get(agent_id)
        if rule is None:
            rule = dynamic.get(record.kind)
            if rule is None:
                continue
        producers.append((agent_id, levels, rule, record))
    detectors = model.detectors
    for name in sorted(detectors):
        detector = detectors[name]
        producers.append((name, frozenset((detector.level,)), detector.rule, None))

    for name, levels, rule, record in producers:
        route = routes.get(levels)
        if route is None:
            perceived, targets = graph.routes(levels)
            route = routes[levels] = (
                MappingProxyType({level: per_level[level] for level in perceived}), targets)
        view, targets = route
        ctx = StepContext(tick, name, None, (seed, name, tick))
        if record is None:
            out = list(rule(Percept(view, name), ctx))
        else:
            internal = rule.memorize(rule.perceive(Percept(view, name), record),
                                     record.internal_state, ctx)
            new_internal[name] = internal
            out = list(rule.decide(internal, ctx))
        for inf in out:
            target = inf.target_level
            if (inf.klass != ORDINARY or type(target) is not str or target not in targets
                    or type(inf.kind) is not str or inf.kind not in producible.get(target, ())
                    or type(inf.id) is not str or inf.producer != name):
                if record is None:
                    _check_influence(model, inf, targets, f"detector {name!r}", levels,
                                     producer=name, detector=name)
                else:
                    _check_influence(model, inf, targets, f"agent {name!r}", levels,
                                     producer=name)
        produced_sets.append(out)
        if quiet:
            quiet = ctx.made_quietly(out) and (
                record is None or internal is record.internal_state)

    return ProducedStep(group_by_level(per_level, produced_sets), new_internal, quiet)


_by_id = attrgetter("id")


_NO_INFLUENCES: frozenset = frozenset()


class HeldStep:
    """The step of a frozen tick, held once for every tick that repeats it
    (see the module doc).  Its layout, which only this module and
    `cli.write_trace` (through a `Trace`) read:

    - `influences`: `(level, templates)` by level in level order, with one
      template per produced influence in id order: `(head, tail, kind,
      klass, producer, payload)`, where the influence's id on tick `t` is
      `head + str(t) + tail` (`producer@` and `#k`);
    - `log`: `(level, records)` by level in level order, every level of the
      snapshot, with one record per constraint applied, in the log's order:
      `((head, tail), hits)`, the constraint's id and the ids it inhibited,
      each split around the tick the same way;
    - `first`: the first tick that repeats it, the time of the snapshot
      it is held for;
    - `constraints`: the number of records in `log`, and `row_count` the
      number of trace lines of one tick (a frozen tick emits no event).

    `record` (in `StepInfo.record`'s layout), `produced` and `inhibitions`
    build what a tick `t` repeating it reports, its ids made with `str(t)`;
    they equal what stepping its snapshot would report."""

    __slots__ = ("influences", "log", "first", "constraints", "row_count")

    def __init__(self, influences: tuple, log: tuple, first: int):
        self.influences = influences
        self.log = log
        self.first = first
        self.constraints = sum(len(records) for _, records in log)
        self.row_count = sum(len(templates) for _, templates in influences) + self.constraints

    def record(self, tick) -> tuple:
        stamp = str(tick)
        return (
            tick,
            [(level, head + stamp + tail, kind, klass, producer)
             for level, templates in self.influences
             for head, tail, kind, klass, producer, _ in templates],
            [(level, head + stamp + tail, tuple([h + stamp + t for h, t in hits]))
             for level, records in self.log for (head, tail), hits in records],
            (),
        )

    def produced(self, tick) -> dict:
        stamp = str(tick)
        return {
            level: frozenset([Influence(head + stamp + tail, kind, level, producer, payload, klass)
                              for head, tail, kind, klass, producer, payload in templates])
            for level, templates in self.influences
        }

    def inhibitions(self, tick) -> dict:
        stamp = str(tick)
        return {
            level: tuple([InhibitionRecord(head + stamp + tail,
                                           tuple([h + stamp + t for h, t in hits]))
                          for (head, tail), hits in records])
            for level, records in self.log
        }


class StepInfo:
    """What one step did: `produced` (LevelId -> frozenset of the influences
    produced, before filtering), `inhibitions` (LevelId -> tuple of
    `InhibitionRecord`), `constraints` (the number of constraint influences
    applied, one per inhibition record), `events` ((level, name, payload)
    triples) and `tick`, the time of the snapshot the step started from.

    A step replayed whole (`replayed`) carries the `HeldStep` it repeats as
    `held`, and `produced` and `inhibitions` are made from it on their first
    read only; `constraints` is read off the held log, and `record` is the
    held record."""

    __slots__ = ("_produced", "_inhibitions", "held", "events", "tick", "replayed")

    def __init__(self, produced, inhibitions, events, tick, held: HeldStep | None = None):
        self._produced = produced
        self._inhibitions = inhibitions
        self.held = held
        self.events = events
        self.tick = tick
        self.replayed = held is not None

    @property
    def produced(self) -> dict:
        produced = self._produced
        if produced is None:
            produced = self._produced = self.held.produced(self.tick)
        return produced

    @property
    def inhibitions(self) -> dict:
        inhibitions = self._inhibitions
        if inhibitions is None:
            inhibitions = self._inhibitions = self.held.inhibitions(self.tick)
        return inhibitions

    @property
    def constraints(self) -> int:
        if self.held is not None:
            return self.held.constraints
        return sum(map(len, self._inhibitions.values()))

    def record(self) -> tuple:
        """The step's compact trace record, `(tick, influences, inhibitions,
        events)`: a `(level, id, kind, class, producer)` per produced
        influence in level then id order, a `(level, constraint id, inhibited
        ids)` per inhibition record in level then log order, and the events.
        A replayed step's is its held step's (`HeldStep.record`)."""
        if self.held is not None:
            return self.held.record(self.tick)
        produced, inhibitions = self.produced, self.inhibitions
        return (
            self.tick,
            [(level, inf.id, inf.kind, inf.klass, inf.producer)
             for level in sorted(produced) for inf in sorted(produced[level], key=_by_id)],
            [(level, record.constraint_id, record.inhibited_ids)
             for level in sorted(inhibitions) for record in inhibitions[level]],
            self.events,
        )


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


def _split(inf_id: str) -> tuple:
    """(`producer@`, `#k`): the influence id `producer@tick#k` around its tick."""
    return inf_id[:inf_id.rindex("@") + 1], inf_id[inf_id.rindex("#"):]


class ReplayMemory:
    """What one run remembers to skip repeated calls (see the module doc): by
    level, the level state whose quiet reaction call saw no influences, and
    the `HeldStep` of the last frozen tick, held for the snapshot it repeats
    on and, once it repeats, for each successor in turn."""

    def __init__(self):
        self.quiet: dict = {}  # LevelId -> LevelState
        self._held: tuple | None = None  # (snapshot, HeldStep)

    def hold(self, successor: SystemState, produced: dict, inhibitions: dict) -> None:
        """Hold the step of a frozen tick for the tick on its `successor`,
        whose time is the held step's `first`.  The ids of one tick sort
        alike on every tick unless a producer's name is another's followed
        by `@`; such a step is not held, and its successor steps."""
        producers = {inf.producer for made in produced.values() for inf in made}
        if any(name.startswith(other + "@") for name in producers for other in producers):
            self._held = None
            return
        influences = tuple(
            (level, tuple([(*_split(inf.id), inf.kind, inf.klass, inf.producer, inf.payload)
                           for inf in sorted(produced[level], key=_by_id)]))
            for level in sorted(produced)
        )
        log = tuple(
            (level, tuple([(_split(record.constraint_id), tuple(map(_split, record.inhibited_ids)))
                           for record in records]))
            for level, records in inhibitions.items()
        )
        self._held = successor, HeldStep(influences, log, successor.time)

    def replay(self, state: SystemState):
        """(next snapshot, StepInfo) of the tick on `state` when the held step
        repeats on it, else None."""
        held = self._held
        if held is None or held[0] is not state:
            return None
        successor = SystemState(state.time + 1, state.per_level, state.agents)
        self._held = successor, held[1]
        return successor, StepInfo(None, None, (), state.time, held=held[1])


def react(model: Model, state: SystemState, produced: ProducedStep, seed: int = 0,
          memory: ReplayMemory | None = None):
    """Phase 2: per-level constraint filtering + reaction, then merge.

    With a run's `memory`, a quiet call on no influences is replayed while
    the level gets none, and a frozen tick's step is held for its successor
    (see the module doc); without one, every reaction is called."""
    recorded = memory.quiet if memory is not None else {}
    results = {}
    sigmas = {}
    inhibitions = {}
    quiet = {}  # level -> whether its quiet call saw no influences
    for level in sorted(state.per_level):
        level_state = state.per_level[level]
        influences = produced.per_level.get(level, _NO_INFLUENCES)
        # A level that got no influence has nothing to filter.
        filtered, log = apply_constraints(influences) if influences else (influences, ())
        inhibitions[level] = log
        if not filtered and recorded.get(level) is level_state:
            sigmas[level] = level_state.properties
            continue
        rule = model.reactions[level]
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
            if record.id in model.detectors:
                raise ReactionFault(
                    f"reaction of level {level!r} spawned agent {record.id!r}, "
                    f"which has the name of a detector"
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
        for event in result.events:
            if not (isinstance(event, tuple) and len(event) == 2 and isinstance(event[0], str)
                    and isinstance(event[1], dict)):
                raise ReactionFault(
                    f"reaction of level {level!r} emitted {event!r}, not a (str, dict) pair")
            events.append((level, *event))

    per_level = {
        level: carried_level(level_state, sigmas[level], routed.get(level, _NO_INFLUENCES))
        for level, level_state in state.per_level.items()
    }
    next_state = SystemState(state.time + 1, per_level, agents)
    if memory is not None:
        for level, saw_nothing in quiet.items():
            if saw_nothing and per_level[level] is state.per_level[level]:
                recorded[level] = per_level[level]
        if produced.quiet and len(quiet) == len(results) and all(
            per_level[level] is level_state for level, level_state in state.per_level.items()
        ):
            # A quiet tick kept every record and spawned and removed nothing:
            # it is frozen (see the module doc).
            memory.hold(next_state, produced.per_level, inhibitions)
    return next_state, StepInfo(produced.per_level, inhibitions, tuple(events), state.time)


def step(model: Model, state: SystemState, seed: int = 0, memory: ReplayMemory | None = None):
    """One tick: (next snapshot, StepInfo), replayed as the run's `memory` allows."""
    if memory is not None:
        replayed = memory.replay(state)
        if replayed is not None:
            return replayed
    produced = produce_influences(model, state, seed)
    return react(model, state, produced, seed, memory)


class Trace:
    """A run's trace, as the records `cli.write_trace` writes: `steps`, one
    `StepInfo.record` per stepped tick in tick order, then, when `held` is a
    `HeldStep`, the run's frozen tail: ticks `held.first` to `end - 1`, each
    a replay of `held` (`held.record(tick)`).  `len` is the number of lines
    the trace file has, one per influence, inhibition record and event."""

    __slots__ = ("steps", "held", "end")

    def __init__(self, steps: list, held: HeldStep | None, end: int):
        self.steps = steps
        self.held = held
        self.end = end

    def __len__(self) -> int:
        held = self.held
        tail = 0 if held is None else (self.end - held.first) * held.row_count
        return sum([len(influences) + len(inhibitions) + len(events)
                    for _, influences, inhibitions, events in self.steps]) + tail


@dataclass(init=False, repr=False, eq=False)
class RunResult(Record):
    """What `run` returns: the final snapshot, the metrics rows, why the run
    stopped, its diagnostics and, when collected, its trace."""

    final_state: SystemState
    records: list  # one metrics dict per executed tick
    stop_reason: str
    diagnostics: tuple = ()  # (tick, name, payload) triples
    trace: Trace | tuple = ()  # a `Trace` from `run`; empty unless it collected one
    frozen_from: int | None = None  # the first tick of the frozen tail, its `held.first`

    def __init__(self, final_state, records, stop_reason, diagnostics=(), trace=(),
                 frozen_from=None):
        self.final_state = final_state
        self.records = records
        self.stop_reason = stop_reason
        self.diagnostics = diagnostics
        self.trace = trace
        self.frozen_from = frozen_from


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
    # A detector produces under its name, so an agent of that name would
    # share its influence ids.
    issues += [Issue("reference", f"agent {name!r} has the name of a detector")
               for name in sorted(model.detectors) if name in state.agents]
    if issues:
        raise ModelValidationError(issues)
    for level, level_state in state.per_level.items():
        for inf in level_state.influences:
            _check_shape(inf, f"level {level!r} of the first snapshot")

    records = []
    diagnostics = []
    steps: list = []  # the stepped ticks' trace records
    stop_reason = "tick-budget"
    memory = ReplayMemory()
    for _ in range(ticks):
        tick = state.time
        state, info = step(model, state, seed, memory)
        for level, name, payload in info.events:
            if name in DIAGNOSTIC_EVENTS:
                diagnostics.append((tick, name, payload))
        if collect_trace and info.held is None:
            steps.append(info.record())
        for observer in observers:
            observer(tick, state, info)
        if metrics is not None:
            row = metrics(tick, state, info)
            if row is not None:
                records.append(row)
        if termination is not None and termination(state):
            stop_reason = f"termination:{getattr(termination, '__name__', 'predicate')}"
            break
    # A replayed tick holds its step for its successor, so every tick after
    # the first replayed one is a replay of the same step: the run's tail.
    held = info.held
    return RunResult(
        final_state=state,
        records=records,
        stop_reason=stop_reason,
        diagnostics=tuple(diagnostics),
        trace=Trace(steps, held if collect_trace else None, state.time),
        frozen_from=None if held is None else held.first,
    )
