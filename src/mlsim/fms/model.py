"""Gradient-field AGV fleet reference model.

Three decision levels:

* ``floor``   - grid world with AGV and shop bodies; moves resolved under
  cell capacity 1.
* ``tasks``   - transport-task bookkeeping; its reaction reads the pending
  tasks from its own table and assigns them, in task order, to the nearest
  idle vehicle.  Shops are agents with bodies but no behavior: a shop emits
  attraction while a task waits at it.
* ``control`` - deadlock governance; macro "solver" agents spawn from
  deadlock emergences and constrain trapped AGVs until the blockage is
  unwound.

AGVs route by ascending a net potential: linear-decay attraction from the
shop they currently serve (all emitting shops when idle) minus linear-decay
repulsion from other active AGVs.  Narrow corridors therefore exhibit the
classic standoff/local-minimum pathology, which the detector reifies as a
deadlock emergence.

Tie-breaking is lexicographic/min-id everywhere, so a run is fully
deterministic; an optional seeded jitter on equal-potential moves can be
enabled per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType

from ..engine import (
    BehaviorRule,
    DetectorRule,
    Model,
    ReactionResult,
)
from ..errors import SafetyViolation, Value
from ..hierarchy import (
    ConstraintKindDecl,
    Declarations,
    EmergenceKindDecl,
    HierarchicalCoupling,
    InfluenceSelector,
    merge_trapped_groups,
)
from ..levels import LevelGraphSpec, validate
from ..state import (
    CONSTRAINT,
    EMERGENCE,
    AgentRecord,
    Body,
    LevelState,
    SystemState,
    bodies_of,
    body_key,
)
from .grid import GridMap, bfs_path, emitter_reach

FLOOR = "floor"
TASKS = "tasks"
CONTROL = "control"

LEVELS = (FLOOR, TASKS, CONTROL)
LEVEL_EDGES = ((FLOOR, TASKS), (TASKS, FLOOR), (FLOOR, CONTROL), (CONTROL, FLOOR))
FMS_GRAPH = LevelGraphSpec.make(LEVELS, LEVEL_EDGES, LEVEL_EDGES)

K_MOVE = "move"
K_FORCED = "forced-move"
K_REPULSE = "emit-repulsion"
K_ASSIGN = "assign-task"
K_SERVE = "can-serve"
K_PICKED = "task-picked"
K_DELIVERED = "task-delivered"
K_INH_MOVE = "inhibit-move"
K_INH_REP = "inhibit-repulsion"
K_DEADLOCK = "deadlock"
K_RESOLVED = "deadlock-resolved"
K_UNRESOLVABLE = "deadlock-unresolvable"

PRODUCIBLE_KINDS = MappingProxyType({
    FLOOR: frozenset({K_MOVE, K_FORCED, K_REPULSE, K_ASSIGN, K_INH_MOVE, K_INH_REP}),
    TASKS: frozenset({K_SERVE, K_PICKED, K_DELIVERED}),
    CONTROL: frozenset({K_DEADLOCK, K_RESOLVED, K_UNRESOLVABLE}),
})

DEADLOCK_DETECTOR = "deadlock-detector"
DETECTORS = {DEADLOCK_DETECTOR: FLOOR}  # registered detector name -> its level

# The control reaction names the n-th solver it spawns SOLVER_ID_PREFIX + n;
# a scenario may give no AGV or shop an id of that form.
SOLVER_ID_PREFIX = "solver"


def solver_id(seq: int) -> str:
    return f"{SOLVER_ID_PREFIX}{seq}"


def is_solver_id(agent_id: str) -> bool:
    digits = agent_id[len(SOLVER_ID_PREFIX):]
    return agent_id.startswith(SOLVER_ID_PREFIX) and digits.isascii() and digits.isdigit()

# The hierarchy the behaviors, the detector and the reactions below are
# written for; a scenario declares these and may add to them.
FMS_DECLARATIONS = Declarations(
    PRODUCIBLE_KINDS,
    couplings=(HierarchicalCoupling(FLOOR, TASKS), HierarchicalCoupling(FLOOR, CONTROL)),
    emergences=(EmergenceKindDecl(K_DEADLOCK, CONTROL, DEADLOCK_DETECTOR),),
    constraints=(
        ConstraintKindDecl(K_INH_MOVE, FLOOR, inhibits=K_MOVE),
        ConstraintKindDecl(K_INH_REP, FLOOR, inhibits=K_REPULSE),
    ),
)
HOLD_MOVE, HOLD_REPULSION = FMS_DECLARATIONS.constraints


def hold(ctx, decl: ConstraintKindDecl, agent: str):
    """A hold: the constraint influence of `decl` into its micro level that
    stops `agent`'s influences of the kind `decl` inhibits.  The solvers hold
    their members' moves and repulsion; the tasks reaction holds the moves of
    the candidates it passed over."""
    return ctx.make(decl.kind, decl.micro_level, klass=CONSTRAINT,
                    selector=InfluenceSelector(decl.inhibits, agent), agent=agent)


TASK_STATES = ("pending", "assigned", "picked", "delivered")


@dataclass(init=False, repr=False, eq=False)
class FmsParams(Value):
    """The reference model's field and control parameters; the defaults are
    the scenario's."""

    attract: int = 16  # shop attraction amplitude
    repulse: int = 4  # AGV repulsion amplitude
    window: int = 6  # no-progress detection window (ticks)
    clearance: int = 3  # pairwise distance at which a solved group disperses
    jitter: bool = False  # seeded random choice among equal-potential moves

    def __init__(self, attract=16, repulse=4, window=6, clearance=3, jitter=False):
        self.__dict__.update(attract=attract, repulse=repulse, window=window,
                             clearance=clearance, jitter=jitter)


# --- field sensing -----------------------------------------------------------

def agv_goal(body):
    """The cell an AGV's task sends it to: the dest while carrying, the
    source while assigned, None while idle."""
    if body.get("assigned") is None:
        return None
    return body.get("dest") if body.get("carrying") else body.get("source")


def desired_move(view, agent_id, rng=None):
    """The cell an AGV's gradient rule wants next (may equal its own cell).

    Candidates are the wall-free 4-neighbors; occupancy is *not* considered
    here - capacity conflicts are the floor reaction's business.  Moves only
    happen toward a strictly larger net potential.  The AGV's cell and its
    tied best candidates are read off `view.sense()`, the one pass that
    senses every AGV of the snapshot; the first call on a view makes it.
    The AGV keeps its cell when no candidate is strictly better, and
    otherwise takes the least tie, or with jitter on a draw of `rng` among
    the ties in sorted order.
    """
    cell, ties = view.sense()[agent_id]
    if not ties:
        return cell
    if len(ties) > 1 and rng is not None and view.params.jitter:
        return rng.choice(ties)
    return ties[0]


def _agv_bodies(level_state: LevelState):
    return MappingProxyType(
        {aid: b for aid, b in level_state.bodies().items() if b.get("type") == "agv"}
    )


def floor_agvs(level_state: LevelState):
    """The AGV bodies of a floor snapshot by agent id: one read-only mapping
    per level state, shared by the view, the solvers and the observers."""
    return level_state.derived(_agv_bodies)


class FloorView:
    """What the field law reads from one (floor, tasks) snapshot pair.

    `sense` evaluates the field law for every AGV of the snapshot in one
    pass: the rows of the AGVs with repulsion on are read once, the emitting
    shops' rows once and only when some AGV is idle, and an assigned AGV's
    goal row once.  An AGV's net potential at its cell and candidates is its
    attraction (every emitting shop's field while idle, its goal's field
    while assigned) minus the repulsion of the other AGVs whose reach meets
    those cells; the rest add nothing there.  Every term is a Python int, so
    the values equal the law's per-cell sums exactly, at any amplitude and
    in any order.

    Every producer that senses the same snapshot shares one view, and so
    the one pass: it is a pure function of the snapshot, so making it never
    changes what the view reports.
    """

    def __init__(self, grid: GridMap, params: FmsParams,
                 floor: LevelState, tasks: LevelState):
        self.grid = grid
        self.params = params
        self.floor = floor
        self.tasks = tasks
        self.agvs = floor_agvs(floor)
        self._sensed: dict | None = None

    def sense(self):
        """Agent id -> (cell, ties) of every AGV: its cell and, in sorted
        order, the candidates of the largest net potential when it is
        strictly larger than the cell's own, else no ties."""
        sensed = self._sensed
        if sensed is not None:
            return sensed
        grid, agvs = self.grid, self.agvs
        adjacency = grid.adjacency
        attract, repulse = self.params.attract, self.params.repulse
        repulsors = []
        for aid, body in agvs.items():
            if body.get("repulsion_on"):
                row = emitter_reach(grid, body.get("cell"), repulse)
                repulsors.append((aid, row, row.keys()))
        shops = None
        sensed = {}
        for aid, body in agvs.items():
            cell = body.get("cell")
            candidates = adjacency[cell]
            cells = candidates + (cell,)
            if body.get("assigned") is None:
                if shops is None:
                    shops = [emitter_reach(grid, b.get("cell"), attract)
                             for b in self.tasks.bodies().values()
                             if b.get("type") == "shop" and b.get("emitting")]
                pull = shops
            else:
                goal = agv_goal(body)
                pull = () if goal is None else (emitter_reach(grid, goal, attract),)
            push = [row for other, row, reach in repulsors
                    if other != aid and not reach.isdisjoint(cells)]
            # A cell missing from a row reads the amplitude: it adds nothing.
            values = []
            for c in cells:
                value = 0
                for row in pull:
                    d = row.get(c, attract)
                    if d < attract:
                        value += attract - d
                for row in push:
                    d = row.get(c, repulse)
                    if d < repulse:
                        value -= repulse - d
                values.append(value)
            here = values.pop()
            best = max(values, default=here)
            sensed[aid] = (cell, [c for c, v in zip(candidates, values) if v == best]
                           if best > here else ())
        self._sensed = sensed
        return sensed


class FieldSensor:
    """Hands every producer of one tick the same FloorView.

    A view is keyed by the identity of its (floor, tasks) level states: a
    snapshot is never mutated, so a changed level state gets a fresh view,
    and a tick that carries both level states over keeps the view with its
    sensed fields.  Nothing else outlives a view.
    """

    def __init__(self, grid: GridMap, params: FmsParams):
        self.grid = grid
        self.params = params
        self._view: FloorView | None = None

    def view(self, floor: LevelState, tasks: LevelState) -> FloorView:
        view = self._view
        if view is None or view.floor is not floor or view.tasks is not tasks:
            view = self._view = FloorView(self.grid, self.params, floor, tasks)
        return view


# --- behaviors ---------------------------------------------------------------

class AgvBehavior(BehaviorRule):
    """Sense the net field, head for the strictly best neighbor, advertise
    capability when idle, claim right-of-way (repulsion) when on a task.

    The internal state holds only the AGV's own body and the cell it wants,
    never the shared view; it is kept as is while the body is the same
    object and the wanted cell the same, so a tick on which every AGV stalls
    can freeze and be replayed whole (`engine`)."""

    def __init__(self, sensor: FieldSensor):
        self.sensor = sensor

    def perceive(self, percept, me):
        return me.id, self.sensor.view(percept[FLOOR], percept[TASKS])

    def memorize(self, perception, internal_state, ctx):
        me, view = perception
        body = view.agvs[me]
        to = desired_move(view, me, ctx.rng if self.sensor.params.jitter else None)
        # Nothing changed: the held state itself, so the tick can freeze.
        if internal_state is not None and internal_state["body"] is body \
                and internal_state["to"] == to:
            return internal_state
        return {"me": me, "body": body, "to": to}

    def decide(self, internal_state, ctx):
        body = internal_state["body"]
        me = internal_state["me"]
        out = []
        if body.get("assigned") is None:
            out.append(ctx.make(K_SERVE, TASKS, agent=me, cell=body.get("cell")))
        else:
            out.append(ctx.make(K_REPULSE, FLOOR, agent=me))
        out.append(
            ctx.make(K_MOVE, FLOOR, agent=me, frm=body.get("cell"), to=internal_state["to"])
        )
        return out


def ideal_cells(grid: GridMap, cell, goal) -> set:
    """The cells of `bfs_path(grid, cell, goal)`, or {cell} when it has none.

    That path is the walk down the goal's cached wall-only row that steps,
    from each cell, to the smallest neighbor one step closer to the goal.
    """
    row = grid.distances(goal)
    d = row.get(cell)
    if d is None:
        return {cell}
    adjacency = grid.adjacency
    path = {cell}
    while d:
        d -= 1
        cell = next(c for c in adjacency[cell] if row[c] == d)
        path.add(cell)
    return path


class SolverBehavior(BehaviorRule):
    """Macro deadlock-solving agent.

    Phases: plan (pick a member and a parking cell off the other members'
    ideal paths), parking (force-move the parker one step per tick, everyone
    else frozen), clearing (only the parker held; others flow past under
    normal gradient routing), resolved (signal the control reaction to
    dissolve this agent).  Planning failure means the trapped set is fully
    enclosed: reported upward as unresolvable, the agent persists and keeps
    retrying in case a blocker moves away.

    The plan is the nearest parking cell: its members' searches around the
    other AGVs advance one level at a time, together, and stop at the first
    level that holds a valid cell, so a plan costs the distance to its
    answer, not the size of the floor.

    `memorize` returns the held state itself when nothing in it changed: the
    same phase and plan, and a view of the same floor snapshot with the same
    members, so a tick on which the solver stalls can freeze and be replayed
    whole (`engine`).  Until then a planning or stuck solver plans on every
    call.
    """

    def __init__(self, grid: GridMap, params: FmsParams):
        self.grid = grid
        self.params = params

    def perceive(self, percept, me):
        return {
            "me": me.id,
            "trapped": tuple(percept[CONTROL].bodies()[me.id].get("trapped", ())),
            "agvs": floor_agvs(percept[FLOOR]),
        }

    def _plan(self, members, agvs):
        """The (parker, target) minimizing (parking path length, member,
        target), where a target is a free cell that no AGV occupies and no
        other member's ideal path crosses, reached around the other AGVs;
        None when no member has one."""
        grid = self.grid
        ideal: dict[str, set] = {}
        for m in sorted(members):
            body = agvs.get(m)
            if body is not None:
                goal = agv_goal(body)
                cell = body.get("cell")
                ideal[m] = ideal_cells(grid, cell, goal) if goal else {cell}
        occupied = {b.get("cell") for b in agvs.values()}
        adjacency = grid.adjacency
        # One breadth-first search per member: (member, cells it may not
        # park on, cells seen, frontier).  Every AGV's cell is a wall to it.
        searches = []
        for m in ideal:
            cell = agvs[m].get("cell")
            if cell in adjacency:
                others = set().union(*(p for o, p in ideal.items() if o != m))
                searches.append((m, others, set(occupied), [cell]))
        # Level d of every search, in member order: the first valid cells
        # found hold the least (d, member), so their least cell is the plan.
        while searches:
            growing = []
            for m, others, seen, frontier in searches:
                reached = []
                for cell in frontier:
                    for nxt in adjacency[cell]:
                        if nxt not in seen:
                            seen.add(nxt)
                            reached.append(nxt)
                valid = [c for c in reached if c not in others]
                if valid:
                    return m, min(valid)
                if reached:
                    growing.append((m, others, seen, reached))
            searches = growing
        return None

    def memorize(self, perception, internal_state, ctx):
        state = dict(internal_state or {})
        # The held view stands for an equal perception of the same floor
        # snapshot; a state that keeps it is compared with the held one at the
        # end, and the view is then compared by identity, never body by body.
        view = state.get("view")
        kept = (view is not None and view["agvs"] is perception["agvs"]
                and view["me"] == perception["me"] and view["trapped"] == perception["trapped"])
        if not kept:
            view = state["view"] = perception
        members = sorted(view["trapped"])
        agvs = view["agvs"]
        phase = state.get("phase", "plan")

        if phase in ("plan", "stuck"):
            plan = self._plan(members, agvs)
            if plan is None:
                state["phase"] = "stuck"
            else:
                state["phase"] = "parking"
                state["parker"], state["target"] = plan
        if state.get("phase") == "parking":
            parker_body = agvs.get(state["parker"])
            if parker_body is not None and parker_body.get("cell") == state["target"]:
                state["phase"] = "clearing"
        if state.get("phase") == "clearing":
            cells = [agvs[m].get("cell") for m in members if m in agvs]
            if not any(self.grid.near(a, b, self.params.clearance)
                       for i, a in enumerate(cells) for b in cells[i + 1:]):
                state["phase"] = "resolved"
        return internal_state if kept and state == internal_state else state

    def decide(self, internal_state, ctx):
        state = internal_state
        view = state["view"]
        me = view["me"]
        members = sorted(view["trapped"])
        agvs = view["agvs"]
        phase = state.get("phase", "plan")
        out = []

        if phase == "clearing":
            frozen = [state["parker"]] if state.get("parker") in members else []
        else:
            frozen = members
        out += [hold(ctx, HOLD_MOVE, m) for m in frozen]
        out += [hold(ctx, HOLD_REPULSION, m) for m in members]

        if phase == "parking":
            parker = state["parker"]
            body = agvs.get(parker)
            if body is not None and body.get("cell") != state["target"]:
                obstacles = frozenset(
                    b.get("cell") for a, b in agvs.items() if a != parker
                )
                path = bfs_path(self.grid, body.get("cell"), state["target"], obstacles)
                if path is not None and len(path) >= 2:
                    out.append(
                        ctx.make(
                            K_FORCED, FLOOR, agent=parker,
                            frm=body.get("cell"), to=path[1],
                        )
                    )
        elif phase == "resolved":
            out.append(ctx.make(K_RESOLVED, CONTROL, solver=me, trapped=tuple(members)))
        elif phase == "stuck":
            out.append(
                ctx.make(K_UNRESOLVABLE, CONTROL, solver=me, trapped=tuple(members))
            )
        return out


# --- detector ----------------------------------------------------------------

def wait_cycles(waits: dict) -> set:
    """Every agent on a cycle of the wait-for map `waits` (agent -> blocker).

    Each agent waits on at most one blocker, so following an agent's chain
    either ends, joins a chain already walked, or closes a cycle.
    """
    in_cycle: set = set()
    walked: set = set()
    for start in waits:
        chain: list = []
        agent = start
        while agent in waits and agent not in walked and agent not in chain:
            chain.append(agent)
            agent = waits[agent]
        if agent in chain:
            in_cycle.update(chain[chain.index(agent):])
        walked.update(chain)
    return in_cycle


def governed_agvs(solvers) -> set:
    """The AGVs some solver traps, from solver bodies by id (as
    `bodies_of(..., "solver")` selects them)."""
    return {aid for body in solvers.values() for aid in body.get("trapped", ())}


def make_deadlock_detector(sensor: FieldSensor) -> DetectorRule:
    """Wait-for-cycle and no-progress detector over the floor snapshot.

    Only assigned AGVs count, and AGVs already governed by a solver are
    skipped so a standing deadlock is not re-reported while being solved.
    Desired moves come from the shared view with the `min` tie-break, even
    when the AGVs themselves jitter.

    A tick that repeats a frozen one does not call the detector: the engine
    replays its `deadlock` influences under the tick's ids.
    """
    grid, params = sensor.grid, sensor.params

    def rule(percept, ctx):
        view = sensor.view(percept[FLOOR], percept[TASKS])
        return [
            ctx.make(K_DEADLOCK, CONTROL, klass=EMERGENCE, trapped=group)
            for group in trapped_groups(view, percept[CONTROL])
        ]

    def trapped_groups(view, control):
        """The flagged AGVs' groups, each a sorted tuple of agent ids."""
        agvs = view.agvs
        governed = governed_agvs(bodies_of(control.properties, "solver"))
        occupant = {b.get("cell"): aid for aid, b in agvs.items()}
        candidates = {}
        for aid in sorted(agvs):
            body = agvs[aid]
            if body.get("assigned") is None or aid in governed:
                continue
            candidates[aid] = desired_move(view, aid)

        waits = {}
        for aid, to in candidates.items():
            if to == agvs[aid].get("cell"):
                continue
            blocker = occupant.get(to)
            if blocker is not None:
                waits[aid] = blocker

        in_cycle = wait_cycles(waits)

        stalled = set()
        for aid in candidates:
            window = agvs[aid].get("window", ())
            if len(window) >= params.window and len(set(window[-params.window:])) == 1:
                stalled.add(aid)

        flagged = sorted(in_cycle | stalled)
        if not flagged:
            return []

        # Group flagged AGVs within field range.  An AGV waits only on the
        # occupant of a free neighbor, at distance 1, so waiting pairs are
        # near too.
        reach = max(2, params.repulse) + 1
        links = [{a} for a in flagged]
        for i, a in enumerate(flagged):
            for b in flagged[i + 1:]:
                if grid.near(agvs[a].get("cell"), agvs[b].get("cell"), reach):
                    links.append({a, b})

        return [tuple(sorted(group)) for group in merge_trapped_groups(links)]

    return DetectorRule(name=DEADLOCK_DETECTOR, level=DETECTORS[DEADLOCK_DETECTOR], rule=rule)


# --- reactions ---------------------------------------------------------------

def resolve_moves(current: dict, desired: dict) -> dict:
    """Simultaneous moves under cell capacity 1.

    Fixed point of three rules: a move into a staying agent's cell is
    cancelled; swap pairs both stay; several movers onto one cell keep only
    the lowest agent id.  Rotations of three or more are allowed.
    """
    movers = {a for a in current if desired[a] != current[a]}
    changed = True
    while changed:
        changed = False
        stay_cells = {current[a] for a in current if a not in movers}
        for a in sorted(movers):
            if desired[a] in stay_cells:
                movers.discard(a)
                changed = True
        # One order for the whole scan; `b in movers` skips a mover that an
        # earlier swap of this scan dropped, as re-sorting for each `a` did.
        order = sorted(movers)
        for a in order:
            for b in order:
                if (a < b and desired[a] == current[b] and desired[b] == current[a]
                        and b in movers):
                    movers.discard(a)
                    movers.discard(b)
                    changed = True
        by_target: dict = {}
        for a in sorted(movers):
            by_target.setdefault(desired[a], []).append(a)
        for group in by_target.values():
            for a in group[1:]:
                movers.discard(a)
                changed = True
    return {a: (desired[a] if a in movers else current[a]) for a in current}


_by_id = attrgetter("id")


def by_kind(influences) -> dict:
    """Kind -> that kind's influences in id order, from one sort of the set."""
    out: dict = {}
    for inf in sorted(influences, key=_by_id):
        out.setdefault(inf.kind, []).append(inf)
    return out


def make_floor_reaction(grid: GridMap, params: FmsParams):
    def floor_reaction(level, sigma, influences, ctx):
        agvs = bodies_of(sigma, "agv")
        persisted = []
        events = []
        kinds = by_kind(influences)

        for inf in kinds.get(K_ASSIGN, ()):
            aid = inf.payload["agent"]
            body = agvs.get(aid)
            if body is not None and body.get("assigned") is None:
                agvs[aid] = body.with_attrs(
                    assigned=inf.payload["task"],
                    source=tuple(inf.payload["source_cell"]),
                    dest=tuple(inf.payload["dest_cell"]),
                )

        current = {aid: b.get("cell") for aid, b in agvs.items()}
        desired = dict(current)
        for inf in kinds.get(K_MOVE, []) + kinds.get(K_FORCED, []):
            aid = inf.payload["agent"]
            if aid in agvs:
                to = tuple(inf.payload["to"])
                if grid.is_free(to):
                    desired[aid] = to

        final = resolve_moves(current, desired)

        repulsing = {inf.payload["agent"] for inf in kinds.get(K_REPULSE, ())}
        for aid in sorted(agvs):
            body = agvs[aid]
            cell = final[aid]
            window = (body.get("window", ()) + (cell,))[-params.window:]
            repulsion_on = aid in repulsing
            # A body whose cell, window and repulsion stay the same is kept
            # itself, so an unchanged floor can be carried over.
            if (cell != body.get("cell") or window != body.get("window")
                    or repulsion_on != body.get("repulsion_on")):
                body = body.with_attrs(cell=cell, window=window, repulsion_on=repulsion_on)
            if (
                body.get("assigned") is not None
                and body.get("carrying") is None
                and cell == body.get("source")
            ):
                body = body.with_attrs(carrying=body.get("assigned"))
                persisted.append(
                    ctx.make(K_PICKED, TASKS, task=body.get("assigned"), agent=aid)
                )
                events.append(("task-picked", {"task": body.get("assigned"), "agent": aid}))
            elif body.get("carrying") is not None and cell == body.get("dest"):
                tid = body.get("carrying")
                body = body.with_attrs(carrying=None, assigned=None, source=None, dest=None)
                persisted.append(ctx.make(K_DELIVERED, TASKS, task=tid, agent=aid))
                events.append(("task-delivered", {"task": tid, "agent": aid}))
            sigma[body_key(aid)] = body
        return ReactionResult(sigma, tuple(persisted), events=tuple(events))

    return floor_reaction


def waiting_shops(tasks: dict) -> set:
    """The ids of the shops some task waits at, the shops that emit
    attraction: a pending or assigned task waits at its source shop, a picked
    one at its dest shop."""
    waiting = set()
    for t in tasks.values():
        if t["state"] in ("pending", "assigned"):
            waiting.add(t["source"])
        elif t["state"] == "picked":
            waiting.add(t["dest"])
    return waiting


def make_tasks_reaction(grid: GridMap):
    def tasks_reaction(level, sigma, influences, ctx):
        # Copy-on-write: the snapshot's table and task dicts are shared with
        # the new table, and a task is copied only when its state changes.
        # With no change the snapshot's table itself is kept.
        tasks = dict(sigma.get("tasks", {}))
        changed = set()
        persisted = []
        events = []

        def update(tid, **attrs):
            tasks[tid] = {**tasks[tid], **attrs}
            changed.add(tid)

        offers = {}
        for inf in sorted(influences, key=_by_id):
            kind = inf.kind
            if kind == K_SERVE:
                offers[inf.payload["agent"]] = tuple(inf.payload["cell"])
            elif kind == K_PICKED or kind == K_DELIVERED:
                tid = inf.payload["task"]
                task = tasks.get(tid)
                if task is None:
                    continue
                if kind == K_PICKED and task["state"] == "assigned":
                    update(tid, state="picked")
                elif kind == K_DELIVERED and task["state"] == "picked":
                    update(tid, state="delivered")
                    events.append(("delivered", {"task": tid}))

        # The demand is the level's own table: every task still pending after
        # this tick's picks and deliveries, in (order, id) order.  One pass
        # finds it and the AGVs already on a task; with no offer there is
        # nothing to assign, and no pass.
        available = {}
        demands = []
        if offers:
            busy = set()
            for tid, t in tasks.items():
                if t["state"] == "pending":
                    demands.append((t["order"], tid))
                elif t["state"] in ("assigned", "picked") and t.get("assigned_to"):
                    busy.add(t["assigned_to"])
            available = {a: c for a, c in offers.items() if a not in busy}

        assigned_any = False
        for _, tid in sorted(demands):
            if not available:
                break
            task = tasks[tid]
            dist = grid.distances(tuple(task["source_cell"]))
            reachable = {a: dist.get(c) for a, c in available.items() if dist.get(c) is not None}
            if not reachable:
                continue
            winner = min(reachable, key=lambda a: (reachable[a], a))
            update(tid, state="assigned", assigned_to=winner)
            del available[winner]
            assigned_any = True
            persisted.append(
                ctx.make(
                    K_ASSIGN,
                    FLOOR,
                    agent=winner,
                    task=tid,
                    source_cell=tuple(task["source_cell"]),
                    dest_cell=tuple(task["dest_cell"]),
                )
            )
            events.append(("assigned", {"task": tid, "agent": winner}))

        if assigned_any:
            # Passed-over candidates hold position this step instead of
            # chasing a task that was just given to someone else.
            persisted += [hold(ctx, HOLD_MOVE, agent) for agent in sorted(available)]

        # Only the source and dest shops of a changed task can start or stop
        # emitting; every other shop body is carried over as it is.
        if changed:
            waiting = waiting_shops(tasks)
            for tid in changed:
                for sid in (tasks[tid]["source"], tasks[tid]["dest"]):
                    body = sigma.get(body_key(sid))
                    emitting = sid in waiting
                    if (body is not None and body.get("type") == "shop"
                            and body.get("emitting") != emitting):
                        sigma[body_key(sid)] = body.with_attrs(emitting=emitting)

        if changed or "tasks" not in sigma:
            sigma["tasks"] = tasks
        return ReactionResult(sigma, tuple(persisted), events=tuple(events))

    return tasks_reaction


def make_control_reaction(grid: GridMap, params: FmsParams, control_enabled: bool):
    def control_reaction(level, sigma, influences, ctx):
        events = []
        spawn = []
        remove = []
        solver_bodies = bodies_of(sigma, "solver")

        kinds = by_kind(influences)
        removed = set()
        for inf in kinds.get(K_RESOLVED, ()):
            sid = inf.payload["solver"]
            if sid in solver_bodies and sid not in removed:
                removed.add(sid)
                remove.append(sid)
                sigma["deadlocks_resolved"] = sigma.get("deadlocks_resolved", 0) + 1
                events.append(
                    (
                        "deadlock-resolved",
                        {"solver": sid, "trapped": list(solver_bodies[sid].get("trapped", ()))},
                    )
                )

        for inf in kinds.get(K_UNRESOLVABLE, ()):
            sig = tuple(inf.payload["trapped"])
            known = tuple(sigma.get("unresolvable", ()))
            if sig not in known:
                sigma["unresolvable"] = known + (sig,)
                events.append(
                    (
                        "no-escape-path",
                        {"solver": inf.payload["solver"], "trapped": list(sig)},
                    )
                )

        governed = governed_agvs(
            {sid: b for sid, b in solver_bodies.items() if sid not in removed})

        groups = [frozenset(inf.payload["trapped"]) for inf in kinds.get(K_DEADLOCK, ())]
        groups = [g for g in groups if g and not (g & governed)]
        for group in merge_trapped_groups(groups):
            if control_enabled:
                seq = sigma.get("solver_seq", 0)
                sigma["solver_seq"] = seq + 1
                sid = solver_id(seq)
                sigma["deadlocks_detected"] = sigma.get("deadlocks_detected", 0) + 1
                sigma[body_key(sid)] = Body(
                    CONTROL,
                    {"type": "solver", "trapped": tuple(sorted(group)), "since": ctx.tick},
                )
                spawn.append(AgentRecord(id=sid, kind="solver"))
                events.append(
                    ("deadlock-detected", {"solver": sid, "trapped": sorted(group)})
                )
            else:
                sig = tuple(sorted(group))
                observed = tuple(sigma.get("observed", ()))
                if sig not in observed:
                    sigma["observed"] = observed + (sig,)
                    sigma["deadlocks_detected"] = sigma.get("deadlocks_detected", 0) + 1
                    events.append(("deadlock-detected", {"trapped": list(sig)}))

        return ReactionResult(
            sigma, (), spawn=tuple(spawn), remove=tuple(remove), events=tuple(events)
        )

    return control_reaction


# --- model / initial state builders -----------------------------------------

def build_fms_model(grid: GridMap, agv_ids, params: FmsParams,
                    control: bool = True, graph=None,
                    decls: Declarations = FMS_DECLARATIONS) -> Model:
    """The model of one floor: an `AgvBehavior` per AGV id and a solver
    behavior for the agents the control level spawns.  Shops have bodies but
    no behavior: the tasks level reads their tasks from its own table."""
    graph = graph or validate(FMS_GRAPH)
    sensor = FieldSensor(grid, params)
    behaviors = dict.fromkeys(agv_ids, AgvBehavior(sensor))
    detector = make_deadlock_detector(sensor)
    return Model(
        graph=graph,
        behaviors=behaviors,
        dynamic_behaviors={"solver": SolverBehavior(grid, params)},
        detectors={detector.name: detector},
        reactions={
            FLOOR: make_floor_reaction(grid, params),
            TASKS: make_tasks_reaction(grid),
            CONTROL: make_control_reaction(grid, params, control),
        },
        decls=decls,
    )


def build_initial_state(grid: GridMap, agvs: dict, shops: dict, tasks) -> SystemState:
    """agvs: id -> cell; shops: id -> cell; tasks: iterable of dicts with
    id/source/dest shop ids (declaration order fixes assignment priority)."""
    task_table = {}
    for order, task in enumerate(tasks):
        task_table[task["id"]] = {
            "source": task["source"],
            "dest": task["dest"],
            "source_cell": tuple(shops[task["source"]]),
            "dest_cell": tuple(shops[task["dest"]]),
            "state": "pending",
            "assigned_to": None,
            "order": order,
        }

    floor_props = {}
    tasks_props = {"tasks": task_table}
    control_props = {
        "deadlocks_detected": 0,
        "deadlocks_resolved": 0,
        "solver_seq": 0,
    }
    agents = {}

    for aid in sorted(agvs):
        body = Body(
            FLOOR,
            {
                "type": "agv",
                "cell": tuple(agvs[aid]),
                "carrying": None,
                "assigned": None,
                "source": None,
                "dest": None,
                "repulsion_on": False,
                "window": (),
            },
        )
        floor_props[body_key(aid)] = body
        agents[aid] = AgentRecord(id=aid, kind="agv")

    waiting = waiting_shops(task_table)
    for sid in sorted(shops):
        cell = tuple(shops[sid])
        floor_props[body_key(sid)] = Body(FLOOR, {"type": "shop", "cell": cell})
        tasks_props[body_key(sid)] = Body(
            TASKS, {"type": "shop", "cell": cell, "emitting": sid in waiting}
        )
        agents[sid] = AgentRecord(id=sid, kind="shop")

    return SystemState(
        time=0,
        per_level={
            FLOOR: LevelState(FLOOR, floor_props),
            TASKS: LevelState(TASKS, tasks_props),
            CONTROL: LevelState(CONTROL, control_props),
        },
        agents=agents,
    )


# --- run helpers -------------------------------------------------------------

def _delivered(tasks: LevelState) -> int:
    return sum(1 for t in tasks.properties.get("tasks", {}).values() if t["state"] == "delivered")


def _idle_ratio(floor: LevelState) -> float:
    agvs = floor_agvs(floor)
    idle = sum(1 for b in agvs.values() if b.get("assigned") is None)
    return round(idle / len(agvs), 6) if agvs else 0.0


def all_tasks_delivered(state: SystemState) -> bool:
    level_state = state.per_level[TASKS]
    tasks = level_state.properties.get("tasks", {})
    return bool(tasks) and level_state.derived(_delivered) == len(tasks)


all_tasks_delivered.__name__ = "all-delivered"


def fms_metrics(tick, state: SystemState, info) -> dict:
    """One metrics row.  The delivered count and the idle ratio are read
    through `LevelState.derived`, once per level state; the active
    constraints are `info.constraints`, which a replayed tick answers
    without making its influences or inhibition records."""
    control = state.per_level[CONTROL].properties
    return {
        "tick": tick,
        "tasks_delivered": state.per_level[TASKS].derived(_delivered),
        "deadlocks_detected": control.get("deadlocks_detected", 0),
        "deadlocks_resolved": control.get("deadlocks_resolved", 0),
        "active_constraints": info.constraints,
        "agv_idle_ratio": state.per_level[FLOOR].derived(_idle_ratio),
    }


class SafetyChecker:
    """Observer enforcing occupancy and task-monotonicity invariants each tick.

    A floor level state or task table it has already checked passes again,
    so it is skipped: a carried-over snapshot costs no check."""

    STATE_INDEX = {name: i for i, name in enumerate(TASK_STATES)}

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._last_task_states: dict = {}
        self._checked_floor = None
        self._checked_tasks = None

    def __call__(self, tick, state: SystemState, info):
        floor = state.per_level[FLOOR]
        if floor is not self._checked_floor:
            agvs = floor_agvs(floor)
            cells = [b.get("cell") for b in agvs.values()]
            if len(cells) != len(set(cells)):
                raise SafetyViolation(f"tick {tick}: two AGVs share a cell ({cells})")
            free = self.grid.adjacency  # keyed by the free cells
            for aid, b in agvs.items():
                if b.get("cell") not in free:
                    raise SafetyViolation(f"tick {tick}: {aid} on blocked cell {b.get('cell')}")
            self._checked_floor = floor
        tasks = state.per_level[TASKS].properties.get("tasks", {})
        if tasks is self._checked_tasks:
            return
        for tid, task in tasks.items():
            new = self.STATE_INDEX[task["state"]]
            old = self._last_task_states.get(tid, 0)
            if new < old:
                raise SafetyViolation(
                    f"tick {tick}: task {tid} regressed {TASK_STATES[old]} -> {task['state']}"
                )
            self._last_task_states[tid] = new
        self._checked_tasks = tasks
