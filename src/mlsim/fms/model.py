"""Gradient-field AGV fleet reference model.

Three decision levels:

* ``floor``   - grid world with AGV and shop bodies; moves resolved under
  cell capacity 1.
* ``tasks``   - transport-task bookkeeping; its reaction is a greedy
  nearest-vehicle assignment algorithm.
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
from types import MappingProxyType

from ..engine import (
    BehaviorRule,
    DetectorRule,
    Model,
    ReactionResult,
)
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
from .grid import GridMap, bfs_distances, bfs_path, compute_fields

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
K_NEED = "need-transport"
K_PICKED = "task-picked"
K_DELIVERED = "task-delivered"
K_INH_MOVE = "inhibit-move"
K_INH_REP = "inhibit-repulsion"
K_DEADLOCK = "deadlock"
K_RESOLVED = "deadlock-resolved"
K_UNRESOLVABLE = "deadlock-unresolvable"

PRODUCIBLE_KINDS = MappingProxyType({
    FLOOR: frozenset({K_MOVE, K_FORCED, K_REPULSE, K_ASSIGN, K_INH_MOVE, K_INH_REP}),
    TASKS: frozenset({K_SERVE, K_NEED, K_PICKED, K_DELIVERED}),
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

TASK_STATES = ("pending", "assigned", "picked", "delivered")


@dataclass(frozen=True)
class FmsParams:
    attract: int = 16  # shop attraction amplitude
    repulse: int = 4  # AGV repulsion amplitude
    window: int = 6  # no-progress detection window (ticks)
    clearance: int = 3  # pairwise distance at which a solved group disperses
    jitter: bool = False  # seeded random choice among equal-potential moves


# --- field sensing -----------------------------------------------------------

def agv_goal(body):
    """The cell an AGV's task sends it to: the dest while carrying, the
    source while assigned, None while idle."""
    if body.get("assigned") is None:
        return None
    return body.get("dest") if body.get("carrying") else body.get("source")


def desired_move(grid, params, agent_id, body, agv_bodies, emitting_cells, rng=None):
    """The cell an AGV's gradient rule wants next (may equal its own cell).

    Candidates are the wall-free 4-neighbors; occupancy is *not* considered
    here - capacity conflicts are the floor reaction's business.  Moves only
    happen toward a strictly larger net potential.
    """
    cell = body.get("cell")
    if body.get("assigned") is None:
        attract = sorted(emitting_cells)
    else:
        goal = agv_goal(body)
        attract = [goal] if goal is not None else []
    repulse = sorted(
        b.get("cell")
        for other, b in agv_bodies.items()
        if other != agent_id and b.get("repulsion_on")
    )
    candidates = grid.adjacency[cell]
    values = compute_fields(
        grid,
        [(c, params.attract) for c in attract],
        [(c, params.repulse) for c in repulse],
        cells=candidates + (cell,),
    )
    here = values[cell]
    best = max((values[c] for c in candidates), default=here)
    if best <= here:
        return cell
    ties = [c for c in candidates if values[c] == best]
    if params.jitter and rng is not None and len(ties) > 1:
        return rng.choice(sorted(ties))
    return min(ties)


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

    It holds the AGV bodies, the emitting shop cells and a memo of each
    AGV's jitter-free desired move, filled on first ask.  Every producer
    that senses the same snapshot shares one view, so without jitter the
    field is evaluated once per AGV and tick.  The memo caches a pure
    function of the snapshot, so filling it never changes what the view
    reports.
    """

    def __init__(self, grid: GridMap, params: FmsParams, floor: LevelState,
                 tasks: LevelState):
        self.floor = floor
        self.tasks = tasks
        self.agvs = floor_agvs(floor)
        self.emitting = tuple(
            b.get("cell")
            for b in tasks.bodies().values()
            if b.get("type") == "shop" and b.get("emitting")
        )
        self._grid = grid
        self._params = params
        self._moves: dict = {}

    def move(self, agent_id):
        """`desired_move` of one AGV with the `min` tie-break."""
        to = self._moves.get(agent_id)
        if to is None:
            to = self._moves[agent_id] = desired_move(
                self._grid, self._params, agent_id, self.agvs[agent_id], self.agvs,
                self.emitting,
            )
        return to


class FieldSensor:
    """Hands every producer of one tick the same FloorView.

    A view is keyed by the identity of its (floor, tasks) level states: a
    snapshot is never mutated, and each tick builds new level states, so a
    new snapshot always gets a fresh view.
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
    never the shared view."""

    def __init__(self, sensor: FieldSensor):
        self.sensor = sensor

    def perceive(self, percept, me):
        return me.id, self.sensor.view(percept[FLOOR], percept[TASKS])

    def memorize(self, perception, internal_state, ctx):
        me, view = perception
        body = view.agvs.get(me)
        sensor = self.sensor
        if body is None:
            to = None
        elif sensor.params.jitter:
            to = desired_move(
                sensor.grid, sensor.params, me, body, view.agvs, view.emitting, ctx.rng
            )
        else:
            to = view.move(me)
        return {"me": me, "body": body, "to": to}

    def decide(self, internal_state, ctx):
        body = internal_state["body"]
        if body is None:
            return []
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


class ShopBehavior(BehaviorRule):
    """Request transport for every still-unassigned task waiting at this shop."""

    def perceive(self, percept, me):
        tasks_level = percept[TASKS]
        return {
            "me": me.id,
            "queue": tasks_level.bodies().get(me.id, Body(TASKS)).get("pending", ()),
            "tasks": tasks_level.properties.get("tasks", {}),
        }

    def memorize(self, perception, internal_state, ctx):
        return {"view": perception}

    def decide(self, internal_state, ctx):
        view = internal_state["view"]
        out = []
        for tid in view["queue"]:
            task = view["tasks"].get(tid)
            if task is None or task["state"] != "pending":
                continue
            out.append(
                ctx.make(
                    K_NEED,
                    TASKS,
                    task=tid,
                    source_cell=tuple(task["source_cell"]),
                    dest_cell=tuple(task["dest_cell"]),
                    order=task["order"],
                )
            )
        return out


class SolverBehavior(BehaviorRule):
    """Macro deadlock-solving agent.

    Phases: plan (pick a member and a parking cell off the other members'
    ideal paths), parking (force-move the parker one step per tick, everyone
    else frozen), clearing (only the parker held; others flow past under
    normal gradient routing), resolved (signal the control reaction to
    dissolve this agent).  Planning failure means the trapped set is fully
    enclosed: reported upward as unresolvable, the agent persists and keeps
    retrying in case a blocker moves away.
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
        ideal: dict[str, set] = {}
        for m in members:
            body = agvs.get(m)
            if body is None:
                ideal[m] = set()
                continue
            goal = agv_goal(body)
            path = bfs_path(self.grid, body.get("cell"), goal) if goal else None
            ideal[m] = set(path) if path else {body.get("cell")}
        occupied = {b.get("cell") for b in agvs.values()}
        best = None
        for m in members:
            body = agvs.get(m)
            if body is None:
                continue
            others_paths = set().union(*(ideal[o] for o in members if o != m)) if len(members) > 1 else set()
            obstacles = frozenset(occupied - {body.get("cell")})
            # A parking path of d steps has d + 1 cells; the own cell is
            # occupied, so every target left here is at least one step away.
            dist = bfs_distances(self.grid, body.get("cell"), obstacles)
            for target, d in dist.items():
                if target in occupied or target in others_paths:
                    continue
                key = (d + 1, m, target)
                if best is None or key < best[0]:
                    best = (key, m, target)
        if best is None:
            return None
        _, parker, target = best
        return parker, target

    def memorize(self, perception, internal_state, ctx):
        state = dict(internal_state or {})
        state["view"] = perception
        members = sorted(perception["trapped"])
        agvs = perception["agvs"]
        phase = state.get("phase", "plan")

        if phase in ("plan", "stuck"):
            # `_plan` reads only the members and every AGV's cell and goal:
            # while those stay the same, a stuck solver stays stuck.
            key = (tuple(members), tuple(
                (aid, b.get("cell"), agv_goal(b)) for aid, b in agvs.items()
            ))
            if phase == "plan" or state.get("plan_key") != key:
                state["plan_key"] = key
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
            dispersed = True
            for i, a in enumerate(cells):
                dist = self.grid.distances_below(a, self.params.clearance)
                for b in cells[i + 1:]:
                    if dist.get(b, self.params.clearance) < self.params.clearance:
                        dispersed = False
            if dispersed:
                state["phase"] = "resolved"
        return state

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
        for m in frozen:
            out.append(
                ctx.make(
                    K_INH_MOVE,
                    FLOOR,
                    klass=CONSTRAINT,
                    selector=InfluenceSelector(match_kind=K_MOVE, match_producer=m),
                    agent=m,
                )
            )
        for m in members:
            out.append(
                ctx.make(
                    K_INH_REP,
                    FLOOR,
                    klass=CONSTRAINT,
                    selector=InfluenceSelector(match_kind=K_REPULSE, match_producer=m),
                    agent=m,
                )
            )

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


def make_deadlock_detector(sensor: FieldSensor) -> DetectorRule:
    """Wait-for-cycle and no-progress detector over the floor snapshot.

    Only assigned AGVs count, and AGVs already governed by a solver are
    skipped so a standing deadlock is not re-reported while being solved.
    Desired moves come from the shared view with the `min` tie-break, even
    when the AGVs themselves jitter.
    """
    grid, params = sensor.grid, sensor.params

    def rule(percept, ctx):
        view = sensor.view(percept[FLOOR], percept[TASKS])
        agvs = view.agvs
        governed: set[str] = set()
        for b in percept[CONTROL].bodies().values():
            if b.get("type") == "solver":
                governed.update(b.get("trapped", ()))

        occupant = {b.get("cell"): aid for aid, b in agvs.items()}
        candidates = {}
        for aid in sorted(agvs):
            body = agvs[aid]
            if body.get("assigned") is None or aid in governed:
                continue
            candidates[aid] = view.move(aid)

        waits = {}
        for aid, to in candidates.items():
            if to == agvs[aid].get("cell"):
                continue
            blocker = occupant.get(to)
            if blocker is not None and blocker != aid:
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

        # Group flagged AGVs: wait-for adjacency or field-range proximity.
        radius = max(2, params.repulse)
        links = [{a} for a in flagged]
        for i, a in enumerate(flagged):
            dist = grid.distances_below(agvs[a].get("cell"), radius + 1)
            for b in flagged[i + 1:]:
                near = dist.get(agvs[b].get("cell"), radius + 1) <= radius
                waiting = waits.get(a) == b or waits.get(b) == a
                if near or waiting:
                    links.append({a, b})

        out = []
        for group in merge_trapped_groups(links):
            out.append(
                ctx.make(
                    K_DEADLOCK,
                    CONTROL,
                    klass=EMERGENCE,
                    trapped=tuple(sorted(group)),
                )
            )
        return out

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
        for a in sorted(movers):
            for b in sorted(movers):
                if a < b and desired[a] == current[b] and desired[b] == current[a]:
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


def by_kind(influences) -> dict:
    """Kind -> that kind's influences in id order, from one sort of the set."""
    out: dict = {}
    for inf in sorted(influences, key=lambda i: i.id):
        out.setdefault(inf.kind, []).append(inf)
    return out


def make_floor_reaction(grid: GridMap, params: FmsParams):
    def floor_reaction(level, sigma, influences, ctx):
        agvs = {aid: b for aid, b in bodies_of(sigma).items() if b.get("type") == "agv"}
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
            body = body.with_attrs(
                cell=cell, window=window, repulsion_on=aid in repulsing
            )
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


def shop_queues(tasks: dict, shop_ids) -> dict:
    """Shop id -> the ids of the tasks waiting there, in task order, for each
    of `shop_ids`: pending and assigned tasks wait at their source shop,
    picked ones at their dest shop."""
    queues: dict = {sid: [] for sid in shop_ids}
    for tid, t in tasks.items():
        if t["state"] in ("pending", "assigned"):
            queue = queues.get(t["source"])
        elif t["state"] == "picked":
            queue = queues.get(t["dest"])
        else:
            continue
        if queue is not None:
            queue.append(tid)
    return {
        sid: tuple(sorted(queue, key=lambda tid: tasks[tid]["order"]))
        for sid, queue in queues.items()
    }


def make_tasks_reaction(grid: GridMap):
    def tasks_reaction(level, sigma, influences, ctx):
        # Copy-on-write: the snapshot's table and task dicts are shared with
        # the new table, and a task is copied only when its state changes.
        tasks = dict(sigma.get("tasks", {}))
        changed = set()
        persisted = []
        events = []
        ordered = sorted(influences, key=lambda i: i.id)

        def update(tid, **attrs):
            tasks[tid] = {**tasks[tid], **attrs}
            changed.add(tid)

        offers = {}
        needs = []
        for inf in ordered:
            kind = inf.kind
            if kind == K_SERVE:
                offers[inf.payload["agent"]] = tuple(inf.payload["cell"])
            elif kind == K_NEED:
                needs.append(inf)
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
        busy = {
            t["assigned_to"]
            for t in tasks.values()
            if t["state"] in ("assigned", "picked") and t.get("assigned_to")
        }
        available = {a: c for a, c in offers.items() if a not in busy}

        demands = []
        seen = set()
        for inf in sorted(needs, key=lambda i: (i.payload["order"], i.payload["task"])):
            tid = inf.payload["task"]
            if tid in seen:
                continue
            seen.add(tid)
            task = tasks.get(tid)
            if task is not None and task["state"] == "pending":
                demands.append(tid)

        assigned_any = False
        for tid in demands:
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
            for agent in sorted(available):
                persisted.append(
                    ctx.make(
                        K_INH_MOVE,
                        FLOOR,
                        klass=CONSTRAINT,
                        selector=InfluenceSelector(match_kind=K_MOVE, match_producer=agent),
                        agent=agent,
                    )
                )

        # Only the source and dest shops of a changed task can see their
        # queue change; every other shop body is carried over as it is.
        touched = {}
        for tid in changed:
            for sid in (tasks[tid]["source"], tasks[tid]["dest"]):
                body = sigma.get(body_key(sid))
                if body is not None and body.get("type") == "shop":
                    touched[sid] = body
        if touched:
            for sid, pending in shop_queues(tasks, touched).items():
                sigma[body_key(sid)] = touched[sid].with_attrs(
                    pending=pending, emitting=bool(pending)
                )

        sigma["tasks"] = tasks
        return ReactionResult(sigma, tuple(persisted), events=tuple(events))

    return tasks_reaction


def make_control_reaction(grid: GridMap, params: FmsParams, control_enabled: bool):
    def control_reaction(level, sigma, influences, ctx):
        events = []
        spawn = []
        remove = []
        solver_bodies = {
            sid: b for sid, b in bodies_of(sigma).items() if b.get("type") == "solver"
        }

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

        governed = set()
        for sid, body in solver_bodies.items():
            if sid not in removed:
                governed.update(body.get("trapped", ()))

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

def build_fms_model(grid: GridMap, agv_ids, shop_ids, params: FmsParams,
                    control: bool = True, graph=None,
                    decls: Declarations = FMS_DECLARATIONS) -> Model:
    graph = graph or validate(FMS_GRAPH)
    sensor = FieldSensor(grid, params)
    agv_rule = AgvBehavior(sensor)
    shop_rule = ShopBehavior()
    behaviors = {aid: agv_rule for aid in agv_ids}
    behaviors.update({sid: shop_rule for sid in shop_ids})
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

    queues = shop_queues(task_table, shops)
    for sid in sorted(shops):
        cell = tuple(shops[sid])
        floor_body = Body(FLOOR, {"type": "shop", "cell": cell})
        pending = queues[sid]
        task_body = Body(
            TASKS,
            {"type": "shop", "cell": cell, "pending": pending, "emitting": bool(pending)},
        )
        floor_props[body_key(sid)] = floor_body
        tasks_props[body_key(sid)] = task_body
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

def all_tasks_delivered(state: SystemState) -> bool:
    tasks = state.per_level[TASKS].properties.get("tasks", {})
    return bool(tasks) and all(t["state"] == "delivered" for t in tasks.values())


all_tasks_delivered.__name__ = "all-delivered"


def fms_metrics(tick, state: SystemState, info) -> dict:
    tasks = state.per_level[TASKS].properties.get("tasks", {})
    control = state.per_level[CONTROL].properties
    agvs = floor_agvs(state.per_level[FLOOR])
    idle = sum(1 for b in agvs.values() if b.get("assigned") is None)
    active_constraints = sum(
        1
        for group in info.produced.values()
        for inf in group
        if inf.klass == CONSTRAINT
    )
    return {
        "tick": tick,
        "tasks_delivered": sum(1 for t in tasks.values() if t["state"] == "delivered"),
        "deadlocks_detected": control.get("deadlocks_detected", 0),
        "deadlocks_resolved": control.get("deadlocks_resolved", 0),
        "active_constraints": active_constraints,
        "agv_idle_ratio": round(idle / len(agvs), 6) if agvs else 0.0,
    }


class SafetyChecker:
    """Observer enforcing occupancy and task-monotonicity invariants each tick."""

    STATE_INDEX = {name: i for i, name in enumerate(TASK_STATES)}

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._last_task_states: dict = {}

    def __call__(self, tick, state: SystemState, info):
        from ..errors import SafetyViolation

        agvs = floor_agvs(state.per_level[FLOOR])
        cells = [b.get("cell") for b in agvs.values()]
        if len(cells) != len(set(cells)):
            raise SafetyViolation(f"tick {tick}: two AGVs share a cell ({cells})")
        for aid, b in agvs.items():
            if not self.grid.is_free(b.get("cell")):
                raise SafetyViolation(f"tick {tick}: {aid} on blocked cell {b.get('cell')}")
        tasks = state.per_level[TASKS].properties.get("tasks", {})
        for tid, task in tasks.items():
            new = self.STATE_INDEX[task["state"]]
            old = self._last_task_states.get(tid, 0)
            if new < old:
                raise SafetyViolation(
                    f"tick {tick}: task {tid} regressed {TASK_STATES[old]} -> {task['state']}"
                )
            self._last_task_states[tid] = new
