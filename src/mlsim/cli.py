"""Command-line runner: validate / run / compare.

Exit codes: 0 success, 1 contract violation during a run, 2 run completed
with an unresolvable-deadlock diagnostic, 3 invalid scenario, an output file
that cannot be written, or a command line argparse cannot parse.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .engine import run as engine_run
from .errors import Issue, MlsimError, ScenarioError
from .fms.model import SafetyChecker, all_tasks_delivered, fms_metrics
from .scenario import (
    ScenarioSpec,
    apply_overrides,
    parse_scenario,
    parse_scenario_dict,
)
from . import scenario as scenario_mod

METRIC_COLUMNS = (
    "tick",
    "tasks_delivered",
    "deadlocks_detected",
    "deadlocks_resolved",
    "active_constraints",
    "agv_idle_ratio",
)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_NO_ESCAPE = 2
EXIT_INVALID = 3


def _load_spec(args) -> tuple[ScenarioSpec, dict]:
    """The scenario with the command line's overrides applied, and those
    overrides by sorted dotted key."""
    spec = parse_scenario(args.scenario)
    overrides = {}
    for item in getattr(args, "override", None) or []:
        key, _, value = item.partition("=")
        overrides[key] = value
    if getattr(args, "ticks", None) is not None:
        overrides["run.ticks"] = str(args.ticks)
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = str(args.seed)
    if getattr(args, "control", None) is not None:
        overrides["control"] = "true" if args.control == "on" else "false"
    if overrides:
        spec = parse_scenario_dict(apply_overrides(spec.data, overrides))
    return spec, {k: overrides[k] for k in sorted(overrides)}


def _execute(spec: ScenarioSpec, collect_trace: bool):
    model, state = scenario_mod.build(spec)
    run_params = spec.run_params
    termination = all_tasks_delivered if run_params["termination"] == "all-delivered" else None
    result = engine_run(
        model,
        state,
        ticks=run_params["ticks"],
        seed=run_params["seed"],
        observers=(SafetyChecker(spec.grid),),
        metrics=fms_metrics,
        termination=termination,
        collect_trace=collect_trace,
    )
    return result


def _summary(spec: ScenarioSpec, result, overrides=None) -> dict:
    last = result.records[-1] if result.records else {}
    return {
        "scenario": spec.name,
        "control": spec.control,
        "seed": spec.run_params["seed"],
        "ticks_run": len(result.records),
        "stop_reason": result.stop_reason,
        "tasks_total": len(spec.data["tasks"]),
        "tasks_delivered": last.get("tasks_delivered", 0),
        "deadlocks_detected": last.get("deadlocks_detected", 0),
        "deadlocks_resolved": last.get("deadlocks_resolved", 0),
        "unresolvable": bool(result.diagnostics),
        "overrides": overrides or {},
    }


def write_metrics(path, records):
    """The metrics CSV: the fixed header, then each record's columns in
    header order (a record missing one raises `KeyError`)."""
    import csv  # the library path imports this module for its writers only

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        writer.writerows(map(itemgetter(*METRIC_COLUMNS), records))


class _EncodedScalars(dict):
    """(type, value) -> the value's JSON text, encoded on first use.  The
    type is part of the key because 1 == 1.0 == True encode apart."""

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, key):
        text = self[key] = self.encode(key[1])
        return text

    def text(self, value) -> str:
        return self[type(value), value]


def _shaped(constraint_id, inhibited, encode) -> str:
    """The JSON text of the inhibition payload of `constraint_id` and its
    `inhibited` ids, built without the encoder when each id is an exact
    `str`."""
    if type(constraint_id) is str and all(type(i) is str for i in inhibited):
        return (f'{{"constraint": {_quote(constraint_id)}, '
                f'"inhibited": [{", ".join(map(_quote, inhibited))}]}}')
    return encode({"constraint": constraint_id, "inhibited": list(inhibited)})


_level = itemgetter(0)  # of a record's line


def _step_lines(record, templates, encode, scalar) -> list:
    """The lines of one tick from its record (`engine.StepInfo.record`:
    influence ids are unique `str`s, and each of its three lists is in
    level order), in the record's order: by level, and within a level its
    influences in id order, then its inhibitions in log order, then its
    events in the order the reaction emitted them.

    An influence line is its id joined into the line template of its
    (level, kind, class, producer), kept in `templates` for the file when
    all four are exact `str`s (a `str` subclass equal to a kept key takes
    its template: both encode alike), and built through `scalar` for the
    one line otherwise.  Inhibition payloads are encoded by `_shaped`,
    event payloads by the encoder."""
    tick, influences, inhibitions, events = record
    stamp = f"{scalar[type(tick), tick]}}}\n"
    lines = []
    for level, inf_id, kind, klass, producer in influences:
        template = templates.get((level, kind, klass, producer))
        if template is None:
            exact = str is type(level) is type(kind) is type(klass) is type(producer)
            quote = _quote if exact else scalar.text
            template = (
                f'{{"event": {scalar[str, "influence"]}, "level": {quote(level)}, '
                f'"payload": {{"class": {quote(klass)}, "id": ',
                f', "kind": {quote(kind)}, "producer": {quote(producer)}}}, "tick": ')
            if exact:
                templates[level, kind, klass, producer] = template
        lines.append(f"{template[0]}{_quote(inf_id)}{template[1]}{stamp}")
    if not (inhibitions or events):
        return lines
    leveled = [*zip(map(_level, influences), lines)]
    leveled += [(level, f'{{"event": {scalar[str, "inhibition"]}, '
                        f'"level": {scalar[type(level), level]}, '
                        f'"payload": {_shaped(constraint_id, inhibited, encode)}, "tick": {stamp}')
                for level, constraint_id, inhibited in inhibitions]
    leveled += [(level, f'{{"event": {scalar[type(event), event]}, '
                        f'"level": {scalar[type(level), level]}, '
                        f'"payload": {encode(payload)}, "tick": {stamp}')
                for level, event, payload in events]
    leveled.sort(key=_level)  # stable: each level's lines keep the record's order
    return [line for _, line in leveled]


# Marks each tick slot of a frozen tail's text.  The encoder writes it as
# itself and makes it of no other character, so the text holds it only in
# the slots, unless a held value holds it.
_MARK = "~"


def _span_lines(held, end, encode) -> list | None:
    """The lines of a run's frozen tail, ticks `held.first` to `end - 1`,
    one text per tick; None when a held value holds `_MARK`.  The held
    step's record (`engine.HeldStep.record`) is written once by
    `_step_lines`, with `_MARK` for the tick, and the text split at the
    mark: a tick's text is its number joining the pieces.  Only influence
    ids order lines within a level, and the ids of one tick sort alike on
    every tick (`ReplayMemory.hold`), so the order at the mark is the order
    at every tick."""
    scalar = _EncodedScalars(encode)
    scalar[str, _MARK] = _MARK  # the tick field, bare as a tick's number
    record = held.record(_MARK)
    lines = _step_lines(record, {}, encode, scalar)
    pieces = "".join(lines).split(_MARK)
    slots = len(lines) + len(record[1]) + sum([1 + len(hits) for _, _, hits in record[2]])
    if len(pieces) != slots + 1:
        return None
    return [str(tick).join(pieces) for tick in range(held.first, end)]


def write_trace(path, trace):
    """The trace file of a run's `trace` (an `engine.Trace`), written in
    one call: one line per trace row, `json.dumps(row, sort_keys=True,
    default=str)`, in record order: by tick, then by level, and within a
    level its influences in id order, its inhibitions in log order, then
    its events in emission order.

    No row is built.  Each stepped tick's record is written by
    `_step_lines`, whose influence line templates are made once per file;
    then the frozen tail, whose ticks follow them, encoded once for every
    tick (`_span_lines`) or, when a held value holds the tick mark, tick by
    tick from `held.record(tick)` by `_step_lines`."""
    encode = json.JSONEncoder(sort_keys=True, default=str).encode
    scalar = _EncodedScalars(encode)
    templates: dict = {}
    lines = []
    for record in trace.steps:
        lines += _step_lines(record, templates, encode, scalar)
    held = trace.held
    if held is not None:
        tail = _span_lines(held, trace.end, encode)
        if tail is None:
            tail = [line for tick in range(held.first, trace.end)
                    for line in _step_lines(held.record(tick), templates, encode, scalar)]
        lines += tail
    with open(path, "w") as fh:
        fh.write("".join(lines))


def cmd_validate(args) -> int:
    try:
        parse_scenario(args.scenario)
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue)
        print(f"invalid: {len(exc.errors)} problem(s)")
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        spec, overrides = _load_spec(args)
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue, file=sys.stderr)
        return EXIT_INVALID
    try:
        result = _execute(spec, collect_trace=args.trace_out is not None)
    except MlsimError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    for path, write, rows in ((args.metrics_out, write_metrics, result.records),
                              (args.trace_out, write_trace, result.trace)):
        if path:
            try:
                write(path, rows)
            except OSError as exc:
                print(Issue("output", f"cannot write {path}: {exc.strerror or exc}"),
                      file=sys.stderr)
                return EXIT_INVALID
    print(json.dumps(_summary(spec, result, overrides), indent=2, sort_keys=True))
    return EXIT_NO_ESCAPE if result.diagnostics else EXIT_OK


def compare_report(spec_off: ScenarioSpec, spec_on: ScenarioSpec, overrides=None) -> dict:
    result_off = _execute(spec_off, collect_trace=False)
    result_on = _execute(spec_on, collect_trace=False)
    off = _summary(spec_off, result_off, overrides)
    on = _summary(spec_on, result_on, overrides)

    total = off["tasks_total"]
    if on["unresolvable"]:
        verdict = "unresolvable deadlock under control=on (no escape path)"
    elif off["deadlocks_detected"] == 0 and on["deadlocks_detected"] == 0:
        verdict = "no deadlock in either mode"
    elif (
        off["deadlocks_detected"] >= 1
        and off["tasks_delivered"] < total
        and on["tasks_delivered"] == total
    ):
        verdict = "control resolves deadlock; all tasks delivered"
    else:
        verdict = "modes differ; inspect metrics"
    return {"off": off, "on": on, "verdict": verdict}


def _with_control(base: ScenarioSpec, control: str) -> ScenarioSpec:
    """`base` re-parsed with `control` set."""
    return parse_scenario_dict(apply_overrides(base.data, {"control": control}))


def cmd_compare(args) -> int:
    try:
        base, overrides = _load_spec(args)
        off, on = _with_control(base, "false"), _with_control(base, "true")
    except ScenarioError as exc:
        for issue in exc.errors:
            print(issue, file=sys.stderr)
        return EXIT_INVALID
    try:
        report = compare_report(off, on, overrides)
    except MlsimError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    """The `mlsim` command line's parser, a `usage.UsageParser`."""
    from .usage import UsageParser  # only the command line parses arguments

    parser = UsageParser(
        prog="mlsim",
        description="Multi-level influence/reaction simulator with an AGV fleet reference model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_outputs=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--ticks", type=int, default=None, help="override run.ticks")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--control", choices=["on", "off"], default=None)
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="dotted-path override, e.g. params.repulse=2",
        )
        if with_outputs:
            p.add_argument("--metrics-out", default=None, help="CSV metrics path")
            p.add_argument("--trace-out", default=None, help="JSONL trace path")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run control=off vs control=on under one seed")
    common(p_cmp, with_outputs=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="static scenario checks, no run")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
