"""Command line front end.

Subcommands cover the individual analyses (validate, deps, graph, bound,
simulate) plus the full negotiation.  Exit codes: 0 on success / admitted,
1 when a check fails or the update is refused, 2 on unreadable or invalid
input files.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from nego.deps import connection_candidates, count_solutions, render_candidates, render_dot
from nego.dsl import DslError, load_software_model, parse_contract
from nego.model import (
    Configuration,
    ModelError,
    SystemModel,
    UpdateError,
    UpdateRequest,
    check_well_formed,
    parse_configuration,
    parse_platform,
    pinned_components,
    provider_faults,
    qual_str,
    render_configuration,
    resolve_names,
)
from nego.negotiation import negotiate
from nego.taskgraph import INITIALIZATION, NORMAL, GraphError, TaskGraph, build_task_graph, render_graph
from nego.timing import BUSY_WINDOW, MODELS, TimingContext, check_timing


def _read(path: Path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _in_file(path: Path, exc: DslError | ModelError) -> DslError | ModelError:
    """The error with the path of the file at fault before its message."""
    return type(exc)(f"{path}: {exc}")


def _load_software(args):
    directory = Path(args.contracts)
    paths = sorted(directory.glob("*.contract"))
    if not paths:
        raise ModelError(f"no *.contract files in {directory}")
    services = Path(args.services)
    try:
        return load_software_model([_read(path) for path in paths], _read(services))
    except DslError as exc:
        raise _in_file(services if exc.source is None else paths[exc.source], exc) from None


def _load_platform(args):
    if not args.platform:
        raise ModelError("--platform is required for this command")
    return parse_platform(_read(Path(args.platform)))


def _load_config(args) -> Configuration | None:
    if not args.config:
        return None
    return parse_configuration(_read(Path(args.config)))


def _parse_request_file(path: Path) -> tuple[list[UpdateRequest], list[Path]]:
    """The requests in the file, and for each the file that holds its
    contract (the request file itself for a remove)."""
    requests, sources = [], []
    for raw in _read(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        # no file name holds a NUL, and open() raises ValueError on one
        if len(parts) != 2 or parts[0] not in ("add", "update", "remove") or "\0" in parts[1]:
            raise ModelError(f"{path}: bad request line {line!r}")
        kind, rest = parts
        if kind == "remove":
            requests.append(UpdateRequest.remove(rest.strip()))
            sources.append(path)
        else:
            source = path.parent / rest.strip()
            try:
                contract = parse_contract(_read(source))
            except DslError as exc:
                raise _in_file(source, exc) from None
            requests.append(getattr(UpdateRequest, kind)(contract))
            sources.append(source)
    return requests, sources


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_validate(args) -> int:
    software = _load_software(args)
    print(f"parsed {len(software.contracts)} contracts, {len(software.interfaces)} services")
    if args.config:
        platform = _load_platform(args)
        config = _load_config(args)
        violations = check_well_formed(config, software, platform)
        for violation in violations:
            print(violation)
        if violations:
            return 1
        print("configuration ok")
    return 0


def _cmd_deps(args) -> int:
    software = _load_software(args)
    pinned = pinned_components(software)
    candidates = connection_candidates(software, pinned)
    if args.dot:
        print(render_dot(candidates), end="")
    else:
        print(render_candidates(candidates), end="")
        print(f"solutions: {count_solutions(candidates, software.interfaces)}")
    return 1 if candidates.unsatisfiable else 0


def _task_graphs(
    software, config: Configuration, modes: tuple[str, ...], platform=None, scheduled: bool = True
) -> list[TaskGraph] | None:
    """Task graphs of the configuration in each mode, or None after printing
    the structural fault of the first mode that has one.  The first (client,
    service) connected to more than one provider raises ModelError.  With
    `scheduled`, every task of a graph must be mapped and every thread
    ranked once; the first that is not raises ModelError too."""
    resolve_names(config, software, platform)
    routed_twice = provider_faults(config, {(c1, s) for c1, s, _ in config.connections})
    if routed_twice:
        raise ModelError("%s: %s" % routed_twice[0])
    ranks = config.ranks()
    if scheduled and len(ranks) < len(config.priorities):
        twice = next(t for i, t in enumerate(config.priorities) if t in config.priorities[:i])
        raise ModelError(f"thread {qual_str(twice)} is ranked more than once")
    graphs = []
    for mode in modes:
        try:
            graph = build_task_graph(software, config, mode)
        except GraphError as exc:
            label = "structure" if len(modes) == 1 else f"structure ({mode})"
            print(f"{label}: {exc}", file=sys.stderr)
            return None
        if scheduled:
            for chain in graph.chains:
                for task, thread in zip(chain.task_ids, chain.threads):
                    if task not in config.mapping:
                        raise ModelError(f"task {qual_str(task)} is not mapped")
                    if thread not in ranks:
                        raise ModelError(f"thread {qual_str(thread)} has no priority")
        graphs.append(graph)
    return graphs


def _cmd_graph(args) -> int:
    software = _load_software(args)
    graphs = _task_graphs(software, _load_config(args), (args.mode,), scheduled=False)
    if graphs is None:
        return 1
    print(render_graph(graphs[0]), end="")
    return 0


def _cmd_bound(args) -> int:
    software = _load_software(args)
    platform = _load_platform(args)
    config = _load_config(args)
    graphs = _task_graphs(software, config, (NORMAL, INITIALIZATION), platform)
    if graphs is None:
        return 1
    ok = True
    for mode, graph in zip((NORMAL, INITIALIZATION), graphs):
        report = check_timing(TimingContext(graph, config, platform), config, args.model)
        print(f"[{mode}]")
        for line in report.lines():
            print(line)
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    # imported here, so that the other subcommands do not load the simulator
    from nego.sim import default_horizon, random_scenario, simulate, synchronous_scenario, worst_observed

    given = [flag for flag, on in (("--seed", args.seed is not None), ("--trace", args.trace)) if on]
    if args.sweep and given:
        print(f"error: --sweep cannot be combined with {' and '.join(given)}", file=sys.stderr)
        return 2
    software = _load_software(args)
    config = _load_config(args)
    graphs = _task_graphs(software, config, (args.mode,))
    if graphs is None:
        return 1
    graph = graphs[0]
    horizon = default_horizon(graph) if args.horizon is None else args.horizon
    try:
        if args.sweep:
            maxima = worst_observed(graph, config, horizon)
        else:
            if args.seed is not None:
                scenario = random_scenario(graph, random.Random(args.seed), horizon)
            else:
                scenario = synchronous_scenario(graph, horizon)
            result = simulate(graph, config, scenario, trace=args.trace)
    except ValueError as exc:  # a horizon below 1, or a run or sweep over its cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.sweep:
        for line in result.trace:
            print(line)
        if result.partial:
            print("warning: some activations ran past the horizon", file=sys.stderr)
        maxima = result.maxima()
    if not maxima:
        print("warning: no activation completed within the horizon", file=sys.stderr)
    for (root, span), value in sorted(maxima.items(), key=lambda kv: (qual_str(kv[0][0]), kv[0][1])):
        print(f"observed {qual_str(root)}[{span[0]}:{span[1]}] = {value}")
    return 0


def _cmd_negotiate(args) -> int:
    software = _load_software(args)
    platform = _load_platform(args)
    config = _load_config(args)
    system = SystemModel(software, platform, config)
    requests, sources = _parse_request_file(Path(args.request))
    if args.out:
        # an --out that cannot be made fails before there is an answer to print
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    try:
        answer, trace = negotiate(system, requests, model=args.model)
    except DslError as exc:  # a request contract that fails the repository check
        raise _in_file(sources[exc.source], exc) from None
    except UpdateError as exc:  # a request that does not fit the installed components
        raise _in_file(Path(args.request), exc) from None

    if answer.ok:
        answer_line = "Yes"
    else:
        answer_line = f"No: {answer.reason}"
    if args.out:
        (out / "answer.txt").write_text(answer_line + "\n")
        (out / "trace.txt").write_text(trace.text())
        if answer.ok:
            (out / "report.txt").write_text("\n".join(answer.report) + "\n")
            (out / "config.txt").write_text(render_configuration(answer.config))
            if answer.previous is not None:
                (out / "previous.config").write_text(render_configuration(answer.previous))
    print(answer_line)
    if answer.ok:
        for line in answer.report:
            print(line)
    if args.trace and not args.out:
        print(trace.text(), end="")
    return 0 if answer.ok else 1


# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand: its help line, its body, whether it needs --config, and
    its arguments beyond the model files, as add_argument's flag and keywords."""

    help: str
    run: Callable[[argparse.Namespace], int]
    config_required: bool = False
    args: tuple[tuple[str, dict], ...] = ()


_MODE = ("--mode", {"choices": (NORMAL, INITIALIZATION), "default": NORMAL})
_MODEL = ("--model", {"choices": MODELS, "default": BUSY_WINDOW})

_COMMANDS = {
    "validate": _Command("parse contracts and optionally check a configuration", _cmd_validate),
    "deps": _Command(
        "show connection candidates and solution count",
        _cmd_deps,
        args=(("--dot", {"action": "store_true", "help": "emit graphviz instead of text"}),),
    ),
    "graph": _Command("print the unfolded task chains of a configuration", _cmd_graph, True, (_MODE,)),
    "bound": _Command("check utilization and latency bounds", _cmd_bound, True, (_MODEL,)),
    "simulate": _Command(
        "run the discrete-event scheduler",
        _cmd_simulate,
        True,
        (
            _MODE,
            ("--horizon", {"type": int}),
            ("--seed", {"type": int, "help": "random offsets and jitter draws"}),
            ("--sweep", {"action": "store_true", "help": "grid of offsets, report worst case"}),
            ("--trace", {"action": "store_true"}),
        ),
    ),
    "negotiate": _Command(
        "negotiate an update request",
        _cmd_negotiate,
        args=(
            ("--request", {"required": True, "help": "file of add/update/remove lines"}),
            _MODEL,
            ("--out", {"help": "directory for answer, trace, report and configuration"}),
            ("--trace", {"action": "store_true", "help": "print the trace when no --out is given"}),
        ),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.  Both print the
    same usage and the same errors for a command line that names `command`."""
    # no parser takes a prefix of an option for the option: `bound --mode`
    # would otherwise be read as `--model`
    parser = argparse.ArgumentParser(
        prog="nego", description="contract negotiation for software updates", allow_abbrev=False
    )
    # Usage lines list every command: the full parser derives the list from its
    # subparsers, the lean one is given it.  Only the lean parser sets it, as
    # argparse names a missing command by its metavar, and a command line
    # that reaches the lean parser never misses its command.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, spec in _COMMANDS.items():
        if command not in (None, name):
            continue
        sub = subs.add_parser(name, help=spec.help, allow_abbrev=False)
        sub.add_argument("--contracts", required=True, help="directory of *.contract files")
        sub.add_argument("--services", required=True, help="service repository file")
        sub.add_argument("--platform", help="platform description file")
        sub.add_argument("--config", required=spec.config_required, help="current configuration file")
        for flag, options in spec.args:
            sub.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only the invoked command's parser is built; anything else, such as -h
    # or a misspelt command, gets the full parser and its messages
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command].run(args)
    except (DslError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
