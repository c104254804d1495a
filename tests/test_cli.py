"""Error paths of the command line front end.

Happy paths and determinism are exercised by the acceptance suite; here we
pin the exit codes and messages for inputs that do not fit together.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nego import cli

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

BASE = [
    "--contracts", str(CORPUS / "contracts"),
    "--services", str(CORPUS / "services.repo"),
    "--platform", str(CORPUS / "platform.txt"),
]


def _negotiated_config(tmp_path) -> Path:
    out = tmp_path / "out"
    code = cli.main(
        ["negotiate", *BASE,
         "--config", str(CORPUS / "current.config"),
         "--request", str(CORPUS / "requests" / "add_lane_assist.req"),
         "--model", "single-blocking",
         "--out", str(out)]
    )
    assert code == 0
    return out / "config.txt"


def _parse_outcome(parse, argv, capsys) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of `parse(argv)`, which must exit."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


_REQUEST = ["--request", str(CORPUS / "requests" / "revalidate.req")]
_CONFIG = ["--config", str(CORPUS / "current.config")]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["-h", "negotiate"],
        ["frobnicate", *BASE],
        ["negotiat", *BASE, *_REQUEST],
        ["negotiate", "-h"],
        ["simulate", "--help"],
        ["negotiate"],
        ["negotiate", *BASE],
        ["negotiate", *BASE, *_REQUEST, "--bogus"],
        ["negotiate", *BASE, *_REQUEST, "extra"],
        ["negotiate", *BASE, *_REQUEST, "--model", "optimistic"],
        ["negotiate", *BASE, *_REQUEST, "--model"],
        ["validate", *BASE, "validate"],
        ["deps", "--dot"],
        ["graph", *BASE],
        ["graph", *BASE, *_CONFIG, "--mode", "degraded"],
        ["bound", *BASE, *_CONFIG, "--model", "exact"],
        ["simulate", *BASE, *_CONFIG, "--horizon", "soon"],
        ["bound", *BASE, *_CONFIG, "--mode", "single-blocking"],
        ["negotiate", *BASE, *_CONFIG, "--req", _REQUEST[1]],
    ],
    ids=lambda argv: " ".join(arg if not arg.startswith("/") else Path(arg).name for arg in argv) or "no argument",
)
def test_lean_parser_prints_what_the_full_parser_prints(argv, capsys):
    # main builds only the invoked command's parser; on every command line
    # that does not parse, it must answer as the parser of all commands does
    lean = _parse_outcome(cli.main, argv, capsys)
    full = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert lean == full
    assert lean[0] in (0, 2)


@pytest.mark.parametrize(
    "argv, full",
    [
        # `bound` has no `--mode`; a prefix match would read it as `--model`
        (["bound", *BASE, *_CONFIG, "--mode", "single-blocking"], ["--model", "single-blocking"]),
        (["negotiate", *BASE, *_CONFIG, "--req", _REQUEST[1]], _REQUEST),
    ],
    ids=["bound --mode", "negotiate --req"],
)
def test_an_abbreviated_option_is_refused(argv, full, capsys):
    code, out, err = _parse_outcome(cli.main, argv, capsys)
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments" in err or "required: --request" in err
    assert cli.main(argv[:-2] + full) == 0
    assert capsys.readouterr().out


def _parsers_built(monkeypatch, call) -> int:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    call()
    return len(built)


def test_main_builds_only_the_invoked_commands_parser(monkeypatch, capsys):
    argv = ["negotiate", *BASE, *_CONFIG, *_REQUEST]
    assert _parsers_built(monkeypatch, lambda: cli.main(argv)) == 2
    assert capsys.readouterr().out.startswith("Yes\n")
    # the full parser: the top level and one per command
    assert _parsers_built(monkeypatch, cli.build_parser) == 1 + len(cli._COMMANDS) == 7


def test_installed_entry_point_reads_sys_argv():
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"))
    argv = ["negotiate", *BASE, *_CONFIG,
            "--request", str(CORPUS / "requests" / "add_lane_assist.req"), "--model", "single-blocking"]
    done = subprocess.run(
        [sys.executable, "-m", "nego.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "Yes"


def test_only_simulate_loads_the_simulator():
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"))
    code = (
        "import sys\nfrom nego import cli\n"
        f"assert cli.main(['negotiate', *{[*BASE, *_CONFIG, *_REQUEST]!r}]) == 0\n"
        "loaded = ['nego.sim' in sys.modules]\n"
        f"assert cli.main(['simulate', *{[*BASE, *_CONFIG]!r}]) == 0\n"
        "loaded.append('nego.sim' in sys.modules)\n"
        "print(loaded)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "[False, True]", done.stderr


def test_out_that_cannot_be_made_prints_no_answer(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["negotiate", *BASE, *_CONFIG,
            "--request", str(CORPUS / "requests" / "add_lane_assist.req"), "--out", str(blocker / "x")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 20] Not a directory: '{blocker / 'x'}'\n"


def test_stale_config_is_a_clean_error(tmp_path, capsys):
    # the negotiated configuration selects L, which the base contracts lack
    config = _negotiated_config(tmp_path)
    capsys.readouterr()
    for argv in (
        ["graph", *BASE, "--config", str(config)],
        ["bound", *BASE, "--config", str(config)],
        ["simulate", *BASE, "--config", str(config), "--sweep"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'L'" in err


def test_negotiated_config_reloads_with_updated_contracts(tmp_path, capsys):
    config = _negotiated_config(tmp_path)
    report = capsys.readouterr().out.splitlines()[1:]
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    for src in (CORPUS / "contracts").glob("*.contract"):
        (contracts / src.name).write_text(src.read_text())
    for name in ("S.contract", "L.contract"):
        (contracts / name).write_text((CORPUS / "updates" / name).read_text())
    argv = [
        "bound",
        "--contracts", str(contracts),
        "--services", str(CORPUS / "services.repo"),
        "--platform", str(CORPUS / "platform.txt"),
        "--config", str(config),
        "--model", "single-blocking",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[normal]"
    # every line the negotiation reported is reproduced from the written files
    for line in report:
        assert line in out


def test_missing_contract_dir(capsys):
    argv = ["validate", "--contracts", "/no/such/dir",
            "--services", str(CORPUS / "services.repo"),
            "--platform", str(CORPUS / "platform.txt")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_request_line(tmp_path, capsys):
    req = tmp_path / "bad.req"
    argv = ["negotiate", *BASE,
            "--config", str(CORPUS / "current.config"),
            "--request", str(req)]
    for line in ("frobnicate L", "add ../updates/S\0.contract"):
        req.write_text(line + "\n")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {req}: bad request line {line!r}\n"


def _mismatched_request(tmp_path, edit) -> Path:
    """The corpus lane-assist request, with `edit` applied to S's contract."""
    updates = tmp_path / "updates"
    updates.mkdir()
    (updates / "L.contract").write_text((CORPUS / "updates" / "L.contract").read_text())
    (updates / "S.contract").write_text(edit((CORPUS / "updates" / "S.contract").read_text()))
    request = tmp_path / "add.req"
    request.write_text("add updates/S.contract\nadd updates/L.contract\n")
    return request


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda text: text.replace("setAngle(int value)", "setAngle(float value)"),
            "error: {path}: line 5, column 37: signature mismatch for steering.setAngle(float value): "
            "repository declares (int value)\n",
        ),
        (
            lambda text: text.replace("provides steering", "provides steering\n    provides ghost"),
            "error: {path}: component 'S' references unknown service 'ghost'\n",
        ),
        (lambda text: text + "garbage\n", "error: {path}: line 7, column 1: unexpected token 'garbage'\n"),
    ],
    ids=["signature", "unknown service", "syntax"],
)
def test_request_contract_is_checked_against_repository(tmp_path, capsys, edit, message):
    # the same check as for installed contracts: `validate` on the edited
    # contract and `negotiate` on the request fail alike, each naming the
    # file that holds the contract
    request = _mismatched_request(tmp_path, edit)
    argv = ["negotiate", *BASE, "--config", str(CORPUS / "current.config"),
            "--request", str(request), "--model", "single-blocking"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message.format(path=tmp_path / "updates" / "S.contract"))
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    (contracts / "S.contract").write_text((tmp_path / "updates" / "S.contract").read_text())
    argv = ["validate", "--contracts", str(contracts), "--services", str(CORPUS / "services.repo")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == message.format(path=contracts / "S.contract")


def _corpus_contracts(tmp_path) -> Path:
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    for src in (CORPUS / "contracts").glob("*.contract"):
        (contracts / src.name).write_text(src.read_text())
    return contracts


@pytest.mark.parametrize(
    "name, text, services, message",
    [
        ("P.contract", "garbage\n", None, "line 1, column 1: expected 'component', found 'garbage'"),
        # the second file to declare T is at fault
        ("Z.contract", "component T\n", None, "duplicate component 'T'"),
        ("Z.contract", "component Z services requires ghost\n", None,
         "component 'Z' references unknown service 'ghost'"),
        (None, None, "service steering\nservice steering\n",
         "line 2, column 9: duplicate service 'steering'"),
    ],
    ids=["syntax", "duplicate component", "unknown service", "repository"],
)
def test_validate_names_the_file_at_fault(tmp_path, capsys, name, text, services, message):
    # one broken input among the corpus contracts and repository
    contracts = _corpus_contracts(tmp_path)
    repository = tmp_path / "services.repo"
    repository.write_text(services or (CORPUS / "services.repo").read_text())
    if name is not None:
        (contracts / name).write_text(text)
    at_fault = repository if name is None else contracts / name
    argv = ["validate", "--contracts", str(contracts), "--services", str(repository)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {at_fault}: {message}\n")


def _non_utf8_inputs(tmp_path, which: str) -> list[str]:
    """A negotiate command line whose `which` input holds a byte no UTF-8 text has."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    for src in (CORPUS / "contracts").glob("*.contract"):
        (contracts / src.name).write_text(src.read_text())
    request = tmp_path / "add.req"
    request.write_text("add bad\n")
    files = {
        "--contracts": contracts,
        "--services": CORPUS / "services.repo",
        "--platform": CORPUS / "platform.txt",
        "--config": CORPUS / "current.config",
        "--request": CORPUS / "requests" / "revalidate.req",
    }
    if which == "contract":
        (contracts / "X.contract").write_bytes(b"\xff")
    elif which == "request contract":
        files["--request"] = request
    else:
        files[which] = bad
    return ["negotiate", *(arg for flag, path in files.items() for arg in (flag, str(path)))]


@pytest.mark.parametrize("which", ["--services", "--platform", "--config", "contract", "--request", "request contract"])
def test_non_utf8_input_is_a_clean_error(tmp_path, which):
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "nego.cli", *_non_utf8_inputs(tmp_path, which)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    # the message names the file that is not UTF-8
    bad = tmp_path / "contracts" / "X.contract" if which == "contract" else tmp_path / "bad"
    assert done.stderr.startswith(f"error: {bad}: not UTF-8 text")


def _digits(n: int) -> str:
    return "9" * n


@pytest.mark.parametrize("digits", [641, 5000])
def test_number_with_too_many_digits_is_a_clean_error(tmp_path, capsys, digits):
    # 5000 digits is more than int() converts from text by default
    (tmp_path / "X.contract").write_text(f"component X threads thread t on time (period={_digits(digits)} jitter=0)")
    (tmp_path / "empty.repo").write_text("")
    argv = ["validate", "--contracts", str(tmp_path), "--services", str(tmp_path / "empty.repo")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'X.contract'}: line 1, column 46: period value has {digits} digits, more than 640\n"


@pytest.mark.parametrize("digits", [641, 5000])
def test_rank_with_too_many_digits_is_a_clean_error(tmp_path, capsys, digits):
    config = tmp_path / "long.config"
    config.write_text((CORPUS / "current.config").read_text().replace("\n0 ", f"\n{_digits(digits)} ", 1))
    assert cli.main(["validate", *BASE, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration line ")
    assert err.endswith(f": rank has {digits} digits, more than 640\n")


def test_rank_of_most_digits_is_read(tmp_path, capsys):
    # 640 digits pass the digit bound; the rank is then out of 0..n-1
    config = tmp_path / "long.config"
    config.write_text((CORPUS / "current.config").read_text().replace("\n0 ", f"\n{_digits(640)} ", 1))
    assert cli.main(["validate", *BASE, "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: priority ranks must be 0..n-1 without gaps\n"


def test_non_ascii_rank_is_a_clean_error(tmp_path, capsys):
    # Arabic-Indic digits in place of the ranks 0 and 1 would read as the
    # same priority order
    config = tmp_path / "arabic.config"
    text = (CORPUS / "current.config").read_text()
    config.write_text(text.replace("\n0 ", "\n\u0660 ", 1).replace("\n1 ", "\n\u0661 ", 1))
    assert cli.main(["validate", *BASE, "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: configuration line 20: expected '<rank> component.thread'\n"


def test_unknown_service_has_no_position(tmp_path, capsys):
    (tmp_path / "X.contract").write_text("component X services requires nothing")
    (tmp_path / "empty.repo").write_text("")
    argv = ["deps", "--contracts", str(tmp_path), "--services", str(tmp_path / "empty.repo")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'X.contract'}: component 'X' references unknown service 'nothing'\n"


def _config_without(tmp_path, *dropped: str) -> Path:
    lines = (CORPUS / "current.config").read_text().splitlines()
    config = tmp_path / "partial.config"
    config.write_text("".join(f"{line}\n" for line in lines if line not in dropped))
    return config


def test_unmapped_task_is_a_clean_error(tmp_path, capsys):
    config = _config_without(tmp_path, "P.p1 -> CPU1", "P.p2 -> CPU1")
    for command in ("bound", "simulate"):
        assert cli.main([command, *BASE, "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: task P.p1 is not mapped\n"


def test_unranked_thread_is_a_clean_error(tmp_path, capsys):
    config = _config_without(tmp_path, "5 T.trajectory_calculation_init")
    for argv in (["bound"], ["simulate", "--mode", "initialization"]):
        assert cli.main([argv[0], *BASE, "--config", str(config), *argv[1:]]) == 2
        assert capsys.readouterr().err == "error: thread T.trajectory_calculation_init has no priority\n"


def test_thread_ranked_twice_is_a_clean_error(tmp_path, capsys):
    config = tmp_path / "twice.config"
    config.write_text((CORPUS / "current.config").read_text() + "6 O2.object_masking_get\n")
    for command in ("bound", "simulate"):
        assert cli.main([command, *BASE, "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "error: thread O2.object_masking_get is ranked more than once\n")
    assert cli.main(["validate", *BASE, "--config", str(config)]) == 1
    assert "[priority_strict]" in capsys.readouterr().out


def test_service_routed_to_two_providers_is_a_clean_error(tmp_path, capsys):
    text = (CORPUS / "current.config").read_text()
    text = text.replace("[connections]\n", "O1\n[connections]\nT -> object_recognition -> O1\n")
    text = text.replace("[mapping]\n", "[mapping]\nO1.or1 -> CPU1\n") + "6 O1.object_recognition_get\n"
    config = tmp_path / "routed_twice.config"
    config.write_text(text)
    for argv in (["graph"], ["bound"], ["simulate"], ["simulate", "--sweep"]):
        assert cli.main([argv[0], *BASE, "--config", str(config), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", "error: T -> object_recognition: 2 providers connected, need exactly 1\n")
    assert cli.main(["validate", *BASE, "--config", str(config)]) == 1
    assert "[2] T -> object_recognition: 2 providers connected, need exactly 1" in capsys.readouterr().out


def test_task_mapped_twice_is_a_clean_error(tmp_path, capsys):
    config = tmp_path / "twice.config"
    text = (CORPUS / "current.config").read_text().replace("P.p1 -> CPU1\n", "P.p1 -> CPU1\nP.p1 -> CPU9\n")
    config.write_text(text)
    line = text.splitlines().index("P.p1 -> CPU9") + 1
    assert cli.main(["validate", *BASE, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: configuration line {line}: task P.p1 mapped twice\n"


@pytest.mark.parametrize(
    "extra, flags",
    [(["--seed", "3"], "--seed"), (["--trace"], "--trace"), (["--seed", "3", "--trace"], "--seed and --trace")],
)
def test_simulate_sweep_takes_no_seed_or_trace(capsys, extra, flags):
    argv = ["simulate", *BASE, "--config", str(CORPUS / "current.config"), "--sweep", *extra]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --sweep cannot be combined with {flags}\n")


def test_simulate_horizon_below_one_is_a_clean_error(capsys):
    for horizon, sweep in (("0", []), ("-5", []), ("0", ["--sweep"]), ("-5", ["--seed", "3"])):
        argv = ["simulate", *BASE, "--config", str(CORPUS / "current.config"), "--horizon", horizon, *sweep]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: horizon {horizon} is below 1\n"


def test_simulate_warns_when_nothing_completes(capsys):
    argv = ["simulate", *BASE, "--config", str(CORPUS / "current.config"), "--seed", "3", "--horizon", "1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "warning: no activation completed within the horizon\n"


def test_simulate_initialization_releases_each_chain_once(capsys):
    # initialization chains have no period: one release each at offset 0,
    # and the default horizon is the longest chain's WCET sum
    argv = ["simulate", *BASE, "--config", str(CORPUS / "current.config"),
            "--mode", "initialization", "--seed", "1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("observed P.init[0:1] = 10\n", "")


def _coprime_system(tmp_path, periods) -> list[str]:
    """A `simulate` command line on three chains of the given coprime
    periods on one CPU, released by A, B and C in that priority order."""
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    for name, period in zip("ABC", periods):
        (contracts / f"{name}.contract").write_text(
            f"component {name}\n  threads\n    thread t on time (period={period} jitter=0)\n"
            f"      task x onto CPU wcet=1 bcet=1\n"
        )
    (tmp_path / "empty.repo").write_text("")
    (tmp_path / "platform.txt").write_text("resource R type CPU\n")
    (tmp_path / "coprime.config").write_text(
        "[selected]\nA\nB\nC\n\n[connections]\n\n[mapping]\nA.x -> R\nB.x -> R\nC.x -> R\n\n"
        "[priorities]\n0 A.t\n1 B.t\n2 C.t\n"
    )
    return ["simulate", "--contracts", str(contracts), "--services", str(tmp_path / "empty.repo"),
            "--platform", str(tmp_path / "platform.txt"), "--config", str(tmp_path / "coprime.config")]


# Periods near 1000: two hyperperiods span about 2e9 time units and the
# offset grid about 1e6 points.  Periods near 100: each run and the grid are
# within their caps, but the sweep would release about 3.6e8 jobs.
_NEAR_1000 = (997, 991, 983)
_NEAR_100 = (97, 89, 83)
_TOO_MANY_JOBS = "error: a run over horizon 1942461082 releases up to 5884462 jobs, more than the cap of 100000\n"


@pytest.mark.parametrize(
    "periods, extra, message",
    [
        (_NEAR_1000, [], _TOO_MANY_JOBS),
        (_NEAR_1000, ["--seed", "1"], _TOO_MANY_JOBS),
        (_NEAR_1000, ["--sweep"], _TOO_MANY_JOBS),
        (_NEAR_1000, ["--sweep", "--horizon", "5000"],
         "error: the offset sweep has 974153 grid points, more than the cap of 10000\n"),
        (_NEAR_100, ["--sweep"],
         "error: the offset sweep runs 7387 schedules of up to 48142 jobs, 355624954 in all, "
         "more than the cap of 1000000\n"),
    ],
    ids=["plain", "seed", "sweep", "sweep grid", "sweep jobs"],
)
def test_simulate_over_its_caps_is_a_clean_error(tmp_path, capsys, periods, extra, message):
    argv = _coprime_system(tmp_path, periods) + extra
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", message)


def _shared_entry_system(tmp_path) -> list[str]:
    """Options of a configuration where P0 and P1 both call A's single entry
    thread, so A's task would sit in two chains."""
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    for client in ("P0", "P1"):
        (contracts / f"{client}.contract").write_text(
            f"component {client}\n  services\n    requires svc\n  threads\n"
            f"    thread main on time (period=10 jitter=0)\n      task t onto CPU wcet=1 bcet=1\n"
            f"      RPC svc.get()\n"
        )
    (contracts / "A.contract").write_text(
        "component A\n  services\n    provides svc\n  threads\n"
        "    thread serve on RPC svc.get()\n      task e onto CPU wcet=1 bcet=1\n"
    )
    (tmp_path / "services.repo").write_text("service svc\n  method get()\n")
    (tmp_path / "platform.txt").write_text("resource R type CPU\n")
    (tmp_path / "shared.config").write_text(
        "[selected]\nA\nP0\nP1\n\n[connections]\nP0 -> svc -> A\nP1 -> svc -> A\n\n"
        "[mapping]\nA.e -> R\nP0.t -> R\nP1.t -> R\n\n[priorities]\n0 A.serve\n1 P0.main\n2 P1.main\n"
    )
    return ["--contracts", str(contracts), "--services", str(tmp_path / "services.repo"),
            "--platform", str(tmp_path / "platform.txt"), "--config", str(tmp_path / "shared.config")]


def test_broken_structure_is_reported_with_its_mode(tmp_path, capsys):
    options = _shared_entry_system(tmp_path)
    fault = "task A.e appears in chain P0.main and chain P1.main in normal mode"
    for command, label in (("graph", "structure"), ("simulate", "structure"), ("bound", "structure (normal)")):
        assert cli.main([command, *options]) == 1
        assert capsys.readouterr() == ("", f"{label}: {fault}\n")


def test_deps_reports_an_unsatisfiable_requirement(tmp_path, capsys):
    (tmp_path / "Z.contract").write_text(
        "component Z services requires ghost threads thread t on time (period=10 jitter=0) RPC ghost.m()"
    )
    (tmp_path / "ghost.repo").write_text("service ghost method m()")
    argv = ["deps", "--contracts", str(tmp_path), "--services", str(tmp_path / "ghost.repo")]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("unsatisfiable Z ghost\nsolutions: 0\n", "")


def test_bound_needs_a_platform(capsys):
    argv = ["bound", "--contracts", str(CORPUS / "contracts"), "--services", str(CORPUS / "services.repo"), *_CONFIG]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: --platform is required for this command\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "platform declares no resources"),
        ("resource CPU1 type CPU_type_1\nresource CPU1 type CPU_type_1\n", "duplicate resource name in platform"),
    ],
)
def test_bound_refuses_a_platform_without_resources_or_with_a_name_twice(tmp_path, capsys, text, message):
    platform = tmp_path / "platform.txt"
    platform.write_text(text)
    argv = ["bound", "--contracts", str(CORPUS / "contracts"), "--services", str(CORPUS / "services.repo"),
            "--platform", str(platform), *_CONFIG]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_negotiate_refuses_a_resource_name_a_configuration_cannot_hold(tmp_path, capsys):
    # `--out` would write `O1.or1 -> CPU1->x`, which no configuration reader splits back
    platform = tmp_path / "platform.txt"
    platform.write_text("resource CPU1 type CPU_type_1\nresource CPU1->x type CPU_type_1\n")
    out = tmp_path / "out"
    argv = ["negotiate", "--contracts", str(CORPUS / "contracts"), "--services", str(CORPUS / "services.repo"),
            "--platform", str(platform), *_CONFIG, "--request", str(CORPUS / "requests" / "add_lane_assist.req"),
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: platform line 2: resource name 'CPU1->x' holds '->'\n")
    assert not out.exists()


def test_simulate_warns_when_activations_run_past_the_horizon(capsys):
    argv = ["simulate", *BASE, *_CONFIG, "--horizon", "5"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: some activations ran past the horizon\n"
