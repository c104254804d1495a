#!/usr/bin/env python3
"""Fuzz the input readers with seeded mutations of the bundled corpus.

Each mutation of a contract, the service repository, the platform, the
configuration or a request file goes through the reader that loads it. A
reader may accept the text or reject it with DslError or ModelError; a request
line that names a file that cannot be read may also raise OSError. Any other
exception is a crash: the script names the input, prints the mutated text and
exits 1.

The script also prints one SHA-256 over every mutation's outcome: the class
name and message of a rejection, or a rendering of what the reader returned
that holds every field (source positions too) and lists set members in sorted
order.  With `--expect HEX`, exit 1 unless the digest equals HEX: a change to
the readers that keeps every message, position and parsed value keeps the
digest, whatever the hash seed.

    PYTHONPATH=src python3 scripts/fuzz_parsers.py --mutations 2000 --seed 0
"""

import argparse
import dataclasses
import hashlib
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Mapping

from nego.cli import _parse_request_file
from nego.dsl import DslError, load_software_model, parse_contract, parse_service_repository
from nego.model import ModelError, check_well_formed, parse_configuration, parse_platform

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
# what a token edit replaces, and the pieces of corpus text an edit inserts
TOKEN = re.compile(r"\w+|\S")
# inserted besides the corpus pieces: blanks, which TOKEN drops, and
# text no corpus file holds (control characters, a no-break space, digits and
# letters outside ASCII, numbers out of every accepted range, one with more
# digits than int() converts from text)
EXTRA_PIECES = [
    " ", "\n", "\t", "\r\n", "\f", "\x00", "\u00a0", "\u00e9", "\u0663", "\u00b2", "{", "-1", "0", "99999999999",
    "9" * 4301,
]


def mutate(text: str, corpus_pieces: list[str], rng: random.Random) -> str:
    """Apply one to three edits: delete, duplicate, insert or replace a token
    or a few characters, or swap two lines.  A piece inserted is as likely to
    come from EXTRA_PIECES as from `corpus_pieces`."""
    for _ in range(rng.randint(1, 3)):
        piece = rng.choice(rng.choice((corpus_pieces, EXTRA_PIECES)))
        tokens = [m.span() for m in TOKEN.finditer(text)]
        if tokens and rng.random() < 0.5:
            i, j = rng.choice(tokens)
        else:
            i = rng.randint(0, len(text))
            j = min(len(text), i + rng.randint(1, 8))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            k = rng.randint(0, len(text))
            text = text[:k] + text[i:j] + text[k:]
        elif op == 2:
            text = text[:i] + piece + text[i:]
        elif op == 3:
            text = text[:i] + piece + text[j:]
        else:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


def canonical(value: object) -> str:
    """Every field of `value`, a dataclass or a NamedTuple, nested, with the
    members of a set and the items of a mapping in sorted order.  Both kinds
    of record render alike, as `Name(field=...)`."""
    names = getattr(type(value), "_fields", None)  # a NamedTuple's
    if names is None and dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
    if names is not None:
        fields = ", ".join(f"{name}={canonical(getattr(value, name))}" for name in names)
        return f"{type(value).__name__}({fields})"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(item) for item in value)) + "}"
    if isinstance(value, Mapping):
        return "{" + ", ".join(sorted(f"{canonical(k)}: {canonical(v)}" for k, v in value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(canonical(item) for item in value) + "]"
    return repr(value)


def readers(scratch: Path) -> dict[Path, tuple[str, Callable[[str], object], tuple[type[Exception], ...]]]:
    """Corpus file -> (its text, the reader of a mutation, exceptions the
    reader may raise).  A reader returns what it parsed."""
    rejections = (DslError, ModelError)
    contracts = {path: path.read_text() for path in sorted(CORPUS.glob("*/*.contract"))}
    installed = {path: text for path, text in contracts.items() if path.parent.name == "contracts"}
    repository = (CORPUS / "services.repo").read_text()
    software = load_software_model(installed.values(), repository)
    platform = parse_platform((CORPUS / "platform.txt").read_text())

    def contract_reader(component: str) -> Callable[[str], None]:
        # the mutated contract joins, or replaces, the installed one of its component
        others = [text for text in installed.values() if parse_contract(text).component != component]

        def read(text: str) -> object:
            contract = parse_contract(text)
            load_software_model([*others, text], repository)
            return contract

        return read

    def read_repository(text: str) -> object:
        interfaces = parse_service_repository(text)
        load_software_model(installed.values(), text)
        return interfaces

    def read_configuration(text: str) -> object:
        config = parse_configuration(text)
        return config, check_well_formed(config, software, platform)

    def read_request(text: str) -> object:
        path = scratch / "requests" / "fuzz.req"
        path.write_text(text)
        return _parse_request_file(path)

    table = {
        path: (text, contract_reader(parse_contract(text).component), rejections)
        for path, text in contracts.items()
    }
    table[CORPUS / "services.repo"] = (repository, read_repository, rejections)
    table[CORPUS / "platform.txt"] = ((CORPUS / "platform.txt").read_text(), parse_platform, rejections)
    table[CORPUS / "current.config"] = ((CORPUS / "current.config").read_text(), read_configuration, rejections)
    for path in sorted(CORPUS.glob("requests/*.req")):
        table[path] = (path.read_text(), read_request, (*rejections, OSError))
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mutations", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--expect", help="the digest the run must give")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    crashes = 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        # request files name their contracts relative to their own directory
        (scratch / "requests").mkdir()
        shutil.copytree(CORPUS / "updates", scratch / "updates")
        table = readers(scratch)
        inputs = sorted(table)
        pieces = sorted({piece for text, _, _ in table.values() for piece in TOKEN.findall(text)})
        for index in range(args.mutations):
            path = rng.choice(inputs)
            original, read, allowed = table[path]
            text = mutate(original, pieces, rng)
            try:
                outcome = canonical(read(text))
            except allowed as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # a crash: report it and go on
                crashes += 1
                print(f"CRASH mutation {index} of {path.relative_to(ROOT)}: {type(exc).__name__}: {exc}")
                print(f"  input: {text!r}")
                continue
            # request paths and their errors name the temporary directory
            outcome = outcome.replace(str(scratch), "<scratch>")
            digest.update(f"{index} {path.relative_to(ROOT)}\n{outcome}\n".encode())
    print(f"{args.mutations} mutations, {crashes} crashes: {digest.hexdigest()}")
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 1 if crashes else 0


if __name__ == "__main__":
    raise SystemExit(main())
