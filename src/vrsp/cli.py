"""Command-line interface.

Subcommands: validate, product, contract, iso, verify, decompose, dot.
Exit codes: 0 for success or an accepting verdict, 1 for a negative verdict
(invalid graph, not isomorphic, rejected or absent decomposition), 2 for
unusable input (bad arguments, unreadable files, malformed documents, an
input too large for the memory at hand), 3 for an internal error (a bug in
this program, not a fault of the input).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable

from .decomposition import find_decompositions, prime_factors, verify_decomposition
from .errors import GraphError
from .graph import Graph, label_set, validate
from .isomorphism import find_isomorphism
from .products import cartesian, intermediate, vrsp
from .quotient import contract
from .serialization import (
    _decode,
    _json_ids,
    emit_dot,
    emit_graph,
    graph_to_document,
    parse_family,
    parse_graph,
    weight_token,
)

_PRODUCT_KINDS = {"cartesian": cartesian, "intermediate": intermediate, "vrsp": vrsp}


def _load(path: str, parse: Callable = parse_graph, **options):
    """Parse the file at ``path`` (a graph unless ``parse`` says otherwise); errors name the path once.

    The bytes are decoded before the call, since its argument tuple would
    hold them until the parse returns.
    """
    try:
        return parse(_decode(Path(path).read_bytes()), **options)
    except OSError as e:
        raise GraphError(f"{path}: cannot read: {e.strerror or e}") from None
    except GraphError as e:
        raise GraphError(f"{path}: {e}") from None


def _write_graphs(out_dir: Path, prefix: str, graphs: Iterable[Graph]) -> list[str]:
    """Write each graph to ``out_dir/<prefix><k>.json``, k counting from 1; return the paths."""
    files = []
    for k, g in enumerate(graphs, start=1):
        path = out_dir / f"{prefix}{k}.json"
        path.write_text(emit_graph(g), encoding="utf-8")
        files.append(str(path))
    return files


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _vertex_ids(text: str) -> list[str]:
    """A ``--set`` value: a JSON array of strings is that list of ids; anything else is split on commas."""
    ids = _json_ids(text)
    return ids if ids is not None else [part.strip() for part in text.split(",") if part.strip()]


def _labels_json(labels) -> list[dict]:
    return [{"action": l.action, "weight": weight_token(l.weight)} for l in labels]


# The seven commands, each with its help and its arguments in the order argparse
# lists them.  An argument's key is its name, or its option strings separated by
# spaces with the long one last; its value holds argparse's keyword arguments.
_COMMANDS: dict[str, tuple[str, dict[str, dict]]] = {
    "validate": ("check graph invariants, printing one diagnostic per line", {"graph": {}}),
    "product": (
        "compute a product of two graphs",
        {
            "--kind": {"choices": sorted(_PRODUCT_KINDS), "required": True},
            "left": {},
            "right": {},
            "-o --output": {"help": "write the result here instead of stdout"},
        },
    ),
    "contract": (
        "contract a vertex set into one fresh vertex",
        {
            "graph": {},
            "--set": {
                "dest": "vertex_set",
                "required": True,
                "help": "comma-separated vertex ids, or a JSON array of ids",
            },
            "--id": {"dest": "new_id", "required": True, "help": "id of the replacement vertex"},
            "-o --output": {},
        },
    ),
    "iso": ("find a label-preserving isomorphism", {"left": {}, "right": {}}),
    "verify": (
        "verify a decomposition hypothesis",
        {
            "graph": {},
            "--rows": {"required": True, "help": "row family file"},
            "--cols": {"required": True, "help": "col family file"},
        },
    ),
    "decompose": (
        "search for Cartesian decompositions",
        {
            "graph": {},
            "--recursive": {"action": "store_true", "help": "also split factors into prime factors"},
            "--max-labels": {"type": int, "help": "label budget for the search"},
            "--out-dir": {"help": "write factor graphs into this directory"},
        },
    ),
    "dot": ("render a graph as Graphviz DOT", {"graph": {}}),
}


def _build_parser():
    """The argparse parser of ``_COMMANDS``, which alone prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="vrsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key, options in arguments.items():
            p.add_argument(*key.split(), **options)
    return parser


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a plainly well-formed ``argv``, or None.

    Accepted: an exact command name; exact option strings, or ``--long=value``,
    each at most once; values and positionals that do not start with ``-``;
    every positional and required option; a value within its choices and
    passing its type.  Anything else, help and abbreviations included, is
    left to argparse.
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    values: dict = {"command": argv[0]}
    positionals, options = [], {}
    for key, kw in spec[1].items():
        names = key.split()
        dest = kw.get("dest", names[-1].lstrip("-").replace("-", "_"))
        if names[0].startswith("-"):
            values[dest] = False if kw.get("action") == "store_true" else None
            options.update(dict.fromkeys(names, (dest, kw)))
        else:
            positionals.append(dest)
    free = iter(positionals)
    seen = set()
    args = iter(argv[1:])
    for arg in args:
        if not arg.startswith("-"):
            dest = next(free, None)
            if dest is None:
                return None
            values[dest] = arg
            continue
        name, eq, value = arg.partition("=")
        dest, kw = options.get(name, (None, None))
        if dest is None or dest in seen or (eq and not name.startswith("--")):
            return None
        seen.add(dest)
        if kw.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(args, "-")  # a missing value is declined as one that starts with "-"
        if value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[dest] = value
    if next(free, None) is not None:
        return None
    if any(kw.get("required") and dest not in seen for dest, kw in options.values()):
        return None
    return SimpleNamespace(**values)


def _run(args) -> int:
    if args.command == "validate":
        g = _load(args.graph, check=False)
        diagnostics = validate(g)
        for d in diagnostics:
            print(d)
        return 1 if diagnostics else 0

    if args.command == "product":
        left, right = _load(args.left), _load(args.right)
        n1, n2 = len(left.vertices), len(right.vertices)
        # Formatted before the build: the failed build's frames are still held while its error is handled.
        size = f"{n1} × {n2} = {n1 * n2} pairs"
        try:
            _write_or_print(emit_graph(_PRODUCT_KINDS[args.kind](left, right)), args.output)
        except MemoryError:
            raise MemoryError(size) from None
        return 0

    if args.command == "contract":
        g = contract(_load(args.graph), _vertex_ids(args.vertex_set), args.new_id)
        _write_or_print(emit_graph(g), args.output)
        return 0

    if args.command == "iso":
        mapping = find_isomorphism(_load(args.left), _load(args.right))
        print(json.dumps({"isomorphic": mapping is not None, "mapping": mapping}, indent=2))
        return 0 if mapping is not None else 1

    if args.command == "verify":
        g = _load(args.graph)
        report = verify_decomposition(g, _load(args.rows, parse_family), _load(args.cols, parse_family))
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.accepted else 1

    if args.command == "decompose":
        g = _load(args.graph)
        found = find_decompositions(g, max_labels=args.max_labels)
        out_dir = Path(args.out_dir) if args.out_dir else None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(args.graph).stem or "graph"

        entries = []
        for i, dec in enumerate(found, start=1):
            right = sorted(label_set(g) - set(dec.left_labels))
            entry = {
                "left_labels": _labels_json(dec.left_labels),
                "right_labels": _labels_json(right),
                "family_sizes": list(dec.report.family_sizes),
                "factors": [graph_to_document(f) for f in dec.factors],
            }
            if out_dir is not None:
                entry["files"] = _write_graphs(out_dir, f"{stem}.d{i}.f", dec.factors)
            entries.append(entry)

        result = {"count": len(found), "decompositions": entries}
        if args.recursive:
            # The search on g has run already; only its factors are left to split.
            primes = [g]
            if found:
                primes = [p for f in found[0].factors for p in prime_factors(f, args.max_labels)]
            result["prime_factors"] = [graph_to_document(f) for f in primes]
            if out_dir is not None:
                result["prime_factor_files"] = _write_graphs(out_dir, f"{stem}.prime", primes)
        print(json.dumps(result, indent=2))
        return 0 if found else 1

    if args.command == "dot":
        sys.stdout.write(emit_dot(_load(args.graph)))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _match(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
            return int(e.code or 0)
    try:
        return _run(args)
    except (GraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # an input too large for this machine, not a bug
        detail = f" ({e})" if e.args else ""
        print(f"error: out of memory while running vrsp {args.command}{detail}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug, not bad input: report it apart from exit 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
