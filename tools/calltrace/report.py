"""Tables of the functions under ``src/repro`` that traced runs never enter.

    python tools/calltrace/report.py TRACES [--src SRC] [--tier1 LABEL]
    python tools/calltrace/report.py --compare OLD_TRACES OLD_SRC NEW_TRACES NEW_SRC
                                     [--rename OLD_QUALNAME=NEW_QUALNAME ...]

``TRACES`` is a ``CALLTRACE_DIR`` the tracer (``sitecustomize.py`` beside
this file) wrote; each ``<label>.<pid>.tsv`` file belongs to the run
labelled ``<label>``.  ``SRC`` is the ``src/repro`` directory the runs
executed (default: this checkout's).

The function list is every ``def`` under ``SRC``, found by walking each
file's AST: methods and nested functions included, qualified as
``co_qualname`` qualifies them, keyed by file and first line (the first
decorator's line when decorated, as ``co_firstlineno`` is).

The first form prints two tables: functions no run enters, and functions
only the ``--tier1`` run (default label ``tier1``) enters.  The second
matches the two trees' functions by file and qualified name and prints
a summary, the functions deleted from the old tree, the surviving
functions the old runs entered and the new runs do not (coverage lost;
the exit status is 1 when there is any), and those only the new runs
enter.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src", "repro"))


@dataclass(frozen=True)
class Function:
    path: str           # relative to src/repro
    line: int           # co_firstlineno
    qualname: str
    lines: int


def functions(src: str) -> list[Function]:
    """Every ``def`` under ``src``, in file and line order."""
    found: list[Function] = []
    for directory, subdirectories, names in os.walk(src):
        subdirectories.sort()
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            relpath = os.path.relpath(path, src).replace(os.sep, "/")
            _walk(tree, "", relpath, found)
    return found


def _walk(node: ast.AST, prefix: str, relpath: str, found: list[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            found.append(Function(relpath, first, qualname,
                                  child.end_lineno - child.lineno + 1))
            _walk(child, qualname + ".<locals>.", relpath, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, prefix + child.name + ".", relpath, found)
        else:
            _walk(child, prefix, relpath, found)


def entered(traces: str) -> dict[tuple[str, int], set[str]]:
    """``(relpath, first line)`` → the labels of the runs that entered it."""
    labels: dict[tuple[str, int], set[str]] = defaultdict(set)
    for name in os.listdir(traces):
        if not name.endswith(".tsv"):
            continue
        label = name.split(".", 1)[0]
        with open(os.path.join(traces, name), encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 3:
                    labels[(parts[0], int(parts[1]))].add(label)
    return labels


def _table(title: str, rows: list[Function]) -> None:
    print(f"\n{title}: {len(rows)} functions, {sum(f.lines for f in rows)} lines\n")
    print("| file | line | function | lines |")
    print("|---|---|---|---|")
    for function in rows:
        print(f"| `{function.path}` | {function.line} | `{function.qualname}` "
              f"| {function.lines} |")


def report(traces: str, src: str, tier1: str) -> None:
    defs = functions(src)
    labels = entered(traces)
    never = [f for f in defs if not labels.get((f.path, f.line))]
    alone = [f for f in defs if labels.get((f.path, f.line)) == {tier1}]
    runs = sorted({label for found in labels.values() for label in found})
    print(f"{len(defs)} functions ({sum(f.lines for f in defs)} lines) under {src}; "
          f"runs: {', '.join(runs)}")
    _table("Entered by no run", never)
    _table(f"Entered by {tier1} alone", alone)


def compare(old_traces: str, old_src: str, new_traces: str, new_src: str,
            renames: dict[str, str], tier1: str) -> int:
    old_defs, new_defs = functions(old_src), functions(new_src)
    old_labels, new_labels = entered(old_traces), entered(new_traces)
    new_entered: dict[tuple[str, str], bool] = defaultdict(bool)
    for function in new_defs:
        new_entered[(function.path, function.qualname)] |= bool(
            new_labels.get((function.path, function.line)))
    # A name a renamed function took over no longer names the old
    # function of that name.
    taken = set(renames.values()) - set(renames)
    deleted, lost, gained = [], [], []
    for function in old_defs:
        key = (function.path, renames.get(function.qualname, function.qualname))
        was_entered = bool(old_labels.get((function.path, function.line)))
        if key not in new_entered or function.qualname in taken:
            deleted.append(function)
        elif was_entered and not new_entered[key]:
            lost.append(function)
        elif new_entered[key] and not was_entered:
            gained.append(function)

    print(f"| tree | functions | lines | entered by no run | entered by {tier1} alone |")
    print("|---|---|---|---|---|")
    for name, defs, labels in (("old", old_defs, old_labels),
                               ("new", new_defs, new_labels)):
        never = sum(1 for f in defs if not labels.get((f.path, f.line)))
        alone = sum(1 for f in defs if labels.get((f.path, f.line)) == {tier1})
        print(f"| {name} | {len(defs)} | {sum(f.lines for f in defs)} "
              f"| {never} | {alone} |")
    _table("Deleted (old tree only)", deleted)
    _table("Entered at the old tree, not at the new (coverage lost)", lost)
    _table("Entered at the new tree, not at the old", gained)
    return 1 if lost else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("traces", nargs="?")
    parser.add_argument("--src", default=DEFAULT_SRC)
    parser.add_argument("--tier1", default="tier1")
    parser.add_argument("--compare", nargs=4,
                        metavar=("OLD_TRACES", "OLD_SRC", "NEW_TRACES", "NEW_SRC"))
    parser.add_argument("--rename", action="append", default=[],
                        metavar="OLD_QUALNAME=NEW_QUALNAME")
    args = parser.parse_args(argv)
    if args.compare:
        renames = dict(pair.split("=", 1) for pair in args.rename)
        return compare(*args.compare, renames, args.tier1)
    if not args.traces:
        parser.error("give a trace directory or --compare")
    report(args.traces, args.src, args.tier1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
