"""Graph file formats.

Canonical JSON: ``{"n": int, "arcs": [[u, v], ...], "loops": [v, ...]}``
with 0-based ids, arcs sorted lexicographically, and loops ascending.

Text format: a line ``n <N>``, then one ``a <u> <v>`` per arc and one
``l <v>`` per loop, in any order.  Blank lines and ``#`` comments are
allowed.  Both parsers reject duplicate arcs and loops.

``loads`` auto-detects the format from the first non-whitespace byte.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError
from .graphs import Digraph, new_digraph


def to_json_dict(d: Digraph) -> dict[str, Any]:
    return {
        "n": d.n,
        "arcs": [[u, v] for u, v in d.arc_list()],
        "loops": d.loop_list(),
    }


def from_json_dict(obj: Any) -> Digraph:
    if not isinstance(obj, dict):
        raise FormatError("graph JSON must be an object")
    try:
        n = obj["n"]
        arcs = obj["arcs"]
        loops = obj["loops"]
    except KeyError as exc:
        raise FormatError(f"graph JSON missing key {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError("n must be an integer")
    if not isinstance(arcs, list) or not isinstance(loops, list):
        raise FormatError("arcs and loops must be lists")
    arc_pairs = []
    for item in arcs:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise FormatError(f"malformed arc entry {item!r}")
        arc_pairs.append((item[0], item[1]))
    if len(set(arc_pairs)) != len(arc_pairs):
        raise FormatError("duplicate arcs")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in loops):
        raise FormatError("malformed loop entry")
    if len(set(loops)) != len(loops):
        raise FormatError("duplicate loops")
    try:
        return new_digraph(n, arc_pairs, loops)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def dumps_json(d: Digraph) -> str:
    return json.dumps(to_json_dict(d), separators=(", ", ": "))


def to_text(d: Digraph) -> str:
    lines = [f"n {d.n}"]
    lines.extend(f"a {u} {v}" for u, v in d.arc_list())
    lines.extend(f"l {v}" for v in d.loop_list())
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Digraph:
    n = None
    arcs: list[tuple[int, int]] = []
    loops: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            if kind == "n" and len(args) == 1:
                if n is not None:
                    raise FormatError(f"line {lineno}: repeated n line")
                n = int(args[0])
            elif kind == "a" and len(args) == 2:
                arcs.append((int(args[0]), int(args[1])))
            elif kind == "l" and len(args) == 1:
                loops.append(int(args[0]))
            else:
                raise FormatError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError:
            raise FormatError(f"line {lineno}: bad integer in {line!r}") from None
    if n is None:
        raise FormatError("missing n line")
    if len(set(arcs)) != len(arcs):
        raise FormatError("duplicate arcs")
    if len(set(loops)) != len(loops):
        raise FormatError("duplicate loops")
    try:
        return new_digraph(n, arcs, loops)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def loads(text: str) -> Digraph:
    """Parse either format, sniffing JSON by a leading '{'."""
    stripped = text.lstrip()
    if not stripped:
        raise FormatError("empty input")
    if stripped[0] == "{":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from None
        return from_json_dict(obj)
    return from_text(text)


def load_path(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
