#!/usr/bin/env python3
"""Knob-table checker for docs/OPERATIONS.md — a docs-gate CI check.

Each config struct below has a knob table in OPERATIONS.md, under the
``##`` section whose heading names the struct (``host::EngineConfig``
…).  The check fails when the table and the struct disagree:

  * every field of the struct needs a row.  A struct-typed field such as
    ``EngineConfig::fista`` is covered by its own row or by any row under
    it (``fista.tolerance``, ``engine.*``);
  * every row must name a live field.  Dotted rows resolve through the
    nested config structs (``engine.slo.deadline_ms`` → EngineConfig →
    SloConfig), and ``x.*`` needs ``x`` to be a struct-typed field;
  * the ShardServerConfig table's "Daemon flag" column and the flags
    ``src/net/shard_serverd_args.cpp`` compares against must agree: every
    documented ``--flag`` is parsed, and every parsed flag has a row.

Fields are read from the struct definitions in ``src/**/*.hpp``
(top-level ``struct Name {`` blocks; member functions, ``static`` and
``using`` lines are not fields).  Only the standard library is used.
Exit status: 0 clean, 1 mismatches (each printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# The structs whose every field must have a row.
TABLED = ("EngineConfig", "FabricConfig", "PayloadPoolConfig",
          "RoutingClientConfig", "ShardServerConfig")
# Structs a dotted row may descend into.
NESTED = ("EngineConfig", "FistaConfig", "SloConfig", "WireEncodeOptions")
# The daemon's flag parser, and the table whose second column names its flags.
DAEMON_PARSER = pathlib.Path("src/net/shard_serverd_args.cpp")
DAEMON_TABLE = "ShardServerConfig"

STRUCT_OPEN = re.compile(r"^struct (\w+) \{")
IDENT_AT_END = re.compile(r"(\w+)\s*$")
HEADING = re.compile(r"^##\s+(.*)$")
ROW_KNOB = re.compile(r"^\|\s*`([^`]+)`\s*\|")
ROW_FLAG = re.compile(r"^\|[^|]*\|\s*`(--[\w-]+)`\s*\|")
PARSER_FLAG = re.compile(r'==\s*"(--[\w-]+)"')


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def top_level_split(body: str, sep: str) -> list[str]:
    """Splits on `sep` outside (), <>, {} and []."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "(<{[":
            depth += 1
        elif ch in ")>}]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def field_of(statement: str) -> tuple[str, str] | None:
    """(type, name) when `statement` declares a data member."""
    s = " ".join(statement.split())
    if not s or s.startswith(("static ", "using ", "friend ", "template")) or "operator" in s:
        return None
    decl = top_level_split(s, "=")[0].strip()
    decl = re.sub(r"\{[^{}]*\}$", "", decl).strip()  # Brace initializer.
    if decl.endswith(")") or decl.endswith("const"):
        return None  # A member function.
    m = IDENT_AT_END.search(decl)
    if not m or m.start() == 0:
        return None
    return decl[: m.start()].strip(), m.group(1)


def parse_structs(src: pathlib.Path) -> dict[str, dict[str, str]]:
    """struct name -> {field name: type} for every top-level struct."""
    structs: dict[str, dict[str, str]] = {}
    for header in sorted(src.rglob("*.hpp")):
        lines = header.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            m = STRUCT_OPEN.match(line)
            if not m:
                continue
            end = next(j for j in range(i + 1, len(lines)) if lines[j].startswith("};"))
            body = strip_comments("\n".join(lines[i + 1 : end]))
            # Inline member function bodies end a statement like a `;`.
            body = re.sub(r"\)\s*(const\s*)?\{[^{}]*\}", ");", body)
            fields: dict[str, str] = {}
            for statement in top_level_split(body, ";"):
                parsed = field_of(statement)
                if parsed:
                    fields[parsed[1]] = parsed[0]
            structs[m.group(1)] = fields
    return structs


def nested_struct(field_type: str) -> str | None:
    """The config struct a field of this type descends into, if any."""
    name = field_type.split("::")[-1].strip()
    return name if name in NESTED else None


def parse_tables(doc: pathlib.Path) -> dict[str, list[tuple[int, str, str]]]:
    """struct name -> [(line, knob, row text)] for each struct's knob table."""
    tables: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
        h = HEADING.match(line)
        if h:
            named = [n.split("::")[-1] for n in re.findall(r"`([\w:]+)`", h.group(1))]
            current = next((n for n in named if n in TABLED), None)
            if current:
                tables.setdefault(current, [])
            continue
        row = ROW_KNOB.match(line)
        if current and row:
            tables[current].append((lineno, row.group(1), line))
    return tables


def resolve(structs, struct: str, path: str) -> str | None:
    """None when `path` names a live field (or `x.*` a struct field) of
    `struct`, else why not."""
    parts = path.split(".")
    for k, part in enumerate(parts):
        last = k == len(parts) - 1
        if part == "*" and last:
            return None if k > 0 else "a bare '*' names nothing"
        fields = structs.get(struct, {})
        if part not in fields:
            return f"{struct} has no field '{part}'"
        if last:
            return None
        inner = nested_struct(fields[part])
        if inner is None:
            return f"{struct}::{part} is not a nested config struct"
        struct = inner
    return None


def check(root: pathlib.Path, doc: pathlib.Path) -> list[str]:
    structs = parse_structs(root / "src")
    tables = parse_tables(doc)
    problems = []
    for struct in TABLED:
        if struct not in structs:
            problems.append(f"src: struct {struct} not found")
            continue
        if struct not in tables:
            problems.append(f"{doc}: no knob table for {struct}")
            continue
        knobs = [knob for _, knob, _ in tables[struct]]
        for lineno, knob, _ in tables[struct]:
            why = resolve(structs, struct, knob)
            if why:
                problems.append(f"{doc}:{lineno}: row `{knob}` is stale: {why}")
        for field in structs[struct]:
            if not any(k == field or k.startswith(field + ".") for k in knobs):
                problems.append(f"{doc}: {struct}::{field} has no row")
    return problems + check_daemon_flags(root, doc, tables.get(DAEMON_TABLE, []))


def check_daemon_flags(root: pathlib.Path, doc: pathlib.Path, rows) -> list[str]:
    parser = root / DAEMON_PARSER
    if not parser.is_file():
        return [f"src: daemon flag parser {DAEMON_PARSER} not found"]
    parsed = set(PARSER_FLAG.findall(strip_comments(parser.read_text(encoding="utf-8"))))
    problems, documented = [], set()
    for lineno, _, line in rows:
        flag = ROW_FLAG.match(line)
        if not flag:
            continue
        documented.add(flag.group(1))
        if flag.group(1) not in parsed:
            problems.append(f"{doc}:{lineno}: daemon flag `{flag.group(1)}` is not parsed "
                            f"by {DAEMON_PARSER}")
    for flag in sorted(parsed - documented):
        problems.append(f"{doc}: daemon flag `{flag}` has no row")
    return problems


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=repo,
                        help="repository root holding src/ (default: this repo)")
    parser.add_argument("--doc", type=pathlib.Path, default=None,
                        help="knob document (default: ROOT/docs/OPERATIONS.md)")
    args = parser.parse_args()
    doc = args.doc or args.root / "docs" / "OPERATIONS.md"
    if not doc.is_file() or not (args.root / "src").is_dir():
        print(f"check_knob_tables: missing {doc} or {args.root / 'src'}", file=sys.stderr)
        return 2
    problems = check(args.root, doc)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} knob-table mismatch(es)")
        return 1
    print(f"knob tables match {', '.join(TABLED)} and the shard_serverd flags")
    return 0


if __name__ == "__main__":
    sys.exit(main())
