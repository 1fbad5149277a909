#!/usr/bin/env python
"""Documentation rot checker: documented things must stay real.

Run from the repository root (CI's docs job does, and
``tests/docs/test_documentation.py`` runs the same checks in tier-1)::

    PYTHONPATH=src python tools/check_docs.py

Checks, over ``README.md`` and every ``docs/*.md``:

1. every fenced ```python block compiles (top-level ``await`` allowed
   — snippets may show coroutine usage);
2. every ``ides-experiment ...`` line inside fenced ```bash blocks
   parses against the real CLI parser (``repro.cli.build_parser``), so
   a renamed flag or subcommand breaks the build, not a reader;
3. every relative path reference (markdown links and backticked
   ``examples/...``-style paths) points at a file or directory that
   exists;
4. every fenced ```json block parses, and json blocks that look like
   ablation grid configs additionally validate against
   ``repro.evaluation.ablation.AblationConfig``;
5. axis names, axis values and preset names mentioned in
   ``docs/experiments.md`` match the live catalog
   (``repro.evaluation.ablation.AXES`` / ``PRESETS``), so the axis
   documentation cannot drift from the code;
6. every backticked CamelCase name (``ShardServer``, ``Deadline()``)
   outside fenced blocks is a builtin or is defined under
   ``src/repro`` as a class, a function or a module-level name, so a
   deleted class cannot linger in the docs;
7. ``docs/wire-protocol.md``'s op table has a row for every op in
   ``ShardServer._HANDLERS``; every backticked request field in a
   row is one that op's handler reads: a string constant passed to
   ``fields.get``, ``_local_ids``, ``_scalar_id`` or ``array``; and
   every backticked response field (before the cell's first `` — ``
   or ``:``) is a string key of a dict literal. Both count what the
   handler does itself and what the ``ShardServer`` methods it calls
   do (``health_fields`` for ``health``).

The checker is intentionally a plain script with a ``collect_errors``
entry point: no test framework required, importable from the test
suite, exit code 1 on any finding.
"""

from __future__ import annotations

import ast
import builtins
import functools
import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fenced code blocks: ```lang\n ... \n```
_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
#: Markdown links to local targets: [text](path) — not http(s)/anchors.
_LINK = re.compile(r"\[[^\]]*\]\(([^)#][^)]*)\)")
#: Backticked repo paths: `examples/foo.py`, `docs/bar.md`, `tools/x.py`,
#: `benchmarks/...`, `src/repro/...`, `tests/...`.
_BACKTICK_PATH = re.compile(
    r"`((?:examples|docs|benchmarks|tools|tests|src)/[A-Za-z0-9_./-]+)`"
)


def doc_files() -> list[Path]:
    """README plus every markdown file under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_python_blocks(path: Path, text: str) -> list[str]:
    """Every ```python block must at least compile."""
    errors = []
    for match in _FENCE.finditer(text):
        language, source = match.group(1), match.group(2)
        if language != "python":
            continue
        try:
            compile(
                source,
                f"{path.name}:{_line_of(text, match.start())}",
                "exec",
                flags=ast.PyCF_ALLOW_TOP_LEVEL_AWAIT,
            )
        except SyntaxError as broken:
            errors.append(
                f"{path.name}:{_line_of(text, match.start())}: python block "
                f"does not compile: {broken}"
            )
    return errors


def check_cli_lines(path: Path, text: str) -> list[str]:
    """Every documented ``ides-experiment`` invocation must parse."""
    from repro.cli import build_parser

    errors = []
    for match in _FENCE.finditer(text):
        language, source = match.group(1), match.group(2)
        if language not in ("bash", "sh", "shell", "console"):
            continue
        block_line = _line_of(text, match.start())
        # Re-join backslash continuations before splitting into commands.
        joined = source.replace("\\\n", " ")
        for offset, line in enumerate(joined.splitlines()):
            line = line.strip()
            if not line.startswith("ides-experiment"):
                continue
            argv = shlex.split(line)[1:]
            # Placeholder-style docs lines ("run <id>") are not real
            # invocations; skip anything with angle brackets.
            if any("<" in token for token in argv):
                continue
            parser = build_parser()
            try:
                parser.parse_args(argv)
            except SystemExit:
                errors.append(
                    f"{path.name}:{block_line + offset}: documented command "
                    f"does not parse: {line!r}"
                )
    return errors


def check_paths(path: Path, text: str) -> list[str]:
    """Every referenced repo-relative path must exist."""
    errors = []
    candidates: set[str] = set()
    stripped = _FENCE.sub("", text)  # links inside code blocks are code
    for match in _LINK.finditer(stripped):
        target = match.group(1).strip()
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        candidates.add(target)
    for match in _BACKTICK_PATH.finditer(stripped):
        candidates.add(match.group(1))
    for target in sorted(candidates):
        resolved = (path.parent / target).resolve()
        in_repo = (REPO_ROOT / target).resolve()
        if not resolved.exists() and not in_repo.exists():
            errors.append(f"{path.name}: referenced path does not exist: {target}")
    return errors


def check_json_blocks(path: Path, text: str) -> list[str]:
    """Every ```json block must parse; grid configs must validate."""
    import json

    from repro.evaluation.ablation import AblationConfig
    from repro.exceptions import ValidationError

    errors = []
    for match in _FENCE.finditer(text):
        language, source = match.group(1), match.group(2)
        if language != "json":
            continue
        line = _line_of(text, match.start())
        try:
            payload = json.loads(source)
        except json.JSONDecodeError as broken:
            errors.append(
                f"{path.name}:{line}: json block does not parse: {broken}"
            )
            continue
        # A mapping with an "axes" key is documented as an ablation
        # grid config; it must actually load as one.
        if isinstance(payload, dict) and "axes" in payload:
            try:
                AblationConfig.from_dict(payload)
            except ValidationError as broken:
                errors.append(
                    f"{path.name}:{line}: documented grid config is "
                    f"invalid: {broken}"
                )
    return errors


#: Table rows keyed by a backticked name, with their second and third
#: cells: | `name` | values... | description | (the axis catalog, the
#: op table)
_TABLE_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|([^|]*)\|([^|]*)", re.MULTILINE)
#: Backticked tokens inside one table cell.
_CELL_TOKENS = re.compile(r"`([^`]+)`")


def check_axis_catalog(path: Path, text: str) -> list[str]:
    """docs/experiments.md's axis table must match the live catalog.

    Every documented axis must exist, every documented choice value
    must be in the axis domain, every catalog axis must be documented,
    and every documented ``--preset`` name must exist.
    """
    if path.name != "experiments.md":
        return []
    from repro.evaluation.ablation import AXES, PRESETS

    errors = []
    documented: dict[str, list[str]] = {}
    for row in _TABLE_ROW.finditer(text):
        name, values_cell = row.group(1), row.group(2)
        if name not in AXES:
            # Table rows for other tables (e.g. report fields) also
            # match the pattern; only flag rows under known axis names
            # when the name collides with nothing.
            continue
        documented[name] = _CELL_TOKENS.findall(values_cell)

    missing = set(AXES) - set(documented)
    if missing:
        errors.append(
            f"{path.name}: axis table is missing catalog axes: "
            f"{', '.join(sorted(missing))}"
        )
    for name, tokens in documented.items():
        spec = AXES[name]
        if spec.kind != "choice":
            continue
        for token in tokens:
            if token not in spec.choices:
                errors.append(
                    f"{path.name}: axis {name!r} documents value "
                    f"{token!r} which is not in the live domain"
                )
        undocumented = set(spec.choices) - set(tokens)
        if undocumented:
            errors.append(
                f"{path.name}: axis {name!r} does not document values: "
                f"{', '.join(sorted(undocumented))}"
            )

    for match in re.finditer(r"--preset\s+`?(\w+)`?", text):
        preset = match.group(1)
        if preset not in PRESETS:
            errors.append(
                f"{path.name}: documents unknown preset {preset!r} "
                f"(known: {', '.join(PRESETS)})"
            )
    return errors


#: A backticked CamelCase name, optionally called: `ShardServer`, `Deadline()`.
_CAMEL_NAME = re.compile(r"`([A-Z]\w*[a-z]\w*)(?:\(\))?`")


@functools.cache
def defined_names() -> frozenset[str]:
    """Builtins plus every class, function and module-level name
    defined under ``src/repro``."""
    names = set(dir(builtins))
    for module in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                names.add(node.name)
        for node in tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset(names)


def check_names(path: Path, text: str) -> list[str]:
    """Every backticked CamelCase name must be defined in the package."""
    fences = [match.span() for match in _FENCE.finditer(text)]
    errors = []
    for match in _CAMEL_NAME.finditer(text):
        name = match.group(1)
        if name in defined_names():
            continue
        if any(start <= match.start() < end for start, end in fences):
            continue
        errors.append(
            f"{path.name}:{_line_of(text, match.start())}: `{name}` is not "
            "defined under src/repro"
        )
    return errors


#: The module whose ShardServer answers the ops of docs/wire-protocol.md.
SERVER_MODULE = REPO_ROOT / "src" / "repro" / "serving" / "transport" / "server.py"
#: Calls through which a handler reads a request field.
_FIELD_READERS = ("get", "_local_ids", "_scalar_id", "array")
#: An enumeration of allowed values, such as "`which` ∈ `out`/`in`":
#: values, not field names.
_VALUE_LIST = re.compile(r"∈\s*`[^`]*`(?:\s*/\s*`[^`]*`)*")


@functools.cache
def handler_fields() -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Per ``ShardServer._HANDLERS`` op: the request fields its handler
    reads and the response keys it writes."""
    tree = ast.parse(SERVER_MODULE.read_text(encoding="utf-8"))
    server = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ShardServer"
    )
    methods = {
        node.name: node for node in server.body
        if isinstance(node, ast.FunctionDef)
    }
    handlers = next(
        node.value for node in server.body
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "_HANDLERS"
            for target in node.targets
        )
    )

    def strings(nodes) -> set[str]:
        return {
            node.value for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }

    def reachable(name: str, seen: set[str]) -> list[ast.AST]:
        """The nodes of a method and of the ``self.`` methods it calls."""
        seen.add(name)
        nodes = list(ast.walk(methods[name]))
        for node in list(nodes):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in methods
                and node.func.attr not in seen
            ):
                nodes += reachable(node.func.attr, seen)
        return nodes

    def reads(nodes) -> set[str]:
        found: set[str] = set()
        for node in nodes:
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ):
                continue
            called, owner = node.func.attr, node.func.value
            if called == "get":
                # message.fields.get(key, default): only the key counts
                if isinstance(owner, ast.Attribute) and owner.attr == "fields":
                    found |= strings(node.args[:1])
            elif called in _FIELD_READERS:
                keys = strings(node.args)
                if not keys and called in methods:
                    # `_local_ids(message)` reads its default key, "ids"
                    keys = strings(methods[called].args.defaults)
                found |= keys
        return found

    def writes(nodes) -> set[str]:
        return {
            key for node in nodes if isinstance(node, ast.Dict)
            for key in strings(node.keys)
        }

    surface = {}
    for op, handler in zip(handlers.keys, handlers.values):
        nodes = reachable(handler.id, set())
        surface[op.value] = (frozenset(reads(nodes)), frozenset(writes(nodes)))
    return surface


def check_wire_ops(path: Path, text: str) -> list[str]:
    """docs/wire-protocol.md's op table must match the server's handlers."""
    if path.name != "wire-protocol.md":
        return []
    surface = handler_fields()
    rows = {
        row.group(1): row for row in _TABLE_ROW.finditer(text)
        if row.group(1) in surface
    }
    errors = []
    missing = sorted(set(surface) - set(rows))
    if missing:
        errors.append(
            f"{path.name}: op table has no row for: {', '.join(missing)}"
        )
    for op, row in rows.items():
        where = f"{path.name}:{_line_of(text, row.start())}: op `{op}`"
        reads, writes = surface[op]
        request = _VALUE_LIST.sub("", row.group(2))
        for field in re.findall(r"`(\w+)`", request):
            if field not in reads:
                errors.append(
                    f"{where} documents request field `{field}`, which its "
                    "handler never reads"
                )
        response = re.split(r" — |:", row.group(3), maxsplit=1)[0]
        for field in re.findall(r"`(\w+)`", response):
            if field not in writes:
                errors.append(
                    f"{where} documents response field `{field}`, which its "
                    "handler never returns"
                )
    return errors


def collect_errors() -> list[str]:
    """All findings across all documentation files."""
    errors = []
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        errors.extend(check_python_blocks(path, text))
        errors.extend(check_cli_lines(path, text))
        errors.extend(check_paths(path, text))
        errors.extend(check_json_blocks(path, text))
        errors.extend(check_axis_catalog(path, text))
        errors.extend(check_names(path, text))
        errors.extend(check_wire_ops(path, text))
    return errors


def main() -> int:
    files = doc_files()
    errors = collect_errors()
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    print(f"checked {len(files)} files: {', '.join(f.name for f in files)}")
    if errors:
        print(f"{len(errors)} documentation error(s)", file=sys.stderr)
        return 1
    print("documentation is consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
