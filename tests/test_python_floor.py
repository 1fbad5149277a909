"""The package promises Python 3.10 (``requires-python``, CI), so its
modules must not use the asyncio APIs that arrived in 3.11."""

import ast
from pathlib import Path

import repro

#: asyncio names that need Python 3.11 or later.
NEWER_ASYNCIO = {"timeout", "timeout_at", "TaskGroup", "Runner"}


def _newer_asyncio_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in NEWER_ASYNCIO
            and isinstance(node.value, ast.Name)
            and node.value.id == "asyncio"
        ):
            found.append((node.lineno, f"asyncio.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "asyncio":
            for alias in node.names:
                if alias.name in NEWER_ASYNCIO:
                    found.append((node.lineno, f"from asyncio import {alias.name}"))
    return found


def test_no_python_3_11_asyncio_api_in_the_package():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root.parent)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for line, name in _newer_asyncio_uses(ast.parse(path.read_text()))
    ]
    assert not offenders, "3.11-only asyncio API:\n" + "\n".join(offenders)


def test_the_check_sees_each_form():
    source = (
        "import asyncio\n"
        "from asyncio import TaskGroup\n"
        "async def f():\n"
        "    async with asyncio.timeout(1):\n"
        "        pass\n"
        "    asyncio.Runner\n"
    )
    assert sorted(_newer_asyncio_uses(ast.parse(source))) == [
        (2, "from asyncio import TaskGroup"),
        (4, "asyncio.timeout"),
        (6, "asyncio.Runner"),
    ]
