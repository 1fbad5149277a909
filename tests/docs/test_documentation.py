"""The documentation rot checks, run as part of tier-1.

CI's docs job runs ``tools/check_docs.py`` as a script; this module
imports the same checker so documented commands, code blocks and paths
are verified on every local test run too — plus negative tests proving
the checker actually catches rot.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRealDocumentation:
    def test_docs_tree_exists(self):
        for name in (
            "architecture.md",
            "wire-protocol.md",
            "paper-mapping.md",
            "experiments.md",
        ):
            assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"

    def test_readme_points_into_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in readme
        assert "docs/wire-protocol.md" in readme
        assert "docs/paper-mapping.md" in readme
        assert "docs/experiments.md" in readme
        assert "serve shard" in readme and "serve router" in readme

    def test_documentation_is_consistent(self):
        errors = checker.collect_errors()
        assert errors == [], "\n".join(errors)


class TestCheckerCatchesRot:
    def test_flags_broken_python_block(self, tmp_path):
        page = tmp_path / "bad.md"
        text = "```python\ndef broken(:\n```\n"
        errors = checker.check_python_blocks(page, text)
        assert len(errors) == 1 and "does not compile" in errors[0]

    def test_allows_top_level_await_snippets(self, tmp_path):
        page = tmp_path / "ok.md"
        text = "```python\nvalue = await frontend.query('a', 'b')\n```\n"
        assert checker.check_python_blocks(page, text) == []

    def test_flags_unparseable_cli_line(self, tmp_path):
        page = tmp_path / "bad.md"
        text = "```bash\nides-experiment serve frobnicate thing.npz\n```\n"
        errors = checker.check_cli_lines(page, text)
        assert len(errors) == 1 and "does not parse" in errors[0]

    def test_accepts_real_cli_line_with_continuation(self, tmp_path):
        page = tmp_path / "ok.md"
        text = (
            "```bash\nides-experiment serve shard --port 7001 \\\n"
            "    --shard-index 0 --n-shards 2 --snapshot service.npz\n```\n"
        )
        assert checker.check_cli_lines(page, text) == []

    def test_flags_dangling_path_reference(self, tmp_path):
        page = tmp_path / "bad.md"
        text = "See [the guide](no/such/file.md) and `examples/ghost.py`.\n"
        errors = checker.check_paths(page, text)
        assert len(errors) == 2
        assert any("no/such/file.md" in e for e in errors)
        assert any("examples/ghost.py" in e for e in errors)

    def test_ignores_external_links_and_code_blocks(self, tmp_path):
        page = tmp_path / "ok.md"
        text = (
            "[site](https://example.org)\n"
            "```text\n[fake](not/a/real/path.md)\n```\n"
        )
        assert checker.check_paths(page, text) == []

    def test_flags_broken_json_block(self, tmp_path):
        page = tmp_path / "bad.md"
        text = "```json\n{not json}\n```\n"
        errors = checker.check_json_blocks(page, text)
        assert len(errors) == 1 and "does not parse" in errors[0]

    def test_flags_invalid_grid_config(self, tmp_path):
        page = tmp_path / "bad.md"
        text = '```json\n{"axes": {"solver": ["magic"]}}\n```\n'
        errors = checker.check_json_blocks(page, text)
        assert len(errors) == 1 and "grid config is invalid" in errors[0]

    def test_accepts_valid_grid_config(self, tmp_path):
        page = tmp_path / "ok.md"
        text = '```json\n{"axes": {"solver": ["svd", "nmf"]}}\n```\n'
        assert checker.check_json_blocks(page, text) == []

    def test_flags_axis_value_drift(self, tmp_path):
        page = tmp_path / "experiments.md"
        text = (
            "| axis | values | meaning |\n|---|---|---|\n"
            "| `solver` | `svd`, `cholesky` | tiers |\n"
        )
        errors = checker.check_axis_catalog(page, text)
        assert any("cholesky" in e for e in errors)  # unknown value
        assert any("missing catalog axes" in e for e in errors)

    def test_flags_unknown_preset(self, tmp_path):
        page = tmp_path / "experiments.md"
        errors = checker.check_axis_catalog(page, "use --preset warp\n")
        assert any("warp" in e for e in errors)

    def test_axis_catalog_check_scoped_to_experiments_page(self, tmp_path):
        page = tmp_path / "other.md"
        assert checker.check_axis_catalog(page, "--preset warp") == []

    def test_flags_undefined_camel_case_name(self, tmp_path):
        page = tmp_path / "bad.md"
        text = (
            "Wrap `ShardServer`, `Deadline()` and `ValueError`.\n"
            "Tune the `GhostBatchPolicy()` window.\n"
            "```text\n`AnotherGhost` inside a fence is code\n```\n"
        )
        errors = checker.check_names(page, text)
        assert errors == [
            "bad.md:2: `GhostBatchPolicy` is not defined under src/repro"
        ]

    def test_flags_wire_field_no_handler_reads(self, tmp_path):
        page = tmp_path / "wire-protocol.md"
        real = (REPO_ROOT / "docs" / "wire-protocol.md").read_text(encoding="utf-8")
        assert checker.check_wire_ops(page, real) == []
        rotted = real.replace(
            "| `journal_since` | `since`, optional `limit`",
            "| `journal_since` | `seq`, optional `limit`",
        )
        rotted = "\n".join(
            line for line in rotted.splitlines() if not line.startswith("| `digest`")
        )
        errors = checker.check_wire_ops(page, rotted)
        assert len(errors) == 2
        assert errors[0] == "wire-protocol.md: op table has no row for: digest"
        assert errors[1].endswith(
            "op `journal_since` documents request field `seq`, which its "
            "handler never reads"
        )
        # other pages are not checked against the handlers
        assert checker.check_wire_ops(tmp_path / "other.md", rotted) == []

    def test_flags_wire_response_field_no_handler_returns(self, tmp_path):
        page = tmp_path / "wire-protocol.md"
        real = (REPO_ROOT / "docs" / "wire-protocol.md").read_text(encoding="utf-8")
        rotted = real.replace(
            "`journal_first_seq`, `journal_entries` |",
            "`journal_first_seq`, `journal_entries`, `journal_evicted` |",
        ).replace("| `updated` — rejects", "| `refreshed` — rejects")
        errors = checker.check_wire_ops(page, rotted)
        assert len(errors) == 2
        assert errors[0].endswith(
            "op `update_many` documents response field `refreshed`, which "
            "its handler never returns"
        )
        # health's keys come from health_fields, which _op_health calls
        assert errors[1].endswith(
            "op `health` documents response field `journal_evicted`, which "
            "its handler never returns"
        )
        # only the words before a cell's first " — " or ":" are fields
        assert "`digest` (hex sha-256), `seq`, `n_hosts` — order-" in real
        assert "array `values`: this shard's `k` nearest" in real

    def test_flags_missing_markdown_reference(self, tmp_path):
        (tmp_path / "NOTES.md").write_text("# notes\n", encoding="utf-8")
        source = tmp_path / "module.py"
        text = (
            '"""See docs/wire-protocol.md and NOTES.md beside this file.\n'
            "\n"
            "The rationale lives in DESIGN.md section 2.\n"
            '"""\n'
            'URL = "https://example.org/GHOST.md"\n'
        )
        errors = checker.check_markdown_references(source, text)
        assert errors == [
            f"{source}:3: mentions DESIGN.md, which does not exist"
        ]
        assert REPO_ROOT / "src" / "repro" / "datasets" / "synthetic.py" in (
            checker.python_sources()
        )
