"""The docs link-and-freshness gate (``scripts/check_docs.py``).

Tier-1 runs the same functions the CI step runs, in two directions:
the committed docs must be clean, and each checker must actually fire
on a deliberately rotten fixture — a gate that cannot fail guards
nothing.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.index.kernels import KERNEL_BACKENDS

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


class TestCommittedDocsAreClean:
    def test_run_all_reports_nothing(self):
        assert check_docs.run_all() == []

    def test_cli_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_doc_set_is_the_site_plus_readme(self):
        names = [f.name for f in check_docs.collect_doc_files()]
        assert "README.md" in names
        for page in check_docs.REQUIRED_PAGES:
            assert page in names


class TestBrokenDocsAreCaught:
    """Each checker must fire on a deliberately rotten repo fixture."""

    @pytest.fixture()
    def fake_repo(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "# fake\n[ok](docs/architecture.md) mentions BENCH_real.json\n"
        )
        (tmp_path / "docs" / "architecture.md").write_text(
            "# Architecture\n\n## Real heading\n"
        )
        (tmp_path / "docs" / "http_api.md").write_text("# API\n")
        (tmp_path / "docs" / "observability.md").write_text("# Obs\n")
        (tmp_path / "docs" / "operations.md").write_text("# Ops\n")
        (tmp_path / "BENCH_real.json").write_text("{}")
        return tmp_path

    def _links(self, root):
        return check_docs.check_links(
            check_docs.collect_doc_files(root), root
        )

    def test_clean_fixture_passes_link_and_bench_checks(self, fake_repo):
        assert self._links(fake_repo) == []
        assert (
            check_docs.check_bench_coverage(
                check_docs.collect_doc_files(fake_repo), fake_repo
            )
            == []
        )

    def test_dead_link_fails(self, fake_repo):
        (fake_repo / "docs" / "operations.md").write_text(
            "# Ops\n[gone](nonexistent.md)\n"
        )
        problems = self._links(fake_repo)
        assert len(problems) == 1
        assert "dead link nonexistent.md" in problems[0]

    def test_dangling_anchor_fails(self, fake_repo):
        (fake_repo / "README.md").write_text(
            "# fake\n[x](docs/architecture.md#no-such-heading)\n"
            "BENCH_real.json\n"
        )
        problems = self._links(fake_repo)
        assert len(problems) == 1
        assert "no-such-heading" in problems[0] or "heading" in problems[0]

    def test_valid_anchor_passes(self, fake_repo):
        (fake_repo / "README.md").write_text(
            "# fake\n[x](docs/architecture.md#real-heading)\n"
            "BENCH_real.json\n"
        )
        assert self._links(fake_repo) == []

    def test_external_links_are_skipped(self, fake_repo):
        (fake_repo / "README.md").write_text(
            "# fake\n[badge](../../actions/workflows/ci.yml/badge.svg)\n"
            "[web](https://example.com/gone)\nBENCH_real.json\n"
        )
        assert self._links(fake_repo) == []

    def test_unmentioned_bench_artifact_fails(self, fake_repo):
        (fake_repo / "BENCH_orphan.json").write_text("{}")
        problems = check_docs.check_bench_coverage(
            check_docs.collect_doc_files(fake_repo), fake_repo
        )
        assert len(problems) == 1
        assert "BENCH_orphan.json" in problems[0]
        # ... and the other way round: a docs row whose artifact is gone.
        (fake_repo / "docs" / "operations.md").write_text(
            "# Ops\n| `BENCH_orphan.json` | kept |\n| `BENCH_gone.json` | x |\n"
        )
        assert check_docs.check_bench_coverage(
            check_docs.collect_doc_files(fake_repo), fake_repo
        ) == [
            "BENCH_gone.json: named in README.md or docs/, but no such "
            "artifact is committed at the repository root"
        ]

    def test_missing_required_page_fails(self, fake_repo):
        (fake_repo / "docs" / "operations.md").unlink()
        problems = check_docs.check_required_pages(fake_repo)
        assert problems == ["docs/operations.md: required page is missing"]

    def test_dangling_citation_in_code_fails(self, fake_repo):
        package = fake_repo / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "NOTES.md").write_text("# notes\n")
        (package / "module.py").write_text(
            '"""See GONE.md for why; NOTES.md sits beside this file."""\n'
            "x = 1  # tuned per LOST.md, served per http_api.md\n"
            'fixture = "a string naming UNCHECKED.md is data, not a citation"\n'
        )
        assert check_docs.check_source_references(fake_repo) == [
            "src/pkg/module.py: cites GONE.md, which does not exist",
            "src/pkg/module.py: cites LOST.md, which does not exist",
        ]

    def test_stale_and_unlisted_metric_series_fail(self, fake_repo):
        (fake_repo / "docs" / "operations.md").write_text(
            "# Ops\nwatch `serve_requests_total`, not `serve_renamed_total`\n"
        )
        (fake_repo / "docs" / "observability.md").write_text(
            "# Obs\n| series | kind |\n|---|---|\n"
            "| `serve_queue_depth` | gauge |\n"
            "| `join_kernel_pairs_<backend>_total` | counter |\n"
            "| `serve_gone_depth` | gauge |\n"
        )
        problems = check_docs.check_metric_series(
            check_docs.collect_doc_files(fake_repo), fake_repo
        )
        stale = [p for p in problems if "does not emit" in p]
        assert stale == [
            "docs/observability.md: names metric series serve_gone_depth, "
            "which the serving registry does not emit",
            "docs/operations.md: names metric series serve_renamed_total, "
            "which the serving registry does not emit",
        ]
        # Two table rows are real (one gauge, one <backend> row covering
        # a counter per backend); every other emitted series is reported.
        unlisted = [p for p in problems if "missing from the series" in p]
        assert len(unlisted) == (
            len(check_docs.emitted_series()) - 1 - len(KERNEL_BACKENDS)
        )
        assert not any("serve_queue_depth" in p for p in unlisted)
        assert not any(
            "series join_kernel_pairs_reference_total" in p for p in unlisted
        )

    def test_vanished_method_fails(self, fake_repo):
        (fake_repo / "docs" / "operations.md").write_text(
            "# Ops\n`IndexedJoiner.join_many` stays, `QGramIndex.rows_for(vid)`\n"
            "and `IndexedJoiner._composite_argmin(columns,\nindexes, probe)` went;"
            " prose naming KernelBackend.gone is not a code span.\n"
            "```python\nKernelBackend.edit_distance_codes(q, codes, lengths, 2)\n```\n"
        )
        skill = fake_repo / check_docs.VERIFY_SKILL
        skill.parent.mkdir(parents=True)
        skill.write_text("compare with `EditDistanceJoiner.join_composite`\n")
        files = check_docs.collect_doc_files(fake_repo) + [skill]
        assert check_docs.check_documented_members(files, fake_repo) == [
            "docs/operations.md: names IndexedJoiner._composite_argmin, which "
            "does not exist",
            "docs/operations.md: names KernelBackend.edit_distance_codes, which "
            "does not exist",
            "docs/operations.md: names QGramIndex.rows_for, which does not exist",
            ".claude/skills/verify/SKILL.md: names "
            "EditDistanceJoiner.join_composite, which does not exist",
        ]

    def test_vanished_decode_member_fails(self, fake_repo):
        # Every public class defined in a module of the repro package
        # owns its members; a member may be a method, a class attribute
        # (a dataclass field) or something __init__ sets on self.  A
        # class deleted from its module stops being an owner, and the
        # owners do not depend on what any __init__ re-exports.
        assert {
            "DTTPipeline",
            "EditDistanceJoiner",
            "JoinConfig",
            "EngineStats",
            "DecodeSession",
            "IndexedJoiner",
            "IndexCache",
            "JoinStats",
            "KernelBackend",
            "QGramIndex",
            "KVCache",
            "MultiHeadAttention",
            "DecoderBlock",
            "Seq2SeqTransformer",
            "TransformService",
            "LatencyHistogram",
            "Vocabulary",
            "Stopwatch",
        } <= set(check_docs.member_owners())
        (fake_repo / "docs" / "architecture.md").write_text(
            "# Arch\n`EngineStats.row_steps` and `KVCache.append` and\n"
            "`MultiHeadAttention._cache` and `JoinConfig.max_distance` and\n"
            "`DTTPipeline.last_engine_stats` and `JoinStats.kernel_pairs` stay;\n"
            "`DTTPipeline.ensemble`, `EngineStats.bucket_width`,\n"
            "`JoinStats.workers`, `JoinConfig.auto_threshold`,\n"
            "`JoinConfig.n_workers`, `JoinStats.n_workers`,\n"
            "`MultiHeadAttention.attend_cached`, `DecoderBlock.step_3d`,\n"
            "`DecodeSession.memory_mask` and `Seq2SeqTransformer.step` went;\n"
            "`TransformService.last_join_stats` stays, and\n"
            "`TransformService.join_stats_snapshot`, `LatencyHistogram.quantile`,\n"
            "`Vocabulary.byte_id` and `Stopwatch.gone` went;\n"
            "`_Workload.rows` is nobody's business here.\n"
        )
        files = check_docs.collect_doc_files(fake_repo)
        assert check_docs.check_documented_members(files, fake_repo) == [
            f"docs/architecture.md: names {member}, which does not exist"
            for member in (
                "DTTPipeline.ensemble",
                "DecodeSession.memory_mask",
                "DecoderBlock.step_3d",
                "EngineStats.bucket_width",
                "JoinConfig.auto_threshold",
                "JoinConfig.n_workers",
                "JoinStats.n_workers",
                "JoinStats.workers",
                "LatencyHistogram.quantile",
                "MultiHeadAttention.attend_cached",
                "Seq2SeqTransformer.step",
                "Stopwatch.gone",
                "TransformService.join_stats_snapshot",
                "Vocabulary.byte_id",
            )
        ]

    def test_stale_and_undocumented_environment_variables_fail(self, fake_repo):
        package = fake_repo / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "module.py").write_text(
            'import os\nos.environ.get("REPRO_KEPT")\n'
            'os.environ.get("REPRO_SECRET_KNOB")\n'
        )
        (fake_repo / "docs" / "operations.md").write_text(
            "# Ops\n| `REPRO_KEPT` | stays |\n| `REPRO_GONE_DIR` | went |\n"
        )
        (fake_repo / "README.md").write_text(
            "# fake\nthe `REPRO_*` variables; `REPRO_SECRET_KNOB` only here\n"
        )
        files = check_docs.collect_doc_files(fake_repo)
        assert check_docs.check_environment_variables(files, fake_repo) == [
            "docs/operations.md: names environment variable REPRO_GONE_DIR, "
            "which nothing in src/ reads",
            "docs/operations.md: environment variable REPRO_SECRET_KNOB is "
            "read in src/ but not documented",
        ]

    def test_numbered_roadmap_citation_fails(self, fake_repo):
        # A citation by number goes stale at the next renumbering; the
        # file name and a citation by subject do not.
        (fake_repo / "docs" / "operations.md").write_text(
            "# Ops\nsee ROADMAP.md and the ROADMAP item on the q-gram index;\n"
            "not (ROADMAP 3), ROADMAP\nitem 4 or ROADMAP 7a.\n"
        )
        (fake_repo / "README.md").write_text("# fake\nROADMAP item 12 next\n")
        files = check_docs.collect_doc_files(fake_repo)
        hint = "ROADMAP items are renumbered, so name the item's subject"
        assert check_docs.check_roadmap_citations(files, fake_repo) == [
            f"README.md: cites 'ROADMAP item 12'; {hint}",
            f"docs/operations.md: cites 'ROADMAP 3'; {hint}",
            f"docs/operations.md: cites 'ROADMAP item 4'; {hint}",
            f"docs/operations.md: cites 'ROADMAP 7a'; {hint}",
        ]

    def test_undocumented_endpoint_fails(self, fake_repo):
        # The fixture's http_api.md mentions no endpoint at all, so
        # every real PUBLIC_ENDPOINTS entry must be reported.
        from repro.serve.http import PUBLIC_ENDPOINTS

        problems = check_docs.check_endpoint_coverage(fake_repo)
        assert len(problems) == len(PUBLIC_ENDPOINTS)
        for endpoint in PUBLIC_ENDPOINTS:
            assert any(endpoint in p for p in problems)


class TestEndpointRegistry:
    def test_every_public_endpoint_documented_with_examples(self):
        from repro.serve.http import PUBLIC_ENDPOINTS

        text = (REPO_ROOT / "docs" / "http_api.md").read_text()
        for endpoint in PUBLIC_ENDPOINTS:
            assert endpoint in text
