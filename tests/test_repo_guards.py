"""The "one X" guards: patterns that mark a deleted duplicate, and call
sites that must stay single.

Each row is (pattern, paths, reason): the regular expression
``pattern`` must match no line of the files under ``paths`` (walked
recursively, relative to the repository root) — except in ``sites``,
the files that own the one allowed line each.  A row with
``names=True`` matches the files' paths instead of their lines.  This
file is never scanned: it spells every pattern out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve()
SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".ruff_cache",
        ".mypy_cache"}


@dataclass(frozen=True)
class Guard:
    pattern: str
    paths: tuple[str, ...]
    reason: str
    #: files holding the one allowed matching line each
    sites: tuple[str, ...] = ()
    #: only files whose name matches this glob are scanned
    glob: str = "*"
    #: match the files' repository-relative paths, not their lines
    names: bool = False


EVERYWHERE = ("src", "tests", "examples", "docs", "README.md")

GUARDS = (
    *(
        Guard(
            re.escape(call),
            ("src/repro/service",),
            "one serving core: the ladder, the retry loop, the stats "
            "assembly and the flight write have one call site each",
            sites=("src/repro/service/core.py",),
            glob="*.py",
        )
        for call in (
            "recorder.record(",
            ".allows(attempt",
            "CacheStats(",
            'note_cache("miss")',
        )
    ),
    Guard(
        r"sqlite3\.connect\(",
        ("src", "benchmarks", "examples"),
        "one SQLite connection site: SQLiteBackend sets "
        "automatic_index=OFF on every connection",
        sites=("src/repro/sql/backend.py",),
        glob="*.py",
    ),
    Guard(
        r"^BENCH_[^/]*\.json$",
        (".",),
        "one benchmark of record (benchmarks/e2e): no BENCH_*.json "
        "artifacts at the repository root",
        names=True,
    ),
    Guard(
        r"batch_window",
        ("src", "tests", "docs"),
        "the front door drains when a slot frees, with no intake timer",
    ),
    Guard(
        r"AdmissionGate\(",
        ("src/repro/service/frontdoor.py",),
        "FrontDoor bounds concurrent batches with its one semaphore",
    ),
    Guard(
        r"class QueryService|outermost|_component\(",
        ("src/repro/service",),
        "one serving class: QueryService, ServingBoundary.outermost and "
        "ShardedService._component are gone",
        glob="*.py",
    ),
    Guard(
        r"QueryService\(",
        EVERYWHERE,
        "serve through repro.connect() or ShardedService(Collection(1))",
    ),
    Guard(
        r"procpool|ProcessShardExecutor|working_set_bytes|shard_payload"
        r"|WorkerCrash",
        EVERYWHERE,
        "the process executor is gone: every shard plan runs on its "
        "shard's StoreExecutor",
    ),
    Guard(
        r"executor=",
        ("src/repro/api.py",),
        "repro.connect() takes no executor= (removed in 3.0)",
    ),
    Guard(
        r"_sharded_main|_single_target|_sharded_target|collection_query_mix",
        ("src", "tests", "docs", "README.md"),
        "one serving stack: the CLI and the storm build "
        "ShardedService(Collection(shards)) for every shard count",
    ),
    Guard(
        r"shards (>|==) 1",
        ("src/repro/cli.py", "src/repro/workloads/soak.py"),
        "no shard-count branch in the CLI or the storm",
    ),
    Guard(
        r'^version\s*=\s*"',
        ("pyproject.toml",),
        "one version source: setuptools reads repro.__version__",
    ),
    Guard(
        r"faults\.campaign|run_chaos_campaign|ChaosConfig"
        r"|--queries-per-thread",
        ("src", "examples", "benchmarks", ".github", "README.md"),
        "one fault storm: the closed-loop chaos campaign is folded into "
        "repro.workloads.soak and serve-bench has one mode",
    ),
)


def scanned(guard: Guard) -> list[Path]:
    files: list[Path] = []
    for name in guard.paths:
        path = ROOT / name
        candidates = [path] if path.is_file() else sorted(path.rglob(guard.glob))
        files.extend(
            found
            for found in candidates
            if found.is_file()
            and found != SELF
            and not SKIP & set(found.relative_to(ROOT).parts)
        )
    return files


def hits(guard: Guard) -> list[tuple[str, str]]:
    """(file, line) for every match of the row's pattern."""
    pattern = re.compile(guard.pattern)
    found: list[tuple[str, str]] = []
    for path in scanned(guard):
        relative = path.relative_to(ROOT).as_posix()
        if guard.names:
            if pattern.search(relative):
                found.append((relative, relative))
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        found.extend(
            (relative, line) for line in text.splitlines()
            if pattern.search(line)
        )
    return found


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.pattern)
def test_guard(guard: Guard) -> None:
    found = sorted(hits(guard))
    assert [site for site, _ in found] == sorted(guard.sites), (
        f"{guard.reason}; matches of {guard.pattern!r}: {found}"
    )
