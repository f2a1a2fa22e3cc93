"""Pin the cache's view of every checked-in program.

``normalized_source`` is the source half of every ``cell_key``, corpus
signature and served cache entry.  The SHA-256 of its output for each
suite kernel, each corpus reproducer and each example program is pinned
in ``tests/golden/normalized_source_sha256.json``.  A lexer change that
alters any token's kind or text for these programs fails here, before it
silently invalidates caches and renames corpus entries.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner.cache import normalized_source
from repro.workloads import WORKLOADS

TESTS = Path(__file__).parent
ROOT = TESTS.parent
PINNED = json.loads((TESTS / "golden" / "normalized_source_sha256.json").read_text())


def _sources():
    found = {f"suite/{w.name}": w.source for w in WORKLOADS}
    for corpus in ("corpus", "batch_corpus", "timing_corpus"):
        for path in sorted((TESTS / corpus).rglob("*.json")):
            name = path.relative_to(TESTS).as_posix()
            found[name] = json.loads(path.read_text())["source"]
    for path in sorted((ROOT / "examples").glob("*.c")):
        found[path.relative_to(ROOT).as_posix()] = path.read_text()
    return found


SOURCES = _sources()


def _digest(source):
    return hashlib.sha256(normalized_source(source).encode()).hexdigest()


def test_every_suite_kernel_and_corpus_source_is_pinned():
    required = {name for name in SOURCES
                if name.startswith(("suite/", "corpus/"))}
    assert required <= set(PINNED), sorted(required - set(PINNED))
    assert set(PINNED) <= set(SOURCES), sorted(set(PINNED) - set(SOURCES))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_normalized_source_digest_is_stable(name):
    source = SOURCES[name]
    assert not normalized_source(source).startswith("raw:"), name
    assert _digest(source) == PINNED[name]


def test_cell_keys_lex_each_distinct_source_once(monkeypatch):
    import repro.lang.lexer as lexer
    from repro.runner import cell_key, suite_tasks

    lexed = []
    original = lexer.tokenize

    def counting(source, *args, **kwargs):
        lexed.append(source)
        return original(source, *args, **kwargs)

    monkeypatch.setattr(lexer, "tokenize", counting)
    normalized_source.cache_clear()
    tasks = suite_tasks()
    keys = [cell_key(task) for task in tasks]
    assert len(lexed) == len({task.source for task in tasks}) == len(WORKLOADS)
    assert len(tasks) == 10 * len(WORKLOADS)
    # Memoized keys equal keys computed from a cold memo.
    normalized_source.cache_clear()
    assert [cell_key(task) for task in tasks] == keys
    assert len(lexed) == 2 * len(WORKLOADS)


def test_the_normalization_memo_is_bounded():
    from repro.runner.cache import NORMALIZED_CAPACITY

    normalized_source.cache_clear()
    for n in range(NORMALIZED_CAPACITY + 10):
        normalized_source(f"int main() {{ return {n}; }}")
    assert normalized_source.cache_info().currsize == NORMALIZED_CAPACITY
