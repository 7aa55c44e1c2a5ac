"""The content-addressed sweep cache: keys, invalidation, byte identity."""

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro.parallel.cache as cache_mod
from repro.api import ExperimentSpec, run_experiment
from repro.parallel import Executor, SweepCache, SweepPlan, values
from repro.parallel.cache import canonical_payload


def _square(x):
    return x * x


def _count_calls(x):
    # Touches the filesystem so a cached hit (which must NOT run the
    # cell) is observable: the marker file is only created by a run.
    marker, value = x
    with open(marker, "a") as fh:
        fh.write("ran\n")
    return value * value


def _runs(marker):
    if not os.path.exists(marker):
        return 0
    with open(marker) as fh:
        return len(fh.readlines())


# --- key derivation ----------------------------------------------------------


def test_canonical_payload_tags_tuples_and_lists_apart():
    assert canonical_payload((1, 2)) != canonical_payload([1, 2])


def test_canonical_payload_tags_dataclass_types_apart():
    @dataclasses.dataclass
    class A:
        x: int = 1

    @dataclasses.dataclass
    class B:
        x: int = 1

    assert canonical_payload(A()) != canonical_payload(B())


def test_uncacheable_payloads_yield_no_key(tmp_path):
    cache = SweepCache(str(tmp_path))
    assert cache.key_for(_square, {1: "non-str key"}) is None
    assert cache.key_for(_square, {"fn": _square}) is None
    assert cache.key_for(_square, {"s": {1, 2}}) is None


def test_key_changes_with_spec_seed_and_fn(tmp_path):
    cache = SweepCache(str(tmp_path))
    base = cache.key_for(_square, ("fig5", 0))
    assert base is not None
    assert cache.key_for(_square, ("fig7", 0)) != base   # spec change
    assert cache.key_for(_square, ("fig5", 1)) != base   # seed change
    assert cache.key_for(_count_calls, ("fig5", 0)) != base  # fn change


def test_key_changes_when_a_source_file_changes(tmp_path):
    # The tree digest is over file contents: the same tree with one
    # byte changed must hash differently (a "touched source" means a
    # whole-store miss).
    (tmp_path / "mod.py").write_text("X = 1\n")
    before = cache_mod._digest_tree(str(tmp_path)).hexdigest()
    (tmp_path / "mod.py").write_text("X = 2\n")
    after = cache_mod._digest_tree(str(tmp_path)).hexdigest()
    assert before != after


def test_key_changes_when_a_repro_env_knob_flips(tmp_path, monkeypatch):
    cache = SweepCache(str(tmp_path))
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    plain = cache.key_for(_square, 3)
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    simsan = cache.key_for(_square, 3)
    assert plain != simsan
    # The cache's own placement knob must NOT participate in the key.
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache.key_for(_square, 3) == plain


def test_forced_miss_when_code_digest_changes(tmp_path, monkeypatch):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")
    payload = (marker, 7)
    assert values(Executor(plan).run(_count_calls, [payload])) == [49]
    assert _runs(marker) == 1
    # Same code: a hit, no re-run.
    assert values(Executor(plan).run(_count_calls, [payload])) == [49]
    assert _runs(marker) == 1
    # "Touch a source file": the tree digest memo changes, so the old
    # entry's address no longer matches and the cell re-runs.
    monkeypatch.setattr(cache_mod, "_CODE_DIGEST", "edited-tree-digest")
    assert values(Executor(plan).run(_count_calls, [payload])) == [49]
    assert _runs(marker) == 2


# --- hit/miss behaviour ------------------------------------------------------


def test_hit_skips_the_run_and_returns_identical_value(tmp_path):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")

    cold_exec = Executor(plan)
    cold = cold_exec.run(_count_calls, [(marker, i) for i in range(3)])
    assert _runs(marker) == 3
    assert cold_exec.stats.cache_hits == 0
    assert cold_exec.stats.cache_misses == 3
    assert all(not o.cached for o in cold)

    warm_exec = Executor(plan)
    warm = warm_exec.run(_count_calls, [(marker, i) for i in range(3)])
    assert _runs(marker) == 3  # nothing re-ran
    assert warm_exec.stats.cache_hits == 3
    assert warm_exec.stats.cache_misses == 0
    assert all(o.cached and o.worker == -1 for o in warm)
    assert [o.value for o in warm] == [o.value for o in cold]


def test_spec_or_seed_change_misses(tmp_path):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")
    values(Executor(plan).run(_count_calls, [(marker, 1)]))
    assert _runs(marker) == 1
    values(Executor(plan).run(_count_calls, [(marker, 2)]))  # "seed" change
    assert _runs(marker) == 2
    other_marker = str(tmp_path / "other-runs")                # "spec" change
    values(Executor(plan).run(_count_calls, [(other_marker, 1)]))
    assert _runs(other_marker) == 1


def test_errors_are_not_cached(tmp_path):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    outcomes = Executor(plan).run(_fail, [1])
    assert outcomes[0].status == "error"
    # The failure must re-run next time, not be replayed from the store.
    outcomes = Executor(plan).run(_fail, [1])
    assert outcomes[0].status == "error"
    assert not outcomes[0].cached


def _fail(x):
    raise ValueError("no")


def test_corrupt_entry_is_a_miss_with_warning(tmp_path):
    warnings = []
    cache = SweepCache(str(tmp_path), warn=warnings.append)
    key = cache.key_for(_square, 5)
    cache.put(key, 25)
    hit, value = cache.get(key)
    assert (hit, value) == (True, 25)

    # Torn entry: garbage bytes under the final name.
    path = cache._entry_path(key)
    with open(path, "wb") as fh:
        fh.write(b"RSC1" + b"\x00" * 10)
    hit, value = cache.get(key)
    assert not hit
    assert len(warnings) == 1
    assert "corrupt" in warnings[0]
    assert not os.path.exists(path)  # healed: next put rewrites it

    # Bad magic is equally a miss.
    cache.put(key, 25)
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 40)
    hit, _value = cache.get(key)
    assert not hit
    assert cache.errors == 2


def test_put_is_append_only(tmp_path):
    cache = SweepCache(str(tmp_path))
    key = cache.key_for(_square, 5)
    cache.put(key, 25)
    cache.put(key, 999)  # no-op: entries are immutable
    assert cache.get(key) == (True, 25)
    assert cache.puts == 1


def test_unwritable_store_keeps_the_sweep(tmp_path):
    # A store root beneath a regular file cannot be created: every put
    # fails with an OSError.  The sweep still returns every value, and
    # each lost entry is a warning and an error, not an exception.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    warnings = []
    cache = SweepCache(str(blocker / "store"), warn=warnings.append)
    executor = Executor(SweepPlan(max_workers=1), cache=cache)
    assert values(executor.run(_square, range(3))) == [0, 1, 4]
    assert cache.puts == 0
    assert cache.misses == 3
    assert cache.errors == 3
    assert len(warnings) == 3
    assert all("not written" in w for w in warnings)


def test_interrupted_put_removes_its_temp_file(tmp_path, monkeypatch):
    # Only an OSError is swallowed: Ctrl-C mid-put still propagates,
    # after the half-written temp file is removed.
    cache = SweepCache(str(tmp_path))
    key = cache.key_for(_square, 5)

    def _interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cache_mod.os, "replace", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        cache.put(key, 25)
    monkeypatch.undo()
    assert list(tmp_path.rglob("*.tmp")) == []
    assert (cache.puts, cache.errors) == (0, 0)


# --- cached-vs-cold byte identity (the determinism gate) --------------------

SECTIONS = ("fig5", "table4", "fig7")
SEEDS = (0, 1)


def test_cached_experiments_are_byte_identical_to_cold(tmp_path):
    payloads = [
        ExperimentSpec(name=name, seed=seed)
        for name in SECTIONS for seed in SEEDS
    ]
    cold = [run_experiment(p).canonical_json() for p in payloads]

    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    miss_exec = Executor(plan)
    first = values(miss_exec.run(run_experiment, payloads))
    assert miss_exec.stats.cache_misses == len(payloads)
    assert [r.canonical_json() for r in first] == cold

    hit_exec = Executor(plan)
    second = values(hit_exec.run(run_experiment, payloads))
    assert hit_exec.stats.cache_hits == len(payloads)
    assert [r.canonical_json() for r in second] == cold


def test_cached_soak_journals_are_byte_identical_to_cold(tmp_path):
    from repro.chaos.soak import run_soak

    seeds = [0, 1]
    cold = run_soak(seeds, horizon_us=200_000)
    cached_cold = run_soak(
        seeds, horizon_us=200_000, cache=True, cache_dir=str(tmp_path)
    )
    warm = run_soak(
        seeds, horizon_us=200_000, cache=True, cache_dir=str(tmp_path)
    )
    assert [r.journal for r in cached_cold] == [r.journal for r in cold]
    assert [r.journal for r in warm] == [r.journal for r in cold]
    assert len(list(tmp_path.glob("objects/*/*.bin"))) == len(seeds)


def test_cached_fuzz_campaign_writes_the_cold_corpus_bytes(tmp_path):
    from repro.fuzz.campaign import CampaignConfig, run_campaign

    corpora, reports = [], []
    for run in ("cold", "warm"):
        corpus = tmp_path / f"{run}.jsonl"
        reports.append(run_campaign(CampaignConfig(
            seeds=range(4), horizon_us=400_000, cache=True,
            cache_dir=str(tmp_path / "cache"), corpus_path=str(corpus),
        )))
        corpora.append(corpus.read_bytes())
    assert corpora[0] == corpora[1]
    assert [r.cache_hits for r in reports] == [0, 4]


def _sweep(sections, seed=0, cache=None):
    """One serial sweep: each section's canonical JSON, plus its stats."""
    executor = Executor(SweepPlan(max_workers=1), cache=cache)
    payloads = [ExperimentSpec(name=name, seed=seed) for name in sections]
    results = values(executor.run(run_experiment, payloads))
    return [r.canonical_json() for r in results], executor.stats


#: Two cheap experiments keep the cold sweeps short while still
#: measuring a real workload.
CHEAP = ("fig5", "table4")


def test_warm_sweep_answers_every_cell_from_the_cache(tmp_path):
    cache = SweepCache(str(tmp_path))
    cold, cold_stats = _sweep(CHEAP, cache=cache)
    warm, warm_stats = _sweep(CHEAP, cache=cache)
    assert cold_stats.cache_hits == 0
    assert warm_stats.cache_hits == len(CHEAP)
    assert warm == cold
    # A warm sweep skips all compute, so it clears 1.5x by a wide margin.
    assert warm_stats.wall_s * 1.5 <= cold_stats.wall_s


def test_uncached_cold_and_warm_sweeps_agree(tmp_path):
    plain, _ = _sweep(CHEAP)
    cache = SweepCache(str(tmp_path))
    cold, _ = _sweep(CHEAP, cache=cache)
    warm, _ = _sweep(CHEAP, cache=cache)
    assert plain == cold == warm


def test_warm_fleet_sweeps_hit_the_cache_serially_and_in_parallel(tmp_path):
    from repro.fleet.__main__ import smoke_spec
    from repro.fleet.runner import run_fleet_record

    payloads = [smoke_spec(scheme=s, seed=0).to_dict() for s in ("smp", "piso")]
    cache = SweepCache(str(tmp_path))

    def serial_then_parallel():
        executors = [Executor(SweepPlan(max_workers=n), cache=cache)
                     for n in (1, 2)]
        records = [values(e.run(run_fleet_record, payloads))
                   for e in executors]
        return records, sum(e.stats.cache_hits for e in executors)

    (cold_serial, cold_parallel), _ = serial_then_parallel()
    (warm_serial, warm_parallel), warm_hits = serial_then_parallel()
    assert cold_parallel == cold_serial
    assert warm_serial == warm_parallel == cold_serial
    assert warm_hits == 2 * len(payloads)


def test_seed_change_reuses_no_entry(tmp_path):
    cache = SweepCache(str(tmp_path))
    _sweep(CHEAP, seed=0, cache=cache)
    _, stats = _sweep(CHEAP, seed=1, cache=cache)
    assert stats.cache_hits == 0


@pytest.mark.parametrize("simsan", ["0", "1"])
def test_warm_equals_cold_within_each_simsan_namespace(
    tmp_path, monkeypatch, simsan,
):
    monkeypatch.setenv("REPRO_SIMSAN", simsan)
    cache = SweepCache(str(tmp_path))
    cold, _ = _sweep(["fig5"], cache=cache)
    warm, stats = _sweep(["fig5"], cache=cache)
    assert stats.cache_hits == 1
    assert warm == cold


def test_cli_warm_run_writes_the_cold_run_bytes(tmp_path):
    from repro.experiments.runner import main

    cache_dir = tmp_path / "cache"
    written = []
    for run in ("cold", "warm"):
        path = tmp_path / f"{run}.json"
        assert main(["fig5", "table4", "--cache", "--cache-dir",
                     str(cache_dir), "--json", str(path)]) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1]
    # The warm run found the cold run's two entries and stored no more.
    assert len(list(cache_dir.glob("objects/*/*.bin"))) == 2


# --- the whole-tree code digest ----------------------------------------------


def test_interpreter_tag_participates_in_every_key(tmp_path, monkeypatch):
    # Entries are pickles: a different implementation/feature-version
    # pair must land at a different address.
    cache = SweepCache(str(tmp_path))
    key = cache.key_for(_square, 3)
    digest = cache_mod.code_digest()
    monkeypatch.setattr(cache_mod, "_INTERP_TAG", "otherpython-9.9")
    assert cache.key_for(_square, 3) != key
    assert cache_mod.code_digest() != digest


def test_env_knobs_fold_into_the_code_digest(monkeypatch):
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    plain = cache_mod.code_digest()
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    assert cache_mod.code_digest() != plain
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    assert cache_mod.code_digest() == plain


def _run_script(script, pythonpath, cwd):
    """Run ``script`` in a fresh interpreter, with ``cwd/cache`` as its
    argument; returns its last stdout line parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cwd / "cache")],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: Derives the fig5 seed-0 cache key in a fresh interpreter, so every
#: source file is read from disk as it is now.
_KEY_SCRIPT = """
import json, sys
import repro
from repro.api import ExperimentSpec, run_experiment
from repro.parallel import SweepCache
key = SweepCache(sys.argv[1]).key_for(run_experiment, ExperimentSpec("fig5", 0))
print(json.dumps({"package": repro.__file__, "key": key}))
"""


def test_real_edits_to_any_py_file_change_the_key(tmp_path):
    import repro

    copy = tmp_path / "src"
    package = copy / "repro"
    shutil.copytree(
        os.path.dirname(os.path.abspath(repro.__file__)), package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )

    def derive_key():
        derived = _run_script(_KEY_SCRIPT, str(copy), tmp_path)
        assert derived["package"].startswith(str(copy))
        return derived["key"]

    untouched = derive_key()
    # The linter is no simulation code, but it is a .py file of the tree.
    cli = package / "lint" / "cli.py"
    original = cli.read_bytes()
    cli.write_bytes(original + b"\n# an edit to the linter\n")
    assert derive_key() != untouched
    cli.write_bytes(original)
    assert derive_key() == untouched
    spu = package / "core" / "spu.py"
    original = spu.read_bytes()
    spu.write_bytes(original + b"\n# an edit to the simulator\n")
    assert derive_key() != untouched
    spu.write_bytes(original)
    (package / "NOTES.txt").write_text("not source\n")
    assert derive_key() == untouched


#: Runs a cached fig5 sweep twice in a fresh interpreter and reports
#: which linter modules the process loaded along the way.
_NO_LINT_SCRIPT = """
import json, sys
from repro.api import ExperimentSpec, run_experiment
from repro.parallel import Executor, SweepPlan
plan = SweepPlan(max_workers=1, cache=True, cache_dir=sys.argv[1])
hits = []
for _ in range(2):
    executor = Executor(plan)
    executor.run(run_experiment, [ExperimentSpec("fig5", 0)])
    hits.append(executor.stats.cache_hits)
lint = sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "lint"])
print(json.dumps({"hits": hits, "lint": lint}))
"""


def test_cached_sweeps_never_load_the_linter(tmp_path):
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    report = _run_script(_NO_LINT_SCRIPT, src, tmp_path)
    assert report == {"hits": [0, 1], "lint": []}


# --- callables the cache cannot name -----------------------------------------


def _make_scaler(factor):
    def scale(x):
        return x * factor
    return scale


class _Offset:
    def __init__(self, offset):
        self.offset = offset

    def __call__(self, x):
        return x + self.offset


def _add(offset, x):
    return x + offset


@pytest.mark.parametrize("first, second, expected", [
    (_make_scaler(2), _make_scaler(3), ([6], [9])),
    (lambda x: x + 1, lambda x: x + 100, ([4], [103])),
    (functools.partial(_add, 1), functools.partial(_add, 100), ([4], [103])),
    (_Offset(1), _Offset(100), ([4], [103])),
], ids=["closure", "lambda", "partial", "instance"])
def test_unnameable_callables_run_uncached(tmp_path, first, second, expected):
    # module:qualname does not name these, so two of them must never
    # share an entry: each runs uncached and returns its own value.
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    assert SweepCache(str(tmp_path)).key_for(first, 3) is None
    results = []
    for fn in (first, second):
        executor = Executor(plan)
        results.append(values(executor.run(fn, [3])))
        assert executor.stats.cache_hits == 0
    assert tuple(results) == expected
    assert not list(tmp_path.glob("objects/*/*.bin"))


def test_simsan_entries_never_alias_plain_entries(tmp_path, monkeypatch):
    # REPRO_SIMSAN participates in the code digest, so a SIMSAN run and
    # a plain run of the same spec live at different addresses.
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    values(Executor(plan).run(_count_calls, [(marker, 3)]))
    assert _runs(marker) == 1
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    values(Executor(plan).run(_count_calls, [(marker, 3)]))
    assert _runs(marker) == 2  # miss: different knob, different address
    values(Executor(plan).run(_count_calls, [(marker, 3)]))
    assert _runs(marker) == 2  # hit within the SIMSAN namespace
