"""Tier-1 tests for the invariant analyzer (``repro.analysis``).

Each rule gets at least one positive (flagged) and one negative (clean)
code sample, the baseline workflow is exercised end to end, the CLI's exit
codes are pinned, and -- the acceptance gate -- the repo's own ``src/repro``
tree must be clean modulo the checked-in ``analysis_baseline.json`` with no
unused baseline entries.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisEngine,
    Finding,
    analyze_source,
    apply_baseline,
    default_rules,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(source: str, *, module: str = "repro.core.sample") -> list:
    return analyze_source(textwrap.dedent(source), module=module,
                          path=f"{module.replace('.', '/')}.py")


def rule_ids(findings) -> list:
    return sorted({f.rule_id for f in findings})


# --------------------------------------------------------------------------- #
# REP001: unseeded RNG
# --------------------------------------------------------------------------- #
class TestRep001UnseededRng:
    def test_flags_global_generator_calls(self):
        findings = run("""
            import numpy as np

            def jitter(x):
                return x + np.random.normal(0.0, 0.1)
        """)
        assert rule_ids(findings) == ["REP001"]
        assert "global generator" in findings[0].message

    def test_flags_default_rng_without_seed(self):
        findings = run("""
            import numpy as np
            from numpy.random import default_rng

            def make():
                a = np.random.default_rng()
                b = default_rng()
                return a, b
        """)
        assert [f.rule_id for f in findings] == ["REP001", "REP001"]

    def test_flags_global_seed_call(self):
        findings = run("""
            import numpy as np
            np.random.seed(0)
        """)
        assert rule_ids(findings) == ["REP001"]

    def test_seeded_construction_is_clean(self):
        findings = run("""
            import numpy as np
            from numpy.random import default_rng

            def make(seed):
                gen = np.random.Generator(np.random.PCG64(seed))
                return np.random.default_rng(seed), default_rng(7), gen
        """)
        assert findings == []

    def test_test_modules_are_exempt(self):
        findings = run("""
            import numpy as np
            np.random.seed(0)
        """, module="tests.test_sample")
        assert findings == []


# --------------------------------------------------------------------------- #
# REP002: staging hygiene
# --------------------------------------------------------------------------- #
class TestRep002StagingHygiene:
    def test_flags_creation_without_finally(self):
        findings = run("""
            import shutil
            import tempfile

            def leaky(store):
                staging = tempfile.mkdtemp(prefix="repro-sweep-")
                store.save(staging)
                run_workers(staging)
                shutil.rmtree(staging)
        """)
        # The rmtree on the success path does not count: an exception in
        # between would leave the directory behind.
        assert rule_ids(findings) == ["REP002"]
        assert "`mkdtemp()` in `leaky`" in findings[0].message

    def test_finally_rmtree_is_clean(self):
        findings = run("""
            import shutil
            from tempfile import mkdtemp

            def tidy(store):
                staging = None
                try:
                    staging = mkdtemp()
                    store.save(staging)
                    return run_workers(staging)
                finally:
                    if staging is not None:
                        shutil.rmtree(staging, ignore_errors=True)
        """)
        assert findings == []

    def test_returning_the_path_transfers_ownership(self):
        findings = run("""
            import tempfile
            from pathlib import Path

            def factory_direct():
                return tempfile.mkdtemp()

            def factory_bound(store):
                workdir = Path(tempfile.mkdtemp(prefix="stage-"))
                store.save(workdir)
                return workdir
        """)
        assert findings == []

    def test_cleanup_only_in_except_is_flagged(self):
        findings = run("""
            import shutil
            import tempfile

            def half_tidy(store):
                staging = tempfile.mkdtemp()
                try:
                    store.save(staging)
                except OSError:
                    shutil.rmtree(staging)
                    raise
                results = run_workers(staging)
                return results
        """)
        # The except handler never runs on the success path, which leaks.
        assert rule_ids(findings) == ["REP002"]
        assert "`half_tidy`" in findings[0].message

    def test_nested_functions_are_judged_on_their_own(self):
        findings = run("""
            import shutil
            import tempfile

            def outer_leaks(store):
                staging = tempfile.mkdtemp()
                store.save(staging)

                def cleanup():
                    try:
                        pass
                    finally:
                        shutil.rmtree(staging)

                register(cleanup)

            def outer_tidy(store):
                def stage():
                    return tempfile.mkdtemp()

                staging = stage()
                try:
                    store.save(staging)
                finally:
                    shutil.rmtree(staging)
        """)
        # The nested finally does not clean `outer_leaks`; the nested
        # `stage` hands its path to `outer_tidy`, which removes it.
        assert rule_ids(findings) == ["REP002"]
        assert len(findings) == 1
        assert "`outer_leaks`" in findings[0].message

    def test_temporary_directory_is_not_a_creation(self):
        findings = run("""
            import tempfile

            def scoped(store):
                with tempfile.TemporaryDirectory(prefix="stage-") as staging:
                    store.save(staging)
                    results = run_workers(staging)
                return results
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# REP003: hot-path copies
# --------------------------------------------------------------------------- #
class TestRep003HotPathCopy:
    def test_flags_copies_under_pragma(self):
        findings = run("""
            # repro: hot-path
            import numpy as np

            def gather(buffer, index):
                rows = index.tolist()
                dense = np.ascontiguousarray(buffer)
                return dense.copy(), rows
        """)
        assert [f.rule_id for f in findings] == ["REP003"] * 3
        assert any(".tolist()" in f.message for f in findings)
        assert any("np.ascontiguousarray" in f.message for f in findings)
        assert all("(in `gather`)" in f.message for f in findings)

    def test_module_without_pragma_is_exempt(self):
        findings = run("""
            def gather(buffer, index):
                return buffer.copy(), index.tolist()
        """)
        assert findings == []

    def test_pragma_module_without_copies_is_clean(self):
        findings = run("""
            # repro: hot-path
            def gather(buffer, lo, hi):
                return buffer[lo:hi]
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# REP004: wall-clock reads
# --------------------------------------------------------------------------- #
class TestRep004WallClock:
    def test_flags_clock_reads(self):
        findings = run("""
            import time
            from datetime import datetime

            def stamp(result):
                result["at"] = time.time()
                result["when"] = datetime.now()
                result["took"] = time.perf_counter()
                return result
        """)
        assert [f.rule_id for f in findings] == ["REP004"] * 3
        assert any("`time.time()`" in f.message for f in findings)
        assert any("`datetime.now()`" in f.message for f in findings)

    def test_benchmarking_harness_is_allowed(self):
        findings = run("""
            import time

            def measure(fn):
                begin = time.perf_counter()
                fn()
                return time.perf_counter() - begin
        """, module="repro.simulator.benchmarking")
        assert findings == []

    def test_non_clock_attributes_are_clean(self):
        findings = run("""
            import time

            def wait():
                time.sleep(0.0)
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# REP006: ledger direct writes
# --------------------------------------------------------------------------- #
class TestRep006LedgerWrite:
    def test_flags_writes_outside_mutators(self):
        findings = run("""
            def rebalance(ledger, row):
                ledger.demand[:, row, :] = 0.0
                ledger.pa_memory[row] += 1.0
                ledger.demand_peak = None
        """)
        assert [f.rule_id for f in findings] == ["REP006"] * 3
        assert any("`.demand`" in f.message for f in findings)
        assert any("`.pa_memory`" in f.message for f in findings)
        assert any("`.demand_peak`" in f.message for f in findings)

    def test_sanctioned_mutators_are_clean(self):
        findings = run("""
            class ClusterLedger:
                def __init__(self):
                    self.demand = None
                    self.demand_peak = None

                def commit_row(self, row):
                    self.demand[:, row, :] += 1.0
                    self._refresh_row_caches(row)

                def release_row(self, row):
                    self.va_demand[row] = 0.0

                def _refresh_row_caches(self, row):
                    self.demand_peak[:, row] = self.demand[:, row, :].max(axis=1)
                    self.va_peak[row] = self.va_demand[row].max()
        """)
        assert findings == []

    def test_unrelated_attributes_are_clean(self):
        findings = run("""
            def tally(stats):
                stats.requests += 1
                stats.demand_curve = []
        """)
        assert findings == []

    def test_test_modules_are_exempt(self):
        findings = run("""
            def test_corrupt(ledger):
                ledger.demand[:] = -1.0
        """, module="tests.test_sample")
        assert findings == []


# --------------------------------------------------------------------------- #
# REP007: tiered candidate-index direct writes
# --------------------------------------------------------------------------- #
class TestRep007CandidateIndexWrite:
    def test_flags_writes_and_mutations_outside_mutators(self):
        findings = run("""
            from heapq import heappush

            def rebalance(ledger, row, band):
                ledger._row_band[row] = band
                ledger._band_members[band].add(row)
                heappush(ledger._empty_heaps[0], row)
        """)
        assert [f.rule_id for f in findings] == ["REP007"] * 3
        assert any("`._row_band`" in f.message for f in findings)
        assert any("`.add()` call on" in f.message for f in findings)
        assert any("`heappush` on" in f.message for f in findings)

    def test_read_path_pops_are_flagged(self):
        # The read path must trust heap tops without cleaning them up
        # itself; lazy deletion belongs to the mutators.
        findings = run("""
            from heapq import heappop

            def best_fit_row(ledger, kind):
                heap = ledger._empty_heaps[kind]
                while heap and ledger.row_used[heap[0]]:
                    heappop(ledger._empty_heaps[kind])
        """)
        assert rule_ids(findings) == ["REP007"]

    def test_sanctioned_maintainers_are_clean(self):
        findings = run("""
            from heapq import heapify, heappop, heappush

            class ClusterLedger:
                def rebuild_candidate_index(self):
                    self._row_band = None
                    self._band_members = {}
                    self._empty_heaps = [[]]
                    heapify(self._empty_heaps[0])

                def _index_update_row(self, row):
                    self._band_members.setdefault(0, set()).add(row)
                    self._row_band[row] = 0
                    heappush(self._empty_heaps[0], row)
                    while self._empty_heaps[0]:
                        heappop(self._empty_heaps[0])
        """)
        assert findings == []

    def test_reads_and_unrelated_attributes_are_clean(self):
        findings = run("""
            def shortlist(ledger, queue):
                reps = [heap[0] for heap in ledger._empty_heaps if heap]
                bands = sorted(ledger._band_members, reverse=True)
                queue.append(bands)
                return reps
        """)
        assert findings == []

    def test_test_modules_are_exempt(self):
        findings = run("""
            def test_corrupt(ledger):
                ledger._band_members.clear()
        """, module="tests.test_sample")
        assert findings == []


# --------------------------------------------------------------------------- #
# REP008: scenario RNG must derive from the scenario seed
# --------------------------------------------------------------------------- #
class TestRep008ScenarioRng:
    def test_flags_literal_seeded_rng_in_scenario_layer(self):
        # Seeded, so REP001-clean -- but anchored to a literal instead of
        # the scenario seed, which is exactly what REP008 exists to catch.
        findings = run("""
            import numpy as np

            def surge_slots(n):
                rng = np.random.default_rng(1234)
                return rng.integers(0, n, size=4)
        """, module="repro.scenarios.sample")
        assert rule_ids(findings) == ["REP008"]
        assert "bypasses derive_rng" in findings[0].message
        assert "`surge_slots`" in findings[0].message

    def test_flags_imported_constructor_alias(self):
        findings = run("""
            from numpy.random import default_rng as rng_factory

            def pick(seed):
                return rng_factory(seed)
        """, module="repro.scenarios.sample")
        assert rule_ids(findings) == ["REP008"]
        assert "`rng_factory(...)`" in findings[0].message

    def test_flags_bit_generator_construction(self):
        findings = run("""
            import numpy as np

            def make(seed):
                return np.random.Generator(np.random.PCG64(seed))
        """, module="repro.scenarios.sample")
        assert [f.rule_id for f in findings] == ["REP008"] * 2

    def test_derive_rng_itself_is_sanctioned(self):
        findings = run("""
            import numpy as np

            def derive_rng(seed, label):
                return np.random.default_rng(seed)
        """, module="repro.scenarios.axes")
        assert findings == []

    def test_modules_outside_scenarios_are_not_its_business(self):
        findings = run("""
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
        """, module="repro.trace.sample")
        assert findings == []

    def test_test_modules_are_exempt(self):
        findings = run("""
            import numpy as np

            def helper():
                return np.random.default_rng(42)
        """, module="tests.test_scenarios_sample")
        assert findings == []


# --------------------------------------------------------------------------- #
# Baseline workflow
# --------------------------------------------------------------------------- #
class TestBaseline:
    def _finding(self, message: str = "bad thing (in `f`)") -> Finding:
        return Finding(path="src/repro/x.py", line=3, col=0,
                       rule_id="REP001", message=message)

    def test_roundtrip_and_matching_ignores_lines(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self._finding()], path)
        baseline = load_baseline(path)
        drifted = Finding(path="src/repro/x.py", line=99, col=4,
                          rule_id="REP001", message="bad thing (in `f`)")
        result = apply_baseline([drifted], baseline)
        assert result.active == []
        assert result.suppressed == [drifted]
        assert result.unused_entries == []

    def test_unused_entries_are_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self._finding()], path)
        result = apply_baseline([], load_baseline(path))
        assert len(result.unused_entries) == 1
        assert result.unused_entries[0]["rule"] == "REP001"

    def test_justifications_carry_forward(self, tmp_path):
        path = tmp_path / "baseline.json"
        finding = self._finding()
        write_baseline([finding], path)
        payload = json.loads(path.read_text())
        payload["entries"][0]["justification"] = "because physics"
        path.write_text(json.dumps(payload))
        write_baseline([finding], path, justifications=load_baseline(path))
        assert json.loads(path.read_text())["entries"][0]["justification"] \
            == "because physics"

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
@pytest.fixture()
def dirty_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(textwrap.dedent("""
        import numpy as np

        def jitter(x):
            return x + np.random.normal(0.0, 0.1)
    """))
    return pkg


class TestCli:
    def test_exit_one_on_findings(self, dirty_tree, capsys):
        assert main([str(dirty_tree), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "1 finding(s)" in out

    def test_baseline_suppresses_to_exit_zero(self, dirty_tree, tmp_path,
                                              capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(dirty_tree), "--write-baseline", str(baseline)]) == 0
        assert main([str(dirty_tree), "--baseline", str(baseline)]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_json_format_and_output_file(self, dirty_tree, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([str(dirty_tree), "--no-baseline", "--format", "json",
                     "--output", str(report)])
        assert code == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(report.read_text())
        assert stdout_payload == file_payload
        assert stdout_payload["counts"]["active"] == 1
        assert stdout_payload["findings"][0]["rule"] == "REP001"

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope"), "--no-baseline"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_missing_explicit_baseline_exits_two(self, dirty_tree, tmp_path,
                                                 capsys):
        code = main([str(dirty_tree),
                     "--baseline", str(tmp_path / "absent.json")])
        assert code == 2
        assert "baseline not found" in capsys.readouterr().err

    def test_list_rules_covers_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP006",
                        "REP007", "REP008"):
            assert rule_id in out


# --------------------------------------------------------------------------- #
# The acceptance gate: the repo's own tree is clean modulo the baseline
# --------------------------------------------------------------------------- #
class TestTreeClean:
    def test_src_repro_clean_modulo_baseline(self):
        engine = AnalysisEngine(default_rules())
        findings = engine.analyze_paths([REPO_ROOT / "src" / "repro"],
                                        rel_root=REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / "analysis_baseline.json")
        result = apply_baseline(findings, baseline)
        assert result.active == [], \
            "new invariant violations:\n" + \
            "\n".join(f.format() for f in result.active)
        assert result.unused_entries == [], \
            "stale baseline entries: " + json.dumps(result.unused_entries)

    def test_every_rule_has_baselined_or_zero_findings(self):
        # The suppressed set documents exactly the justified violations;
        # pin the shape so a rule silently going dead is noticed.
        engine = AnalysisEngine(default_rules())
        findings = engine.analyze_paths([REPO_ROOT / "src" / "repro"],
                                        rel_root=REPO_ROOT)
        by_rule = {f.rule_id for f in findings}
        # REP003/REP004 have known, justified baselined findings.
        assert {"REP003", "REP004"} <= by_rule
        # REP001/REP002/REP006/REP007/REP008 must stay at zero findings
        # tree-wide.
        assert "REP001" not in by_rule
        assert "REP002" not in by_rule
        assert "REP006" not in by_rule
        assert "REP007" not in by_rule
        assert "REP008" not in by_rule
