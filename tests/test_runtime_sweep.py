"""Tests for the scenario-sweep engine (repro.runtime)."""

import json

import pytest

from repro.cli import main
from repro.runtime import (
    SCHEMA_VERSION,
    InstanceCache,
    Scenario,
    ScenarioGrid,
    build_instance,
    compare_to_baseline,
    read_results,
    results_from_dict,
    results_table,
    results_to_dict,
    run_scenario,
    run_sweep,
    write_results,
)

TINY = ScenarioGrid(family=["grid", "mesh"], size=[8], k=[2, 4], weights=["unit", "zipf"])


class TestScenario:
    def test_grid_expansion_order_and_count(self):
        scenarios = TINY.scenarios()
        assert len(scenarios) == 8
        # declaration-order expansion: family is the slowest axis
        assert [s.family for s in scenarios[:4]] == ["grid"] * 4
        assert scenarios == TINY.scenarios()  # stable across calls

    def test_duplicate_cells_rejected(self):
        grid = ScenarioGrid(family=["grid", "grid"], size=[8])
        with pytest.raises(ValueError, match="duplicate"):
            grid.scenarios()

    def test_scenario_id_stable_and_content_addressed(self):
        a = Scenario(family="grid", size=8, k=2)
        b = Scenario(family="grid", size=8, k=2)
        c = Scenario(family="grid", size=8, k=4)
        assert a.scenario_id() == b.scenario_id()
        assert a.scenario_id() != c.scenario_id()

    def test_instance_hash_ignores_k_and_algorithm(self):
        a = Scenario(family="grid", size=8, k=2, algorithm="minmax")
        b = Scenario(family="grid", size=8, k=4, algorithm="greedy")
        assert a.instance_hash() == b.instance_hash()
        assert a.instance_seed() == b.instance_seed()

    def test_instance_params_affect_hash(self):
        a = Scenario(family="grid", size=8, k=2, params=(("phi", 10.0),))
        b = Scenario(family="grid", size=8, k=2, params=(("phi", 100.0),))
        c = Scenario(family="grid", size=8, k=2, params=(("oracle", "bfs"),))
        d = Scenario(family="grid", size=8, k=2)
        assert a.instance_hash() != b.instance_hash()
        # algorithm-only params do not split the instance cache
        assert c.instance_hash() == d.instance_hash()

    def test_grid_spec_roundtrip(self):
        assert ScenarioGrid.from_spec(TINY.spec()).scenarios() == TINY.scenarios()


class TestDeterminism:
    def test_workers_1_vs_4_byte_identical(self):
        r1 = run_sweep(TINY, workers=1)
        r4 = run_sweep(TINY, workers=4)
        d1 = json.dumps(results_to_dict(r1, grid=TINY), sort_keys=True, indent=2)
        d4 = json.dumps(results_to_dict(r4, grid=TINY), sort_keys=True, indent=2)
        assert d1 == d4

    def test_repeat_runs_identical(self):
        grid = ScenarioGrid(family="grid", size=8, k=2, weights="zipf")
        a = run_sweep(grid)[0].record()
        b = run_sweep(grid)[0].record()
        assert a == b

    def test_seed_axis_changes_random_instances(self):
        grid = ScenarioGrid(family="regular", size=40, k=2, weights="zipf", seed=[0, 1])
        ra, rb = run_sweep(grid)
        assert ra.metrics != rb.metrics


class TestCache:
    def test_memory_hits_across_k(self, tmp_path):
        cache = InstanceCache()
        for k in [2, 3, 4]:
            run_scenario(Scenario(family="grid", size=8, k=k), cache=cache)
        assert cache.misses == 1
        assert cache.hits == 2

    def test_disk_cache_survives_processes(self, tmp_path):
        s = Scenario(family="grid", size=8, k=2, weights="zipf")
        c1 = InstanceCache(directory=tmp_path)
        inst = c1.get(s)
        assert c1.stats() == {"hits": 0, "misses": 1, "entries": 1, "evictions": 0}
        # a fresh cache (fresh process) hits the disk entry
        c2 = InstanceCache(directory=tmp_path)
        inst2 = c2.get(s)
        assert c2.misses == 0 and c2.hits == 1
        assert inst2.graph.n == inst.graph.n
        assert (inst2.weights == inst.weights).all()

    def test_bounded_cache_evicts_lru(self):
        cache = InstanceCache(max_entries=2)
        a = Scenario(family="grid", size=6, k=2)
        b = Scenario(family="grid", size=7, k=2)
        c = Scenario(family="grid", size=8, k=2)
        cache.get(a)
        cache.get(b)
        cache.get(a)  # refresh a; b is now least recent
        cache.get(c)  # evicts b
        assert cache.stats()["entries"] == 2 and cache.stats()["evictions"] == 1
        cache.get(a)
        assert cache.hits == 2  # a survived
        cache.get(b)
        assert cache.misses == 4  # b was rebuilt

    def test_cached_instance_gives_same_result(self, tmp_path):
        s = Scenario(family="grid", size=8, k=2, weights="zipf")
        plain = run_scenario(s).record()
        cache = InstanceCache(directory=tmp_path)
        run_scenario(s, cache=cache)  # populate disk
        from_disk = run_scenario(s, cache=InstanceCache(directory=tmp_path)).record()
        assert from_disk == plain


class TestResultsJson:
    def test_schema_roundtrip(self, tmp_path):
        results = run_sweep(TINY)
        path = tmp_path / "sweep.json"
        write_results(path, results, grid=TINY, timing=True)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc) == {"schema_version", "grid", "results", "timing", "telemetry"}
        back = read_results(path)
        assert [r.record() for r in back] == [r.record() for r in results]
        assert all(r.wall_clock_s > 0 for r in back)

    def test_timing_block_opt_in(self, tmp_path):
        results = run_sweep(ScenarioGrid(family="grid", size=8, k=2))
        path = tmp_path / "sweep.json"
        write_results(path, results)
        assert "timing" not in json.loads(path.read_text())

    def test_tampered_scenario_id_rejected(self):
        results = run_sweep(ScenarioGrid(family="grid", size=8, k=2))
        doc = results_to_dict(results)
        doc["results"][0]["scenario_id"] = "0" * 12
        with pytest.raises(ValueError, match="scenario_id mismatch"):
            results_from_dict(doc)

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            results_from_dict({"schema_version": 99, "results": []})

    def test_record_carries_bound_inputs(self):
        r = run_sweep(ScenarioGrid(family="grid", size=8, k=2))[0]
        rec = r.record()
        for key in ("n", "m", "cost_norm_p2", "cost_max", "max_cost_degree", "weight_max"):
            assert key in rec["instance"]
        for key in ("max_boundary", "avg_boundary", "balance_margin",
                    "strictly_balanced", "bound_ratio_thm5"):
            assert key in rec["metrics"]

    def test_results_table_renders(self):
        results = run_sweep(ScenarioGrid(family="grid", size=8, k=2))
        text = results_table(results).render()
        assert "grid/8/unit/unit/s0" in text


class TestBaselineGate:
    def _results(self):
        return run_sweep(ScenarioGrid(family="grid", size=8, k=[2, 4]))

    def test_identical_results_pass(self):
        cur = self._results()
        report = compare_to_baseline(cur, self._results(), tolerance=0.2)
        assert report.ok and report.compared == 2

    def test_regression_detected(self):
        cur = self._results()
        base = self._results()
        base[0].metrics["max_boundary"] *= 0.5  # current now looks 2x worse
        report = compare_to_baseline(cur, base, tolerance=0.2)
        assert not report.ok
        assert report.regressions[0]["metric"] == "max_boundary"
        assert "REGRESSION" in report.render()

    def test_within_tolerance_passes(self):
        cur = self._results()
        base = self._results()
        base[0].metrics["max_boundary"] /= 1.1  # 10% worse < 20% tolerance
        assert compare_to_baseline(cur, base, tolerance=0.2).ok

    def test_lost_strict_balance_is_regression(self):
        cur = self._results()
        base = self._results()
        cur[0].metrics["strictly_balanced"] = False
        report = compare_to_baseline(cur, base, tolerance=0.2)
        assert not report.ok
        assert report.regressions[0]["metric"] == "strictly_balanced"

    def test_new_scenarios_reported_not_failed(self):
        cur = self._results()
        report = compare_to_baseline(cur, [], tolerance=0.2)
        assert report.ok and report.compared == 0
        assert len(report.missing) == 2


class TestSweepCli:
    def test_sweep_writes_json_and_gates(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["sweep", "--family", "grid", "--size", "8", "--k", "2", "4",
                "--workers", "1", "-o", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 2
        # gate against itself: passes
        assert main(argv + ["--baseline", str(out)]) == 0
        # gate against a halved baseline: fails with exit 1
        doc["results"][0]["metrics"]["max_boundary"] /= 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, sort_keys=True, indent=2))
        assert main(argv + ["--baseline", str(bad)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_sweep_param_and_table(self, tmp_path, capsys):
        argv = ["sweep", "--family", "grid", "--size", "8", "--k", "2",
                "--param", "oracle=bfs", "--table"]
        assert main(argv) == 0
        assert "grid/8/unit/unit/s0" in capsys.readouterr().out

    def test_sweep_preset_smoke_matches_checked_in_baseline_schema(self):
        from repro.cli import SWEEP_PRESETS

        grid = ScenarioGrid(**SWEEP_PRESETS["smoke"])
        assert len(grid.scenarios()) == 24

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_sweep_reports_k_below_one_in_one_line(self, k):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "grid", "--size", "6", "--k", k])
        assert exc.value.code == f"sweep: k must be >= 1, got {k}"

    @pytest.mark.parametrize("extra, message", [
        (["--trace", "random-churn", "--param", "gamma=0"],
         "gamma must be a finite number > 0, got 0.0"),
        (["--trace", "random-churn", "--param", "solver=nope"],
         "unknown solver 'nope' (have greedy, kst, minmax, multilevel, recursive-bisection)"),
        (["--trace", "random-churn", "--param", "oracle=nope"],
         "unknown oracle 'nope'; known: best, best3, bfs, default, grid, index, lex, "
         "random, spectral"),
        (["--param", "oracle=nope"],
         "unknown oracle 'nope'; known: best, best3, bfs, default, grid, index, lex, "
         "random, spectral"),
        (["--param", "kernel=nope"],
         "unknown FM kernel 'nope'; known: bucket, incremental, reference"),
    ], ids=["gamma", "solver", "stream-oracle", "oracle", "kernel"])
    @pytest.mark.parametrize("command", ["sweep", "profile", "loadgen"])
    def test_bad_param_reported_in_one_line_before_running(self, monkeypatch, command,
                                                           extra, message):
        """A cell param no run could resolve stops the command at the
        prompt: no sweep, profile or replay starts."""
        import repro.runtime as runtime_mod

        ran = []
        monkeypatch.setattr(runtime_mod, "run_sweep", lambda *a, **kw: ran.append(a) or [])
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "grid", "--size", "8", "--k", "2", *extra])
        assert exc.value.code == f"{command}: {message}"
        assert ran == []

    def test_sweep_reports_bad_oracle_cache_size_before_running(self, monkeypatch):
        import repro.runtime as runtime_mod
        from repro.separators import reset_solver_state

        ran = []
        monkeypatch.setattr(runtime_mod, "run_sweep", lambda *a, **kw: ran.append(a) or [])
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        monkeypatch.setenv("REPRO_ORACLE_CACHE_SIZE", "abc")
        reset_solver_state()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--family", "grid", "--size", "8", "--k", "2", "--workers", "2"])
        finally:
            reset_solver_state()
        assert exc.value.code == (
            "sweep: REPRO_ORACLE_CACHE_SIZE='abc' is not a non-negative integer")
        assert ran == []

    def test_sweep_requires_axes(self):
        with pytest.raises(SystemExit):
            main(["sweep"])


def test_make_oracle_names():
    from repro.separators import make_oracle

    with pytest.raises(ValueError, match="unknown oracle 'nope'"):
        make_oracle("nope")
    # the error names the available oracles so callers can self-correct
    with pytest.raises(ValueError, match="bfs"):
        make_oracle("typo")
    for name in ("best", "best3", "bfs", "spectral", "grid", "index", "random"):
        assert make_oracle(name, seed=1) is not None


def test_build_instance_unknown_names():
    with pytest.raises(KeyError, match="family"):
        build_instance(Scenario(family="nope", size=8, k=2))
    with pytest.raises(KeyError, match="weight"):
        build_instance(Scenario(family="grid", size=8, k=2, weights="nope"))
    with pytest.raises(KeyError, match="cost"):
        build_instance(Scenario(family="grid", size=8, k=2, costs="nope"))


def test_run_sweep_accepts_scenario_list():
    scenarios = [Scenario(family="grid", size=8, k=2), Scenario(family="grid", size=8, k=3)]
    results = run_sweep(scenarios)
    assert [r.scenario.k for r in results] == [2, 3]
