"""Tests of the declarative experiment pipeline: registry, executor,
parallelism, graceful degradation, and byte-for-byte determinism."""

import json

import pytest

from repro.pipeline import (
    TaskSpec,
    all_tasks,
    get_task,
    resolve_tasks,
    run_pipeline,
    task_names,
)
from repro.pipeline.executor import execute_task, json_default
from repro.pipeline.registry import _REGISTRY, register_task

#: Cheap tasks used to exercise the executor without NIST batteries.
#: (sec4e_threshold is ~3s per run; it appears only in the determinism
#: tests, where re-running it is the point.)
FAST_TASKS = ["fig3_uniqueness", "table5_bits"]


def _strip_meta(summary: dict) -> dict:
    # All "_"-prefixed keys are run metadata ("_pipeline", "_metrics"),
    # never experiment results.
    return {k: v for k, v in summary.items() if not k.startswith("_")}


def _timings_by_task(meta: dict) -> dict:
    """Index the timing records by task name (unique names assumed)."""
    return {record["task"]: record for record in meta["tasks"]}


def _dumps(summary: dict) -> str:
    return json.dumps(_strip_meta(summary), sort_keys=True)


@pytest.fixture
def scratch_task():
    """Register a disposable task; deregister on teardown."""
    registered = []

    def _register(name, fn, **kwargs):
        register_task(name, fn, **kwargs)
        registered.append(name)
        return get_task(name)

    yield _register
    for name in registered:
        _REGISTRY.pop(name, None)


class TestRegistry:
    def test_every_runner_section_is_registered(self):
        expected = [
            "table1_nist_case1",
            "table2_nist_case2",
            "nist_raw",
            "fig3_uniqueness",
            "table3_configs_case1",
            "table4_configs_case2",
            "fig4_voltage",
            "fig4_temperature",
            "table5_bits",
            "sec4e_threshold",
            "ablation_distiller",
            "ablation_attacks",
            "ecc_cost",
        ]
        assert task_names() == expected

    def test_dataset_free_tasks_flagged(self):
        assert not get_task("table5_bits").uses_dataset
        assert not get_task("sec4e_threshold").uses_dataset
        assert get_task("table1_nist_case1").uses_dataset

    def test_specs_have_descriptions(self):
        for spec in all_tasks():
            assert isinstance(spec, TaskSpec)
            assert spec.description, spec.name

    def test_unknown_task_raises_helpfully(self):
        with pytest.raises(KeyError, match="table5_bits"):
            get_task("nope")
        with pytest.raises(KeyError):
            resolve_tasks(["table5_bits", "nope"])

    def test_resolve_preserves_registration_order(self):
        specs = resolve_tasks(["sec4e_threshold", "fig3_uniqueness"])
        assert [s.name for s in specs] == ["fig3_uniqueness", "sec4e_threshold"]

    def test_duplicate_registration_rejected(self, scratch_task):
        scratch_task("dup_task", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            register_task("dup_task", lambda: {})

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_pipeline(tasks=["table5_bits"], jobs=0)


class TestExecutor:
    def test_summary_matches_task_selection_and_order(self, small_dataset):
        summary = run_pipeline(
            small_dataset, tasks=["table5_bits", "fig3_uniqueness"]
        )
        assert list(summary) == ["dataset", "fig3_uniqueness", "table5_bits"]

    def test_dataset_name_recorded(self, small_dataset):
        summary = run_pipeline(small_dataset, tasks=["fig3_uniqueness"])
        assert summary["dataset"] == small_dataset.name

    def test_dataset_free_run_skips_dataset(self):
        summary = run_pipeline(tasks=["table5_bits"])
        assert summary["dataset"] is None
        assert summary["table5_bits"]["n=3"]["matches_paper"] is True

    def test_parallel_equals_serial(self, small_dataset):
        serial = run_pipeline(small_dataset, jobs=1, tasks=FAST_TASKS)
        parallel = run_pipeline(small_dataset, jobs=3, tasks=FAST_TASKS)
        assert _dumps(serial) == _dumps(parallel)

    def test_results_are_plain_json_types(self, small_dataset):
        summary = run_pipeline(small_dataset, tasks=FAST_TASKS)
        # a straight dumps (no default hook) succeeds only for native types
        json.dumps(summary)

    def test_timings_block(self, small_dataset):
        summary = run_pipeline(
            small_dataset, jobs=2, tasks=FAST_TASKS, timings=True
        )
        meta = summary["_pipeline"]
        assert meta["jobs"] == 2
        assert meta["cache_hits"] == 0
        assert meta["failures"] == 0
        assert isinstance(meta["tasks"], list)
        assert {r["task"] for r in meta["tasks"]} == set(FAST_TASKS)
        for record in meta["tasks"]:
            assert record["wall_seconds"] >= 0.0
            assert record["attempts"] == 1
            assert record["process"] > 0
            assert record["cache_hit"] is False
        assert meta["total_wall_seconds"] >= max(
            r["wall_seconds"] for r in meta["tasks"]
        ) - 1e-6

    def test_timings_absent_by_default(self, small_dataset):
        assert "_pipeline" not in run_pipeline(
            small_dataset, tasks=["table5_bits"]
        )

    def test_duplicate_task_names_survive(self):
        # "tasks" must serialize as a list: a name-keyed dict would silently
        # drop all but one record if a task name ever repeated (e.g. a
        # future re-run-task feature), under-reporting work done.
        from repro.pipeline.timing import PipelineTimings, TaskTiming

        timings = PipelineTimings(jobs=1)
        timings.tasks.append(
            TaskTiming(task="twin", wall_seconds=0.1, process=1, attempts=1)
        )
        timings.tasks.append(
            TaskTiming(task="twin", wall_seconds=0.2, process=1, attempts=2)
        )
        doc = timings.as_dict()
        assert isinstance(doc["tasks"], list)
        assert [r["task"] for r in doc["tasks"]] == ["twin", "twin"]
        assert [r["attempts"] for r in doc["tasks"]] == [1, 2]
        # and the round-trip through JSON keeps both records
        assert len(json.loads(json.dumps(doc))["tasks"]) == 2


class TestGracefulDegradation:
    def test_failed_task_yields_error_entry(self, scratch_task):
        def explode():
            raise RuntimeError("boom")

        scratch_task("always_fails", explode, uses_dataset=False)
        summary = run_pipeline(tasks=["always_fails", "table5_bits"], timings=True)
        entry = summary["always_fails"]
        assert entry["error"] == "RuntimeError: boom"
        assert entry["attempts"] == 2
        # the cause survives the retry: exception type and full traceback
        assert entry["error_type"] == "RuntimeError"
        assert "RuntimeError: boom" in entry["traceback"]
        assert "explode" in entry["traceback"]
        # the healthy task still ran to completion
        assert summary["table5_bits"]["n=3"]["configurable"] == 80
        assert summary["_pipeline"]["failures"] == 1
        # every failed attempt is on the record
        by_task = _timings_by_task(summary["_pipeline"])
        history = by_task["always_fails"]["failure_history"]
        assert [h["attempt"] for h in history] == [1, 2]
        assert all(h["kind"] == "exception" for h in history)
        assert by_task["table5_bits"]["failure_history"] == []

    def test_retry_once_recovers_flaky_task(self, scratch_task):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return {"ok": True}

        scratch_task("flaky_once", flaky, uses_dataset=False)
        summary = run_pipeline(tasks=["flaky_once"], timings=True)
        assert summary["flaky_once"] == {"ok": True}
        by_task = _timings_by_task(summary["_pipeline"])
        assert by_task["flaky_once"]["attempts"] == 2

    def test_execute_task_never_raises(self, scratch_task):
        def explode():
            raise ValueError("bad")

        scratch_task("exec_fails", explode, uses_dataset=False)
        payload = execute_task("exec_fails", None)
        assert payload["error"] == "ValueError: bad"
        assert payload["result"] is None
        assert payload["attempts"] == 2
        assert payload["wall_seconds"] >= 0.0


class TestDeterminism:
    """Running any task twice with the same dataset is byte-identical."""

    @pytest.mark.parametrize("task", FAST_TASKS + ["sec4e_threshold", "ecc_cost"])
    def test_task_reruns_byte_identical(self, small_dataset, task):
        first = run_pipeline(small_dataset, tasks=[task])
        second = run_pipeline(small_dataset, tasks=[task])
        assert json.dumps(first, sort_keys=True).encode() == json.dumps(
            second, sort_keys=True
        ).encode()

    def test_fresh_process_matches_in_process(self, small_dataset):
        # jobs=2 computes in worker processes with fresh interpreter state;
        # any hidden unseeded RNG (the old DelayMeasurer default) shows up
        # as a mismatch against the in-process run.
        serial = run_pipeline(small_dataset, jobs=1, tasks=["sec4e_threshold"])
        forked = run_pipeline(small_dataset, jobs=2, tasks=["sec4e_threshold"])
        assert _dumps(serial) == _dumps(forked)

    def test_wrapper_matches_pipeline(self, small_dataset):
        # run_pipeline is the one entry point for whole-summary runs (the
        # full summary is checked in TestFullSummary).
        summary = run_pipeline(small_dataset, tasks=["fig3_uniqueness"])
        again = run_pipeline(small_dataset, tasks=["fig3_uniqueness"])
        assert summary == again


@pytest.fixture(scope="module")
def full_summary(small_dataset):
    """One full serial pipeline run over the small dataset."""
    return run_pipeline(small_dataset)


class TestFullSummary:
    """The whole summary of a full run: every section, paper-exact Table V,
    the paper's qualitative orderings, and a lossless JSON round trip."""

    def test_all_sections_present(self, full_summary):
        for key in task_names():
            assert key in full_summary, key

    def test_table5_always_paper_exact(self, full_summary):
        for row in full_summary["table5_bits"].values():
            assert row["matches_paper"]

    def test_qualitative_orderings_hold(self, full_summary):
        for entry in full_summary["fig4_voltage"].values():
            if isinstance(entry, dict):
                assert (
                    entry["configurable_mean_flip_percent"]
                    <= entry["traditional_mean_flip_percent"]
                )
        attacks = full_summary["ablation_attacks"]
        assert attacks["unconstrained"]["accuracy"] > 0.9
        assert attacks["case1"]["accuracy"] < 0.8

    def test_json_round_trip(self, full_summary, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(full_summary, indent=2, default=json_default))
        loaded = json.loads(path.read_text())
        assert loaded["dataset"] == full_summary["dataset"]
        assert set(loaded) == set(full_summary)
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            full_summary, sort_keys=True, default=json_default
        )


class TestDatasetFingerprint:
    def test_stable_across_equal_generations(self):
        from repro.datasets.vtlike import VTLikeConfig, generate_vt_like

        config = dict(
            nominal_boards=2,
            swept_boards=1,
            ro_count=64,
            grid_columns=8,
            grid_rows=8,
            seed=42,
        )
        a = generate_vt_like(VTLikeConfig(**config))
        b = generate_vt_like(VTLikeConfig(**config))
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_data_changes(self):
        from repro.datasets.vtlike import VTLikeConfig, generate_vt_like

        base = VTLikeConfig(
            nominal_boards=2,
            swept_boards=1,
            ro_count=64,
            grid_columns=8,
            grid_rows=8,
            seed=42,
        )
        other = VTLikeConfig(
            nominal_boards=2,
            swept_boards=1,
            ro_count=64,
            grid_columns=8,
            grid_rows=8,
            seed=43,
        )
        assert (
            generate_vt_like(base).fingerprint()
            != generate_vt_like(other).fingerprint()
        )

    def test_sensitive_to_single_delay_perturbation(self, small_dataset):
        import copy

        clone = copy.deepcopy(small_dataset)
        board = clone.boards[0]
        op = board.corners[0]
        board.delays[op] = board.delays[op].copy()
        board.delays[op][0] *= 1.0 + 1e-12
        assert clone.fingerprint() != small_dataset.fingerprint()
