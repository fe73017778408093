"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.storage.dataset import Dataset


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.bin"
    code = main(
        [
            "generate",
            "--kind",
            "synth",
            "--count",
            "400",
            "--length",
            "32",
            "--seed",
            "3",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_readable_dataset(self, dataset_file, capsys):
        with Dataset.open(dataset_file, 32) as ds:
            assert ds.num_series == 400
            batch = ds.read_batch(0, 10)
            np.testing.assert_allclose(batch.std(axis=1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("kind, length", [("sald", 128), ("deep", 96)])
    def test_analog_default_lengths(self, tmp_path, kind, length):
        path = tmp_path / f"{kind}.bin"
        code = main(
            ["generate", "--kind", kind, "--count", "50", "--output", str(path)]
        )
        assert code == 0
        with Dataset.open(path, length) as ds:
            assert ds.num_series == 50
        # generate-workload applies the same default-length rule.
        from repro.workloads.io import load_workload_bundle

        bundle = tmp_path / f"{kind}-bundle"
        code = main(
            ["generate-workload", "--kind", kind, "--count", "50",
             "--queries", "2", "--output", str(bundle)]
        )
        assert code == 0
        data, _, _ = load_workload_bundle(bundle)
        assert data.shape == (48, length)


class TestBuildQueryInspect:
    def test_full_workflow(self, dataset_file, tmp_path, capsys):
        index_dir = tmp_path / "index"
        code = main(
            [
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(index_dir),
                "--leaf-capacity",
                "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built index over 400 series" in out
        assert (index_dir / "htree.bin").exists()

        # Query the index with the dataset itself (self-queries).
        code = main(
            [
                "query",
                "--index",
                str(index_dir),
                "--queries",
                str(dataset_file),
                "--k",
                "2",
                "--count",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query 0: d=[0.0000" in out
        assert "answered 3 queries" in out

        code = main(["inspect", "--index", str(index_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "leaves" in out
        assert "series length      32" in out

    def test_verbose_build_prints_phase_breakdown(
        self, dataset_file, tmp_path, capsys
    ):
        index_dir = tmp_path / "index"
        code = main(
            [
                "-v",
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(index_dir),
                "--leaf-capacity",
                "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "series/s)" in out
        assert "build phase breakdown:" in out
        for phase in ("routing", "hbuffer stores", "splits", "flushes",
                      "other"):
            assert phase in out

    def test_per_row_build_matches_batched(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(tmp_path / "per-row"),
                "--leaf-capacity",
                "50",
                "--per-row",
            ]
        )
        assert code == 0
        per_row = capsys.readouterr().out
        code = main(
            [
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(tmp_path / "batched"),
                "--leaf-capacity",
                "50",
            ]
        )
        assert code == 0
        batched = capsys.readouterr().out
        # Identical trees: same leaf/split/flush counts in the summary.
        assert per_row.splitlines()[0] == batched.splitlines()[0]

    def test_approximate_and_epsilon_flags(self, dataset_file, tmp_path, capsys):
        index_dir = tmp_path / "index"
        assert (
            main(
                [
                    "build",
                    "--dataset",
                    str(dataset_file),
                    "--length",
                    "32",
                    "--output",
                    str(index_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--index",
                    str(index_dir),
                    "--queries",
                    str(dataset_file),
                    "--count",
                    "1",
                    "--approximate",
                ]
            )
            == 0
        )
        assert "path=approximate" in capsys.readouterr().out
        assert (
            main(
                [
                    "query",
                    "--index",
                    str(index_dir),
                    "--queries",
                    str(dataset_file),
                    "--count",
                    "1",
                    "--epsilon",
                    "0.5",
                ]
            )
            == 0
        )

    def test_missing_index_reports_error(self, tmp_path, capsys):
        code = main(["inspect", "--index", str(tmp_path / "missing")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestVerifyIndex:
    @pytest.fixture
    def index_dir(self, dataset_file, tmp_path):
        index_dir = tmp_path / "index"
        code = main(
            [
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(index_dir),
            ]
        )
        assert code == 0
        return index_dir

    def test_healthy_index_passes(self, index_dir, capsys):
        capsys.readouterr()
        code = main(["verify-index", str(index_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "MANIFEST.json" in out
        assert "is healthy" in out
        for artifact in ("lrd.bin", "lsd.bin", "norms.bin", "htree.bin"):
            assert artifact in out

    def test_damaged_artifact_fails_and_is_named(self, index_dir, capsys):
        lrd = index_dir / "lrd.bin"
        blob = bytearray(lrd.read_bytes())
        blob[64] ^= 0xFF
        lrd.write_bytes(bytes(blob))
        capsys.readouterr()
        code = main(["verify-index", str(index_dir)])
        assert code == 1
        out = capsys.readouterr().out
        assert "lrd.bin" in out
        assert "DAMAGED" in out

    def test_damaged_manifest_fails(self, index_dir, capsys):
        manifest = index_dir / "MANIFEST.json"
        blob = bytearray(manifest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        manifest.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify-index", str(index_dir)]) == 1
        out = capsys.readouterr().out
        assert "MANIFEST.json" in out and "DAMAGED" in out

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_missing_manifest_fails(self, index_dir, capsys, level):
        (index_dir / "MANIFEST.json").unlink()
        capsys.readouterr()
        assert main(["verify-index", str(index_dir), "--level", level]) == 1
        out = capsys.readouterr().out
        assert "MANIFEST.json" in out and "DAMAGED" in out
        assert "no manifest" in out

    def test_quick_level_skips_checksums(self, index_dir, capsys):
        lrd = index_dir / "lrd.bin"
        blob = bytearray(lrd.read_bytes())
        blob[64] ^= 0xFF
        lrd.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify-index", str(index_dir), "--level", "quick"]) == 0
        assert main(["verify-index", str(index_dir), "--level", "full"]) == 1

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["verify-index", str(tmp_path / "nope")]) == 1
        assert "not a directory" in capsys.readouterr().err


class TestGenerateWorkload:
    def test_writes_loadable_bundle(self, tmp_path, capsys):
        from repro.workloads.io import load_workload_bundle

        code = main(
            [
                "generate-workload",
                "--kind",
                "synth",
                "--count",
                "120",
                "--length",
                "16",
                "--queries",
                "4",
                "--output",
                str(tmp_path / "bundle"),
            ]
        )
        assert code == 0
        data, workloads, metadata = load_workload_bundle(tmp_path / "bundle")
        assert data.shape == (116, 16)  # 4 ood queries held out
        assert set(workloads) == {"1%", "2%", "5%", "10%", "ood"}
        assert metadata["kind"] == "synth"


class TestBench:
    def test_runs_one_figure_at_tiny_scale(self, capsys):
        code = main(
            [
                "bench",
                "--figure",
                "fig12a",
                "--size",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 12a" in out
        assert "Hercules" in out

    def test_bench_all_runs_every_figure(self, capsys):
        code = main(
            [
                "bench",
                "--figure",
                "all",
                "--size",
                "200",
                "--num-queries",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for figure in ("fig6", "fig7", "fig12b"):
            assert f"=== {figure} ===" in out

    def test_size_and_queries_overrides(self, capsys):
        code = main(
            [
                "bench",
                "--figure",
                "fig7",
                "--size",
                "400",
                "--num-queries",
                "2",
            ]
        )
        assert code == 0
        assert "PSCAN" in capsys.readouterr().out


class TestCompare:
    def test_prints_method_table(self, dataset_file, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--num-queries",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("Hercules", "DSTree*", "ParIS+", "VA+file", "PSCAN"):
            assert name in out


def _complete_event_names(doc):
    """Names of a Chrome trace's complete events, after checking the
    event format: only complete (``X``) and metadata (``M``) events, and
    no negative start or duration."""
    events = doc["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in ("X", "M"), event
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0, event
    return {e["name"] for e in events if e["ph"] == "X"}


class TestTraceAndExplain:
    @pytest.fixture
    def index_dir(self, dataset_file, tmp_path):
        index_dir = tmp_path / "index"
        code = main(
            [
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(index_dir),
            ]
        )
        assert code == 0
        return index_dir

    def test_build_trace_has_construction_spans(self, dataset_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "build-trace.json"
        code = main(
            [
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(tmp_path / "traced-index"),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "trace with" in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = _complete_event_names(doc)
        assert {"build", "build.tree", "build.buffering", "build.write"} <= names

    def test_query_trace_has_phase_spans(self, index_dir, dataset_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "query-trace.json"
        code = main(
            [
                "query",
                "--index",
                str(index_dir),
                "--queries",
                str(dataset_file),
                "--count",
                "2",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        names = _complete_event_names(doc)
        assert {"query", "query.phase1.approx", "query.phase2.candidates"} <= names
        assert not any(name.startswith("query.batch") for name in names)

    def test_tracing_is_off_after_traced_command(self, index_dir, dataset_file, tmp_path):
        from repro import obs

        code = main(
            [
                "query",
                "--index",
                str(index_dir),
                "--queries",
                str(dataset_file),
                "--count",
                "1",
                "--trace",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == 0
        assert obs.get_trace() is None

    def test_explain_reports_phases_and_summary(self, index_dir, dataset_file, capsys):
        code = main(
            [
                "explain",
                "--index",
                str(index_dir),
                "--queries",
                str(dataset_file),
                "--k",
                "2",
                "--count",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query 0: path=" in out
        assert "phase 1 approx" in out
        assert "EAPCA pruning" in out
        assert "random seeks" in out
        assert "workload summary (2 queries)" in out
        assert "access paths:" in out

    def test_verbose_flag_enables_info_logs(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "-v",
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(tmp_path / "verbose-index"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "building tree over 400 series" in err

    def test_quiet_flag_suppresses_info_logs(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "-q",
                "build",
                "--dataset",
                str(dataset_file),
                "--length",
                "32",
                "--output",
                str(tmp_path / "quiet-index"),
            ]
        )
        assert code == 0
        assert "building tree" not in capsys.readouterr().err


class TestCacheFlag:
    @pytest.fixture
    def index_dir(self, dataset_file, tmp_path):
        index_dir = tmp_path / "index"
        code = main(
            [
                "build",
                "--dataset", str(dataset_file),
                "--length", "32",
                "--output", str(index_dir),
            ]
        )
        assert code == 0
        return index_dir

    def _query_lines(self, index_dir, dataset_file, capsys, *extra):
        code = main(
            [
                "query",
                "--index", str(index_dir),
                "--queries", str(dataset_file),
                "--k", "3",
                "--count", "4",
                *extra,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [
            line.rsplit(" (", 1)[0]  # drop the per-query wall-clock suffix
            for line in out.splitlines()
            if line.startswith("query ")
        ]
        return lines, out

    def test_cache_mb_reports_hit_rate(self, index_dir, dataset_file, capsys):
        _, out = self._query_lines(
            index_dir, dataset_file, capsys, "--cache-mb", "16"
        )
        assert "leaf cache:" in out
        assert "hit rate" in out

    def test_cache_mb_zero_is_silent_and_identical(
        self, index_dir, dataset_file, capsys
    ):
        cached, _ = self._query_lines(
            index_dir, dataset_file, capsys, "--cache-mb", "16"
        )
        plain, out = self._query_lines(index_dir, dataset_file, capsys)
        assert "leaf cache:" not in out
        # --cache-mb 0 (the default) changes nothing about the answers.
        assert cached == plain

    def test_explain_reports_abandoning_and_cache(
        self, index_dir, dataset_file, capsys
    ):
        code = main(
            [
                "explain",
                "--index", str(index_dir),
                "--queries", str(dataset_file),
                "--k", "2",
                "--count", "3",
                "--cache-mb", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "early abandoning" in out
        assert "points compared" in out
        assert "leaf cache" in out
        assert "abandoned fraction" in out
        assert "points:" in out

    def test_compare_table_has_abandoned_and_cache_columns(
        self, dataset_file, capsys
    ):
        code = main(
            [
                "compare",
                "--dataset", str(dataset_file),
                "--length", "32",
                "--num-queries", "2",
                "--cache-mb", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "abandoned" in out
        assert "cache_hit" in out
        # Hercules ran with the leaf cache; scans have no cache ("-").
        hercules_row = next(
            line for line in out.splitlines() if line.lstrip().startswith("Hercules")
        )
        assert "%" in hercules_row


class TestShardedCLI:
    @pytest.fixture
    def sharded_dir(self, dataset_file, tmp_path, capsys):
        index_dir = tmp_path / "sharded"
        code = main(
            [
                "build",
                "--dataset", str(dataset_file),
                "--length", "32",
                "--output", str(index_dir),
                "--leaf-capacity", "50",
                "--shards", "2",
                "--shard-workers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        return index_dir

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_query_matches_unsharded_build(
        self, dataset_file, tmp_path, capsys, workers
    ):
        # workers="2" builds and queries through the process pool.
        def build(name, *extra):
            code = main(
                [
                    "build",
                    "--dataset", str(dataset_file),
                    "--length", "32",
                    "--output", str(tmp_path / name),
                    "--leaf-capacity", "50",
                    *extra,
                ]
            )
            assert code == 0
            return tmp_path / name

        plain_dir = build("plain", "--shards", "1")
        sharded_dir = build(
            "sharded", "--shards", "2", "--shard-workers", workers
        )
        capsys.readouterr()
        query_args = ["--queries", str(dataset_file), "--k", "3", "--count", "2"]
        assert main(["query", "--index", str(plain_dir)] + query_args) == 0
        plain_out = capsys.readouterr().out
        assert main(
            ["query", "--index", str(sharded_dir), "--shard-workers", workers]
            + query_args
        ) == 0
        sharded_out = capsys.readouterr().out
        # Distances printed per query must agree exactly across layouts
        # (positions are storage-order and paths differ by design).
        def distances(out):
            return [
                line.split("] pos")[0]
                for line in out.splitlines()
                if "d=[" in line
            ]

        assert distances(plain_out) == distances(sharded_out)
        assert len(distances(plain_out)) == 2

    def test_query_with_worker_pool(self, dataset_file, sharded_dir, capsys):
        code = main(
            [
                "query",
                "--index", str(sharded_dir),
                "--queries", str(dataset_file),
                "--k", "2",
                "--count", "2",
                "--shard-workers", "2",
            ]
        )
        assert code == 0
        assert "answered 2 queries" in capsys.readouterr().out

    def test_verify_index_reports_per_shard_rows(self, sharded_dir, capsys):
        code = main(["verify-index", str(sharded_dir), "--level", "full"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SHARDS.json" in out
        for shard in ("shard-0000", "shard-0001"):
            assert f"{shard}/MANIFEST.json" in out
            assert f"{shard}/lrd.bin" in out
        assert "is healthy (full verification, sharded)" in out

    def test_verify_index_names_damaged_shard(self, sharded_dir, capsys):
        lrd = sharded_dir / "shard-0001" / "lrd.bin"
        blob = bytearray(lrd.read_bytes())
        blob[64] ^= 0xFF
        lrd.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify-index", str(sharded_dir), "--level", "full"]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "shard-0001" in out

    def test_explain_prints_per_shard_breakdown(
        self, sharded_dir, dataset_file, capsys
    ):
        import re

        code = main(
            [
                "explain",
                "--index", str(sharded_dir),
                "--queries", str(dataset_file),
                "--k", "2",
                "--count", "3",
                "--shard-workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "path=sharded" in out
        # One row per shard under each answer.
        rows = re.findall(r"^  shard (\d+): path=", out, flags=re.MULTILINE)
        assert rows == ["0", "1"] * 3

    def test_degraded_answer_prints_its_coverage(
        self, sharded_dir, dataset_file, capsys
    ):
        from repro.storage import faults

        # Every query read of shard 1 fails (a worker's first two reads
        # open the shard), outlasting the file layer's retries.
        plan = faults.FaultPlan(op="read", at=3, mode="transient", failures=10**6)
        capsys.readouterr()
        with faults.ship_plans({1: plan}):
            code = main(
                [
                    "query",
                    "--index", str(sharded_dir),
                    "--queries", str(dataset_file),
                    "--k", "2",
                    "--count", "1",
                    "--shard-workers", "2",
                    "--partial-results",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert (
            "  query 0: DEGRADED — coverage 50.00% after 1 retries; dropped shard 1"
            in out
        )
        assert "WARNING: 1 of 1 answers were degraded" in out

    def test_inspect_shows_shard_summary(self, sharded_dir, capsys):
        code = main(["inspect", "--index", str(sharded_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded index" in out
        assert "shards             2" in out
        assert "row base" in out

    def test_metadata_commands_start_no_query_pool(self, sharded_dir, capsys, monkeypatch):
        """``inspect`` and ``verify-index`` answer no query, so they open a
        sharded directory without forking a pool worker: with the pool
        unable to start, both succeed and print the same lines."""
        from repro.core.shard_worker import ShardQueryPool

        commands = (
            ["inspect", "--index", str(sharded_dir)],
            ["verify-index", str(sharded_dir), "--level", "full"],
        )
        printed = []
        for command in commands:
            assert main(command) == 0
            printed.append(capsys.readouterr().out)
        assert "shards             2" in printed[0]
        assert "series over 2 shards" in printed[1]
        assert "is healthy (full verification, sharded)" in printed[1]

        def refuse(*args, **kwargs):
            raise AssertionError("a metadata command started the query pool")

        monkeypatch.setattr(ShardQueryPool, "__init__", refuse)
        for command, out in zip(commands, printed):
            assert main(command) == 0
            assert capsys.readouterr().out == out

    def test_cache_flag_prints_per_shard_lines(
        self, sharded_dir, dataset_file, capsys
    ):
        code = main(
            [
                "query",
                "--index", str(sharded_dir),
                "--queries", str(dataset_file),
                "--count", "2",
                "--cache-mb", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "leaf cache shard 0:" in out
        assert "leaf cache shard 1:" in out


class TestPrefilterCLI:
    """The LB_SAX pass runs ahead of the access-path decision on every
    index: ``explain`` shows what it kept, and the answers are a scan's."""

    def test_answers_match_a_scan_and_explain_shows_the_screen(
        self, dataset_file, tmp_path, capsys
    ):
        queries = tmp_path / "queries.bin"
        assert main(
            ["generate", "--kind", "synth", "--count", "6", "--length", "32",
             "--seed", "42", "--output", str(queries)]
        ) == 0
        index_dir = tmp_path / "index"
        # A short phase 1 leaves candidate leaves for the pass.
        assert main(
            ["build", "--dataset", str(dataset_file), "--length", "32",
             "--output", str(index_dir), "--leaf-capacity", "20",
             "--l-max", "1"]
        ) == 0
        # The SAX tier is lsd.bin, read at open: no file of its own.
        assert not (index_dir / "signatures.bin").exists()
        capsys.readouterr()
        assert main(
            ["query", "--index", str(index_dir), "--queries", str(queries),
             "--k", "3"]
        ) == 0
        printed = [
            line.split("d=[")[1].split("]")[0]
            for line in capsys.readouterr().out.splitlines()
            if "d=[" in line
        ]

        with Dataset.open(dataset_file, 32) as ds:
            data = ds.load_all()
        with Dataset.open(queries, 32) as ds:
            rows = ds.load_all()
        expected = []
        for query in rows.astype(np.float64):
            squared = np.sort(((data.astype(np.float64) - query) ** 2).sum(axis=1))
            expected.append(", ".join(f"{d:.4f}" for d in np.sqrt(squared[:3])))
        assert printed == expected

        assert main(
            ["explain", "--index", str(index_dir), "--queries",
             str(queries), "--k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "prefilter screen" in out
        assert "candidate-leaf series survive" in out
        assert "prefilter pruning" in out


class TestBatchCLI:
    """``repro query --batch`` answers the query set with one
    ``knn_batch`` call: the same answers as the serial loop, plus a
    leaf-sharing line."""

    @pytest.mark.parametrize(
        "build_flags, query_flags",
        [
            ([], []),
            (["--shards", "2", "--shard-workers", "2"], ["--shard-workers", "2"]),
        ],
        ids=["plain", "sharded-pool"],
    )
    def test_batch_answers_match_serial(
        self, dataset_file, tmp_path, capsys, build_flags, query_flags
    ):
        queries = tmp_path / "queries.bin"
        assert main(
            ["generate", "--kind", "synth", "--count", "8", "--length", "32",
             "--seed", "42", "--output", str(queries)]
        ) == 0
        index_dir = tmp_path / "index"
        # A short phase 1, so the batch reaches its refinement walk.
        assert main(
            ["build", "--dataset", str(dataset_file), "--length", "32",
             "--output", str(index_dir), "--leaf-capacity", "20",
             "--l-max", "1"] + build_flags
        ) == 0
        capsys.readouterr()
        outputs = {}
        for mode, extra in (("serial", []), ("batch", ["--batch"])):
            assert main(
                ["query", "--index", str(index_dir), "--queries", str(queries),
                 "--k", "5"] + query_flags + extra
            ) == 0
            outputs[mode] = capsys.readouterr().out

        # Both runs query the same index: distances AND positions match.
        def answers(out):
            return [line.split(" path=")[0] for line in out.splitlines() if "d=[" in line]

        assert len(answers(outputs["serial"])) == 8
        assert answers(outputs["batch"]) == answers(outputs["serial"])
        assert "leaf-sharing" in outputs["batch"]
        assert "leaf-sharing" not in outputs["serial"]
        if not build_flags:  # a sharded answer's path reads "sharded"
            # Queries whose leaves the hard ones' walk reads skip the
            # LB_SAX pass in the batch, not alone.
            assert "path=shared-leaves" in outputs["batch"]
            assert "path=shared-leaves" not in outputs["serial"]


class TestQueryTelemetry:
    """``query`` and ``explain`` record every answer into the telemetry
    spool the same way, plain or sharded."""

    def _metrics(self, spool):
        import json

        return json.loads((spool / "metrics.json").read_text())["summary"]

    def test_explain_spools_query_metrics(self, dataset_file, tmp_path, capsys):
        index_dir = tmp_path / "index"
        assert main(
            ["build", "--dataset", str(dataset_file), "--length", "32",
             "--output", str(index_dir)]
        ) == 0
        spool = tmp_path / "spool"
        assert main(
            ["explain", "--index", str(index_dir), "--queries",
             str(dataset_file), "--count", "3", "--telemetry-dir", str(spool)]
        ) == 0
        assert "workload summary (3 queries)" in capsys.readouterr().out
        summary = self._metrics(spool)
        latency = summary["windowed_histograms"]["query.latency_seconds"]
        assert latency["total_count"] == 3
        assert summary["counters"]["query.count"] == 3

    def test_sharded_query_spools_data_accessed(
        self, dataset_file, tmp_path, capsys
    ):
        index_dir = tmp_path / "sharded"
        assert main(
            ["build", "--dataset", str(dataset_file), "--length", "32",
             "--output", str(index_dir), "--shards", "2",
             "--shard-workers", "1"]
        ) == 0
        spool = tmp_path / "spool"
        assert main(
            ["query", "--index", str(index_dir), "--queries",
             str(dataset_file), "--count", "2", "--shard-workers", "1",
             "--telemetry-dir", str(spool)]
        ) == 0
        histograms = self._metrics(spool)["histograms"]
        assert histograms["query.data_accessed_fraction"]["count"] == 2


#: Every subcommand's flags as ``option strings -> (default, type,
#: choices, required)``; ``""`` is the top-level parser.  Written down
#: from the parser before its flag groups were shared, so a change to
#: how flags are declared cannot drop, rename or re-default one.
_RESILIENCE = {
    "--partial-results": (False, None, None, False),
    "--shard-timeout": (None, "float", None, False),
}
_OBSERVED = {
    "--trace": (None, "Path", None, False),
    "--telemetry-dir": (None, "Path", None, False),
    "--telemetry-interval": (2.0, "float", None, False),
}
_QUERIED = {
    "--index": (None, "Path", None, True),
    "--queries": (None, "Path", None, True),
    "--k": (1, "int", None, False),
    "--count": (None, "int", None, False),
    "--epsilon": (0.0, "float", None, False),
    "--cache-mb": (0.0, "float", None, False),
    "--shard-workers": (None, "int", None, False),
    **_RESILIENCE,
    **_OBSERVED,
}
_MADE = {
    "--kind": ("synth", None, ("synth", "sald", "seismic", "deep"), False),
    "--count": (None, "int", None, True),
    "--length": (None, "int", None, False),
    "--seed": (0, "int", None, False),
    "--output": (None, "Path", None, True),
}
_FLAG_TABLE = {
    "": {
        "-v/--verbose": (0, None, None, False),
        "-q/--quiet": (0, None, None, False),
    },
    "generate": _MADE,
    "generate-workload": {**_MADE, "--queries": (100, "int", None, False)},
    "build": {
        "--dataset": (None, "Path", None, True),
        "--length": (None, "int", None, True),
        "--output": (None, "Path", None, True),
        "--leaf-capacity": (100, "int", None, False),
        "--initial-segments": (4, "int", None, False),
        "--l-max": (8, "int", None, False),
        "--per-row": (False, None, None, False),
        "--shards": (1, "int", None, False),
        "--shard-workers": (None, "int", None, False),
        **_OBSERVED,
    },
    "query": {
        **_QUERIED,
        "--approximate": (False, None, None, False),
        "--batch": (False, None, None, False),
    },
    "explain": _QUERIED,
    "inspect": {"--index": (None, "Path", None, True)},
    "bench": {
        "--figure": (
            None,
            None,
            ("fig10", "fig11", "fig12a", "fig12b", "fig6", "fig7", "fig8",
             "fig9", "all"),
            True,
        ),
        "--size": (None, "int", None, False),
        "--num-queries": (None, "int", None, False),
    },
    "verify-index": {
        "index": (None, "Path", None, True),
        "--level": ("full", None, ("quick", "full"), False),
    },
    "verify": {
        "--dataset": (None, "Path", None, True),
        "--length": (None, "int", None, True),
        "--k": (10, "int", None, False),
        "--num-queries": (10, "int", None, False),
        "--noise": (0.05, "float", None, False),
        "--seed": (0, "int", None, False),
    },
    "compare": {
        "--dataset": (None, "Path", None, True),
        "--length": (None, "int", None, True),
        "--k": (1, "int", None, False),
        "--num-queries": (10, "int", None, False),
        "--noise": (0.05, "float", None, False),
        "--seed": (0, "int", None, False),
        "--cache-mb": (0.0, "float", None, False),
        "--shards": (1, "int", None, False),
        "--shard-workers": (None, "int", None, False),
        "--prefilter": (False, None, None, False),
        "--batch": (False, None, None, False),
        **_OBSERVED,
    },
    "monitor": {
        "directory": (None, "Path", None, True),
        "--interval": (2.0, "float", None, False),
        "--iterations": (None, "int", None, False),
        "--once": (False, None, None, False),
    },
    "bench-diff": {
        "baseline": (None, "Path", None, True),
        "fresh": (None, "Path", None, True),
        "--threshold": (0.2, "float", None, False),
        "--include-timings": (False, None, None, False),
        "--ignore": ([], None, None, False),
    },
}


def test_flag_surface_matches_the_table():
    import argparse

    from repro.cli import build_parser

    def flags(parser):
        table = {}
        for action in parser._actions:
            if isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            ):
                continue
            name = "/".join(action.option_strings) or action.dest
            assert name not in table, f"{name} declared twice"
            table[name] = (
                action.default,
                getattr(action.type, "__name__", None),
                tuple(action.choices) if action.choices else None,
                action.required,
            )
        return table

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    surface = {"": flags(parser)}
    surface.update(
        (name, flags(sub)) for name, sub in subparsers.choices.items()
    )
    assert sorted(surface) == sorted(_FLAG_TABLE)
    for command, expected in _FLAG_TABLE.items():
        assert surface[command] == expected, command


# ``repro query`` / ``repro explain`` output for a plain index, with every
# clock reading 0 so the run is reproducible byte for byte.
_PINNED_QUERY = (
    "query 0: d=[2.2321, 2.2597, 2.4595] pos=[224, 319, 234] path=full-four-phase "
    "accessed=10.25% (0.0 ms)\n"
    "query 1: d=[2.2551, 2.5500, 2.8885] pos=[113, 130, 323] path=full-four-phase "
    "accessed=13.50% (0.0 ms)\n"
    "query 2: d=[3.9916, 4.5563, 4.5917] pos=[289, 287, 294] path=eapca-skipseq "
    "accessed=21.25% (0.0 ms)\n"
    "answered 3 queries in 0.000s\n"
)

_PINNED_EXPLAIN = (
    "query 0: path=full-four-phase\n"
    "  phase 1 approx          0.00 ms   (1 leaves visited)\n"
    "  phase 2 candidates      0.00 ms   (6 candidate leaves, EAPCA pruning 55.17%)\n"
    "  prefilter screen    28 of 167 candidate-leaf series survive (pruned 83.23%)\n"
    "  phase 3+4 refine        0.00 ms   (28 candidate series, SAX pruning 93.00%)\n"
    "  total                   0.00 ms   (41 distance computations, 41 series read "
    "= 10.25% of data)\n"
    "  early abandoning    1312 of 1312 points compared (abandoned 0.00%; the "
    "Euclidean screen drops whole rows, never points, so 0% is its normal)\n"
    "  io                  22 random seeks, 0 sequential reads, 0.01 MB read, "
    "modeled 110.00 ms on paper disks\n"
    "\n"
    "query 1: path=full-four-phase\n"
    "  phase 1 approx          0.00 ms   (1 leaves visited)\n"
    "  phase 2 candidates      0.00 ms   (7 candidate leaves, EAPCA pruning 37.93%)\n"
    "  prefilter screen    38 of 244 candidate-leaf series survive (pruned 84.43%)\n"
    "  phase 3+4 refine        0.00 ms   (38 candidate series, SAX pruning 90.50%)\n"
    "  total                   0.00 ms   (54 distance computations, 54 series read "
    "= 13.50% of data)\n"
    "  early abandoning    1728 of 1728 points compared (abandoned 0.00%; the "
    "Euclidean screen drops whole rows, never points, so 0% is its normal)\n"
    "  io                  13 random seeks, 0 sequential reads, 0.01 MB read, "
    "modeled 65.01 ms on paper disks\n"
    "\n"
    "query 2: path=eapca-skipseq\n"
    "  phase 1 approx          0.00 ms   (1 leaves visited)\n"
    "  phase 2 candidates      0.00 ms   (5 candidate leaves, EAPCA pruning 17.24%)\n"
    "  prefilter screen    9 of 333 candidate-leaf series survive (pruned 97.30%)\n"
    "  phase 3+4 refine        0.00 ms\n"
    "  total                   0.00 ms   (85 distance computations, 85 series "
    "read = 21.25% of data)\n"
    "  early abandoning    2720 of 2720 points compared (abandoned 0.00%; the "
    "Euclidean screen drops whole rows, never points, so 0% is its normal)\n"
    "  io                  5 random seeks, 0 sequential reads, 0.01 MB read, "
    "modeled 25.01 ms on paper disks\n"
    "\n"
    "workload summary (3 queries):\n"
    "  query seconds          mean     0.000 ms  p50     0.000 ms  p95     0.000 "
    "ms  max     0.000 ms\n"
    "  phase 1 approx         mean     0.000 ms  p50     0.000 ms  p95     0.000 "
    "ms  max     0.000 ms\n"
    "  phase 2 candidates     mean     0.000 ms  p50     0.000 ms  p95     0.000 "
    "ms  max     0.000 ms\n"
    "  phase 3+4 refine       mean     0.000 ms  p50     0.000 ms  p95     0.000 "
    "ms  max     0.000 ms\n"
    "  EAPCA pruning          mean     0.368  p50     0.379  p95     0.534  max    "
    " 0.552\n"
    "  SAX pruning            mean     0.917  p50     0.917  p95     0.929  max    "
    " 0.930\n"
    "  prefilter pruning      mean     0.883  p50     0.844  p95     0.960  max    "
    " 0.973\n"
    "  data accessed          mean     0.150  p50     0.135  p95     0.205  max    "
    " 0.212\n"
    "  abandoned fraction     mean     0.000  p50     0.000  p95     0.000  max    "
    " 0.000\n"
    "  modeled io seconds     mean    66.673 ms  p50    65.005 ms  p95   105.504 "
    "ms  max   110.004 ms\n"
    "  totals: 180 distance computations, 180 series read\n"
    "  points: 5760 of 5760 compared (abandoned 0.00%)\n"
    "  access paths: eapca-skipseq=1, full-four-phase=2\n"
)


def _run(capsys, *argv) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_plain_output_is_pinned(dataset_file, tmp_path, capsys, monkeypatch):
    """``query`` and ``explain`` print a plain index's answers byte for
    byte as pinned, with every clock reading 0."""
    import time

    queries = tmp_path / "queries.bin"
    _run(capsys, "generate", "--kind", "synth", "--count", "3", "--length", "32",
         "--seed", "99", "--output", str(queries))
    _run(capsys, "build", "--dataset", str(dataset_file), "--length", "32",
         "--output", str(tmp_path / "idx"), "--leaf-capacity", "20",
         "--l-max", "1")
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    args = ("--index", str(tmp_path / "idx"), "--queries", str(queries), "--k", "3")
    assert _run(capsys, "query", *args) == _PINNED_QUERY
    assert _run(capsys, "explain", *args) == _PINNED_EXPLAIN


class _Replay:
    """Stands in for an opened index: answers every ``knn`` call with the
    next of the given answers."""

    def __init__(self, index, answers) -> None:
        self.config = index.config
        self.num_series = index.num_series
        self.series_length = index.series_length
        self.leaf_cache = None
        self._answers = iter(answers)

    def knn(self, query, k=1, config=None):
        return next(self._answers)

    def close(self) -> None:
        pass


class TestOneRecorder:
    def test_run_workload_records_what_query_records(
        self, dataset_file, tmp_path, capsys, monkeypatch
    ):
        """The same sharded answers, recorded by the evaluation harness
        and by ``repro query``, give the same instruments."""
        from repro import cli, obs
        from repro.core import HerculesConfig, ShardedIndex
        from repro.eval.metrics import run_workload

        with Dataset.open(dataset_file, 32) as dataset:
            data = dataset.read_batch(0, 400)
        config = HerculesConfig(
            leaf_capacity=50,
            num_shards=2, shard_workers=1,
        )
        with ShardedIndex.build(data, config, directory=tmp_path / "sharded") as index:
            answers = [index.knn(query, k=3) for query in data[:3]]

        harness = obs.MetricsRegistry()
        run_workload(_Replay(index, answers), data[:3], k=3, registry=harness)
        monkeypatch.setattr(cli, "open_index", lambda *args, **kwargs: _Replay(index, answers))
        cli_registry = obs.MetricsRegistry()
        with obs.use_hub(obs.TelemetryHub(registry=cli_registry)):
            _run(capsys, "query", "--index", str(tmp_path / "sharded"), "--queries",
                 str(dataset_file), "--count", "3", "--k", "3")

        def instruments(registry):
            summary = registry.summary()
            return {kind: summary[kind] for kind in ("counters", "gauges", "histograms")}

        recorded = instruments(cli_registry)
        assert "query.coverage" in recorded["histograms"]
        assert "shard.1.query.count" in recorded["counters"]
        assert instruments(harness) == recorded
