"""The shared query-timing helper used by every baseline."""

import numpy as np
import pytest

from repro import obs
from repro.core.query import QueryProfile
from repro.obs import timed_profile
from repro.storage.iostats import IOStats


class TestTimedProfile:
    def test_fills_time_and_path(self):
        profile = QueryProfile()
        with timed_profile(profile, path="serial-scan"):
            profile.series_accessed = 5
        assert profile.path == "serial-scan"
        assert profile.time_total > 0.0

    def test_fills_io_delta(self):
        stats = IOStats()
        stats.record_read(100, sequential=True)  # pre-existing traffic
        profile = QueryProfile()
        with timed_profile(profile, path="pscan", io_stats=stats):
            stats.record_read(4096, sequential=False)
        assert profile.io is not None
        assert profile.io.read_calls == 1
        assert profile.io.bytes_read == 4096

    def test_fills_even_on_exception(self):
        profile = QueryProfile()
        with pytest.raises(RuntimeError):
            with timed_profile(profile, path="dstree-exact"):
                raise RuntimeError("query died")
        assert profile.path == "dstree-exact"
        assert profile.time_total > 0.0

    def test_without_path_keeps_existing(self):
        profile = QueryProfile()
        profile.path = "preset"
        with timed_profile(profile):
            pass
        assert profile.path == "preset"

    def test_emits_span_with_query_attributes(self):
        trace = obs.Trace()
        profile = QueryProfile()
        with obs.use_trace(trace):
            with timed_profile(profile, path="vafile-skipseq", k=3):
                profile.series_accessed = 7
                profile.distance_computations = 9
        span = trace.find("query.vafile-skipseq")[0]
        assert span.attributes["k"] == 3
        assert span.attributes["path"] == "vafile-skipseq"
        assert span.attributes["series_accessed"] == 7
        assert span.attributes["distance_computations"] == 9
        assert span.attributes["seconds"] == profile.time_total


class TestBaselinesUseIt:
    """Every baseline's knn fills path, time, and (on datasets) io."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        return rng.standard_normal((80, 16)).astype(np.float32)

    @pytest.mark.parametrize(
        "factory, expected_path",
        [
            (
                lambda data: __import__(
                    "repro.baselines.scan", fromlist=["SerialScan"]
                ).SerialScan(data),
                "serial-scan",
            ),
            (
                lambda data: __import__(
                    "repro.baselines.pscan", fromlist=["PScan"]
                ).PScan(data, num_threads=2),
                "pscan",
            ),
        ],
    )
    def test_scan_baselines(self, data, factory, expected_path):
        method = factory(data)
        answer = method.knn(data[3], k=2)
        assert answer.profile.path == expected_path
        assert answer.profile.time_total > 0.0
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-4)

    def test_dataset_backed_baseline_fills_io(self, data, tmp_path):
        from repro.baselines.vafile import VAFileIndex
        from repro.storage.dataset import Dataset

        with Dataset.write(tmp_path / "d.bin", data) as dataset:
            index = VAFileIndex.build(dataset)
            answer = index.knn(data[5], k=1)
        assert answer.profile.path == "vafile-skipseq"
        assert answer.profile.io is not None
        assert answer.profile.io.read_calls >= 1
