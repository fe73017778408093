"""Unit tests for the method registry's scaled defaults."""

import pytest

from repro.eval.methods import (
    ALL_METHODS,
    DEFAULT_LEAF,
    DEFAULT_PARIS_LEAF,
    build_method,
    hercules_config,
    scaled_l_max,
)

from ..conftest import make_random_walks


class TestScaledDefaults:
    def test_method_list_matches_the_paper(self):
        assert ALL_METHODS == (
            "Hercules",
            "DSTree*",
            "ParIS+",
            "VA+file",
            "PSCAN",
            "SerialScan",
        )

    def test_leaf_ratio_mirrors_paper(self):
        """Paper: Hercules/DSTree share 100K leaves, ParIS+ uses 2K."""
        assert DEFAULT_LEAF > DEFAULT_PARIS_LEAF
        assert DEFAULT_LEAF / DEFAULT_PARIS_LEAF >= 5

    def test_hercules_config_scales_db_size_to_dataset(self):
        small = hercules_config(100)
        large = hercules_config(100_000)
        assert small.db_size <= large.db_size
        assert small.db_size >= 1

    def test_hercules_config_keeps_paper_thresholds(self):
        config = hercules_config(10_000)
        assert config.eapca_th == 0.25
        assert config.sax_th == 0.50

    def test_hercules_config_accepts_overrides(self):
        config = hercules_config(5_000, use_sax=False, l_max=99)
        assert not config.use_sax
        assert config.l_max == 99

    def test_hercules_config_ignores_retired_names_only(self):
        """Callers that still pass the retired pass-position knobs get
        the default configuration; a misspelt name still raises."""
        legacy = hercules_config(5_000, prefilter=True, prefilter_bits=8)
        assert legacy == hercules_config(5_000)
        with pytest.raises(TypeError):
            hercules_config(5_000, prefilter_bit=8)

    def test_scaled_l_max_tracks_four_percent_of_leaves(self):
        # Paper: 80 of ~2000 leaves at 100M/100K.
        assert scaled_l_max(2_000_000, 1_000) == 80
        assert scaled_l_max(50, 100) == 2  # floor of 2

    def test_builtmethod_knn_delegates(self):
        data = make_random_walks(150, 16, seed=300)
        built = build_method("SerialScan", data)
        answer = built.knn(data[0], k=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-6)
        built.close()
