"""Unit tests for HerculesConfig validation."""

import pytest

from repro.core.config import HerculesConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        config = HerculesConfig()
        assert config.leaf_capacity == 100
        assert config.eapca_th == 0.25
        assert config.sax_th == 0.50
        assert config.l_max == 80

    @pytest.mark.parametrize(
        "field, value",
        [
            ("leaf_capacity", 1),
            ("initial_segments", 0),
            ("sax_segments", 0),
            ("sax_alphabet", 1),
            ("sax_alphabet", 300),
            ("db_size", 0),
            ("buffer_capacity", 0),
            ("l_max", 0),
            ("eapca_th", -0.1),
            ("eapca_th", 1.5),
            ("sax_th", 2.0),
            ("shard_timeout", 0.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            HerculesConfig(**{field: value})

    def test_with_options_returns_modified_copy(self):
        base = HerculesConfig()
        variant = base.with_options(use_sax=False)
        assert not variant.use_sax
        assert base.use_sax  # original untouched

    def test_with_options_ignores_retired_names_only(self):
        base = HerculesConfig()
        variant = base.with_options(
            num_query_threads=2, prefilter=True, prefilter_bits=4, l_max=3
        )
        assert variant == base.with_options(l_max=3)
        for name in ("num_query_threads", "prefilter", "prefilter_bits"):
            assert not hasattr(variant, name)
        with pytest.raises(TypeError):
            base.with_options(num_query_thread=2)  # misspelt: not retired
        with pytest.raises(TypeError):
            base.with_options(prefilter_bit=8)  # misspelt: not retired

    def test_with_options_validates(self):
        with pytest.raises(ConfigError):
            HerculesConfig().with_options(l_max=-1)
