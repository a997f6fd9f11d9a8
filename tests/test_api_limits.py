"""Unit tests for the uniform exploration limits (repro.api.limits)."""

import pytest

from repro.api.limits import ExplorationLimits


class TestExplorationLimits:
    def test_defaults_are_unbounded(self):
        limits = ExplorationLimits()
        assert limits.unbounded
        assert limits.max_paths is None and limits.max_rounds is None
        assert limits.stop_on_first_bug is False

    def test_validation_rejects_negative_budgets(self):
        with pytest.raises(ValueError):
            ExplorationLimits(max_paths=-1)
        with pytest.raises(ValueError):
            ExplorationLimits(max_wall_time=-0.5)
        with pytest.raises(ValueError):
            ExplorationLimits(coverage_target=120.0)

    def test_merged_overrides_only_given_fields(self):
        base = ExplorationLimits(max_paths=10, max_rounds=5)
        merged = base.merged(max_paths=20)
        assert merged.max_paths == 20
        assert merged.max_rounds == 5
        # frozen: the original is untouched
        assert base.max_paths == 10

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            ExplorationLimits().merged(max_bananas=3)

    def test_pop_from_extracts_limit_fields_and_leaves_the_rest(self):
        options = {"max_paths": 7, "workers": 4, "coverage_target": 50.0}
        limits = ExplorationLimits.pop_from(options)
        assert limits.max_paths == 7
        assert limits.coverage_target == 50.0
        assert options == {"workers": 4}

    def test_pop_from_merges_over_base(self):
        base = ExplorationLimits(max_rounds=100, max_paths=1)
        options = {"max_paths": 9}
        limits = ExplorationLimits.pop_from(options, base=base)
        assert limits.max_paths == 9
        assert limits.max_rounds == 100

    def test_satisfied_by_goals(self):
        limits = ExplorationLimits(max_paths=5, coverage_target=80.0,
                                   stop_on_first_bug=True)
        assert limits.satisfied_by(5, 0.0, 0)
        assert limits.satisfied_by(0, 80.0, 0)
        assert limits.satisfied_by(0, 0.0, 1)
        assert not limits.satisfied_by(4, 79.9, 0)
        # budgets are not goals
        assert not ExplorationLimits(max_rounds=3).satisfied_by(100, 100.0, 5)

    def test_repr_names_only_set_fields(self):
        assert "unbounded" in repr(ExplorationLimits())
        text = repr(ExplorationLimits(max_paths=3))
        assert "max_paths=3" in text and "max_rounds" not in text

    def test_as_dict_round_trips(self):
        limits = ExplorationLimits(max_steps=1, max_wall_time=2.5,
                                   stop_on_first_bug=True)
        assert ExplorationLimits(**limits.as_dict()) == limits
