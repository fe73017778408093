"""bench-diff: regressions and gated keys gone missing both fail."""

import json

from repro.cli import main
from repro.eval.benchdiff import diff_figures


def doc(raw):
    return {"figures": [{"figure": "bench", "raw": raw}]}


def test_a_gated_key_missing_in_fresh_fails():
    report = diff_figures(
        doc({"hit_rate": 0.9, "read_calls": 4}), doc({"read_calls": 4, "hit_rate": None})
    )
    assert report.missing == ["bench.hit_rate"]
    assert not report.regressions
    assert report.failed
    assert "FAIL: 1 gated baseline metric(s) missing" in report.render()


def test_an_ungated_key_missing_in_fresh_passes():
    report = diff_figures(doc({"label_count_total": 3, "read_calls": 4}), doc({"read_calls": 4}))
    assert report.missing == []
    assert not report.failed
    assert report.render().endswith("PASS: no gated metric regressed beyond threshold")


def test_cli_exit_status(tmp_path):
    baseline, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
    baseline.write_text(json.dumps(doc({"read_calls": 4, "traced_peak_mb": 2.0})))
    fresh.write_text(json.dumps(doc({"read_calls": 4, "traced_peak_mb": 2.1})))
    assert main(["bench-diff", str(baseline), str(fresh)]) == 0
    fresh.write_text(json.dumps(doc({"read_calls": 4})))
    assert main(["bench-diff", str(baseline), str(fresh)]) == 1
    fresh.write_text(json.dumps(doc({"read_calls": 4, "traced_peak_mb": 3.0})))
    assert main(["bench-diff", str(baseline), str(fresh)]) == 1
