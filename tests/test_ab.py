import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPECS = [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "transitions_per_s", "unit": "ref-1/s", "better": "higher", "bound": 0.2},
]


def canned_run(peak, rate, trail="a" * 64, cmi="b" * 64, failed=0):
    """A benchmark run's standard output: the metric table, then the
    provenance line and the result line."""
    provenance = {"provenance": {"digest": {"ops": 200, "trail_sha256": trail, "cmi_sha256": cmi}}}
    metrics = {"peak_rss_mb": {"value": peak, "unit": "MB"}}
    metrics["transitions_per_s"] = {"value": rate, "unit": "ref-1/s"}
    result = {"correct": failed == 0, "attempted": 9, "failed": failed, "metrics": metrics}
    table = "perfbench identify-chain3-obs seed=4 trace=0\n  peak_rss_mb  57.0 MB (lower is better)\n"
    return table + json.dumps(provenance) + "\n" + json.dumps(result) + "\n"


def test_summary_reports_quartiles_pair_wins_and_digests():
    parent = [canned_run(57.0, 100.0), canned_run(57.2, 110.0), canned_run(56.9, 90.0)]
    change = [canned_run(56.1, 105.0), canned_run(57.3, 100.0), canned_run(56.0, 95.0)]
    lines = ab.summary(parent, change, SPECS)
    assert lines[1].split() == ["peak_rss_mb", "57", "[56.95,", "57.1]", "56.1", "[56.05,", "56.7]", "2/3", "(MB)"]
    assert lines[2].split()[-2:] == ["2/3", "(ref-1/s)"]  # higher is better here
    assert lines[2].split()[1:4] == ["100", "[95,", "105]"]
    assert lines[3] == "trail_sha256: aaaaaaaa / aaaaaaaa: agree"
    assert lines[4] == "cmi_sha256: bbbbbbbb / bbbbbbbb: agree"
    assert lines[5] == "failed checks: parent 0, change 0"


def test_summary_flags_differing_digests_and_failed_checks():
    parent = [canned_run(57.0, 100.0), canned_run(57.0, 100.0, cmi="c" * 64)]
    change = [canned_run(57.0, 100.0, trail="d" * 64, failed=2), canned_run(57.0, 100.0)]
    lines = ab.summary(parent, change, SPECS)
    assert lines[1].split()[-2] == "0/2"  # ties are no win
    assert lines[3] == "trail_sha256: aaaaaaaa / aaaaaaaa,dddddddd: DIFFER"
    assert lines[4] == "cmi_sha256: bbbbbbbb,cccccccc / bbbbbbbb: DIFFER"
    assert lines[5] == "failed checks: parent 0, change 2"


def test_summary_needs_one_run_per_side_and_pair():
    with pytest.raises(ValueError, match="as many parent runs as change runs"):
        ab.summary([canned_run(57.0, 100.0)], [], SPECS)
    one = ab.summary([canned_run(57.0, 100.0)], [canned_run(56.0, 90.0)], SPECS)
    assert one[1].split()[1:4] == ["57", "[57,", "57]"]
