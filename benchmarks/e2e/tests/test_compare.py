"""compare.py verdicts against a declared bound."""

import compare


def test_unchanged_within_bound():
    assert compare.verdict([10, 10.1, 9.9], [10.5, 10.6, 10.4], "lower", 0.10) == "unchanged"


def test_regressed_beyond_bound():
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.10) == "regressed"
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.10) == "regressed"


def test_improvement_is_not_a_regression():
    assert compare.verdict([100, 101, 99], [150, 151, 149], "higher", 0.10) == "unchanged"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [10, 14, 7]
    assert compare.verdict(noisy, [10, 11, 9], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [6, 5, 6.5], "lower", 0.10) == "unchanged"


def test_a_noisy_change_side_is_unresolved_too():
    assert compare.verdict([10, 10.1, 9.9], [10, 16, 25], "lower", 0.10) == "unresolved"


def test_rows_and_exit_status():
    decl = {
        "end_to_end": [{"name": "search_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "index.self_us", "unit": "us", "better": "lower"}],
    }
    base = {("w", "search_p50_ms"): [1.0, 1.0, 1.0], ("w", "index.self_us"): [5.0]}
    change = {("w", "search_p50_ms"): [1.3, 1.3, 1.3], ("w", "index.self_us"): [9.0]}
    lines, regressed = compare.compare(base, change, decl)
    assert regressed
    assert lines[1].endswith("regressed") and lines[2].endswith("-")
