"""The smoke runner on tiny rows: each way a row can fail fails it, and the
runner names every row that failed."""

import time

import smoke
from smoke import Row

PASS = ("-c", "pass")


def run(capsys, table):
    failed = smoke.run(table)
    return failed, capsys.readouterr().out.splitlines()


def test_an_exit_the_row_does_not_accept_fails_it(capsys):
    exit_3 = ("-c", "raise SystemExit(3)")
    failed, lines = run(capsys, [Row("want 0", exit_3), Row("want 3", exit_3, exits=frozenset({3}))])
    assert failed == ["want 0"]
    assert lines[0].startswith("want 0: exit 3, ") and lines[0].endswith("FAILED, exit 3, want one of [0]")
    assert lines[1].startswith("want 3: exit 3, ") and "FAILED" not in lines[1]


def test_a_peak_rss_above_the_bound_fails_the_row_and_no_later_one(capsys):
    """The row after a heavy one reads its own peak RSS, although the runner
    is heavy too."""
    heavy = ("-c", "b = bytearray(60 * 2**20)")  # zeroed, so every page is touched
    ballast = bytearray(60 * 2**20)
    failed, lines = run(capsys, [Row("heavy", heavy, rss_mb=40), Row("light", PASS, rss_mb=40)])
    del ballast
    assert failed == ["heavy"]
    assert lines[0].endswith("FAILED, peak RSS above 40 MB")
    assert float(lines[0].split("peak RSS ")[1].split(" MB")[0]) > 60


def test_a_row_past_its_timeout_fails(capsys):
    start = time.perf_counter()
    failed, lines = run(capsys, [Row("slow", ("-c", "import time; time.sleep(30)"), timeout=0.2)])
    assert failed == ["slow"] and "exit 124 (timeout)" in lines[0]
    assert time.perf_counter() - start < 5


def test_every_failed_row_is_named(capsys):
    table = [Row("first", ("-c", "raise SystemExit(1)")), Row("passes", PASS),
             Row("last", PASS, check=smoke.answer_count(1))]
    failed, lines = run(capsys, table)
    assert failed == ["first", "last"]
    assert lines[2].endswith("FAILED, 0 answers, want 1")
    assert lines[-1] == "2 of 3 rows failed: first; last"
