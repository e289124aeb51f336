import random
from pathlib import Path

import corpus


def test_a_seeded_slice_keeps_the_invariants(tmp_path):
    """Text, --json and the exit code agree, and no run exits 2 without an
    input error or exits 4, on a seeded slice of the behaviour corpus."""
    cases = corpus.workload_cases(tmp_path, seeds=(1,)) + [
        c for c in corpus.fixture_cases() if c.key.endswith("--depth 1")]
    rng = random.Random(21)
    for case in rng.sample(cases, 8):
        assert corpus.problems(case, *corpus.run_case(case)) == [], case.key


def test_every_file_a_case_names_is_absolute(tmp_path):
    """A file a case reads or writes is named by an absolute path, so that no
    corpus run reads or writes the working directory."""
    for case in corpus.all_cases(tmp_path):
        for arg in case.argv:
            if arg.endswith((".pl", ".spec", ".dot")):
                assert Path(arg).is_absolute(), case.key
