"""The mutant list of ``tests/mutants.py`` still fits today's ``src/``.

No mutant runs here; ``python tests/mutants.py`` runs them. The summary
record ``--matrix`` ends with is checked on hand-made records.
"""
from mutants import MUTANTS, ROOT, summary


def test_every_mutant_applies_to_today_s_source():
    problems = []
    for mutant in MUTANTS:
        text = (ROOT / "src" / "lsentropy" / mutant.path).read_text(encoding="utf-8")
        if text.count(mutant.original) != 1:
            problems.append(f"{mutant.name}: its text occurs {text.count(mutant.original)} times")
        if mutant.replacement == mutant.original:
            problems.append(f"{mutant.name}: its replacement changes nothing")
        if mutant.equivalent is not None and not mutant.equivalent.strip():
            problems.append(f"{mutant.name}: marked equivalent without a reason")
    assert not problems
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS), "mutant names repeat"


def test_matrix_summary_counts_outcomes_and_sole_killers():
    def record(mutant, status, failures, equivalent=None):
        return dict(mutant=mutant, status=status, failures=failures, seconds=1.5,
                    equivalent=equivalent)

    records = [
        record("a", "killed", ["t.py::test_x[1]", "t.py::test_x[2]"]),
        record("b", "killed", ["t.py::test_x[1]", "t.py::test_y"]),
        record("c", "survived", []),
        record("d", "survived", [], equivalent="no input tells"),
        record("e", "timeout", []),
        record("f", "killed", ["t.py::test_z"]),
    ]
    assert summary(records, ["t.py::test_x", "t.py::test_w"]) == {
        "summary": {"killed": 3, "survived": 1, "equivalent": 1, "timeout": 1},
        "seconds": 9.0,
        "sole_kills": {"t.py::test_x": ["a"], "t.py::test_w": [], "t.py::test_y": [],
                       "t.py::test_z": ["f"]},
    }
