"""The mutant list of ``tests/mutants.py`` still fits today's ``src/``.

No mutant runs here; ``python tests/mutants.py`` runs them.
"""
from mutants import MUTANTS, ROOT


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
