"""tools/mutants.py: every entry still applies to the source as it is. No mutant's tests are run here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_each_old_text_occurs_once_and_its_tests_exist(name):
    mutant = mutants.MUTANTS[name]
    assert mutants.mutated(mutant) != (mutants.ROOT / mutant["file"]).read_text()
    for test in mutant["tests"]:
        assert (mutants.ROOT / test.split("::")[0]).is_file(), test


def test_an_old_text_not_found_once_is_an_error(tmp_path, monkeypatch, capsys):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n")
    for old, count in (("y = 2", 0), ("x = 1", 2)):
        with pytest.raises(ValueError, match=f"^f.py: the old text occurs {count} times, not once"):
            mutants.mutated({"file": "f.py", "old": old, "new": "", "tests": []}, tmp_path)
    # The tool stops before running any entry's tests, the ones that still apply included.
    monkeypatch.setattr(mutants, "outcome", None)
    stale = {"file": "src/sensorprep/ingest.py", "old": "no such text", "new": "", "tests": []}
    monkeypatch.setitem(mutants.MUTANTS, "stale", stale)
    assert mutants.main() == 2
    message = f"src/sensorprep/ingest.py: the old text occurs 0 times, not once: {'no such text'!r}\n"
    assert capsys.readouterr() == ("", message)
