"""README's quick session gives the values it prints."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_session_runs_as_printed():
    text = README.read_text(encoding="utf-8")
    session = doctest.DocTestParser().get_doctest(text, {}, README.name, str(README), 0)
    report = []
    failed, _ = doctest.DocTestRunner().run(session, out=report.append)
    assert session.examples and failed == 0, "".join(report)
