import hypothesis
import pytest

hypothesis.settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def forked_chunks(monkeypatch):
    """The number of chunks each ``core._forked_rows`` call cut its items
    into: one run in this process, plus one per child it forked."""
    from ftppi import core

    chunks, forked_rows, fork = [], core._forked_rows, core.os.fork

    def counted_fork():
        pid = fork()
        if pid:
            chunks[-1] += 1
        return pid

    def counted(*args, **kwargs):
        chunks.append(1)
        return forked_rows(*args, **kwargs)

    monkeypatch.setattr(core.os, "fork", counted_fork)
    monkeypatch.setattr(core, "_forked_rows", counted)
    return chunks


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one [PASS]/[FAIL] line per acceptance criterion that ran."""
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        return
    lines = {}
    for outcome, tag in (("passed", "PASS"), ("failed", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in rep.nodeid:
                continue
            name = rep.nodeid.split("::")[-1]
            if name in CRITERIA:
                num, text = CRITERIA[name]
                lines[num] = f"[{tag}] criterion {num}: {text}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])
