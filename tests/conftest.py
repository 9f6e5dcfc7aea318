import os
import re
from pathlib import Path

# pyproject's `pythonpath` puts src/ on sys.path for this process; the
# tests that start `python -m crncalc` in a subprocess find it through
# PYTHONPATH, so they run from a checkout without an install too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, independent of capture."""
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") == "call":
                n = int(m.group(1))
                results[n] = status == "passed" and results.get(n, True)
    if results:
        terminalreporter.write_line("")
        for n in sorted(results):
            word = "pass" if results[n] else "FAIL"
            terminalreporter.write_line(f"acceptance criterion {n}: {word}")
