"""Shared pytest wiring: collects acceptance verdict lines and prints them
as a dedicated block at the end of the terminal summary, where they survive
output capture regardless of which tests pass or fail.  Also holds the
float-range edge values that the CLI and dofcore robustness properties
share."""
from __future__ import annotations

# Float-range edges for each scenario field: zero, subnormals, the smallest
# normals, ordinary values, and values at the top of the float range.
EDGE_VALUES = [0.0, 5e-324, 1e-310, 1e-300, 1e-5, 1.0, 1e20, 1e300, 1.7e308]

VERDICT_LINES: list[str] = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICT_LINES):
            terminalreporter.write_line(line)
