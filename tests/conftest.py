"""Shared test hooks: collect acceptance gate lines and echo them at the end,
and measure the traced memory peak of a call."""

import tracemalloc

GATE_LINES: list[str] = []


def record_gate(name: str, value, gate: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}: {value} ({gate})"
    GATE_LINES.append(line)
    print(line)


def traced_peak_mb(fn) -> float:
    """Peak of the memory tracemalloc sees (NumPy's buffers included) while fn runs, in MB.

    fn runs once untraced first, so that modules NumPy imports on first use
    (numpy.ma, for np.median) are not counted.
    """
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not GATE_LINES:
        return
    terminalreporter.section("acceptance gates")
    for line in GATE_LINES:
        terminalreporter.write_line(line)
