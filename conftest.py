"""pytest configuration for the whole repository: the test log names the
engine core that runs the tests, and why when it is the Python fallback."""

from fireline import engine


def pytest_report_header(config):
    return f"fireline core: {engine.core_description()}"


def pytest_terminal_summary(terminalreporter):
    # -q hides the header, so a quiet log gets the line at its end
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(pytest_report_header(terminalreporter.config))
