"""Shared test plumbing: the acceptance-criteria scoreboard and a factor log.

``tests/test_acceptance.py`` records every check it makes through
:func:`record_acceptance`; at the end of the session one PASS/FAIL line is
printed per criterion, independent of pytest's own reporting.

The ``factor_log`` fixture routes ``grid.shifted_factor`` through a
:class:`FactorLog`, which counts the LU factors alive at every moment.
"""

import pytest

from sisrd import grid

ACCEPTANCE_LOG: list = []  # entries: (number, title, passed, detail)

ACCEPTANCE_TITLES = {
    1: "conservation identity holds for every equilibrium in the battery",
    2: "constant-coefficient mass-action equilibrium hits (1, 2)",
    3: "constant-coefficient sublinear equilibrium hits the golden pair",
    4: "R0: closed form, monotone in d_I, and matches endemic outcomes",
    5: "lambda0 closed form for constant coefficients",
    6: "sublinear small-d_I sweep converges to the limit profile",
    7: "joint-limit sweep converges; zero-infection set matches the map",
    8: "small-d_I infection vanishes off the high-risk set; masks align",
    9: "monotone bracketing sequences: strict, consistent, oracle-checked",
    10: "a-priori bound audits pass; floor constant reproduced",
    11: "scenario artifacts are byte-identical across runs",
}


def record_acceptance(number: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_LOG.append((number, ACCEPTANCE_TITLES[number], bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(ACCEPTANCE_TITLES):
        entries = [e for e in ACCEPTANCE_LOG if e[0] == number]
        if not entries:
            continue
        failed = [e for e in entries if not e[2]]
        if failed:
            detail = next((e[3] for e in failed if e[3]), "")
            line = f"ACCEPTANCE {number:02d} FAIL: {ACCEPTANCE_TITLES[number]}"
            if detail:
                line += f" [{detail}]"
        else:
            line = f"ACCEPTANCE {number:02d} PASS: {ACCEPTANCE_TITLES[number]}"
        terminalreporter.write_line(line)


class FactorLog:
    """Builds factors through the real ``shifted_factor`` and tracks which are alive.

    Operators are keyed by their diffusion.  ``builds`` records, for each
    factorization, the key and how many factors of that key were alive just
    before it; ``live`` counts the factors alive now, per key.
    """

    def __init__(self, factor):
        self.factor = factor
        self.live: dict = {}
        self.builds: list = []

    def __call__(self, dom, reaction, diffusion):
        self.builds.append((diffusion, self.live.get(diffusion, 0)))
        return _TrackedFactor(self, diffusion, self.factor(dom, reaction, diffusion))


class _TrackedFactor:
    def __init__(self, log: FactorLog, key, lu):
        self.log, self.key, self.lu = log, key, lu
        log.live[key] = log.live.get(key, 0) + 1

    def solve(self, b):
        return self.lu.solve(b)

    def __del__(self):
        self.log.live[self.key] -= 1


@pytest.fixture
def factor_log(monkeypatch) -> FactorLog:
    log = FactorLog(grid.shifted_factor)
    monkeypatch.setattr(grid, "shifted_factor", log)
    return log
