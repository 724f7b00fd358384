"""Shared test plumbing: the acceptance-criteria scoreboard, a factor log,
a Newton that stalls once, and Newton solves that miss their system.

``tests/test_acceptance.py`` records every check it makes through
:func:`record_acceptance`; at the end of the session one PASS/FAIL line is
printed per criterion, independent of pytest's own reporting.

The ``factor_log`` fixture routes ``grid.shifted_factor``, and the name
:mod:`sisrd.dynamics` binds to it, through a :class:`FactorLog`, which
counts the LU factors alive at every moment;
``newton_factors`` records the size of every factor Newton builds, and
``superlu_calls`` every call into SuperLU.
"""

import pytest

from sisrd import dynamics, equilibrium, grid, solvers

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
    monkeypatch.setattr(dynamics, "shifted_factor", log)
    return log


@pytest.fixture
def newton_factors(monkeypatch) -> list:
    """The size of each matrix the coupled Newton factors, one entry per factor.

    The coupled Newton of an ``n``-node problem factors matrices of order
    ``2 n``, or the ``n x n`` Schur complement when a diffusion rate is
    zero; the marches and eigen-solves factor through ``grid`` and
    ``spectral`` and are not recorded.
    """
    real = equilibrium.sparse_lu
    sizes: list = []

    def recording_lu(A):
        sizes.append(A.shape[0])
        return real(A)

    monkeypatch.setattr(equilibrium, "sparse_lu", recording_lu)
    return sizes


@pytest.fixture
def superlu_calls(monkeypatch) -> list:
    """``(permc_spec, order, nnz)`` of every SuperLU factor, complete or incomplete."""
    calls: list = []

    def recording(real):
        def call(A, permc_spec, **options):
            calls.append((permc_spec, A.shape[0], A.nnz))
            return real(A, permc_spec=permc_spec, **options)

        return call

    # every factor of the package goes through these two
    monkeypatch.setattr(solvers, "splu", recording(solvers.splu))
    monkeypatch.setattr(solvers, "spilu", recording(solvers.spilu))
    return calls


@pytest.fixture
def newton_stall_once(monkeypatch) -> list:
    """Make the first Newton attempt stall on the fields it was given.

    Later attempts run the real Newton.  The returned list gains one entry
    per attempt.
    """
    real = equilibrium._newton_coupled
    calls: list = []

    def stall_once(c, S, I, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return S, I, 0, "no descent"
        return real(c, S, I, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "_newton_coupled", stall_once)
    return calls


class _InaccurateFactor:
    """A real factor whose solutions are off by a relative 1e-6."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b) * (1.0 + 1e-6)


@pytest.fixture
def inaccurate_newton_solves(monkeypatch) -> None:
    """Make every solve with a factor of the coupled Newton inaccurate.

    The factors of the marches and the other linear solves stay exact.
    """
    real = equilibrium.sparse_lu
    monkeypatch.setattr(equilibrium, "sparse_lu", lambda A: _InaccurateFactor(real(A)))
