"""The verification suites fail, rather than pass, on a NaN; the brute-force
oracle's tree product agrees with a plain sequential one; reports repeat."""

import numpy as np

from qpassage import synthesis, verify
from qpassage.linalg import dagger, expm_hermitian
from qpassage.synthesis import synthesize_general
from qpassage.verify import SuiteResult, _brute_force, _worst, run_verification


def test_a_non_finite_error_fails_the_suite():
    for value in (np.nan, np.inf):
        assert not SuiteResult("any", value, 1e-8, True).passed
    assert SuiteResult("any", 0.0, 1e-8, True).passed


def test_the_error_maximum_keeps_a_nan_wherever_it_sits():
    assert _worst(0.5, [0.1, 0.7]) == 0.7
    assert np.isnan(_worst(0.5, [0.1, np.nan]))
    assert np.isnan(_worst(np.nan, [0.1]))
    assert np.isnan(_worst(np.nan, 0.1))


def test_nan_detuning_fails_the_residual_suite():
    report = run_verification(3, [(1, 2), (2, 2)], instances=1,
                              inject_detuning=float("nan"))
    residual = {s.name: s for s in report.suites}["passage-residual"]
    assert np.isnan(residual.max_error) and not residual.passed
    assert not report.passed
    assert "FAIL  passage-residual" in report.format()


def test_the_brute_force_oracle_returns_exactly_the_requested_products(monkeypatch):
    # a random H per interval, each step an O(1) rotation, so that no two
    # steps commute and a product taken in the wrong order cannot pass
    rng = np.random.default_rng(4)
    dim, intervals = 5, 3000
    a = rng.normal(size=(intervals, dim, dim)) + 1j * rng.normal(size=(intervals, dim, dim))
    hs = (a + dagger(a)) * intervals / 4

    def hamiltonian(mid):
        return hs[np.floor(mid * intervals).astype(int)]

    times = np.linspace(0.0, 1.0, intervals + 1)
    calls = []

    def counted(h, scale):
        calls.append(len(h))
        return expm_hermitian(h, scale)

    monkeypatch.setattr(verify, "expm_hermitian", counted)
    at = [1500, 1536, 3000]  # inside a block, on a block boundary, the last node
    got = _brute_force(hamiltonian, dim, times, at)
    assert len(got) == len(at)
    assert calls == [verify._ORACLE_BLOCK] * 11 + [intervals - 11 * verify._ORACLE_BLOCK]

    steps = expm_hermitian(hs, -1j * np.diff(times))
    u = np.eye(dim, dtype=complex)
    sequential = [u]
    for step in steps:
        u = step @ u
        sequential.append(u)
    for k, product in zip(at, got):
        assert np.max(np.abs(product - sequential[k])) <= 1e-12


def test_one_seed_formats_identical_reports():
    sizes = [(1, 2), (2, 3)]
    first = run_verification(7, sizes, instances=1).format()
    assert run_verification(7, sizes, instances=1).format() == first


def test_only_the_reconstructed_cases_are_synthesized_and_without_the_injection(monkeypatch):
    grids = []

    def counted(layout, schedules, grid):
        grids.append(grid)
        return synthesize_general(layout, schedules, grid=grid)

    monkeypatch.setattr(verify, "synthesize_general", counted)
    report = run_verification(5, [(1, 2), (2, 2)], instances=2, inject_detuning=0.3)
    suites = {s.name: s for s in report.suites}
    assert grids == [verify._GRID] * 2  # the first half of the 4 cases, no other plan
    assert not suites["passage-residual"].passed
    assert suites["evolution-reconstruction"].passed


def test_the_dark_and_block_structure_suite_evaluates_the_envelope_once_per_case(monkeypatch):
    # with one assistant level no dark-state conversion runs, so every
    # envelope evaluation at a single time is this suite's
    envelope = synthesis.master_envelope
    single_times = []

    def counted(schedules, t):
        single_times.append(np.ndim(t) == 0)
        return envelope(schedules, t)

    monkeypatch.setattr(synthesis, "master_envelope", counted)
    # also counted should the suite import the envelope under its own name
    monkeypatch.setattr(verify, "master_envelope", counted, raising=False)
    report = run_verification(2, [(1, 2), (1, 3)], instances=2)
    assert report.passed
    assert sum(single_times) == 4  # one per case
