"""The verification suites fail, rather than pass, on a NaN; the brute-force
oracle's tree product agrees with a plain sequential one and its steps are
of fourth order; the reconstruction suite fails on, and resolves, a phase
error; reports repeat."""

import numpy as np

from qpassage import synthesis, verify
from qpassage.dynamics import reconstruct_evolution
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


def _magnus_step(hamiltonian, t, dt):
    """exp(-i dt H_eff) of one interval, the two-point Magnus step written
    out from its formula."""
    h1 = hamiltonian(t + (0.5 - np.sqrt(3) / 6) * dt)
    h2 = hamiltonian(t + (0.5 + np.sqrt(3) / 6) * dt)
    h_eff = (h1 + h2) / 2 + 1j * np.sqrt(3) * dt / 12 * (h1 @ h2 - h2 @ h1)
    return expm_hermitian(h_eff, -1j * dt)


def test_the_brute_force_oracle_returns_exactly_the_requested_products(monkeypatch):
    # a random H per interval, each step an O(1) rotation, so that no two
    # steps commute and a product taken in the wrong order cannot pass; a
    # random drift inside each interval makes every step's commutator term
    # O(1) too
    rng = np.random.default_rng(4)
    dim, intervals = 5, 3000
    a = rng.normal(size=(intervals, dim, dim)) + 1j * rng.normal(size=(intervals, dim, dim))
    b = rng.normal(size=(intervals, dim, dim)) + 1j * rng.normal(size=(intervals, dim, dim))
    hs, drifts = (a + dagger(a)) * intervals / 4, (b + dagger(b)) * intervals / 4

    def hamiltonian(t):
        k = np.floor(t * intervals).astype(int)
        return hs[k] + (t * intervals - k)[..., None, None] * drifts[k]

    times = np.linspace(0.0, 1.0, intervals + 1)
    calls = []

    def counted(h, scale):
        calls.append(len(h))
        return expm_hermitian(h, scale)

    monkeypatch.setattr(verify, "expm_hermitian", counted)
    block = verify._ORACLE_BLOCK
    at = [1500, 12 * block, 3000]  # inside a block, on a block boundary, the last node
    got = _brute_force(hamiltonian, dim, times, at)
    assert len(got) == len(at)
    full = intervals // block
    assert calls == [block] * full + [intervals - full * block]

    u = np.eye(dim, dtype=complex)
    sequential = [u]
    for t, dt in zip(times[:-1], np.diff(times)):
        u = _magnus_step(hamiltonian, t, dt) @ u
        sequential.append(u)
    for k, product in zip(at, got):
        assert np.max(np.abs(product - sequential[k])) <= 1e-12


def test_the_oracle_is_of_fourth_order_on_an_exact_non_commuting_evolution():
    # H(t) = R H0 R+ with R = exp(-i w t S) evolves exactly as
    # U(t) = R exp(-i (H0 - w S) t), and H at two times does not commute
    rng = np.random.default_rng(0)
    dim, w = 4, 3.0
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0, s = (a + dagger(a)) / 2, (b + dagger(b)) / 2

    def frame(t):
        t = np.asarray(t)
        return expm_hermitian(np.broadcast_to(s, t.shape + (dim, dim)), -1j * w * t)

    def hamiltonian(t):
        r = frame(t)
        return r @ h0 @ dagger(r)

    exact = frame(1.0) @ expm_hermitian(h0 - w * s, -1j)
    errors = []
    for intervals in (50, 100, 200, 400):
        times = np.linspace(0.0, 1.0, intervals + 1)
        u, = _brute_force(hamiltonian, dim, times, [intervals])
        errors.append(float(np.linalg.norm(u - exact)))
    # fourth order gains 16x per halving of dt; a second-order step (a
    # flipped commutator, or midpoint steps) gains 4x
    assert all(coarse >= 12 * fine for coarse, fine in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1e-9, errors


DEFAULT_SIZES = [(m, n) for m in range(1, 4) for n in range(2, 5)]  # `verify`'s defaults


def _reconstruction(seed, monkeypatch, delta=None):
    if delta is not None:
        def shifted(frames, phases):
            return reconstruct_evolution(frames, phases) * np.exp(1j * delta)

        monkeypatch.setattr(verify, "reconstruct_evolution", shifted)
    report = run_verification(seed, DEFAULT_SIZES)
    return {s.name: s for s in report.suites}["evolution-reconstruction"]


def test_the_reconstruction_suite_fails_on_a_phase_error(monkeypatch):
    suite = _reconstruction(7, monkeypatch, delta=1e-5)
    assert not suite.passed


def test_the_reconstruction_suite_resolves_a_phase_error_of_1e_9(monkeypatch):
    # e^{i delta} U is off by |e^{i delta} - 1| sqrt(d) in the Frobenius
    # norm, and d = 5 is the largest reconstructed case at the default sizes
    delta = 1e-9
    suite = _reconstruction(7, monkeypatch, delta=delta)
    assert suite.passed
    assert abs(suite.max_error - np.sqrt(5) * delta) <= 0.1 * np.sqrt(5) * delta


def test_the_reconstruction_suite_reads_round_off_at_the_default_sizes(monkeypatch):
    suite = _reconstruction(7, monkeypatch)
    assert suite.passed and suite.max_error <= 1e-11


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
