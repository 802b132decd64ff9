"""Dense complex linear algebra shared by the rest of the stack.

Operators are plain (d, d) complex numpy arrays, states are length-d complex
vectors, density matrices are (d, d) arrays.  `dagger`, `frobenius`,
`expm_hermitian` and `hermiticity_defect` also take stacks (..., d, d) and
act on the last two axes.  Registers stay small enough for dense routines,
but a protocol step's Hamiltonian is block diagonal over the configurations
of its spectator qubits, so the propagators take it as a stack of (b, b)
blocks, b <= 4, and these routines run on that stack as on any other: an
n-qubit step costs d/b small eigendecompositions instead of one of size
d = 2**n.  There is no sparse or GPU path.
"""

from __future__ import annotations

import numpy as np

from .tolerances import TOL

__all__ = [
    "dagger",
    "kron",
    "outer",
    "basis_state",
    "frobenius",
    "expm_hermitian",
    "gram_matrix",
    "completeness_defect",
    "hermiticity_defect",
    "check_hermitian",
    "check_state_vector",
    "check_density_matrix",
    "StateCheckError",
    "embed_qubit_operator",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "IDENTITY_2",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# qubit basis order is (|e>, |g>), so the lowering operator |g><e| is:
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate (of each matrix in a stack)."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; output dimensions are the products of the inputs'."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def outer(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """|u><v| (|u><u| when v is omitted)."""
    if v is None:
        v = u
    return np.outer(np.asarray(u, dtype=complex), np.conj(v))


def basis_state(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix in a stack.

    The squares are summed as two inner products, real and imaginary parts,
    which is the order np.linalg.norm sums one matrix in, so a stack gives the
    same bits as a loop over its matrices.
    """
    a = np.asarray(a, dtype=complex)
    rows = a.reshape(a.shape[:-2] + (1, -1))  # each matrix as one row vector
    re, im = rows.real, rows.imag
    squares = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(squares[..., 0, 0])[()]


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h via eigendecomposition.

    For purely imaginary scale the result is unitary up to round-off, which
    is why the closed-system propagator uses this path.  A stack h of shape
    (..., d, d) gives a stack of exponentials; `scale` is then a number or an
    array of the stack's leading shape.
    """
    w, v = np.linalg.eigh(h)
    factors = np.exp(np.asarray(scale)[..., None] * w)
    return (v * factors[..., None, :]) @ dagger(v)


def gram_matrix(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix G_ij = <v_i|v_j> of the columns of `vectors`."""
    v = np.asarray(vectors, dtype=complex)
    return dagger(v) @ v


def completeness_defect(vectors: np.ndarray) -> float:
    """|| sum_k |v_k><v_k| - 1 ||_max for the columns of a square frame; the
    largest over a (T, d, d) stack of frames."""
    v = np.asarray(vectors, dtype=complex)
    return float(np.max(np.abs(v @ dagger(v) - np.eye(v.shape[-1]))))


def hermiticity_defect(a: np.ndarray, axis: tuple = (-2, -1)):
    """max|A - A^dag| relative to max|A| (zero matrix gives zero); one value
    per matrix of a stack.  `axis=(-3, -2, -1)` takes each block-diagonal
    operator of a stack of (S, b, b) blocks as one A."""
    a = np.asarray(a, dtype=complex)
    scale = np.max(np.abs(a), axis=axis)
    defect = np.max(np.abs(a - dagger(a)), axis=axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale == 0.0, 0.0, defect / scale)[()]


class StateCheckError(ValueError):
    """A state failed a validity check: `value` is the measured quantity (a
    defect, a drift or the smallest eigenvalue) and `bound` the tolerance it
    broke."""

    def __init__(self, message: str, value: float, bound: float):
        super().__init__(message)
        self.value = value
        self.bound = bound


def check_hermitian(a: np.ndarray, tol: float = TOL.hermiticity, what: str = "operator") -> np.ndarray:
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"{what} is not Hermitian (relative defect {defect:.3e} > {tol:.1e})")
    return a


def check_state_vector(psi: np.ndarray, tol: float = TOL.state_norm) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if not drift <= tol:  # written so that nan fails it
        raise StateCheckError(f"state vector is not normalized (|norm-1| = {drift:.3e})",
                              drift, tol)
    return psi


def check_density_matrix(rho: np.ndarray,
                         herm_tol: float = TOL.density_hermiticity,
                         trace_tol: float = TOL.density_trace,
                         pos_tol: float = TOL.density_positivity) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    defect = hermiticity_defect(rho)
    if not defect <= herm_tol:  # each check is written so that nan fails it
        raise StateCheckError("density matrix is not Hermitian within tolerance",
                              defect, herm_tol)
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= trace_tol:
        raise StateCheckError(f"density matrix trace {tr:.12f} deviates from 1 beyond "
                              f"{trace_tol:.1e}", abs(tr - 1.0), trace_tol)
    smallest = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
    if not smallest >= -pos_tol:
        raise StateCheckError(f"density matrix has eigenvalue {smallest:.3e} below "
                              f"-{pos_tol:.1e}", smallest, pos_tol)
    return rho


def embed_qubit_operator(op: np.ndarray, n_qubits: int, site: int) -> np.ndarray:
    """Lift a single-qubit operator to qubit `site` (0-based) of an n-qubit register.

    Qubit 0 is the most significant factor in the product basis.
    """
    out = np.ones((1, 1), dtype=complex)
    for k in range(n_qubits):
        out = np.kron(out, op if k == site else IDENTITY_2)
    return out
