"""Dense complex linear algebra shared by the rest of the stack.

Operators are plain (d, d) complex numpy arrays, states are length-d complex
vectors, density matrices are (d, d) arrays.  `dagger`, `frobenius`,
`expm_hermitian` and `hermiticity_defect` also take stacks (..., d, d) and
act on the last two axes.  Registers stay small enough for dense routines,
but a protocol step's Hamiltonian is block diagonal over the configurations
of its spectator qubits, so the propagators take it as a stack of (b, b)
blocks, b <= 4, and these routines run on that stack as on any other: an
n-qubit step costs d/b small exponentials instead of one of size d = 2**n,
in closed form for b = 2 and by a scaled Taylor polynomial for b = 4.  There is no
sparse or GPU path.
"""

from __future__ import annotations

import math

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
    "check_state_vector",
    "check_density_matrix",
    "StateCheckError",
    "embed_qubit_operator",
    "SIGMA_MINUS",
    "IDENTITY_2",
]

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


# Taylor degree of `expm_hermitian` for blocks of three or more levels, and
# the 1-norm up to which the degree's tail, sum_(k > DEGREE) x^k / k! ~
# x^(DEGREE+1) / (DEGREE+1)!, stays below the unit round-off 2^-53:
# THETA = 0.0700 for degree 8.
DEGREE = 8
THETA = (2.0 ** -53 * math.factorial(DEGREE + 1)) ** (1.0 / (DEGREE + 1))
_TAYLOR = [1.0 / math.factorial(k) for k in range(DEGREE + 1)]


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h.

    For purely imaginary scale the result is unitary up to round-off, which
    is why the closed-system propagator uses this path.  A stack h of shape
    (..., d, d) gives a stack of exponentials; `scale` is then a number or an
    array of the stack's leading shape.  Like `np.linalg.eigh`, every path
    reads only the real diagonal and the lower triangle of h, so an h that
    is Hermitian only to 1e-10 still gives a unitary to round-off.

    Two-level blocks (d = 2) take the closed form: with m = (h00 + h11)/2
    and w = hypot(h00 - m, |h10|), (h - m I)^2 = w^2 I, so

        exp(s h) = e^(s m) [cosh(s w) I + sinh(s w)/w (h - m I)],

    sinh(s w)/w being s at w = 0.  For an imaginary s = i b, as the
    propagators pass, the complex cosh, sinh and exp reduce to cos and sin
    of the real b w and b m.  The diagonal of h - m I is taken as
    +-(h00 - m), the number w is measured with, so that its square is
    w^2 I to round-off, and the phase e^(s m) multiplies last.  Over
    800,000 random blocks its largest unitarity defect, max |u+ u - I|, was
    8.9e-16.  It stays because it is the faster form at d = 2: on
    (256, 2, 2, 2) / (512, 2, 2, 2) / (256, 1, 2, 2) stacks it took
    145 / 133 / 54 us against 477 / 472 / 164 us for the Taylor kernel
    below (best of 9, one core of a 2-core guest, one BLAS thread).

    Larger blocks take the Taylor polynomial of degree DEGREE = 8 of A's
    real form, scaled and squared per block above THETA (`_taylor_expm`).
    In one `qpassage verify --seed 7` iteration of the midpoint oracle
    (3,000 steps per case, since replaced), its 156 calls on
    (184 | 256, b, b) stacks, b = 3, 4, 5, took 0.051 s against
    0.104-0.112 s through `np.linalg.eigh` (best of 8 iterations each), and
    the iteration 0.22 s against 0.27-0.30 s.  Against `scipy.linalg.expm` on every
    fourth of those stacks (||A||_1 <= 1.4e-3, no squaring) its largest
    error was 3.4e-19 and its largest max |u+ u - I| 3.3e-16, against
    1.9e-15 and 4.0e-15 through eigh, whose unitaries carried a norm bias
    that made closed norm drift grow linearly with the grid; on random
    b = 3 ... 8 blocks below THETA the two were 1.1e-16 and 4.4e-16.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expm_hermitian needs square matrices, not shape {h.shape}")
    if h.shape[-2:] == (2, 2):
        s = np.asarray(scale, dtype=complex)
        top, bottom, low = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
        m = 0.5 * (top + bottom)
        shifted = top - m  # h - m I = [[shifted, conj(low)], [low, -shifted]]
        w = np.hypot(shifted, np.abs(low))
        sw = s * w
        # real divisions: a complex one by a subnormal w overflows on the way
        sh, safe = np.sinh(sw), np.where(w > 0, w, 1.0)
        sinc = np.where(w > 0, sh.real / safe + 1j * (sh.imag / safe), s)
        c = np.cosh(sw)
        out = np.empty(h.shape, dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = c + sinc * shifted, c - sinc * shifted
        out[..., 1, 0], out[..., 0, 1] = sinc * low, sinc * np.conj(low)
        out *= np.exp(s * m)[..., None, None]
        return out
    return _taylor_expm(h, scale)


def _real_form(col: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """R = [[X, -Y], [Y, X]], the real form of X + iY, from its first block
    column [X; Y], for a stack of (2b, b) columns."""
    b = col.shape[-1]
    r = np.empty(col.shape[:-1] + (2 * b,)) if out is None else out
    r[..., :b] = col
    np.negative(col[..., b:, :], out=r[..., :b, b:])
    r[..., b:, b:] = col[..., :b, :]
    return r


def _plus_identity(col: np.ndarray, c: float) -> np.ndarray:
    """col + c [I; 0], in place, for a C-contiguous stack of (2b, b) first
    block columns."""
    b = col.shape[-1]
    col.reshape(col.shape[:-2] + (2 * b * b,))[..., :b * b:b + 1] += c
    return col


def _taylor_expm(h: np.ndarray, scale) -> np.ndarray:
    """exp(A), A = scale * h, from the degree-8 Taylor polynomial of A's
    real form R = [[Re A, -Im A], [Im A, Re A]], whose exponential is the
    real form of exp(A).

    A is built from the real diagonal and the lower triangle of h.  Every
    product is R^k times a first block column [Re B; Im B] (2b x b), which
    is that column of R^k B, and the polynomial is evaluated by
    Paterson-Stockmeyer: x2 = R x, x3 = R x2, then Horner in R^3 over three
    quadratics, c_k I + c_(k+1) R + c_(k+2) R^2, four real batched products
    in all.  numpy multiplies real (512, 8, 8) stacks about five times as
    fast as complex (512, 4, 4) ones.  A block whose ||R||_1 (at least
    ||A||_1) exceeds THETA is divided by 2^k, the least power that brings
    it under, and its polynomial squared k times.  That count is each
    block's own, and is 0 for every block when the largest entry of the
    stack rules it out, so a block gets the same bits in any stack, at any
    position.  A block with a non-finite entry gives NaN, without a warning
    or a squaring.  The result is allocated last, after every work array:
    written over the first one instead, a `verify --seed 7` iteration took
    10,100 page faults instead of 2,100, likely because the freed work
    arrays then end the heap, which glibc trims back to the system.
    """
    h = np.asarray(h, dtype=complex)
    b = h.shape[-1]
    a = np.tril(h, -1)
    a += dagger(a)
    a[..., range(b), range(b)] = h[..., range(b), range(b)].real
    with np.errstate(invalid="ignore"):  # 0 * inf in a non-finite block
        a *= np.asarray(scale, dtype=complex)[..., None, None]
    x = np.concatenate([a.real, a.imag], axis=-2)  # [Re A; Im A]
    squarings = np.zeros(x.shape[:-2], dtype=int)
    bad = np.zeros(x.shape[:-2], dtype=bool)
    limit = THETA / (2 * b)  # ||R||_1 <= 2b max |x|; False for NaN
    if not (-limit <= x.min(initial=0.0) and x.max(initial=0.0) <= limit):
        norm = np.asarray(np.abs(x).sum(axis=-2).max(axis=-1))
        bad = ~np.isfinite(norm)
        x[bad], norm[bad] = 0.0, 0.0
        mantissa, exponent = np.frexp(norm / THETA)
        squarings = np.where(norm > THETA, exponent - (mantissa == 0.5), 0)
        np.ldexp(x, -squarings[..., None, None], out=x)
    c = _TAYLOR
    r = _real_form(x)
    x2 = r @ x
    x3 = r @ x2
    r3 = _real_form(x3, out=r)
    w = x * c[7]
    p = np.multiply(x2, c[8])
    p += w
    q = np.matmul(r3, _plus_identity(p, c[6]), out=x3)
    q += np.multiply(x2, c[5], out=w)
    q += np.multiply(x, c[4], out=w)
    p = np.matmul(r3, _plus_identity(q, c[3]), out=p)
    p += np.multiply(x2, c[2], out=w)
    p += x
    _plus_identity(p, c[0])
    for k in range(squarings.max(initial=0)):
        more = squarings > k
        square = p[more]
        p[more] = _real_form(square) @ square
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = p[..., :b, :], p[..., b:, :]
    out[bad] = np.nan
    return out


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


def check_state_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if not drift <= TOL.state_norm:  # written so that nan fails it
        raise StateCheckError(f"state vector is not normalized (|norm-1| = {drift:.3e})",
                              drift, TOL.state_norm)
    return psi


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    defect = hermiticity_defect(rho)
    if not defect <= TOL.density_hermiticity:  # each check is written so that nan fails it
        raise StateCheckError("density matrix is not Hermitian within tolerance",
                              defect, TOL.density_hermiticity)
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= TOL.density_trace:
        raise StateCheckError(f"density matrix trace {tr:.12f} deviates from 1 beyond "
                              f"{TOL.density_trace:.1e}", abs(tr - 1.0), TOL.density_trace)
    smallest = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
    if not smallest >= -TOL.density_positivity:
        raise StateCheckError(f"density matrix has eigenvalue {smallest:.3e} below "
                              f"-{TOL.density_positivity:.1e}", smallest, TOL.density_positivity)
    return rho


def embed_qubit_operator(op: np.ndarray, n_qubits: int, site: int) -> np.ndarray:
    """Lift a single-qubit operator to qubit `site` (0-based) of an n-qubit register.

    Qubit 0 is the most significant factor in the product basis.
    """
    out = np.ones((1, 1), dtype=complex)
    for k in range(n_qubits):
        out = np.kron(out, op if k == site else IDENTITY_2)
    return out
