"""Linear heat dynamics under moment constraints.

The operator is never discretized from its strong form.  It is defined
variationally: on the constrained grid space V = {f : Bf = 0} the image Af
is characterized by (Af | h)_metric = (f | h)_L2 for every test h in V.
Constraints are kept as explicit quadrature rows and imposed through
Lagrange multipliers, so the same assembly serves every constraint kind.

The strong form -u'' + potential_coefficient(u) (1-x)^(n-2), with a point
mass correction for the unconstrained-mass cases, is computed independently
and used purely as a cross-check of the variational construction.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy

from .dual import ConstraintSpace, DualElement, as_dual, dual_inner, zero_mass_embed
from .errors import NumericalError
from .grid import (
    GridFunction,
    Polynomial,
    grid_points,
    poly_to_grid,
    second_derivative,
    trapezoid_weights,
)
from .moments import moment, moment_weight_row


def _import_lazily(name: str) -> None:
    """Import submodule ``name`` now but run its body on first attribute use.

    ``scipy.linalg`` takes about 0.35 s to import, and the exact identity
    checks never call LAPACK.  The module still goes into ``sys.modules``
    and is bound on its package, as an import would do, so the
    ``scipy.linalg.<name>`` call sites here and anything that patches the
    module's attributes act on one module object.  A module already
    imported is left as it is.
    """
    if name in sys.modules:
        return
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)


_import_lazily("scipy.linalg")


def endpoint_values(f):
    if isinstance(f, Polynomial):
        return f(Fraction(0)), f(Fraction(1))
    return float(f.values[0]), float(f.values[-1])


def potential_coefficient(f, n: int):
    """Strength of the induced potential along (1-x)^(n-2).

    Equal to (n-1)(2n-1) f(0) - (n-1)^2 (2n-1) mu_{n-2}(f) for n >= 2 and
    identically zero for n = 1, the only index without induced potential.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return Fraction(0) if isinstance(f, Polynomial) else 0.0
    f0, _ = endpoint_values(f)
    return (n - 1) * (2 * n - 1) * f0 - (n - 1) ** 2 * (2 * n - 1) * moment(f, n - 2)


def atom_coefficient(f0: float, f1: float, space: ConstraintSpace) -> float:
    """Point-mass coefficient c fixed by (c + f(1), f(0) - f(1)) lying in Y-perp.

    It applies to the unconstrained-mass cases.  When Y is the whole plane
    the condition also asks f(0) = f(1), which does not enter c.
    """
    if space.kind == "line":
        return -f1 - space.slope * (f0 - f1)
    if space.kind == "full":
        return -f1
    raise ValueError("atom coefficient only applies to line or full constraints")


def integration_by_parts_residual(u, h, n: int) -> float:
    """|LHS - RHS| of the pairing identity for second derivatives.

    LHS pairs the zero-mass embedding of u'' with h in the n-metric; RHS is
    -(u|h)_L2 plus a 3-vector of endpoint and moment data of u against
    (mu_0, mu_1, mu_n) of h.  Both operands are polynomials and the
    residual is an exact zero; grid operands raise TypeError.
    """
    if n < 1:
        raise ValueError("index must be positive")
    if not (isinstance(u, Polynomial) and isinstance(h, Polynomial)):
        raise TypeError("the pairing identity is checked on polynomials only")
    lhs = dual_inner(zero_mass_embed(u.derivative().derivative()), as_dual(h), n)
    u0, u1 = endpoint_values(u)
    mu_tail = moment(u, n - 2) if n >= 2 else 0
    coeff = [
        u1,
        n * u0 - n * (n - 1) * mu_tail,
        (1 - n) * u0 - u1 + n * (n - 1) * mu_tail,
    ]
    data = [moment(h, 0), moment(h, 1), moment(h, n)]
    rhs = -(u * h).definite_integral() + sum(a * b for a, b in zip(coeff, data))
    return abs(float(lhs - rhs))


# half-bandwidth of the interleaved (s_i, zeta_i) core of the KKT systems
_BAND = 3
# border scalars the metric adds ahead of the multipliers: theta, beta, a
_METRIC_BORDER = 3


@dataclass
class MetricKKT:
    """Factored saddle system [[metric/dt + diag(d), B^T], [B, 0]].

    Built by ``OperatorAssembly.factor``: a banded LU of the core plus an
    LU of the Schur complement on the border, which are all the
    factorizations a solve needs.
    """

    core: tuple
    schur: tuple
    border_rows: np.ndarray
    core_solved_cols: np.ndarray
    n_con: int

    def solve(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Primal part s of the solution for right-hand side (r, t)."""
        f = np.zeros(self.core_solved_cols.shape[0])
        f[0::2] = r
        z = _band_solve(self.core, f)
        g = -(self.border_rows @ z)
        g[_METRIC_BORDER:_METRIC_BORDER + self.n_con] += t
        y = scipy.linalg.lu_solve(self.schur, g, check_finite=False)
        return (z - self.core_solved_cols @ y)[0::2]


def _band_solve(core: tuple, rhs: np.ndarray) -> np.ndarray:
    lu, piv = core
    x, info = scipy.linalg.lapack.dgbtrs(lu, _BAND, _BAND, rhs, piv)
    if info != 0:
        raise ValueError(f"banded solve rejected its arguments (info {info})")
    return x


@dataclass
class OperatorAssembly:
    """Discrete forms for one (n, constraint space, grid) combination.

    The metric is the Gram matrix C^T W C + m0 m0^T of the ambient dual
    inner product on grid values, where C is the centered primitive (the
    running trapezoid integral minus mu_n) and W the trapezoid weights.  It
    is kept in that factored form: ``apply`` and ``metric_norm_sq`` cost
    O(N) per vector, ``factor`` solves its saddle systems in O(N), and
    ``eigensystem`` runs Lanczos on ``apply`` without forming a matrix
    unless asked for half the modes or more, which only ``spectrum`` and
    ``exponential`` stepping do.  ``eigensystem`` is the one eigensolver:
    those two and ``embedding_constant``, which takes the slowest mode, all
    read it.  ``weights`` carries the L2 form, and ``constraints`` holds
    the moment rows whose kernel is the admissible subspace; ``_gram_inv``
    is the inverse of their Gram matrix, for least-squares multipliers.
    """

    n: int
    space: ConstraintSpace
    n_points: int
    weights: np.ndarray
    constraints: np.ndarray
    _m0: np.ndarray = field(repr=False)
    _mn: np.ndarray = field(repr=False)
    _gram_inv: np.ndarray = field(repr=False)
    _step_cache: dict = field(default_factory=dict, repr=False)

    def _centered(self, v: np.ndarray) -> np.ndarray:
        """C v: running trapezoid integral of v minus mu_n(v)."""
        half_h = 0.5 / (self.n_points - 1)
        run = np.zeros_like(v, dtype=float)
        np.cumsum(half_h * (v[:-1] + v[1:]), axis=0, out=run[1:])
        run -= self._mn @ v
        return run

    def _centered_adjoint(self, y: np.ndarray) -> np.ndarray:
        """C^T y: trapezoid rows applied to the reverse running sum of y."""
        half_h = 0.5 / (self.n_points - 1)
        tail = np.cumsum(y[:0:-1], axis=0)[::-1]
        out = np.zeros_like(y, dtype=float)
        out[:-1] += tail
        out[1:] += tail
        out *= half_h
        out -= np.multiply.outer(self._mn, y.sum(axis=0))
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """metric @ v in O(N) per column; v may be a vector or a matrix."""
        w = self.weights if v.ndim == 1 else self.weights[:, None]
        return self._centered_adjoint(w * self._centered(v)) + \
            np.multiply.outer(self._m0, self._m0 @ v)

    def factor(self, dt: float, d: np.ndarray) -> MetricKKT:
        """Factor [[metric/dt + diag(d), B^T], [B, 0]] in O(N).

        With zeta = Delta^-T (W C s / dt) as primitive-side unknown, where
        Delta is the first-difference matrix with Delta e_0 = e_0, the
        metric part splits into a core and a border.  The core, in the
        interleaved unknowns (s_i, zeta_i), is

            [[diag(d), D'^T], [D', -dt Delta W^-1 Delta^T]]

        with D' = Delta C + e_0 q^T lower-bidiagonal: its row 0 is
        gamma e_0 and its row i >= 1 is h/2 (e_{i-1} + e_i), and
        q = mu_n + gamma e_0 for the constant gamma = h/2.  D' is
        invertible, so the core is nonsingular for every d >= 0, zeros
        included.  The border holds theta = zeta_0, beta = q . s,
        a = m0 . s / dt and the constraint multipliers.  The core is
        factored once by banded LU; the border is eliminated through its
        Schur complement.  Everything but diag(d) is built once per dt and
        cached as a template that each call copies before writing d.
        """
        key = ("kkt_template", float(dt))
        template = self._step_cache.get(key)
        if template is None:
            template = self._step_cache[key] = self._kkt_template(dt)
        band, cols, border, schur_diag = template
        # dgbtrf factors in place, so the cached band must stay untouched
        ab = band.copy(order="F")
        ab[2 * _BAND, 0::2] = d
        lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, _BAND, _BAND,
                                                   overwrite_ab=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular core at position {info}")
        core = (lu, piv)
        solved = _band_solve(core, cols)
        schur = np.diag(schur_diag) - border @ solved
        return MetricKKT(core=core,
                         schur=scipy.linalg.lu_factor(schur, check_finite=False),
                         border_rows=border,
                         core_solved_cols=solved,
                         n_con=self.constraints.shape[0])

    def _kkt_template(self, dt: float) -> tuple:
        """The parts of ``factor``'s system that do not depend on d.

        Returns the core in LAPACK band storage with zeros where diag(d)
        goes, the border columns and rows, and the diagonal of the border
        block (ones for theta, beta and a, zeros for the multipliers).
        """
        n_pts, rows = self.n_points, self.constraints
        n_con = rows.shape[0]
        half_h = 0.5 / (n_pts - 1)
        inv_w = 1.0 / self.weights
        # LAPACK band storage: entry (i, j) sits at ab[2 * _BAND + i - j, j]
        size = 2 * n_pts
        ab = np.zeros((3 * _BAND + 1, size), order="F")
        diag = 2 * _BAND
        tri = inv_w.copy()
        tri[1:] += inv_w[:-1]
        ab[diag, 1::2] = -dt * tri
        # D' (gamma = h/2 makes its diagonal uniform) and its transpose
        ab[diag + 1, 0::2] = half_h           # (zeta_i, s_i)
        ab[diag - 1, 1::2] = half_h           # (s_i, zeta_i)
        ab[diag + 3, 0:-2:2] = half_h         # (zeta_i, s_{i-1})
        ab[diag - 3, 3::2] = half_h           # (s_{i-1}, zeta_i)
        ab[diag + 2, 1:-2:2] = dt * inv_w[:-1]   # (zeta_i, zeta_{i-1})
        ab[diag - 2, 3::2] = dt * inv_w[:-1]     # (zeta_{i-1}, zeta_i)

        # border columns enter the s rows (theta: -q, a: m0, multipliers:
        # B^T) or the zeta_0 row (beta: -1); border rows state
        # theta = zeta_0, beta = q . s, a = m0 . s / dt, B s = t
        q = self._mn.copy()
        q[0] += half_h
        lam = slice(_METRIC_BORDER, _METRIC_BORDER + n_con)
        cols = np.zeros((size, lam.stop), order="F")
        border = np.zeros((lam.stop, size))
        cols[0::2, 0] = -q
        cols[1, 1] = -1.0
        cols[0::2, 2] = self._m0
        cols[0::2, lam] = rows.T
        border[0, 1] = -1.0
        border[1, 0::2] = -q
        border[2, 0::2] = -self._m0 / dt
        border[lam, 0::2] = rows
        schur_diag = np.ones(lam.stop)
        schur_diag[lam] = 0.0
        return ab, cols, border, schur_diag

    def eigensystem(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k smallest eigenvalues lam, ascending, and their N x k modes.

        lam are the reciprocals of the k largest eigenvalues mu of the
        metric on V = {Bf = 0} in the L2 form.  In the coordinates
        g = W^1/2 f that is the symmetric operator Q W^-1/2 M W^-1/2 Q, with
        Q the orthogonal projection off the scaled constraint rows.  When
        2k < dim V, implicitly restarted Lanczos finds its top mu from O(N)
        products with ``apply``: no N x N array is formed.  The start vector
        is Q times a fixed seeded vector, so the result is bitwise
        repeatable.  Otherwise Lanczos would need a Krylov space about as
        large as V, and a dense ``eigh`` of the operator on the last dim V
        columns of a complete QR of the scaled rows serves instead, O(N^2)
        memory and O(N^3) time.  The modes are L2-orthonormal,
        modes^T W modes = I, and carry the metric diag(1/lam).
        """
        import scipy.sparse.linalg  # slow to import; only used here

        n_con = self.constraints.shape[0]
        dim = self.n_points - n_con
        if k < 1:
            raise ValueError("need at least one eigenvalue")
        if k > dim:
            raise ValueError("fewer modes than requested")
        scale = self.weights ** -0.5
        scaled_rows = (self.constraints * scale).T
        if 2 * k >= dim:
            basis = np.linalg.qr(scaled_rows, mode="complete")[0][:, n_con:]
            reduced = basis.T @ (scale[:, None] * self.apply(scale[:, None] * basis))
            try:
                mu, vec = scipy.linalg.eigh(reduced)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigensolver failed: {exc}") from exc
            mu, g = mu[::-1][:k], basis @ vec[:, ::-1][:, :k]
        else:
            basis = np.linalg.qr(scaled_rows)[0]

            def project(g):
                return g - basis @ (basis.T @ g)

            def matvec(g):
                g = project(np.ravel(g))
                return project(scale * self.apply(scale * g))

            op = scipy.sparse.linalg.LinearOperator(
                (self.n_points, self.n_points), matvec=matvec, dtype=float)
            v0 = project(np.random.default_rng(0).standard_normal(self.n_points))
            try:
                mu, g = scipy.sparse.linalg.eigsh(op, k, which="LA", v0=v0)
            except scipy.sparse.linalg.ArpackError as exc:  # includes NoConvergence
                raise NumericalError(f"Lanczos eigensolver failed: {exc}") from exc
            top = np.argsort(mu)[::-1]
            mu, g = mu[top], g[:, top]
        return 1.0 / mu, scale[:, None] * g

    def metric_norm_sq(self, values: np.ndarray) -> float:
        c = self._centered(values)
        return float(self.weights @ (c * c) + (self._m0 @ values) ** 2)


def assemble_operator(n: int, space: ConstraintSpace,
                      n_points: int) -> OperatorAssembly:
    """Collect the moment rows, L2 form and constraint rows; O(N)."""
    if n < 1:
        raise ValueError("index must be positive")
    if n_points < 17:
        raise ValueError("at least 17 grid points required")
    rows = space.constraint_rows(n, n_points)
    return OperatorAssembly(n=n, space=space, n_points=n_points,
                            weights=trapezoid_weights(n_points),
                            constraints=rows,
                            _m0=moment_weight_row(0, n_points),
                            _mn=moment_weight_row(n, n_points),
                            _gram_inv=np.linalg.inv(rows @ rows.T))


def spectrum(asm: OperatorAssembly, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the constrained operator, ascending.

    They come from ``asm.eigensystem(k)``, which says how they are found.
    """
    return asm.eigensystem(k)[0]


def _potential_row(n: int, n_points: int) -> np.ndarray:
    """Row vector g with g @ f = potential_coefficient(f, n) on the grid."""
    if n == 1:
        return np.zeros(n_points)
    row = -(n - 1) ** 2 * (2 * n - 1) * moment_weight_row(n - 2, n_points)
    row[0] += (n - 1) * (2 * n - 1)
    return row


def _potential_metric_rep(n: int, n_points: int) -> np.ndarray:
    """Grid functional h -> (embedded weight polynomial | h)_metric.

    For n >= 2 the pairing of the embedded (1-x)^(n-2) against h in the
    n-metric collapses to n/((n-1)(2n-1)) (mu_1(h) - mu_n(h)).
    """
    if n == 1:
        return np.zeros(n_points)
    scale = n / ((n - 1) * (2 * n - 1))
    return scale * (moment_weight_row(1, n_points) - moment_weight_row(n, n_points))


# exponential stepping starts from this many modes and doubles them until
# the last one decays by at least e^-_EXP_DECAY per step
_EXP_MODES = 16
_EXP_DECAY = 40.0


def _exponential_modes(asm: OperatorAssembly, dt: float) -> tuple:
    """``asm.eigensystem(K)`` for the K that ``heat_step`` documents."""
    dim = asm.n_points - asm.constraints.shape[0]
    k = min(_EXP_MODES, dim)
    while True:
        lam, modes = asm.eigensystem(k)
        if k == dim or lam[-1] * dt >= _EXP_DECAY:
            return lam, modes
        k = min(2 * k, dim)


def heat_step(asm: OperatorAssembly, u: GridFunction, dt: float,
              scheme: str = "implicit_euler", eta: float = 1.0) -> GridFunction:
    """Advance the constrained heat semigroup by one step of length dt.

    ``implicit_euler`` solves the saddle system (metric/dt + L2 form) with
    the constraint rows as multipliers.  ``eta`` scales the induced
    potential inside the generator: 1 is the variational operator, 0 is the
    bare heat equation under the same moment conditions.  Values other than
    1 add the rank-one term (eta - 1) c g^T, g the potential row and c its
    metric representative, which the cached eta = 1 factors take by the
    Sherman-Morrison formula at one extra solve per dt.  ``exponential``
    applies the exact matrix exponential in the modes of ``asm.eigensystem``
    and requires eta = 1.  It keeps the smallest K of 16, 32, 64, ... with
    lam_K dt >= 40, or every mode once K reaches dim V: each mode it drops
    would shrink by e^-40 (about 4e-18) or more per step, so the truncated
    exponential equals the full one to rounding.  The modes are cached per
    dt.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError("time step must be positive and finite")
    if scheme == "exponential":
        if eta != 1.0:
            raise ValueError("exponential stepping only covers the variational operator")
        key = ("exponential", float(dt))
        eig = asm._step_cache.get(key)
        if eig is None:
            eig = asm._step_cache[key] = _exponential_modes(asm, dt)
        lam, modes = eig
        coeff = modes.T @ (asm.weights * u.values)
        return GridFunction(modes @ (np.exp(-lam * dt) * coeff))
    if scheme != "implicit_euler":
        raise ValueError(f"unknown scheme {scheme!r}")
    key = ("implicit_euler", float(dt))
    kkt = asm._step_cache.get(key)
    if kkt is None:
        try:
            kkt = asm._step_cache[key] = asm.factor(dt, asm.weights)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular step system: {exc}") from exc
    no_data = np.zeros(asm.constraints.shape[0])
    s = kkt.solve(asm.apply(u.values) / dt, no_data)
    if eta != 1.0:
        key = ("potential_rep", float(dt))
        rep = asm._step_cache.get(key)
        if rep is None:
            rep = asm._step_cache[key] = (
                _potential_row(asm.n, asm.n_points),
                kkt.solve(_potential_metric_rep(asm.n, asm.n_points), no_data))
        row, s_rep = rep
        shift = eta - 1.0
        s = s - shift * s_rep * (row @ s) / (1.0 + shift * (row @ s_rep))
    out = GridFunction(s)
    violation = float(np.max(np.abs(asm.constraints @ out.values), initial=0.0))
    if violation > 1e-8 * max(1.0, float(np.max(np.abs(out.values)))):
        raise NumericalError(f"constraint drift {violation:.3e} after step")
    return out


def _strong_image(u: GridFunction, n: int) -> GridFunction:
    """-u'' + potential_coefficient(u, n) (1-x)^(n-2) on the grid."""
    image = -1.0 * second_derivative(u)
    if n >= 2:
        weight = (1.0 - grid_points(u.n_points)) ** (n - 2)
        image = GridFunction(image.values + potential_coefficient(u, n) * weight)
    return image


def strong_apply(u: GridFunction, n: int, space: ConstraintSpace,
                 constraint_tol: float | None = None) -> DualElement:
    """Strong-form image: -u'' plus the induced potential, mass-balanced.

    For the unconstrained-mass spaces the point mass additionally carries
    the orthogonality coefficient.  This is the diagnostic counterpart of
    the variational operator; agreement between the two is a consistency
    check, not a definition.  Inputs must satisfy the moment constraints,
    by default to within 100 h^2 (the quadrature moments of an exactly
    admissible smooth function are themselves only O(h^2) small).
    """
    if constraint_tol is None:
        constraint_tol = 100.0 * u.spacing ** 2
    violation = space.violation(u, n)
    if violation > constraint_tol:
        raise ValueError(f"input violates moment constraints by {violation:.3e}")
    out = zero_mass_embed(_strong_image(u, n))
    if not space.forces_zero_mass:
        u0, u1 = endpoint_values(u)
        c = atom_coefficient(u0, u1, space)
        out = DualElement(out.regular, out.atom - c)
    return out


def weak_strong_residual(u: Polynomial, tests, n: int, space: ConstraintSpace,
                         n_points: int) -> float:
    """Worst weak-form gap between the strong image and the L2 pairing.

    Both u and the test functions are exact polynomials admissible for the
    constraint space, evaluated on the grid; the gap decays at the scheme
    order O(h^2) under refinement.
    """
    ug = poly_to_grid(u, n_points)
    return weak_pairing_gap(strong_apply(ug, n, space), ug,
                            [poly_to_grid(h, n_points) for h in tests],
                            assemble_operator(n, space, n_points))


def weak_pairing_gap(image: DualElement, u: GridFunction, tests,
                     asm: OperatorAssembly) -> float:
    """Worst |(image | h)_metric - (u | h)_L2| over the grid tests h.

    The density of the image pairs through ``asm.apply``; its atom, which
    only total mass sees, pairs with mu_0(h).
    """
    worst = 0.0
    for h in tests:
        lhs = float(image.regular.values @ asm.apply(h.values)) + \
            image.atom * moment(h, 0)
        rhs = float(asm.weights @ (u.values * h.values))
        worst = max(worst, abs(lhs - rhs))
    return worst


def regularity_residuals(u: GridFunction, n: int) -> tuple:
    """Moments (mu_0, mu_n) of u'' minus the induced potential term.

    Smooth states reached by the constrained flow at positive times
    annihilate both moments; on the grid the residuals decay at O(h^2).
    """
    image = _strong_image(u, n)
    return -moment(image, 0), -moment(image, n)


def atom_consistency_residual(before: GridFunction, mid: GridFunction,
                              after: GridFunction, dt: float, n: int,
                              space: ConstraintSpace) -> float:
    """Gap in the orthogonality condition fixing the point-mass coefficient.

    Along the flow the total mass evolves at exactly the point-mass
    coefficient, so a central difference of the mass over three consecutive
    states reconstructs it independently of the endpoint formula.  The
    reconstruction is then inserted into the orthogonality condition; flow
    states at positive times satisfy it to discretization error.  (A direct
    second-difference reconstruction is useless here: the grid image of the
    operator mimics the point mass with a boundary spike.)
    """
    if space.forces_zero_mass:
        raise ValueError("only line or full constraints carry a point mass")
    mass = moment_weight_row(0, mid.n_points)
    c_hat = float(mass @ (after.values - before.values)) / (2.0 * dt)
    u0, u1 = endpoint_values(mid)
    first = c_hat + u1
    second = u0 - u1
    if space.kind == "line":
        return abs(first + space.slope * second)
    return max(abs(first), abs(second))


