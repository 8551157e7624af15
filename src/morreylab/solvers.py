"""Spectral solvers for the model equations, the drift fixed-point
iteration, the a(t) Fourier solver, and the a-priori-ratio evaluator.

All solves are periodic-spectral; whole-space claims are probed by doubling
the box and confirming insensitivity.  Sign conventions: solve_laplace
returns u with  Delta u - lam u + f = 0;  solve_heat returns u with
 du/dt + a^{ij}(t) D_ij u - lam u + f = 0  (backward-causal resolvent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ConfigError, Field, _wavenumbers
from .maximal import classical_maximal
from .norms import evaluate_norms
from .potentials import _check_sdelta, heat_resolvent_modewise

__all__ = [
    "OperatorSpec",
    "DriftDivergence",
    "solve_laplace",
    "solve_heat",
    "solve_drift",
    "apply_operator",
    "apriori_ratio",
    "apriori_ratios",
    "oscillation_estimate",
    "random_sdelta",
    "sdelta_brackets",
    "spectral_derivative_fields",
    "gradient_magnitude",
    "hessian_magnitude",
    "denominator_floor",
]

DENOM_FLOOR = 1e-14


class DriftDivergence(RuntimeError):
    """The measured contraction factor reached 1: the drift is too large.

    Carries the factor and the convergence trace; divergence here is a
    feature (the counterexample drifts must trigger it).
    """

    def __init__(self, kappa_c, trace):
        super().__init__(f"drift iteration divergent: contraction factor {kappa_c:.3f}")
        self.kappa_c = kappa_c
        self.trace = trace


@dataclass
class OperatorSpec:
    """kind in {laplace, heat, heat_at}; lam >= 0; optional drift b (list of
    Fields, one per space axis); a_of_t path for heat_at; delta ellipticity."""

    kind: str
    lam: float = 0.0
    b: list = None
    a_of_t: np.ndarray = None
    delta: float = None

    def __post_init__(self):
        if self.kind not in ("laplace", "heat", "heat_at"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.a_of_t is not None and self.delta is not None:
            _check_sdelta(np.asarray(self.a_of_t), self.delta)


def _xaxes(grid, parabolic):
    return tuple(range(1, grid.dim)) if parabolic else tuple(range(grid.dim))


def solve_laplace(f, lam):
    """u with Delta u - lam u + f = 0 on the periodic grid (spectral).

    lam > 0 required; lam = 0 is allowed for mean-zero f (the zero mode of
    u is set to zero).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    grid = f.grid
    if not grid.periodic:
        raise ValueError("solve_laplace needs a periodic grid")
    ksq = sum(k ** 2 for k in _wavenumbers(grid, range(grid.dim)))
    fh = np.fft.fftn(f.values)
    denom = ksq + lam
    if lam == 0:
        zero = tuple(0 for _ in grid.cells)
        if abs(fh[zero]) > 1e-9 * np.abs(fh).max():
            raise ValueError("lam = 0 requires a mean-zero source")
        denom = denom.copy()
        denom[zero] = 1.0
        fh = fh.copy()
        fh[zero] = 0.0
    uh = fh / denom
    return Field(grid, np.fft.ifftn(uh).real)


def solve_heat(f, lam, a_of_t=None, delta=None):
    """u with du/dt + a^{ij}(t) D_ij u - lam u + f = 0, causal in t.

    Returns (u, ut): ut is the exact time derivative of the mode-wise
    solution (f enters as its piecewise-constant-in-t interpolant).
    """
    return heat_resolvent_modewise(f, lam, a_of_t=a_of_t, delta=delta)


def _spectral_pass(u, structure):
    """(xaxes, ks, odd, back) of one spectral derivative pass of u: the
    space axes, the wavenumbers on the half spectrum of rfftn, each with its
    Nyquist entry (cells are even) set to 0 in odd, and back(factor), the
    irfftn of the spectrum of u times factor."""
    grid = u.grid
    if not grid.periodic:
        raise ValueError("spectral_derivative_fields needs a periodic grid")
    xaxes = _xaxes(grid, structure is not None and structure.parabolic)
    ks = _wavenumbers(grid, range(grid.dim))
    ks[-1] = ks[-1][..., : grid.cells[-1] // 2 + 1]  # the half spectrum of rfftn
    odd = []
    for k, n in zip(ks, grid.cells):
        k = k.copy()
        k.flat[n // 2] = 0.0
        odd.append(k)
    uh = np.fft.rfftn(u.values)

    def back(factor):
        return np.fft.irfftn(uh * factor, s=grid.cells, axes=range(grid.dim))

    return xaxes, ks, odd, back


def spectral_derivative_fields(u, structure):
    """(Du list, D2 matrix, lap, ut or None), spectral on the periodic grid.

    One rfftn and one irfftn per output; d2[j][i] is the array d2[i][j].
    Each output is the real part of the complex-transform derivative: a
    first-order factor is 0 at the Nyquist index, and so is an off-diagonal
    D2 factor where exactly one of its two axes is there.
    """
    xaxes, ks, odd, back = _spectral_pass(u, structure)
    du = [back(1j * odd[a]) for a in xaxes]
    d2 = [[None] * len(xaxes) for _ in xaxes]
    for i, a in enumerate(xaxes):
        d2[i][i] = back(-ks[a] ** 2)
        for j in range(i + 1, len(xaxes)):
            b = xaxes[j]
            both_nyquist = (ks[a] - odd[a]) * (ks[b] - odd[b])
            d2[i][j] = d2[j][i] = back(-(odd[a] * odd[b] + both_nyquist))
    lap = sum(d2[i][i] for i in range(len(xaxes)))
    ut = back(1j * odd[0]) if structure is not None and structure.parabolic else None
    return du, d2, lap, ut


def gradient_magnitude(du):
    """|Du| from the Du list of spectral_derivative_fields."""
    return np.sqrt(sum(x ** 2 for x in du))


def hessian_magnitude(d2):
    """|D^2 u|, the Frobenius norm of its D2 matrix, summed row by row."""
    return np.sqrt(sum(x ** 2 for row in d2 for x in row))


def _spectral_gradient(u, structure):
    """The Du list of spectral_derivative_fields alone, by the same pass."""
    xaxes, _ks, odd, back = _spectral_pass(u, structure)
    return [back(1j * odd[a]) for a in xaxes]


def apply_operator(u, op, structure):
    """L u - lam u evaluated spectrally (band-limited u on the torus)."""
    return _operator_from_derivatives(u, op, spectral_derivative_fields(u, structure))


def _operator_from_derivatives(u, op, derivatives):
    """L u - lam u from the spectral_derivative_fields of u."""
    grid = u.grid
    du, d2, lap, ut = derivatives
    if op.kind == "laplace":
        out = lap - op.lam * u.values
    elif op.kind == "heat":
        out = ut + lap - op.lam * u.values
    else:
        a = np.asarray(op.a_of_t)
        nt = grid.cells[0]
        if a.shape[0] != nt:
            raise ValueError("a_of_t must carry one matrix per time slab")
        d = grid.dim - 1
        out = ut - op.lam * u.values
        for i in range(d):
            for j in range(d):
                out = out + a[:, i, j].reshape((-1,) + (1,) * d) * d2[i][j]
    if op.b is not None:
        for i, bi in enumerate(op.b):
            out = out + bi.values * du[i]
    return Field(grid, out)


def solve_drift(f, lam, b, structure, max_iter=40):
    """Successive approximation for  Delta u + b.Du - lam u + f = 0
    (or the heat analog on parabolic structures).

    u0 = 0; u_{n+1} solves the drift-free resolvent with source f + b.Du_n.
    Raises DriftDivergence with the measured contraction factor when the
    update ratio reaches 1 (this is a feature: the counterexample drifts
    must diverge or produce unbounded ratios).  Stops once the RMS update
    is at most 1e-10 times the RMS of u.
    Returns (u, trace) with trace the list of RMS update norms.
    """
    grid = f.grid
    parab = structure.parabolic

    def resolvent(src):
        if parab:
            return solve_heat(src, lam)[0]
        return solve_laplace(src, lam)

    def bdotgrad(u):
        du = _spectral_gradient(u, structure)
        acc = np.zeros(grid.cells)
        for bi, di in zip(b, du):
            acc += bi.values * di
        return acc

    def nrm(v):
        return float(np.sqrt(np.mean(v ** 2)))

    u = Field(grid, np.zeros(grid.cells))
    trace = []
    prev_update = None
    for it in range(max_iter):
        src = Field(grid, f.values + bdotgrad(u))
        u_next = resolvent(src)
        upd = nrm(u_next.values - u.values)
        trace.append(upd)
        if prev_update is not None and prev_update > 0:
            kappa_c = upd / prev_update
            if kappa_c >= 1.0 and it >= 2:
                raise DriftDivergence(kappa_c, trace)
        denom = nrm(u_next.values)
        u = u_next
        if denom > 0 and upd <= 1e-10 * denom:
            return u, trace
        prev_update = upd
    return u, trace


def denominator_floor(den, u_norm):
    """Apply the absolute floor 1e-14 ||u|| before declaring infinity."""
    if den <= DENOM_FLOOR * u_norm:
        return math.inf
    return den


def apriori_ratio(u, op, norm_spec, structure, norm_eval=None):
    """apriori_ratios for one operator: its dict."""
    return apriori_ratios(u, [op], norm_spec, structure, norm_eval)[0]


def apriori_ratios(u, ops, norm_spec, structure, norm_eval=None):
    """For each op, the numerator parts ||D^2 u||, sqrt(lam)||Du||, lam||u||
    (plus ||du/dt|| on parabolic structures) in the requested norm, against
    ||L u - lam u||.

    One derivative pass and one field list serve every op: u, |D^2 u|,
    |Du|, (u_t), then one residual per op, each evaluated once.
    norm_eval(field) -> float may override the norm; otherwise norms.
    evaluate_norms with norm_spec takes the whole list in one pass.  Returns
    one dict per op with the parts, the denominator and the ratio (inf when
    the denominator is floored).
    """
    grid = u.grid
    derivatives = spectral_derivative_fields(u, structure)
    du, d2, lap, ut = derivatives
    fields = [u, Field(grid, hessian_magnitude(d2)), Field(grid, gradient_magnitude(du))]
    if ut is not None:
        fields.append(Field(grid, ut))
    fields += [_operator_from_derivatives(u, op, derivatives) for op in ops]
    if norm_eval is None:
        values = evaluate_norms(fields, norm_spec, structure)
    else:
        values = [norm_eval(fld) for fld in fields]
    u_norm, d2_norm, du_norm = values[:3]  # u_norm: the u part and the floor's scale
    out = []
    for op, den_raw in zip(ops, values[len(fields) - len(ops):]):
        parts = {"d2": d2_norm, "du": math.sqrt(op.lam) * du_norm, "u": op.lam * u_norm}
        if ut is not None:
            parts["ut"] = values[3]
        den = denominator_floor(den_raw, u_norm if u_norm > 0 else 1.0)
        num = max(parts.values())
        ratio = math.inf if not math.isfinite(den) else (num / den if den > 0 else math.inf)
        out.append({
            "parts": parts,
            "numerator": num,
            "denominator": den_raw,
            "ratio": ratio,
            "floored": not math.isfinite(den),
        })
    return out


def oscillation_estimate(u, f_rhs, structure, kappa, rho, p, center=None):
    """Oscillation bound data at the origin:

        osc_{B_rho} D^2 u   vs   kappa^{d/p} slash||f||_{L_p(B_{kappa rho})}
                                 + kappa^{-1} M|f|(0)

    (cylinders and kappa^{(d+2)/p} on parabolic structures).  Returns the
    left side and both right-hand terms so callers can fit the constants.
    """
    if kappa < 2:
        raise ValueError("need kappa >= 2")
    grid = u.grid
    parab = structure.parabolic
    d_eff = (grid.dim - 1) + 2 if parab else grid.dim
    d2_mag = hessian_magnitude(spectral_derivative_fields(u, structure)[1])
    xs = grid.mesh()
    if center is None:
        center = [0.0] * grid.dim
    if parab:
        inner = (xs[0] >= center[0]) & (xs[0] < center[0] + rho ** 2)
        rr = sum((xs[a] - center[a]) ** 2 for a in range(1, grid.dim))
        inner &= rr < rho ** 2
        outer_t = (xs[0] >= center[0]) & (xs[0] < center[0] + (kappa * rho) ** 2)
        outer = outer_t & (rr < (kappa * rho) ** 2)
    else:
        rr = sum((xs[a] - center[a]) ** 2 for a in range(grid.dim))
        inner = rr < rho ** 2
        outer = rr < (kappa * rho) ** 2
    vals = d2_mag[inner]
    if not vals.size:
        # an empty member has no oscillation to compare: the grid is too coarse
        raise ConfigError(f"the rho = {rho:g} member at {list(center)} holds no cell of the "
                          f"{'x'.join(map(str, grid.cells))} grid (cell widths "
                          f"{', '.join(f'{h:.4g}' for h in grid.h)}); refine the grid")
    if vals.size > 4000:
        vals = vals[:: int(np.ceil(vals.size / 4000))]
    osc = float(np.abs(vals[None, :] - vals[:, None]).mean())
    # slashed L_p over the kappa rho member
    fv = np.where(outer, np.abs(f_rhs.values), 0.0)
    slashed = (float((fv ** p).sum()) / max(int(outer.sum()), 1)) ** (1.0 / p)
    mf = classical_maximal(f_rhs, structure)
    i0 = tuple(int(np.argmin(np.abs(grid.axis(a) - center[a]))) for a in range(grid.dim))
    m_at_0 = float(mf.values[i0])
    term1 = kappa ** (d_eff / p) * slashed
    term2 = m_at_0 / kappa
    return {"osc": osc, "term_local": term1, "term_tail": term2}


def random_sdelta(rng, d, delta):
    """Random symmetric matrix with eigenvalues in [delta, 1/delta]."""
    return _sdelta_from_draws(rng.normal(size=(d, d)), rng.uniform(delta, 1.0 / delta, size=d))


def _sdelta_from_draws(g, ev):
    """q diag(ev) q^T with q the Q factor of g: the matrix random_sdelta
    builds from its draws.  Leading axes of g and ev are a stack."""
    q, _ = np.linalg.qr(g)
    return (q * ev[..., None, :]) @ np.swapaxes(q, -1, -2)


def sdelta_brackets(a, u):
    """{a, u} = a^{ij} a^{kr} u_{ik} u_{jr} = tr(a u a u) for symmetric a, u.
    Leading axes of a and u are a stack, with one bracket each."""
    au = a @ u
    return (au * (u @ a)).sum(axis=(-2, -1))
