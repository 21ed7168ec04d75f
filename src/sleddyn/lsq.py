"""Bounded nonlinear least squares by the trust-region reflective method, in numpy.

A port of the path that ``scipy.optimize.least_squares`` (scipy 1.17)
takes with ``method="trf"``, finite bounds, ``tr_solver="exact"``, the
linear loss and ``x_scale=1``, operation for operation: given the same
SVD it returns the same bits. The trust region is scaled by Coleman and
Li's distances to the bounds the gradient points at (Branch, Coleman &
Li, SIAM J. Sci. Comput. 21(1):1-23, 1999). Each subproblem is solved
exactly from one SVD of the scaled Jacobian by More's iteration on the
Levenberg-Marquardt parameter (More, Lecture Notes in Mathematics 630,
1977). A step that leaves the box is cut back at the first bound, and
the best of the cut step, its reflection at that bound and the scaled
gradient step is taken.
"""

from typing import NamedTuple

import numpy as np
from numpy.linalg import norm, svd

from .errors import NumericalError

EPS = np.finfo(float).eps


class Solution(NamedTuple):
    x: np.ndarray
    cost: float      # 0.5 * sum(fun**2) at x
    fun: np.ndarray  # the residuals at x
    nfev: int        # evaluations, the start point's included
    status: int      # 0 max_nfev reached; 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol met


def least_squares(fun, x0, bounds, ftol, xtol, gtol, max_nfev) -> Solution:
    """Minimize ``0.5 * sum(f**2)`` over ``lb <= x <= ub``, where ``f, J = fun(x)`` and ``J = df/dx``.

    ``bounds`` is ``(lb, ub)``, finite and ``lb < ub``; ``x0`` lies inside.
    Stops when the scaled gradient's largest entry is below ``gtol``, when
    an accepted step lowers the cost by less than ``ftol`` of it or
    is shorter than ``xtol * (xtol + norm(x))``, or after ``max_nfev``
    evaluations. Raises NumericalError when the start point's residuals,
    cost or gradient are not finite or some variable changes no residual.
    """
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    x = _strictly_feasible(np.asarray(x0, dtype=float), lb, ub, 1e-10)
    f, J = fun(x)
    if not np.all(np.isfinite(f)):
        raise NumericalError("residuals are not finite at the start point")
    with np.errstate(over="ignore", invalid="ignore"):  # finite residuals may still overflow here
        squares, cost, g = np.sum(J ** 2, axis=0), 0.5 * np.dot(f, f), J.T.dot(f)
    if not np.all(squares > 0):
        raise NumericalError("rank-deficient Jacobian at the start point")
    if not (np.isfinite(cost) and np.all(np.isfinite(g))):
        raise NumericalError("the cost or its gradient is not finite at the start point")
    nfev = 1
    m, n = J.shape
    v, dv = _scaling(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        # the "hat" space of Coleman and Li: x = d * x_h, with diag_h from the derivative of v
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = svd(J_augmented, full_matrices=False)
        V = V.T
        uf = U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # how close to a bound a step may go
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(m, n, uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(x, J_h, diag_h, g_h, d * p_h, p_h, d,
                                                             Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, 0)
            f_new, J_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0
            ftol_met = actual_reduction < ftol * cost and ratio > 0.25
            xtol_met = norm(step) < xtol * (xtol + norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            g = J.T.dot(f)
    return Solution(x=x, cost=cost, fun=f, nfev=nfev, status=status or 0)


def _strictly_feasible(x, lb, ub, rstep):
    """``x`` moved strictly inside the box.

    With ``rstep`` > 0 an entry within ``rstep * max(1, |bound|)`` of a bound is put at that
    distance from it; with ``rstep`` 0 an entry on or past a bound is put one ulp inside it.
    """
    x_new = x.copy()
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist, upper_dist = x - lb, ub - x
        lower = lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb)))
        upper = upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub)))
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    return x_new


def _scaling(x, g, lb, ub):
    """Coleman-Li scaling ``v``, the distance to the bound the gradient points at (else 1), and ``dv/dx``."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = g < 0
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = g > 0
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _trust_region_step(m, n, uf, s, V, Delta, alpha):
    """``(p, alpha)``: ``min |J p + f|`` with ``|p| <= Delta``, from ``J = U diag(s) V.T`` and ``uf = U.T f``.

    The Gauss-Newton step where it is full-rank and inside the region,
    else ``p = -(J.T J + alpha I)^-1 J.T f`` with ``|p|`` within 1 % of
    ``Delta`` (then scaled onto it), ``alpha`` found by at most 10 steps
    of More's safeguarded Newton iteration from the previous ``alpha``.
    """
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """``(step, step_h, predicted cost reduction)``: the best of the cut, reflected and gradient steps."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # the reflected direction leaves the trust region or the box first
    a = np.dot(r_h, r_h)
    b = np.dot(p_h, r_h)
    c = np.dot(p_h, p_h) - Delta**2
    q = -(b + np.copysign(np.sqrt(b*b - a*c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _line_quadratic(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _line_minimum(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    # the cut step, pulled back inside
    p *= theta
    p_h *= theta
    p_value = _quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _line_quadratic(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _line_minimum(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _step_to_bound(x, s, lb, ub):
    """The smallest ``t >= 0`` that puts ``x + t s`` on a bound, and the entries that reach one there."""
    steps = np.full_like(x, np.inf)
    moving = s != 0
    with np.errstate(over="ignore"):
        steps[moving] = np.maximum((lb - x)[moving] / s[moving], (ub - x)[moving] / s[moving])
    min_step = np.min(steps)
    return min_step, steps == min_step


def _quadratic(J, g, s, diag):
    """``0.5 s.T (J.T J + diag(diag)) s + g.T s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _line_quadratic(J, g, s, diag, s0=None):
    """``(a, b)``, with ``s0`` ``(a, b, c)``, of ``_quadratic`` at ``s0 + t s`` as ``a t**2 + b t + c``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _line_minimum(a, b, lb, ub, c=0):
    """``(t, value)`` minimizing ``a t**2 + b t + c`` over ``lb <= t <= ub``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]
