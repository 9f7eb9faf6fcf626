"""Paper identities that only the tests evaluate.

The package ships what its command line and ``heun_rsj.__all__`` run.  The
evaluators here check further identities of the paper against that code:

- the forward map ``(A, B, omega) -> (n, mu, lambda)`` with its integrality
  flag (``params_to_dche``);
- the complexification of the companion system on ``z = exp(i*omega*t)``
  and the Moebius maps ``zeta = (z + alpha)/(z - alpha)`` that recast its
  second order equation into a symmetric form (``alpha = 1``) and into the
  double confluent Heun form (``alpha = i``), each with a residual
  evaluator acting on a value/derivative jet supplied by the caller;
- the reflection image of a polynomial (``reflected_polynomial``), and the
  reflection relation of P alone on the sample set and in its coefficient
  form (``symmetry_residual``, ``coeff_relations_residual``): the
  certification pass's readers on P's one row, with their typed errors;
- the factorization ``G+ G- = -Phi^T`` of the coefficient matrix by the two
  reflection-relation matrices, an identity in lambda
  (``factorization``, over the dense ``symmetry_matrix`` and
  ``coefficient_matrix``), whose determinants the package evaluates as
  continuants;
- the second, non-polynomial solution by quadrature, with its exact
  Wronskian (``second_solution_jet``);
- the pointwise divergence identity behind the orthogonality relation and
  the self-pairing norm (``weight_divergence_residual``, ``norm_integral``);
- the pairing integral by scipy's adaptive quadrature, an oracle for the
  package's trapezoid sum (``orthogonality_quad``).

The error classes below are raised only by these evaluators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from heun_rsj.errors import (
    HeunRsjError,
    InvalidParams,
    MuNotPositive,
    NonPositiveArgument,
    OriginUndefined,
    QuadratureFailure,
)
from heun_rsj.model import (
    DcheParams,
    HeunPolynomial,
    RsjParams,
    Trajectory,
    frequency_scale,
)
from heun_rsj.structure import (
    _coeff_relations,
    _coeff_rows,
    _decay_halfwidth,
    _on_samples,
    _reflection_parts,
    _refuse_overflow,
    _shared_mu,
    _symmetry_rows,
    orthogonality_weight,
)

from helpers import deriv2


class NonIntegralDegree(HeunRsjError):
    """The reduced degree -(B/omega + 1) is not a non-negative integer."""


class ZeroArgument(HeunRsjError):
    """An argument that must be nonzero (e.g. a frequency) was zero."""


class PoleAtAlpha(HeunRsjError):
    """Evaluation requested at the pole z = alpha of the Moebius map."""


class SingularPoint(HeunRsjError):
    """Evaluation requested at a singular point of a transformed equation."""


class PolynomialZeroOnPath(HeunRsjError):
    """The integration path for the second solution crosses a zero of P."""


# --- the forward map -------------------------------------------------------

#: Distance from an integer within which the reduced degree counts as integral.
TOL_INT = 1e-9


@dataclass(frozen=True)
class DcheCandidate:
    """Result of mapping physical parameters toward a reduced triplet.

    ``n_real`` is the un-rounded degree ``-(B/omega + 1)``.  The candidate is
    ``integral`` when ``n_real`` sits within ``TOL_INT`` of a non-negative
    integer; only then does :meth:`params` produce a usable triplet.
    """

    n_real: float
    mu: float
    lam: float
    integral: bool

    def params(self) -> DcheParams:
        if not self.integral:
            raise NonIntegralDegree(
                f"reduced degree {self.n_real!r} is not a non-negative integer"
            )
        return DcheParams(n=round(self.n_real), mu=self.mu, lam=self.lam)


def params_to_dche(p: RsjParams) -> DcheCandidate:
    """Map ``(A, B, omega)`` to the reduced triplet, flagging integral degree.

    Never raises on a non-integral degree: the caller inspects the flag.
    """
    n_real = -(p.B / p.omega + 1.0)
    mu = p.A / (2.0 * p.omega)
    lam = 1.0 / (4.0 * p.omega**2) - mu**2
    integral = abs(n_real - round(n_real)) <= TOL_INT and round(n_real) >= 0
    return DcheCandidate(n_real=n_real, mu=mu, lam=lam, integral=integral)


# --- complexification and equation transforms ------------------------------
#
# On z = exp(i*omega*t) the companion pair (x, y) combines into
#
#     v       = i * z**(-B/(2*omega)) * exp((A/(4*omega))*(1/z - z)) * (x - i*y)
#     v_check = (2*omega*z)**-1 * z**(-B/(2*omega))
#               * exp((A/(4*omega))*(1/z - z)) * (x + i*y)
#
# and the companion equations are equivalent to v' = v_check together with a
# second order linear equation for v (residual_v_equation).


def z_of_t(t, omega: float):
    """Unit-circle coordinate exp(i*omega*t); scalar or array."""
    if omega == 0:
        raise ZeroArgument("omega must be nonzero for z = exp(i*omega*t)")
    return np.exp(1j * omega * np.asarray(t, dtype=float))


def xy_to_v(z: complex, x: float, y: float, p: RsjParams) -> tuple[complex, complex]:
    """Pointwise (v, v_check) from a companion state at the point z.

    Uses the principal branch of ``z**(-B/(2*omega))``; for branch-continuous
    values along a trajectory use :func:`v_pair_on_circle`.
    """
    z = complex(z)
    if z == 0:
        raise OriginUndefined("z = 0 is outside the domain of the substitution")
    w = p.omega
    pref = z ** (-p.B / (2.0 * w)) * cmath.exp((p.A / (4.0 * w)) * (1.0 / z - z))
    v = 1j * pref * (x - 1j * y)
    v_check = pref * (x + 1j * y) / (2.0 * w * z)
    return v, v_check


def v_pair_on_circle(traj: Trajectory, p: RsjParams) -> tuple[np.ndarray, np.ndarray]:
    """(v, v_check) along an xy trajectory with branch-continuous prefactor.

    On ``z = exp(i*omega*t)`` the prefactor reduces to the unimodular
    ``exp(-i*(B*t/2 + (A/(2*omega))*sin(omega*t)))``, which is continuous in t
    and avoids the principal-branch jumps of ``z**(-B/(2*omega))``.
    """
    if traj.kind != "xy":
        raise InvalidParams("v_pair_on_circle needs an 'xy' trajectory")
    t = traj.times
    x = traj.values[:, 0]
    y = traj.values[:, 1]
    w = p.omega
    pref = np.exp(-1j * (p.B * t / 2.0 + (p.A / (2.0 * w)) * np.sin(w * t)))
    z = np.exp(1j * w * t)
    v = 1j * pref * (x - 1j * y)
    v_check = pref * (x + 1j * y) / (2.0 * w * z)
    return v, v_check


def residual_v_equation(z, v, dv, d2v, p: RsjParams):
    """Residual of the second order equation for v at z, given its 2-jet.

    Returns ``z**2*v'' + [(A/(2w))*(z**2+1) + (B/w+1)*z]*v' + v/(4w**2)``;
    zero exactly on solutions.
    """
    z = np.asarray(z)
    w = p.omega
    return (
        z**2 * np.asarray(d2v)
        + ((p.A / (2.0 * w)) * (z**2 + 1.0) + (p.B / w + 1.0) * z) * np.asarray(dv)
        + np.asarray(v) / (4.0 * w**2)
    )


def mobius(z: complex, alpha: complex) -> complex:
    """zeta = (z + alpha)/(z - alpha)."""
    if alpha == 0:
        raise InvalidParams("alpha must be nonzero")
    z = complex(z)
    if z == complex(alpha):
        raise PoleAtAlpha(f"mobius map has its pole at z = alpha = {alpha!r}")
    return (z + alpha) / (z - alpha)


def mobius_inverse(zeta: complex, alpha: complex) -> complex:
    """z = alpha*(zeta + 1)/(zeta - 1), the inverse of :func:`mobius`."""
    if alpha == 0:
        raise InvalidParams("alpha must be nonzero")
    zeta = complex(zeta)
    if zeta == 1:
        raise SingularPoint("zeta = 1 is the image of z = infinity")
    return complex(alpha) * (zeta + 1.0) / (zeta - 1.0)


def transport(
    z: complex, v: complex, dv: complex, d2v: complex, alpha: complex
) -> tuple[complex, complex, complex, complex]:
    """Push the 2-jet of v(z) through the Moebius map.

    Returns ``(zeta, u, u', u'')`` for ``u(zeta) = v(z(zeta))`` evaluated at
    ``zeta = mobius(z, alpha)``, using ``dz/dzeta = -2*alpha/(zeta-1)**2`` and
    ``d2z/dzeta2 = 4*alpha/(zeta-1)**3``.
    """
    zeta = mobius(z, alpha)
    dz = -2.0 * complex(alpha) / (zeta - 1.0) ** 2
    d2z = 4.0 * complex(alpha) / (zeta - 1.0) ** 3
    return zeta, v, dv * dz, d2v * dz**2 + dv * d2z


def residual_symmetric_form(zeta, u, du, d2u, p: RsjParams):
    """Residual of the alpha = 1 transformed equation at zeta, given the 2-jet.

    The operator is ``(1-zeta^2) d (1-zeta^2) d + 2[(B/w)(1-zeta^2)
    - (A/w)(1+zeta^2)] d + 1/w^2`` acting on u.
    """
    zeta = np.asarray(zeta)
    w = p.omega
    one = 1.0 - zeta**2
    return (
        one**2 * np.asarray(d2u)
        + (-2.0 * zeta * one + 2.0 * ((p.B / w) * one - (p.A / w) * (1.0 + zeta**2)))
        * np.asarray(du)
        + np.asarray(u) / w**2
    )


def residual_dche_form(zeta, u, du, d2u, p: RsjParams):
    """Residual of the alpha = i transformed (double confluent Heun) equation.

    The operator is ``(1-zeta^2)^2 d^2 + 2[(B/w - zeta)(1-zeta^2)
    - 2i(A/w)*zeta] d + 1/w^2`` acting on u.
    """
    zeta = np.asarray(zeta)
    w = p.omega
    one = 1.0 - zeta**2
    return (
        one**2 * np.asarray(d2u)
        + 2.0 * ((p.B / w - zeta) * one - 2.0j * (p.A / w) * zeta) * np.asarray(du)
        + np.asarray(u) / w**2
    )


@dataclass(frozen=True)
class CanonicalDche:
    """One published parameterisation of the double confluent Heun equation."""

    form: str
    a: complex
    c: complex
    t: complex
    lam: complex


def canonical_dche_params(p: RsjParams) -> tuple[CanonicalDche, CanonicalDche]:
    """Both standard parameter sets realised by the transformed equation.

    The first record parameterises the alpha = i form directly; the second is
    its rescaled canonical variant with real parameters.
    """
    w = p.omega
    first = CanonicalDche(
        form="mobius_alpha_i",
        a=0j,
        c=complex(-(p.B / w + 1.0)),
        t=1j * p.A / (2.0 * w),
        lam=1.0 / (2j * w * p.A),
    )
    second = CanonicalDche(
        form="canonical_rescaled",
        a=0j,
        c=complex(p.B / w + 1.0),
        t=complex(-((p.A / (2.0 * w)) ** 2)),
        lam=complex(1.0 / (4.0 * w**2)),
    )
    return first, second


# --- reflection matrices and the factorization of the determinant ---------


def coefficient_matrix(d: DcheParams) -> np.ndarray:
    """Dense matrix Phi of the coefficient system at (n, mu, lambda), by rows
    as in the ``heun_poly`` module docstring (the literature also writes its
    transpose)."""
    n, mu, lam = d.n, d.mu, d.lam
    j = np.arange(n + 1)
    return (
        np.diag(lam - j * (n + 1 - j))
        + np.diag(mu * (j[:-1] + 1), 1)
        + np.diag(mu * (n - j[:-1]), -1)
    )


def symmetry_matrix(epsilon: int, d: DcheParams) -> np.ndarray:
    """Matrix G_eps of the reflection-symmetry relations, eps in {+1, -1}.

    Entries ``eps*c*delta(j,k) + mu*delta(j,n-k) - j*delta(j,n+1-k)`` with
    ``c = sqrt(lambda + mu**2)`` (``model.frequency_scale``).
    """
    if epsilon not in (1, -1):
        raise InvalidParams(f"epsilon must be +1 or -1, got {epsilon!r}")
    n = d.n
    j = np.arange(n + 1)
    g = epsilon * frequency_scale(d) * np.eye(n + 1)
    g[j, n - j] += d.mu
    g[j[1:], n + 1 - j[1:]] -= j[1:]  # column n+1-j exists only for j >= 1
    return g


def factorization(d: DcheParams) -> tuple[float, int, float, float]:
    """The factorization of the system matrix by the two symmetry matrices.

    Returns ``(rel_dev, sign, det_plus, det_minus)``.  ``sign`` in {+1, -1}
    marks the better of ``G+ G- = +Phi^T`` / ``G+ G- = -Phi^T`` (the identity
    holds with sign = -1 at every lambda: the off-diagonals cancel exactly,
    and the diagonal is ``c**2 - (lambda + mu**2)``), and ``rel_dev`` is its
    largest entry deviation divided by ``max(1, max|G+ G-|)``.
    ``det_plus`` and ``det_minus`` are the LU determinants of G+ and G-:
    their product matches the gate determinant in magnitude.
    """
    gp = symmetry_matrix(1, d)
    gm = symmetry_matrix(-1, d)
    prod = gp @ gm
    phi_t = coefficient_matrix(d).T
    dev_minus = float(np.max(np.abs(prod + phi_t)))
    dev_plus = float(np.max(np.abs(prod - phi_t)))
    dev, sign = (dev_minus, -1) if dev_minus <= dev_plus else (dev_plus, 1)
    scale = max(1.0, float(np.max(np.abs(prod))))
    return dev / scale, sign, float(np.linalg.det(gp)), float(np.linalg.det(gm))


# --- reflection image, second solution, orthogonality identities ----------


def reflected_polynomial(P: HeunPolynomial) -> HeunPolynomial:
    """The reflection image z**n * [P'(1/z) - mu*P(1/z)] as a polynomial.

    Coefficient shuffle ``a_k -> (n+1-k)*a_{n+1-k} - mu*a_{n-k}`` (with
    ``a_{n+1} = 0``).  Solves the same equation exactly when P does; at a
    spectral point it is proportional to P itself (by ``epsilon*c``), and it
    carries P's epsilon.
    """
    rev, up = _reflection_parts(P.params.mu, np.asarray(P.coeffs, dtype=float))
    c = -rev + up
    if c[-1] == 0:
        raise InvalidParams("reflection dropped the degree (leading coefficient 0)")
    return HeunPolynomial(coeffs=tuple(c.tolist()), params=P.params, epsilon=P.epsilon)


def symmetry_residual(P: HeunPolynomial) -> float:
    """Worst relative defect of the reflection relation over the sample set,
    at P's own sign: the certification pass's ``reflection_symmetry`` reader
    (``structure._symmetry_rows``) on P's one row.

    ``NonPositiveDiscriminant`` where lambda + mu**2 <= 0 (no c), and
    ``InvalidParams`` where mu**2 or a summand is not finite: z**n at z = 2
    from n = 1024 on, or an overflowing value of P.
    """
    c = frequency_scale(P.params)
    n, mu = P.n, P.params.mu
    with np.errstate(over="ignore", invalid="ignore"):  # typed below
        table = _on_samples(_coeff_rows(P))
        value, scale = _symmetry_rows(n, mu, np.array([P.epsilon * c]), table)
    _refuse_overflow(scale, "reflection relation", n, mu)
    return float(value[0])


def coeff_relations_residual(P: HeunPolynomial) -> np.ndarray:
    """Residuals of the coefficient form of the reflection relation at P's
    own sign (``structure._coeff_relations`` on P's one row): entry k is
    ``eps*c*a_k - (n+1-k)*a_{n+1-k} + mu*a_{n-k}`` for k = 0..n."""
    eps_c = np.array([P.epsilon * frequency_scale(P.params)])
    return _coeff_relations(P.params.mu, eps_c, _coeff_rows(P))[0]


def _quad(f, a: float, b: float, abserr_ok: float | None = None) -> float:
    """Adaptive quadrature of a real integrand over [a, b].

    A non-convergence warning raises ``QuadratureFailure`` unless the
    reported absolute error is at most ``abserr_ok``.
    """
    res = quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=400, full_output=1)
    if len(res) > 3 and (abserr_ok is None or res[1] > abserr_ok):
        raise QuadratureFailure(f"quadrature did not converge: {res[3]}")
    return float(res[0])


def _check_path_clear(P: HeunPolynomial, base: complex, z: complex) -> None:
    roots = np.roots(np.asarray(P.coeffs)[::-1]) if P.n >= 1 else np.empty(0)
    seg = z - base
    seg_len2 = abs(seg) ** 2
    for r in roots:
        if seg_len2 == 0.0:
            dist = abs(r - base)
        else:
            s = np.clip(((r - base) * np.conj(seg)).real / seg_len2, 0.0, 1.0)
            dist = abs(base + s * seg - r)
        if dist < 1e-8 * (1.0 + abs(r)):
            raise PolynomialZeroOnPath(
                f"zero of P at {complex(r):.6g} lies on the integration path"
            )


def second_solution_jet(
    P: HeunPolynomial, z: complex, base: float = 1.0
) -> tuple[complex, complex, complex]:
    """Value and first two derivatives of the accompanying second solution.

    ``Q(z) = P(z) * integral_base^z s**n * exp(mu*(s + 1/s)) / P(s)**2 ds``
    along the straight path from base.  Q solves the same equation as P when
    P is a genuine solution, and satisfies the exact Wronskian
    ``P*Q' - P'*Q = z**n * exp(mu*(z + 1/z))`` for any P.
    """
    if not (isinstance(base, (int, float)) and base > 0):
        raise NonPositiveArgument(f"base must be a positive real, got {base!r}")
    zc = complex(z)
    if zc == 0:
        raise NonPositiveArgument("z = 0 is an essential singularity")
    n, mu = P.n, P.params.mu
    _check_path_clear(P, complex(base), zc)

    def integrand(s: float) -> complex:
        w = complex(base) + s * (zc - complex(base))
        return w**n * np.exp(mu * (w + 1.0 / w)) / complex(P.value(w)) ** 2 * (
            zc - complex(base)
        )

    integral = complex(
        _quad(lambda s: integrand(s).real, 0.0, 1.0),
        _quad(lambda s: integrand(s).imag, 0.0, 1.0),
    )
    pv = complex(P.value(zc))
    d1 = complex(P.deriv1(zc))
    d2 = complex(deriv2(P, zc))
    kernel = zc**n * np.exp(mu * (zc + 1.0 / zc))
    q = pv * integral
    dq = d1 * integral + kernel / pv
    d2q = d2 * integral + kernel / (zc * pv) * (n + mu * (zc - 1.0 / zc))
    return q, dq, d2q


def second_solution(P: HeunPolynomial, z: complex, base: float = 1.0) -> complex:
    """Value of the second solution; see :func:`second_solution_jet`."""
    return second_solution_jet(P, z, base)[0]


def weight_divergence_residual(
    z: float, P1: HeunPolynomial, P2: HeunPolynomial
) -> tuple[float, float]:
    """Pointwise defect of the divergence identity behind the orthogonality.

    Returns ``(residual, scale)`` where residual = d/dz[boundary term]
    + weight * P1 * P2, evaluated with exact derivatives, and scale is the
    larger of the two summand magnitudes.  Zero (to roundoff) when both
    polynomials are genuine solutions.
    """
    mu = _shared_mu(P1, P2)
    if z <= 0:
        raise NonPositiveArgument("the identity is checked on z > 0")
    n1, n2 = P1.n, P2.n
    pw = -(n1 + n2) / 2.0
    v1, v2 = float(P1.value(z)), float(P2.value(z))
    d1, d2 = float(P1.deriv1(z)), float(P2.deriv1(z))
    dd1, dd2 = float(deriv2(P1, z)), float(deriv2(P2, z))
    s = v2 * d1 - v1 * d2 - 0.5 * (n1 - n2) * v1 * v2 / z
    ds = (
        v2 * dd1
        - v1 * dd2
        - 0.5 * (n1 - n2) * ((d1 * v2 + v1 * d2) / z - v1 * v2 / z**2)
    )
    front = z**pw * math.exp(-mu * (z + 1.0 / z))
    dw = front * ((pw / z - mu * (1.0 - 1.0 / z**2)) * s + ds)
    pair = float(orthogonality_weight(z, P1, P2)) * v1 * v2
    return dw + pair, max(abs(dw), abs(pair))


def norm_integral(P: HeunPolynomial) -> float:
    """Self-pairing ``integral_0^inf z**-n * exp(-mu*(z+1/z)) * P(z)**2 dz``.

    Finite and strictly positive for mu > 0.
    """
    mu = P.params.mu
    if mu <= 0:
        raise MuNotPositive(f"the norm integral needs mu > 0, got {mu}")
    n = P.n

    def f(u: float) -> float:
        z = math.exp(u)
        return z ** (-n) * math.exp(-mu * (z + 1.0 / z)) * float(P.value(z)) ** 2 * z

    half = _decay_halfwidth(mu, n + 1.0)
    return _quad(f, -half, half, abserr_ok=1e-9)


def orthogonality_quad(P1: HeunPolynomial, P2: HeunPolynomial, scale: float) -> float:
    """The pairing integral of ``structure.orthogonality_integral`` by
    adaptive quadrature on the same truncated interval in ``u = log z``.

    When the true integral is zero up to cancellation, the integrator cannot
    meet its relative target and flags roundoff; the value is still good to
    its reported absolute error, which is accepted below 1e-9 of
    ``max(scale, 1)``, ``scale`` being the absolute integral.
    """

    def f(u: float) -> float:
        z = math.exp(u)
        return float(orthogonality_weight(z, P1, P2)) * float(
            P1.value(z)
        ) * float(P2.value(z)) * z

    half = _decay_halfwidth(P1.params.mu, (P1.n + P2.n) / 2.0 + 2.0)
    return _quad(f, -half, half, abserr_ok=1e-9 * max(scale, 1.0))
