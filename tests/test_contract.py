"""The contracts of ``lambda_spectrum`` and ``certify_root`` over their
input domains.

Every ``lambda_spectrum`` call either raises a typed ``HeunRsjError`` or
returns n + 1 finite roots, ascending, each of which an oracle that shares
no code with the library places at its own index: an mpmath Sturm count of
T (``oracles.sturm_count_mp``) brackets root i between i and i + 1 at a
distance of 1e-9 of max(|root|, 1) on either side.  Once |mu| is large
against n**2 the roots also follow the Sylvester-Kac limit, which a returned
root must meet to 1e-9 relative.

Every ``certify_root`` call gives the triplet and sign of ``root_params``
and the record of ``certify`` on the root's polynomial built alone, value
for value, or the same typed error with the same message, whether its
spectrum and check rows are cached or not.

No numpy warning may be raised on the way.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heun_rsj import HeunRsjError, build_polynomial, lambda_spectrum, root_params
from heun_rsj.structure import certify, certify_root

from helpers import clear_caches, outcome
from oracles import sturm_count_mp

# |mu|: zero, subnormals, the double maximum, and values log-uniform within
# each decade from 1e-6 up to the double maximum; the sign is drawn apart.
_TOP = np.finfo(float).max
_DRIVES = st.one_of(
    st.sampled_from([0.0, 5e-324, _TOP]),
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.tuples(
        st.integers(min_value=-6, max_value=308),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ).map(lambda p: 10.0 ** min(p[0] + p[1], 308.25)),  # 1.78e308 at most
)


def _limit(n: int, mu: float, k: int) -> float:
    """Root k of (n, mu) in the limit of large |mu|: T is similar to
    diag(j*(n+1-j)) + |mu|*K, K twice the spin-n/2 operator S_x (the
    Sylvester-Kac matrix), so lambda_k = 2|mu|m + (s(s+1) + m**2)/2 +
    O(n**4/|mu|) with s = n/2 and m = k - s."""
    s = n / 2
    m = k - s
    return 2 * m * abs(mu) + (s * (s + 1) + m * m) / 2


@given(
    n=st.integers(min_value=0, max_value=40),
    mu=st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), _DRIVES),
)
@settings(max_examples=150, deadline=None)
@example(n=24, mu=1e200)
def test_lambda_spectrum_is_certified_or_typed(n, mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            lams = lambda_spectrum(n, mu).lambdas
        except HeunRsjError:
            return
    assert len(lams) == n + 1
    assert all(math.isfinite(lam) for lam in lams)
    assert list(lams) == sorted(lams)
    for i, lam in enumerate(lams):
        delta = 1e-9 * max(abs(lam), 1.0)
        assert sturm_count_mp(n, mu, lam - delta) <= i, i
        assert sturm_count_mp(n, mu, lam + delta) >= i + 1, i
        if abs(mu) >= 1e20:
            want = _limit(n, mu, i)
            assert abs(lam - want) <= 1e-9 * max(abs(want), 1.0), i


# |mu|: zero, log-uniform from 1e-6 to 1e8, and in one draw of ten
# log-uniform from 1e8 to 1.34e154, where mu**2 still fits a double.
_ROOT_DRIVES = st.one_of(
    st.just(0.0),
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.0, max_value=1.0),
    ).map(
        lambda p: min(10.0 ** (8 + 146.127 * p[1]), 1.34e154)
        if p[0] == 0
        else 10.0 ** (-6 + 14 * p[1])
    ),
)


@given(
    n=st.integers(min_value=0, max_value=40),
    mu=st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), _ROOT_DRIVES),
    root=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=400, deadline=None)
@example(n=3, mu=1.0, root=-1)  # IndexOutOfRange
@example(n=40, mu=1e10, root=0)  # ConvergenceFailure
@example(n=2, mu=1e200, root=0)  # mu**2 overflows
@example(n=2, mu=-0.0, root=1)  # every root double
def test_certify_root_is_certify_of_its_root(n, mu, root):
    if root >= 0:
        root %= n + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clear_caches()
        record = outcome(lambda: certify(build_polynomial(*root_params(n, mu, root))))
        params = None if isinstance(record[0], str) else root_params(n, mu, root)
        clear_caches()
        cold = _certified(n, mu, root)
        warm = _certified(n, mu, root)
    assert cold == (record, params)
    assert warm == (record, params)


def _certified(n, mu, root) -> tuple:
    """The outcome of ``certify_root(n, mu, root)`` and the triplet and sign
    that it returns beside the record, None where it raises."""
    try:
        d, epsilon, *record = certify_root(n, mu, root)
    except HeunRsjError as exc:
        return (type(exc).__name__, str(exc)), None
    return outcome(lambda: record), (d, epsilon)
