"""The contract of ``lambda_spectrum`` over its whole input domain.

Every call either raises a typed ``HeunRsjError`` or returns n + 1 finite
roots, ascending, each of which an oracle that shares no code with the
library places at its own index: an mpmath Sturm count of T
(``oracles.sturm_count_mp``) brackets root i between i and i + 1 at a
distance of 1e-9 of max(|root|, 1) on either side.  Once |mu| is large
against n**2 the roots also follow the Sylvester-Kac limit, which a returned
root must meet to 1e-9 relative.  No numpy warning may be raised on the
way.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heun_rsj import HeunRsjError, lambda_spectrum

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
