"""An 80-digit reference for the max payload, independent of src/.

It takes the library's float inputs, with sin(alpha) and cos(alpha) as
the floats math.sin and math.cos return, and evaluates at 80 significant
digits. With M = mu*f_n, D = d_obj*sin(alpha), Q = d_com*cos(alpha),
E = e^2 + D^2 and L = Q + D, the balance substituted into the limit
surface f^2 + (t/e)^2 = M^2, times 4*e^2, is the quadratic

    E*w^2 - 2*n*w + g^2*(e^2 + Q^2) - 4*e^2*M^2 = 0,  n = g*(D*Q - e^2),

whose discriminant over 4 is e^2*K, K = 4*M^2*E - g^2*L^2
(tests/test_acceptance.py proves it). A weight is feasible exactly when
K >= 0, so capacity_sign() is exact unless K lies within 1e-80 of 0
relative to its terms. A negative n takes the larger root from the
product of the roots, so no 80-digit step cancels.
"""

import mpmath

DIGITS = 80


def _terms(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a):
    m, e, g = mpmath.mpf(mu) * f_n, mpmath.mpf(e), mpmath.mpf(g)
    d, q = mpmath.mpf(d_obj) * sin_a, mpmath.mpf(d_com) * cos_a
    return m, e, g, d, q, e * e + d * d


def capacity(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a):
    """(K, 4*M^2*E + g^2*L^2) as 80-digit mpfs: a weight is feasible
    exactly where K >= 0, and the second is the size of the two terms
    whose difference K is."""
    with mpmath.workdps(DIGITS):
        m, e, g, d, q, big_e = _terms(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a)
        reach, load = 4 * m * m * big_e, (g * (q + d)) ** 2
        return reach - load, reach + load


def capacity_sign(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a):
    """The sign of K: -1 where no weight is feasible, else 0 or 1."""
    return int(mpmath.sign(capacity(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a)[0]))


def larger_root(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a):
    """The larger root as an 80-digit mpf, or None where K < 0. The
    library clamps a negative root to 0, and refuses when 2*M < g."""
    k = capacity(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a)[0]
    if k < 0:
        return None
    with mpmath.workdps(DIGITS):
        m, e, g, d, q, big_e = _terms(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a)
        n = g * (d * q - e * e)
        e_root_k = e * mpmath.sqrt(k)
        if n >= 0:
            return (n + e_root_k) / big_e
        return (4 * (e * m) ** 2 - g * g * (e * e + q * q)) / (e_root_k - n)


def balance_quadratic(w, mu, e, f_n, g, d_obj, d_com, sin_a, cos_a):
    """(value, size) as floats: E*w^2 - 2*n*w + g^2*(e^2 + Q^2) -
    4*e^2*M^2 at weight w, which is 4*e^2 times the capacity excess
    f^2 + (t/e)^2 - M^2 of the balance wrench, and its largest term."""
    with mpmath.workdps(DIGITS):
        m, e, g, d, q, big_e = _terms(mu, e, f_n, g, d_obj, d_com, sin_a, cos_a)
        terms = (big_e * w * w, -2 * g * (d * q - e * e) * w, g * g * (e * e + q * q),
                 -4 * (e * m) ** 2)
        return float(sum(terms)), float(max(abs(term) for term in terms))
