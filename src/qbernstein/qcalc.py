"""Exact q-bracket calculus.

The q-bracket of x is (q^x - 1)/(q - 1).  To keep every quantity rational the
evaluation point is built from a single base rho: q = rho**d and t = rho**c,
so that t is exactly the x-th power of q with x = c/d.  A separate classical
mode carries (q = 1, x), x in lowest terms, and replaces every bracket by its
q -> 1 limit, which is plain x; no numerical limits are taken anywhere.

Every result is stated through three brackets at one point: X = [x]_q,
Xc = [x]_(1/q) and X1 = [1 - x]_q.  A :class:`QPoint` computes them once, when
it is built, and is the one place that knows their formulas; every reader
takes ``p.X``, ``p.Xc`` and ``p.X1``.

Any rational q > 0 with q != 1 is a base: every identity checked downstream is
a rational identity in (q, t), so testing is not restricted to 0 < q < 1.  Each
base, rho or q, passes the one base gate, ``rings._check_q``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .rings import Laurent, _check_q, _count, _frac, _index, _Value


class QPoint(_Value):
    """A coherent evaluation point where q, t and x are all rational.

    q-mode: constructed from (rho, c, d), rho a base (:func:`~qbernstein.rings._check_q`) and
    d a count (:func:`~qbernstein.rings._count`), checked after rho; the
    command line reads ``--d`` as a count too, a usage error below 1.  Then
    q = rho**d, t = rho**c and x = c/d, with t**d == q**c exactly.
    Classical mode: constructed from (None, c, d) or by :meth:`classical`;
    q = 1, brackets degenerate to x itself, and c/d is held in lowest terms.

    The point holds q, t and its brackets X = (t - 1)/(q - 1),
    Xc = q (1 - t)/(t (1 - q)) (the bracket of x under the inverse base) and
    X1 = 1 - Xc (the bracket of 1 - x); classically X = Xc = x and X1 = 1 - x.
    Each is one ``Fraction`` of the integer parts of q and t, normalised once.
    A point is an immutable value (:class:`~qbernstein.rings._Value`), built
    by position or by keyword, whose key is (rho, c, d): the held values take
    no part in its equality, hash or repr.
    """

    __slots__ = ("rho", "c", "d", "q", "X", "Xc", "X1", "_t", "_key", "_hash")
    _fields = ("rho", "c", "d")

    def __init__(self, rho: Fraction | None, c: int, d: int):
        c = operator.index(c)
        rho = None if rho is None else _check_q(rho)
        d = _count(d)
        if rho is None:
            q, t = Fraction(1), None
            x = xc = Fraction(c, d)
            x1 = 1 - x
            c, d = x.numerator, x.denominator
        else:
            q, t = rho**d, rho**c
            qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
            x = Fraction((tn - td) * qd, td * (qn - qd))
            xc = Fraction(qn * (td - tn), tn * (qd - qn))
            x1 = Fraction(tn * qd - qn * td, tn * (qd - qn))
        key = (rho, c, d)
        for name, value in zip(self.__slots__, (*key, q, x, xc, x1, t, key, hash(key))):
            object.__setattr__(self, name, value)

    @classmethod
    def classical(cls, x: Fraction) -> "QPoint":
        return cls(None, *_frac(x).as_integer_ratio())

    @property
    def is_classical(self) -> bool:
        return self.rho is None

    @property
    def t(self) -> Fraction:
        if self._t is None:
            raise ValueError("classical point has no t value")
        return self._t

    @property
    def x(self) -> Fraction:
        return Fraction(self.c, self.d)


def one_minus_bracket_power(p: QPoint, m: int) -> tuple[Fraction, Laurent]:
    """The m-th power of the bracket of 1 - x, as a scalar and in Laurent form.

    The Laurent form is t**(-m) * sum over l of binom(m, l) (-1)^l X^l where
    X is the bracket of x written in t; substituting the point's t value must
    reproduce the scalar exactly; :func:`bracket_in_t` refuses a classical q = 1.
    """
    m = _index(m)
    scalar = p.X1**m
    x_in_t = bracket_in_t(p.q)
    expansion = Laurent({-m: 1}) * (Laurent({0: 1}) - x_in_t) ** m
    return scalar, expansion


def bracket_in_t(q: Fraction) -> Laurent:
    """The bracket of x as a Laurent polynomial in t: (t - 1)/(q - 1)."""
    q = _check_q(q)
    return Laurent({1: Fraction(1) / (q - 1), 0: Fraction(-1) / (q - 1)})
