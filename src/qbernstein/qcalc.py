"""Exact q-bracket calculus.

The q-bracket of x is (q^x - 1)/(q - 1).  To keep every quantity rational the
evaluation point is built from a single base rho: q = rho**d and t = rho**c,
so that t is exactly the x-th power of q with x = c/d.  A separate classical
mode carries (q = 1, x) and replaces every bracket by its q -> 1 limit, which
is plain x; no numerical limits are taken anywhere.

Every result is stated through three brackets at one point: X = [x]_q,
Xc = [x]_(1/q) and X1 = [1 - x]_q.  A :class:`QPoint` computes them once, when
it is built, and is the one place that knows their formulas; every reader
takes ``p.X``, ``p.Xc`` and ``p.X1``.

Any rational q > 0 with q != 1 is accepted: every identity checked downstream
is a rational identity in (q, t), so testing is not restricted to 0 < q < 1.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import Laurent


class QPoint:
    """A coherent evaluation point where q, t and x are all rational.

    q-mode: constructed from (rho, c, d) with rho > 0, rho != 1, d >= 1;
    then q = rho**d, t = rho**c and x = c/d, with t**d == q**c exactly.
    Classical mode: built by :meth:`classical`; q = 1 and brackets
    degenerate to x itself.

    The point holds q, t and its brackets X = (t - 1)/(q - 1),
    Xc = q (1 - t)/(t (1 - q)) (the bracket of x under the inverse base) and
    X1 = 1 - Xc (the bracket of 1 - x); classically X = Xc = x and X1 = 1 - x.
    Each is one ``Fraction`` of the integer parts of q and t, normalised once.
    A point is an immutable value, built by position or by keyword, whose
    equality, hash and repr are those of (rho, c, d).  No cache keys on a
    point, so unlike a law it holds no hash: each call computes it.
    """

    __slots__ = ("rho", "c", "d", "q", "X", "Xc", "X1", "_t", "_key")

    def __init__(self, rho: Fraction | None, c: int, d: int):
        if rho is None:
            if d < 1:
                raise ValueError("classical point needs a positive denominator")
            q, t = Fraction(1), None
            x = xc = Fraction(c, d)
            x1 = 1 - x
        else:
            rho = Fraction(rho)
            if rho <= 0 or rho == 1:
                raise ValueError("rho must be a positive rational different from 1")
            if d < 1:
                raise ValueError("d must be a positive integer")
            q, t = rho**d, rho**c
            qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
            x = Fraction((tn - td) * qd, td * (qn - qd))
            xc = Fraction(qn * (td - tn), tn * (qd - qn))
            x1 = Fraction(tn * qd - qn * td, tn * (qd - qn))
        for name, value in zip(self.__slots__, (rho, c, d, q, x, xc, x1, t, (rho, c, d))):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"QPoint(rho={self.rho!r}, c={self.c!r}, d={self.d!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a QPoint is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def classical(cls, x: Fraction) -> "QPoint":
        x = Fraction(x)
        return cls(rho=None, c=x.numerator, d=x.denominator)

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
    reproduce the scalar exactly.  Rejected in classical mode, where the
    Laurent expansion is undefined.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    if p.is_classical:
        raise ValueError("Laurent expansion undefined at q = 1")
    scalar = p.X1**m
    x_in_t = bracket_in_t(p.q)
    expansion = Laurent({-m: 1}) * (Laurent({0: 1}) - x_in_t) ** m
    return scalar, expansion


def bracket_in_t(q: Fraction) -> Laurent:
    """The bracket of x as a Laurent polynomial in t: (t - 1)/(q - 1)."""
    q = _check_q(q)
    return Laurent({1: Fraction(1) / (q - 1), 0: Fraction(-1) / (q - 1)})


def _check_q(q: Fraction) -> Fraction:
    if type(q) is not Fraction:
        q = Fraction(q)
    # a Fraction is reduced with a positive denominator: q <= 0 and q == 1 read off it
    if q.numerator <= 0 or q.numerator == q.denominator:
        raise ValueError("q must be a positive rational different from 1")
    return q
