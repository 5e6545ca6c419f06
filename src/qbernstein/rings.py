"""Exact coefficient rings used everywhere else in the package.

The scalar field is ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), so “exact” below means exact: no rounding happens
anywhere in this package.

Three small ring classes are layered on top of it:

  Poly     dense univariate polynomial over Fraction in one formal symbol;
           a general-purpose ring that no value route of the package uses.
  Laurent  sparse Laurent polynomial in the evaluation symbol t (integer
           exponents, possibly negative).  Coefficients are Fraction, or
           LogPoly when a formal logarithm enters through differentiation.
  LogPoly  sparse Laurent polynomial in the formal symbol L.  L stands for the
           logarithm of the deformation base and is never numerically
           evaluated; equality is coefficientwise.

All instances are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def falling_factorial(z, m: int):
    """Product z (z-1) ... (z-m+1); the empty product (m = 0) is 1.

    ``z`` may be any ring element supporting subtraction of integers and
    multiplication (Fraction, Poly, Laurent, ...).
    """
    if m < 0:
        raise ValueError("falling factorial needs m >= 0")
    out = Fraction(1)
    for j in range(m):
        out = out * (z - j)
    return out


def generalized_binomial(z, m: int):
    """Binomial coefficient with arbitrary ring-valued top: (z)_m / m!."""
    if m < 0:
        raise ValueError("generalized binomial needs m >= 0")
    return falling_factorial(z, m) * Fraction(1, math.factorial(m))


class Poly:
    """Dense univariate polynomial over Fraction.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial has degree -1 (sentinel).  Instances never mutate.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls) -> "Poly":
        """The indeterminate itself."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = o.coeffs + (Fraction(0),) * (n - len(o.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly powers must be nonnegative integers")
        out = Poly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value):
        """Evaluate by Horner's rule; ``value`` may live in any ring."""
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return _render_terms(enumerate(self.coeffs), "b")


class LogPoly:
    """Sparse Laurent polynomial in the formal logarithm symbol L.

    Only the exponents that occur are stored; zero coefficients are dropped.
    L is never substituted by a number, so equality of two LogPoly values is
    exact coefficientwise equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d = {}
        for k, v in items:
            v = _frac(v)
            if v != 0:
                d[int(k)] = d.get(int(k), Fraction(0)) + v
                if d[int(k)] == 0:
                    del d[int(k)]
        object.__setattr__(self, "terms", d)

    def __setattr__(self, name, value):
        raise AttributeError("LogPoly is immutable")

    def is_log_free(self) -> bool:
        return all(k == 0 for k in self.terms)

    def constant_part(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LogPoly({0: other})
        if not isinstance(other, LogPoly):
            return NotImplemented
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        return LogPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return LogPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LogPoly({0: other})
        if not isinstance(other, LogPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LogPoly({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, LogPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                out[i + j] = out.get(i + j, Fraction(0)) + a * b
        return LogPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LogPoly powers must be nonnegative integers")
        out = LogPoly({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, LogPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {0: Fraction(other)}
        return NotImplemented

    def __repr__(self):
        return f"LogPoly({self.terms!r})"

    def __str__(self):
        return _render_terms(sorted(self.terms.items()), "L")


class Laurent:
    """Sparse Laurent polynomial in the evaluation symbol t.

    Exponents are integers of either sign.  Coefficients are Fraction, or
    LogPoly once a formal logarithm has entered (see
    :func:`laurent_x_derivation`).  Multiplying by a LogPoly scales every
    coefficient, it does not touch the t-exponents.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d = {}
        for k, v in items:
            if isinstance(v, int):
                v = Fraction(v)
            if not isinstance(v, (Fraction, LogPoly)):
                raise TypeError("Laurent coefficients must be Fraction or LogPoly")
            if v == 0:
                continue
            k = int(k)
            if k in d:
                s = d[k] + v
                if s == 0:
                    del d[k]
                else:
                    d[k] = s
            else:
                d[k] = v
        object.__setattr__(self, "terms", d)

    def __setattr__(self, name, value):
        raise AttributeError("Laurent is immutable")

    def min_exponent(self) -> int | None:
        return min(self.terms) if self.terms else None

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LogPoly)):
            other = Laurent({0: other})
        if not isinstance(other, Laurent):
            return NotImplemented
        merged = list(self.terms.items()) + list(other.terms.items())
        return Laurent(merged)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LogPoly)):
            other = Laurent({0: other})
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LogPoly)):
            return Laurent({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        out = []
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                out.append((i + j, a * b))
        return Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Laurent powers must be nonnegative integers")
        out = Laurent({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, t_value: Fraction):
        """Termwise substitution t <- t_value; exact for t_value != 0."""
        t_value = _frac(t_value)
        out = Fraction(0)
        for k, v in sorted(self.terms.items()):
            out = out + v * t_value**k
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LogPoly)):
            other = Laurent({0: other})
        if not isinstance(other, Laurent):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __repr__(self):
        return f"Laurent({self.terms!r})"

    def __str__(self):
        return _render_terms(sorted(self.terms.items()), "t")


def laurent_x_derivation(f: Laurent) -> Laurent:
    """Differentiate a Laurent polynomial in t with respect to the exponent
    variable x (where t encodes the x-th power of the base q).

    Because d/dx q^(b x) = b log(q) q^(b x), the rule is termwise
    t^b -> b L t^b, and the output coefficients live in LogPoly.
    """
    return Laurent({b: LogPoly({1: b}) * c for b, c in f.terms.items()})


def _render_terms(items, symbol: str) -> str:
    parts = []
    for k, v in items:
        if v == 0:
            continue
        coeff = f"({v})" if isinstance(v, LogPoly) else str(v)
        if k == 0:
            parts.append(coeff)
        else:
            parts.append(f"{coeff}*{symbol}^{k}")
    return " + ".join(parts) if parts else "0"
