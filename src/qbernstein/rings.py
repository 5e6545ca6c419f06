"""Exact coefficient rings used everywhere else in the package.

The scalar field is ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), so “exact” below means exact: no rounding happens
anywhere in this package.

One sparse implementation carries the ring arithmetic: an element is a dict
from integer exponent to nonzero coefficient, in one formal symbol.  Three
thin classes name the symbol and say which coefficients and scalars they take:

  LogPoly  Laurent polynomial in L over Fraction.  L stands for the logarithm
           of the deformation base and is never numerically evaluated;
           equality is coefficientwise.
  Laurent  Laurent polynomial in the evaluation symbol t.  Coefficients are
           Fraction, or LogPoly once a formal logarithm enters through
           differentiation; a LogPoly acts on it as a scalar.
  Poly     polynomial in b over Fraction, built from its dense coefficient
           list; a general-purpose ring that no value route of the package
           uses.

All instances are immutable after construction and all operations are pure.
One base, :class:`_Value`, freezes the package's values: these three rings,
``Series``, the laws and ``QPoint`` refuse assignment and deletion alike.
One gate, :func:`_frac`, decides for the whole package what an exact scalar is,
a second, :func:`_index`, what an index or an order is, and a third,
:func:`_count`, what a count is: a law's trials or successes, a point's d, an
audit's trials.  Beside them sit the law gates :func:`_positive` (a Poisson
mean), :func:`_check_p1` (a success probability) and :func:`_moments` (a
moment sequence, which starts with 1), the base gate :func:`_check_q` and
the gate :func:`_check_indices` of a pair r <= n.  Every module that checks
an input imports its gate from here.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction


def _frac(value) -> Fraction:
    """A Fraction as it is, an int as a Fraction; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar (Fraction or int), got {type(value).__name__}")


def _index(value) -> int:
    """A nonnegative int (a bool as its int); a value that is not an integer
    raises Python's own TypeError, and a negative one ValueError."""
    n = operator.index(value)
    if n < 0:
        raise ValueError(f"expected a nonnegative index, got {value}")
    return n


def _count(value) -> int:
    """An :func:`_index` that is at least 1; 0 raises ValueError."""
    n = _index(value)
    if n < 1:
        raise ValueError(f"expected a positive count, got {value}")
    return n


def _positive(value: Fraction) -> Fraction:
    value = _frac(value)
    if value <= 0:
        raise ValueError(f"expected a positive rational, got {value}")
    return value


def _check_p1(p1: Fraction) -> Fraction:
    p1 = _frac(p1)
    if not 0 < p1 <= 1:
        raise ValueError("success probability must lie in (0, 1]")
    return p1


def _moments(moments) -> tuple:
    ms = tuple(map(_frac, moments))
    if not ms or ms[0] != 1:
        raise ValueError("moment sequence must start with 1")
    return ms


def _check_q(q: Fraction) -> Fraction:
    """A base: an exact scalar (see :func:`_frac`) that is positive and not 1, else ValueError."""
    q = _frac(q)
    # a Fraction is reduced with a positive denominator: q <= 0 and q == 1 read off it
    if q.numerator <= 0 or q.numerator == q.denominator:
        raise ValueError(f"expected a base (a positive rational other than 1), got {q}")
    return q


def _check_indices(r: int, n: int):
    if _index(r) > _index(n):
        raise ValueError(f"lower index {r} exceeds upper index {n}")


def _exact(value):
    """A ring element below as it is, anything else through :func:`_frac`."""
    return value if isinstance(value, _SparseTerms) else _frac(value)


class _Value:
    """An immutable value, equal only to one of its exact type with an equal
    ``_key``, hashed by ``_hash`` (computed once, as it is built), and shown
    with ``_fields`` paired to ``_key``.  It is built by ``object.__setattr__``.
    A subclass with its own ``__eq__`` (``Series``, the rings) is unhashable."""

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def falling_factorial(z, m: int):
    """Product z (z-1) ... (z-m+1); the empty product (m = 0) is 1.

    ``z`` is an exact scalar (see :func:`_frac`) or an element of one of the
    rings below (Poly, Laurent, ...).
    """
    z, out = _exact(z), Fraction(1)
    for j in range(_index(m)):
        out = out * (z - j)
    return out


def _merge(items) -> dict:
    """Sum the coefficients of equal exponents and drop the zeros."""
    d = {}
    for k, v in items:
        if k in d:
            v = d[k] + v
            if v == 0:
                del d[k]
                continue
            d[k] = v
        elif v != 0:
            d[k] = v
    return d


class _SparseTerms(_Value):
    """Sparse polynomial in one formal symbol with integer exponents: ``terms``
    maps each exponent to its nonzero coefficient.  An operand ``_coeff`` takes
    is lifted to a constant term; for any other an operator is NotImplemented."""

    __slots__ = ("terms",)
    symbol = ""

    def __init__(self, terms: Mapping[int, object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(
            self, "terms", _merge((operator.index(k), self._coeff(v)) for k, v in items)
        )

    _coeff = staticmethod(_frac)

    @classmethod
    def _build(cls, items):
        """The element with these (exponent, exact coefficient) pairs."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", _merge(items))
        return out

    def _lift(self, other):
        if isinstance(other, type(self)):
            return other
        try:
            c = self._coeff(other)
        except TypeError:
            return None
        return self._build(((0, c),))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._build([*self.terms.items(), *o.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return self._build((k, -v) for k, v in self.terms.items())

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._build(
            (i + j, a * b) for i, a in self.terms.items() for j, b in o.terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = self._build(((0, Fraction(1)),))
        for _ in range(_index(n)):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"

    def __str__(self):
        parts = []
        for k, v in sorted(self.terms.items()):
            coeff = f"({v})" if isinstance(v, _SparseTerms) else str(v)
            parts.append(coeff if k == 0 else f"{coeff}*{self.symbol}^{k}")
        return " + ".join(parts) or "0"


# The benchmark's tracer (perfbench/tracing.py) wraps methods found in
# ``vars(cls)``, so each subclass below aliases the operators it traces into
# its own namespace.


class LogPoly(_SparseTerms):
    """Sparse Laurent polynomial in the formal logarithm symbol L.

    L is never substituted by a number, so equality of two LogPoly values is
    exact coefficientwise equality.
    """

    __slots__ = ()
    symbol = "L"
    __add__ = __radd__ = _SparseTerms.__add__
    __mul__ = __rmul__ = _SparseTerms.__mul__


class Laurent(_SparseTerms):
    """Sparse Laurent polynomial in the evaluation symbol t.

    Exponents are integers of either sign.  Coefficients are Fraction, or
    LogPoly once a formal logarithm has entered (see
    :func:`laurent_x_derivation`).  Multiplying by a LogPoly scales every
    coefficient, it does not touch the t-exponents.
    """

    __slots__ = ()
    symbol = "t"
    __mul__ = __rmul__ = _SparseTerms.__mul__
    __pow__ = _SparseTerms.__pow__

    @staticmethod
    def _coeff(value):
        return value if isinstance(value, LogPoly) else _frac(value)

    def substitute(self, t_value: Fraction):
        """Termwise substitution t <- t_value; exact for t_value != 0."""
        t_value = _frac(t_value)
        out = Fraction(0)
        for k, v in sorted(self.terms.items()):
            out = out + v * t_value**k
        return out


class Poly(_SparseTerms):
    """Univariate polynomial over Fraction in the symbol b, built from its
    dense coefficient list [c0, c1, ...]; the zero polynomial has degree -1
    (sentinel)."""

    __slots__ = ()
    symbol = "b"

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        super().__init__(enumerate(coeffs))

    @classmethod
    def x(cls) -> "Poly":
        """The indeterminate itself."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int | Fraction) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return max(self.terms, default=-1)

    @property
    def coeffs(self) -> tuple:
        return tuple(self.terms.get(k, Fraction(0)) for k in range(self.degree + 1))

    def __call__(self, value):
        """Evaluate by Horner's rule at an exact scalar or a ring element."""
        value, out = _exact(value), Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def laurent_x_derivation(f: Laurent) -> Laurent:
    """Differentiate a Laurent polynomial in t with respect to the exponent
    variable x (where t encodes the x-th power of the base q).

    Because d/dx q^(b x) = b log(q) q^(b x), the rule is termwise
    t^b -> b L t^b, and the output coefficients live in LogPoly.
    """
    return Laurent({b: LogPoly({1: b}) * c for b, c in f.terms.items()})
