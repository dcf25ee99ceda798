"""Exact scalar arithmetic: prime fields GF(p) and arbitrary-precision rationals.

Field elements are plain Python objects (ints in [0, p) for GF(p),
fractions.Fraction for the rationals); all operations go through a field
object so the rest of the library is field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRIME = 1_073_741_789  # largest prime below 2**30; products fit in int64

# the first 13 primes: no composite below _MR_BOUND (about 3.3e24) is a
# strong pseudoprime to all of them (Sorenson and Webster 2015); the first 12
# let 318665857834031151167461 through, and _MR_BOUND itself, which is
# 1287836182261 * 2575672364521, passes all 13
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for all n < _MR_BOUND; from the
    bound on n is refused (ValueError), prime or not: the test cannot tell."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large: primality is certified only below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) with canonical representatives in [0, p)."""

    kind = "gf"

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(int(a), -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def rand(self, rng):
        return rng.randrange(self.p)

    def encode(self, a):
        return int(a)

    def decode(self, obj):
        """A JSON integer, as ``encode`` writes it; ValueError otherwise."""
        if type(obj) is not int:
            raise ValueError(f"GF({self.p}) coordinate {obj!r} is not an integer")
        return obj % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rationals, via fractions.Fraction."""

    kind = "qq"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def rand(self, rng):
        # small-height rationals; enough to realize "generic" choices in tests
        return Fraction(rng.randrange(-99, 100), rng.randrange(1, 20))

    def encode(self, a):
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def decode(self, obj):
        """A JSON integer or an "n" or "n/d" string, as ``encode`` writes it;
        ValueError otherwise (a float, a bool, a zero denominator)."""
        if type(obj) is int:
            return Fraction(obj)
        if isinstance(obj, str):
            num, slash, den = obj.partition("/")
            if _digits(num.removeprefix("-")) and (not slash or _digits(den)):
                if slash and not int(den):
                    raise ValueError(f"rational coordinate {obj!r} has a zero denominator")
                return Fraction(int(num), int(den) if slash else 1)
        raise ValueError(f"rational coordinate {obj!r} is not an integer or an 'n/d' string")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("qq")

    def __repr__(self):
        return "QQ"


def _digits(s) -> bool:
    """s is a nonempty string of ASCII decimal digits."""
    return s.isascii() and s.isdigit()


def field_to_json(field) -> dict:
    if field.kind == "gf":
        return {"kind": "gf", "p": field.p}
    return {"kind": "qq"}


def field_from_json(obj) -> "PrimeField | RationalField":
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "gf" and isinstance(obj.get("p"), int):
        return PrimeField(obj["p"])
    if kind == "qq":
        return RationalField()
    raise ValueError(f"malformed field {obj!r}")
