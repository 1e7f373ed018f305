"""Exact integer arithmetic helpers shared across the package.

Every bound asserted by the test suite is an exact integer, so all
logarithm-style quantities are computed with integer comparisons and big
integers, never floating point.  The JSON instance loaders use the checks
at the end to admit only integers, never floats; the library entry points
that also take fractions refuse floats through `refuse_floats`.  The
number-list and set-system readers, the size-cap error and the record
bases live here too, so that the sorting, selection and set-cover commands
need nothing from `complexity` (which imports all three back) and the
package's problem, verdict and result records share one base.  So do the
readers of packed rows, one int with a fixed-width field per cell, that
`paths_mst` and `dp` fill by broadword arithmetic.
"""

from __future__ import annotations

import json
import math
import sys


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for integers, b > 0."""
    return -((-a) // b)


def ceil_log2(n: int) -> int:
    """Smallest c >= 0 with 2**c >= n, for n >= 1."""
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def ceil_log3(n: int) -> int:
    """Smallest c >= 0 with 3**c >= n, for n >= 1."""
    if n < 1:
        raise ValueError("ceil_log3 needs n >= 1")
    c = 0
    power = 1
    while power < n:
        power *= 3
        c += 1
    return c


def ceil_log2_factorial(n: int) -> int:
    """ceil(log2 n!) computed on the exact big integer."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return ceil_log2(math.factorial(n))


def fib_upto(limit: int) -> list[int]:
    """Fibonacci numbers F[0] = F[1] = 1, F[k] = F[k-1] + F[k-2],
    extended until the last entry is >= limit."""
    fib = [1, 1]
    while fib[-1] < limit:
        fib.append(fib[-1] + fib[-2])
    return fib


def fib(k: int) -> int:
    """k-th Fibonacci number under the F[0] = F[1] = 1 convention."""
    if k < 0:
        raise ValueError("needs k >= 0")
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def coin_pool_size(levels: int) -> int:
    """Largest suspect-coin pool resolvable with the given number of
    weighings: (3**levels - 1) // 2."""
    return (3 ** levels - 1) // 2


def insertion_batch_bound(k: int) -> int:
    """Boundary of the k-th batched-insertion group: (2**(k+1) + (-1)**k) // 3.

    The boundaries pair up as t(k) + t(k-1) = 2**k with t(0) = t(1) = 1.
    """
    if k < 0:
        raise ValueError("needs k >= 0")
    return (2 ** (k + 1) + (-1) ** k) // 3


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H(n) = 1 + 1/2 + ... + 1/n."""
    from fractions import Fraction  # only here, so importing intmath skips fractions

    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


class InstanceTooLargeError(ValueError):
    """Instance exceeds the desk-scale brute-force caps."""


def parse_numbers(text: str) -> list[int]:
    """Whitespace-separated integers."""
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"bad number list: {exc}") from None


class _Record:
    """A record whose fields are the `__slots__` of its class and bases,
    base first.  It is built from the fields by position or keyword and
    checked by `_check`; records compare by class and fields, repr as
    `Name(field=value, ...)`, and copy and pickle rebuild (and re-check)
    them through `__init__`.  Mutable, so unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
        )

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            try:
                args += tuple(kwargs.pop(name) for name in names[len(args):])
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing argument {exc}") from None
            if kwargs:
                raise TypeError(f"{type(self).__name__}() got unexpected arguments {sorted(kwargs)}")
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, not {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        """Raise ValueError if the fields do not make a valid record."""

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _FrozenRecord(_Record):
    """An immutable record, which hashes by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


# --- packed rows ---------------------------------------------------------------

_CELL_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def read_cells(r: int, count: int, width: int) -> list[int]:
    """The `count` cells of `width` bits of r, cell 0 (the lowest) first,
    for a width that is a whole number of bytes.  One to_bytes reads the
    row; cells of 8, 16, 32 or 64 bits come out of one memoryview cast,
    wider ones cell by cell with int.from_bytes."""
    size = count * width // 8
    if width > 64:
        step = width // 8
        row = memoryview(r.to_bytes(size, "little"))
        return [int.from_bytes(row[s:s + step], "little") for s in range(0, size, step)]
    if sys.byteorder == "little":
        return memoryview(r.to_bytes(size, "little")).cast(_CELL_FORMATS[width]).tolist()
    return memoryview(r.to_bytes(size, "big")).cast(_CELL_FORMATS[width]).tolist()[::-1]


def field_reader(count: int, w: int):
    """A function that lists the `count` w-bit fields of an int, field 0
    first.

    The fields are first spread to width W: 32 bits, 64 when w > 32, and
    whole bytes when w > 64.  Field j moves up by j * (W - w) bits, one
    bit of j at a time, the highest first: the step for bit b shifts the
    fields whose index has bit b set by 2^b * (W - w).  Before that step
    the fields lie in blocks of 2^(b+1) adjacent w-bit fields, the block
    from field h on starting at bit h * W; the step moves the upper half
    of each block up to bit (h + 2^b) * W, so no two fields overlap.  The
    spread row is then read by `read_cells`."""
    width = 32 if w <= 32 else 64 if w <= 64 else -(-w // 8) * 8
    steps = []
    if width > w:
        for b in reversed(range((count - 1).bit_length())):
            half = 1 << b
            period = 2 * half * width
            blocks = -(-count // (2 * half))
            repeat = ((1 << period * blocks) - 1) // ((1 << period) - 1)  # 1 at each block
            steps.append(((((1 << half * w) - 1) << half * w) * repeat, half * (width - w)))

    def read(r: int) -> list[int]:
        for mask, shift in steps:
            high = r & mask
            r = (r ^ high) | (high << shift)
        return read_cells(r, count, width)

    return read


# --- input checks: JSON instances, then floats ---------------------------------


class _JsonInstance(dict):
    """A parsed instance object; indexing a key it lacks names the key."""

    def __missing__(self, key):
        raise ValueError(f"instance is missing the key {key!r}")


def _json_value(text: str):
    """The JSON value of a file's text.  Nesting deeper than json's
    decoder recurses is bad input like any other: a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def json_object(text: str) -> dict:
    """Parse an instance file that must hold a JSON object."""
    data = _json_value(text)
    if not isinstance(data, dict):
        raise ValueError("instance must be a JSON object")
    return _JsonInstance(data)


def parse_set_system(text: str):
    """(universe, family, k or None) from {"universe", "family", "k"} JSON."""
    data = json_object(text)
    universe, family, k = data["universe"], data["family"], data.get("k")
    sets = [universe, *family] if isinstance(family, list) else [family]
    if not all(isinstance(s, list) for s in sets):
        raise ValueError("universe and family sets must be JSON lists")
    if any(isinstance(a, (list, dict)) for s in sets for a in s):
        raise ValueError("set elements must be numbers or strings")
    if k is not None:
        exact_int(k, "k")
    return tuple(universe), tuple(frozenset(s) for s in family), k


def exact_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer")
    return value


def exact_ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def exact_int_rows(value, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integer lists")
    return tuple(exact_ints(row, f"each entry of {what}") for row in value)


def refuse_floats(numbers, what: str) -> None:
    """Refuse a float among numbers, which exact arithmetic cannot take.
    Only the set of the numbers' types is scanned, so a long row of ints
    costs one subclass test."""
    if any(issubclass(t, float) for t in {*map(type, numbers)}):
        raise ValueError(f"{what} must be exact ints or fractions")
