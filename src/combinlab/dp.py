"""Dynamic-programming solvers: resource allocation, Pareto-set knapsack,
longest common subsequence, matrix-chain ordering, parenthesization
counting, and optimal polygon triangulation.

The 0/1 knapsack has two paths with one answer: the largest value, at
the least volume, and among the item sets with no (0, 0) item that reach
both, the first ascending item tuple.  When every value, volume and the
capacity is an int and a cost model finds the capacity table at most
half as dear as the sweep, the table is filled by packed rows, one int
per item with a byte-aligned field per volume.  Every other input
(fractions, Decimals, bools, a capacity such as 10**20) takes the
Pareto-set sweep, whose frontier is a sorted list of (volume, -value,
items) tuples, so native tuple order is its tie rule, and sorted()
merges the frontier with its extension by each item in linear time.
The longest common subsequence runs on bit-parallel rows, one big
integer per row of its length table (Allison & Dix 1986, "A bit-string
longest-common-subsequence algorithm"; Hyyrö 2004, "Bit-parallel
LCS-length computation revisited"); its tables are built from the rows
only when read.  The matrix chain fills its table by packed rows.

Instance files for knapsack and allocation are plain JSON (see
load_knapsack_json / load_allocation_json).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, count, pairwise
from math import gcd, isqrt, lcm

from .intmath import (
    _FrozenRecord, _Record, exact_int, exact_int_rows, exact_ints, json_object, read_cells,
    refuse_floats,
)

DIAG, UP, LEFT = "Diag", "Up", "Left"


class AllocationInstance(_FrozenRecord):
    """N tasks with per-task cost and profit tables over x = 0..b.  An
    immutable value, checked once when made: instances compare and hash
    by their three fields."""

    __slots__ = ("costs", "profits", "budget")
    costs: tuple[tuple[int, ...], ...]
    profits: tuple[tuple[int, ...], ...]
    budget: int

    def _check(self):
        if len(self.costs) != len(self.profits) or not self.costs:
            raise ValueError("need matching, nonempty cost/profit tables")
        width = len(self.costs[0])
        for table in (*self.costs, *self.profits):
            if len(table) != width:
                raise ValueError("all tables must cover the same 0..b range")
            if not table or table[0] != 0:
                raise ValueError("tables must start at 0")
            if any(a > b for a, b in zip(table, table[1:])):
                raise ValueError("tables must be monotone non-decreasing")
            if any(x < 0 for x in table):
                raise ValueError("tables must be non-negative")
        refuse_floats((self.budget, *(x for table in (*self.costs, *self.profits) for x in table)),
                      "tables and budget")
        if type(self.budget) is not int or any(type(x) is not int for table in self.costs for x in table):
            raise ValueError("costs and budget must be integers")  # allocate indexes by them
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    @property
    def n_tasks(self) -> int:
        return len(self.costs)

    @property
    def b(self) -> int:
        return len(self.costs[0]) - 1

    @classmethod
    def from_lists(cls, costs, profits, budget) -> "AllocationInstance":
        return cls(
            tuple(tuple(t) for t in costs),
            tuple(tuple(t) for t in profits),
            budget,
        )

    @classmethod
    def simple_split(cls, profits, total) -> "AllocationInstance":
        """The (N, L) special case: unit costs c_i(x) = x, budget L."""
        width = total + 1
        tables = []
        for table in profits:
            if len(table) < width:
                table = list(table) + [table[-1]] * (width - len(table))
            tables.append(tuple(table[:width]))
        unit = tuple(range(width))
        return cls(tuple(unit for _ in tables), tuple(tables), total)


def allocate(inst: AllocationInstance) -> tuple[int, list[int]]:
    """Best total profit and one optimal plan (x_1..x_N)."""
    n, k, b = inst.n_tasks, inst.budget, inst.b
    best = [[0] * (k + 1) for _ in range(n + 1)]
    choice = [[0] * (k + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost, profit = inst.costs[i - 1], inst.profits[i - 1]
        for j in range(k + 1):
            top, arg = -1, 0
            for x in range(b + 1):
                if cost[x] > j:
                    break  # costs are monotone: larger x cannot fit
                cand = profit[x] + best[i - 1][j - cost[x]]
                if cand > top:
                    top, arg = cand, x
            best[i][j] = top
            choice[i][j] = arg
    plan = []
    j = k
    for i in range(n, 0, -1):
        x = choice[i][j]
        plan.append(x)
        j -= inst.costs[i - 1][x]
    plan.reverse()
    return best[n][k], plan


def knapsack_pareto(values, volumes, capacity) -> tuple[set[int], int]:
    """Exact 0/1 knapsack.  Items are numbered from 1.  Returns (chosen
    item set, total value): the largest value that fits, at the least
    volume that holds it, and among the item sets with no item of value 0
    and volume 0 that reach both, the one whose ascending item tuple comes
    first.

    When every value, every volume and the capacity is an int (not a
    bool) and the capacity table is small enough to beat the sweep (see
    `_table_fits`), `_knapsack_table` fills it by packed rows.  Every
    other input, such as fractions, Decimals, bools or a huge capacity,
    goes to `_knapsack_sweep`, the Pareto-set sweep of Nemhauser and
    Ullmann.  Both give the same answer.
    """
    values, volumes = _knapsack_lists(values, volumes, capacity)
    if _table_fits(values, volumes, capacity):
        return _knapsack_table(values, volumes, capacity)
    return _knapsack_sweep(values, volumes, capacity)


def _knapsack_lists(values, volumes, capacity) -> tuple[list, list]:
    """values and volumes as lists, checked as both knapsack entry points
    take them: aligned, exact, non-negative, and a capacity >= 0."""
    values, volumes = list(values), list(volumes)
    if len(values) != len(volumes):
        raise ValueError("values and volumes must align")
    refuse_floats((*values, *volumes, capacity), "values, volumes and capacity")
    if any(c < 0 for c in values) or any(v < 0 for v in volumes):
        raise ValueError("inputs must be non-negative")
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    return values, volumes


def _knapsack_sweep(values, volumes, capacity) -> tuple[set[int], int]:
    """knapsack_pareto by a Pareto-set sweep (Nemhauser and Ullmann), for
    any exact numbers.  Among equal-value states the smaller volume
    survives; among fully equal states the smaller item tuple does, so an
    item of value 0 and volume 0 never joins one."""
    # A state is (volume, -value, items), its items an ascending tuple, so
    # tuple order is the tie rule: volume, then value descending, then the
    # smaller item tuple.  Volume and value both rise strictly along the
    # frontier, so adding item k to every state that still fits gives a
    # second sorted run, and sorted() merges the two in linear time.
    frontier = [(0, 0, ())]
    for k, (value, volume) in enumerate(zip(values, volumes), 1):
        room = capacity - volume
        extended = [(v + volume, neg - value, items + (k,)) for v, neg, items in frontier if v <= room]
        merged, frontier, low = sorted(frontier + extended), [], 1
        for state in merged:  # keep each state whose value beats every one before it
            if state[1] < low:
                frontier.append(state)
                low = state[1]
        assert all(v < w and m > n for (v, m, _), (w, n, _) in pairwise(frontier))
    _, neg, items = frontier[-1]  # the largest value, and the only state with it
    return set(items), -neg


def _cell_width(top: int) -> int:
    """Bits per field for values up to `top` and a guard bit above them:
    8, 16, 32 or 64, or whole bytes past 64."""
    w = top.bit_length() + 1
    return 8 << max(0, (w - 1).bit_length() - 3) if w <= 64 else -(-w // 8) * 8


def _table_fits(values, volumes, capacity) -> bool:
    """Whether knapsack_pareto takes `_knapsack_table`: all ints, and a
    table that costs at most half the sweep by the cost model of
    `_table_cost` and `_sweep_cost`.  The half is the margin for the
    error of the sweep's estimate."""
    n = len(values)
    if n < TABLE_MIN_ITEMS or type(capacity) is not int:
        return False
    cols = capacity + 1
    if 2 * _table_cost(n, cols, 8) > _sweep_cost(n, cols):
        return False  # too dear whatever the values
    if {*map(type, values), *map(type, volumes)} - {int}:
        return False
    value_sum = sum(values)
    w = _cell_width(value_sum + 1)
    if (n + 1) * cols * w > TABLE_BITS:
        return False
    reach = min(value_sum // (gcd(*values) or 1), min(sum(volumes), capacity) // (gcd(*volumes) or 1)) + 1
    return 2 * _table_cost(n, cols, w) <= _sweep_cost(n, reach)


# The cost model's constants, in the time to fill one bit of a table row
# (about 0.3 ns on the host of CHANGES.md), fitted to timings of both
# paths; and the largest table, in bits.
TABLE_CALL, TABLE_COLUMN, TABLE_ITEM = 12000, 100, 4300
SWEEP_CALL, SWEEP_ITEM, SWEEP_STATE = 9600, 1500, 1350
TABLE_BITS = 1 << 27


def _table_cost(n: int, cols: int, w: int) -> int:
    """The table's cost: a call, each column read back, and per item a
    fixed part and its row of cols w-bit fields."""
    return TABLE_CALL + cols * (TABLE_COLUMN + n * w) + n * TABLE_ITEM


def _sweep_cost(n: int, reach: int) -> int:
    """The sweep's estimated cost: a call, per item, and per state.  The
    frontier after k items is estimated at k^2 / 4 + 1 states, as on
    random instances, but no more than `reach`, the count of values or
    of volumes it can reach."""
    rising = min(n, 2 * isqrt(reach))  # k^2 / 4 + 1 stays below reach up to about here
    states = rising * (rising + 1) * (2 * rising + 1) // 24 + rising + (n - rising) * reach
    return SWEEP_CALL + SWEEP_ITEM * n + SWEEP_STATE * states


# The fewest items for which the table can pass: one column and 8-bit
# fields against the sweep's largest estimate.
TABLE_MIN_ITEMS = next(n for n in count(1) if 2 * _table_cost(n, 1, 8) <= _sweep_cost(n, n * n))


def _knapsack_table(values, volumes, capacity) -> tuple[set[int], int]:
    """knapsack_pareto for int inputs, on packed rows (Bellman 1957;
    broadword arithmetic, Knuth TAOCP 4A 7.1.3).

    Row g_k is one int with a w-bit field per volume c = 0..capacity, at
    bit c * w: 1 + the best value of a subset of items k..n whose volume
    is exactly c, or 0 where no subset has that volume.  Only items that
    can be in a best set count: those of value c_k > 0 and volume v_k
    within the capacity.  g_{n+1} = 1, and for such an item g_k is the
    field-wise max of g_{k+1} and g_{k+1} shifted up by v_k fields with
    c_k added to its nonzero fields; for the others g_k = g_{k+1}.  The
    fields are whole bytes (`_cell_width`) and hold at most sum(values)
    + 1, below the guard (top) bit, so the max is one subtraction with
    the guard bits set, as in `matrix_chain`.

    g_1 is read once: V is its largest field and W the first volume
    holding it, the least volume at the best value.  The walk over
    k = 1..n takes item k exactly when it is not (0, 0) and g_{k+1} holds
    V - c_k at W - v_k, that is, when some best set at (W, V) that agrees
    with the walk so far holds it, and then goes on from (W - v_k,
    V - c_k).  Taking each item it can, the walk ends at the first
    ascending tuple.  A value-0 item of volume > 0 never passes the
    test, as no set reaches V at less volume than W."""
    w = _cell_width(sum(values) + 1)
    top = w - 1
    cols = capacity + 1
    full = (1 << cols * w) - 1
    ones = full // ((1 << w) - 1)  # 1 in every field
    guard = ones << top
    row, rows = 1, [1]  # rows ends as g_{n+1}, g_n, ..., g_1
    for value, volume in zip(reversed(values), reversed(volumes)):
        if value and volume <= capacity:
            cand = row << volume * w & full
            cand += value * (((cand | guard) - ones & guard) >> top)
            kept = (cand | guard) - row & guard  # the guard bits of fields where cand >= row
            row ^= (row ^ cand) & kept - (kept >> top)
        rows.append(row)
    rows.reverse()
    cells = read_cells(row, cols, w)
    best = max(cells)
    room, want, field = cells.index(best), best, (1 << w) - 1
    chosen = []
    for k, (value, volume) in enumerate(zip(values, volumes), 1):
        # rows[k] is g_{k+1}, and want - value is 1 + (V - c_k) as it holds it.
        if (value or volume) and volume <= room and rows[k] >> (room - volume) * w & field == want - value:
            chosen.append(k)
            room -= volume
            want -= value
    assert (room, want) == (0, 1)
    return set(chosen), best - 1


def greedy_knapsack_by_density(values, volumes, capacity) -> tuple[set[int], int]:
    """Value-density greedy; feasible but with no optimality contract."""
    values, volumes = _knapsack_lists(values, volumes, capacity)

    def density_key(i: int):
        c, v = values[i - 1], volumes[i - 1]
        if v == 0:  # free items first, best value leading
            return (0, -c, i)
        return (1, Fraction(-c, v), i)

    order = sorted(range(1, len(values) + 1), key=density_key)
    chosen: set[int] = set()
    room = capacity
    total = 0
    for i in order:
        if volumes[i - 1] <= room:
            chosen.add(i)
            room -= volumes[i - 1]
            total += values[i - 1]
    return chosen, total


class LcsTables:
    """The (n+1) x (m+1) tables of `lcs`: `lengths[i][j]` is the LCS length
    of x[:i] and y[:j], and `arrows[i][j]` (i, j >= 1) the step the
    traceback takes from cell (i, j), Diag, Up or Left; row 0 and column 0
    hold 0 and None.  Both are built from lcs's bit rows when first read
    and kept."""

    __slots__ = ("_rows", "_hits", "_m", "_lengths", "_arrows")

    def __init__(self, rows: list[int], hits: list[int], m: int):
        self._rows = rows  # bit j-1 of rows[i] set: lengths[i][j] == lengths[i][j-1]
        self._hits = hits  # bit j-1 of hits[i-1] set: x[i-1] == y[j-1]
        self._m = m
        self._lengths: list[list[int]] | None = None
        self._arrows: list[list[str | None]] | None = None

    @property
    def lengths(self) -> list[list[int]]:
        if self._lengths is None:
            m = self._m  # a clear bit j-1 is a step up at column j
            self._lengths = [list(accumulate(_bits(~row, m), initial=0)) for row in self._rows]
        return self._lengths

    @property
    def arrows(self) -> list[list[str | None]]:
        if self._arrows is None:
            c, m = self.lengths, self._m
            table: list[list[str | None]] = [[None] * (m + 1)]
            for above, row, hit in zip(c, c[1:], self._hits):
                table.append([None, *(
                    DIAG if mark else UP if here == up else LEFT
                    for mark, here, up in zip(_bits(hit, m), row[1:], above[1:])
                )])
            self._arrows = table
        return self._arrows


def _bits(v: int, m: int) -> bytes:
    """Bits 0..m-1 of v, lowest first, one byte of value 0 or 1 each."""
    return format(v & ((1 << m) - 1) | 1 << m, "b")[:0:-1].encode().translate(_DIGIT_VALUES)


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _match_masks(x: list, y: list) -> list[int]:
    """For each item of x, the mask whose bit j-1 is set where it == y[j-1]."""
    keyed: dict = {}
    loose = []  # (item, bit) for the unhashable items of y
    for j, item in enumerate(y):
        try:
            if item == item:  # a dict would find nan by identity, but nan != nan
                keyed[item] = keyed.get(item, 0) | 1 << j
        except TypeError:
            loose.append((item, 1 << j))
    masks = []
    for item in x:
        try:
            masks.append(keyed.get(item, 0))
        except TypeError:  # unhashable: compared with every item of y
            masks.append(sum(1 << j for j, other in enumerate(y) if item == other))
    if loose:
        masks = [hit | sum(bit for other, bit in loose if item == other) for item, hit in zip(x, masks)]
    return masks


def lcs(x, y) -> tuple[int, list, LcsTables]:
    """Longest common subsequence of x and y, its length and its tables.

    Bit-parallel rows (Allison & Dix 1986, "A bit-string
    longest-common-subsequence algorithm"; Hyyrö 2004, "Bit-parallel
    LCS-length computation revisited"): row i of the length table c is one
    big integer whose bit j-1 is set where c[i][j] == c[i][j-1], so
    c[i][j] = j - popcount(row & (2^j - 1)).  With `hit` the mask of the
    items of y equal to x[i-1] and u = row & hit, the next row is
    ((row + u) | (row - u)) cut to m bits, so the length takes O(n) big-int
    operations.  Items match by ==, as a cell-by-cell table compares them;
    an item unequal to itself, such as nan, matches nothing.

    The traceback from (n, m) steps Diag on a match, else Up when
    c[i-1][j] >= c[i][j-1], else Left: the classical pseudocode's tie rule,
    so the sequence and the tables are deterministic.  It reads c from the
    rows, O(n + m) steps.  The tables are built from the rows only when
    read (see LcsTables).
    """
    x, y = list(x), list(y)
    n, m = len(x), len(y)
    hits = _match_masks(x, y)
    full = (1 << m) - 1
    row = full
    rows = [row]
    for hit in hits:
        u = row & hit
        row = ((row + u) | (row - u)) & full
        rows.append(row)
    length = m - row.bit_count()
    out = []
    i, j, here = n, m, length  # here is c[i][j]
    while i and j:
        if hits[i - 1] >> (j - 1) & 1:
            out.append(x[i - 1])
            i, j, here = i - 1, j - 1, here - 1
        elif j - (rows[i - 1] & ((1 << j) - 1)).bit_count() == here:  # c[i-1][j] == c[i][j]
            i -= 1
        else:
            j -= 1
    out.reverse()
    return length, out, LcsTables(rows, hits, m)


class ChainTables(_Record):
    __slots__ = ("costs", "splits")  # m[i][j] (1-based upper triangle) and s[i][j]


def matrix_chain(dims) -> tuple[int, str, ChainTables]:
    """Cheapest parenthesization for multiplying A_1..A_n with dimension
    vector p_0..p_n; returns (cost, expression, tables).

    m[i][j] is the least m[i][k] + m[k+1][j] + p[i-1]*p[k]*p[j] over
    i <= k < j, and s[i][j] is the first such k to reach it: a later k
    takes the split only when strictly cheaper.  For j > i, m[i][j] is a
    Fraction exactly when some p[i-1..j] is one.

    The table is filled by packed rows (broadword arithmetic, Knuth TAOCP
    4A 7.1.3), i from n down to 1 and k ascending.  A packed row is one
    int with a w-bit field per column, column j at bit (n - j) * w, so the
    columns j > k still open at step k are the low fields, and at step k
    row i holds only those.  Step k adds m[i][k] and p[i-1]*p[k]*p[j] to
    every field of row k + 1 at once; subtracting row i from that, with
    the guard (top) bits set, clears the guard exactly where the candidate
    is strictly smaller, and those fields take the candidate, and k in the
    packed split row.  No cost reaches `far`, so every candidate fits
    below the guard.  Fraction dimensions are scaled to ints by the lcm L
    of their denominators, which scales every cost by L**3."""
    p = list(dims)
    n = len(p) - 1
    if not all(isinstance(d, (int, Fraction)) for d in p):
        raise ValueError("dimensions must be integers or fractions")
    if n < 1 or any(d < 1 for d in p):
        raise ValueError("need at least one matrix and positive dimensions")
    scale = lcm(*(d.denominator for d in p))
    q = [d.numerator * (scale // d.denominator) for d in p]
    far = max(n - 1, 1) * max(q) ** 3 + 1  # above every parenthesization's cost and every split
    w = far.bit_length() + 1
    top = w - 1  # the guard bit's place in a field
    ones = int("1".zfill(w) * n, 2)  # 1 in the fields of columns 1..n
    dims_row = sum(q[j] << (n - j) * w for j in range(1, n + 1))
    # Per k, over the open columns j > k: the fields themselves, 1 in
    # each, p[j] in each, k in each, and each one's guard bit.
    open_mask = [(1 << (n - k) * w) - 1 for k in range(n + 1)]
    low = [ones >> k * w for k in range(n + 1)]
    dims_low = [dims_row & mask for mask in open_mask]
    splits_low = [k * ones_k for k, ones_k in enumerate(low)]
    guards = [ones_k << top for ones_k in low]
    rows = [0] * (n + 1)  # rows[i]: m[i][i..n], packed
    m = [[0] * (n + 1) for _ in range(n + 1)]
    s = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n, 0, -1):
        mi, si = m[i], s[i]
        row, split, done, before = far * low[i], 0, 0, q[i - 1]
        for k in range(i, n):
            # Column k is final: take it off the open fields.
            at = (n - k) * w
            mi[k] = mik = row >> at
            si[k] = split >> at
            row &= open_mask[k]
            split &= open_mask[k]
            done = done << w | mik
            cand = rows[k + 1] + before * q[k] * dims_low[k] + mik * low[k]
            guard = guards[k]
            marked = (cand | guard) - row & guard ^ guard  # the guard bits of fields where cand < m[i][j]
            if marked:
                mask = marked - (marked >> top)  # the value bits of the marked fields
                row ^= (row ^ cand) & mask
                split ^= (split ^ splits_low[k]) & mask
        mi[n], si[n] = row, split
        rows[i] = done << w | row
    fractions = [t for t, d in enumerate(p) if isinstance(d, Fraction)]
    if fractions:
        cube = scale**3
        for i in range(1, n + 1):
            mi = m[i]
            first = next((t for t in fractions if t >= i - 1), n + 1)  # m[i][j] is a Fraction from j = first on
            for j in range(i + 1, n + 1):
                mi[j] = Fraction(mi[j], cube) if j >= first else mi[j] // cube
    # Render the split tree with an explicit stack; None closes a product.
    out: list[str] = []
    stack: list[tuple[int, int] | None] = [(1, n)]
    while stack:
        span = stack.pop()
        if span is None:
            out.append(")")
        elif span[0] == span[1]:
            out.append(f"A{span[0]}")
        else:
            i, j = span
            k = s[i][j]
            out.append("(")
            stack += [None, (k + 1, j), (i, k)]
    return m[1][n], "".join(out), ChainTables(m, s)


def count_parenthesizations(n: int) -> int:
    """Number of full parenthesizations of an n-term product (exact)."""
    if exact_int(n, "n") < 1:
        raise ValueError("needs n >= 1")
    p = [0] * (n + 1)
    p[1] = 1
    for t in range(2, n + 1):
        p[t] = sum(p[k] * p[t - k] for k in range(1, t))
    return p[n]


def polygon_triangulation(weight, vertex_count: int) -> tuple[object, list[tuple[int, int]]]:
    """Minimum-weight triangulation of the polygon v_0..v_{n} where
    vertex_count = n + 1 >= 3.

    `weight(i, k, j)` scores the triangle on vertices v_i, v_k, v_j, as
    an exact int or fraction; a float weight is refused.
    Returns (total weight, list of diagonals), with exactly
    vertex_count - 3 diagonals.
    """
    if exact_int(vertex_count, "vertex_count") < 3:
        raise ValueError("polygon needs at least 3 vertices")
    n = vertex_count - 1
    m = [[0] * (n + 1) for _ in range(n + 1)]
    cols = [[0] * (n + 1) for _ in range(n + 1)]  # cols[j][i] = m[i][j]
    s = [[0] * (n + 1) for _ in range(n + 1)]
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            weights = [weight(i - 1, k, j) for k in range(i, j)]
            refuse_floats(weights, "triangle weights")
            row, col = m[i], cols[j]
            # The first minimum wins ties, so only a strictly cheaper k moves it.
            best, arg = row[i] + col[i + 1] + weights[0], i
            for k in range(i + 1, j):
                q = row[k] + col[k + 1] + weights[k - i]
                if q < best:
                    best, arg = q, k
            row[j] = col[i] = best
            s[i][j] = arg

    # Walk the split tree with an explicit stack.  The split k of the
    # sub-polygon v_{i-1}..v_j has i - 1 < k < j, so both new sides
    # (a, b) have a < b; each is a diagonal unless it is a polygon side.
    diagonals: set[tuple[int, int]] = set()
    stack = [(1, n)]
    while stack:
        i, j = stack.pop()
        if i >= j:
            continue
        k = s[i][j]
        for a, b in ((i - 1, k), (k, j)):
            if b - a > 1 and (a, b) != (0, n):
                diagonals.add((a, b))
        stack += [(i, k), (k + 1, j)]
    return m[1][n], sorted(diagonals)


def triangle_area_weight(coords):
    """Exact triangle-area weight callback over integer coordinates."""
    refuse_floats((x for point in coords for x in point), "coordinates")

    def weight(i, k, j):
        (x1, y1), (x2, y2), (x3, y3) = coords[i], coords[k], coords[j]
        doubled = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        return abs(Fraction(doubled, 2))

    return weight


def dimension_product_weight(dims):
    """Matrix-chain weight w(v_i, v_k, v_j) = p_i * p_k * p_j."""

    def weight(i, k, j):
        return dims[i] * dims[k] * dims[j]

    return weight


# --- JSON instance files -------------------------------------------------


def load_knapsack_json(text: str) -> tuple[list[int], list[int], int]:
    data = json_object(text)
    capacity = exact_int(data["capacity"], "capacity")
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    return (
        list(exact_ints(data["values"], "values")),
        list(exact_ints(data["volumes"], "volumes")),
        capacity,
    )


def dump_knapsack_json(values, volumes, capacity) -> str:
    return json.dumps(
        {"values": list(values), "volumes": list(volumes), "capacity": capacity},
        sort_keys=True,
    )


def load_allocation_json(text: str) -> AllocationInstance:
    data = json_object(text)
    return AllocationInstance(
        exact_int_rows(data["costs"], "costs"),
        exact_int_rows(data["profits"], "profits"),
        exact_int(data["budget"], "budget"),
    )
