"""The flat text readers against the line-by-line ones they replaced.

`reference_parse_graph_text` and `reference_parse_dimacs` are the readers
as they were before the body was read as token columns, kept verbatim but
for the weight helper's name and the DIMACS header's two counts, which
the reference checks with the current rules (marked).  The fuzz below requires the same graph or
formula, or the same exception type and message, on seeded random texts.
"""

import random

import pytest

from combinlab import complexity as cx
from combinlab import graph_core as gc
from combinlab.complexity import CnfFormula, parse_dimacs
from combinlab.graph_core import Digraph, Graph, _first_repeat, exact_fraction, parse_graph_text


def _reference_parse_weight(tok):
    return exact_fraction(tok, "weight") if "/" in tok else int(tok)


def reference_parse_graph_text(text):
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty graph text")
    header = lines[0].split()
    if header[0] not in ("p", "pd") or len(header) != 3:
        raise ValueError("bad header, expected 'p <n> <m>' or 'pd <n> <m>'")
    directed = header[0] == "pd"
    n, m = int(header[1]), int(header[2])
    tag = "a" if directed else "e"
    edges = []
    weights = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != tag:
            raise ValueError(f"expected '{tag}' line, got: {ln}")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad edge line: {ln}")
        u, v = int(parts[1]), int(parts[2])
        edges.append((u, v))
        weights.append(_reference_parse_weight(parts[3]) if len(parts) == 4 else None)
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    has_weights = [w is not None for w in weights]
    if any(has_weights) and not all(has_weights):
        raise ValueError("either all or no edges may carry weights")
    if all(has_weights) and edges:
        from combinlab.paths_mst import WeightedDigraph, WeightedGraph

        pairs = dict(zip(edges, weights))
        if len(pairs) < len(edges):  # a weight map keeps one weight per link
            link = "arc" if directed else "edge"
            raise ValueError(f"repeated {link} {_first_repeat(edges)} in a weighted graph")
        return (WeightedDigraph if directed else WeightedGraph)(n, pairs)
    return Digraph(n, edges) if directed else Graph(n, edges)


def _valid_count(tok):
    try:
        return int(tok) >= 0
    except ValueError:
        return False


def reference_parse_dimacs(text):
    num_vars = None
    body = []
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line}")
            num_vars = int(parts[2])
            if num_vars < 0:  # the variable-count rule, added since
                raise ValueError(f"bad DIMACS header: {line}")
            if not _valid_count(parts[3]):  # the clause-count rule, added since
                raise ValueError(f"bad DIMACS header: {line}")
        else:
            body.append(line)
    lits = list(map(int, " ".join(body).split()))
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if lits and lits[-1] != 0:
        raise ValueError("clause not 0-terminated")
    clauses = []
    start = 0
    for _ in range(lits.count(0)):
        end = lits.index(0, start)
        clauses.append(tuple(lits[start:end]))
        start = end + 1
    return CnfFormula(num_vars, tuple(clauses))


def outcome(parse, text):
    """("ok", type, repr, value) or ("error", type, message): repr tells
    an int weight from an equal Fraction, which == does not."""
    try:
        got = parse(text)
    except Exception as exc:  # every type is compared, not only ValueError
        return ("error", type(exc), str(exc))
    return ("ok", type(got), repr(got), got)


# The odd separators, line ends and line padding a noisy text draws.
# \x0b and \x0c end a line for str.splitlines, so as a separator they cut
# it, and a space as a line end joins two lines.
SEPARATORS = ["\t", "  ", "\x0b", "\x0c", "\xa0", "\u2003", "\x1f", " \t"]
LINE_ENDS = ["\r\n", "\r", "\x0c", "\x0b", "\x85", " "]
PADDING = [" ", "\t", " \t ", "\xa0"]


class Noise:
    """Draws for one text: with `rate` 0 a plain text, spaces and
    newlines only; a higher rate makes each odd draw likelier."""

    def __init__(self, rng):
        self.rng = rng
        self.rate = rng.choice([0, 0, 0.02, 0.05, 0.15])

    def odd(self, weight=1.0):
        return self.rng.random() < self.rate * weight

    def join(self, tokens):
        out = tokens[0]
        for tok in tokens[1:]:
            out += (self.rng.choice(SEPARATORS) if self.odd() else " ") + tok
        pad = self.rng.choice(PADDING) if self.odd() else ""
        return pad + out + (self.rng.choice(PADDING) if self.odd() else "")

    def text(self, lines, comments):
        for extra in comments:
            if self.odd(2):
                lines.insert(self.rng.randint(0, len(lines)), extra)
        text = "".join(ln + (self.rng.choice(LINE_ENDS) if self.odd(0.5) else "\n") for ln in lines)
        return text[:-1] if self.odd() else text


# Tokens that int() reads in unusual ways, and tokens that it refuses.
ODD_INTS = ["+2", "1_0", "\u0663", "0_1", "-0", "+1"]
BAD_TOKENS = ["x", "1.5", "2/x", "1__0", "_1", "#", "e", "a", "p", "1e3", "?"]


def _vertex(noise, n):
    if not noise.odd():
        return str(noise.rng.randint(1, max(n, 1)))
    return noise.rng.choice(ODD_INTS + BAD_TOKENS + ["0", str(n + 1), "-1"])


def _weight(noise):
    rng = noise.rng
    if not noise.odd(2):
        return str(rng.randint(1, 50)) if rng.random() < 0.8 else rng.choice(["3/2", "4/2", "-1/3", "7/1"])
    return rng.choice(ODD_INTS + BAD_TOKENS + ["1/0", "0/5", "-4", "+5/2", "2/0"])


def random_graph_text(rng):
    noise = Noise(rng)
    n = rng.randint(0, 7)
    directed = rng.random() < 0.5
    tag = "a" if directed else "e"
    weighted = rng.random() < 0.5
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    if not directed:
        pairs = [(u, v) for u, v in pairs if u < v]
    links = [(str(u), str(v)) for u, v in rng.sample(pairs, rng.randint(0, min(len(pairs), 12)))]
    if noise.odd(3) and links:  # a repeated link, a self-loop or a bad vertex
        links.append(rng.choice([links[0], links[0][::-1], ("1", "1"), (_vertex(noise, n), "1")]))
    if noise.odd(0.3):
        links += [(_vertex(noise, n), _vertex(noise, n)) for _ in range(rng.randint(10, 30))]
    body = []
    for u, v in links:
        tokens = [tag, u, v]
        if weighted != noise.odd(0.3):  # mixed widths
            tokens.append(_weight(noise))
        if noise.odd():  # a wrong tag or width
            if rng.random() < 0.5:
                tokens[0] = rng.choice(["a", "e", "ex", "E", "x", "p", "#", "1"])
            else:
                tokens = tokens[:rng.randint(1, 2)] if rng.random() < 0.5 else tokens + ["1", "x"][:rng.randint(1, 2)]
        body.append(noise.join(tokens))
    m = len(links)
    if noise.odd():
        m = rng.choice([m - 1, m + 1, m + 2] + ODD_INTS + ["x", "-1"])
    head = ["pd" if directed else "p", str(n) if not noise.odd() else rng.choice(ODD_INTS + ["x", "-1"]), str(m)]
    if noise.odd():
        head = rng.choice([["q", *head[1:]], ["P", *head[1:]], head[:2], head + ["1"], [head[0] + "x", *head[1:]]])
    lines = [noise.join(head)] + body
    if noise.odd(0.2):
        lines = [ln for ln in lines if not ln.strip().startswith(("p", "e", "a"))]
    return noise.text(lines, ("# a comment", "  # indented", "#", "", "   ", "\t"))


def test_graph_reader_matches_reference_on_seeded_texts():
    rng = random.Random(31)
    seen = set()
    for _ in range(12000):
        text = random_graph_text(rng)
        want = outcome(reference_parse_graph_text, text)
        assert outcome(parse_graph_text, text) == want, repr(text)
        seen.add(want[1].__name__ if want[0] == "ok" else want[2].split(" ")[0].split(":")[0])
    assert {"Graph", "Digraph", "WeightedGraph", "WeightedDigraph", "empty", "bad",
            "expected", "invalid", "header", "either", "repeated", "edge", "arc",
            "self-loops", "parallel"} <= seen, seen


def _literal(noise, nv):
    if not noise.odd():
        return str(noise.rng.choice((1, -1)) * noise.rng.randint(1, max(nv, 1)))
    return noise.rng.choice(ODD_INTS + BAD_TOKENS + ["-\u0663", str(nv + 1), "0_0"])


def random_dimacs_text(rng):
    noise = Noise(rng)
    nv = rng.randint(0, 7)
    widths = [rng.randint(1, 3)] if rng.random() < 0.5 else [1, 2, 3]
    clauses = [[_literal(noise, nv) for _ in range(rng.choice(widths))]
               for _ in range(rng.randint(0, 10))]
    if clauses and noise.odd(0.5):
        clauses[rng.randrange(len(clauses))] = []  # an empty clause
    tokens = [tok for c in clauses for tok in (*c, "0")]
    if noise.odd(0.5):
        tokens.append(_literal(noise, nv))  # not 0-terminated
    body, i = [], 0
    one_per_line = rng.random() < 0.5
    while i < len(tokens):
        step = rng.randint(1, 5)
        if one_per_line and "0" in tokens[i:]:
            step = tokens.index("0", i) + 1 - i
        body.append(noise.join(tokens[i:i + step]))
        i += step
    count = str(len(clauses))
    if noise.odd():
        count = rng.choice(["banana", "-1", "+3", "1_0", "\u0663", "-0", "2.0", str(len(clauses) + 1)])
    head = ["p", "cnf", str(nv) if not noise.odd() else rng.choice(["x", "+2", "-1"]), count]
    if noise.odd():
        head = rng.choice([["p", "dnf", *head[2:]], ["p", "CNF", *head[2:]], head[:3], head + ["1"]])
    header = noise.join(head)
    if noise.odd(2):
        where = rng.random()
        if where < 0.4:  # anywhere, even after the body
            lines = body[:]
            lines.insert(rng.randint(0, len(lines)), header)
        elif where < 0.7:  # a second one after the body
            lines = [header] + body + [noise.join(["p", "cnf", str(nv + 1), "1"])]
        else:
            lines = body  # none
    else:
        lines = [header] + body
    return noise.text(lines, ("c a comment", "c", "% end", "%", "", "  c indented", "\t"))


def test_dimacs_reader_matches_reference_on_seeded_texts():
    rng = random.Random(37)
    seen = set()
    for _ in range(12000):
        text = random_dimacs_text(rng)
        want = outcome(reference_parse_dimacs, text)
        assert outcome(parse_dimacs, text) == want, repr(text)
        seen.add(want[0] if want[0] == "ok" else want[2].split(" ")[0].split(":")[0])
    assert seen == {"ok", "invalid", "bad", "missing", "clause", "empty", "literal"}, seen


def test_dimacs_header_refuses_a_clause_count_that_is_not_an_int_at_least_0():
    for count in ("banana", "-1", "2.0", "x1"):
        line = f"p cnf 2 {count}"
        with pytest.raises(ValueError) as raised:
            parse_dimacs(f"{line}\n1 -2 0\n")
        assert str(raised.value) == f"bad DIMACS header: {line}"
    # A count that differs from the clauses read is accepted.
    for count in ("0", "5", "+1", "1_0", "٣"):
        assert parse_dimacs(f"p cnf 2 {count}\n1 -2 0\n").clauses == ((1, -2),)
    # A negative variable count is refused the same way.
    for line in ("p cnf -3 0", "p cnf -1 1"):
        with pytest.raises(ValueError) as raised:
            parse_dimacs(f"{line}\n")
        assert str(raised.value) == f"bad DIMACS header: {line}"
    assert parse_dimacs("p cnf -0 0\n").num_vars == 0


# The small texts np-desk's twosat jobs and the CLI calls parse: clause
# widths 1 and 2 mixed over 3-6 variables, and 4-vertex graph files.


def small_dimacs_texts(rng, count):
    for _ in range(count):
        nv = rng.randint(3, 6)
        clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, nv + 1), rng.randint(1, 2))]
                   for _ in range(rng.randint(2, 10))]
        yield f"p cnf {nv} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)


def small_graph_texts(rng, count):
    pairs = [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v]
    for _ in range(count):
        directed = rng.random() < 0.5
        links = rng.sample(pairs, rng.randint(0, 6))
        if not directed:
            links = sorted({(min(e), max(e)) for e in links})
        weighted = rng.random() < 0.5
        tag = "a" if directed else "e"
        lines = [f"{'pd' if directed else 'p'} 4 {len(links)}"]
        lines += [f"{tag} {u} {v}" + (f" {rng.randint(1, 9)}" if weighted else "") for u, v in links]
        yield "\n".join(lines) + "\n"


def test_small_texts_take_the_flat_path(monkeypatch):
    filtered = []
    line_filter = cx._dimacs_lines
    monkeypatch.setattr(cx, "_dimacs_lines", lambda text: filtered.append(text) or line_filter(text))

    def no_error_loop(*args):
        raise AssertionError("a well-formed body reached the line-by-line error loop")

    monkeypatch.setattr(gc, "_raise_first_error", no_error_loop)
    rng = random.Random(41)
    for text in small_dimacs_texts(rng, 300):
        filtered.clear()
        assert parse_dimacs(text) == reference_parse_dimacs(text)
        assert filtered == [text.partition("\n")[0]]  # only the header went line by line
    for text in small_graph_texts(rng, 300):
        want = reference_parse_graph_text(text)
        got = parse_graph_text(text)
        assert (type(got), repr(got)) == (type(want), repr(want))
