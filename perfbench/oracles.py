"""Checks the benchmark makes with its own code, never with posetrep's.

A poset here is a pair (elements, relations): a tuple of labels and a set of
strict pairs (a, b) meaning a < b, transitively closed.  A dimension vector
is (d0, values) with values a dict over the elements, missing keys meaning 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def closure(elements, relations):
    """Transitive closure of the generating pairs; raises on a cycle."""
    lt = set(map(tuple, relations))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(lt), repeat=2):
            if b == c and (a, d) not in lt:
                lt.add((a, d))
                changed = True
    if any(a == b for a, b in lt):
        raise ValueError("cyclic relation")
    return tuple(elements), frozenset(lt)


def induced(poset, subset):
    elements, lt = poset
    members = tuple(a for a in elements if a in set(subset))
    return members, frozenset((a, b) for a, b in lt if a in members and b in members)


def iso_code(poset):
    """Brute-force isomorphism invariant: the least relation code over all
    relabellings.  Exponential; fine for the eight points of K."""
    elements, lt = poset
    best = None
    for perm in itertools.permutations(range(len(elements))):
        pos = dict(zip(elements, perm))
        code = tuple(sorted((pos[a], pos[b]) for a, b in lt))
        if best is None or code < best:
            best = code
    return len(elements), best


def distinct_up_to_iso(posets):
    seen, out = set(), []
    for p in posets:
        code = iso_code(p)
        if code not in seen:
            seen.add(code)
            out.append(p)
    return out


def tits_form(poset, d0, values):
    """The paper's form: Σ x_a² + Σ_{a<b} x_a x_b − x_0 Σ_{a∈S} x_a, with x_0 = d0."""
    elements, lt = poset
    q = d0 * d0 + sum(values.get(a, 0) ** 2 for a in elements)
    q += sum(values.get(a, 0) * values.get(b, 0) for a, b in lt)
    return q - d0 * sum(values.get(a, 0) for a in elements)


def positive_on_subvectors(poset, d0, values):
    """Exhaustive pure-Python check that Q > 0 on every nonzero x <= d."""
    elements, _ = poset
    for x0 in range(d0 + 1):
        for xs in itertools.product(*(range(values.get(a, 0) + 1) for a in elements)):
            if x0 == 0 and not any(xs):
                continue
            if tits_form(poset, x0, dict(zip(elements, xs))) <= 0:
                return False
    return True


def dimension_vectors(n_slots, max_total):
    """Every vector of n_slots non-negative entries with sum <= max_total."""
    def rec(i, remaining, acc):
        if i == n_slots:
            yield tuple(acc)
            return
        for v in range(remaining + 1):
            acc.append(v)
            yield from rec(i + 1, remaining - v, acc)
            acc.pop()
    yield from rec(0, max_total, [])


def rank(rows, p):
    """Rank of a matrix given as rows, over GF(p), or over Q when p is None."""
    if p is None:
        work = [[Fraction(x) for x in r] for r in rows]
    else:
        work = [[x % p for x in r] for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                if p is None:
                    f = work[i][c] / work[r][c]
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
                else:
                    f = work[i][c] * pow(work[r][c], -1, p) % p
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        r += 1
    return r


def element_dimension(poset, d0, blocks, p):
    """Dimension vector of a block-matrix element: d0 and, at each a, the rank
    of the blocks at b <= a side by side minus the rank of those at b < a.
    blocks maps each element to its d0 x d(a) rows (missing means no columns)."""
    elements, lt = poset

    def stacked_rank(cone):
        rows = [[] for _ in range(d0)]
        for b in elements:
            if b in cone:
                for i, row in enumerate(blocks.get(b) or [[]] * d0):
                    rows[i].extend(row)
        return rank(rows, p) if rows and rows[0] else 0

    values = {}
    for a in elements:
        below = {b for b in elements if (b, a) in lt}
        values[a] = stacked_rank(below | {a}) - stacked_rank(below)
    return d0, {a: v for a, v in values.items() if v}


def burnside_point_tuples(m, n, p):
    """Orbits of GL_n(F_p) on m-tuples of points of P^{n-1}(F_p), by Burnside:
    the mean over the group of (fixed points)^m."""
    def normal(v):
        lead = next(x for x in v if x)
        inv = pow(lead, -1, p)
        return tuple(x * inv % p for x in v)

    points = sorted({normal(v) for v in itertools.product(range(p), repeat=n) if any(v)})
    order, total = 0, 0
    for entries in itertools.product(range(p), repeat=n * n):
        g = [entries[i * n:(i + 1) * n] for i in range(n)]
        fixed = 0
        for v in points:
            w = tuple(sum(gi[j] * v[j] for j in range(n)) % p for gi in g)
            if not any(w):
                break  # g kills a point, so g is singular
            fixed += normal(w) == v
        else:
            order += 1
            total += fixed ** m
    if total % order:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // order
