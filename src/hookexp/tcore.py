"""t-cores and their integer-vector codings.

A partition is a t-core when no cell has hook length t.  For odd t >= 3 a
t-core is encoded three equivalent ways, each listed by residue mod t
(entry i is i mod t), each one affine map and one placement by residue:

 * U-coding: the largest element of each residue class of
   H = {first-column hooks} union {-1, ..., -t} (u_0 = -t), read off the
   parts: the first-column hooks rise along the reversed parts, so a class
   keeps its last hook, or i - t if it has none.

 * V-coding: U shifted by sum(U)/t to sum zero, placed by residue again.

 * N-coding: V translated, as V holds t*n_j + j - (t-1)/2; it sums to zero.

Decoding closes each positive entry of U downward in steps of t to get the
first-column hooks.  Weight and hook products are polynomial in the
codings: see core_weight_from_v / core_product_from_v.  The coding search
_v_codings walks the V-codings of one weight directly, as the weight is
sum(v^2)/(2t) - (t^2 - 1)/24, and hands each to a reader.
The public codings check t by exactnum's number rule, their vectors and
sets by a plain ValueError (they also check the package's own codings),
and their results by exactnum._invariant; _u_of/_v_of/_n_of code a known
t-core.
"""

from collections import namedtuple
from fractions import Fraction
from math import isqrt
from operator import add, sub

from .exactnum import (
    UsageError,
    _invariant,
    _require_int,
    _require_size,
    diff_product,
    superfactorial,
)
from .partition import (
    _memo,
    _top_row_walk,
    conjugate_of,
    first_column_hooks_of,
    validate_partition,
)


_CODING_T = "codings need an odd t >= 3, got {!r}"


def _require_coding_t(t, message=_CODING_T):
    _require_int(t, "t", 3, message)
    if not t % 2:
        raise UsageError(message.format(t))


def _require_t(t, message="t must be a positive integer"):
    _require_int(t, "t", 1, message)


def _int_entries(values, name):
    """A plain ValueError unless every entry is an int (a bool is not)."""
    for value in values:
        if type(value) is not int:
            raise ValueError("%s must be an integer, got %r" % (name, value))


def is_t_core(parts, t):
    """True when no hook length equals t (any integer t >= 1).

    The hook length of cell (i, j) (0-based) is
    (row_i - i) - (j - conj_j) - 1, so a hook of length t is a match
    between the sets {row_i - i - 1 - t} and {j - conj_j}.  Every match is a
    cell: for j >= row_i, j - conj_j >= row_i - i.
    """
    _require_t(t)
    parts = validate_partition(parts)
    conj = conjugate_of(parts)
    return set(map(sub, range(len(conj)), conj)).isdisjoint(
        map(sub, parts, range(t + 1, t + 1 + len(parts))))


def validate_t_compact(elements, t):
    """Raise unless `elements` is t-compact.

    Three conditions: the non-positive elements are exactly -1..-t; positive
    elements are never divisible by t; and e - t is present for every
    positive element e.
    """
    elems = set(elements)
    _int_entries(elems, "elements entry")
    negatives = {e for e in elems if e <= 0}
    if negatives != set(range(-t, 0)):
        raise ValueError("non-positive elements must be exactly -1..-t")
    for e in elems:
        if e > 0:
            if e % t == 0:
                raise ValueError("positive element %d divisible by t=%d" % (e, t))
            if e - t not in elems:
                raise ValueError("missing %d below positive element %d" % (e - t, e))


class HSet(namedtuple("HSet", ("t", "elements"))):
    """Extended first-column hook set of a t-core; t-compact by construction.

    An immutable named tuple (t, elements).  Every way of building one
    checks it: the constructor, _make, _replace and unpickling.
    """

    __slots__ = ()

    def __new__(cls, t, elements):
        _require_coding_t(t)
        validate_t_compact(elements, t)
        return super().__new__(cls, t, elements)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):  # pickle protocols 0 and 1 would skip __new__
        return HSet, tuple(self)

    def sorted_desc(self):
        return tuple(sorted(self.elements, reverse=True))


def _checked_core(parts, t):
    """The validated parts of a t-core, for an odd t >= 3."""
    _require_coding_t(t)
    parts = tuple(parts)
    if not is_t_core(parts, t):
        raise ValueError("%r is not a %d-core" % (parts, t))
    return parts


def _h_elements(parts, t):
    """First-column hooks of a checked t-core together with -1..-t."""
    return frozenset(first_column_hooks_of(parts)).union(range(-t, 0))


def h_set(parts, t):
    """HSet of a t-core: first-column hooks together with -1..-t."""
    return HSet(t, _h_elements(_checked_core(parts, t), t))


def max_by_residue(elements, t):
    """Largest element of each residue class mod t, as a dict residue -> max."""
    best = {}
    for e in elements:
        r = e % t
        if r not in best or e > best[r]:
            best[r] = e
    return best


def _by_residue(values, t, what):
    """The t values of a sequence listed by residue mod t, each residue once."""
    out = [None] * t
    for x in values:
        out[x % t] = x
    _invariant(len(values) == t and None not in out, what)
    return tuple(out)


def _u_of(parts, t):
    """U-coding of a checked t-core, read off its first-column hooks."""
    u = list(range(-t, 0))  # u[i] = i - t until a hook of residue i comes
    for h in map(add, reversed(parts), range(len(parts))):  # rising hooks
        u[h % t] = h
    _invariant(u[0] == -t, "u_0 must be -t")
    return tuple(u)


def _v_of(parts, t):
    """V-coding of a checked t-core: its U-coding shifted to sum zero."""
    u = _u_of(parts, t)
    shift, rem = divmod(sum(u), t)
    _invariant(rem == 0, "U-coding sum must be divisible by t")
    _invariant(shift == len(parts) - (t - 1) // 2 - 1,
               "V-coding shift must follow from the length")
    v = _by_residue([x - shift for x in u], t,
                    "V-coding residues must be distinct")
    _invariant(sum(v) == 0, "V-coding must sum to zero")
    return v


def u_coding(parts, t):
    """U-coding (u_0, ..., u_{t-1}), u_i = i mod t, u_0 = -t."""
    return _u_of(_checked_core(parts, t), t)


def v_coding(parts, t):
    """Zero-sum V-coding, listed by residue (v_i = i mod t)."""
    return _v_of(_checked_core(parts, t), t)


def _n_of(parts, t):
    """N-coding of a checked t-core: its V-coding translated."""
    return n_from_v(_v_of(parts, t), t)


def n_coding(parts, t):
    """Zero-sum N-coding: n_i = floor((e - l)/t) + 1 for the largest e in H
    with e - l = i mod t, l rows; that e is an entry of the U-coding."""
    return _n_of(_checked_core(parts, t), t)


def v_from_n(nvec, t):
    """The V-coding of an N-coding's core: V holds t*n_j + j - (t-1)/2."""
    _validate_n(nvec, t)
    tp = (t - 1) // 2
    v = _by_residue([t * m + j - tp for j, m in enumerate(nvec)], t,
                    "V-coding residues must be distinct")
    _invariant(sum(v) == 0, "V-coding must sum to zero")
    return v


def n_from_v(vvec, t):
    """Inverse of v_from_n."""
    _validate_v(vvec, t)
    tp = (t - 1) // 2
    n = tuple(x // t for x in _by_residue(
        [v + tp for v in vvec], t, "N-coding residues must be distinct"))
    _invariant(sum(n) == 0, "N-coding must sum to zero")
    return n


def _validate_n(nvec, t):
    _require_coding_t(t)
    _int_entries(nvec, "nvec entry")
    if len(nvec) != t or sum(nvec) != 0:
        raise ValueError("N-coding must have t entries summing to zero")


def _validate_v(vvec, t):
    _require_coding_t(t)
    _int_entries(vvec, "vvec entry")
    if len(vvec) != t or sum(vvec) != 0:
        raise ValueError("V-coding must have t entries summing to zero")
    for i, v in enumerate(vvec):
        if v % t != i:
            raise ValueError("V-coding entry %d must be %d mod t" % (v, i))


def u_from_v(vvec, t):
    """Recover the U-coding from a V-coding (shift back by -t - min V)."""
    _validate_v(vvec, t)
    shift = -t - min(vvec)
    u = _by_residue([v + shift for v in vvec], t,
                    "U-coding residues must be distinct")
    _invariant(u[0] == -t, "u_0 must be -t")
    return u


def core_from_v(vvec, t):
    """Decode a V-coding back to its t-core (as a plain tuple of parts);
    check it for hooks of length t (is_t_core validates the parts first)
    and re-encode it, once each."""
    u = u_from_v(vvec, t)
    hooks = []
    for x in u:
        hooks.extend(range(x, 0, -t))  # each class closed downward
    hooks.sort(reverse=True)
    length = len(hooks)
    parts = tuple(h - length + i for i, h in enumerate(hooks, start=1))
    _invariant(is_t_core(parts, t), "decoded partition must be a t-core")
    _invariant(_v_of(parts, t) == tuple(vvec),
               "decoded core must round-trip to its V-coding")
    return parts


def core_weight_from_v(vvec, t):
    """Weight of the coded core: sum(v^2)/(2t) - (t^2 - 1)/24, exactly."""
    _validate_v(vvec, t)
    sq = sum(v * v for v in vvec)
    num = 12 * sq - t * (t * t - 1)
    q, r = divmod(num, 24 * t)
    _invariant(r == 0, "weight formula did not produce an integer")
    return q


def core_weight_from_n(nvec, t):
    """Weight of the coded core: (t/2) * sum(n^2) + sum(i * n_i), exactly."""
    _validate_n(nvec, t)
    num = t * sum(m * m for m in nvec) + 2 * sum(i * m for i, m in enumerate(nvec))
    q, r = divmod(num, 2)
    _invariant(r == 0, "N-coding weight must be an integer")
    return q


def core_product_from_v(vvec, t):
    """prod over cells of (1 - t^2/h^2) as a difference product:

    (-1)^((t-1)/2) / (1! 2! ... (t-1)!) times prod_{i<j} (v_i - v_j).
    """
    _validate_v(vvec, t)
    return Fraction((-1) ** ((t - 1) // 2) * diff_product(vvec),
                    superfactorial(t - 1))


# ---------------------------------------------------------------------------
# enumeration

@_memo
def t_cores_upto(N, t):
    """(the t-cores of n, reverse-lexicographic, for n = 0..N), any integer
    t >= 1, as tuples, from one cached walk.

    The top-row walk, pruned at the first hook of length t, visits the
    t-cores and the children it rejects.  t-cores are closed under
    conjugation, so each node of weight 2 brings its conjugate too.
    """
    _require_size(N, "n")
    _require_t(t)
    out = [[()]] + [[] for _ in range(N)]

    def visit(parts, weight, hooks, n):
        parts = (len(hooks),) + parts
        if weight:
            out[n].append(parts)
            if weight == 2:
                out[n].append(conjugate_of(parts))
        return parts

    _top_row_walk(N, visit, (), t)
    return tuple(tuple(sorted(cores, reverse=True)) for cores in out)


def enumerate_t_cores(n, t, method="filter"):
    """All t-cores of n, reverse-lexicographic, as plain tuples.

    method="filter" lists them from one walk that prunes at hooks of
    length t (t_cores_upto); method="coding" (odd t >= 3 only) decodes
    the V-codings of weight n that _v_codings lists.
    """
    if method == "filter":
        return list(t_cores_upto(n, t)[n])
    _require_size(n, "n")
    if method != "coding":
        raise ValueError("method must be 'filter' or 'coding'")
    _require_coding_t(t)
    cores = _v_codings(n, t, lambda v: core_from_v(v, t))
    _invariant(set(map(sum, cores)) <= {n}, "decoded cores must have size %d", n)
    cores.sort(reverse=True)
    return cores


def _v_codings(n, t, read):
    """[read(v)] for every V-coding v of core weight n (odd t >= 3), each
    v a tuple, lexicographic.

    The weight is n exactly when sum(v^2) = 2tn + t(t^2 - 1)/12.  When the
    k = t - i coordinates from i on must sum to S with squares summing to
    R, the k - 1 after v_i need (S - v_i)^2 <= (k - 1)(R - v_i^2)
    (Cauchy-Schwarz), so v_i lies in [(S - r)/k, (S + r)/k] with
    r = sqrt((k - 1)(kR - S^2)), stepping through its residue class mod t.
    The last two coordinates solve v^2 + (S - v)^2 = R.
    No bound goes negative: S = 0 < R at the root, and each v in the
    interval keeps the next (k - 1)(kR - S^2), 2R - S^2 at last, >= 0.
    """
    last = t - 2
    out = []
    vec = [0] * t

    def descend(i, S, R):
        if i == last:
            disc = 2 * R - S * S
            d = isqrt(disc)
            if d * d != disc:
                return
            for num in ((S - d, S + d) if d else (S,)):
                v, odd = divmod(num, 2)
                if not odd and v % t == last:  # then S - v = t - 1 mod t
                    vec[last] = v
                    vec[last + 1] = S - v
                    out.append(read(tuple(vec)))
            return
        k = t - i
        r = isqrt((k - 1) * (k * R - S * S))
        lo = -((r - S) // k)
        for v in range(lo + (i - lo) % t, (S + r) // k + 1, t):
            vec[i] = v
            descend(i + 1, S - v, R - v * v)

    descend(0, 0, 2 * t * n + t * (t * t - 1) // 12)
    return out
