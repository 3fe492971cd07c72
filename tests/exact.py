"""Exact references for tier-1, in ``decimal`` arithmetic on the integer inputs.

They share no code with ``infoeval``: each is written from the closed
form, at a working precision that grows with the inputs.  pytest does
not collect this module; the tests import it.
"""
from decimal import Decimal, localcontext

# a cross entropy where a positive share meets a zero one
INFINITE = Decimal("Infinity")


def digits(n: int) -> int:
    """The working precision for a total n: about 2 log10(n) + 40
    digits, so that sums of terms as large as n**2 keep 40 digits."""
    return 2 * len(str(n)) + 40


def crossover_root(n: int, d: int, prec: int | None = None) -> Decimal:
    """The small-class count x* of the error/reject cross-over, for n > 2d > 0.

    With x = (1 - p1) n, n ln(2) gap = (x - d) ln x - (x + d) ln(x + d)
    + d ln(d n), which falls from +inf at x = 0 to below 0 at x = n/2 and
    has one root there.  It is bisected in x until the bracket is
    narrower than 1e-25 of its lower end.  Its terms reach about n ln n,
    far above the gap near the root, hence ``digits(n)`` digits unless
    ``prec`` says otherwise.
    """
    with localcontext() as ctx:
        ctx.prec = digits(n) if prec is None else prec
        n, d = Decimal(n), Decimal(d)
        constant = d * (d * n).ln()
        width = Decimal("1e-25")
        lo, hi = Decimal(0), n / 2
        while hi - lo > lo * width:
            mid = (lo + hi) / 2
            if (mid - d) * mid.ln() - (mid + d) * (mid + d).ln() + constant > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def information(rows) -> dict[str, Decimal]:
    """H(T), H(Y), H(T,Y), I, I_M, H(T;Y) and H(Y;T), in bits, of a table of counts.

    ``rows`` are the m rows of an augmented confusion matrix, each with
    m + 1 counts; the last column is the reject column, which adds to I
    but not to I_M.  Each value sums its closed-form terms, c/n log(n/c)
    for the entropies, c/n log(c n / (row total * column total)) for I
    and I_M, and -a/n log(b/n) for a cross entropy, which is INFINITE
    where some a > 0 meets b = 0.  A log is taken of an exact quotient
    of integers, so ``digits(n)`` digits resolve a share of 1 - 1/n.
    """
    rows = [list(row) for row in rows]
    row_totals = [sum(row) for row in rows]
    col_totals = [sum(column) for column in zip(*rows)]
    n = sum(row_totals)
    with localcontext() as ctx:
        ctx.prec = digits(n)
        ln2 = Decimal(2).ln()

        def term(a, num, den):
            # (a / n) log2(num / den) of integers, with one rounded quotient
            return Decimal(a) / n * (Decimal(num) / Decimal(den)).ln() / ln2

        def entropy(counts):
            return -sum((term(c, c, n) for c in counts if c), Decimal(0))

        def cross_entropy(p, q):
            if any(a and not b for a, b in zip(p, q)):
                return INFINITE
            return -sum((term(a, b, n) for a, b in zip(p, q) if a), Decimal(0))

        i = i_m = Decimal(0)
        reject = len(col_totals) - 1
        for row, a in zip(rows, row_totals):
            for j, c in enumerate(row):
                if c:
                    mi = term(c, c * n, a * col_totals[j])
                    i += mi
                    if j != reject:
                        i_m += mi
        t = [*row_totals, 0]
        return {
            "h_t": entropy(row_totals),
            "h_y": entropy(col_totals),
            "h_joint": entropy(c for row in rows for c in row),
            "i": i,
            "i_m": i_m,
            "ce": cross_entropy(t, col_totals),
            "ce_back": cross_entropy(col_totals, t),
        }
