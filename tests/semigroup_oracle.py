"""Dynamic-programming semigroup membership and gaps, kept as an oracle for
the Apery-set arithmetic of branchzeta.branch.

Both walk every integer from 0 up to the number asked about (membership) or
to the conductor (gaps), so they cost O(s) time and memory; use them on
small inputs only.
"""


def membership(gens, s):
    """Decide s in <gens> by dynamic programming over 0..s.

    Returns (True, representation) with representation k such that
    s = sum k_l * gens[l], or (False, None).
    """
    gens = tuple(int(v) for v in gens)
    if s < 0:
        return False, None
    # choice[v] = index of the generator used to reach v, -1 at v = 0
    choice = [-2] * (s + 1)
    choice[0] = -1
    for v in range(1, s + 1):
        for idx, gv in enumerate(gens):
            if gv <= v and choice[v - gv] != -2:
                choice[v] = idx
                break
    if choice[s] == -2:
        return False, None
    rep = [0] * len(gens)
    v = s
    while v > 0:
        idx = choice[v]
        rep[idx] += 1
        v -= gens[idx]
    return True, tuple(rep)


def gaps(bn):
    """All positive integers outside the semigroup, by a sieve over 0..c."""
    c = bn.conductor
    member = [False] * c
    if c > 0:
        member[0] = True
        for v in range(1, c):
            member[v] = any(gv <= v and member[v - gv] for gv in bn.gens)
    return tuple(v for v in range(c) if not member[v])
