"""Independent checks: evaluation at real rational points.

The variables of skewres are central and a real point is central, so
evaluating every variable at a real rational is a ring homomorphism from the
polynomial rings to the quaternions. Every identity a result must satisfy can
then be checked on plain numbers. Nothing here calls skewres arithmetic; it
reads only the coefficient fields of the returned objects and computes with
``fractions.Fraction``.
"""

from fractions import Fraction

Quat = tuple  # (w, x, y, z) of Fractions

Q0 = (Fraction(0),) * 4
Q1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def quat(c) -> Quat:
    """A skewres Quaternion, or a JSON list of rational strings, as a tuple."""
    if isinstance(c, (list, tuple)):
        return tuple(Fraction(v) for v in c)
    return (Fraction(c.w), Fraction(c.x), Fraction(c.y), Fraction(c.z))


def qadd(a: Quat, b: Quat) -> Quat:
    return tuple(x + y for x, y in zip(a, b))


def qscale(a: Quat, s: Fraction) -> Quat:
    return tuple(x * s for x in a)


def qmul(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def qnorm(a: Quat) -> Fraction:
    return sum(x * x for x in a)


def qinv(a: Quat) -> Quat:
    n = qnorm(a)
    return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)


def eval_coeffs(coeffs, t: Fraction) -> Quat:
    """sum t^n c_n for a list of quaternion coefficients (ascending)."""
    acc = Q0
    for c in reversed(coeffs):
        acc = qadd(qscale(acc, t), quat(c))
    return acc


def eval_real(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + Fraction(c)
    return acc


def eval_grid(grid, t1: Fraction, t2: Fraction) -> Quat:
    """A two-variable polynomial, grid[n][m] the q1^n q2^m coefficient."""
    return eval_coeffs([eval_coeffs(row, t2) for row in grid], t1)


def views_at(grid, wrt: str, t: Fraction) -> list:
    """Coefficients of wrt^j with the other variable set to t."""
    if wrt == "q1":
        return [eval_coeffs(row, t) for row in grid]
    width = max((len(row) for row in grid), default=0)
    cols = [[row[m] if m < len(row) else Q0 for row in grid] for m in range(width)]
    return [eval_coeffs(col, t) for col in cols]


def sylvester_at(p_grid, q_grid, wrt: str, t: Fraction) -> list:
    """The Sylvester matrix of p and q in wrt, other variable set to t.

    Built here rather than taken from skewres. Its layout may differ from the
    package's by a permutation of rows and columns, which leaves the
    complex-image determinant unchanged.
    """
    pv = views_at(p_grid, wrt, t)
    qv = views_at(q_grid, wrt, t)
    n, m = len(pv) - 1, len(qv) - 1
    rows = []
    for k in range(n + m):
        row = [pv[k - j] if 0 <= k - j <= n else Q0 for j in range(m)]
        row += [qv[k - j] if 0 <= k - j <= m else Q0 for j in range(n)]
        rows.append(row)
    return rows


def complex_image_det(rows: list) -> Fraction:
    """Determinant of the 2n x 2n complex image of a quaternion matrix.

    w + xi + yj + zk maps to [[a, b], [-conj b, conj a]] with a = w + xi and
    b = y + zi. The determinant is real and equals the reduced norm, which is
    what skewres reports as sdet. Plain Gaussian elimination over Q(i).
    """
    n = len(rows)
    size = 2 * n
    mat = [[None] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            w, x, y, z = rows[i][j]
            mat[2 * i][2 * j] = (w, x)
            mat[2 * i][2 * j + 1] = (y, z)
            mat[2 * i + 1][2 * j] = (-y, z)
            mat[2 * i + 1][2 * j + 1] = (w, -x)
    det = (Fraction(1), Fraction(0))
    for k in range(size):
        piv = next((r for r in range(k, size) if mat[r][k] != (0, 0)), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = (-det[0], -det[1])
        pr, pi = mat[k][k]
        det = (det[0] * pr - det[1] * pi, det[0] * pi + det[1] * pr)
        nsq = pr * pr + pi * pi
        ir, ii = pr / nsq, -pi / nsq
        for r in range(k + 1, size):
            hr, hi = mat[r][k]
            if hr == 0 and hi == 0:
                continue
            fr, fi = hr * ir - hi * ii, hr * ii + hi * ir
            row, top = mat[r], mat[k]
            for c in range(k + 1, size):
                tr, ti = top[c]
                row[c] = (row[c][0] - (fr * tr - fi * ti), row[c][1] - (fr * ti + fi * tr))
            row[k] = (Fraction(0), Fraction(0))
    if det[1] != 0:
        raise ArithmeticError("complex-image determinant is not real")
    return det[0]


def frac_at(den_coeffs, num_coeffs, t: Fraction):
    """d(t)^-1 n(t) for a left fraction, or None where d(t) vanishes."""
    d = eval_coeffs(den_coeffs, t)
    if d == Q0:
        return None
    return qmul(qinv(d), eval_coeffs(num_coeffs, t))


def bits(value) -> int:
    f = Fraction(value)
    return abs(f.numerator).bit_length() + f.denominator.bit_length()
