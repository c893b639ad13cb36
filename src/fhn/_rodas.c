/* The step loop of fhn.dynamics.integrate (rodas_run) and the passes over
 * a run that follow it: the bisection of Trajectory.crossing
 * (rodas_crossing), the Gauss rule of dynamics._divergence
 * (rodas_divergence), the dense output of Trajectory.sample (rodas_sample)
 * and canard._within_middle_band (rodas_band).  Each has the arithmetic of
 * its Python or numpy form term for term: the same operations on the same
 * doubles in the same order, so the same bits.  Where numpy sums, this file
 * sums as numpy's pairwise_sum_DOUBLE does (rodas_sum); where numpy
 * searches a sorted array, it finds the index that searchsorted returns.
 *
 * A run's nodes are one block, a C-contiguous (5, n) array of doubles:
 * the rows t, x, y, dx, dy, each n long, at nodes, nodes + n, ...,
 * nodes + 4n.  rodas_run writes it and every pass reads it, through the
 * one address.  Points and samples are (2, m) blocks of the same kind, the
 * rows x and y.
 *
 * fhn._kernel builds this file with -ffp-contract=off and without
 * -ffast-math, so that no multiply-add is fused and no sum is reordered.
 * Every Python `**` is a call of libm's pow through a volatile pointer,
 * which the compiler cannot fold (pow(v, 2.0) into v*v, which rounds
 * differently); Python's float ** calls the same pow, on |v| for the even
 * power.
 */
#include <math.h>
#include <stddef.h>

static double (*volatile pow_)(double, double) = pow;

/* how rodas_run ended; the Python side turns each into its result or error */
enum { AT_END, CLOSED, FULL, BELOW_FLOOR, REJECTED, BLEW_UP, OVERFLOW };

/* One run of integrate's loop, resumable.
 *
 * tab: gamma, then _A's rows 1-4 and _C's rows 1-5 in order (26 numbers).
 * io: b, c, sx, sy, tol, t_end, max_norm, step floor, direction, then
 *   (in/out) t, x, y, fx, fy, h, |x|, |y| of the last accepted node.
 * counts: the reject budget of a step, then (in/out) nodes written,
 *   accepted steps, rejected steps, on CLOSED the position in `sec` of the
 *   closed section and the node of its first crossing, and for each
 *   section the node of its counted crossing, or -1.
 * nodes: a (5, cap) block, the rows t, x, y, dx, dy; node 0 is written
 *   from `io` when none is.  FULL: `cap` nodes are written and the run
 *   resumes from `io` and `counts` with a larger buffer.  The first n
 *   columns, copied, are the run's (5, n) block.
 * sec: the nsec section abscissae in the order the run's sense meets them.
 */
int rodas_run(const double *tab, double *io, long *counts, double *nodes, long cap,
              const double *sec, long nsec)
{
    const double gamma = tab[0];
    const double a21 = tab[1];
    const double a31 = tab[2], a32 = tab[3];
    const double a41 = tab[4], a42 = tab[5], a43 = tab[6];
    const double a51 = tab[7], a52 = tab[8], a53 = tab[9], a54 = tab[10];
    const double c21 = tab[11];
    const double c31 = tab[12], c32 = tab[13];
    const double c41 = tab[14], c42 = tab[15], c43 = tab[16];
    const double c51 = tab[17], c52 = tab[18], c53 = tab[19], c54 = tab[20];
    const double c61 = tab[21], c62 = tab[22], c63 = tab[23], c64 = tab[24], c65 = tab[25];
    const double b = io[0], c = io[1], sx = io[2], sy = io[3], tol = io[4];
    const double t_end = io[5], max_norm = io[6], h_floor = io[7], dir = io[8];
    const double j12 = -sx, j21 = sy, j22 = -sy * b;
    double *st = io + 9;
    double t = st[0], x = st[1], y = st[2], fx = st[3], fy = st[4];
    double h = st[5], ux = st[6], uy = st[7];
    const long max_rejects = counts[0];
    long *ist = counts + 1, *marks = counts + 6;
    long n = ist[0], naccept = ist[1], nreject = ist[2];
    double *ts = nodes, *xs = nodes + cap, *ys = nodes + 2 * cap;
    double *dxs = nodes + 3 * cap, *dys = nodes + 4 * cap;
    double lo_x, hi_x, lo_x0, hi_x0;
    int status;

    /* a step that crosses one ends past the first and starts short of the
       last: lo_x < x < hi_x and lo_x0 < x0 < hi_x0 (lo_x = inf: none) */
    if (nsec == 0) {
        lo_x = hi_x = lo_x0 = hi_x0 = INFINITY;
    } else if (dir == 1.0) {
        lo_x = -INFINITY, hi_x = sec[0], lo_x0 = sec[nsec - 1], hi_x0 = INFINITY;
    } else {
        lo_x = sec[0], hi_x = INFINITY, lo_x0 = -INFINITY, hi_x0 = sec[nsec - 1];
    }
    if (n == 0) {
        ts[0] = t, xs[0] = x, ys[0] = y, dxs[0] = fx, dys[0] = fy;
        n = 1;
    }
    for (;;) {
        double j11, xn, yn, uxn, uyn, err, fac, x0;
        long budget;

        if (n == cap) {
            status = FULL;
            break;
        }
        j11 = sx * (4.0 - 3.0 * x * x);
        budget = nreject + max_rejects;
        for (;;) {
            double ghinv, w11, w22, det, inv, hinv, c1, c2, c3, c4, c5;
            double k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y;
            double ax, ay, rx, ry, sc1, sc2, q1, q2, p1, p2;

            if (!(nreject < budget)) {
                status = REJECTED;
                goto out;
            }
            if (t + h > t_end)
                h = t_end - t;
            if (h < h_floor) {
                status = BELOW_FLOOR;
                goto out;
            }
            ghinv = 1.0 / (h * gamma);
            w11 = ghinv - j11;
            w22 = ghinv - j22;
            det = w11 * w22 - j12 * j21;
            if (det == 0.0 || !isfinite(det)) {
                h *= 0.5;
                nreject += 1;
                continue;
            }
            inv = 1.0 / det;
            hinv = 1.0 / h;

            k1x = (fx * w22 + fy * j12) * inv;
            k1y = (w11 * fy + j21 * fx) * inv;

            ax = x + a21 * k1x;
            ay = y + a21 * k1y;
            c1 = c21 * hinv;
            rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x;
            ry = sy * (ax - b * ay - c) + c1 * k1y;
            k2x = (rx * w22 + ry * j12) * inv;
            k2y = (w11 * ry + j21 * rx) * inv;

            ax = x + a31 * k1x + a32 * k2x;
            ay = y + a31 * k1y + a32 * k2y;
            c1 = c31 * hinv, c2 = c32 * hinv;
            rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x + c2 * k2x;
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y;
            k3x = (rx * w22 + ry * j12) * inv;
            k3y = (w11 * ry + j21 * rx) * inv;

            ax = x + a41 * k1x + a42 * k2x + a43 * k3x;
            ay = y + a41 * k1y + a42 * k2y + a43 * k3y;
            c1 = c41 * hinv, c2 = c42 * hinv, c3 = c43 * hinv;
            rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x + c2 * k2x + c3 * k3x;
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y;
            k4x = (rx * w22 + ry * j12) * inv;
            k4y = (w11 * ry + j21 * rx) * inv;

            ax = x + a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x;
            ay = y + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y;
            c1 = c51 * hinv, c2 = c52 * hinv, c3 = c53 * hinv, c4 = c54 * hinv;
            rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x;
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y;
            k5x = (rx * w22 + ry * j12) * inv;
            k5y = (w11 * ry + j21 * rx) * inv;

            /* stiffly accurate: stage 6's argument is stage 5's plus k5 */
            ax += k5x;
            ay += k5y;
            c1 = c61 * hinv, c2 = c62 * hinv, c3 = c63 * hinv, c4 = c64 * hinv, c5 = c65 * hinv;
            rx = (sx * (4.0 * ax - ay - ax * ax * ax)
                  + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x + c5 * k5x);
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y + c5 * k5y;
            k6x = (rx * w22 + ry * j12) * inv;
            k6y = (w11 * ry + j21 * rx) * inv;

            xn = ax + k6x;
            yn = ay + k6y;

            if (!(isfinite(xn) && isfinite(yn))) {
                h *= 0.5;
                nreject += 1;
                continue;
            }
            uxn = xn < 0.0 ? -xn : xn;
            uyn = yn < 0.0 ? -yn : yn;
            sc1 = tol + tol * (uxn > ux ? uxn : ux);
            sc2 = tol + tol * (uyn > uy ? uyn : uy);
            q1 = k6x / sc1;
            q2 = k6y / sc2;
            /* Python's float ** raises OverflowError where pow overflows */
            p1 = pow_(fabs(q1), 2.0);
            if (isinf(p1) && isfinite(q1)) {
                status = OVERFLOW;
                goto out;
            }
            p2 = pow_(fabs(q2), 2.0);
            if (isinf(p2) && isfinite(q2)) {
                status = OVERFLOW;
                goto out;
            }
            err = sqrt(0.5 * (p1 + p2));
            if (err <= 1.0)
                break;
            nreject += 1;
            fac = 0.9 * pow_(err, -0.25);
            h *= fac > 0.1 ? fac : 0.1;
        }

        t += h;
        x0 = x;
        x = xn;
        y = yn, ux = uxn, uy = uyn;
        fx = sx * (4.0 * xn - yn - xn * xn * xn);
        fy = sy * (xn - b * yn - c);
        naccept += 1;
        /* no lower clamp: err <= 1 gives a factor of at least 0.9 */
        fac = err > 0.0 ? 0.9 * pow_(err, -0.25) : 6.0;
        h *= fac < 6.0 ? fac : 6.0;
        if ((uyn > uxn ? uyn : uxn) > max_norm) {
            status = BLEW_UP;
            break;
        }
        ts[n] = t, xs[n] = x, ys[n] = y, dxs[n] = fx, dys[n] = fy;
        n += 1;
        if (t_end - t < h_floor) {
            /* t + (t_end - t) rounded short of t_end by less than the step
               floor: that is arrival, not a step to take */
            if (t_end - t > 0.0)
                ts[n - 1] = t_end;
            status = AT_END;
            break;
        }
        if (lo_x < x && x < hi_x && lo_x0 < x0 && x0 < hi_x0) {
            for (long p = 0; p < nsec; p++) {
                const double s = sec[p];
                if (dir * (x0 - s) > 0.0 && 0.0 > dir * (x - s)) {
                    if (marks[p] >= 0) {
                        ist[3] = p;
                        ist[4] = marks[p];
                        status = CLOSED;
                        goto out;
                    }
                    /* the sections that the sense meets after it lose their count */
                    marks[p] = naccept;
                    for (long q = p + 1; q < nsec; q++)
                        marks[q] = -1;
                }
            }
        }
    }
out:
    st[0] = t, st[1] = x, st[2] = y, st[3] = fx, st[4] = fy;
    st[5] = h, st[6] = ux, st[7] = uy;
    ist[0] = n, ist[1] = naccept, ist[2] = nreject;
    return status;
}

static double hermite(double s, double p0, double p1, double d0, double d1, double h)
{
    const double s2 = s * s;
    const double s3 = s2 * s;
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * p0
            + (s3 - 2.0 * s2 + s) * h * d0
            + (-2.0 * s3 + 3.0 * s2) * p1
            + (s3 - s2) * h * d1);
}

/* Trajectory.crossing on the step from node i - 1 to node i (i < 0:
 * node n + i) of the run of n nodes: 1 with out = (t, y) of its crossing
 * of the half-line {x = x_s, y > y_s} in the sense `sign`, else 0.  The
 * caller keeps -n < i < n, i != 0. */
int rodas_crossing(const double *nodes, long n, long i, double x_s, double y_s, double sign,
                   double *out)
{
    const double *t = nodes, *x = nodes + n, *y = nodes + 2 * n;
    const double *dx = nodes + 3 * n, *dy = nodes + 4 * n;
    double h, lo = 0.0, hi = 1.0, s, yc;
    long k;

    if (i < 0)
        i += n;
    k = i - 1;
    if (!(sign * (x[k] - x_s) > 0.0 && 0.0 > sign * (x[i] - x_s)))
        return 0;
    h = t[i] - t[k];
    for (int j = 0; j < 70; j++) {
        const double mid = 0.5 * (lo + hi);
        if (!(sign * (hermite(mid, x[k], x[i], dx[k], dx[i], h) - x_s) > 0.0))
            hi = mid;
        else
            lo = mid;
    }
    s = 0.5 * (lo + hi);
    yc = hermite(s, y[k], y[i], dy[k], dy[i], h);
    if (!(yc > y_s))
        return 0;
    out[0] = t[k] + s * h;
    out[1] = yc;
    return 1;
}

/* numpy's searchsorted(a[:n], v, side) on an `a` sorted as numpy sorts,
 * NaN last: the number of a[k] < v (side "left", right 0) or a[k] <= v
 * (side "right", right 1).  The search gallops from k, the answer for a
 * nearby v, in either direction; on a sorted `a` any search finds the one
 * answer, and on any `a` it reads only a[0] to a[n - 1]. */
static int before(double e, double v, int right)
{
    /* numpy's order, NaN last: e < v is e < v, or v is NaN and e is not;
       side "right" counts e <= v, which is not v < e */
    return right ? !(v < e || (e != e && v == v)) : (e < v || (v != v && e == e));
}

static long search(const double *a, long n, double v, long k, int right)
{
    long lo, hi, step = 1;

    if (k > 0 && !before(a[k - 1], v, right)) {
        /* the answer is below k */
        hi = k - 1;
        while (hi >= step && !before(a[hi - step], v, right)) {
            hi -= step;
            step *= 2;
        }
        lo = hi >= step ? hi - step + 1 : 0;
    } else {
        lo = k;
        while (lo + step <= n && before(a[lo + step - 1], v, right)) {
            lo += step;
            step *= 2;
        }
        hi = lo + step <= n ? lo + step - 1 : n;
    }
    while (lo < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (before(a[mid], v, right))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The terms of a sum: the n doubles at `a`, or, where `a` is NULL, the
 * terms span * (4 - 3 x^2) of _divergence at the Gauss node `node` of the
 * n steps of the nodes (t, x, dx), the first step cut to start at t_0 and
 * the last to end at t_c. */
struct terms {
    const double *a, *t, *x, *dx;
    double t_0, t_c, node;
    long n;
};

static void fill(const struct terms *c, long lo, long n, double *out)
{
    for (long i = 0; i < n; i++) {
        const long k = lo + i;
        const double tk = c->t[k], h = c->t[k + 1] - tk;
        const double a = k == 0 ? c->t_0 : tk;
        const double span = (k == c->n - 1 ? c->t_c : c->t[k + 1]) - a;
        const double xs = hermite((a - tk + c->node * span) / h, c->x[k], c->x[k + 1], c->dx[k],
                                  c->dx[k + 1], h);
        out[i] = span * (4.0 - 3.0 * xs * xs);
    }
}

/* numpy's pairwise_sum_DOUBLE on terms lo to lo + n - 1: a plain loop
 * below 8 terms, eight accumulators up to 128, else the two halves split
 * at n/2 rounded down to a multiple of 8.  The terms of a divergence are
 * made 128 at most at a time. */
static double pairwise(const struct terms *c, long lo, long n)
{
    double buf[128], r[8], res;
    const double *a;
    long i;

    if (n > 128) {
        long n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise(c, lo, n2) + pairwise(c, lo + n2, n - n2);
    }
    if (c->a == NULL) {
        fill(c, lo, n, buf);
        a = buf;
    } else {
        a = c->a + lo;
    }
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    for (i = 0; i < 8; i++)
        r[i] = a[i];
    for (i = 8; i < n - n % 8; i += 8) {
        r[0] += a[i];
        r[1] += a[i + 1];
        r[2] += a[i + 2];
        r[3] += a[i + 3];
        r[4] += a[i + 4];
        r[5] += a[i + 5];
        r[6] += a[i + 6];
        r[7] += a[i + 7];
    }
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* np.sum of the n doubles at a: numpy adds them to its identity 0.0 */
double rodas_sum(const double *a, long n)
{
    const struct terms c = {a, NULL, NULL, NULL, 0.0, 0.0, 0.0, n};
    return 0.0 + pairwise(&c, 0, n);
}

/* dynamics._divergence: the integral of (4 - 3x^2)/eps - b over [t_0, t_c]
 * of the run of n nodes, t[0] <= t_0 < t[n - 1] and t_c in its last step,
 * by the Gauss rule of the (node, weight) pairs in `gauss` (three) on each
 * step's Hermite x(t); each node's terms are summed as np.sum sums them. */
double rodas_divergence(const double *nodes, long n, double t_0, double t_c, double eps,
                        double b, const double *gauss)
{
    const double *t = nodes, *x = nodes + n, *dx = nodes + 3 * n;
    /* i = searchsorted(t, t_0, side="right") - 1, the step holding t_0 */
    const long i = search(t, n, t_0, 0, 1) - 1;
    struct terms c = {NULL, t + i, x + i, dx + i, t_0, t_c, 0.0, n - 1 - i};
    double total = 0.0;

    for (int g = 0; g < 3; g++) {
        c.node = gauss[2 * g];
        total += gauss[2 * g + 1] * (0.0 + pairwise(&c, 0, c.n));
    }
    return total / eps - b * (t_c - t_0);
}

/* Trajectory.sample: out = (xs, ys), a (2, m) block, at the m times ts
 * from the run of n >= 1 nodes, each on the cubic-Hermite step that
 * searchsorted(t[1:-1], ts, side="right") picks. */
void rodas_sample(const double *nodes, long n, const double *ts, long m, double *out)
{
    const double *t = nodes, *x = nodes + n, *y = nodes + 2 * n;
    const double *dx = nodes + 3 * n, *dy = nodes + 4 * n;
    double *xs = out, *ys = out + m;
    const long inner = n > 2 ? n - 2 : 0;
    long i0 = 0;

    for (long j = 0; j < m; j++) {
        const double v = ts[j];
        double t0, h, s, s2, s3, b0, b1, b2, b3;
        long i1;

        i0 = search(t + 1, inner, v, i0, 1);
        i1 = n > 1 ? i0 + 1 : i0;
        t0 = t[i0];
        h = t[i1] - t0;
        s = h > 0.0 ? (v - t0) / h : 0.0;
        /* the basis of `hermite`, in its order */
        s2 = s * s;
        s3 = s2 * s;
        b0 = 2.0 * s3 - 3.0 * s2 + 1.0;
        b1 = (s3 - 2.0 * s2 + s) * h;
        b2 = -2.0 * s3 + 3.0 * s2;
        b3 = (s3 - s2) * h;
        xs[j] = b0 * x[i0] + b1 * dx[i0] + b2 * x[i1] + b3 * dx[i1];
        ys[j] = b0 * y[i0] + b1 * dy[i0] + b2 * y[i1] + b3 * dy[i1];
    }
}

/* canard._within_middle_band: inside[k] = 1 where point k of the (2, n)
 * block `points` lies within `band` of one of the middle-branch samples,
 * the (2, m) block `middle`, else 0.  The samples increase in both
 * coordinates and lie at most `gap` apart.  A point's candidates are the
 * index range within `band` of it in x and in y, searched from the last
 * point's range.  A candidate at distance d from the point rules out the
 * next (d (1 - 1e-9) - band)/gap samples: each is more than `band` from
 * it, by the triangle inequality, with a margin for the roundings of d and
 * gap. */
void rodas_band(const double *middle, long m, double gap, const double *points, long n,
                double band, unsigned char *inside)
{
    const double *xs = middle, *ys = middle + m, *x = points, *y = points + n;
    long lx = 0, ly = 0, hx = 0, hy = 0;

    for (long k = 0; k < n; k++) {
        const double px = x[k], py = y[k];
        long j, hi;

        lx = search(xs, m, px - band, lx, 0);
        ly = search(ys, m, py - band, ly, 0);
        hx = search(xs, m, px + band, hx, 1);
        hy = search(ys, m, py + band, hy, 1);
        j = lx > ly ? lx : ly;
        hi = hx < hy ? hx : hy;
        inside[k] = 0;
        while (j < hi) {
            const double ex = xs[j] - px, ey = ys[j] - py;
            const double d = sqrt(ex * ex + ey * ey);
            double skip;

            if (d <= band) {
                inside[k] = 1;
                break;
            }
            skip = (d * (1.0 - 1e-9) - band) / gap;
            if (skip >= 1.0)
                j += skip < (double)(hi - j) ? (long)skip : hi - j;
            j += 1;
        }
    }
}
