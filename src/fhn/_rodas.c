/* The step loop of fhn.dynamics.integrate and the bisection of
 * Trajectory.crossing, with the arithmetic of their Python forms term for
 * term: the same operations on the same doubles in the same order, so the
 * same bits.
 *
 * fhn._kernel builds this file with -ffp-contract=off and without
 * -ffast-math, so that no multiply-add is fused and no sum is reordered.
 * Every Python `**` is a call of libm's pow through a volatile pointer,
 * which the compiler cannot fold (pow(v, 2.0) into v*v, which rounds
 * differently); Python's float ** calls the same pow, on |v| for the even
 * power.
 */
#include <math.h>

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
 * nodes: five rows of `cap` doubles, t, x, y, dx, dy; node 0 is written
 *   from `io` when none is.  FULL: `cap` nodes are written and the run
 *   resumes from `io` and `counts` with a larger buffer.
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

/* Trajectory.crossing on the step from node (t0, x0, y0, dx0, dy0) to node
 * (t1, ...): 1 with out = (t, y) of its crossing of the half-line
 * {x = x_s, y > y_s} in the sense `sign`, else 0. */
int rodas_crossing(double t0, double x0, double y0, double dx0, double dy0,
                   double t1, double x1, double y1, double dx1, double dy1,
                   double x_s, double y_s, double sign, double *out)
{
    double h, lo = 0.0, hi = 1.0, s, yc;

    if (!(sign * (x0 - x_s) > 0.0 && 0.0 > sign * (x1 - x_s)))
        return 0;
    h = t1 - t0;
    for (int i = 0; i < 70; i++) {
        const double mid = 0.5 * (lo + hi);
        if (!(sign * (hermite(mid, x0, x1, dx0, dx1, h) - x_s) > 0.0))
            hi = mid;
        else
            lo = mid;
    }
    s = 0.5 * (lo + hi);
    yc = hermite(s, y0, y1, dy0, dy1, h);
    if (!(yc > y_s))
        return 0;
    out[0] = t0 + s * h;
    out[1] = yc;
    return 1;
}
