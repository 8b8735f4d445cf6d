/* Dense LU factorization with partial pivoting, in place: P A = L U.
 *
 * The reference is DenseLU's numpy loop (direct.py, _factor_numpy).
 * This kernel repeats it operation for operation, so the factors, the
 * pivots and the swap count are identical bit for bit:
 *
 *   - the pivot of column k is the first index of max |a_ik| over
 *     i >= k, or the first NaN if there is one (numpy's argmax rule);
 *   - an exactly-zero pivot is singular, checked before the swap;
 *   - whole rows are swapped;
 *   - l_ik = a_ik / a_kk is a division;
 *   - a_ij = a_ij - (l_ik * u_kj) is a multiply and a subtract, never
 *     one fused operation: this file is built with -ffp-contract=off.
 *
 * The work is blocked by column panels for cache reuse.  Every element
 * still takes its subtractions one at a time in ascending k, with the
 * same operands the unblocked loop would use, which is all the bit
 * equality needs.  A row swap inside a panel moves the rows' pending
 * (not yet applied) trailing updates along with the multipliers that
 * drive them, so deferring those updates changes nothing.
 *
 * Returns 0 on success and 1 for a singular matrix.
 */
#include <math.h>
#include <stdint.h>

#define PANEL 32

/* row[j] -= l * u[j] for one k. */
static void sub1(double *restrict row, const double *restrict u, double l,
                 int64_t len)
{
    for (int64_t j = 0; j < len; ++j)
        row[j] = row[j] - l * u[j];
}

/* Four consecutive k at once: the row is loaded and stored once, and
 * each element still takes the four subtractions in order. */
static void sub4(double *restrict row, const double *restrict u0,
                 const double *restrict u1, const double *restrict u2,
                 const double *restrict u3, double l0, double l1,
                 double l2, double l3, int64_t len)
{
    for (int64_t j = 0; j < len; ++j) {
        double x = row[j] - l0 * u0[j];
        x = x - l1 * u1[j];
        x = x - l2 * u2[j];
        row[j] = x - l3 * u3[j];
    }
}

/* Apply steps k in [kb, ke) to row i's columns [c, n). */
static void update_row(double *a, int64_t n, int64_t i, int64_t kb,
                       int64_t ke, int64_t c)
{
    double *ai = a + i * n;
    int64_t len = n - c;
    int64_t k = kb;
    for (; k + 4 <= ke; k += 4)
        sub4(ai + c, a + k * n + c, a + (k + 1) * n + c,
             a + (k + 2) * n + c, a + (k + 3) * n + c,
             ai[k], ai[k + 1], ai[k + 2], ai[k + 3], len);
    for (; k < ke; ++k)
        sub1(ai + c, a + k * n + c, ai[k], len);
}

int dense_lu(double *a, int64_t n, int64_t *piv, int64_t *swaps_out)
{
    int64_t swaps = 0;
    for (int64_t k0 = 0; k0 < n; k0 += PANEL) {
        int64_t k1 = k0 + PANEL < n ? k0 + PANEL : n;
        /* Factor the panel (columns k0..k1-1), all rows below k0. */
        for (int64_t k = k0; k < k1; ++k) {
            int64_t p = k;
            double best = fabs(a[k * n + k]);
            if (!isnan(best)) {
                for (int64_t i = k + 1; i < n; ++i) {
                    double v = fabs(a[i * n + k]);
                    if (!(v <= best)) {
                        best = v;
                        p = i;
                        if (isnan(v))
                            break;
                    }
                }
            }
            if (a[p * n + k] == 0.0) {
                *swaps_out = swaps;
                return 1;
            }
            if (p != k) {
                double *rk = a + k * n, *rp = a + p * n;
                for (int64_t j = 0; j < n; ++j) {
                    double t = rk[j];
                    rk[j] = rp[j];
                    rp[j] = t;
                }
                int64_t t = piv[k];
                piv[k] = piv[p];
                piv[p] = t;
                ++swaps;
            }
            double *ak = a + k * n;
            double pivot = ak[k];
            for (int64_t i = k + 1; i < n; ++i) {
                double *ai = a + i * n;
                ai[k] = ai[k] / pivot;
                sub1(ai + k + 1, ak + k + 1, ai[k], k1 - k - 1);
            }
        }
        if (k1 == n)
            break;
        /* Finish the panel's rows right of it (the U12 block) ... */
        for (int64_t r = k0 + 1; r < k1; ++r)
            update_row(a, n, r, k0, r, k1);
        /* ... then apply the panel's steps to the trailing rows. */
        for (int64_t i = k1; i < n; ++i)
            update_row(a, n, i, k0, k1, k1);
    }
    *swaps_out = swaps;
    return 0;
}
