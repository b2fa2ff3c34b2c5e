/* Stream kernels of the numeric phase, loaded by spamm.numeric through ctypes.
 *
 * Leaves are row-major n_b x n_b float32 blocks, stacked; sub-norm grids are
 * row-major s x s float32 blocks, s = n_b / 4.  Tasks are walked in plan
 * order, and every C element adds its terms in ascending k with a separate
 * multiply and add, so the result is the float32 loop's bit for bit.  Build
 * without FMA contraction (-ffp-contract=off) and without -ffast-math, which
 * would contract, reassociate or flush subnormals.  The Python side checks
 * every dtype, shape and slot range before a call.
 */

#include <stdint.h>

/* c[i, j] += a[i, k] * b[k, j] for i in [i0, i0 + ni), j in [j0, j0 + nj),
 * k ascending in [k0, k0 + 4). */
static void madd(int64_t nb, const float *a, const float *b, float *restrict c,
                 int64_t i0, int64_t ni, int64_t k0, int64_t j0, int64_t nj)
{
    for (int64_t i = i0; i < i0 + ni; i++) {
        float *ci = c + i * nb;
        for (int64_t k = k0; k < k0 + 4; k++) {
            const float aik = a[i * nb + k];
            const float *bk = b + k * nb;
            for (int64_t j = j0; j < j0 + nj; j++)
                ci[j] += aik * bk[j];
        }
    }
}

/* Gated products: task t adds A[a_slot[t]] B[b_slot[t]] into C[c_slot[t]].
 * The 4x4x4 product (p, r, q) runs when the float64 product of sub-norms
 * asub[p, r] * bsub[r, q] reaches gate; otherwise it is skipped and adds
 * nothing.  counts[0] and counts[1] gain the products run and skipped. */
void spamm_stream_gated(int64_t ntask, int64_t nb,
                        const float *a, const float *asub,
                        const float *b, const float *bsub,
                        const int64_t *a_slot, const int64_t *b_slot,
                        const int64_t *c_slot, float *restrict c, double gate,
                        int64_t *counts)
{
    const int64_t s = nb / 4, leaf = nb * nb, grid = s * s;
    int64_t run = 0;
    for (int64_t t = 0; t < ntask; t++) {
        const float *at = a + a_slot[t] * leaf, *an = asub + a_slot[t] * grid;
        const float *bt = b + b_slot[t] * leaf, *bn = bsub + b_slot[t] * grid;
        float *ct = c + c_slot[t] * leaf;
        for (int64_t r = 0; r < s; r++) {
            int64_t open = 0;
            for (int64_t p = 0; p < s; p++)
                for (int64_t q = 0; q < s; q++)
                    open += (double)an[p * s + r] * (double)bn[r * s + q] >= gate;
            run += open;
            if (open == grid) {
                madd(nb, at, bt, ct, 0, nb, 4 * r, 0, nb);
            } else if (open) {
                for (int64_t p = 0; p < s; p++)
                    for (int64_t q = 0; q < s; q++)
                        if ((double)an[p * s + r] * (double)bn[r * s + q] >= gate)
                            madd(nb, at, bt, ct, 4 * p, 4, 4 * r, 4 * q, 4);
            }
        }
    }
    counts[0] += run;
    counts[1] += ntask * s * grid - run;
}

/* acc[c_slot[t]] += prod[t] for every task t, in plan order. */
void spamm_stream_add(int64_t ntask, int64_t nb, const float *prod,
                      const int64_t *c_slot, float *restrict acc)
{
    const int64_t leaf = nb * nb;
    for (int64_t t = 0; t < ntask; t++) {
        const float *pt = prod + t * leaf;
        float *ct = acc + c_slot[t] * leaf;
        for (int64_t e = 0; e < leaf; e++)
            ct[e] += pt[e];
    }
}
