/* Stream kernels of the numeric phase, loaded by spamm.numeric through ctypes.
 *
 * Leaves are row-major n_b x n_b float32 blocks, stacked; sub-norm grids are
 * row-major s x s float32 blocks, s = n_b / 4.  Tasks are walked in plan
 * order.  The gated kernel holds each 4x4 tile of a C leaf in four 4-float
 * vector registers while it adds that tile's open 4-wide k blocks, so C is
 * loaded and stored once per tile, not once per k.  Every C element still
 * adds its terms in ascending k with a separate multiply and add, so the
 * result is the float32 loop's bit for bit.  The vectors are GCC/Clang
 * vector extensions with 4-byte alignment, so they compile to unaligned
 * loads and stores on any float32 stack.  Build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math, which would contract,
 * reassociate or flush subnormals.  The Python side checks every dtype,
 * shape and slot range before a call.
 */

#include <stdint.h>

typedef float v4 __attribute__((vector_size(16), aligned(4)));

/* Gated products: task t adds A[a_slot[t]] B[b_slot[t]] into C[c_slot[t]].
 * The 4x4x4 product (p, r, q) runs when the float64 product of sub-norms
 * asub[p, r] * bsub[r, q] reaches gate; otherwise it is skipped and adds
 * nothing.  A C tile (p, q) with no open gate is not written.  counts[0]
 * and counts[1] gain the products run and skipped. */
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
        for (int64_t p = 0; p < s; p++) {
            for (int64_t q = 0; q < s; q++) {
                float *cpq = ct + 4 * (p * nb + q);
                v4 c0 = *(v4 *)cpq, c1 = *(v4 *)(cpq + nb),
                   c2 = *(v4 *)(cpq + 2 * nb), c3 = *(v4 *)(cpq + 3 * nb);
                int64_t open = 0;
                for (int64_t r = 0; r < s; r++) {
                    if (!((double)an[p * s + r] * (double)bn[r * s + q] >= gate))
                        continue;
                    open++;
                    const float *ar = at + 4 * (p * nb + r);
                    const float *br = bt + 4 * (r * nb + q);
                    for (int64_t k = 0; k < 4; k++) {
                        const v4 bk = *(const v4 *)(br + k * nb);
                        c0 += ar[k] * bk;
                        c1 += ar[nb + k] * bk;
                        c2 += ar[2 * nb + k] * bk;
                        c3 += ar[3 * nb + k] * bk;
                    }
                }
                if (open) {
                    *(v4 *)cpq = c0;
                    *(v4 *)(cpq + nb) = c1;
                    *(v4 *)(cpq + 2 * nb) = c2;
                    *(v4 *)(cpq + 3 * nb) = c3;
                    run += open;
                }
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
