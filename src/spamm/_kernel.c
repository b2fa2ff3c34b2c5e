/* Stream kernels of the numeric phase, loaded by spamm.numeric through ctypes.
 *
 * Leaves are row-major n_b x n_b float32 blocks, stacked; sub-norm grids are
 * row-major s x s float32 blocks, s = n_b / 4.  Tasks are walked in plan
 * order.  The gated kernel works on slabs: W adjacent 4x4 tiles of one
 * 4-row strip of a C leaf, held as four 4W-float vector registers (one per
 * row) while it adds the slab's open 4-wide k blocks, so C is loaded and
 * stored once per slab, not once per k.  Every C element still adds its
 * terms in ascending k with a separate multiply and add, so the result is
 * the float32 loop's bit for bit.  When only some of a slab's gates are open
 * at one k block, the sum is formed in every lane and the closed tiles' lanes
 * are bit-selected back from before, so a closed tile keeps its exact bits
 * (-0.0 included) and a closed product that overflows is thrown away.
 *
 * One body is instantiated three times: W = 4 (16-float rows) for AVX-512F,
 * W = 2 (8-float rows) for AVX2 and W = 1 (4-float rows) for any target.
 * spamm_stream_gated picks the widest the CPU supports and n_b fits at run
 * time, so one build serves every x86-64 CPU.  The vectors are GCC/Clang
 * vector extensions with 4-byte alignment, so they compile to unaligned
 * loads and stores on any float32 stack.  Build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math, which would contract,
 * reassociate or flush subnormals.  The Python side checks every dtype,
 * shape and slot range before a call.
 */

#include <stdint.h>

#if defined(__x86_64__) || defined(__i386__)
#define SPAMM_X86 1
#endif

/* Gated products: task t adds A[a_slot[t]] B[b_slot[t]] into C[c_slot[t]].
 * The 4x4x4 product (p, r, q) runs when the float64 product of sub-norms
 * asub[p, r] * bsub[r, q] reaches gate; otherwise it is skipped and adds
 * nothing.  A slab with no open gate is not written.  counts[0] and
 * counts[1] gain the products run and skipped.  A W-tile variant hands a
 * block size that is not a multiple of 4W to the 1-tile body. */
#define SPAMM_SLAB_KERNEL(NAME, W, ATTR)                                       \
ATTR void NAME(int64_t ntask, int64_t nb,                                      \
               const float *a, const float *asub,                              \
               const float *b, const float *bsub,                              \
               const int64_t *a_slot, const int64_t *b_slot,                   \
               const int64_t *c_slot, float *restrict c, double gate,          \
               int64_t *counts)                                                \
{                                                                              \
    typedef float vf __attribute__((vector_size(16 * (W)), aligned(4)));       \
    typedef int32_t vi __attribute__((vector_size(16 * (W))));                 \
    if ((W) > 1 && nb % (4 * (W))) {                                           \
        spamm_stream_gated_generic(ntask, nb, a, asub, b, bsub, a_slot, b_slot, \
                                   c_slot, c, gate, counts);                   \
        return;                                                                \
    }                                                                          \
    const int64_t s = nb / 4, leaf = nb * nb, grid = s * s;                    \
    const int all = (1 << (W)) - 1;                                            \
    vi tile; /* lane -> its tile in the slab */                                \
    for (int j = 0; j < 4 * (W); j++)                                          \
        tile[j] = j / 4;                                                       \
    int64_t run = 0;                                                           \
    for (int64_t t = 0; t < ntask; t++) {                                      \
        const float *at = a + a_slot[t] * leaf, *an = asub + a_slot[t] * grid; \
        const float *bt = b + b_slot[t] * leaf, *bn = bsub + b_slot[t] * grid; \
        float *ct = c + c_slot[t] * leaf;                                      \
        for (int64_t p = 0; p < s; p++) {                                      \
            for (int64_t q = 0; q < s; q += (W)) {                             \
                float *cpq = ct + 4 * (p * nb + q);                            \
                vf c0 = *(vf *)cpq, c1 = *(vf *)(cpq + nb),                    \
                   c2 = *(vf *)(cpq + 2 * nb), c3 = *(vf *)(cpq + 3 * nb);     \
                int touched = 0;                                               \
                for (int64_t r = 0; r < s; r++) {                              \
                    const double apr = an[p * s + r];                          \
                    const float *bnr = bn + r * s + q;                         \
                    int open = 0;                                              \
                    for (int j = 0; j < (W); j++) {                            \
                        const int pass = apr * (double)bnr[j] >= gate;         \
                        open |= pass << j;                                     \
                        run += pass;                                           \
                    }                                                          \
                    if (!open)                                                 \
                        continue;                                              \
                    touched = 1;                                               \
                    const float *ar = at + 4 * (p * nb + r);                   \
                    const float *br = bt + 4 * (r * nb + q);                   \
                    vf d0 = c0, d1 = c1, d2 = c2, d3 = c3;                     \
                    for (int64_t k = 0; k < 4; k++) {                          \
                        const vf bk = *(const vf *)(br + k * nb);              \
                        d0 += ar[k] * bk;                                      \
                        d1 += ar[nb + k] * bk;                                 \
                        d2 += ar[2 * nb + k] * bk;                             \
                        d3 += ar[3 * nb + k] * bk;                             \
                    }                                                          \
                    if (open == all) {                                         \
                        c0 = d0, c1 = d1, c2 = d2, c3 = d3;                    \
                    } else {                                                   \
                        const vi m = -((open >> tile) & 1);                    \
                        c0 = (vf)(((vi)d0 & m) | ((vi)c0 & ~m));               \
                        c1 = (vf)(((vi)d1 & m) | ((vi)c1 & ~m));               \
                        c2 = (vf)(((vi)d2 & m) | ((vi)c2 & ~m));               \
                        c3 = (vf)(((vi)d3 & m) | ((vi)c3 & ~m));               \
                    }                                                          \
                }                                                              \
                if (touched) {                                                 \
                    *(vf *)cpq = c0;                                           \
                    *(vf *)(cpq + nb) = c1;                                    \
                    *(vf *)(cpq + 2 * nb) = c2;                                \
                    *(vf *)(cpq + 3 * nb) = c3;                                \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    counts[0] += run;                                                          \
    counts[1] += ntask * s * grid - run;                                       \
}

SPAMM_SLAB_KERNEL(spamm_stream_gated_generic, 1, )
#ifdef SPAMM_X86
SPAMM_SLAB_KERNEL(spamm_stream_gated_avx2, 2, __attribute__((target("avx2"))))
SPAMM_SLAB_KERNEL(spamm_stream_gated_avx512f, 4, __attribute__((target("avx512f"))))
#endif

/* Tiles per slab that spamm_stream_gated uses at block size nb. */
static int slab_tiles(int64_t nb)
{
#ifdef SPAMM_X86
    __builtin_cpu_init();
    if (nb % 16 == 0 && __builtin_cpu_supports("avx512f"))
        return 4;
    if (nb % 8 == 0 && __builtin_cpu_supports("avx2"))
        return 2;
#endif
    (void)nb;
    return 1;
}

/* Name of the variant spamm_stream_gated runs at block size nb. */
const char *spamm_kernel_isa(int64_t nb)
{
    switch (slab_tiles(nb)) {
    case 4: return "avx512f";
    case 2: return "avx2";
    default: return "generic";
    }
}

void spamm_stream_gated(int64_t ntask, int64_t nb,
                        const float *a, const float *asub,
                        const float *b, const float *bsub,
                        const int64_t *a_slot, const int64_t *b_slot,
                        const int64_t *c_slot, float *restrict c, double gate,
                        int64_t *counts)
{
    switch (slab_tiles(nb)) {
#ifdef SPAMM_X86
    case 4:
        spamm_stream_gated_avx512f(ntask, nb, a, asub, b, bsub, a_slot, b_slot,
                                   c_slot, c, gate, counts);
        return;
    case 2:
        spamm_stream_gated_avx2(ntask, nb, a, asub, b, bsub, a_slot, b_slot,
                                c_slot, c, gate, counts);
        return;
#endif
    default:
        spamm_stream_gated_generic(ntask, nb, a, asub, b, bsub, a_slot, b_slot,
                                   c_slot, c, gate, counts);
    }
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
