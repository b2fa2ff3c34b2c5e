/* Kernels of the numeric phase and of the norm rebuild, loaded by
 * spamm._kernel through ctypes.  The library exports three functions:
 * spamm_stream_gated, the gated product stream; spamm_slab_tiles, the slab
 * width it runs at a block size; and spamm_subnorm_squares, the squared
 * 4x4 sub-block norms of the norm rebuild.
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
 * spamm_stream_gated, the one gated entry point, takes the caller's slab
 * width and lowers it to spamm_slab_tiles(n_b), the widest the CPU supports
 * and n_b fits, so one build serves every x86-64 CPU.  The vectors are
 * GCC/Clang vector extensions with 4-byte alignment, so they compile to
 * unaligned loads and stores on any float32 stack.
 *
 * A gated call is split over threads by C leaf: thread i owns the C slots
 * [bounds[i], bounds[i + 1]) and walks the whole plan in order, running only
 * the tasks into its own slots.  So no two threads write one leaf, every C
 * element adds its terms in the same order as on one thread, and results and
 * counters do not depend on the thread count.  The threads are started and
 * joined inside the call; the calling thread runs the first range.
 *
 * Build without FMA contraction (-ffp-contract=off) and without -ffast-math,
 * which would contract, reassociate or flush subnormals, and with -pthread.
 * The Python side checks every dtype, shape and slot range before a call,
 * and computes the bounds.
 */

#include <pthread.h>
#include <stdint.h>

#if defined(__x86_64__) || defined(__i386__)
#define SPAMM_X86 1
#endif

/* The arguments of one gated call, shared by its threads. */
struct stream {
    int64_t ntask, nb;
    const float *a, *asub, *b, *bsub;
    const int64_t *a_slot, *b_slot, *c_slot;
    float *c;
    double gate;
};

/* Runs the tasks into the C slots [lo, hi) and adds their counters. */
typedef void stream_body(const struct stream *st, int64_t lo, int64_t hi,
                         int64_t *counts);

/* One thread's share of a call. */
struct part {
    const struct stream *st;
    stream_body *body;
    int64_t lo, hi, counts[2];
    pthread_t thread;
    int started;
};

static void *run_part(void *arg)
{
    struct part *p = arg;
    p->body(p->st, p->lo, p->hi, p->counts);
    return NULL;
}

/* Runs body over the ranges [bounds[i], bounds[i + 1]), i < nthreads, one
 * thread each; the calling thread takes range 0, and an empty range starts
 * no thread.  A range whose thread cannot be started runs on the calling
 * thread, which changes no result, since the ranges are disjoint. */
static void run_parts(const struct stream *st, stream_body *body,
                      int64_t nthreads, const int64_t *bounds, int64_t *counts)
{
    struct part parts[nthreads];
    for (int64_t i = 0; i < nthreads; i++) {
        parts[i] = (struct part){.st = st, .body = body,
                                 .lo = bounds[i], .hi = bounds[i + 1]};
        parts[i].started = i > 0 && parts[i].lo < parts[i].hi &&
            pthread_create(&parts[i].thread, NULL, run_part, &parts[i]) == 0;
    }
    for (int64_t i = 0; i < nthreads; i++) {
        if (parts[i].started)
            pthread_join(parts[i].thread, NULL);
        else
            run_part(&parts[i]);
        counts[0] += parts[i].counts[0];
        counts[1] += parts[i].counts[1];
    }
}

/* Gated products: task t adds A[a_slot[t]] B[b_slot[t]] into C[c_slot[t]].
 * The 4x4x4 product (p, r, q) runs when the float64 product of sub-norms
 * asub[p, r] * bsub[r, q] reaches gate; otherwise it is skipped and adds
 * nothing.  A slab with no open gate is not written.  counts[0] and
 * counts[1] gain the products run and skipped.  NAME is the W-tile body,
 * which needs a block size that is a multiple of 4W. */
#define SPAMM_SLAB_BODY(NAME, W, ATTR)                                         \
static ATTR void NAME(const struct stream *st, int64_t lo, int64_t hi,         \
                      int64_t *counts)                                         \
{                                                                              \
    typedef float vf __attribute__((vector_size(16 * (W)), aligned(4)));       \
    typedef int32_t vi __attribute__((vector_size(16 * (W))));                 \
    if (lo >= hi)                                                              \
        return;                                                                \
    const int64_t nb = st->nb, s = nb / 4, leaf = nb * nb, grid = s * s;       \
    const int64_t *a_slot = st->a_slot, *b_slot = st->b_slot;                  \
    const int64_t *c_slot = st->c_slot;                                        \
    float *restrict c = st->c;                                                 \
    const double gate = st->gate;                                              \
    const int all = (1 << (W)) - 1;                                            \
    vi tile; /* lane -> its tile in the slab */                                \
    for (int j = 0; j < 4 * (W); j++)                                          \
        tile[j] = j / 4;                                                       \
    int64_t run = 0, done = 0;                                                 \
    for (int64_t t = 0; t < st->ntask; t++) {                                  \
        if (c_slot[t] < lo || c_slot[t] >= hi)                                 \
            continue;                                                          \
        done++;                                                                \
        const float *at = st->a + a_slot[t] * leaf;                            \
        const float *an = st->asub + a_slot[t] * grid;                         \
        const float *bt = st->b + b_slot[t] * leaf;                            \
        const float *bn = st->bsub + b_slot[t] * grid;                         \
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
    counts[1] += done * s * grid - run;                                        \
}

SPAMM_SLAB_BODY(slab_generic, 1, )
#ifdef SPAMM_X86
SPAMM_SLAB_BODY(slab_avx2, 2, __attribute__((target("avx2"))))
SPAMM_SLAB_BODY(slab_avx512f, 4, __attribute__((target("avx512f"))))
#endif

/* The widest slab, in tiles, that this CPU runs and block size nb fits. */
int spamm_slab_tiles(int64_t nb)
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

/* Runs the gated products on slabs of `tiles` tiles, or of the widest that
 * spamm_slab_tiles(nb) allows if that is narrower, on nthreads threads over
 * the C slot ranges of bounds. */
void spamm_stream_gated(int64_t ntask, int64_t nb,
                        const float *a, const float *asub,
                        const float *b, const float *bsub,
                        const int64_t *a_slot, const int64_t *b_slot,
                        const int64_t *c_slot, float *c, double gate,
                        int64_t *counts, int64_t nthreads,
                        const int64_t *bounds, int64_t tiles)
{
    const struct stream st = {ntask, nb, a, asub, b, bsub,
                              a_slot, b_slot, c_slot, c, gate};
    const int64_t widest = spamm_slab_tiles(nb);
    if (tiles > widest)
        tiles = widest;
    stream_body *body = slab_generic;
#ifdef SPAMM_X86
    if (tiles >= 4)
        body = slab_avx512f;
    else if (tiles >= 2)
        body = slab_avx2;
#endif
    run_parts(&st, body, nthreads, bounds, counts);
}

/* out[l, p, q] = the float64 sum of squares of 4x4 sub-block (p, q) of leaf
 * l, added in the order of numpy's sum(axis=(2, 4)) over the (L, s, 4, s, 4)
 * squares: each 4-element row left to right, then the four row sums top to
 * bottom.  At n_b = 4 the sub-block is the whole leaf, whose 16 squares numpy
 * sums as one run in its pairwise order: value j plus value j + 8 for each
 * j < 8, then those eight sums as a balanced tree.  Squares of float32
 * values are exact in float64, so only the order of the additions matters. */
void spamm_subnorm_squares(int64_t count, int64_t nb, const float *values,
                           double *out)
{
    const int64_t s = nb / 4;
    if (s == 1) {
        for (int64_t l = 0; l < count; l++) {
            const float *v = values + 16 * l;
            double r[8];
            for (int j = 0; j < 8; j++)
                r[j] = (double)v[j] * (double)v[j] + (double)v[j + 8] * (double)v[j + 8];
            out[l] = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        }
        return;
    }
    for (int64_t l = 0; l < count; l++) {
        const float *v = values + l * nb * nb;
        for (int64_t p = 0; p < s; p++) {
            for (int64_t q = 0; q < s; q++) {
                double total = 0.0;
                for (int64_t i = 0; i < 4; i++) {
                    const float *row = v + (4 * p + i) * nb + 4 * q;
                    double sum = 0.0;
                    for (int64_t j = 0; j < 4; j++)
                        sum += (double)row[j] * (double)row[j];
                    total += sum;
                }
                *out++ = total;
            }
        }
    }
}
