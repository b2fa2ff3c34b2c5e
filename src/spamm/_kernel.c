/* Kernels of the numeric phase and of the tree conversions, loaded by
 * spamm._kernel through ctypes.  The library exports four functions:
 * spamm_stream_gated, the gated product stream and the finish of each C leaf;
 * spamm_slab_tiles, the slab width it runs at a block size;
 * spamm_subnorm_squares, the squared 4x4 sub-block norms of the tree build;
 * and spamm_leaves_to_rows, the dense rows of a tree.
 *
 * Leaves are row-major n_b x n_b float32 blocks, stacked; sub-norm grids are
 * row-major s x s float32 blocks, s = n_b / 4.  spamm_subnorm_squares reads
 * any row-major grid of n_b x n_b blocks in place, with a row stride: a leaf
 * stack is a grid one block wide, and a matrix whose sides are multiples of
 * n_b is its own grid, so a tree is built from the dense rows in one pass.
 * spamm_leaves_to_rows goes the other way, writing each output row once.
 *
 * Tasks are walked in plan order.  The gated kernel works on slabs: W
 * adjacent 4x4 tiles of one 4-row strip of a C leaf, held as four 4W-float
 * vector registers (one per row), and it runs the slabs of a strip in
 * adjacent pairs.  For each pair
 * it first tests every gate once: one pass over the strip's 4-wide k blocks
 * r forms the pair's gate bits at each r (a bit per tile, from vector
 * compares), counts the products run by their popcount, and lists the r
 * with any open gate without a branch on the bits.  Then it adds the listed
 * k blocks into both slabs at once, each A element broadcast once for the
 * pair's 8 accumulators, so C is loaded and stored once per pair, not once
 * per k.  The lone last slabs of strips with an odd number of slabs (one,
 * at n_b = 4W) pair up across two adjacent strips instead, sharing each B
 * load.  Every C element still adds its terms in ascending k with a
 * separate multiply and add, so the result is the float32 loop's bit for
 * bit.  Where only some of the pair's gates are open at one k block, each
 * sum is kept only in the open tiles' lanes by a bit select, so a closed
 * tile keeps its exact bits (-0.0 included) and a closed product that
 * overflows is thrown away.
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
 * counters do not depend on the thread count.  Each thread also sets its
 * slots to zero before its tasks and finishes them after, by one expression
 * for every alpha and beta: alpha S + beta old per element in float32, a
 * term whose factor is 0 read as -0, then the leaf's sub-norm squares while
 * it is still in cache.  The threads are started and joined inside the
 * call; the calling thread runs the first range.
 *
 * Build without FMA contraction (-ffp-contract=off) and without -ffast-math,
 * which would contract, reassociate or flush subnormals, and with -pthread.
 * The Python side checks every dtype, shape and slot range before a call,
 * and computes the bounds.
 */

#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#define SPAMM_X86 1
#endif

/* The arguments of one gated call, shared by its threads. */
struct stream {
    int64_t ntask, nb;
    const float *a, *asub, *b, *bsub;
    const int64_t *a_slot, *b_slot, *c_slot;
    float *c;
    double gate, alpha, beta;
    const float *old;
    const int64_t *old_slot;
    int64_t zero;
    double *subsq;
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

static void finish(const struct stream *st, int64_t lo, int64_t hi);

/* One thread's range: set to zero unless the caller summed into it already,
 * then the tasks into it, then its finish. */
static void *run_part(void *arg)
{
    struct part *p = arg;
    const struct stream *st = p->st;
    if (st->zero && p->lo < p->hi)
        memset(st->c + p->lo * st->nb * st->nb, 0,
               (size_t)((p->hi - p->lo) * st->nb * st->nb) * sizeof(float));
    p->body(st, p->lo, p->hi, p->counts);
    finish(st, p->lo, p->hi);
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
 * nothing.  counts[0] and counts[1] gain the products run and skipped.
 * NAME is the W-tile body, which needs a block size that is a multiple of
 * 4W; LANE_BITS(m) packs a W-lane float64 compare m into W bits.
 *
 * NAME walks each 4-row strip of a task by slab pairs, 2W adjacent tiles.
 * A strip of an odd number of slabs (one, at n_b = 4W) has a lone last
 * slab; those of strips p and p + 1 run as a vertical pair, sharing each B
 * load rather than each A broadcast, and a strip left over runs its lone
 * slab alone.  NAME##_slabs runs NS = 2 or 1 slabs in two steps.  The gate
 * pass goes once over the k
 * blocks r: the gate bits of the slabs' tiles at r come from one float64
 * vector compare per slab, their popcount adds to the products run, and r
 * goes into the open-k list ks, with its bits in open, at a position that
 * only advances when some bit is set.  Then NAME##_add runs the listed k
 * blocks in ascending order, a plain add where every tile is open and a
 * masked one otherwise.  Slabs with an empty list are not read or
 * written. */
#define SPAMM_SLAB_BODY(NAME, W, ATTR, LANE_BITS)                              \
typedef float NAME##_vf __attribute__((vector_size(16 * (W)), aligned(4)));   \
typedef int32_t NAME##_vi __attribute__((vector_size(16 * (W))));             \
typedef float NAME##_vg __attribute__((vector_size(4 * (W)), aligned(4)));    \
typedef double NAME##_vd __attribute__((vector_size(8 * (W))));               \
                                                                               \
/* acc[h][i] += the 4x4 product of A at a[i] + r4 + da h (row i of slab   \
 * h's strip, k block r4 / 4) and B at br + db h, k ascending, for the NS   \
 * slabs h: one A broadcast (da = 0) or one B load (db = 0) serves both.     \
 * Given a mask, each sum is kept only in the lanes where mask[h] is set and \
 * the other lanes keep their bits. */                                       \
static inline __attribute__((always_inline)) ATTR void                         \
NAME##_add(const int NS, const int64_t nb, const float *const a[4],           \
           const int64_t r4, const float *br, const int64_t da,                \
           const int64_t db, NAME##_vf acc[2][4], const NAME##_vi *mask)       \
{                                                                              \
    for (int64_t k = 0; k < 4; k++) {                                          \
        NAME##_vf bk[2];                                                       \
        for (int h = 0; h < NS; h++)                                           \
            bk[h] = *(const NAME##_vf *)(br + k * nb + db * h);                \
        for (int i = 0; i < 4; i++) {                                          \
            for (int h = 0; h < NS; h++) {                                     \
                const float aik = a[i][r4 + k + da * h];                       \
                const NAME##_vf sum = acc[h][i] + aik * bk[h];                 \
                const NAME##_vi kept = (NAME##_vi)acc[h][i];                   \
                acc[h][i] = !mask ? sum : (NAME##_vf)(((NAME##_vi)sum          \
                                          & mask[h]) | (kept & ~mask[h]));     \
            }                                                                  \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
/* Runs NS slabs from C at cq, with A at ap, B at bq, the strip's A        \
 * sub-norms at an and the slab's B sub-norms at bn, all at k block 0; the  \
 * second slab is the next one in the strip, or with V the one below it in  \
 * the next strip.  ks and open have room for s entries.  Returns the        \
 * products run. */                                                          \
static inline __attribute__((always_inline)) ATTR int64_t                      \
NAME##_slabs(const int NS, const int V, const int64_t nb, float *cq,          \
             const float *ap, const float *bq, const float *an,                \
             const float *bn, const double gate, int32_t *ks, uint8_t *open)   \
{                                                                              \
    const int64_t s = nb / 4;                                                  \
    const int64_t dc = V ? 4 * nb : 4 * (W), da = V ? 4 * nb : 0;             \
    const int64_t db = V ? 0 : 4 * (W), dan = V ? s : 0, dbn = V ? 0 : (W);    \
    const unsigned all = (1u << (NS * (W))) - 1;                               \
    int64_t run = 0, nk = 0;                                                   \
    for (int64_t r = 0; r < s; r++) {                                          \
        unsigned bits = 0;                                                     \
        for (int h = 0; h < NS; h++) {                                         \
            const double apr = an[r + dan * h];                                \
            const NAME##_vg b = *(const NAME##_vg *)(bn + r * s + dbn * h);    \
            const NAME##_vd norm =                                             \
                apr * __builtin_convertvector(b, NAME##_vd);                   \
            bits |= (unsigned)LANE_BITS(norm >= gate) << ((W) * h);            \
        }                                                                      \
        /* the 1-tile body, built for any target, counts its 2 bits without \
         * a popcount instruction or library call */                         \
        run += (W) == 1 ? (bits & 1) + (bits >> 1)                             \
                        : __builtin_popcount(bits);                            \
        ks[nk] = (int32_t)r;                                                   \
        open[nk] = (uint8_t)bits;                                              \
        nk += bits != 0;                                                       \
    }                                                                          \
    if (nk == 0)                                                               \
        return run;                                                            \
    NAME##_vi tile; /* lane -> its tile in the slab */                         \
    for (int j = 0; j < 4 * (W); j++)                                          \
        tile[j] = j / 4;                                                       \
    NAME##_vf c[2][4];                                                         \
    for (int h = 0; h < NS; h++)                                               \
        for (int i = 0; i < 4; i++)                                            \
            c[h][i] = *(const NAME##_vf *)(cq + i * nb + dc * h);              \
    const float *const a[4] = {ap, ap + nb, ap + 2 * nb, ap + 3 * nb};         \
    for (int64_t e = 0; e < nk; e++) {                                         \
        const int64_t r4 = 4 * (int64_t)ks[e];                                 \
        const float *br = bq + r4 * nb;                                        \
        if (open[e] == all) {                                                  \
            NAME##_add(NS, nb, a, r4, br, da, db, c, NULL);                    \
        } else {                                                               \
            NAME##_vi mask[2];                                                 \
            for (int h = 0; h < NS; h++)                                       \
                mask[h] = -(((int32_t)open[e] >> ((W) * h + tile)) & 1);       \
            NAME##_add(NS, nb, a, r4, br, da, db, c, mask);                    \
        }                                                                      \
    }                                                                          \
    for (int h = 0; h < NS; h++)                                               \
        for (int i = 0; i < 4; i++)                                            \
            *(NAME##_vf *)(cq + i * nb + dc * h) = c[h][i];                    \
    return run;                                                                \
}                                                                              \
                                                                               \
static ATTR void NAME(const struct stream *st, int64_t lo, int64_t hi,         \
                      int64_t *counts)                                         \
{                                                                              \
    if (lo >= hi)                                                              \
        return;                                                                \
    const int64_t nb = st->nb, s = nb / 4, leaf = nb * nb, grid = s * s;       \
    const int64_t *a_slot = st->a_slot, *b_slot = st->b_slot;                  \
    const int64_t *c_slot = st->c_slot;                                        \
    const double gate = st->gate;                                              \
    int32_t ks[s];                                                             \
    uint8_t open[s];                                                           \
    int64_t run = 0, done = 0;                                                 \
    for (int64_t t = 0; t < st->ntask; t++) {                                  \
        if (c_slot[t] < lo || c_slot[t] >= hi)                                 \
            continue;                                                          \
        done++;                                                                \
        const float *at = st->a + a_slot[t] * leaf;                            \
        const float *an = st->asub + a_slot[t] * grid;                         \
        const float *bt = st->b + b_slot[t] * leaf;                            \
        const float *bn = st->bsub + b_slot[t] * grid;                         \
        float *ct = st->c + c_slot[t] * leaf;                                  \
        for (int64_t p = 0; p < s; p++) {                                      \
            const float *ap = at + 4 * p * nb, *anp = an + p * s;              \
            float *cp = ct + 4 * p * nb;                                       \
            for (int64_t q = 0; q + 2 * (W) <= s; q += 2 * (W))                \
                run += NAME##_slabs(2, 0, nb, cp + 4 * q, ap, bt + 4 * q, anp, \
                                    bn + q, gate, ks, open);                   \
        }                                                                      \
        if (s / (W) % 2) {                                                     \
            const int64_t q = s - (W);                                         \
            int64_t p = 0;                                                     \
            for (; p + 1 < s; p += 2)                                          \
                run += NAME##_slabs(2, 1, nb, ct + 4 * (p * nb + q),           \
                                    at + 4 * p * nb, bt + 4 * q, an + p * s,   \
                                    bn + q, gate, ks, open);                   \
            if (p < s)                                                         \
                run += NAME##_slabs(1, 0, nb, ct + 4 * (p * nb + q),           \
                                    at + 4 * p * nb, bt + 4 * q, an + p * s,   \
                                    bn + q, gate, ks, open);                   \
        }                                                                      \
    }                                                                          \
    counts[0] += run;                                                          \
    counts[1] += done * s * grid - run;                                        \
}

/* The LANE_BITS of each body: bit j is set where lane j of compare m held
 * (a lane of all ones); the x86 bodies take the sign bits with movmskpd. */
#define SPAMM_LANE_BITS_1(m) ((m)[0] & 1)
SPAMM_SLAB_BODY(slab_generic, 1, , SPAMM_LANE_BITS_1)
#ifdef SPAMM_X86
typedef double spamm_v2df __attribute__((vector_size(16)));
typedef double spamm_v4df __attribute__((vector_size(32)));
#define SPAMM_LANE_BITS_2(m) __builtin_ia32_movmskpd((spamm_v2df)(m))
#define SPAMM_LANE_BITS_4(m) __builtin_ia32_movmskpd256((spamm_v4df)(m))
SPAMM_SLAB_BODY(slab_avx2, 2, __attribute__((target("avx2"))),
                SPAMM_LANE_BITS_2)
SPAMM_SLAB_BODY(slab_avx512f, 4, __attribute__((target("avx512f"))),
                SPAMM_LANE_BITS_4)
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

/* The float64 sums of squares of the 4x4 sub-blocks of one n_b x n_b block
 * whose rows are ld floats apart, into out[p * s + q], added in the order of
 * numpy's sum(axis=(2, 4)) over the block's squares as (s, 4, s, 4): each
 * 4-element row left to right, then the four row sums top to bottom.  At
 * n_b = 4 the sub-block is the whole block, whose 16 squares numpy sums as
 * one run in its pairwise order: value j plus value j + 8 for each j < 8
 * (value j being row j / 4, column j % 4), then those eight sums as a
 * balanced tree.  Squares of float32 values are exact in float64, so only
 * the order of the additions matters. */
static void block_squares(const float *v, int64_t nb, int64_t ld, double *out)
{
    const int64_t s = nb / 4;
    if (s == 1) {
        const float *row[4] = {v, v + ld, v + 2 * ld, v + 3 * ld};
        double r[8];
        for (int j = 0; j < 4; j++) {
            r[j] = (double)row[0][j] * (double)row[0][j] +
                   (double)row[2][j] * (double)row[2][j];
            r[j + 4] = (double)row[1][j] * (double)row[1][j] +
                       (double)row[3][j] * (double)row[3][j];
        }
        *out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        return;
    }
    for (int64_t p = 0; p < s; p++) {
        for (int64_t q = 0; q < s; q++) {
            double total = 0.0;
            for (int64_t i = 0; i < 4; i++) {
                const float *row = v + (4 * p + i) * ld + 4 * q;
                double sum = 0.0;
                for (int64_t j = 0; j < 4; j++)
                    sum += (double)row[j] * (double)row[j];
                total += sum;
            }
            *out++ = total;
        }
    }
}

/* One C leaf of the finish: c = s + o per element in float32, s = alpha S
 * for the sum S that c holds and o = beta old, or none = beta (+0) where no
 * old leaf is read; a term whose float64 factor is 0 is -0 (no_s, and none
 * with old NULL).  Exact by two IEEE facts, x + (-0) = x for every float32
 * x, +-0 included, and 1 x = x: alpha = 1 and beta = 1 change no bit,
 * beta = 0 gives alpha S and alpha = 0 beta old.  Out of line, so that the
 * compiler unswitches the loop on no_s and old and vectorizes each copy. */
static __attribute__((noinline)) void
finish_leaf(float *c, const float *old, int64_t leaf, int no_s, float alpha,
            float beta, float none)
{
    for (int64_t i = 0; i < leaf; i++)
        c[i] = (no_s ? -0.0f : alpha * c[i]) + (old ? beta * old[i] : none);
}

/* Finishes the C slots [lo, hi), old being leaf old_slot[g] of the old
 * stack, then takes their sub-norm squares.  The zero tests are on the
 * float64 alpha and beta, which decided the leaves.  With alpha 1 and beta
 * 0 each leaf is left as summed, 1 S + (-0) = S: that pass over C made
 * perfbench's square-1024 and exact-512 products 3.6% and 5.1% slower (on
 * a 2-vCPU Xeon with AVX-512F). */
static void finish(const struct stream *st, int64_t lo, int64_t hi)
{
    const int64_t nb = st->nb, leaf = nb * nb, grid = (nb / 4) * (nb / 4);
    const int no_o = st->beta == 0, identity = no_o && (float)st->alpha == 1;
    const float beta = (float)st->beta;
    const float none = no_o ? -0.0f : beta * 0.0f; /* o where no old leaf is read */
    for (int64_t g = lo; g < hi; g++) {
        float *c = st->c + g * leaf;
        const float *old = no_o || st->old_slot[g] < 0 ? NULL : st->old + st->old_slot[g] * leaf;
        if (!identity)
            finish_leaf(c, old, leaf, st->alpha == 0, (float)st->alpha, beta, none);
        block_squares(c, nb, nb, st->subsq + g * grid);
    }
}

/* Runs the gated products on slabs of `tiles` tiles, or of the widest that
 * spamm_slab_tiles(nb) allows if that is narrower, on nthreads threads over
 * the C slot ranges of bounds, and finishes every C slot: old is the old
 * leaf stack, old_slot[g] the old leaf of slot g or -1, subsq a float64
 * (G, s, s) stack.  With zero the C slots start as +0; without, they start
 * as the caller left them, holding sums it formed itself. */
void spamm_stream_gated(int64_t ntask, int64_t nb,
                        const float *a, const float *asub,
                        const float *b, const float *bsub,
                        const int64_t *a_slot, const int64_t *b_slot,
                        const int64_t *c_slot, float *c, double gate,
                        int64_t *counts, int64_t nthreads,
                        const int64_t *bounds, int64_t tiles,
                        double alpha, double beta, const float *old,
                        const int64_t *old_slot, int64_t zero, double *subsq)
{
    const struct stream st = {ntask, nb, a, asub, b, bsub, a_slot, b_slot,
                              c_slot, c, gate, alpha, beta, old, old_slot,
                              zero, subsq};
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

/* The float64 sums of squares of the 4x4 sub-blocks of a rows x cols grid
 * of n_b x n_b float32 blocks whose rows are ld floats apart: block (I, J)
 * starts at values + I * nb * ld + J * nb, and out[I, J, p, q] is the sum of
 * its sub-block (p, q), in block_squares' order.  A leaf stack is the grid
 * rows = L, cols = 1, ld = n_b; the dense rows of a matrix are the grid
 * ld = cols * n_b. */
void spamm_subnorm_squares(int64_t rows, int64_t cols, int64_t nb, int64_t ld,
                           const float *values, double *out)
{
    const int64_t grid = (nb / 4) * (nb / 4);
    for (int64_t bi = 0; bi < rows; bi++)
        for (int64_t bj = 0; bj < cols; bj++)
            block_squares(values + bi * nb * ld + bj * nb, nb, ld,
                          out + (bi * cols + bj) * grid);
}

/* The m x n float32 rows of a tree: index[I * bc + J] is the leaf of block
 * (I, J) in the stack values, or -1 where none is stored, bc = ceil(n / n_b).
 * Each row is written once, left to right, as its n_b-wide pieces (the last
 * one cut to the matrix), each copied from its leaf's row or set to +0. */
void spamm_leaves_to_rows(int64_t m, int64_t n, int64_t nb,
                          const int64_t *index, const float *values, float *out)
{
    const int64_t bc = (n + nb - 1) / nb;
    for (int64_t i = 0; i < m; i++, out += n) {
        const int64_t *leaf = index + i / nb * bc;
        for (int64_t j = 0; j < bc; j++) {
            const size_t width = (size_t)(j + 1 < bc ? nb : n - j * nb) * sizeof(float);
            if (leaf[j] < 0)
                memset(out + j * nb, 0, width);
            else
                memcpy(out + j * nb, values + (leaf[j] * nb + i % nb) * nb, width);
        }
    }
}
