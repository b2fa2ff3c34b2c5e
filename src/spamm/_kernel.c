/* Kernels of the numeric phase and of the tree conversions, loaded by
 * spamm._kernel through ctypes.  The library exports five functions:
 * spamm_stream_gated, the gated product stream and the finish of each C leaf;
 * spamm_slab_tiles, the slab width it runs at a block size;
 * spamm_subnorm_squares, the squared 4x4 sub-block norms of the tree build;
 * spamm_leaves_to_rows, the dense rows of a tree; and spamm_leaves_symmetric,
 * the value test of a tree's symmetry.
 *
 * Leaves are row-major n_b x n_b float32 blocks, stacked; sub-norm grids are
 * row-major s x s float32 blocks, s = n_b / 4.  spamm_subnorm_squares reads
 * any row-major grid of n_b x n_b blocks in place, with a row stride: a leaf
 * stack is a grid one block wide, and a matrix whose sides are multiples of
 * n_b is its own grid, so a tree is built from the dense rows in one pass.
 * spamm_leaves_to_rows goes the other way, writing each output row once.
 *
 * Each C leaf runs its tasks in plan order.  The gated kernel works on slabs: W
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
 * unaligned loads and stores on any float32 stack.  The finish's and the
 * conversions' loops (finish_leaf, block_squares) get one copy per ISA by
 * target_clones, with their order of operations unchanged.
 *
 * The caller groups the tasks by C leaf, each leaf's in plan order: leaf g
 * takes tasks [starts[g], starts[g + 1]).  A gated call runs on threads that
 * take the C leaves from one shared counter, 16 KB of them at a time (one
 * 64 x 64 leaf).  A thread does all of one leaf before the next: it sets the
 * leaf to zero (unless the caller summed into it already), runs its tasks
 * into it, finishes it by one expression for every alpha and beta, alpha S +
 * beta old per element in float32 with a term whose factor is 0 read as -0,
 * and takes its sub-norm squares, all while the leaf is in cache.  Each
 * leaf is written whole by the thread that took it and adds its terms in the
 * same order on any thread, so which thread takes which leaf changes no
 * result or counter.  The threads are started and joined inside the call,
 * and the calling thread is one of them.
 *
 * The mirror path squares a symmetric X: the caller passes each C slot's
 * mirror (the slot of its transpose).  The thread that takes a leaf on or
 * above the diagonal also writes its transpose into the mirror slot and
 * takes that leaf's own sub-norm squares; a strict-lower leaf is passed over
 * and its tasks are not run, so each leaf is still written by one thread.
 * This is the full product bit for bit: products commute, both sides add the
 * same terms in ascending k, and with transposed sub-norm grids every gate
 * decides alike.  The counters stay the full product's: the products of a
 * leaf with a mirror count twice.
 *
 * Build without FMA contraction (-ffp-contract=off) and without -ffast-math,
 * which would contract, reassociate or flush subnormals, and with -pthread.
 * The Python side checks every dtype, shape and slot range before a call,
 * and groups the tasks.
 */

#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#define SPAMM_X86 1
#endif

/* The loops of the finish and of the conversions get one copy per ISA,
 * chosen once when the library loads (an ifunc, so glibc only).  They keep
 * their order of operations, so every copy gives the same bits. */
#if defined(SPAMM_X86) && defined(__GLIBC__)
#define SPAMM_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define SPAMM_CLONES
#endif

/* Four floats, the row of a 4x4 tile, at any float32 address. */
typedef float spamm_v4sf __attribute__((vector_size(16), aligned(4)));

/* The arguments of one gated call, shared by its threads. */
struct stream {
    int64_t count, nb;
    const float *a, *asub, *b, *bsub;
    const int64_t *a_slot, *b_slot, *starts;
    float *c;
    double gate, alpha, beta;
    const float *old;
    const int64_t *old_slot;
    int64_t zero;
    double *subsq;
    const int64_t *mirror;
    int64_t next; /* the next C slot to take */
};

/* Runs the tasks [t0, t1) into the C leaf at c; returns the products run. */
typedef int64_t stream_body(const struct stream *st, int64_t t0, int64_t t1,
                            float *c);

/* One thread of a call. */
struct part {
    struct stream *st;
    stream_body *body;
    int64_t counts[2];
    pthread_t thread;
    int started;
};

/* Gated products: task t adds A[a_slot[t]] B[b_slot[t]] into its C leaf.
 * The 4x4x4 product (p, r, q) runs when the float64 product of sub-norms
 * asub[p, r] * bsub[r, q] reaches gate; otherwise it is skipped and adds
 * nothing.  NAME, the W-tile body, returns the products run; it needs a
 * block size that is a multiple of 4W.  LANE_BITS(m) packs a W-lane float64
 * compare m into W bits.
 *
 * NAME walks each 4-row strip of a task by slab pairs, 2W adjacent tiles.
 * A strip of an odd number of slabs (one, at n_b = 4W, which a tree's
 * power-of-two n_b gives; three at n_b = 12W, which only a direct call
 * does) has a lone last slab; those of strips p and p + 1 run as a vertical
 * pair, sharing each B load rather than each A broadcast, and a strip left
 * over runs its lone slab alone.  NAME##_slabs runs NS = 2 or 1 slabs in
 * two steps.  The gate pass goes once over the k
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
static ATTR int64_t NAME(const struct stream *st, int64_t t0, int64_t t1,      \
                         float *ct)                                            \
{                                                                              \
    const int64_t nb = st->nb, s = nb / 4, leaf = nb * nb, grid = s * s;       \
    const int64_t *a_slot = st->a_slot, *b_slot = st->b_slot;                  \
    const double gate = st->gate;                                              \
    int32_t ks[s];                                                             \
    uint8_t open[s];                                                           \
    int64_t run = 0;                                                           \
    for (int64_t t = t0; t < t1; t++) {                                        \
        const float *at = st->a + a_slot[t] * leaf;                            \
        const float *an = st->asub + a_slot[t] * grid;                         \
        const float *bt = st->b + b_slot[t] * leaf;                            \
        const float *bn = st->bsub + b_slot[t] * grid;                         \
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
    return run;                                                                \
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
 * whose rows are ld floats apart, into out[p * s + q], added in one order at
 * every n_b: each 4-element row left to right, then the four row sums top
 * to bottom.  Squares of float32 values are exact in float64, so only the
 * order of the additions matters. */
static SPAMM_CLONES void block_squares(const float *v, int64_t nb, int64_t ld,
                                       double *out)
{
    const int64_t s = nb / 4;
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
static SPAMM_CLONES __attribute__((noinline)) void
finish_leaf(float *c, const float *old, int64_t leaf, int no_s, float alpha,
            float beta, float none)
{
    for (int64_t i = 0; i < leaf; i++)
        c[i] = (no_s ? -0.0f : alpha * c[i]) + (old ? beta * old[i] : none);
}

/* t = the transpose of the n_b x n_b leaf c, by 4x4 tiles: the tile at
 * row i, column j of c is read as four rows r and written as four columns
 * of t at row j, column i.  The kernel's one leaf transpose: the mirror
 * path writes each lower leaf with it, and spamm_leaves_symmetric
 * transposes each upper leaf with it before its byte compare. */
static void transpose_leaf(const float *c, float *t, int64_t nb)
{
    for (int64_t i = 0; i < nb; i += 4)
        for (int64_t j = 0; j < nb; j += 4) {
            spamm_v4sf r[4];
            for (int k = 0; k < 4; k++)
                r[k] = *(const spamm_v4sf *)(c + (i + k) * nb + j);
            for (int k = 0; k < 4; k++)
                *(spamm_v4sf *)(t + (j + k) * nb + i) =
                    (spamm_v4sf){r[0][k], r[1][k], r[2][k], r[3][k]};
        }
}

/* One thread of a gated call: it takes runs of C slots from the shared
 * counter until none is left, and does all of a slot g before the next.  A
 * slot on or above the diagonal of the mirror path, or any slot off it, is
 * set to +0 unless the caller summed into it already, takes its tasks, is
 * finished with old being leaf old_slot[g] of the old stack, and gets its
 * sub-norm squares; on the mirror path an upper leaf is then copied,
 * transposed, into its mirror slot, whose squares follow.  A strict-lower
 * slot is left to that copy.  The zero tests are on the float64 alpha and
 * beta, which decided the leaves.  With alpha 1 and beta 0 each leaf is left
 * as summed, 1 S + (-0) = S: that pass over C made perfbench's square-1024
 * and exact-512 products 3.6% and 5.1% slower (on a 2-vCPU Xeon with
 * AVX-512F). */
static void *run_part(void *arg)
{
    struct part *p = arg;
    struct stream *st = p->st;
    const int64_t nb = st->nb, leaf = nb * nb, s = nb / 4, grid = s * s;
    const int no_o = st->beta == 0, identity = no_o && (float)st->alpha == 1;
    const float beta = (float)st->beta;
    const float none = no_o ? -0.0f : beta * 0.0f; /* o where no old leaf is read */
    /* leaves per take from the counter: 16 KB of C, one 64 x 64 leaf or
     * sixteen 16 x 16 ones.  One 16 x 16 leaf per take made the seed-0
     * square-1024 kernel call 1.3x slower on two threads (7.2 against 5.6 ms,
     * a 2-vCPU Xeon), as the threads wrote neighbouring leaves and took the
     * counter 2290 times. */
    const int64_t take = leaf < 4096 ? 4096 / leaf : 1;
    int64_t run = 0, done = 0;
    for (int64_t g0; (g0 = __atomic_fetch_add(&st->next, take, __ATOMIC_RELAXED)) < st->count;)
        for (int64_t g = g0; g < g0 + take && g < st->count; g++) {
            /* the slot of g's transpose on the mirror path, g off it */
            const int64_t h = st->mirror ? st->mirror[g] : g;
            if (h < g)
                continue; /* written below, by the thread that takes slot h */
            float *c = st->c + g * leaf;
            const int64_t t0 = st->starts[g], t1 = st->starts[g + 1];
            if (st->zero)
                memset(c, 0, (size_t)leaf * sizeof(float));
            /* a leaf with a mirror counts for the mirror's too */
            const int twice = h > g;
            run += p->body(st, t0, t1, c) << twice;
            done += (t1 - t0) << twice;
            const float *old = no_o || st->old_slot[g] < 0
                                   ? NULL : st->old + st->old_slot[g] * leaf;
            if (!identity)
                finish_leaf(c, old, leaf, st->alpha == 0, (float)st->alpha, beta, none);
            block_squares(c, nb, nb, st->subsq + g * grid);
            if (twice) {
                transpose_leaf(c, st->c + h * leaf, nb);
                /* its own squares: the transposed grid would sum in another order */
                block_squares(st->c + h * leaf, nb, nb, st->subsq + h * grid);
            }
        }
    p->counts[0] = run;
    p->counts[1] = done * s * grid - run;
    return NULL;
}

/* Runs the gated products on slabs of `tiles` tiles, or of the widest that
 * spamm_slab_tiles(nb) allows if that is narrower, and finishes every one
 * of the count C slots: slot g takes the tasks [starts[g], starts[g + 1]),
 * old is the old leaf stack, old_slot[g] the old leaf of slot g or -1,
 * subsq a float64 (count, s, s) stack.  With zero the C slots start as +0;
 * without, they start as the caller left them, holding sums it formed
 * itself.  mirror is NULL, or on the mirror path the slot of each slot's
 * transpose: slot g is written as the transpose of slot mirror[g] where
 * mirror[g] < g.  counts[0] and counts[1] gain the products run and
 * skipped.  The call runs on the calling thread and nthreads - 1 more; one
 * that cannot be started takes no slot, and the others take its share. */
void spamm_stream_gated(int64_t count, int64_t nb,
                        const float *a, const float *asub,
                        const float *b, const float *bsub,
                        const int64_t *a_slot, const int64_t *b_slot,
                        const int64_t *starts, float *c, double gate,
                        int64_t *counts, int64_t nthreads, int64_t tiles,
                        double alpha, double beta, const float *old,
                        const int64_t *old_slot, int64_t zero, double *subsq,
                        const int64_t *mirror)
{
    struct stream st = {count, nb, a, asub, b, bsub, a_slot, b_slot, starts,
                        c, gate, alpha, beta, old, old_slot, zero, subsq,
                        mirror, 0};
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
    struct part parts[nthreads];
    for (int64_t i = 0; i < nthreads; i++) {
        parts[i] = (struct part){.st = &st, .body = body};
        parts[i].started = i > 0 &&
            pthread_create(&parts[i].thread, NULL, run_part, &parts[i]) == 0;
    }
    run_part(&parts[0]);
    for (int64_t i = 0; i < nthreads; i++) {
        if (parts[i].started)
            pthread_join(parts[i].thread, NULL);
        counts[0] += parts[i].counts[0];
        counts[1] += parts[i].counts[1];
    }
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

/* 1 if each of the count leaves of the stack values equals the transpose of
 * leaf mirror[g] bit for bit, else 0: the value test of a tree's symmetry,
 * read in place.  Each pair is compared once, from its upper leaf, which
 * transpose_leaf writes into t, the caller's n_b x n_b float32 scratch
 * leaf; memcmp compares the bytes, so -0 differs from +0. */
int spamm_leaves_symmetric(int64_t count, int64_t nb, const int64_t *mirror,
                           const float *values, float *t)
{
    const int64_t leaf = nb * nb;
    for (int64_t g = 0; g < count; g++) {
        if (mirror[g] < g)
            continue;
        transpose_leaf(values + g * leaf, t, nb);
        if (memcmp(t, values + mirror[g] * leaf, (size_t)leaf * sizeof(float)))
            return 0;
    }
    return 1;
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
