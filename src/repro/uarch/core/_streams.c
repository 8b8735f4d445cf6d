/* Front-end stream precompute (streams.py) in C, compiled on demand
 * with the system toolchain by repro.nativelib.
 *
 * Three entry points, each a transcription of the Python reference
 * that stays in streams.py (and in the predictor classes):
 *
 * - `iside_pass` = `_compute_iside`: the `pc >> 6` line dedup, the
 *   ITLB (fully associative LRU), the L1I (LRU sets) with its next-line
 *   `contains`/prefetch probe, and the branch predictor, over the
 *   optional warm pass and then the timed pass.
 * - `dside_pass` = `_compute_dside`: the L1D walk over load/store ops.
 * - `bp_run`: one predictor over a branch stream (predict, then
 *   update), for the differential tests.
 *
 * Caches keep each set's ways in LRU-first order, shifted on every
 * touch like the Python list, so the final set contents come out in
 * `Cache._sets` order.  The predictors take every table size, history
 * length and bound from a descriptor filled from a live Python
 * instance (layout below, kept in lockstep with streams.py), so the
 * classes stay the one source of those constants.  Python's `%` is
 * floored; `pymod` keeps that for negative operands.
 *
 * Scalars travel through i64 arrays, outputs through caller-owned
 * buffers; predictor and cache state is allocated here and freed
 * before return.  `iside_pass` and `bp_run` return 0, or -1 when an
 * allocation fails.
 */

#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;
typedef signed char i8;
typedef unsigned char u8;

/* I-side parameters — must match streams.py. */
enum {
    Q_N = 0, Q_WARM, Q_KBRANCH,
    Q_L1I_SETS, Q_L1I_ASSOC, Q_L1I_SHIFT, Q_L1I_LINE, Q_ITLB,
    Q_COUNT
};

/* I-side outputs — must match streams.py. */
enum {
    O_L1I_ACCESSES = 0, O_L1I_MISSES, O_LOOKUPS, O_MISPREDICTS, O_NWARM,
    O_COUNT
};

/* Predictor descriptor — must match streams.py.  Kinds: 0 LocalBP,
 * 1 TournamentBP (whose local component fills the B_LOCAL_* slots),
 * 2 LTAGE, 3 PerceptronBP.  LTAGE's tables follow the header as
 * (size, hist_len, tag_mask) triples. */
enum {
    B_KIND = 0,
    B_LOCAL_TABLE, B_LOCAL_HMASK, B_LOCAL_MAX, B_LOCAL_THRESH, B_NIDS,
    B_GMASK, B_GSIZE,
    B_BIM_SIZE, B_NTABLES,
    B_PC_TABLE, B_PC_HLEN, B_PC_WMAX, B_PC_THETA,
    B_TABLES
};
enum { BP_LOCAL = 0, BP_TOURNAMENT, BP_LTAGE, BP_PERCEPTRON };

#define LTAGE_MAX_TABLES 16
#define LTAGE_TAG_MUL 2654435761ULL

static inline i64 pymod(i64 a, i64 m)
{
    i64 r = a % m;
    return r < 0 ? r + m : r;
}

/* = min(max(v, lo), hi), the Python saturate. */
static inline i64 sat(i64 v, i64 lo, i64 hi)
{
    i64 m = v > lo ? v : lo;
    return m < hi ? m : hi;
}

/* ------------------------------------------------------------------ */
/* Caches and the ITLB                                                 */

/* = Cache (no interference): sets x assoc tags, each row LRU-first
 * with `fill[set]` ways in use. */
typedef struct {
    i64 *tags, *fill;
    i64 mask, assoc, shift;
    i64 accesses, misses;
} cache_t;

static int cache_init(cache_t *c, i64 sets, i64 assoc, i64 shift)
{
    c->tags = calloc((size_t)(sets * assoc), sizeof(i64));
    c->fill = calloc((size_t)sets, sizeof(i64));
    c->mask = sets - 1;
    c->assoc = assoc;
    c->shift = shift;
    c->accesses = c->misses = 0;
    return c->tags && c->fill ? 0 : -1;
}

static void cache_free(cache_t *c)
{
    free(c->tags);
    free(c->fill);
}

/* = Cache.access: returns 1 on hit. */
static inline int cache_access(cache_t *c, i64 addr)
{
    i64 line = addr >> c->shift;
    i64 *set = c->tags + (line & c->mask) * c->assoc;
    i64 *fill = c->fill + (line & c->mask);
    i64 len = *fill;
    c->accesses++;
    for (i64 w = len - 1; w >= 0; w--) {  /* tags are unique: MRU first */
        if (set[w] == line) {  /* move to the MRU end */
            memmove(set + w, set + w + 1,
                    (size_t)(len - 1 - w) * sizeof(i64));
            set[len - 1] = line;
            return 1;
        }
    }
    c->misses++;
    if (len >= c->assoc) {
        memmove(set, set + 1, (size_t)(len - 1) * sizeof(i64));
        set[len - 1] = line;
    } else {
        set[len] = line;
        *fill = len + 1;
    }
    return 0;
}

/* = Cache.contains. */
static inline int cache_contains(const cache_t *c, i64 addr)
{
    i64 line = addr >> c->shift;
    const i64 *set = c->tags + (line & c->mask) * c->assoc;
    i64 len = c->fill[line & c->mask];
    for (i64 w = len - 1; w >= 0; w--)
        if (set[w] == line)
            return 1;
    return 0;
}

/* = TLB.access over 4 kB pages: returns 1 on a miss.  `pages` is
 * LRU-first. */
static inline int tlb_access(i64 *pages, i64 *len, i64 entries, i64 addr)
{
    i64 page = addr >> 12;
    i64 n = *len;
    for (i64 w = n - 1; w >= 0; w--) {  /* pages are unique: MRU first */
        if (pages[w] == page) {
            memmove(pages + w, pages + w + 1,
                    (size_t)(n - 1 - w) * sizeof(i64));
            pages[n - 1] = page;
            return 0;
        }
    }
    if (n >= entries) {
        memmove(pages, pages + 1, (size_t)(n - 1) * sizeof(i64));
        pages[n - 1] = page;
    } else {
        pages[n] = page;
        *len = n + 1;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Branch predictors                                                   */

typedef struct {
    int kind;
    /* LocalBP (alone, or TournamentBP's local component): a counter
     * table plus one history per distinct `pc >> 2`, by dense id. */
    i64 l_table, l_hmask, l_max, l_thresh;
    i64 *l_ctr, *l_hist;
    /* TournamentBP */
    i64 gmask, ghist;
    i64 *gshare, *chooser;
    /* LTAGE */
    i64 bim_size, ntables;
    i64 *bim;
    i64 t_size[LTAGE_MAX_TABLES], t_tmask[LTAGE_MAX_TABLES];
    i64 t_shift[LTAGE_MAX_TABLES];
    u64 t_hmask[LTAGE_MAX_TABLES];
    i64 *t_tags[LTAGE_MAX_TABLES], *t_ctr[LTAGE_MAX_TABLES];
    i64 *t_useful[LTAGE_MAX_TABLES];
    u64 lghist;
    /* PerceptronBP: rows of hlen + 1 weights; `p_hist` holds the +-1
     * history newest first. */
    i64 p_table, p_hlen, p_wmax, p_theta;
    i64 *p_w, *p_hist;
} bp_t;

static i64 *filled(i64 n, i64 value)
{
    i64 *a = malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (a)
        for (i64 i = 0; i < n; i++)
            a[i] = value;
    return a;
}

static int bit_length(u64 v)
{
    int b = 0;
    while (v) {
        b++;
        v >>= 1;
    }
    return b;
}

static void bp_free(bp_t *p)
{
    free(p->l_ctr);
    free(p->l_hist);
    free(p->gshare);
    free(p->chooser);
    free(p->bim);
    for (int t = 0; t < LTAGE_MAX_TABLES; t++) {
        free(p->t_tags[t]);
        free(p->t_ctr[t]);
        free(p->t_useful[t]);
    }
    free(p->p_w);
    free(p->p_hist);
}

static int bp_init(bp_t *p, const i64 *B)
{
    memset(p, 0, sizeof(*p));
    p->kind = (int)B[B_KIND];
    if (p->kind == BP_LOCAL || p->kind == BP_TOURNAMENT) {
        p->l_table = B[B_LOCAL_TABLE];
        p->l_hmask = B[B_LOCAL_HMASK];
        p->l_max = B[B_LOCAL_MAX];
        p->l_thresh = B[B_LOCAL_THRESH];
        p->l_ctr = filled(p->l_table, p->l_thresh);
        p->l_hist = filled(B[B_NIDS], 0);
        if (!p->l_ctr || !p->l_hist)
            return -1;
    }
    if (p->kind == BP_TOURNAMENT) {
        p->gmask = B[B_GMASK];
        p->gshare = filled(B[B_GSIZE], 1);
        p->chooser = filled(B[B_GSIZE], 1);
        if (!p->gshare || !p->chooser)
            return -1;
    } else if (p->kind == BP_LTAGE) {
        p->bim_size = B[B_BIM_SIZE];
        p->ntables = B[B_NTABLES];
        if (p->ntables > LTAGE_MAX_TABLES)
            return -1;
        p->bim = filled(p->bim_size, 1);
        if (!p->bim)
            return -1;
        for (i64 t = 0; t < p->ntables; t++) {
            i64 size = B[B_TABLES + 3 * t];
            i64 hist_len = B[B_TABLES + 3 * t + 1];
            p->t_size[t] = size;
            /* (1 << hist_len) - 1 on Python ints; ghist never exceeds
             * 64 bits, so any hist_len >= 64 keeps all of it. */
            p->t_hmask[t] = hist_len >= 64 ? ~0ULL
                                           : (1ULL << hist_len) - 1;
            p->t_tmask[t] = B[B_TABLES + 3 * t + 2];
            p->t_shift[t] = bit_length((u64)size) - 1;
            p->t_tags[t] = filled(size, 0);
            p->t_ctr[t] = filled(size, 0);
            p->t_useful[t] = filled(size, 0);
            if (!p->t_tags[t] || !p->t_ctr[t] || !p->t_useful[t])
                return -1;
        }
    } else if (p->kind == BP_PERCEPTRON) {
        p->p_table = B[B_PC_TABLE];
        p->p_hlen = B[B_PC_HLEN];
        p->p_wmax = B[B_PC_WMAX];
        p->p_theta = B[B_PC_THETA];
        p->p_w = filled(p->p_table * (p->p_hlen + 1), 0);
        p->p_hist = filled(p->p_hlen, 0);
        if (!p->p_w || !p->p_hist)
            return -1;
    }
    return 0;
}

/* LocalBP._index / predict / update. */
static inline i64 local_index(const bp_t *p, i64 pc, i64 id)
{
    return pymod((pc >> 2) ^ p->l_hist[id], p->l_table);
}

static inline int local_predict(const bp_t *p, i64 pc, i64 id)
{
    return p->l_ctr[local_index(p, pc, id)] >= p->l_thresh;
}

static inline void local_update(bp_t *p, i64 pc, i64 id, int taken)
{
    i64 idx = local_index(p, pc, id);
    p->l_ctr[idx] = sat(p->l_ctr[idx] + (taken ? 1 : -1), 0, p->l_max);
    p->l_hist[id] = ((p->l_hist[id] << 1) | taken) & p->l_hmask;
}

/* TournamentBP.predict then .update; returns the prediction. */
static inline int tournament_step(bp_t *p, i64 pc, i64 id, int taken)
{
    i64 gi = ((pc >> 2) ^ p->ghist) & p->gmask;
    /* update() re-reads local.predict before local.update */
    int local_pred = local_predict(p, pc, id);
    int global_pred = p->gshare[gi] >= 2;
    int pred = p->chooser[gi] >= 2 ? global_pred : local_pred;
    if (local_pred != global_pred)
        p->chooser[gi] = sat(p->chooser[gi]
                             + (global_pred == taken ? 1 : -1), 0, 3);
    p->gshare[gi] = sat(p->gshare[gi] + (taken ? 1 : -1), 0, 3);
    local_update(p, pc, id, taken);
    p->ghist = ((p->ghist << 1) | taken) & p->gmask;
    return pred;
}

/* LTAGE.predict then .update; returns the prediction.  Every table's
 * index and tag are computed up front: the lookup reads the tables
 * from the longest history down to the provider, and allocation reads
 * the ones above it, all under the same ghist. */
static inline int ltage_step(bp_t *p, i64 pc, int taken)
{
    i64 idx[LTAGE_MAX_TABLES], tag[LTAGE_MAX_TABLES];
    i64 key = pc >> 2;
    for (i64 t = 0; t < p->ntables; t++) {
        u64 h = p->lghist & p->t_hmask[t];
        u64 folded = 0, low = (u64)(p->t_size[t] - 1);
        while (h) {
            folded ^= h & low;
            h >>= p->t_shift[t];
        }
        idx[t] = pymod(key ^ (i64)folded, p->t_size[t]);
        /* low 64 bits of the product: all the tag mask keeps */
        tag[t] = (i64)(((u64)key ^ ((p->lghist & p->t_hmask[t])
                                    * LTAGE_TAG_MUL))
                       & (u64)p->t_tmask[t]);
    }
    i64 bi = pymod(key, p->bim_size);
    int alt = p->bim[bi] >= 2;
    int pred = alt;
    i64 provider = -1;
    for (i64 t = p->ntables - 1; t >= 0; t--) {
        if (p->t_tags[t][idx[t]] == tag[t]) {
            provider = t;
            pred = p->t_ctr[t][idx[t]] >= 0;
            break;
        }
    }
    int correct = pred == taken;
    if (provider >= 0) {
        i64 i = idx[provider];
        p->t_ctr[provider][i] = sat(p->t_ctr[provider][i]
                                    + (taken ? 1 : -1), -4, 3);
        if (pred != alt)
            p->t_useful[provider][i] = sat(p->t_useful[provider][i]
                                           + (correct ? 1 : -1), 0, 3);
    } else {
        p->bim[bi] = sat(p->bim[bi] + (taken ? 1 : -1), 0, 3);
    }
    if (!correct) {
        for (i64 t = provider + 1; t < p->ntables; t++) {
            i64 i = idx[t];
            if (p->t_useful[t][i] == 0) {
                p->t_tags[t][i] = tag[t];
                p->t_ctr[t][i] = taken ? 0 : -1;
                break;
            }
            p->t_useful[t][i] -= 1;
        }
    }
    /* & ((1 << 64) - 1): the u64 shift drops the top bit by itself */
    p->lghist = (p->lghist << 1) | (u64)taken;
    return pred;
}

/* PerceptronBP.predict then .update; returns the prediction. */
static inline int perceptron_step(bp_t *p, i64 pc, int taken)
{
    i64 hlen = p->p_hlen, wm = p->p_wmax;
    i64 *w = p->p_w + pymod(pc >> 2, p->p_table) * (hlen + 1);
    i64 *gh = p->p_hist;
    i64 y = w[0];
    for (i64 i = 0; i < hlen; i++)
        y += w[i + 1] * gh[i];
    int pred = y >= 0;
    i64 t = taken ? 1 : -1;
    if (pred != taken || (y < 0 ? -y : y) <= p->p_theta) {
        w[0] = sat(w[0] + t, -wm - 1, wm);
        for (i64 i = 0; i < hlen; i++)
            w[i + 1] = sat(w[i + 1] + t * gh[i], -wm - 1, wm);
    }
    /* pop() the oldest, insert(0, t) the newest */
    memmove(gh + 1, gh, (size_t)(hlen - 1) * sizeof(i64));
    gh[0] = t;
    return pred;
}

/* One branch: predict, then update; returns the prediction.  `id` is
 * the dense id of `pc >> 2` (read by the local-history predictors). */
static inline int bp_step(bp_t *p, i64 pc, i64 id, int taken)
{
    int pred;
    switch (p->kind) {
    case BP_LOCAL:
        pred = local_predict(p, pc, id);
        local_update(p, pc, id, taken);
        return pred;
    case BP_TOURNAMENT:
        return tournament_step(p, pc, id, taken);
    case BP_LTAGE:
        return ltage_step(p, pc, taken);
    default:
        return perceptron_step(p, pc, taken);
    }
}

int bp_run(const i64 *B, const i64 *pcs, const i64 *ids, const u8 *takens,
           i64 n, u8 *preds)
{
    bp_t p;
    int rc = bp_init(&p, B);
    if (rc == 0)
        for (i64 i = 0; i < n; i++)
            preds[i] = (u8)bp_step(&p, pcs[i], ids ? ids[i] : 0,
                                   takens[i] != 0);
    bp_free(&p);
    return rc;
}

/* ------------------------------------------------------------------ */
/* The passes                                                          */

/* = _compute_iside.  Writes the four per-op byte streams, the timed
 * pass's counters (O_*) and, for a warm run, the warm pass's L2 probes
 * in program order (capacity 2 x Q_N each). */
int iside_pass(const i64 *Q, const i64 *B,
               const i64 *pcs, const i8 *kinds, const i8 *takens,
               const i64 *ids,
               u8 *l1i_hit, u8 *pf_l2, u8 *itlb_miss, u8 *bp_wrong,
               i64 *warm_pos, i64 *warm_addr, u8 *warm_pf, i64 *out)
{
    const i64 n = Q[Q_N], kbranch = Q[Q_KBRANCH];
    const i64 line_bytes = Q[Q_L1I_LINE], entries = Q[Q_ITLB];
    cache_t l1i;
    bp_t bp;
    i64 *pages = malloc((size_t)(entries > 0 ? entries : 1)
                        * sizeof(i64));
    i64 npages = 0, nwarm = 0, lookups = 0, mispredicts = 0;
    int rc = cache_init(&l1i, Q[Q_L1I_SETS], Q[Q_L1I_ASSOC],
                        Q[Q_L1I_SHIFT]);
    rc |= bp_init(&bp, B);
    if (!pages)
        rc = -1;

    for (int timed = Q[Q_WARM] ? 0 : 1; rc == 0 && timed < 2; timed++) {
        i64 last_line = 0, nbr = 0;
        for (i64 i = 0; i < n; i++) {
            i64 pc = pcs[i];
            i64 line = pc >> 6;
            if (i == 0 || line != last_line) {
                last_line = line;
                int tlb_miss = tlb_access(pages, &npages, entries, pc);
                if (cache_access(&l1i, pc)) {
                    if (timed)
                        l1i_hit[i] = 1;
                } else {
                    i64 nxt = pc + line_bytes;
                    int pf = !cache_contains(&l1i, nxt);
                    if (pf)
                        cache_access(&l1i, nxt);
                    if (timed) {
                        pf_l2[i] = (u8)pf;
                    } else {
                        if (pf) {
                            warm_pos[nwarm] = i;
                            warm_addr[nwarm] = nxt;
                            warm_pf[nwarm++] = 1;
                        }
                        warm_pos[nwarm] = i;
                        warm_addr[nwarm] = pc;
                        warm_pf[nwarm++] = 0;
                    }
                }
                if (timed)
                    itlb_miss[i] = (u8)tlb_miss;
            }
            if (kinds[i] == kbranch) {
                int taken = takens[i] != 0;
                int pred = bp_step(&bp, pc, ids ? ids[nbr] : 0, taken);
                nbr++;
                if (timed) {
                    lookups++;
                    if (pred != taken) {
                        bp_wrong[i] = 1;
                        mispredicts++;
                    }
                }
            }
        }
        if (!timed)
            l1i.accesses = l1i.misses = 0;
    }
    out[O_L1I_ACCESSES] = l1i.accesses;
    out[O_L1I_MISSES] = l1i.misses;
    out[O_LOOKUPS] = lookups;
    out[O_MISPREDICTS] = mispredicts;
    out[O_NWARM] = nwarm;
    cache_free(&l1i);
    bp_free(&bp);
    free(pages);
    return rc;
}

/* = _compute_dside: the L1D walk over load/store ops.  Writes the miss
 * positions and addresses (capacity n each), leaves the final sets in
 * the caller's zeroed `tags`/`fill` (sets x assoc, LRU-first) and
 * returns the miss count. */
i64 dside_pass(i64 n, const i8 *kinds, const i64 *addrs, i64 kload,
               i64 kstore, i64 sets, i64 assoc, i64 shift,
               i64 *tags, i64 *fill, i64 *miss_pos, i64 *miss_addr)
{
    cache_t l1d = {tags, fill, sets - 1, assoc, shift, 0, 0};
    i64 misses = 0;
    for (i64 i = 0; i < n; i++) {
        if ((kinds[i] == kload || kinds[i] == kstore)
                && !cache_access(&l1d, addrs[i])) {
            miss_pos[misses] = i;
            miss_addr[misses++] = addrs[i];
        }
    }
    return misses;
}
