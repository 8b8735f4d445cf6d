/* The `native` cycle backend's kernel: the stream-backed fused loop
 * (`python_ref._run_fused`) transcribed to C, compiled on demand with
 * the system toolchain (see native.py).
 *
 * Structure mirrors the reference exactly — commit, issue (branch
 * prepass + windowed scan), dispatch, fetch — over a contiguous-range
 * state representation: the ROB is [committed, disp_next), the fetch
 * buffer [disp_next, fetch_idx), and only the out-of-order issue queue
 * is a real array.  The default observers (TMA slot classification,
 * hotspot clockticks) are folded into plain counters that end equal to
 * what the Python observers accumulate.
 *
 * The D-side hierarchy (L1D, the shared L2, the optional L3 and the
 * DRAM counters) is a port in this file: one `dside_t` per call that
 * answers exactly two requests — `port_access_data` for a load/store
 * and `port_inst_miss_walk` for the L2-and-below part of an L1I miss —
 * with the semantics of `MemoryHierarchy.access_data`/`inst_miss_walk`
 * over `Cache.access`.  Each set keeps its ways in LRU-first order
 * (shifted on every touch, like the Python list), so tag order, L2
 * interference (decreasing foreign tags) and every counter match the
 * Python reference step for step; tests/test_backend_differential.py
 * replays request sequences through both.  The kernel calls the port
 * directly.
 *
 * The kernel reads the trace columns in their stored dtypes (int8
 * kind, int64 addr/pc, int32 dep1/dep2, int16 func) and the stream
 * byte arrays in place; nothing is copied or widened on the way in.
 *
 * Scalars travel through i64 arrays (layouts below, kept in lockstep
 * with native.py's P_, D_ and C_ constants) plus flat data arrays, so
 * the ABI is a few functions with plain pointer arguments.
 */

#include <string.h>

typedef long long i64;
typedef int i32;
typedef short i16;
typedef signed char i8;
typedef unsigned char u8;

/* Params array layout — must match native.py. */
enum {
    P_N = 0, P_LIMIT, P_WINDOW, P_WIDTH,
    P_ROB_CAP, P_IQ_CAP, P_LQ_CAP, P_SQ_CAP,
    P_FETCH_W, P_ISSUE_W, P_COMMIT_W,
    P_MISP_PEN, P_PAUSE_LAT, P_ITLB_PEN,
    P_L1D_HIT, P_MSHRS, P_FBUF_CAP,
    P_KLOAD, P_KSTORE, P_KPAUSE, P_KBRANCH,
    P_CYCLE, P_COMMITTED, P_FETCH_IDX, P_LQ_USED, P_SQ_USED,
    P_SER_UNTIL, P_LAST_LINE, P_FSTALL_UNTIL,
    P_FS_KIND, P_REDIRECT,
    P_SL_RET, P_SL_BAD, P_SL_FEL, P_SL_FEB, P_SL_MEM, P_SL_CORE,
    P_SER_STALL, P_PAUSE_OPS,
    P_F_ACTIVE, P_F_SQUASH, P_F_ICACHE, P_F_TLB, P_F_MISC,
    P_DISP_NEXT, P_IQ_LEN, P_IQ_BRANCHES,
    P_DISPATCHED, P_BLOCK, P_FETCHED,
    P_N_OUT, P_TICKS,
    P_COUNT
};

/* D-side port descriptor layout — must match native.py.  A header,
 * then one block of C_FIELDS per level (L1D, L2, L3). */
enum {
    D_HAS_L3 = 0, D_L1D_HIT, D_L2_HIT, D_L3_HIT, D_DRAM_LAT,
    D_L1D_LINE, D_L1I_LINE, D_DRAM_ACCESSES, D_DRAM_BYTES,
    D_LEVELS
};
enum {
    C_SETS = 0, C_ASSOC, C_SHIFT, C_PERIOD, C_CLOCK, C_FOREIGN,
    C_ACCESSES, C_MISSES,
    C_FIELDS
};

/* One cache level: `tags` is sets x assoc, each row LRU-first with
 * `fill[set]` ways in use — the layout of `Cache._sets`. */
typedef struct {
    i64 *tags, *fill;
    i64 mask, assoc, shift;
    i64 period, clock, foreign;
    i64 accesses, misses;
} cache_t;

typedef struct {
    cache_t l1d, l2, l3;
    int has_l3;
    i64 l1d_hit, l2_hit, l3_hit, dram_lat, l1d_line, l1i_line;
    i64 dram_accesses, dram_bytes;
} dside_t;

static void cache_load(cache_t *c, const i64 *F, i64 *tags, i64 *fill)
{
    c->tags = tags;
    c->fill = fill;
    c->mask = F[C_SETS] - 1;
    c->assoc = F[C_ASSOC];
    c->shift = F[C_SHIFT];
    c->period = F[C_PERIOD];
    c->clock = F[C_CLOCK];
    c->foreign = F[C_FOREIGN];
    c->accesses = F[C_ACCESSES];
    c->misses = F[C_MISSES];
}

static void cache_store(const cache_t *c, i64 *F)
{
    F[C_CLOCK] = c->clock;
    F[C_FOREIGN] = c->foreign;
    F[C_ACCESSES] = c->accesses;
    F[C_MISSES] = c->misses;
}

/* Append `tag` as the set's MRU way, evicting the LRU way when full. */
static inline void set_push(i64 *set, i64 *fill, i64 assoc, i64 tag)
{
    i64 len = *fill;
    if (len >= assoc) {
        memmove(set, set + 1, (size_t)(len - 1) * sizeof(i64));
        set[len - 1] = tag;
    } else {
        set[len] = tag;
        *fill = len + 1;
    }
}

/* = Cache.access: returns 1 on hit. */
static inline int cache_access(cache_t *c, i64 addr)
{
    i64 line = addr >> c->shift;
    i64 si = line & c->mask;
    i64 *set = c->tags + si * c->assoc;
    i64 *fill = c->fill + si;
    i64 len = *fill;
    int hit = 0;
    c->accesses++;
    for (i64 w = 0; w < len; w++) {
        if (set[w] == line) {  /* LRU update: move to the MRU end */
            memmove(set + w, set + w + 1,
                    (size_t)(len - 1 - w) * sizeof(i64));
            set[len - 1] = line;
            hit = 1;
            break;
        }
    }
    if (!hit) {
        c->misses++;
        set_push(set, fill, c->assoc, line);
    }
    if (c->period && ++c->clock >= c->period) {
        c->clock = 0;
        set_push(set, fill, c->assoc, c->foreign);
        c->foreign--;
    }
    return hit;
}

static void port_load(dside_t *d, const i64 *D, i64 *const *bufs)
{
    d->has_l3 = (int)D[D_HAS_L3];
    d->l1d_hit = D[D_L1D_HIT];
    d->l2_hit = D[D_L2_HIT];
    d->l3_hit = D[D_L3_HIT];
    d->dram_lat = D[D_DRAM_LAT];
    d->l1d_line = D[D_L1D_LINE];
    d->l1i_line = D[D_L1I_LINE];
    d->dram_accesses = D[D_DRAM_ACCESSES];
    d->dram_bytes = D[D_DRAM_BYTES];
    cache_load(&d->l1d, D + D_LEVELS, bufs[0], bufs[1]);
    cache_load(&d->l2, D + D_LEVELS + C_FIELDS, bufs[2], bufs[3]);
    if (d->has_l3)
        cache_load(&d->l3, D + D_LEVELS + 2 * C_FIELDS, bufs[4], bufs[5]);
}

static void port_store(const dside_t *d, i64 *D)
{
    D[D_DRAM_ACCESSES] = d->dram_accesses;
    D[D_DRAM_BYTES] = d->dram_bytes;
    cache_store(&d->l1d, D + D_LEVELS);
    cache_store(&d->l2, D + D_LEVELS + C_FIELDS);
    if (d->has_l3)
        cache_store(&d->l3, D + D_LEVELS + 2 * C_FIELDS);
}

/* = MemoryHierarchy.access_data: total latency in cycles. */
static inline i64 port_access_data(dside_t *d, i64 addr)
{
    if (cache_access(&d->l1d, addr))
        return d->l1d_hit;
    if (cache_access(&d->l2, addr))
        return d->l2_hit;
    if (d->has_l3 && cache_access(&d->l3, addr))
        return d->l3_hit;
    d->dram_accesses++;
    d->dram_bytes += d->l1d_line;
    return d->dram_lat;
}

/* = MemoryHierarchy.inst_miss_walk, including the L2 next-line
 * prefetch probe. */
static inline i64 port_inst_miss_walk(dside_t *d, i64 addr, i64 prefetch)
{
    if (prefetch)
        cache_access(&d->l2, addr + d->l1i_line);
    if (cache_access(&d->l2, addr))
        return d->l2_hit;
    if (d->has_l3 && cache_access(&d->l3, addr))
        return d->l3_hit;
    d->dram_accesses++;
    d->dram_bytes += d->l1i_line;
    return d->dram_lat;
}

/* = FrontEndStreams.apply_warm's L2/L3 replay of the merged warm miss
 * stream, then the counter reset (the L1D contents are loaded into the
 * port's arrays by the caller). */
void port_warm(i64 *D, i64 *const *bufs,
               const i64 *addrs, const u8 *pfs, i64 n)
{
    dside_t d;
    port_load(&d, D, bufs);
    for (i64 i = 0; i < n; i++)
        if (!cache_access(&d.l2, addrs[i]) && !pfs[i] && d.has_l3)
            cache_access(&d.l3, addrs[i]);
    d.l1d.accesses = d.l1d.misses = 0;
    d.l2.accesses = d.l2.misses = 0;
    d.l3.accesses = d.l3.misses = 0;
    d.dram_accesses = d.dram_bytes = 0;
    port_store(&d, D);
}

/* Drive the port with one request sequence: op 0 = access_data(addr),
 * op 1 = inst_miss_walk(addr, prefetch[i]).  Latencies go to `lat`.
 * The differential tests' entry point. */
void port_replay(i64 *D, i64 *const *bufs, const i8 *ops,
                 const i64 *addrs, const u8 *prefetch, i64 *lat, i64 n)
{
    dside_t d;
    port_load(&d, D, bufs);
    for (i64 i = 0; i < n; i++)
        lat[i] = ops[i] ? port_inst_miss_walk(&d, addrs[i], prefetch[i])
                        : port_access_data(&d, addrs[i]);
    port_store(&d, D);
}

void run_kernel(i64 *P, i64 *D, i64 *const *bufs,
                const i8 *kinds, const i64 *addrs, const i64 *pcs,
                const i32 *dep1, const i32 *dep2, const i16 *funcs,
                const u8 *itlb_miss, const u8 *l1i_hit,
                const u8 *pf_l2, const u8 *bp_wrong,
                const i64 *lat_tab,
                i64 *completion, i64 *ready_after,
                i64 *iq, i64 *outstanding,
                i64 *ic, i64 *cc,
                i64 *tick_fid, i64 *tick_val, i64 *fid_pos)
{
    dside_t port;
    port_load(&port, D, bufs);

    const i64 n = P[P_N], limit = P[P_LIMIT];
    const i64 window = P[P_WINDOW], width = P[P_WIDTH];
    const i64 rob_cap = P[P_ROB_CAP], iq_cap = P[P_IQ_CAP];
    const i64 lq_cap = P[P_LQ_CAP], sq_cap = P[P_SQ_CAP];
    const i64 fetch_width = P[P_FETCH_W], issue_width = P[P_ISSUE_W];
    const i64 commit_width = P[P_COMMIT_W];
    const i64 mispredict_penalty = P[P_MISP_PEN];
    const i64 pause_latency = P[P_PAUSE_LAT];
    const i64 itlb_penalty = P[P_ITLB_PEN];
    const i64 l1d_hit_lat = P[P_L1D_HIT], mshrs = P[P_MSHRS];
    const i64 fbuf_cap = P[P_FBUF_CAP];
    const int KLOAD = (int)P[P_KLOAD], KSTORE = (int)P[P_KSTORE];
    const int KPAUSE = (int)P[P_KPAUSE], KBRANCH = (int)P[P_KBRANCH];
    const i64 branch_lat = lat_tab[KBRANCH];

    i64 cycle = P[P_CYCLE], committed = P[P_COMMITTED];
    i64 fetch_idx = P[P_FETCH_IDX];
    i64 lq_used = P[P_LQ_USED], sq_used = P[P_SQ_USED];
    i64 serialize_until = P[P_SER_UNTIL];
    i64 last_fetch_line = P[P_LAST_LINE];
    i64 fetch_stall_until = P[P_FSTALL_UNTIL];
    i64 fs_kind = P[P_FS_KIND];       /* 0 none, 1 icache, 2 tlb */
    i64 redirect_branch = P[P_REDIRECT];
    i64 disp_next = P[P_DISP_NEXT];
    i64 iq_len = P[P_IQ_LEN];
    i64 iq_branches = P[P_IQ_BRANCHES];
    i64 n_out = P[P_N_OUT];
    i64 ticks = P[P_TICKS];

    i64 dispatched = 0, fetched = 0, block = 0;

    while (committed < n && cycle < limit) {
        /* ---- commit ---- */
        if (disp_next > committed) {
            i64 lim = committed + commit_width;
            if (lim > disp_next)
                lim = disp_next;
            while (committed < lim) {
                i64 t = completion[committed];
                if (t < 0 || t > cycle)
                    break;
                int k = kinds[committed];
                if (k == KLOAD)
                    lq_used--;
                else if (k == KSTORE)
                    sq_used--;
                cc[k]++;
                committed++;
            }
        }
        /* ---- issue ---- */
        if (n_out) {
            i64 w = 0;
            for (i64 j = 0; j < n_out; j++)
                if (outstanding[j] > cycle)
                    outstanding[w++] = outstanding[j];
            n_out = w;
        }
        i64 issued = 0;
        if (iq_branches) {
            i64 i = 0;
            while (i < iq_len && i < window) {
                i64 idx = iq[i];
                if (kinds[idx] == KBRANCH) {
                    i32 d1 = dep1[idx];
                    i64 t = d1 ? completion[idx - d1] : 0;
                    if (t >= 0 && t <= cycle) {
                        completion[idx] = cycle + branch_lat;
                        memmove(iq + i, iq + i + 1,
                                (size_t)(iq_len - i - 1) * sizeof(i64));
                        iq_len--;
                        issued++;
                        ic[KBRANCH]++;
                        iq_branches--;
                        if (issued >= 2)  /* branch-resolution ports */
                            break;
                        continue;
                    }
                }
                i++;
            }
        }
        {
            i64 i = 0;
            while (issued < issue_width && i < iq_len && i < window) {
                i64 idx = iq[i];
                if (ready_after[idx] > cycle) {
                    i++;
                    continue;
                }
                i32 d1 = dep1[idx];
                int ready = 1;
                if (d1) {
                    i64 t = completion[idx - d1];
                    if (t < 0 || t > cycle) {
                        ready = 0;
                        if (t > 0)
                            ready_after[idx] = t;
                    }
                }
                if (ready) {
                    i32 d2 = dep2[idx];
                    if (d2) {
                        i64 t = completion[idx - d2];
                        if (t < 0 || t > cycle) {
                            ready = 0;
                            if (t > 0)
                                ready_after[idx] = t;
                        }
                    }
                }
                int k = kinds[idx];
                if (ready && k == KLOAD && n_out >= mshrs)
                    ready = 0;
                if (ready) {
                    i64 lat;
                    if (k == KLOAD) {
                        lat = port_access_data(&port, addrs[idx]);
                        if (lat > l1d_hit_lat)
                            outstanding[n_out++] = cycle + lat;
                    } else if (k == KSTORE) {
                        port_access_data(&port, addrs[idx]);
                        lat = 1;
                    } else if (k == KPAUSE) {
                        lat = pause_latency;
                    } else {
                        lat = lat_tab[k];
                        if (k == KBRANCH)
                            iq_branches--;
                    }
                    completion[idx] = cycle + lat;
                    memmove(iq + i, iq + i + 1,
                            (size_t)(iq_len - i - 1) * sizeof(i64));
                    iq_len--;
                    issued++;
                    ic[k]++;
                } else {
                    i++;
                }
            }
        }
        /* ---- dispatch ---- */
        dispatched = 0;
        block = 0;
        {
            i64 rob_len = disp_next - committed;
            while (dispatched < width) {
                if (fetch_idx <= disp_next) {
                    block = 1;  /* frontend */
                    break;
                }
                if (cycle < serialize_until) {
                    block = 2;  /* serialize */
                    break;
                }
                int k = kinds[disp_next];
                if (k == KPAUSE && rob_len) {
                    block = 2;
                    break;
                }
                if (rob_len >= rob_cap) {
                    block = 3;  /* rob */
                    break;
                }
                if (iq_len >= iq_cap) {
                    block = 4;  /* iq */
                    break;
                }
                if (k == KLOAD) {
                    if (lq_used >= lq_cap) {
                        block = 5;  /* lq */
                        break;
                    }
                    lq_used++;
                } else if (k == KSTORE) {
                    if (sq_used >= sq_cap) {
                        block = 6;  /* sq */
                        break;
                    }
                    sq_used++;
                } else if (k == KPAUSE) {
                    serialize_until = cycle + pause_latency;
                    P[P_PAUSE_OPS]++;
                } else if (k == KBRANCH) {
                    iq_branches++;
                }
                iq[iq_len++] = disp_next;
                disp_next++;
                rob_len++;
                dispatched++;
            }
        }
        /* TMA slot classification (= TMASlotClassifier.on_dispatch,
         * evaluated on the same pre-fetch front-end state). */
        P[P_SL_RET] += dispatched;
        {
            i64 leftover = width - dispatched;
            if (leftover) {
                if (block == 1) {
                    if (redirect_branch >= 0)
                        P[P_SL_BAD] += leftover;
                    else if (fs_kind)
                        P[P_SL_FEL] += leftover;
                    else
                        P[P_SL_FEB] += leftover;
                } else if (block == 2) {
                    P[P_SL_CORE] += leftover;
                    P[P_SER_STALL]++;
                } else if (block == 5 || block == 6) {
                    P[P_SL_MEM] += leftover;
                } else if (block == 3 || block == 4) {
                    int mem = 0;
                    if (disp_next > committed) {
                        i64 t = completion[committed];
                        if (kinds[committed] == KLOAD
                                && (t < 0 || t > cycle))
                            mem = 1;
                    }
                    if (mem)
                        P[P_SL_MEM] += leftover;
                    else
                        P[P_SL_CORE] += leftover;
                } else {
                    P[P_SL_CORE] += leftover;
                }
            }
        }
        /* ---- fetch (stream-backed) ---- */
        fetched = 0;
        {
            int squash = redirect_branch >= 0;
            if (squash) {
                i64 t = completion[redirect_branch];
                if (t >= 0 && cycle >= t + mispredict_penalty) {
                    redirect_branch = -1;
                    squash = 0;
                }
            }
            if (!squash && cycle >= fetch_stall_until) {
                fs_kind = 0;
                while (fetched < fetch_width && fetch_idx < n
                        && (fetch_idx - disp_next) < fbuf_cap) {
                    i64 idx = fetch_idx;
                    i64 pc = pcs[idx];
                    i64 line = pc >> 6;
                    if (line != last_fetch_line) {
                        i64 tlb_lat = itlb_miss[idx] ? itlb_penalty : 0;
                        i64 ic_lat = l1i_hit[idx] ? 0
                                : port_inst_miss_walk(&port, pc, pf_l2[idx]);
                        last_fetch_line = line;
                        if (tlb_lat || ic_lat) {
                            fetch_stall_until = cycle + tlb_lat + ic_lat;
                            fs_kind = (tlb_lat >= ic_lat) ? 2 : 1;
                            break;
                        }
                    }
                    fetch_idx = idx + 1;
                    fetched++;
                    if (kinds[idx] == KBRANCH && bp_wrong[idx]) {
                        redirect_branch = idx;
                        break;
                    }
                }
            }
        }
        /* Fetch-stage cycle classification (Fig. 7a). */
        if (fetched > 0)
            P[P_F_ACTIVE]++;
        else if (redirect_branch >= 0)
            P[P_F_SQUASH]++;
        else if (fs_kind == 1)
            P[P_F_ICACHE]++;
        else if (fs_kind == 2)
            P[P_F_TLB]++;
        else
            P[P_F_MISC]++;
        /* Hotspot attribution (= HotspotSampler.on_cycle_end), kept in
         * first-touch order via fid_pos. */
        {
            int fid;
            if (disp_next > committed)
                fid = funcs[committed];
            else if (fetch_idx < n)
                fid = funcs[fetch_idx];
            else
                fid = funcs[n - 1];
            i64 p = fid_pos[fid];
            if (p < 0) {
                p = ticks++;
                fid_pos[fid] = p;
                tick_fid[p] = fid;
            }
            tick_val[p]++;
        }
        cycle++;
    }

    P[P_CYCLE] = cycle;
    P[P_COMMITTED] = committed;
    P[P_FETCH_IDX] = fetch_idx;
    P[P_LQ_USED] = lq_used;
    P[P_SQ_USED] = sq_used;
    P[P_SER_UNTIL] = serialize_until;
    P[P_LAST_LINE] = last_fetch_line;
    P[P_FSTALL_UNTIL] = fetch_stall_until;
    P[P_FS_KIND] = fs_kind;
    P[P_REDIRECT] = redirect_branch;
    P[P_DISP_NEXT] = disp_next;
    P[P_IQ_LEN] = iq_len;
    P[P_IQ_BRANCHES] = iq_branches;
    P[P_DISPATCHED] = dispatched;
    P[P_BLOCK] = block;
    P[P_FETCHED] = fetched;
    P[P_N_OUT] = n_out;
    P[P_TICKS] = ticks;
    port_store(&port, D);
}
