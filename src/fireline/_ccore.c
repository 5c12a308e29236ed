/* Compiled event core, the C twin of fireline._engine_py.PyEngineCore; the
 * Poisson mark sampler of fireline.rng; the C twins of the LFFP(p) event
 * loop of fireline.limits and of its state's queries; and a batch of
 * LFFP(p) tail runs built from the sampler, the loop and the queries.
 * Other block draws of fireline.rng are numpy passes on either core and
 * never call this library.
 *
 * Plain C99 with no Python C-API; fireline._clib loads it with ctypes.
 * Its only file-scope data are static const tables, so calls share no
 * state and may run at once on several threads, as fireline.harness runs
 * fl_tail_runs.
 * Every clock draw is the same counter-based Philox4x64-10 word as
 * fireline.rng.draw_u64(master_seed, stream_id, purpose, site, index), the
 * event queue pops in the same (time, site, kind) order, and every state
 * transition and log row below mirrors one of the Python twin, so the two
 * cores produce the same realization bit for bit.  Any divergence is a
 * bug; the parity tests compare them.
 *
 * The ten Philox round keys of (master_seed, stream_id) are computed once,
 * into the engine (or once per fl_poisson_rectangle call), and the rounds
 * are written out; the last round computes only the half that word 0 needs.
 *
 * Seed clocks are lazy, as in the twin: only vacant sites keep one in the
 * heap.  The ring that occupies a site stores its time in seed_last and
 * pushes nothing; the extinguish that makes the site vacant at time t walks
 * the site's seed chain (s = s + E_k, same counter, same draws) to its first
 * point at or after t and pushes that point.  Rings on non-vacant sites are
 * never events: event_count counts the events the heap processed, and
 * seed_rings_skipped the chain points the walks stepped over.
 *
 * The walk is where the two cores differ in shape, not in bits: the twin
 * reads its seed words from per-site buffers filled many sites at a time,
 * this core draws one word per chain point.  A word depends only on its
 * counter, so both add the same E_k in the same order.
 *
 * A run that starts with a fire (ignite_site >= 0, the propagation process)
 * also logs its front advances, sparks and clean vacancy windows; without a
 * fire only the match log fills.
 *
 * fl_run(e, t) is the one way to drive the engine: it processes every event
 * up to t, and refuses (status -2, nothing processed) a target that fails
 * now <= t < inf, NaN included.  Callers read what they need afterwards
 * from the exported views: the states, the logs, and seed_last, each site's
 * latest occupation time.
 *
 * fl_observe(e, idx, m, out) reads the observables of site idx in place:
 * out[0..1] the bounds of the occupied run through idx, or -1, -1 when idx
 * is not occupied, and out[2] the occupied count of the window
 * [idx - m, idx + m] clipped to the box.  It scans eight sites a word, and
 * refuses (status -2, out untouched) a site outside the box or m < 0.
 *
 * fl_poisson_rectangle(seed, stream, first, x_lo, x_hi, t_lo, t_hi, strips,
 * cap, out, used) draws the marks of fireline.rng.poisson_rectangle from
 * the stream words at first, first + 1, ...: per time strip a Knuth count
 * and its interleaved x and t words, then a stable merge sort by t.  It
 * returns the count and the words read, and writes the (x, t) rows only
 * when they fit in cap rows, never past them.
 *
 * fl_limit_run(p, A, T, n, marks, rows, counts) runs LFFP(p) on [-A, A] x
 * [0, T] from n validated marks, (x, t) pairs sorted by time.  It is the
 * loop of fireline.limits._run_alffp_py: the same lazy queue, the same
 * candidate tests and counters, and Python's float semantics (max and min
 * as explicit comparisons, the same operand order, no FMA contraction).  A
 * new front, barrier or death derives its candidates by a scan of the
 * barrier or front rows written so far.  A mark reads its last reset, its
 * active barrier and at p = 0 its cluster with the scans that
 * fl_limit_query makes (query_reset, query_barrier and query_cluster), over
 * every row written so far.  It writes rows of
 * doubles into the caller's buffer of 39n doubles, in four blocks
 * with room for 4n events, 2n fronts, n barriers and n sweeps (a mark makes
 * at most one barrier, one sweep or two fronts; a barrier expires once and
 * a front dies once):
 *   events   (t, cause, x, a, b), a and b the (z,) or swept (lo, hi) data;
 *   fronts   (x0, t0, direction, t_end, x_end, cause of death or LC_ALIVE);
 *   barriers (x, create, expiry, logged);
 *   sweeps   (t, lo, hi).
 * counts gets the four row counts, then the queue's candidates queued, stale
 * and rekeyed, its peak size and the candidate tests.  Its scratch, the
 * queue, is allocated and freed inside the call.  It returns 0, or -1 when
 * an allocation fails.
 *
 * fl_limit_query(p, A, n, rows, counts, x, m, ts, out) answers the queries
 * of fireline.limits.LimitStateP at the m points (x, ts[i]) from the rows
 * and the four row counts of one fl_limit_run call on n marks: per point,
 * five doubles, the last reset at x, H (the active barrier's height), a
 * macroscopic flag (Z = 1 and no active barrier, 1.0 or 0.0) and the bounds
 * of the cluster D (x and x when the flag is 0.0).  Each answer is a scan of
 * every row in row order, the one the loop's marks read, with the tests and
 * float expressions of the Python scan it mirrors (_last_reset,
 * _active_barrier, _cluster), so both give the same bits, ties and signs of
 * zero included.  It reads nothing else and allocates nothing.
 *
 * fl_tail_runs(p, A, T, seed, first, count, out) makes count runs of
 * fireline.harness.limit_tail_experiment in one call: for each stream
 * (seed, first + k), the marks of fl_poisson_rectangle on [-A, A] x [0, T],
 * one fl_limit_run on them into a rows buffer that every run reuses, and
 * fl_limit_query at (0, T), whose cluster length (hi - lo, or 0.0 when the
 * flag is off) goes to out[k].  It composes the three calls above and adds
 * no rule of its own, so each length has the bits of the per-run path.
 *
 * Sizes and indices are 64-bit throughout, and so are the per-site draw
 * counters (Python's are unbounded).  The heap and the logs grow on demand;
 * the only failure is an allocation failure, reported as a nonzero status
 * or a NULL engine.
 */

/* The limit engine must round as Python does: a * b + c must not become a
 * fused multiply-add.  gcc ignores this pragma (and warns about it), so it
 * is built with -ffp-contract=off instead. */
#if defined(__clang__) || !defined(__GNUC__)
#pragma STDC FP_CONTRACT OFF
#endif

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _WIN32
#define FL_API __declspec(dllexport)
#else
#define FL_API
#endif

enum { VACANT, OCCUPIED, BURNING };
enum { KIND_PROPAGATE, KIND_MATCH, KIND_SEED };
enum { PURPOSE_SEED = 1, PURPOSE_MATCH = 2, PURPOSE_PROPAGATE = 3 };

/* Logs, read back by fireline.engine as arrays of rows of LOG_WIDTH doubles.
 * A front log holds times only: its k-th advance reaches origin +- k. */
enum {
    LOG_FRONT_PLUS,  /* (time) right-front advances */
    LOG_FRONT_MINUS, /* (time) left-front advances */
    LOG_SPARK,       /* (site, ignite time, extinguish time) */
    LOG_OMEGA_RIGHT, /* (clean) closed vacancy windows behind the right front */
    LOG_OMEGA_LEFT,  /* (clean) closed vacancy windows behind the left front */
    LOG_MATCH,       /* (time, site, effective) processed matches */
    N_LOGS
};
static const int LOG_WIDTH[N_LOGS] = {1, 1, 3, 1, 1, 3};

static const uint64_t M0 = 0xD2E7470EE14C6C93u, M1 = 0xCA5A826395121157u;
static const uint64_t W0 = 0x9E3779B97F4A7C15u, W1 = 0xBB67AE8584CAA73Bu;
static const double INV53 = 1.0 / 9007199254740992.0;

/* The ten round keys of one (master_seed, stream_id): round r uses
 * (master_seed + r * W0, stream_id + r * W1), wrapping. */
typedef struct {
    uint64_t k0[10], k1[10];
} philox_key;

typedef struct {
    double *v;
    int64_t rows, cap;
} rowlog;

typedef struct {
    double t;
    uint64_t key; /* site << 2 | kind: orders ties by site, then kind */
} event;

typedef struct {
    /* Public scalars; fireline.engine._Scalars mirrors this leading block. */
    double now;
    int64_t event_count, seed_rings_skipped, burning_count, burn_lo, burn_hi;

    int64_t n_sites;
    double pi, match_rate;
    philox_key key; /* the round keys of (master_seed, stream_id) */
    uint8_t *states;
    uint64_t *draws[4]; /* per-site draw counters, indexed by purpose */
    double *seed_last;  /* each site's latest occupation time, 0.0 at start */
    event *heap;
    int64_t hsize, hcap;

    int track;
    int64_t origin, right_front, left_front, rw_site, lw_site;
    int rw_clean, lw_clean;
    double *spark_open; /* ignition time of an open spark, NAN when none */
    rowlog logs[N_LOGS];
} engine;

static uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    __extension__ unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = ((a0 * b0) >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
#endif
}

static philox_key philox_schedule(uint64_t master_seed, uint64_t stream_id)
{
    philox_key key;
    for (int r = 0; r < 10; r++) {
        key.k0[r] = master_seed;
        key.k1[r] = stream_id;
        master_seed += W0;
        stream_id += W1;
    }
    return key;
}

/* One Philox4x64 round on the caller's locals c0..c3 with round keys
 * (k0, k1).  The rounds are written out because gcc -O2 keeps a loop over
 * them, which is slower. */
#define PHILOX_ROUND(k0, k1)                                                   \
    do {                                                                       \
        uint64_t hi0, hi1;                                                     \
        uint64_t lo0 = mulhilo(c0, M0, &hi0);                                  \
        uint64_t lo1 = mulhilo(c2, M1, &hi1);                                  \
        c0 = hi1 ^ c1 ^ (k0);                                                  \
        c1 = lo1;                                                              \
        c2 = hi0 ^ c3 ^ (k1);                                                  \
        c3 = lo0;                                                              \
    } while (0)

/* Word 0 of Philox4x64-10 of counter (c0, c1, c2, c3). */
static inline uint64_t philox_word0(const philox_key *key, uint64_t c0, uint64_t c1,
                                    uint64_t c2, uint64_t c3)
{
    PHILOX_ROUND(key->k0[0], key->k1[0]);
    PHILOX_ROUND(key->k0[1], key->k1[1]);
    PHILOX_ROUND(key->k0[2], key->k1[2]);
    PHILOX_ROUND(key->k0[3], key->k1[3]);
    PHILOX_ROUND(key->k0[4], key->k1[4]);
    PHILOX_ROUND(key->k0[5], key->k1[5]);
    PHILOX_ROUND(key->k0[6], key->k1[6]);
    PHILOX_ROUND(key->k0[7], key->k1[7]);
    PHILOX_ROUND(key->k0[8], key->k1[8]);
    /* the last round's word 0 needs only the high half of c2 * M1 */
    uint64_t hi1;
    mulhilo(c2, M1, &hi1);
    return hi1 ^ c1 ^ key->k0[9];
}

#undef PHILOX_ROUND

/* The next exponential clock of one site and purpose; rate 1.0 divides
 * exactly, so seed clocks match the twin's undivided draw. */
static double exp_draw(engine *e, int purpose, int64_t site, double rate)
{
    uint64_t k = e->draws[purpose][site]++;
    uint64_t x = philox_word0(&e->key, (uint64_t)purpose, (uint64_t)site, k, 0);
    return -log((double)((x >> 11) + 1) * INV53) / rate;
}

static int grow(void **buf, int64_t *cap, size_t elem)
{
    int64_t n = *cap > 0 ? 2 * *cap : 16;
    void *p = realloc(*buf, (size_t)n * elem);
    if (p == NULL)
        return -1;
    *buf = p;
    *cap = n;
    return 0;
}

static int log_row(engine *e, int which, double a, double b, double c)
{
    rowlog *g = &e->logs[which];
    int w = LOG_WIDTH[which];
    if (g->rows == g->cap && grow((void **)&g->v, &g->cap, w * sizeof(double)))
        return -1;
    double *row = g->v + g->rows++ * w;
    row[0] = a;
    if (w > 1)
        row[1] = b;
    if (w > 2)
        row[2] = c;
    return 0;
}

/* -- event heap ----------------------------------------------------------- */

static int less(const event *a, const event *b)
{
    return a->t < b->t || (a->t == b->t && a->key < b->key);
}

static int push(engine *e, double t, int64_t site, int kind)
{
    if (e->hsize == e->hcap && grow((void **)&e->heap, &e->hcap, sizeof(event)))
        return -1;
    event ev = {t, (uint64_t)site << 2 | (uint64_t)kind};
    int64_t i = e->hsize++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!less(&ev, &e->heap[parent]))
            break;
        e->heap[i] = e->heap[parent];
        i = parent;
    }
    e->heap[i] = ev;
    return 0;
}

static event pop(engine *e)
{
    event top = e->heap[0], last = e->heap[--e->hsize];
    int64_t n = e->hsize, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && less(&e->heap[c + 1], &e->heap[c]))
            c++;
        if (!less(&e->heap[c], &last))
            break;
        e->heap[i] = e->heap[c];
        i = c;
    }
    e->heap[i] = last;
    return top;
}

/* -- state transitions ---------------------------------------------------- */

/* occupied -> burning, schedule the site's propagation clock */
static int ignite(engine *e, int64_t site, double t, int64_t source)
{
    e->states[site] = BURNING;
    e->burning_count++;
    if (site < e->burn_lo)
        e->burn_lo = site;
    if (site > e->burn_hi)
        e->burn_hi = site;
    if (push(e, t + exp_draw(e, PURPOSE_PROPAGATE, site, e->pi), site, KIND_PROPAGATE))
        return -1;
    if (!e->track)
        return 0;
    if (source == e->right_front && site == source + 1) {
        e->right_front = site;
        return log_row(e, LOG_FRONT_PLUS, t, 0.0, 0.0);
    }
    if (source == e->left_front && site == source - 1) {
        e->left_front = site;
        return log_row(e, LOG_FRONT_MINUS, t, 0.0, 0.0);
    }
    if (source >= 0)
        e->spark_open[site] = t;
    return 0;
}

/* A burning site's own clock: it turns vacant and ignites its neighbors. */
static int extinguish(engine *e, int64_t site, double t)
{
    if (e->track) {
        if (!isnan(e->spark_open[site])) {
            if (log_row(e, LOG_SPARK, (double)site, e->spark_open[site], t))
                return -1;
            e->spark_open[site] = NAN;
        }
        /* a front site's extinguish closes the vacancy window of the site
         * behind it and opens its own */
        if (site == e->right_front) {
            if (e->rw_site >= 0 && log_row(e, LOG_OMEGA_RIGHT, e->rw_clean, 0.0, 0.0))
                return -1;
            e->rw_site = site;
            e->rw_clean = 1;
        }
        if (site == e->left_front) {
            /* the origin's window is counted once, on the right side */
            if (e->lw_site >= 0 && e->lw_site != e->origin
                && log_row(e, LOG_OMEGA_LEFT, e->lw_clean, 0.0, 0.0))
                return -1;
            e->lw_site = site;
            e->lw_clean = 1;
        }
    }
    e->states[site] = VACANT;
    e->burning_count--;
    double s = e->seed_last[site] + exp_draw(e, PURPOSE_SEED, site, 1.0);
    while (s < t) {
        e->seed_rings_skipped++;
        s = s + exp_draw(e, PURPOSE_SEED, site, 1.0);
    }
    if (push(e, s, site, KIND_SEED))
        return -1;
    if (site > 0 && e->states[site - 1] == OCCUPIED && ignite(e, site - 1, t, site))
        return -1;
    if (site + 1 < e->n_sites && e->states[site + 1] == OCCUPIED
        && ignite(e, site + 1, t, site))
        return -1;
    return 0;
}

static int step(engine *e)
{
    event ev = pop(e);
    double t = ev.t;
    int64_t site = (int64_t)(ev.key >> 2);
    int kind = (int)(ev.key & 3);
    e->now = t;
    e->event_count++;
    if (kind == KIND_SEED) { /* only a vacant site has a seed clock in the heap */
        e->states[site] = OCCUPIED;
        e->seed_last[site] = t;
        if (e->track) {
            if (site == e->rw_site)
                e->rw_clean = 0;
            if (site == e->lw_site)
                e->lw_clean = 0;
        }
        return 0;
    }
    if (kind == KIND_MATCH) {
        int effective = e->states[site] == OCCUPIED;
        if (effective && ignite(e, site, t, -1))
            return -1;
        if (e->match_rate > 0.0
            && push(e, t + exp_draw(e, PURPOSE_MATCH, site, e->match_rate), site, KIND_MATCH))
            return -1;
        return log_row(e, LOG_MATCH, t, (double)site, effective);
    }
    return extinguish(e, site, t);
}

/* -- exported API --------------------------------------------------------- */

FL_API void fl_free(engine *e)
{
    if (e == NULL)
        return;
    free(e->states);
    free(e->seed_last);
    for (int p = 0; p < 4; p++)
        free(e->draws[p]);
    free(e->heap);
    free(e->spark_open);
    for (int g = 0; g < N_LOGS; g++)
        free(e->logs[g].v);
    free(e);
}

/* Arguments are validated by the caller (fireline._engine_py.check_engine_args).
 * Returns NULL when an allocation fails. */
FL_API engine *fl_new(int64_t n_sites, double pi, double match_rate, uint64_t master_seed,
                      uint64_t stream_id, int initial_occupied, int64_t ignite_site,
                      int64_t n_injected, const double *injected_t,
                      const int64_t *injected_site)
{
    engine *e = calloc(1, sizeof *e);
    if (e == NULL)
        return NULL;
    e->n_sites = n_sites;
    e->pi = pi;
    e->match_rate = match_rate;
    e->key = philox_schedule(master_seed, stream_id);
    e->burn_lo = n_sites;
    e->burn_hi = -1;
    e->track = ignite_site >= 0;
    e->origin = e->right_front = e->left_front = ignite_site;
    e->rw_site = e->lw_site = -1;
    e->rw_clean = e->lw_clean = 1;

    size_t n = (size_t)n_sites;
    e->states = malloc(n);
    e->seed_last = calloc(n, sizeof(double));
    for (int p = PURPOSE_SEED; p <= PURPOSE_PROPAGATE; p++)
        e->draws[p] = calloc(n, sizeof(uint64_t));
    if (e->track)
        e->spark_open = malloc(n * sizeof(double));
    if (e->states == NULL || e->seed_last == NULL || e->draws[PURPOSE_SEED] == NULL
        || e->draws[PURPOSE_MATCH] == NULL || e->draws[PURPOSE_PROPAGATE] == NULL
        || (e->track && e->spark_open == NULL))
        goto fail;
    memset(e->states, initial_occupied ? OCCUPIED : VACANT, n);
    for (int64_t i = 0; e->track && i < n_sites; i++)
        e->spark_open[i] = NAN;

    for (int64_t i = 0; !initial_occupied && i < n_sites; i++)
        if (push(e, exp_draw(e, PURPOSE_SEED, i, 1.0), i, KIND_SEED))
            goto fail;
    for (int64_t i = 0; match_rate > 0.0 && i < n_sites; i++)
        if (push(e, exp_draw(e, PURPOSE_MATCH, i, match_rate), i, KIND_MATCH))
            goto fail;
    for (int64_t j = 0; j < n_injected; j++)
        if (push(e, injected_t[j], injected_site[j], KIND_MATCH))
            goto fail;
    if (ignite_site >= 0 && ignite(e, ignite_site, 0.0, -1))
        goto fail;
    return e;
fail:
    fl_free(e);
    return NULL;
}

/* Process every event with time <= t_limit; now then becomes t_limit.  The
 * only way to drive the engine.  Returns 0; -2, with nothing processed, when
 * t_limit fails now <= t_limit < inf (NaN included); or -1 when an
 * allocation fails (the engine is then unusable). */
FL_API int fl_run(engine *e, double t_limit)
{
    if (!(e->now <= t_limit && t_limit < INFINITY))
        return -2;
    while (e->hsize > 0 && e->heap[0].t <= t_limit)
        if (step(e) != 0)
            return -1;
    e->now = t_limit;
    return 0;
}

/* -- observables ---------------------------------------------------------- */

static const uint64_t ALL_OCCUPIED = 0x0101010101010101u; /* eight OCCUPIED bytes */

static uint64_t load8(const uint8_t *p)
{
    uint64_t w;
    memcpy(&w, p, sizeof w);
    return w;
}

/* The occupied run through idx, or -1, -1, and the occupied count of the
 * window of half-width m around idx, clipped to the box.  Returns 0, or -2
 * with out untouched when idx is outside the box or m < 0. */
FL_API int fl_observe(const engine *e, int64_t idx, int64_t m, int64_t out[3])
{
    const uint8_t *s = e->states;
    int64_t n = e->n_sites;
    if (!(0 <= idx && idx < n && m >= 0))
        return -2;
    out[0] = out[1] = -1;
    if (s[idx] == OCCUPIED) {
        int64_t lo = idx, hi = idx + 1;
        while (lo >= 8 && load8(s + lo - 8) == ALL_OCCUPIED)
            lo -= 8;
        while (lo > 0 && s[lo - 1] == OCCUPIED)
            lo--;
        while (n - hi >= 8 && load8(s + hi) == ALL_OCCUPIED)
            hi += 8;
        while (hi < n && s[hi] == OCCUPIED)
            hi++;
        out[0] = lo;
        out[1] = hi - 1;
    }
    int64_t i = idx - m > 0 ? idx - m : 0;
    int64_t end = m < n - 1 - idx ? idx + m + 1 : n; /* no overflow for a huge m */
    int64_t count = 0;
    /* OCCUPIED (1) is the one state with bit 0 set; the multiply sums the
     * eight 0/1 bits, one per byte, into the top byte */
    for (; end - i >= 8; i += 8)
        count += (int64_t)(((load8(s + i) & ALL_OCCUPIED) * ALL_OCCUPIED) >> 56);
    for (; i < end; i++)
        count += s[i] == OCCUPIED;
    out[2] = count;
    return 0;
}

FL_API const uint8_t *fl_states(const engine *e)
{
    return e->states;
}

FL_API const double *fl_seed_last(const engine *e)
{
    return e->seed_last;
}

FL_API const double *fl_log(const engine *e, int which, int64_t *rows)
{
    *rows = e->logs[which].rows;
    return e->logs[which].v;
}

/* -- Poisson marks -------------------------------------------------------- */

/* One mark, (x, t): a row of fireline.rng.MarkSet's (n, 2) array. */
typedef struct {
    double x, t;
} mark_row;

/* Stable merge sort of n rows by t, ping-ponging between rows and tmp;
 * the sorted rows end in rows. */
static void sort_by_t(mark_row *rows, mark_row *tmp, int64_t n)
{
    mark_row *src = rows, *dst = tmp;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = mid + width < n ? mid + width : n;
            int64_t i = lo, j = mid, k = lo;
            /* the right run's row goes first only when strictly earlier */
            while (i < mid && j < hi)
                dst[k++] = src[j].t < src[i].t ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        mark_row *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != rows)
        memcpy(rows, src, (size_t)n * sizeof *rows);
}

/* Unit-intensity Poisson marks on [x_lo, x_hi] x [t_lo, t_hi], cut into
 * n_strips equal time strips, from the stream words (purpose 0, site 0) at
 * indices first, first + 1, ...: the draws of fireline.rng.poisson_rectangle.
 * Per strip, the count is the number of running products of (w >> 11) + 1
 * uniforms above exp(-mean), and 2 * count coordinate words follow, x and t
 * interleaved.  The rows of all strips are then sorted stably by t.
 * *used gets the words read.  Returns the mark count; the rows are written
 * only when it is at most cap, and never past cap rows, so a caller whose
 * buffer was too small calls again with the count.  Returns -1 when the
 * sort's scratch cannot be allocated. */
FL_API int64_t fl_poisson_rectangle(uint64_t master_seed, uint64_t stream_id, uint64_t first,
                                    double x_lo, double x_hi, double t_lo, double t_hi,
                                    int64_t n_strips, int64_t cap, mark_row *out,
                                    uint64_t *used)
{
    philox_key key = philox_schedule(master_seed, stream_id);
    uint64_t k = first;
    double width = x_hi - x_lo, dt = (t_hi - t_lo) / (double)n_strips;
    int64_t n = 0;
    for (int64_t j = 0; j < n_strips; j++) {
        double lo = t_lo + (double)j * dt, hi = t_lo + (double)(j + 1) * dt;
        double threshold = exp(-(width * (hi - lo)));
        int64_t count = 0;
        double prod = (double)((philox_word0(&key, 0, 0, k++, 0) >> 11) + 1) * INV53;
        while (prod > threshold) {
            count++;
            prod *= (double)((philox_word0(&key, 0, 0, k++, 0) >> 11) + 1) * INV53;
        }
        if (n + count <= cap)
            for (int64_t i = n; i < n + count; i++) {
                uint64_t wx = philox_word0(&key, 0, 0, k++, 0);
                uint64_t wt = philox_word0(&key, 0, 0, k++, 0);
                out[i].x = x_lo + width * ((double)(wx >> 11) * INV53);
                out[i].t = lo + (hi - lo) * ((double)(wt >> 11) * INV53);
            }
        else
            k += 2 * (uint64_t)count;
        n += count;
    }
    *used = k - first;
    if (n > cap || n < 2)
        return n;
    mark_row *tmp = malloc((size_t)n * sizeof *tmp);
    if (!tmp)
        return -1;
    sort_by_t(out, tmp, n);
    free(tmp);
    return n;
}

/* -- LFFP(p) limit engine ------------------------------------------------- */

/* Queue kinds, fireline.limits.EVENT_*: ties in time order by kind. */
enum { LK_EXPIRY, LK_MEET, LK_STOP, LK_MARK };

/* Event causes, as fireline.limits._EVENT_CODES and _FRONT_CODES read them.
 * LC_SWEEP is a macroscopic mark at p = 0 (it logs the swept interval).  A
 * front row holds the cause of its death, LC_ALIVE while it lives. */
enum {
    LC_ALIVE, LC_MACRO, LC_SWEEP, LC_MICRO, LC_EXTENDED, LC_ABSORBED,
    LC_EXPIRY, LC_MEET, LC_BARRIER, LC_WAKE, LC_EDGE
};

typedef struct {
    double t, cause, x, a, b; /* a, b: (z,) or the swept (lo, hi), by cause */
} lim_event;

typedef struct {
    double x0, t0, dir, t_end, x_end, cause;
} lim_front;

typedef struct {
    double x, create, expiry, logged;
} lim_barrier;

typedef struct {
    double t, lo, hi;
} lim_sweep;

/* A queued candidate, keyed (t, kind, x, rank, i, j, k) as the Python loop's
 * tuples.  (i, j, k) name its participants and give the rescan's list order
 * for equal keys:
 *   mark    (mark index, 0, 0)
 *   expiry  (barrier index, 0, 0)
 *   stop    (front index, 0 edge | 1 barrier | 2 wake, barrier or front index)
 *   meet    (rightward front index, leftward front index, 0) */
typedef struct {
    double t, x;
    int64_t kind, rank, i, j, k;
} lim_entry;

typedef struct {
    double p, A, T, now;
    const mark_row *marks;
    int64_t n_marks;
    lim_event *events;
    lim_front *fronts;
    lim_barrier *barriers;
    lim_sweep *sweeps;
    int64_t n_events, n_fronts, n_barriers, n_sweeps;
    lim_entry *heap;
    int64_t hsize, hcap;
    int64_t queued, stale, rekeyed, peak, tests;
} lim_run;

/* Python's max(a, b) and min(a, b): the first argument unless the second is
 * strictly greater (smaller); signed zeros and NaN kept as Python keeps them. */
static double py_max(double a, double b)
{
    return b > a ? b : a;
}

static double py_min(double a, double b)
{
    return b < a ? b : a;
}

/* The comparison of the Python loop's key tuples. */
static int lim_less(const lim_entry *a, const lim_entry *b)
{
    if (a->t != b->t)
        return a->t < b->t;
    if (a->kind != b->kind)
        return a->kind < b->kind;
    if (a->x != b->x)
        return a->x < b->x;
    if (a->rank != b->rank)
        return a->rank < b->rank;
    if (a->i != b->i)
        return a->i < b->i;
    if (a->j != b->j)
        return a->j < b->j;
    return a->k < b->k;
}

/* heapq's _siftdown and _siftup, so the heap holds what heapq would. */
static void lim_siftdown(lim_entry *heap, int64_t start, int64_t pos)
{
    lim_entry item = heap[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (!lim_less(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void lim_siftup(lim_entry *heap, int64_t n, int64_t pos)
{
    lim_entry item = heap[pos];
    int64_t start = pos, child = 2 * pos + 1;
    while (child < n) {
        if (child + 1 < n && !lim_less(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    lim_siftdown(heap, start, pos);
}

static void lim_pop(lim_run *r)
{
    lim_entry last = r->heap[--r->hsize];
    if (r->hsize > 0) {
        r->heap[0] = last;
        lim_siftup(r->heap, r->hsize, 0);
    }
}

/* Queue a candidate; keys only grow, so one past the horizon never fires. */
static int lim_push(lim_run *r, double t, int64_t kind, double x, int64_t rank, int64_t i,
                    int64_t j, int64_t k)
{
    if (!(t <= r->T))
        return 0;
    if (r->hsize == r->hcap && grow((void **)&r->heap, &r->hcap, sizeof(lim_entry)))
        return -1;
    lim_entry e = {t, x, kind, rank, i, j, k};
    r->heap[r->hsize] = e;
    lim_siftdown(r->heap, 0, r->hsize++);
    r->queued++;
    return 0;
}

static int alive(const lim_front *f)
{
    return f->cause == LC_ALIVE;
}

static double pos_now(const lim_run *r, const lim_front *f)
{
    return f->x0 + f->dir * (r->now - f->t0) / r->p;
}

/* The candidate tests of the Python loop at the current time: each returns
 * 1 and sets *t to the time the candidate would fire, or returns 0 when it
 * is not (and never again will be) one. */

static int barrier_time(const lim_run *r, const lim_front *f, const lim_barrier *b, double *t)
{
    /* a front standing on the barrier point has not passed it */
    double pos = pos_now(r, f);
    if (!(f->dir > 0 ? b->x >= pos : b->x <= pos))
        return 0;
    double v = f->t0 + r->p * fabs(b->x - f->x0);
    if (b->create < v && v < b->expiry) {
        *t = py_max(v, r->now);
        return 1;
    }
    return 0;
}

static int wake_time(const lim_run *r, const lim_front *f, const lim_front *g, double *t)
{
    double pos = pos_now(r, f);
    if (g->dir == f->dir) {
        /* a same-direction wake, entered at its origin edge */
        if (!(f->dir > 0 ? g->x0 > pos : g->x0 < pos))
            return 0;
        double v = f->t0 + r->p * fabs(g->x0 - f->x0);
        if (v - 1.0 < g->t0 && g->t0 < v) {
            *t = py_max(v, r->now);
            return 1;
        }
        return 0;
    }
    /* a dead opposing wake, entered at its death edge, unless it swept only
     * its origin */
    if (alive(g) || g->x_end == g->x0)
        return 0;
    double xd = g->x_end;
    if (!(f->dir > 0 ? xd >= pos : xd <= pos))
        return 0;
    double v = f->t0 + r->p * fabs(xd - f->x0);
    if (g->t_end > v - 1.0) {
        *t = py_max(v, r->now);
        return 1;
    }
    return 0;
}

/* f moves right, g left, and they are not twins */
static int meet_time(const lim_run *r, const lim_front *f, const lim_front *g, double *t)
{
    if (pos_now(r, g) < pos_now(r, f))
        return 0;
    *t = py_max((r->p * (g->x0 - f->x0) + f->t0 + g->t0) / 2.0, r->now);
    return 1;
}

/* When front f crossed x, if it did so by time t (LimitStateP._crossing). */
static int crossing(const lim_run *r, const lim_front *f, double x, double t, double *ct)
{
    if (f->dir > 0) {
        if (x < f->x0)
            return 0;
        *ct = f->t0 + r->p * (x - f->x0);
    } else {
        if (x > f->x0)
            return 0;
        *ct = f->t0 + r->p * (f->x0 - x);
    }
    if (*ct > t)
        return 0;
    if (!alive(f)) {
        if (f->cause == LC_BARRIER || f->cause == LC_WAKE) {
            /* the death point of a blocked front is not crossed */
            if ((f->dir > 0 && x >= f->x_end) || (f->dir < 0 && x <= f->x_end))
                return 0;
        } else if ((f->dir > 0 && x > f->x_end) || (f->dir < 0 && x < f->x_end)) {
            return 0;
        }
    }
    return 1;
}

static int add_barrier_stop(lim_run *r, int64_t i, int64_t bi)
{
    double t;
    const lim_barrier *b = &r->barriers[bi];
    if (!barrier_time(r, &r->fronts[i], b, &t))
        return 0;
    return lim_push(r, t, LK_STOP, b->x, 0, i, 1, bi);
}

static int add_wake_stop(lim_run *r, int64_t i, int64_t gi)
{
    double t;
    const lim_front *f = &r->fronts[i], *g = &r->fronts[gi];
    if (!wake_time(r, f, g, &t))
        return 0;
    return lim_push(r, t, LK_STOP, g->dir == f->dir ? g->x0 : g->x_end, 1, i, 2, gi);
}

/* A new front's candidates: its edge; every barrier not yet expired; every
 * front before it in the row order, so the first front of a pair does not
 * see its twin (the Python loop's add_front). */
static int add_front(lim_run *r, int64_t i)
{
    const lim_front *f = &r->fronts[i];
    double p = r->p, now = r->now, d = f->dir, x0 = f->x0;
    if (d > 0 ? lim_push(r, f->t0 + p * (r->A - x0), LK_STOP, r->A, 2, i, 0, 0)
              : lim_push(r, f->t0 + p * (x0 + r->A), LK_STOP, -r->A, 2, i, 0, 0))
        return -1;
    for (int64_t bi = 0; bi < r->n_barriers; bi++) {
        if (r->barriers[bi].expiry > now) {
            r->tests++;
            if (add_barrier_stop(r, i, bi))
                return -1;
        }
    }
    for (int64_t gi = 0; gi < i; gi++) {
        const lim_front *g = &r->fronts[gi];
        if (g->dir == d) {
            if (g->t0 > now - 1.0) {
                r->tests++;
                if (add_wake_stop(r, i, gi))
                    return -1;
            }
            if (alive(g)) {
                r->tests++;
                if (add_wake_stop(r, gi, i))
                    return -1;
            }
        } else if (!alive(g)) {
            if (g->t_end > now - 1.0) {
                r->tests++;
                if (add_wake_stop(r, i, gi))
                    return -1;
            }
        } else if (g->x0 != x0 || g->t0 != f->t0) { /* twins never meet */
            r->tests++;
            int64_t ri = d > 0 ? i : gi, li = d > 0 ? gi : i;
            const lim_front *rf = &r->fronts[ri], *lf = &r->fronts[li];
            double t;
            if (meet_time(r, rf, lf, &t)) {
                double tstar = (p * (lf->x0 - rf->x0) + rf->t0 + lf->t0) / 2.0;
                double xm = rf->x0 + (tstar - rf->t0) / p;
                if (lim_push(r, t, LK_MEET, xm, 0, ri, li, 0))
                    return -1;
            }
        }
    }
    return 0;
}

/* A front that died now: every live opposing front may enter its wake. */
static int add_death(lim_run *r, int64_t gi)
{
    double dir = r->fronts[gi].dir;
    for (int64_t i = 0; i < r->n_fronts; i++) {
        if (alive(&r->fronts[i]) && r->fronts[i].dir != dir) {
            r->tests++;
            if (add_wake_stop(r, i, gi))
                return -1;
        }
    }
    return 0;
}

/* A new barrier: its expiry, and every live front, which may reach it
 * before then. */
static int add_barrier(lim_run *r, int64_t bi)
{
    const lim_barrier *b = &r->barriers[bi];
    if (b->expiry <= b->create)
        return 0; /* it is never active */
    if (lim_push(r, b->expiry, LK_EXPIRY, b->x, 0, bi, 0, 0))
        return -1;
    for (int64_t i = 0; i < r->n_fronts; i++) {
        if (alive(&r->fronts[i])) {
            r->tests++;
            if (add_barrier_stop(r, i, bi))
                return -1;
        }
    }
    return 0;
}

/* The scans of LimitStateP over every row so far, in row order: the mark
 * handler reads them at (x, now), fl_limit_query at its points. */

/* The last reset at x by t: the latest front crossing, then the latest
 * sweep over x, or 0.0. */
static double query_reset(const lim_run *r, double x, double t)
{
    double out = 0.0, ct;
    for (int64_t i = 0; i < r->n_fronts; i++)
        if (crossing(r, &r->fronts[i], x, t, &ct) && ct > out)
            out = ct;
    for (int64_t i = 0; i < r->n_sweeps; i++) {
        const lim_sweep *s = &r->sweeps[i];
        if (s->lo < x && x < s->hi && out < s->t && s->t <= t)
            out = s->t;
    }
    return out;
}

/* The barrier active at x at t with the largest expiry (the first in row
 * order on a tie), or NULL. */
static lim_barrier *query_barrier(const lim_run *r, double x, double t)
{
    lim_barrier *out = NULL;
    for (int64_t i = 0; i < r->n_barriers; i++) {
        lim_barrier *b = &r->barriers[i];
        if (b->x == x && b->create <= t && t < b->expiry
            && (out == NULL || b->expiry > out->expiry))
            out = b;
    }
    return out;
}

/* One blocker (blo, bhi) of the cluster around x: it bounds the interval
 * from the left when bhi <= x, else from the right when blo >= x. */
static void between_step(double x, double blo, double bhi, double *lo, double *hi)
{
    if (bhi <= x) {
        if (bhi > *lo)
            *lo = bhi;
    } else if (blo >= x) {
        if (blo < *hi)
            *hi = blo;
    }
}

/* The cluster around x at t from the active barriers, then the fronts'
 * unhealed wakes, then the sweeps of the last time unit. */
static void query_cluster(const lim_run *r, double x, double t, double *lo_out,
                          double *hi_out)
{
    double p = r->p, unit_ago = t - 1.0, lo = -r->A, hi = r->A;
    for (int64_t i = 0; i < r->n_barriers; i++) {
        const lim_barrier *b = &r->barriers[i];
        if (b->create <= t && t < b->expiry)
            between_step(x, b->x, b->x, &lo, &hi);
    }
    for (int64_t i = 0; i < r->n_fronts; i++) {
        const lim_front *f = &r->fronts[i];
        double t0 = f->t0, x0 = f->x0;
        if (t0 > t)
            continue;
        /* the farthest point f has reached by t, and the travel budget whose
         * crossings have healed; a wake is a blocker until it all heals */
        double cap = x0 + f->dir * ((f->t_end < t ? f->t_end : t) - t0) / p;
        double healed = unit_ago - t0, spent = healed > 0.0 ? healed : 0.0;
        if (f->dir > 0) {
            if (!(healed >= p * (cap - x0)))
                between_step(x, x0 + spent / p, cap, &lo, &hi);
        } else if (!(healed >= p * (x0 - cap))) {
            between_step(x, cap, x0 - spent / p, &lo, &hi);
        }
    }
    for (int64_t i = 0; i < r->n_sweeps; i++) {
        const lim_sweep *s = &r->sweeps[i];
        if (unit_ago < s->t && s->t <= t)
            between_step(x, s->lo, s->hi, &lo, &hi);
    }
    *lo_out = lo;
    *hi_out = hi;
}

static void log_event(lim_run *r, double t, int cause, double x, double a, double b)
{
    lim_event *e = &r->events[r->n_events++];
    e->t = t;
    e->cause = cause;
    e->x = x;
    e->a = a;
    e->b = b;
}

static void kill_front(lim_front *f, double t, double x, int cause)
{
    f->t_end = t;
    f->x_end = x;
    f->cause = cause;
}

static int add_front_pair(lim_run *r, double x, double t)
{
    for (int s = 0; s < 2; s++) {
        lim_front f = {x, t, s == 0 ? 1.0 : -1.0, INFINITY, NAN, LC_ALIVE};
        r->fronts[r->n_fronts++] = f;
    }
    if (add_front(r, r->n_fronts - 2))
        return -1;
    return add_front(r, r->n_fronts - 1);
}

static int add_mark_barrier(lim_run *r, double x, double t, double expiry)
{
    lim_barrier b = {x, t, expiry, 0.0};
    r->barriers[r->n_barriers++] = b;
    return add_barrier(r, r->n_barriers - 1);
}

static int mark_event(lim_run *r, int64_t i)
{
    double x = r->marks[i].x, t = r->marks[i].t, now = r->now;
    if (i + 1 < r->n_marks
        && lim_push(r, r->marks[i + 1].t, LK_MARK, r->marks[i + 1].x, 0, i + 1, 0, 0))
        return -1;
    double z = py_min(t - query_reset(r, x, now), 1.0);
    lim_barrier *active = query_barrier(r, x, now);
    if (z >= 1.0 && active == NULL) {
        if (r->p > 0.0) {
            log_event(r, t, LC_MACRO, x, 0.0, 0.0);
            return add_front_pair(r, x, t);
        }
        double lo, hi;
        query_cluster(r, x, now, &lo, &hi);
        lim_sweep s = {t, lo, hi};
        r->sweeps[r->n_sweeps++] = s;
        log_event(r, t, LC_SWEEP, x, lo, hi);
    } else if (z < 1.0) {
        if (active != NULL) {
            /* stack on the active barrier: the new segment carries the
             * combined height, the old one loses its own expiry event */
            active->logged = 1.0;
            log_event(r, t, LC_EXTENDED, x, z, 0.0);
            return add_mark_barrier(r, x, t, active->expiry + z);
        }
        log_event(r, t, LC_MICRO, x, z, 0.0);
        return add_mark_barrier(r, x, t, t + z);
    } else {
        log_event(r, t, LC_ABSORBED, x, 0.0, 0.0);
    }
    return 0;
}

/* Re-derive the queue head at the current time: 1 with its time in *t, or 0
 * when it is no longer a candidate. */
static int head_time(const lim_run *r, const lim_entry *e, double *t)
{
    *t = e->t;
    switch (e->kind) {
    case LK_STOP: {
        const lim_front *a = &r->fronts[e->i];
        if (!alive(a))
            return 0;
        if (e->j == 1)
            return barrier_time(r, a, &r->barriers[e->k], t);
        if (e->j == 2)
            return wake_time(r, a, &r->fronts[e->k], t);
        return 1;
    }
    case LK_MEET: {
        const lim_front *a = &r->fronts[e->i], *b = &r->fronts[e->j];
        return alive(a) && alive(b) && meet_time(r, a, b, t);
    }
    case LK_EXPIRY:
        return r->barriers[e->i].logged == 0.0;
    default:
        return 1;
    }
}

static int lim_loop(lim_run *r)
{
    if (r->n_marks > 0 && lim_push(r, r->marks[0].t, LK_MARK, r->marks[0].x, 0, 0, 0, 0))
        return -1;
    r->peak = r->hsize;
    while (r->hsize > 0) {
        lim_entry e = r->heap[0];
        double t;
        if (!head_time(r, &e, &t)) {
            lim_pop(r);
            r->stale++;
            continue;
        }
        if (t != e.t) {
            r->heap[0].t = t;
            lim_siftup(r->heap, r->hsize, 0);
            r->rekeyed++;
            continue;
        }
        if (t > r->T)
            break;
        lim_pop(r);
        r->now = t;
        if (e.kind == LK_MARK) {
            if (mark_event(r, e.i))
                return -1;
        } else if (e.kind == LK_EXPIRY) {
            r->barriers[e.i].logged = 1.0;
            log_event(r, t, LC_EXPIRY, e.x, 0.0, 0.0);
        } else if (e.kind == LK_MEET) {
            kill_front(&r->fronts[e.i], t, e.x, LC_MEET);
            kill_front(&r->fronts[e.j], t, e.x, LC_MEET);
            log_event(r, t, LC_MEET, e.x, 0.0, 0.0);
            if (add_death(r, e.i) || add_death(r, e.j))
                return -1;
        } else {
            kill_front(&r->fronts[e.i], t, e.x, LC_BARRIER + (int)e.rank);
            log_event(r, t, LC_BARRIER + (int)e.rank, e.x, 0.0, 0.0);
            if (add_death(r, e.i))
                return -1;
        }
        if (r->hsize > r->peak)
            r->peak = r->hsize;
    }
    return 0;
}

/* The row blocks of a buffer of 39n doubles for n marks: 4n events, 2n
 * fronts, n barriers and n sweeps. */
static void lim_blocks(lim_run *r, double *rows, int64_t n)
{
    r->events = (lim_event *)rows;
    r->fronts = (lim_front *)(rows + 20 * n);
    r->barriers = (lim_barrier *)(rows + 32 * n);
    r->sweeps = (lim_sweep *)(rows + 36 * n);
}

/* LFFP(p) on [-A, A] x [0, T] from n validated marks, sorted by time.  See
 * the header comment for the buffers and counts.  Returns 0, or -1 when an
 * allocation fails. */
FL_API int fl_limit_run(double p, double A, double T, int64_t n, const mark_row *marks,
                        double *rows, int64_t counts[9])
{
    lim_run r;
    memset(&r, 0, sizeof r);
    r.p = p;
    r.A = A;
    r.T = T;
    r.marks = marks;
    r.n_marks = n;
    lim_blocks(&r, rows, n);
    int status = lim_loop(&r);
    int64_t out[9] = {r.n_events, r.n_fronts, r.n_barriers, r.n_sweeps,
                      r.queued, r.stale, r.rekeyed, r.peak, r.tests};
    memcpy(counts, out, sizeof out);
    free(r.heap);
    return status;
}

/* -- LFFP(p) queries ------------------------------------------------------ */

/* LimitStateP's answers at the m points (x, ts[i]) of the run that
 * fl_limit_run wrote into rows for n marks, whose first four counts are its
 * row counts.  out[5i .. 5i + 4] gets the last reset, H, the macroscopic
 * flag (1.0 when Z = 1 and no barrier stands at x, else 0.0) and the
 * cluster bounds, (x, x) when the flag is 0.0. */
FL_API void fl_limit_query(double p, double A, int64_t n, const double *rows,
                           const int64_t *counts, double x, int64_t m, const double *ts,
                           double *out)
{
    lim_run r;
    memset(&r, 0, sizeof r);
    r.p = p;
    r.A = A;
    lim_blocks(&r, (double *)rows, n); /* read only */
    r.n_fronts = counts[1];
    r.n_barriers = counts[2];
    r.n_sweeps = counts[3];
    for (int64_t i = 0; i < m; i++, out += 5) {
        double t = ts[i];
        out[0] = query_reset(&r, x, t);
        const lim_barrier *b = query_barrier(&r, x, t);
        out[1] = b == NULL ? 0.0 : b->expiry - t; /* H, what is left of it */
        out[2] = !(t - out[0] < 1.0 || out[1] > 0.0);
        if (out[2] != 0.0) {
            query_cluster(&r, x, t, &out[3], &out[4]);
        } else {
            out[3] = x;
            out[4] = x;
        }
    }
}

/* -- LFFP(p) tail runs ---------------------------------------------------- */

/* The lengths |D(0, T)| of fireline.harness.limit_tail_experiment's runs on
 * the streams (seed, first + k) for k < count, into out[k].  A run is three
 * of the exports above: fl_poisson_rectangle on [-A, A] x [0, T] (in the strips
 * of fireline.rng.poisson_rectangle, from stream word 0), fl_limit_run on its
 * marks and fl_limit_query at (0, T), whose hi - lo it writes, or 0.0 when
 * the flag is off.  One marks buffer and one rows buffer serve every run; a
 * run whose count outgrows them grows both and draws its marks again.  A run
 * whose last mark lies past T (the last strip's end can round above it) is
 * not run: out[k] gets NaN, for the caller to run it through
 * fireline.limits.simulate_alffp_p, which refuses such marks.  The arguments
 * are validated by the caller, the area 2AT below the memory cap included.
 * Returns 0, or -1 when an allocation fails. */
FL_API int fl_tail_runs(double p, double A, double T, uint64_t seed, uint64_t first,
                        int64_t count, double *out)
{
    double area = 2.0 * A * T; /* poisson_rectangle's (x_hi - x_lo) * (t_hi - t_lo) */
    double strips = ceil(area / 64.0); /* strips of area at most 64 */
    int64_t n_strips = strips > 1.0 ? (int64_t)strips : 1;
    int64_t cap = (int64_t)area + 1, counts[9]; /* the mean count, rounded up */
    mark_row *marks = malloc((size_t)cap * sizeof *marks);
    double *rows = malloc((size_t)cap * 39 * sizeof *rows);
    int status = marks && rows ? 0 : -1;
    for (int64_t k = 0; k < count && status == 0; k++) {
        uint64_t stream = first + (uint64_t)k, used;
        int64_t n = fl_poisson_rectangle(seed, stream, 0, -A, A, 0.0, T, n_strips, cap, marks,
                                         &used);
        if (n > cap) {
            mark_row *more_marks = realloc(marks, (size_t)n * sizeof *marks);
            if (more_marks != NULL)
                marks = more_marks;
            double *more_rows = more_marks ? realloc(rows, (size_t)n * 39 * sizeof *rows) : NULL;
            if (more_rows == NULL) {
                status = -1;
                break;
            }
            rows = more_rows;
            cap = n;
            n = fl_poisson_rectangle(seed, stream, 0, -A, A, 0.0, T, n_strips, cap, marks,
                                     &used);
        }
        if (n > 0 && marks[n - 1].t > T) {
            out[k] = NAN;
            continue;
        }
        double answer[5];
        status = n < 0 ? -1 : fl_limit_run(p, A, T, n, marks, rows, counts);
        if (status == 0) {
            fl_limit_query(p, A, n, rows, counts, 0.0, 1, &T, answer);
            out[k] = answer[2] != 0.0 ? answer[4] - answer[3] : 0.0;
        }
    }
    free(marks);
    free(rows);
    return status;
}
