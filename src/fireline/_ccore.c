/* Compiled event core, the C twin of fireline._engine_py.PyEngineCore, and
 * block draws for fireline.rng.
 *
 * Plain C99 with no Python C-API; fireline._clib loads it with ctypes.
 * Every clock draw is the same counter-based Philox4x64-10 word as
 * fireline.rng.draw_u64(master_seed, stream_id, purpose, site, index), the
 * event queue pops in the same (time, site, kind) order, and every state
 * transition and log row below mirrors one of the Python twin, so the two
 * cores produce the same realization bit for bit.  Any divergence is a
 * bug; the parity tests compare them.
 *
 * The ten Philox round keys of (master_seed, stream_id) are computed once,
 * into the engine (or once per fl_draw_block call), and the rounds are
 * written out; the last round computes only the half that word 0 needs.
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
 * fl_draw_block(seed, stream, purpose, site, first, n, out) serves the block
 * draws of fireline.rng: out[i] is draw_u64(seed, stream, purpose, site,
 * first + i), so a block equals the scalar draws word for word.
 *
 * Sizes and indices are 64-bit throughout, and so are the per-site draw
 * counters (Python's are unbounded).  The heap and the logs grow on demand;
 * the only failure is an allocation failure, reported as a nonzero status
 * or a NULL engine.
 */

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

/* n consecutive words of one (purpose, site) counter, starting at index
 * first. */
FL_API void fl_draw_block(uint64_t master_seed, uint64_t stream_id, uint64_t purpose,
                          uint64_t site, uint64_t first, int64_t n, uint64_t *out)
{
    philox_key key = philox_schedule(master_seed, stream_id);
    for (int64_t i = 0; i < n; i++)
        out[i] = philox_word0(&key, purpose, site, first + (uint64_t)i, 0);
}
