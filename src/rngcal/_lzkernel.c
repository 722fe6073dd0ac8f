/* The per-bit loops of rngcal.lz and rngcal.sources, compiled on first use
   (see lz._kernel).

   lz_extend transliterates the Python loop of lz._PrefixCosts.extend, which
   stays the fallback; tests/test_lz.py checks both against the two-pass
   references in tests/helpers.py, and lz.py says what the table holds.  A
   state is one 16-byte row of lz._PrefixCosts's table.  A transition is 0
   when absent (no transition enters the root), +t for a solid edge to state
   t and -t for a secondary one: s -> t is solid when the longest substring
   of t is that of s plus one bit, which is all the build asks of the state
   lengths.  Python sizes every array and checks that every state index fits
   in int32 before it calls; bits is the packed payload of the bits that
   follow those taken in, so stream bit k is read in place as BIT(bits, k - seen).
   The loop prices each prefix as it goes and folds tau_k's evidence in
   doubles, but for a log2 that cannot move the maximum (see report); it is
   built with -ffp-contract=off, so that no compiler fuses that arithmetic,
   and it calls libm's log2, as Python's math.log2 does.

   draw transliterates sources._draw, the Python loop of Source.bits, which
   stays the fallback; tests/test_sources.py checks both against numpy's
   Philox draws, and -ffp-contract=off keeps a drift's p0 + rate i unfused. */

#include <math.h>
#include <stdint.h>

typedef struct { int32_t next[2], link, first; } state_t;  /* one row of the table */

#define BIT(bits, k) ((bits)[(k) >> 3] >> (7 - ((k) & 7)) & 1)

/* lz._PrefixCosts: where the pass resumes, what it has priced, and tau_k's best evidence */
typedef struct {
    int64_t open, closed, total;  /* the open factor's start, the cost before it, of all bits */
    int64_t seen, scale;          /* bits taken in, each prefix priced; best at scale */
    double best;
    int64_t factors;              /* factors before the open one */
    int32_t last, states;         /* the automaton's state of all bits, and its rows in use */
    int32_t state, end;           /* the open factor's state and its source's end, -1 for a literal */
} walk_t;

static int width(int64_t v)  /* the bit length of v >= 1 */
{
    return 64 - __builtin_clzll((uint64_t)v);
}

/* The code length cost of the first m bits: into costs[m] unless costs is
   NULL, and into tau_k's maximum. */
static void report(walk_t *w, int64_t m, int64_t cost, int64_t *costs, int64_t *bar)
{
    if (costs)
        costs[m] = cost;
    int64_t low = cost < m ? cost : m;
    if (m - low <= *bar)
        return;
    double dm = (double)m;
    double e = dm - (1.0 + (double)low);
    e += log2(1.0 / (dm * (dm + 1.0)));
    if (e > w->best) {  /* the first maximum wins */
        w->best = e;
        w->scale = m;
    }
    /* The skip is exact: k (k + 1) > k^2 >= 4^(width(k) - 1), so log2(1 / (k
       (k + 1))) is below -2 (width(k) - 1) by about 1.44/k, over 1e-9 up to
       lz._MAX_BITS, far above the doubles' rounding.  So at k >= m with k -
       min(cost, k) <= bar, e <= k - 1 - min(cost, k) - 2 (width(k) - 1) <= best. */
    *bar = (int64_t)floor(w->best) + 2 * width(m) - 1;
}

/* The factor bits[i:m] as an lz.Lz77Pair: (p, m - i) for a copy whose first
   occurrence ends at end, from 1-based p, or (0, its bit) for a literal;
   only a walk's first extend writes pairs, so i indexes bits. */
static void record(int32_t *pair, const uint8_t *bits, int64_t i, int64_t m, int32_t end)
{
    pair[0] = end < 0 ? 0 : (int32_t)(end - (m - i) + 2);
    pair[1] = end < 0 ? BIT(bits, i) : (int32_t)(m - i);
}

/* lz._PrefixCosts.extend: take the n bits that follow the seen taken in into
   the suffix automaton sam and the greedy parse, pricing each prefix that
   ends in them.  A factor from i truncated at m costs lengths[width(p + 1)] +
   lengths[width(m - i)] for the 1-based source p = end - (m - i) + 2, 0 for a
   literal (end -1).  Where pairs is not NULL, the f-th factor goes to
   pairs[2f], pairs[2f + 1] as it closes, and the open one after the factors
   before it. */
void lz_extend(state_t *sam, const uint8_t *bits, int64_t n, const uint8_t *lengths,
               walk_t *w, int32_t *pairs, int64_t *costs)
{
    int64_t i = w->open, closed = w->closed, cost = w->total, bar = -1;  /* -1: score the first */
    int64_t factors = w->factors, seen = w->seen, stop = seen + n;
    int32_t last = w->last, states = w->states, st = w->state, end = w->end;
    for (int64_t k = seen; k < stop; k++) {
        int c = BIT(bits, k - seen);
        /* The automaton holds bits[0:k], so a transition on bit k means that
           bits[i:k + 1] occurs in bits[0:k]: a source for a longer factor. */
        int32_t t = sam[st].next[c];
        if (k > i && (end < 0 || t == 0)) {  /* a literal, or no source: bit k starts a factor */
            if (pairs)
                record(pairs + 2 * factors, bits, i, k, end);
            factors++;
            closed = cost;
            i = k;
            t = sam[0].next[c];
        }
        if (t < 0)
            t = -t;
        st = t;
        end = sam[t].first;  /* -1 at the root: a literal, p + 1 = 1, as long as its bit */
        cost = closed + lengths[width(end - (k + 1 - i) + 3)] + lengths[width(k + 1 - i)];
        report(w, k + 1, cost, costs, &bar);

        /* Take bit k in (Blumer et al. 1985).  A clone of st copies its
           transitions, and nothing after this changes either's, so st reads
           the next bit as its clone, which may now hold bits[i:k + 1], would. */
        int32_t cur = states++;
        sam[cur].first = (int32_t)k;
        sam[last].next[c] = cur;  /* last has no transitions yet; this one is solid */
        int32_t p = sam[last].link;
        while (p != -1 && sam[p].next[c] == 0) {
            sam[p].next[c] = -cur;
            p = sam[p].link;
        }
        if (p == -1) {
            sam[cur].link = 0;
        } else if (sam[p].next[c] > 0) {
            sam[cur].link = sam[p].next[c];
        } else {
            int32_t q = -sam[p].next[c], clone = states++;
            sam[clone] = sam[q];  /* a clone is shorter than q: its edges are all secondary */
            for (int b = 0; b < 2; b++)
                sam[clone].next[b] = sam[q].next[b] > 0 ? -sam[q].next[b] : sam[q].next[b];
            sam[p].next[c] = clone;
            p = sam[p].link;
            while (p != -1 && sam[p].next[c] == -q) {
                sam[p].next[c] = -clone;
                p = sam[p].link;
            }
            sam[q].link = clone;
            sam[cur].link = clone;
        }
        last = cur;
    }
    if (pairs)
        record(pairs + 2 * factors, bits, i, stop, end);
    w->open = i;
    w->closed = closed;
    w->total = cost;
    w->seen = stop;
    w->factors = factors;
    w->last = last;
    w->states = states;
    w->state = st;
    w->end = end;
}


/* Into c, the block that Philox4x64-10 (Salmon et al., SC 2011) keyed (seed, 0)
   makes of counter, as sources._uniforms does: numpy's Philox(key=seed). */
static void philox(uint64_t counter, uint64_t seed, uint64_t c[4])
{
    uint64_t k0 = seed, k1 = 0;
    c[0] = counter, c[1] = c[2] = c[3] = 0;
    for (int round = 0; round < 10; round++) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * c[0];
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * c[2];
        c[0] = (uint64_t)(p1 >> 64) ^ c[1] ^ k0;
        c[2] = (uint64_t)(p0 >> 64) ^ c[3] ^ k1;
        c[1] = (uint64_t)p1;
        c[3] = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
}

/* sources._draw: the first n >= 1 bits of a source into the zeroed out, packed
   MSB-first.  Bit i is u_i < p_i for the i-th uniform, (v >> 11) 2^-53 of the
   i-th Philox word v, where p_i is par[bit i - 1] for a Markov chain (kind 1;
   1/2 for bit 0), par[0] + par[1] i for a drift (kind 2), and
   otherwise par[s] for the segment s of i modulo the period, which ends at ends[s]. */
void draw(uint64_t seed, int64_t n, int kind, const double *par, const int64_t *ends,
          int64_t count, uint8_t *out)
{
    uint64_t block[4];
    int64_t seg = 0, at = 0;  /* i's segment and its position in the period */
    int bit = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i % 4 == 0)
            philox((uint64_t)(i / 4) + 1, seed, block);
        double u = (double)(block[i % 4] >> 11) * 0x1p-53, p;
        if (kind == 1) {
            p = i ? par[bit] : 0.5;
        } else if (kind == 2) {
            p = par[0] + par[1] * (double)i;  /* u < p reads p clipped to [0, 1] */
        } else {
            if (at == ends[seg] && ++seg == count)
                seg = at = 0;
            p = par[seg];
            at++;
        }
        bit = u < p;
        out[i >> 3] |= (uint8_t)(bit << (7 - (i & 7)));
    }
}
