/* The two per-bit loops of rngcal.lz, compiled on first use (see lz._kernel).

   Each function transliterates a Python loop in lz.py, which stays the
   fallback; tests/test_lz.py checks both against the references in
   tests/helpers.py, and lz.py says what the table holds.  A state is one
   16-byte row of lz._SuffixAutomaton.table.  A transition is 0 when absent
   (no transition enters the root), +t for a solid edge to state t and -t
   for a secondary one: s -> t is solid when the longest substring of t is
   that of s plus one bit, which is all the build asks of the state
   lengths.  Python sizes every array and checks that every state index
   fits in int32 before it calls; the bits are a BitString's payload, packed
   MSB-first, and bit k is read in place as BIT(bits, k).
   Every walk prices each prefix as it goes and folds tau_k's evidence in
   doubles, but for a log2 that cannot move the maximum (see report); it is
   built with -ffp-contract=off, so that no compiler fuses that arithmetic,
   and it calls libm's log2, as Python's math.log2 does. */

#include <math.h>
#include <stdint.h>

typedef struct { int32_t next[2], link, first; } state_t;  /* one row of the table */

#define BIT(bits, k) ((bits)[(k) >> 3] >> (7 - ((k) & 7)) & 1)

/* lz._PrefixCosts: where a walk resumes, what it has priced, and tau_k's best evidence */
typedef struct {
    int64_t open, closed, total;  /* the open factor's start, the cost before it, of all bits */
    int64_t seen, scale;          /* prefixes up to seen bits reported; best at scale */
    double best;
} walk_t;

/* _SuffixAutomaton.extend: take in bits[size:n] of the string.  state[0]
   is ``last`` and state[1] ``states``, updated in place. */
void sam_extend(state_t *sam, const uint8_t *bits, int64_t n, int32_t size, int32_t *state)
{
    int32_t last = state[0], states = state[1];
    for (int64_t k = size; k < n; k++) {
        int c = BIT(bits, k);
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
    state[0] = last;
    state[1] = states;
}

static int width(int64_t v)  /* the bit length of v >= 1 */
{
    return 64 - __builtin_clzll((uint64_t)v);
}

/* The code length cost of the first m bits, for m above the prefixes seen:
   into costs[m] unless costs is NULL, and into tau_k's maximum. */
static void report(walk_t *w, int64_t m, int64_t cost, int64_t *costs, int64_t *bar)
{
    if (m <= w->seen)
        return;
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

/* lz._factorize: resume the greedy parse of bits[0:n] at w->open.  A factor
   truncated at m, from i, costs lengths[width(p + 1)] + lengths[width(m - i)]
   for the 1-based source p = end - (m - i) + 2 of its first occurrence,
   which ends at end (-1 and p = 0 for a literal).  Where ends is not NULL,
   writes the end of each factor to ends[m] at the factor's last position m. */
void sam_factorize(const state_t *sam, const uint8_t *bits, int64_t n, const uint8_t *lengths,
                   walk_t *w, int32_t *ends, int64_t *costs)
{
    int64_t i = w->open, closed = w->closed, cost = closed, bar = -1;  /* -1: score the first */
    while (i < n) {
        int32_t st = 0, end = -1;  /* from the root: extending may have cloned states */
        int64_t j = i;
        w->open = i;  /* the factor from i is open until one starts after it */
        w->closed = closed;
        while (j < n) {
            st = sam[st].next[BIT(bits, j)];
            if (st < 0)
                st = -st;
            if (st != 0 && sam[st].first < j)
                end = sam[st].first;
            else if (j > i)
                break;
            j++;  /* with end -1 a literal: p + 1 = 1, and its raw bit is as long as C(1) */
            cost = closed + lengths[width(end - (j - i) + 3)] + lengths[width(j - i)];
            report(w, j, cost, costs, &bar);
            if (end < 0)  /* a literal is one bit */
                break;
        }
        if (ends)
            ends[j] = end;
        closed = cost;
        i = j;
    }
    w->total = closed;
    w->seen = n;
}
