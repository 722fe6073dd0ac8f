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

   lz_pack and lz_unpack are the codec's loops: lz.encode writes a walk's
   pairs as codewords with lz_pack, and lz.decode expands a pair stream with
   lz_unpack, which never raises: it answers -1 for a stream that Python must
   refuse, and lz.decode then runs its Python loop on that stream, which says
   why.  The Python encode and decode loops stay the fallback and the
   reference; tests/test_lz.py checks the two codecs against each other.

   draw transliterates sources._draw, the Python loop of Source.bits, which
   stays the fallback; tests/test_sources.py checks both against numpy's
   Philox draws, and -ffp-contract=off keeps a drift's p0 + rate i unfused.

   Python calls these loops for every input, none excepted: lz_pack,
   lz_unpack and draw take NULL for a buffer where their count is 0 (an
   empty bytearray has no address) and then touch no buffer, and
   lz._PrefixCosts.extend calls lz_extend only where there are bits to take in. */

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


/* The k <= 56 low bits of v, MSB first, into the zeroed out from bit at, a
   byte at a time from the last; returns the bit after them. */
static int64_t put(uint8_t *out, int64_t at, uint64_t v, int k)
{
    int64_t end = at + k;
    v = (v & (((uint64_t)1 << k) - 1)) << (-end & 7);  /* its last bit at that of a byte */
    for (int64_t i = (end - 1) >> 3; i >= at >> 3; i--, v >>= 8)
        out[i] |= (uint8_t)v;
    return end;
}

/* The k <= 56 bits of bits from bit at, MSB first. */
static uint64_t peek(const uint8_t *bits, int64_t at, int k)
{
    uint64_t x = 0;
    int64_t end = at + k;
    for (int64_t i = at >> 3; i <= (end - 1) >> 3; i++)
        x = x << 8 | bits[i];
    return x >> (-end & 7) & (((uint64_t)1 << k) - 1);
}

/* codes.write_integer: C(m) for 1 <= m < 2^57 into out from bit at, which is
   gamma(L) for the bit length L = n + 1 of m, that is width(L) - 1 zeros and
   then L, and then the n low bits of m. */
static int64_t put_integer(uint8_t *out, int64_t at, int64_t m)
{
    int n = width(m) - 1, zeros = width(n + 1) - 1;
    at = put(out, at + zeros, (uint64_t)(n + 1), zeros + 1);  /* out is zeroed */
    return put(out, at, (uint64_t)m, n);
}

/* lz.encode: the first count pairs (p, l) of pairs, as lz_extend records
   them, into the zeroed out, each as C(p + 1) and then its raw bit (a
   literal, p = 0) or C(l); out holds the walk's total bits, what these
   codewords take. */
void lz_pack(const int32_t *pairs, int64_t count, uint8_t *out)
{
    int64_t at = 0;
    for (const int32_t *pair = pairs; pair < pairs + 2 * count; pair += 2) {
        at = put_integer(out, at, (int64_t)pair[0] + 1);
        at = pair[0] ? put_integer(out, at, pair[1]) : put(out, at, (uint64_t)pair[1], 1);
    }
}

typedef struct { const uint8_t *bits; int64_t n, at; } reader_t;  /* bit at of the n bits */

/* The next k <= 63 bits into *v; 0 where fewer are left. */
static int get(reader_t *r, int k, int64_t *v)
{
    if (r->n - r->at < k)
        return 0;
    int64_t x = 0;
    for (; k > 0; k--, r->at++)
        x = x << 1 | BIT(r->bits, r->at);
    *v = x;
    return 1;
}

/* codes.read_integer: the next C(m) into *m; 0 where it is truncated or m
   has 62 or more bits (six zeros give L >= 64), which Python refuses as a
   copy source past the output or a pair past the bound, if nothing before. */
static int get_integer(reader_t *r, int64_t *m)
{
    int zeros = 0;
    int64_t bits;
    while (zeros < 6 && r->at < r->n && !BIT(r->bits, r->at)) {
        zeros++;
        r->at++;
    }
    if (zeros == 6 || !get(r, zeros + 1, &bits) || bits >= 62 || !get(r, (int)bits - 1, m))
        return 0;
    *m |= (int64_t)1 << (bits - 1);
    return 1;
}

/* lz.decode: the pair stream of the n bits of stream expanded into out, or,
   where out is NULL, only read: returns the bits it decodes to, or -1 where
   lz.decode raises DecodeError.  That is where a codeword is truncated or has
   62 or more bits, a copy's source is past the output, a pair would decode
   past limit bits or, where exact, the stream decodes to other than limit
   bits.  Python bounds limit by lz._MAX_BITS, so no sum overflows, and out
   is zeroed and holds the count of bits the first call returned.  A copy
   moves up to 56 bits at a time from a source a whole number of its periods
   back, so the pieces of an overlapping one double, as in Python, to 56. */
int64_t lz_unpack(const uint8_t *stream, int64_t n, int64_t limit, int exact, uint8_t *out)
{
    reader_t r = {stream, n, 0};
    int64_t size = 0, p, ell, bit;
    while (r.at < n) {
        if (!get_integer(&r, &p) || --p > size)
            return -1;
        if (p == 0) {  /* a literal: its raw bit */
            if (size >= limit || !get(&r, 1, &bit))
                return -1;
            if (out)
                put(out, size, (uint64_t)bit, 1);
            size++;
            continue;
        }
        if (!get_integer(&r, &ell) || ell > limit - size)
            return -1;
        for (int64_t d = size, k; out && d < size + ell; d += k) {
            /* bits s to d continue the run, a whole number of its periods */
            int64_t s = p - 1 + (d - p + 1) % (size - p + 1);
            k = size + ell - d < d - s ? size + ell - d : d - s;
            k = k < 56 ? k : 56;
            put(out, d, peek(out, s, (int)k), (int)k);
        }
        size += ell;
    }
    return exact && size != limit ? -1 : size;
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

/* sources._draw: the first n bits of a source into the zeroed out, packed
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
