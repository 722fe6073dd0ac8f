/* The two per-bit loops of rngcal.lz, compiled on first use (see lz._kernel).

   Each function transliterates a Python loop in lz.py, which stays the
   fallback; tests/test_lz.py checks both against the references in
   tests/helpers.py, and lz.py says what the arrays hold.  A transition is
   0 when absent (no transition enters the root), +t for a solid edge to
   state t and -t for a secondary one: s -> t is solid when the longest
   substring of t is that of s plus one bit, which is all the build asks
   of the state lengths.  Python sizes every array and checks that every
   state index fits in int32 before it calls. */

#include <stdint.h>

/* _SuffixAutomaton.extend: take in bits[0:n] as positions size.. of the
   string.  state[0] is ``last`` and state[1] ``states``, updated in place. */
void sam_extend(int32_t *next0, int32_t *next1, int32_t *link, int32_t *first,
                const uint8_t *bits, int64_t n, int32_t size, int32_t *state)
{
    int32_t last = state[0], states = state[1];
    for (int64_t k = 0; k < n; k++) {
        int32_t cur = states++;
        first[cur] = size + (int32_t)k;
        int32_t *nx = bits[k] ? next1 : next0;
        nx[last] = cur;  /* last has no transitions yet; this one is solid */
        int32_t p = link[last];
        while (p != -1 && nx[p] == 0) {
            nx[p] = -cur;
            p = link[p];
        }
        if (p == -1) {
            link[cur] = 0;
        } else if (nx[p] > 0) {
            link[cur] = nx[p];
        } else {
            int32_t q = -nx[p], clone = states++;
            /* a clone is shorter than q: its edges are all secondary */
            next0[clone] = next0[q] > 0 ? -next0[q] : next0[q];
            next1[clone] = next1[q] > 0 ? -next1[q] : next1[q];
            link[clone] = link[q];
            first[clone] = first[q];
            nx[p] = clone;
            p = link[p];
            while (p != -1 && nx[p] == -q) {
                nx[p] = -clone;
                p = link[p];
            }
            link[q] = clone;
            link[cur] = clone;
        }
        last = cur;
    }
    state[0] = last;
    state[1] = states;
}

/* lz._factorize: the greedy parse of bits[start:n].  Writes the width of
   the source of each truncated factor to widths, indexed from start, and
   marks each factor's last position m by setting bit 7 of widths[m - start];
   where ends is not NULL, writes the end of the factor's first occurrence
   (-1 for a literal) to ends[m - start]. */
void sam_factorize(const int32_t *next0, const int32_t *next1, const int32_t *first,
                   const uint8_t *bits, uint8_t *widths, int64_t n, int64_t start,
                   int32_t *ends)
{
    int64_t i = start;
    while (i < n) {
        int32_t st = 0, end = -1;  /* from the root: extending may have cloned states */
        int64_t j = i;
        while (j < n) {
            st = (bits[j] ? next1 : next0)[st];
            if (st < 0)
                st = -st;
            if (st == 0 || first[st] >= j)
                break;
            end = first[st];
            j++;
            widths[j - start] = (uint8_t)(64 - __builtin_clzll((uint64_t)(end - (j - i) + 3)));
        }
        if (j == i)
            widths[++j - start] = 1;  /* a literal: p + 1 = 1 */
        widths[j - start] |= 0x80;
        if (ends)
            ends[j - start] = end;
        i = j;
    }
}
