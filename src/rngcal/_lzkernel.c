/* The two per-bit loops of rngcal.lz, compiled on first use (see lz._kernel).

   Each function transliterates a Python loop in lz.py, which stays the
   fallback; tests/test_lz.py checks both against the references in
   tests/helpers.py, and lz.py says what the table holds.  A state is one
   16-byte row of lz._SuffixAutomaton.table.  A transition is 0 when absent
   (no transition enters the root), +t for a solid edge to state t and -t
   for a secondary one: s -> t is solid when the longest substring of t is
   that of s plus one bit, which is all the build asks of the state
   lengths.  Python sizes every array and checks that every state index
   fits in int32 before it calls; a bit is a byte of 0 or 1 (a BitString's). */

#include <stdint.h>

typedef struct { int32_t next[2], link, first; } state_t;  /* one row of the table */

/* _SuffixAutomaton.extend: take in bits[0:n] as positions size.. of the
   string.  state[0] is ``last`` and state[1] ``states``, updated in place. */
void sam_extend(state_t *sam, const uint8_t *bits, int64_t n, int32_t size, int32_t *state)
{
    int32_t last = state[0], states = state[1];
    for (int64_t k = 0; k < n; k++) {
        int c = bits[k];
        int32_t cur = states++;
        sam[cur].first = size + (int32_t)k;
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

/* lz._factorize: the greedy parse of bits[start:n].  Writes the width of
   the source of each truncated factor to widths, indexed from start, and
   marks each factor's last position m by setting bit 7 of widths[m - start];
   where ends is not NULL, writes the end of the factor's first occurrence
   (-1 for a literal) to ends[m - start]. */
void sam_factorize(const state_t *sam, const uint8_t *bits, uint8_t *widths, int64_t n,
                   int64_t start, int32_t *ends)
{
    int64_t i = start;
    while (i < n) {
        int32_t st = 0, end = -1;  /* from the root: extending may have cloned states */
        int64_t j = i;
        while (j < n) {
            st = sam[st].next[bits[j]];
            if (st < 0)
                st = -st;
            if (st == 0 || sam[st].first >= j)
                break;
            end = sam[st].first;
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
