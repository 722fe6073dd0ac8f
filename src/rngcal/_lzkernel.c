/* The two per-bit loops of rngcal.lz, compiled on first use (see lz._kernel).

   Each function transliterates a Python loop in lz.py, which stays the
   fallback and the reference the tests compare against; lz.py says what
   the arrays hold.  Python sizes every array and checks that every state
   index and length fits in int32 before it calls. */

#include <stdint.h>

/* _SuffixAutomaton.extend: take in bits[0:n] as positions size.. of the
   string.  state[0] is ``last`` and state[1] ``states``, updated in place. */
void sam_extend(int32_t *next0, int32_t *next1, int32_t *link, int32_t *length,
                int32_t *first, const uint8_t *bits, int64_t n, int32_t size,
                int32_t *state)
{
    int32_t last = state[0], states = state[1];
    for (int64_t k = 0; k < n; k++) {
        int32_t pos = size + (int32_t)k;
        int32_t cur = states++;
        length[cur] = pos + 1;
        first[cur] = pos;
        int32_t *nx = bits[k] ? next1 : next0;
        int32_t p = last;
        while (p != -1 && nx[p] == -1) {
            nx[p] = cur;
            p = link[p];
        }
        if (p == -1) {
            link[cur] = 0;
        } else {
            int32_t q = nx[p];
            if (length[p] + 1 == length[q]) {
                link[cur] = q;
            } else {
                int32_t clone = states++;
                next0[clone] = next0[q];
                next1[clone] = next1[q];
                link[clone] = link[q];
                length[clone] = length[p] + 1;
                first[clone] = first[q];
                while (p != -1 && nx[p] == q) {
                    nx[p] = clone;
                    p = link[p];
                }
                link[q] = clone;
                link[cur] = clone;
            }
        }
        last = cur;
    }
    state[0] = last;
    state[1] = states;
}

/* lz._factorize: the greedy parse of bits[start:n].  Writes the factor
   starts, then n, to bounds (room for n + 1 - start entries) and the ends
   of first occurrences to ends, indexed from start; returns the number of
   factors. */
int64_t sam_factorize(const int32_t *next0, const int32_t *next1, const int32_t *first,
                      const uint8_t *bits, int64_t n, int64_t start,
                      int32_t *bounds, int32_t *ends)
{
    int64_t count = 0, i = start;
    while (i < n) {
        bounds[count++] = (int32_t)i;
        int32_t st = 0;  /* from the root: extending may have cloned states */
        int64_t j = i;
        while (j < n) {
            st = (bits[j] ? next1 : next0)[st];
            if (st == -1)
                break;
            int32_t end = first[st];
            if (end >= j)
                break;
            j++;
            ends[j - start] = end;
        }
        i = j > i ? j : i + 1;
    }
    bounds[count] = (int32_t)n;
    return count;
}
