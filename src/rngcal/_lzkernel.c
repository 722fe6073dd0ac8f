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

/* lz._factorize: the greedy parse of bits[start:n], at most ``room``
   factors of it.  Writes each factor's start to bounds and the end of its
   first occurrence (-1 for a literal) to ends, then the position the walk
   stopped at (n, or the start of the next factor) to bounds[count], and
   the widths of the sources of the truncated factors to widths, indexed
   from start; returns the number of factors. */
int64_t sam_factorize(const int32_t *next0, const int32_t *next1, const int32_t *first,
                      const uint8_t *bits, int64_t n, int64_t start, int64_t room,
                      int32_t *bounds, int32_t *ends, uint8_t *widths)
{
    int64_t count = 0, i = start;
    while (i < n && count < room) {
        int32_t st = 0, end = -1;  /* from the root: extending may have cloned states */
        int64_t j = i;
        while (j < n) {
            st = (bits[j] ? next1 : next0)[st];
            if (st == -1 || first[st] >= j)
                break;
            end = first[st];
            j++;
            widths[j - start] = (uint8_t)(64 - __builtin_clzll((uint64_t)(end - (j - i) + 3)));
        }
        if (j == i)
            widths[++j - start] = 1;  /* a literal: p + 1 = 1 */
        bounds[count] = (int32_t)i;
        ends[count++] = end;
        i = j;
    }
    bounds[count] = (int32_t)i;
    return count;
}
