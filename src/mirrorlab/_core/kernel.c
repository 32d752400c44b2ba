/*
 * Native kernel of mirrorlab: batched game simulation and prime-field
 * kernels, in plain C with no Python API.  mirrorlab._core compiles it with
 * the system cc and binds it with ctypes (_kernel.py).
 *
 * Bit-compatible with the pure-Python core (_pycore.py): same splitmix64
 * streams, same draw order, same move sequences.  Any observable divergence
 * between the two is a bug (see tests/test_core_equivalence.py).
 *
 * rand-sqrt (CODE_RAND_SQRT) plays the moves of strategies.RandSqrtAlice
 * without its power-sum sketch.  That player rebuilds the unsaid numbers
 * from the sketch once at most k are left and says them smallest first.  A
 * repeat ends the game, so every number said before that point is distinct
 * and the rebuilt set is exactly the numbers not yet in said[]; the kernel
 * reads its endgame moves off said[] instead.  The prime-field kernels below
 * serve the stream-recovery functions only.
 *
 * mirrorlab._core has range-checked every size the binding passes: n, a, b,
 * r and k fit an int with room for n + 2, and 1 <= q < 2^32, the range in
 * which the field kernels' Barrett reduction is exact (see there).
 *
 * Return codes: 0 success, ML_NOMEM when an allocation fails, and the
 * positive ML_* codes for a bad request.
 */

#include <stdint.h>
#include <stdlib.h>

typedef uint64_t u64;

enum {
    ML_NOMEM = -1,
    ML_BAD_CODE = 2,     /* a strategy code the game loop does not know */
    ML_RECORD_FULL = 3,  /* the transcript buffer was too small */
    ML_OUT_OF_RANGE = 4, /* a stream element outside 1..n */
};

/* strategy codes; the class in mirrorlab.strategies named beside each code
   carries it as kernel_code (tests/test_core_build.py checks both sides) */
enum {
    CODE_MIRROR = 1,        /* MirrorBob */
    CODE_ODD_MIRROR = 2,    /* OddMirrorAlice */
    CODE_TUPLE_MIRROR = 3,  /* TupleMirrorBob */
    CODE_SMALLEST = 4,      /* SmallestUnsaid */
    CODE_LARGEST = 5,       /* LargestUnsaid */
    CODE_RANDOM = 6,        /* UniformRandomUnsaid */
    CODE_RAND_LOG = 7,      /* RandLogAlice */
    CODE_RAND_SQRT = 8,     /* RandSqrtAlice */
};

/* ------------------------------------------------------------------------
 * randomness (mirrors mirrorlab.rng exactly) */

static inline u64 mix64(u64 z)
{
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDULL;
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ULL;
    return z ^ (z >> 33);
}

static inline u64 derive(u64 master, u64 index)
{
    return mix64(master ^ mix64(index ^ 0x9E3779B97F4A7C15ULL));
}

static inline u64 sm_next(u64 *state)
{
    u64 z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline u64 randbelow(u64 *state, u64 k)
{
    u64 mask, v;
    if (k <= 1)
        return 0;
    mask = k - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    do {
        v = sm_next(state) & mask;
    } while (v >= k);
    return v;
}

/* ------------------------------------------------------------------------
 * prime-field kernels
 *
 * No term takes a hardware division.  reduce() is Barrett reduction by the
 * fixed q with m = UINT64_MAX / q: writing UINT64_MAX = m q + s (s < q),
 * the estimate floor(a m / 2^64) undershoots a / q by less than 2 for every
 * a < 2^64, so one conditional subtract leaves a mod q.  Every product here
 * is below 2^64: a power chain multiplies two residues below q < 2^32, and
 * a Horner step adds c < q to a residue times x <= n + 7 < 2^31 + 8.
 *
 * Power sums run 4 chains per pass so that the multiply latencies overlap;
 * a chain starts at its term's weight, and a short last pass pads with
 * x = 0, which adds nothing.  Sums add raw terms (each below q < 2^32) into
 * u64 and are reduced once, at the end.  No sum can overflow: a stream is
 * multiplied out only while it is shorter than half its range, so it has
 * fewer than n/2 < 2^30 terms, and a pass over 1..n has n < 2^31.
 *
 * A recovery's stream, over 1..n and at least half as long as its range,
 * is not multiplied out: mirrorlab._core decides that rule and adds the
 * stream's deviation from ml_range_sums, the powers of the absent numbers
 * (weight -1) and of the repeats (weight count - 1), to the memoized sums of
 * 1..n, which the same function makes without a stream.  That costs
 * O(n + k |dev|) in place of O(n k).
 *
 * The root scan steps a forward-difference table of f (see there): each x
 * costs k modular adds and no multiply.  The table holds uint32 entries and
 * steps 4 at a time in a GCC vector, which x86-64's SSE2 can add and compare
 * (it has no 64-bit compare; u64 entries scanned 2-3x slower at n = 10^4,
 * k = 32..64).  A sum of two residues can pass 2^32, so the step tests
 * a >= q - b, which cannot wrap, in place of a + b >= q. */

/* GCC and Clang extensions (u128 on 64-bit targets); where cc lacks them,
   the build fails and mirrorlab._core runs the Python core */
typedef unsigned __int128 u128;
typedef uint32_t u32x4 __attribute__((vector_size(16)));

/* a mod q for any a < 2^64, with m = UINT64_MAX / q */
static inline u64 reduce(u64 a, u64 q, u64 m)
{
    u64 r = a - (u64)(((u128)a * m) >> 64) * q;
    return r >= q ? r - q : r;
}

/* sums[i] += w[0] x[0]^(i+1) + ... + w[3] x[3]^(i+1), unreduced, for i < k;
   x[j], w[j] < q */
static inline void ingest4(u64 *sums, int k, const u64 *x, const u64 *w,
                           u64 q, u64 m)
{
    u64 a0 = w[0], a1 = w[1], a2 = w[2], a3 = w[3];
    for (int i = 0; i < k; i++) {
        a0 = reduce(a0 * x[0], q, m);
        a1 = reduce(a1 * x[1], q, m);
        a2 = reduce(a2 * x[2], q, m);
        a3 = reduce(a3 * x[3], q, m);
        sums[i] += a0 + a1 + a2 + a3;
    }
}

/* sums[i] = sum of w(v) v^(i+1) mod q for i < k, over the terms v:
 *  - without a stream (xs NULL, len 0, dev 0), the numbers 1..n, each at
 *    weight 1: the power sums of 1..n;
 *  - with dev nonzero, the numbers 1..n, v at weight (the count of v in
 *    xs[0..len)) - 1: what the stream adds to the sums of 1..n, from the
 *    powers of its absent numbers and repeats only.  One pass counts the
 *    stream into n + 1 64-bit counts and range-checks it;
 *  - with dev zero, the elements of xs[0..len), each at weight 1, checked
 *    as they are multiplied out; nothing n-sized is allocated.
 * Returns ML_OUT_OF_RANGE, with sums unfinished, if an element is outside
 * 1..n, and ML_NOMEM if the counts cannot be allocated. */
int ml_range_sums(const int64_t *xs, int64_t len, int dev, int k, u64 q,
                  int n, u64 *sums)
{
    const u64 m = UINT64_MAX / q;
    int64_t *cnt = NULL;
    u64 x[4] = {0, 0, 0, 0}, w[4] = {1, 1, 1, 1};
    int lanes = 0;
    if (dev) {
        cnt = calloc(n > 0 ? (size_t)n + 1 : 1, sizeof *cnt);
        if (cnt == NULL)
            return ML_NOMEM;
        for (int64_t t = 0; t < len; t++) {
            int64_t v = xs[t];
            if (v < 1 || v > n) {
                free(cnt);
                return ML_OUT_OF_RANGE;
            }
            cnt[v]++;
        }
    }
    for (int i = 0; i < k; i++)
        sums[i] = 0;
    /* A last pass runs past the terms with x = 0 in its free lanes.  The
       stream's own elements and the numbers 1..n take separate loops: one
       loop for both made the deviation pass ~15% slower (n = 10^4, gcc 12
       -O3 on x86-64). */
    if (xs != NULL && !dev) {
        for (int64_t t = 0; t < len || lanes; t++) {
            if (t >= len) {
                x[lanes] = 0;
            } else if (xs[t] < 1 || xs[t] > n) {
                return ML_OUT_OF_RANGE;
            } else {
                x[lanes] = reduce((u64)xs[t], q, m);
            }
            if (++lanes == 4) {
                ingest4(sums, k, x, w, q, m);
                lanes = 0;
            }
        }
    } else {
        for (int64_t v = 1; v <= n || lanes; v++) {
            if (v > n) {
                x[lanes] = 0;
            } else if (cnt == NULL) {
                x[lanes] = reduce((u64)v, q, m);
            } else {
                w[lanes] = cnt[v] ? reduce((u64)(cnt[v] - 1), q, m) : q - 1;
                if (w[lanes] == 0)
                    continue;
                x[lanes] = reduce((u64)v, q, m);
            }
            if (++lanes == 4) {
                ingest4(sums, k, x, w, q, m);
                lanes = 0;
            }
        }
        free(cnt);
    }
    for (int i = 0; i < k; i++)
        sums[i] = reduce(sums[i], q, m);
    return 0;
}

/* Roots in 1..n of x^k + c[0] x^(k-1) + ... + c[k-1] over GF(q), with the
 * coefficients reduced mod q.  Writes the first cap roots to out and returns
 * how many there are, or ML_NOMEM if the table cannot be allocated.
 *
 * Horner's rule evaluates f at x = 1..deg + 1, deg = min(k, n - 1), 8 values
 * of x per pass.  O(deg^2) subtractions turn the values into the difference
 * table d = f(1), Df(1), ..., D^deg f(1), and d[j] += d[j+1] moves every
 * D^j f one x on.  Where deg = k, D^k f is constant and the table gives f at
 * every x; where deg = n - 1 < k, d[0] after t <= deg steps is still f(1 + t)
 * (Newton's forward formula).  The table is zero past d[deg], so whole
 * vectors of 4 step it. */
int ml_root_scan(const u64 *c, int k, int n, u64 q, int *out, int cap)
{
    const u64 m = UINT64_MAX / q;
    const int deg = n <= k ? n - 1 : k;
    const uint32_t q32 = (uint32_t)q;
    const u32x4 qv = {q32, q32, q32, q32};
    uint32_t *d;
    int cnt = 0;
    if (n < 1)
        return 0;
    d = calloc((size_t)deg + 9, sizeof *d);
    if (d == NULL)
        return ML_NOMEM;
    for (int64_t base = 1; base <= deg + 1; base += 8) {
        u64 val[8] = {1, 1, 1, 1, 1, 1, 1, 1};
        for (int j = 0; j < k; j++)
            for (int l = 0; l < 8; l++)
                val[l] = reduce(val[l] * (u64)(base + l) + c[j], q, m);
        for (int l = 0; l < 8 && base + l <= deg + 1; l++)
            d[base - 1 + l] = (uint32_t)val[l];
    }
    for (int j = 1; j <= deg; j++) {
        uint32_t prev = d[j - 1];
        for (int i = j; i <= deg; i++) {
            uint32_t cur = d[i];
            d[i] = cur >= prev ? cur - prev : cur + (q32 - prev);
            prev = cur;
        }
    }
    for (int x = 1;; x++) {
        if (d[0] == 0) {
            if (cnt < cap)
                out[cnt] = x;
            cnt++;
        }
        if (x == n)
            break;
        for (int j = 0; j < deg; j += 4) {
            u32x4 a, b;
            __builtin_memcpy(&a, d + j, sizeof a);
            __builtin_memcpy(&b, d + j + 1, sizeof b);
            /* a + b >= q exactly when a >= q - b, which does not wrap */
            a += b - ((u32x4)(a >= qv - b) & qv);
            __builtin_memcpy(d + j, &a, sizeof a);
        }
    }
    free(d);
    return cnt;
}

/* ------------------------------------------------------------------------
 * matching sampling (mirrors strategies.sample_matching); n even */

static void build_matching(int n, u64 *state, int *perm, int *match)
{
    for (int i = 0; i < n; i++)
        perm[i] = i + 1;
    for (int i = n - 1; i > 0; i--) {
        int j = (int)randbelow(state, (u64)(i + 1));
        int tmp = perm[i];
        perm[i] = perm[j];
        perm[j] = tmp;
    }
    for (int t = 0; t < n; t += 2) {
        match[perm[t]] = perm[t + 1];
        match[perm[t + 1]] = perm[t];
    }
}

/* ------------------------------------------------------------------------
 * Fenwick tree over 1..n (random-unsaid's view of the fresh numbers) */

static void fen_build_ones(int *t, int n)
{
    for (int i = 0; i <= n; i++)
        t[i] = 0;
    for (int i = 1; i <= n; i++) {
        t[i] += 1;
        if (i + (i & -i) <= n)
            t[i + (i & -i)] += t[i];
    }
}

static inline void fen_add(int *t, int n, int pos, int delta)
{
    for (; pos <= n; pos += pos & -pos)
        t[pos] += delta;
}

/* position of the (idx+1)-th remaining number, ascending */
static inline int fen_select(const int *t, int n, int step, int idx)
{
    int pos = 0, rem = idx + 1;
    for (; step; step >>= 1) {
        int npos = pos + step;
        if (npos <= n && t[npos] < rem) {
            pos = npos;
            rem -= t[npos];
        }
    }
    return pos + 1;
}

/* ------------------------------------------------------------------------
 * the game loop */

/* smallest number not yet used within this move (forced-repeat filler) */
static int filler_small(const int *move, int j)
{
    for (int p = 1;; p++) {
        int t = 0;
        while (t < j && move[t] != p)
            t++;
        if (t == j)
            return p;
    }
}

static int filler_large(int n, const int *move, int j)
{
    for (int p = n;; p--) {
        int t = 0;
        while (t < j && move[t] != p)
            t++;
        if (t == j)
            return p;
    }
}

/* Reusable buffers for one matchup; each arena_run plays one seeded game. */
typedef struct {
    int n, a, b, acode, bcode, r, k;
    unsigned char *said;
    int *perm, *match, *fenA, *fenB;
    int fen_step;
    int *backups;
    unsigned char *spent;
    int *movebuf;
    int losing, error;
    /* transcript: every number said, in order (NULL: none kept) */
    int *rec;
    int64_t rec_cap, rec_len;
} Arena;

static void arena_free(Arena *A)
{
    free(A->said); free(A->perm); free(A->match);
    free(A->fenA); free(A->fenB);
    free(A->backups); free(A->spent);
    free(A->movebuf);
}

static int arena_init(Arena *A, int n, int a, int b, int acode, int bcode,
                      int r, int k)
{
    size_t nn = (size_t)n + 2, rr = (size_t)r + 1;
    int quota = a > b ? a : b;
    *A = (Arena){.n = n, .a = a, .b = b, .acode = acode, .bcode = bcode,
                 .r = r, .k = k};
    A->said = calloc(nn, 1);
    A->perm = calloc(nn, sizeof(int));
    A->match = calloc(nn, sizeof(int));
    A->fenA = calloc(nn, sizeof(int));
    A->fenB = calloc(nn, sizeof(int));
    A->backups = calloc(rr, sizeof(int));
    A->spent = calloc(rr, 1);
    A->movebuf = calloc((size_t)quota + 1, sizeof(int));
    if (!A->said || !A->perm || !A->match || !A->fenA || !A->fenB
            || !A->backups || !A->spent || !A->movebuf) {
        arena_free(A);
        return ML_NOMEM;
    }
    A->fen_step = 1;
    while (A->fen_step <= n / 2)
        A->fen_step *= 2;
    return 0;
}

static inline int backup_index(const Arena *A, int v)
{
    int lo = 0, hi = A->r - 1;
    while (lo <= hi) {
        int mid = (lo + hi) >> 1;
        if (A->backups[mid] == v)
            return mid;
        if (A->backups[mid] < v)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return -1;
}

/* a rand-sqrt backup counts as spent once either player says it */
static inline void mark_spent(Arena *A, int v)
{
    int idx = backup_index(A, v);
    if (idx >= 0)
        A->spent[idx] = 1;
}

/* One game: 0 both win, 1 Alice loses, 2 Bob loses; A->error on failure. */
static int arena_run(Arena *A, u64 game_seed)
{
    const int n = A->n, acode = A->acode, bcode = A->bcode;
    u64 st_o = derive(game_seed, 0);
    u64 st_a = derive(game_seed, 1);
    u64 st_b = derive(game_seed, 2);
    unsigned char *said = A->said;
    int *movebuf = A->movebuf;

    int i, j, v = 0, cnt, idx, m;
    int last_a = 0, last_b = 0, started_a = 0, xlog = 0;
    int cur_small_a = 1, cur_small_b = 1;
    int cur_large_a = n, cur_large_b = n;
    int fcnt_a = n, fcnt_b = n;
    int said_count = 0, turn = 0, outcome = -1;

    for (i = 0; i <= n; i++)
        said[i] = 0;
    A->losing = 0;
    A->error = 0;
    A->rec_len = 0;

    if (acode == CODE_RAND_LOG || acode == CODE_RAND_SQRT)
        build_matching(n, &st_o, A->perm, A->match);
    if (acode == CODE_RANDOM)
        fen_build_ones(A->fenA, n);
    if (bcode == CODE_RANDOM)
        fen_build_ones(A->fenB, n);

    if (acode == CODE_RAND_LOG) {
        xlog = 1 + (int)randbelow(&st_a, (u64)n);
    } else if (acode == CODE_RAND_SQRT) {
        cnt = 0;
        while (cnt < A->r) {
            v = 1 + (int)randbelow(&st_a, (u64)n);
            for (i = 0; i < cnt && A->backups[i] != v; i++)
                ;
            if (i == cnt)
                A->backups[cnt++] = v;
        }
        for (i = 1; i < A->r; i++) { /* insertion sort ascending */
            v = A->backups[i];
            for (j = i - 1; j >= 0 && A->backups[j] > v; j--)
                A->backups[j + 1] = A->backups[j];
            A->backups[j + 1] = v;
        }
        for (i = 0; i < A->r; i++)
            A->spent[i] = 0;
    }

    while (outcome < 0) {
        const int alice_moving = ++turn & 1;
        const int code = alice_moving ? acode : bcode;
        const int quota = alice_moving ? A->a : A->b;
        int move_len;

        /* ---- emit ---------------------------------------------------- */
        switch (code) {
        case CODE_MIRROR:
            movebuf[0] = n + 1 - last_b;
            break;
        case CODE_ODD_MIRROR:
            if (!started_a) {
                started_a = 1;
                movebuf[0] = n;
            } else {
                movebuf[0] = n - last_a;
            }
            break;
        case CODE_TUPLE_MIRROR: {
            int width = quota + 1;
            int base = ((last_b - 1) / width) * width + 1;
            j = 0;
            for (v = base; v < base + width; v++)
                if (v != last_b)
                    movebuf[j++] = v;
            break;
        }
        case CODE_SMALLEST: {
            int *cur = alice_moving ? &cur_small_a : &cur_small_b;
            for (j = 0; j < quota; j++) {
                while (*cur <= n && said[*cur])
                    (*cur)++;
                movebuf[j] = *cur <= n ? (*cur)++ : filler_small(movebuf, j);
            }
            break;
        }
        case CODE_LARGEST: {
            int *cur = alice_moving ? &cur_large_a : &cur_large_b;
            for (j = 0; j < quota; j++) {
                while (*cur >= 1 && said[*cur])
                    (*cur)--;
                movebuf[j] = *cur >= 1 ? (*cur)-- : filler_large(n, movebuf, j);
            }
            break;
        }
        case CODE_RANDOM: {
            u64 *stream = alice_moving ? &st_a : &st_b;
            int *fen = alice_moving ? A->fenA : A->fenB;
            int *fcnt = alice_moving ? &fcnt_a : &fcnt_b;
            for (j = 0; j < quota; j++) {
                if (*fcnt > 0) {
                    idx = (int)randbelow(stream, (u64)*fcnt);
                    v = fen_select(fen, n, A->fen_step, idx);
                    fen_add(fen, n, v, -1);
                    (*fcnt)--;
                } else {
                    v = filler_small(movebuf, j);
                }
                movebuf[j] = v;
            }
            break;
        }
        case CODE_RAND_LOG:
            if (!started_a) {
                started_a = 1;
                movebuf[0] = xlog;
            } else {
                movebuf[0] = A->match[last_a];
            }
            break;
        case CODE_RAND_SQRT:
            /* a = b = 1, so said_count is the number of moves so far */
            if (!started_a) {
                started_a = 1;
                idx = (int)randbelow(&st_a, (u64)A->r);
                A->spent[idx] = 1;
                movebuf[0] = A->backups[idx];
                break;
            }
            if (said_count >= n - A->k) {
                /* Endgame: RandSqrtAlice rebuilds the unsaid numbers from
                 * her power sums and says them smallest first.  No number
                 * has repeated yet, so that set is exact and is the one
                 * said[] holds; every later move keeps it so. */
                while (said[cur_small_a])
                    cur_small_a++;
                movebuf[0] = cur_small_a;
                break;
            }
            m = A->match[last_a];
            idx = backup_index(A, m);
            if (idx < 0 || !A->spent[idx]) {
                v = m;
            } else {
                for (cnt = 0, i = 0; i < A->r; i++)
                    cnt += !A->spent[i];
                if (cnt > 0) {
                    idx = (int)randbelow(&st_a, (u64)cnt);
                    for (i = 0; i < A->r; i++) {
                        if (!A->spent[i]) {
                            if (idx == 0) {
                                v = A->backups[i];
                                break;
                            }
                            idx--;
                        }
                    }
                } else {
                    v = 1 + (int)randbelow(&st_a, (u64)n);
                }
            }
            mark_spent(A, v);
            movebuf[0] = v;
            break;
        default:
            A->error = ML_BAD_CODE;
            return 0;
        }

        /* ---- referee ------------------------------------------------- */
        move_len = quota;
        for (j = 0; j < quota; j++) {
            v = movebuf[j];
            if (said[v]) {
                outcome = alice_moving ? 1 : 2;
                A->losing = v;
                move_len = j + 1;
                break;
            }
            said[v] = 1;
            said_count++;
        }
        if (A->rec != NULL) {
            if (A->rec_len + move_len > A->rec_cap) {
                A->error = ML_RECORD_FULL;
                return 0;
            }
            for (j = 0; j < move_len; j++)
                A->rec[A->rec_len++] = movebuf[j];
        }
        if (outcome >= 0)
            break;
        if (said_count == n) {
            outcome = 0;
            break;
        }

        /* ---- opponent observes --------------------------------------- */
        if (alice_moving) {
            if (bcode == CODE_MIRROR || bcode == CODE_TUPLE_MIRROR) {
                last_b = movebuf[0];
            } else if (bcode == CODE_RANDOM) {
                for (j = 0; j < quota; j++)
                    fen_add(A->fenB, n, movebuf[j], -1);
                fcnt_b -= quota;
            }
        } else if (acode == CODE_ODD_MIRROR || acode == CODE_RAND_LOG) {
            last_a = movebuf[0];
        } else if (acode == CODE_RANDOM) {
            for (j = 0; j < quota; j++)
                fen_add(A->fenA, n, movebuf[j], -1);
            fcnt_a -= quota;
        } else if (acode == CODE_RAND_SQRT) {
            last_a = movebuf[0];
            mark_spent(A, last_a);
        }
    }
    return outcome;
}

/* One recorded game.  rec receives every number said, in order, at most
 * rec_cap ints; n + 1 always suffices, as the first repeat ends the game.
 * The quotas fix the cut into moves, so no per-move header is written.
 * info = {outcome, losing number or 0, numbers written to rec}. */
int ml_play_game(int n, int a, int b, int acode, int bcode, int r, int k,
                 u64 game_seed, int *rec, int64_t rec_cap, int64_t *info)
{
    Arena A;
    int outcome, err;
    if (arena_init(&A, n, a, b, acode, bcode, r, k) != 0)
        return ML_NOMEM;
    A.rec = rec;
    A.rec_cap = rec_cap;
    outcome = arena_run(&A, game_seed);
    err = A.error;
    info[0] = outcome;
    info[1] = A.losing;
    info[2] = A.rec_len;
    arena_free(&A);
    return err;
}

/* Outcome counts {both win, Alice loses, Bob loses} of the games seeded
 * derive(master, start + i) for i < trials, into counts[0..3).  On a kernel
 * error counts[3] is the trial index at fault. */
int ml_play_batch(int n, int a, int b, int acode, int bcode, int r, int k,
                  u64 master, int64_t start, int64_t trials, int64_t *counts)
{
    Arena A;
    counts[0] = counts[1] = counts[2] = counts[3] = 0;
    if (arena_init(&A, n, a, b, acode, bcode, r, k) != 0)
        return ML_NOMEM;
    for (int64_t i = 0; i < trials; i++) {
        int outcome = arena_run(&A, derive(master, (u64)start + (u64)i));
        if (A.error) {
            int err = A.error;
            counts[3] = start + i;
            arena_free(&A);
            return err;
        }
        counts[outcome]++;
    }
    arena_free(&A);
    return 0;
}
