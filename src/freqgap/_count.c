/* The compiled counting kernel of freqgap.counting: term scan, window
 * loop and count table for batches of documents.
 *
 * A batch is the UTF-8 encodings of its documents (lone surrogates
 * encoded as with Python's "surrogatepass") joined by the byte 0xFF,
 * which no such encoding contains.  For each document the kernel does
 * what TermScanner.scan_shifted and _ShardAccumulator.add_document do in
 * Python, for every Unicode text:
 *
 *   - tokens are the maximal runs of characters outside SPACE_POINTS,
 *     the code points str.split() splits on;
 *   - a token, with the bytes of the strip set removed from both ends, is
 *     a number term when it is all ASCII digits and at most max_digits
 *     long, and a unit term when its characters lower-cased equal a unit
 *     form; the only non-ASCII characters whose str.lower() is ASCII are
 *     those in LOWER_FROM;
 *   - every unigram, every (number, unit) pair, every (number, number)
 *     pair with both values below nn_max, and the triples of the anchor
 *     table are counted over the position tuples of span <= window - 1.
 *
 * Counts live in an open-addressing table keyed by packed 64-bit ints
 * (see "packed keys" below); fg_dump unpacks them.  The tests compare
 * this kernel with the Python path and with a brute-force oracle, and
 * pin SPACE_POINTS and LOWER_FROM against the running Python's str.
 *
 * Built as a plain shared library (no Python headers) and called through
 * ctypes: fg_setup once per process, then fg_new, fg_count, fg_size,
 * fg_dump, fg_clear and fg_free per counter.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* str.split()'s whitespace: the code points c with chr(c).isspace(). */
static const uint32_t SPACE_POINTS[] = {
    0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0,
    0x1680, 0x2000, 0x2001, 0x2002, 0x2003, 0x2004, 0x2005, 0x2006, 0x2007,
    0x2008, 0x2009, 0x200A, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
};
#define N_SPACES (sizeof SPACE_POINTS / sizeof SPACE_POINTS[0])

/* The non-ASCII characters whose str.lower() is ASCII, and that lower. */
static const uint32_t LOWER_FROM[] = {0x212A}; /* KELVIN SIGN */
static const unsigned char LOWER_TO[] = {'k'};
#define N_LOWERS (sizeof LOWER_FROM / sizeof LOWER_FROM[0])

#define SEPARATOR 0xFF

/* byte classes */
#define MAYBE_SPACE 1 /* an ASCII space, or the lead byte of a non-ASCII one */
#define STRIP 2
#define TERM_START 4 /* a digit, or the first byte of a character that lowers
                        to the first letter of a unit form */

#define MAX_FORMS 64
#define MAX_FORM_LEN 7 /* a form and its length pack into one uint64 */
#define MAX_UNITS 32
#define SMALL_UNIT 0x8000 /* see small() */

static unsigned char byte_class[256];
static uint64_t form_words[MAX_FORMS];
static int64_t form_codes[MAX_FORMS];
static int64_t n_forms;
static int64_t unit_base;
static int64_t nn_max;

/* Anchor table: the two numbers (a <= b) of a triple -> bit u set when
 * {a, b, unit u} is counted.  Open addressing, key (a << 16 | b) + 1. */
static uint32_t *anchor_keys;
static uint32_t *anchor_masks;
static uint32_t anchor_cap;

/* -- UTF-8 -------------------------------------------------------------- */

/* Code point of the character at s[0:n], n >= 1; *width gets its length. */
static uint32_t decode(const unsigned char *s, int64_t n, int *width)
{
    unsigned char b = s[0];
    int w = b < 0x80 ? 1 : b < 0xE0 ? 2 : b < 0xF0 ? 3 : 4;
    if (w > n) {
        *width = 1;
        return 0xFFFD;
    }
    *width = w;
    switch (w) {
    case 1:
        return b;
    case 2:
        return (uint32_t)(b & 0x1F) << 6 | (s[1] & 0x3F);
    case 3:
        return (uint32_t)(b & 0x0F) << 12 | (uint32_t)(s[1] & 0x3F) << 6 | (s[2] & 0x3F);
    default:
        return (uint32_t)(b & 0x07) << 18 | (uint32_t)(s[1] & 0x3F) << 12
               | (uint32_t)(s[2] & 0x3F) << 6 | (s[3] & 0x3F);
    }
}

static int encode_lead(uint32_t cp)
{
    return cp < 0x80 ? (int)cp : cp < 0x800 ? 0xC0 | (int)(cp >> 6)
           : cp < 0x10000 ? 0xE0 | (int)(cp >> 12) : 0xF0 | (int)(cp >> 18);
}

/* Byte length of the whitespace character at s[0:n], or 0. */
static inline int space_width(const unsigned char *s, int64_t n)
{
    if (!(byte_class[s[0]] & MAYBE_SPACE))
        return 0;
    if (s[0] < 0x80)
        return 1;
    int w;
    uint32_t cp = decode(s, n, &w);
    for (size_t i = 0; i < N_SPACES; i++)
        if (SPACE_POINTS[i] == cp)
            return w;
    return 0;
}

/* -- set-up ------------------------------------------------------------- */

static uint64_t mix(uint64_t key) { return key * 0x9E3779B97F4A7C15ULL; }

/* Writes the kernel's SPACE_POINTS and LOWER_FROM/LOWER_TO to the given
 * arrays (of at least 64 entries each); returns the two counts packed as
 * n_spaces << 8 | n_lowers. */
int64_t fg_unicode_tables(uint32_t *spaces, uint32_t *lower_from, unsigned char *lower_to)
{
    memcpy(spaces, SPACE_POINTS, sizeof SPACE_POINTS);
    memcpy(lower_from, LOWER_FROM, sizeof LOWER_FROM);
    memcpy(lower_to, LOWER_TO, sizeof LOWER_TO);
    return (int64_t)N_SPACES << 8 | (int64_t)N_LOWERS;
}

/* Sets the term rules: the strip bytes, the n lower-case unit forms (each
 * padded to width bytes in packed) with their codes, the unit base, the
 * number-pair bound and the m counted triples (3 codes each, sorted, two
 * numbers below nn_max then a unit).  Returns 0, or -1 if they do not fit
 * the kernel's packing. */
int fg_setup(const unsigned char *strip, int64_t n_strip,
             const unsigned char *packed, const int64_t *lens, const int64_t *codes,
             int64_t n, int64_t width, int64_t base, int64_t nn_bound,
             const int64_t *triples, int64_t m)
{
    if (n > MAX_FORMS || nn_bound < 1 || nn_bound > SMALL_UNIT || base < nn_bound
        || base + MAX_UNITS >= (int64_t)1 << 40)
        return -1;
    memset(byte_class, 0, sizeof byte_class);
    for (size_t i = 0; i < N_SPACES; i++)
        byte_class[encode_lead(SPACE_POINTS[i])] |= MAYBE_SPACE;
    for (int64_t i = 0; i < n_strip; i++) {
        if (strip[i] >= 0x80)
            return -1;
        byte_class[strip[i]] |= STRIP;
    }
    for (int ch = '0'; ch <= '9'; ch++)
        byte_class[ch] |= TERM_START;
    for (int64_t f = 0; f < n; f++) {
        if (lens[f] < 1 || lens[f] > MAX_FORM_LEN || lens[f] > width
            || codes[f] < base || codes[f] >= base + MAX_UNITS)
            return -1;
        const unsigned char *form = packed + f * width;
        form_words[f] = (uint64_t)lens[f] << 56;
        for (int64_t i = 0; i < lens[f]; i++)
            form_words[f] |= (uint64_t)form[i] << 8 * i;
        form_codes[f] = codes[f];
        unsigned char first = form[0];
        if (first >= 0x80 || (first >= 'A' && first <= 'Z'))
            return -1; /* forms are lower-case ASCII */
        byte_class[first] |= TERM_START;
        if (first >= 'a' && first <= 'z')
            byte_class[first - 'a' + 'A'] |= TERM_START;
        for (size_t l = 0; l < N_LOWERS; l++)
            if (LOWER_TO[l] == first)
                byte_class[encode_lead(LOWER_FROM[l])] |= TERM_START;
    }
    n_forms = n;
    unit_base = base;
    nn_max = nn_bound;

    uint32_t cap = 16;
    while (cap < 2 * (uint64_t)m + 2)
        cap *= 2;
    uint32_t *keys = calloc(cap, sizeof *keys), *masks = calloc(cap, sizeof *masks);
    if (!keys || !masks) {
        free(keys);
        free(masks);
        return -1;
    }
    for (int64_t t = 0; t < m; t++) {
        int64_t a = triples[3 * t], b = triples[3 * t + 1], u = triples[3 * t + 2] - base;
        if (a < 0 || a > b || b >= nn_bound || u < 0 || u >= MAX_UNITS) {
            free(keys);
            free(masks);
            return -1;
        }
        uint32_t key = (uint32_t)(a << 16 | b) + 1;
        uint32_t i = (uint32_t)(mix(key) >> 32) & (cap - 1);
        while (keys[i] && keys[i] != key)
            i = (i + 1) & (cap - 1);
        keys[i] = key;
        masks[i] |= (uint32_t)1 << u;
    }
    free(anchor_keys);
    free(anchor_masks);
    anchor_keys = keys;
    anchor_masks = masks;
    anchor_cap = cap;
    return 0;
}

static uint32_t anchor_units(int64_t a, int64_t b)
{
    uint32_t key = (uint32_t)(a << 16 | b) + 1;
    uint32_t i = (uint32_t)(mix(key) >> 32) & (anchor_cap - 1);
    for (;;) {
        if (anchor_keys[i] == key)
            return anchor_masks[i];
        if (!anchor_keys[i])
            return 0;
        i = (i + 1) & (anchor_cap - 1);
    }
}

/* -- packed keys -------------------------------------------------------- */

/* A unigram is its code (< 2^40) under tag 1.  The later terms of pairs
 * and triples are numbers below nn_max or units, so they fit 16 bits as
 * small(): the number itself, or SMALL_UNIT | unit index.  A pair is its
 * number (< 2^40) and small(second) under tag 2; a triple is its first
 * number and two small()s under tag 3. */
#define TAG(t) ((uint64_t)(t) << 62)
#define LOW40 (((uint64_t)1 << 40) - 1)

static inline uint64_t small(int64_t code)
{
    return code < unit_base ? (uint64_t)code : SMALL_UNIT | (uint64_t)(code - unit_base);
}

static inline int64_t unsmall(uint64_t s)
{
    return s & SMALL_UNIT ? unit_base + (int64_t)(s & ~(uint64_t)SMALL_UNIT) : (int64_t)s;
}

/* -- the counter -------------------------------------------------------- */

typedef struct {
    int64_t pos, code;
} term;

typedef struct {
    uint64_t *keys; /* 0: empty slot */
    int64_t *counts;
    uint64_t cap, used;
    int shift;
    term *terms;
    int64_t terms_cap;
    int64_t maxdist;
    int64_t max_digits;
} counter;

#define MIN_CAP 1024

/* Gives c an empty table of cap (a power of two) slots; leaves c as it
 * was when out of memory. */
static int table_alloc(counter *c, uint64_t cap)
{
    uint64_t *keys = calloc(cap, sizeof *keys);
    int64_t *counts = malloc(cap * sizeof *counts);
    if (!keys || !counts) {
        free(keys);
        free(counts);
        return -1;
    }
    c->keys = keys;
    c->counts = counts;
    c->cap = cap;
    c->used = 0;
    c->shift = 64;
    while (cap > 1) {
        cap >>= 1;
        c->shift--;
    }
    return 0;
}

counter *fg_new(int64_t window, int64_t max_digits)
{
    counter *c = calloc(1, sizeof *c);
    if (!c)
        return NULL;
    c->maxdist = window - 1;
    c->max_digits = max_digits;
    if (table_alloc(c, MIN_CAP)) {
        free(c);
        return NULL;
    }
    return c;
}

void fg_free(counter *c)
{
    if (!c)
        return;
    free(c->keys);
    free(c->counts);
    free(c->terms);
    free(c);
}

/* Drops every count, and the table's memory with them. */
int fg_clear(counter *c)
{
    uint64_t *keys = c->keys;
    int64_t *counts = c->counts;
    if (table_alloc(c, MIN_CAP))
        return -1;
    free(keys);
    free(counts);
    return 0;
}

int64_t fg_size(const counter *c) { return (int64_t)c->used; }

static int grow(counter *c)
{
    uint64_t *keys = c->keys;
    int64_t *counts = c->counts;
    uint64_t cap = c->cap, used = c->used;
    if (table_alloc(c, 2 * cap))
        return -1;
    uint64_t mask = c->cap - 1;
    for (uint64_t i = 0; i < cap; i++) {
        if (!keys[i])
            continue;
        uint64_t j = mix(keys[i]) >> c->shift;
        while (c->keys[j])
            j = (j + 1) & mask;
        c->keys[j] = keys[i];
        c->counts[j] = counts[i];
    }
    c->used = used;
    free(keys);
    free(counts);
    return 0;
}

static int bump(counter *c, uint64_t key)
{
    for (;;) {
        uint64_t mask = c->cap - 1;
        uint64_t i = mix(key) >> c->shift;
        while (c->keys[i]) {
            if (c->keys[i] == key) {
                c->counts[i]++;
                return 0;
            }
            i = (i + 1) & mask;
        }
        if (4 * (c->used + 1) <= 3 * c->cap) {
            c->keys[i] = key;
            c->counts[i] = 1;
            c->used++;
            return 0;
        }
        if (grow(c))
            return -1;
    }
}

/* Writes each entry as 4 int64s, (t0, t1, t2, count) with -1 for absent
 * terms, to rows (4 * fg_size entries); returns the entry count. */
int64_t fg_dump(const counter *c, int64_t *rows)
{
    int64_t k = 0;
    for (uint64_t i = 0; i < c->cap; i++) {
        uint64_t key = c->keys[i];
        if (!key)
            continue;
        int64_t *row = rows + 4 * k++;
        row[1] = row[2] = -1;
        switch (key >> 62) {
        case 1:
            row[0] = (int64_t)(key & LOW40);
            break;
        case 2:
            row[0] = (int64_t)(key & LOW40);
            row[1] = unsmall(key >> 40 & 0xFFFF);
            break;
        default:
            row[0] = (int64_t)(key & 0xFFFF);
            row[1] = unsmall(key >> 16 & 0xFFFF);
            row[2] = unsmall(key >> 32 & 0xFFFF);
        }
        row[3] = c->counts[i];
    }
    return k;
}

/* -- one document ------------------------------------------------------- */

/* Code of the stripped, non-empty token s[0:len], or -1. */
static int64_t classify(const counter *c, const unsigned char *s, int64_t len)
{
    if (s[0] >= '0' && s[0] <= '9') {
        /* a unit form starts with a letter, so this is a number or nothing */
        if (len > c->max_digits)
            return -1;
        int64_t value = 0;
        for (int64_t i = 0; i < len; i++) {
            if (s[i] < '0' || s[i] > '9')
                return -1;
            value = value * 10 + (s[i] - '0');
        }
        return value;
    }
    /* the lowered characters, one a byte, with their count in the top byte */
    uint64_t word = 0;
    int64_t m = 0;
    for (int64_t i = 0; i < len;) {
        unsigned char ch = s[i];
        if (ch < 0x80) {
            if (ch >= 'A' && ch <= 'Z')
                ch += 'a' - 'A';
            i++;
        } else {
            int w;
            uint32_t cp = decode(s + i, len - i, &w);
            i += w;
            ch = 0;
            for (size_t l = 0; l < N_LOWERS; l++)
                if (LOWER_FROM[l] == cp)
                    ch = LOWER_TO[l];
            if (!ch)
                return -1;
        }
        if (m == MAX_FORM_LEN)
            return -1;
        word |= (uint64_t)ch << 8 * m++;
    }
    word |= (uint64_t)m << 56;
    for (int64_t f = 0; f < n_forms; f++)
        if (form_words[f] == word)
            return form_codes[f];
    return -1;
}

static int add_term(counter *c, int64_t k, int64_t pos, int64_t code)
{
    if (k == c->terms_cap) {
        int64_t cap = c->terms_cap ? 2 * c->terms_cap : 256;
        term *terms = realloc(c->terms, (size_t)cap * sizeof *terms);
        if (!terms)
            return -1;
        c->terms = terms;
        c->terms_cap = cap;
    }
    c->terms[k].pos = pos;
    c->terms[k].code = code;
    return 0;
}

/* Scans s[0:n] into c->terms; returns the term count (-1: out of memory)
 * and adds the token count to *tokens. */
static int64_t scan(counter *c, const unsigned char *s, int64_t n, int64_t *tokens)
{
    int64_t i = 0, position = 0, k = 0;
    for (;;) {
        int w;
        while (i < n && (w = space_width(s + i, n - i)))
            i += w;
        if (i >= n)
            break;
        int64_t a = i;
        while (i < n && !space_width(s + i, n - i))
            i++;
        int64_t b = i;
        while (a < b && (byte_class[s[a]] & STRIP))
            a++;
        while (b > a && (byte_class[s[b - 1]] & STRIP))
            b--;
        if (a < b && (byte_class[s[a]] & TERM_START)) {
            int64_t code = classify(c, s + a, b - a);
            if (code >= 0 && add_term(c, k++, position, code))
                return -1;
        }
        position++;
    }
    *tokens += position;
    return k;
}

/* Counts the triples of the in-window number pair (j, idx), a <= b: each
 * unit term whose position keeps the three within the window. */
static int add_triples(counter *c, int64_t k, int64_t lo, int64_t j, int64_t a, int64_t b,
                       uint32_t units)
{
    const term *t = c->terms;
    int64_t last = t[j].pos + c->maxdist;
    for (int64_t i = lo; i < k && t[i].pos <= last; i++) {
        int64_t u = t[i].code - unit_base;
        if (u >= 0 && (units >> u & 1)) {
            uint64_t key = TAG(3) | (uint64_t)a | small(b) << 16 | small(t[i].code) << 32;
            if (bump(c, key))
                return -1;
        }
    }
    return 0;
}

static int count_document(counter *c, const unsigned char *s, int64_t n, int64_t *tokens)
{
    int64_t k = scan(c, s, n, tokens);
    if (k < 0)
        return -1;
    const term *t = c->terms;
    int64_t lo = 0;
    for (int64_t idx = 0; idx < k; idx++) {
        int64_t p = t[idx].pos, code = t[idx].code;
        if (bump(c, TAG(1) | (uint64_t)code))
            return -1;
        while (t[lo].pos < p - c->maxdist)
            lo++;
        int unit = code >= unit_base;
        for (int64_t j = lo; j < idx; j++) {
            int64_t d = t[j].code;
            uint64_t key;
            if (d >= unit_base) {
                if (unit)
                    continue;
                key = TAG(2) | (uint64_t)code | small(d) << 40;
            } else if (unit) {
                key = TAG(2) | (uint64_t)d | small(code) << 40;
            } else if (code < nn_max && d < nn_max) {
                int64_t a = d <= code ? d : code, b = d <= code ? code : d;
                key = TAG(2) | (uint64_t)a | small(b) << 40;
                uint32_t units = anchor_units(a, b);
                if (units && add_triples(c, k, lo, j, a, b, units))
                    return -1;
            } else {
                continue;
            }
            if (bump(c, key))
                return -1;
        }
    }
    return 0;
}

/* -- batches ------------------------------------------------------------ */

/* Counts the documents of buf[start:len], separated by SEPARATOR, adding
 * the document and token counts to totals[0] and totals[1].  Stops after
 * the first document at whose end the table holds at least threshold
 * keys.  Returns the end offset of the last document counted (its
 * separator's offset, or len), or -1 when out of memory. */
int64_t fg_count(counter *c, const unsigned char *buf, int64_t start, int64_t len,
                 int64_t threshold, int64_t *totals)
{
    int64_t i = start;
    for (;;) {
        const unsigned char *sep = memchr(buf + i, SEPARATOR, (size_t)(len - i));
        int64_t end = sep ? sep - buf : len;
        if (count_document(c, buf + i, end - i, &totals[1]))
            return -1;
        totals[0]++;
        if (end == len || (int64_t)c->used >= threshold)
            return end;
        i = end + 1;
    }
}
