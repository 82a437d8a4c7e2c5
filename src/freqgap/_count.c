/* The compiled counting kernel of freqgap.counting: term scan, window
 * loop and count table for batches of documents, and the records of
 * JSONL lines.
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
 * fg_count_jsonl counts JSONL lines as they are read: for each line it
 * decides what json.loads(line.decode("utf-8"))["text"] gives (see
 * "JSONL records" below), and counts that text in place, or from a
 * scratch buffer when it holds escapes.  A line it cannot decide exactly
 * goes back to the caller, which decodes it with Python's json.
 *
 * Counts live in an open-addressing table keyed by packed 64-bit ints
 * (see "packed keys" below); fg_dump unpacks them.  The tests compare
 * this kernel with the Python path and with a brute-force oracle, and
 * pin SPACE_POINTS and LOWER_FROM against the running Python's str.
 *
 * Built as a plain shared library (no Python headers) and called through
 * ctypes: fg_setup once per process, then fg_new, fg_count,
 * fg_count_jsonl, fg_size, fg_dump, fg_clear and fg_free per counter.
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

#define MAX_FORMS 64
#define MAX_FORM_LEN 7 /* a form and its length pack into one uint64 */
#define FORM_BITS 7 /* the forms' hash has 2^FORM_BITS >= 2 * MAX_FORMS slots */
#define FORM_SLOTS (1 << FORM_BITS)
#define MAX_UNITS 32
#define SMALL_UNIT 0x8000 /* see small() */

static unsigned char strip_byte[256];
/* Bit b1 & 63 of pair_bits[b0][b1 >> 6] is set when a token whose first
 * two bytes are b0 and b1 (each with bit 0x20 set, which lower-cases an
 * ASCII letter) may be a term (see fg_setup). */
static uint64_t pair_bits[256][4];
/* The unit forms as packed words (see classify), hashed by mix(); an
 * empty slot holds 0, which no word is. */
static uint64_t form_words[FORM_SLOTS];
static int64_t form_codes[FORM_SLOTS];
static int64_t form_min_len, form_max_len;
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

/* Byte length of the whitespace character at s[0:n], or 0; s[0] >= 0x80. */
static int space_width(const unsigned char *s, int64_t n)
{
    int w;
    uint32_t cp = decode(s, n, &w);
    for (size_t i = 0; i < N_SPACES; i++)
        if (SPACE_POINTS[i] == cp)
            return w;
    return 0;
}

/* -- set-up ------------------------------------------------------------- */

static uint64_t mix(uint64_t key) { return key * 0x9E3779B97F4A7C15ULL; }

static inline uint32_t form_slot(uint64_t word) { return (uint32_t)(mix(word) >> (64 - FORM_BITS)); }

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

/* Sets the bits of pair_bits that let the tokens whose first byte is b0
 * and second byte is in [lo, hi] through, in either case of each. */
static void allow_pairs(unsigned char b0, int lo, int hi)
{
    for (int b1 = lo; b1 <= hi; b1++)
        pair_bits[b0 | 0x20][(b1 | 0x20) >> 6] |= (uint64_t)1 << ((b1 | 0x20) & 63);
}

/* Whether a token whose first two bytes are b0 and b1 may be a term: a
 * filter, exact about ASCII letters and conservative about the rest. */
static inline int may_be_term(unsigned char b0, unsigned char b1)
{
    b0 |= 0x20;
    b1 |= 0x20;
    return (int)(pair_bits[b0][b1 >> 6] >> (b1 & 63) & 1);
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
    memset(strip_byte, 0, sizeof strip_byte);
    memset(pair_bits, 0, sizeof pair_bits);
    for (int64_t i = 0; i < n_strip; i++) {
        if (strip[i] >= 0x80)
            return -1;
        strip_byte[strip[i]] = 1;
        allow_pairs(strip[i], 0, 0xFF);
    }
    for (int ch = '0'; ch <= '9'; ch++)
        allow_pairs((unsigned char)ch, 0, 0xFF);
    memset(form_words, 0, sizeof form_words);
    form_min_len = MAX_FORM_LEN;
    form_max_len = 0;
    for (int64_t f = 0; f < n; f++) {
        if (lens[f] < 1 || lens[f] > MAX_FORM_LEN || lens[f] > width
            || codes[f] < base || codes[f] >= base + MAX_UNITS)
            return -1;
        const unsigned char *form = packed + f * width;
        uint64_t word = (uint64_t)lens[f] << 56;
        for (int64_t i = 0; i < lens[f]; i++)
            word |= (uint64_t)form[i] << 8 * i;
        uint32_t slot = form_slot(word);
        while (form_words[slot] && form_words[slot] != word)
            slot = (slot + 1) & (FORM_SLOTS - 1);
        form_words[slot] = word;
        form_codes[slot] = codes[f];
        if (lens[f] < form_min_len)
            form_min_len = lens[f];
        if (lens[f] > form_max_len)
            form_max_len = lens[f];
        unsigned char first = form[0];
        if (first >= 0x80 || (first >= 'A' && first <= 'Z'))
            return -1; /* forms are lower-case ASCII */
        /* A token of the form begins with its first letter in either case,
         * followed by: whatever ends the token, for a one-letter form; the
         * second letter in either case; or a byte >= 0x80, the first of a
         * character in LOWER_FROM.  Or it begins with such a character,
         * whose second byte is >= 0x80. */
        if (lens[f] == 1)
            allow_pairs(first, 0, 0xFF);
        else
            allow_pairs(first, form[1], form[1]);
        allow_pairs(first, 0x80, 0xFF);
        for (size_t l = 0; l < N_LOWERS; l++)
            if (LOWER_TO[l] == first)
                allow_pairs((unsigned char)encode_lead(LOWER_FROM[l]), 0x80, 0xFF);
    }
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
    unsigned char *scratch; /* a record's text without its escapes */
    int64_t scratch_cap;
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
    free(c->scratch);
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
    /* no character is shorter than a byte */
    if (len < form_min_len)
        return -1;
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
        if (m == form_max_len)
            return -1;
        word |= (uint64_t)ch << 8 * m++;
    }
    word |= (uint64_t)m << 56;
    for (uint32_t slot = form_slot(word); form_words[slot]; slot = (slot + 1) & (FORM_SLOTS - 1))
        if (form_words[slot] == word)
            return form_codes[slot];
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

/* Adds the token s[a:b] at position to c->terms when it is a term; -1
 * when out of memory. */
static inline int token(counter *c, const unsigned char *s, int64_t a, int64_t b,
                        int64_t position, int64_t *k)
{
    while (a < b && strip_byte[s[a]])
        a++;
    while (b > a && strip_byte[s[b - 1]])
        b--;
    if (a < b && may_be_term(s[a], b - a > 1 ? s[a + 1] : ' ')) {
        int64_t code = classify(c, s + a, b - a);
        if (code >= 0 && add_term(c, (*k)++, position, code))
            return -1;
    }
    return 0;
}

#define ONES 0x0101010101010101ULL
#define HIGHS 0x8080808080808080ULL

/* s[0:8] as a little-endian word on any host: byte i is bits 8i..8i+7. */
static inline uint64_t load_le(const unsigned char *s)
{
    return (uint64_t)s[0] | (uint64_t)s[1] << 8 | (uint64_t)s[2] << 16 | (uint64_t)s[3] << 24
           | (uint64_t)s[4] << 32 | (uint64_t)s[5] << 40 | (uint64_t)s[6] << 48
           | (uint64_t)s[7] << 56;
}

/* The high bit of each byte of the word low7 (bytes below 0x80) that lies
 * in [lo, hi]: adding to seven bits carries into no other byte. */
static inline uint64_t in_range(uint64_t low7, unsigned lo, unsigned hi)
{
    return (low7 + (0x80 - lo) * ONES) & ~(low7 + (0x7F - hi) * ONES) & HIGHS;
}

/* Bit 8i+7 of x gathered into bit i: the products' bits are distinct. */
static inline uint64_t gather(uint64_t x) { return ((x >> 7) * 0x0102040810204080ULL) >> 56; }

/* The spaces of the 64 bytes s[base:base + 64], which chunk holds (padded
 * with ASCII spaces past n): bit i set when byte i belongs to a whitespace
 * character.  *carry brings the bits of a space that the chunk before left
 * unfinished, and takes those of one that runs into the next chunk. */
static inline uint64_t space_mask(const unsigned char *s, int64_t n, int64_t base,
                                  const unsigned char *chunk, uint64_t *carry)
{
    uint64_t mask = *carry, leads = 0;
    for (int k = 0; k < 8; k++) {
        uint64_t x = load_le(chunk + 8 * k), low7 = x & ~HIGHS;
        /* the ASCII SPACE_POINTS: 0x09-0x0D and 0x1C-0x20 */
        mask |= gather((in_range(low7, 0x09, 0x0D) | in_range(low7, 0x1C, 0x20)) & ~x) << 8 * k;
        /* the first bytes of the others: 0xC2 and 0xE1-0xE3 */
        if (x & HIGHS)
            leads |= gather((in_range(low7, 0x42, 0x42) | in_range(low7, 0x61, 0x63)) & x) << 8 * k;
    }
    *carry = 0;
    for (; leads; leads &= leads - 1) {
        int i = __builtin_ctzll(leads), w;
        /* a lead byte inside a space is no UTF-8, and no space of its own */
        if (mask >> i & 1 || !(w = space_width(s + base + i, n - base - i)))
            continue;
        uint64_t bits = ((uint64_t)1 << w) - 1;
        mask |= bits << i;
        if (i + w > 64)
            *carry = bits >> (64 - i);
    }
    return mask;
}

/* Scans s[0:n] into c->terms; returns the term count (-1: out of memory)
 * and adds the token count to *tokens.  Each 64-byte chunk gets its exact
 * space mask; a token starts at each non-space byte after a space (or at
 * 0), and its position is the count of starts before it.  Only a token
 * whose first two bytes pass may_be_term is stripped and classified; its
 * end is the next space, in this chunk or a later one. */
static int64_t scan(counter *c, const unsigned char *s, int64_t n, int64_t *tokens)
{
    int64_t position = 0, k = 0; /* position: the tokens started before the chunk */
    int64_t open = -1, open_position = 0; /* a candidate token without its end yet */
    uint64_t space_before = 1, carry = 0;
    unsigned char tail[65]; /* the last chunk, and the byte after it */
    for (int64_t base = 0; base < n; base += 64) {
        const unsigned char *chunk = s + base;
        if (n - base <= 64) {
            memset(tail, ' ', sizeof tail);
            memcpy(tail, chunk, (size_t)(n - base));
            chunk = tail;
        }
        uint64_t space = space_mask(s, n, base, chunk, &carry);
        uint64_t starts = ~space & (space << 1 | space_before);
        space_before = space >> 63;
        if (open >= 0 && space) {
            if (token(c, s, open, base + __builtin_ctzll(space), open_position, &k))
                return -1;
            open = -1;
        }
        uint64_t candidates = 0;
        for (uint64_t m = starts; m; m &= m - 1) {
            int i = __builtin_ctzll(m);
            candidates |= (uint64_t)may_be_term(chunk[i], chunk[i + 1]) << i;
        }
        for (; candidates; candidates &= candidates - 1) {
            int i = __builtin_ctzll(candidates);
            int64_t p = base + i;
            int64_t pos = position + __builtin_popcountll(starts & (((uint64_t)1 << i) - 1));
            uint64_t rest = space >> i;
            if (!rest) {
                open = p;
                open_position = pos;
            } else if (token(c, s, p, p + __builtin_ctzll(rest), pos, &k)) {
                return -1;
            }
        }
        position += __builtin_popcountll(starts);
    }
    if (open >= 0 && token(c, s, open, n, open_position, &k))
        return -1;
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

/* -- JSONL records ------------------------------------------------------ */

/* For each line, the kernel decides what
 *
 *     json.loads(line.decode("utf-8"))["text"]
 *
 * gives in Python (the json module's C scanner, default options): strict
 * UTF-8; JSON whitespace (space, tab, LF, CR) only; strings without raw
 * control characters, with the escapes \" \\ \/ \b \f \n \r \t \uXXXX,
 * a high surrogate escape followed by a low one joined into one
 * character and any other surrogate escape kept as a lone surrogate;
 * NaN, Infinity and -Infinity; the last of duplicate keys wins, keys
 * compared after their escapes.  A line that raises, is no object, or
 * whose "text" is missing or no string is skipped; a line that
 * bytes.strip() empties is ignored.  Two things depend on the running
 * Python, so such a line goes back to the caller: containers nested
 * deeper than MAX_DEPTH (Python's recursion limit) and integer literals
 * of more than MAX_INT_DIGITS digits (sys.set_int_max_str_digits). */

#define MAX_DEPTH 64
#define MAX_INT_DIGITS 640 /* the lowest limit set_int_max_str_digits accepts */

enum { LINE_BLANK, LINE_SKIP, LINE_TEXT, LINE_PYTHON };

typedef struct {
    const unsigned char *end; /* of the line */
    int verdict;              /* LINE_SKIP or LINE_PYTHON, once a scan fails */
} json;

static const unsigned char *fail(json *j, int verdict)
{
    j->verdict = verdict;
    return NULL;
}

static inline const unsigned char *skip_ws(const unsigned char *p, const unsigned char *e)
{
    while (p < e && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
        p++;
    return p;
}

static inline int is_digit(unsigned char ch) { return ch >= '0' && ch <= '9'; }

/* The value of the four hex digits at s, or -1. */
static int32_t hex4(const unsigned char *s)
{
    int32_t v = 0;
    for (int i = 0; i < 4; i++) {
        unsigned char ch = s[i];
        int d = is_digit(ch) ? ch - '0' : (ch | 0x20) >= 'a' && (ch | 0x20) <= 'f'
                                              ? (ch | 0x20) - 'a' + 10 : -1;
        if (d < 0)
            return -1;
        v = v << 4 | d;
    }
    return v;
}

/* Length of the UTF-8 sequence at s[0:n], s[0] >= 0x80, as Python's
 * strict decoder reads it (no overlong forms, surrogates or code points
 * above U+10FFFF); 0 when invalid. */
static int utf8_width(const unsigned char *s, int64_t n)
{
    unsigned char b = s[0], lo = 0x80, hi = 0xBF;
    int w;
    if (b >= 0xC2 && b <= 0xDF) {
        w = 2;
    } else if (b >= 0xE0 && b <= 0xEF) {
        w = 3;
        if (b == 0xE0)
            lo = 0xA0;
        else if (b == 0xED)
            hi = 0x9F;
    } else if (b >= 0xF0 && b <= 0xF4) {
        w = 4;
        if (b == 0xF0)
            lo = 0x90;
        else if (b == 0xF4)
            hi = 0x8F;
    } else {
        return 0;
    }
    if (w > n || s[1] < lo || s[1] > hi)
        return 0;
    for (int i = 2; i < w; i++)
        if ((s[i] & 0xC0) != 0x80)
            return 0;
    return w;
}

/* Whether any byte of x is a quote, a backslash, below 0x20 or above 0x7F. */
static inline int string_stop(uint64_t x)
{
    uint64_t quote = x ^ ('"' * ONES), backslash = x ^ ('\\' * ONES);
    return (((x - 0x20 * ONES) & ~x) | ((quote - ONES) & ~quote)
            | ((backslash - ONES) & ~backslash) | x) & HIGHS ? 1 : 0;
}

/* Scans the string whose opening quote is p[-1]; returns the position
 * after its closing quote, or NULL when it is no string json reads or not
 * UTF-8.  Sets *escaped when it holds an escape. */
static const unsigned char *scan_string(const unsigned char *p, const unsigned char *e, int *escaped)
{
    for (;;) {
        while (e - p >= 8) {
            uint64_t x;
            memcpy(&x, p, 8);
            if (string_stop(x))
                break;
            p += 8;
        }
        if (p >= e)
            return NULL;
        unsigned char ch = *p;
        if (ch == '"')
            return p + 1;
        if (ch == '\\') {
            *escaped = 1;
            if (e - p < 2)
                return NULL;
            switch (p[1]) {
            case '"': case '\\': case '/': case 'b': case 'f': case 'n': case 'r': case 't':
                p += 2;
                break;
            case 'u':
                if (e - p < 6 || hex4(p + 2) < 0)
                    return NULL;
                p += 6;
                break;
            default:
                return NULL;
            }
        } else if (ch < 0x20) {
            return NULL;
        } else if (ch < 0x80) {
            p++;
        } else {
            int w = utf8_width(p, e - p);
            if (!w)
                return NULL;
            p += w;
        }
    }
}

/* Writes cp as UTF-8 to out, a surrogate as "surrogatepass" does;
 * returns the byte count. */
static int encode_utf8(uint32_t cp, unsigned char *out)
{
    if (cp < 0x80) {
        out[0] = (unsigned char)cp;
        return 1;
    }
    if (cp < 0x800) {
        out[0] = (unsigned char)(0xC0 | cp >> 6);
        out[1] = (unsigned char)(0x80 | (cp & 0x3F));
        return 2;
    }
    if (cp < 0x10000) {
        out[0] = (unsigned char)(0xE0 | cp >> 12);
        out[1] = (unsigned char)(0x80 | (cp >> 6 & 0x3F));
        out[2] = (unsigned char)(0x80 | (cp & 0x3F));
        return 3;
    }
    out[0] = (unsigned char)(0xF0 | cp >> 18);
    out[1] = (unsigned char)(0x80 | (cp >> 12 & 0x3F));
    out[2] = (unsigned char)(0x80 | (cp >> 6 & 0x3F));
    out[3] = (unsigned char)(0x80 | (cp & 0x3F));
    return 4;
}

/* Writes the text of the string body s[0:n], which scan_string accepted,
 * to out (at most n bytes: no escape is shorter than its UTF-8); returns
 * its length. */
static int64_t unescape(const unsigned char *s, int64_t n, unsigned char *out)
{
    const unsigned char *e = s + n;
    unsigned char *o = out;
    for (;;) {
        const unsigned char *bs = memchr(s, '\\', (size_t)(e - s));
        if (!bs)
            bs = e;
        memcpy(o, s, (size_t)(bs - s));
        o += bs - s;
        if (bs == e)
            return o - out;
        s = bs + 2;
        switch (bs[1]) {
        case 'b': *o++ = '\b'; break;
        case 'f': *o++ = '\f'; break;
        case 'n': *o++ = '\n'; break;
        case 'r': *o++ = '\r'; break;
        case 't': *o++ = '\t'; break;
        case 'u': {
            uint32_t cp = (uint32_t)hex4(s);
            s += 4;
            if (cp >= 0xD800 && cp <= 0xDBFF && e - s >= 6 && s[0] == '\\' && s[1] == 'u') {
                uint32_t low = (uint32_t)hex4(s + 2);
                if (low >= 0xDC00 && low <= 0xDFFF) {
                    cp = 0x10000 + ((cp - 0xD800) << 10 | (low - 0xDC00));
                    s += 6;
                }
            }
            o += encode_utf8(cp, o);
            break;
        }
        default: /* " \ / */
            *o++ = bs[1];
        }
    }
}

/* Scans a number at p; NULL when there is none, or (verdict LINE_PYTHON)
 * when it is an integer literal of more than MAX_INT_DIGITS digits.  A
 * '.', 'e' or 'E' it leaves unread fails the caller, as in json. */
static const unsigned char *scan_number(json *j, const unsigned char *p)
{
    const unsigned char *e = j->end;
    if (p < e && *p == '-')
        p++;
    const unsigned char *digits = p;
    if (p < e && *p == '0')
        p++;
    else if (p < e && *p >= '1' && *p <= '9')
        while (p < e && is_digit(*p))
            p++;
    else
        return fail(j, LINE_SKIP);
    int64_t n_digits = p - digits;
    int integer = 1;
    if (e - p >= 2 && *p == '.' && is_digit(p[1])) {
        for (p += 2; p < e && is_digit(*p); p++)
            ;
        integer = 0;
    }
    if (p < e && (*p == 'e' || *p == 'E')) {
        const unsigned char *q = p + 1;
        if (q < e && (*q == '+' || *q == '-'))
            q++;
        if (q < e && is_digit(*q)) {
            for (p = q; p < e && is_digit(*p); p++)
                ;
            integer = 0;
        }
    }
    if (integer && n_digits > MAX_INT_DIGITS)
        return fail(j, LINE_PYTHON);
    return p;
}

static const unsigned char *scan_literal(json *j, const unsigned char *p, const char *word)
{
    size_t n = strlen(word);
    if ((size_t)(j->end - p) < n || memcmp(p, word, n))
        return fail(j, LINE_SKIP);
    return p + n;
}

static const unsigned char *scan_value(json *j, const unsigned char *p, int depth);

/* Scans the object or array opened at p, at nesting depth. */
static const unsigned char *scan_container(json *j, const unsigned char *p, int depth)
{
    const unsigned char *e = j->end;
    if (depth > MAX_DEPTH)
        return fail(j, LINE_PYTHON);
    unsigned char close = *p == '{' ? '}' : ']';
    p = skip_ws(p + 1, e);
    if (p < e && *p == close)
        return p + 1;
    for (;;) {
        if (close == '}') {
            int escaped;
            if (p >= e || *p != '"' || !(p = scan_string(p + 1, e, &escaped)))
                return fail(j, LINE_SKIP);
            p = skip_ws(p, e);
            if (p >= e || *p != ':')
                return fail(j, LINE_SKIP);
            p = skip_ws(p + 1, e);
        }
        if (!(p = scan_value(j, p, depth)))
            return NULL;
        p = skip_ws(p, e);
        if (p < e && *p == close)
            return p + 1;
        if (p >= e || *p != ',')
            return fail(j, LINE_SKIP);
        p = skip_ws(p + 1, e);
    }
}

/* Scans the value at p inside containers nested depth deep. */
static const unsigned char *scan_value(json *j, const unsigned char *p, int depth)
{
    const unsigned char *e = j->end;
    if (p >= e)
        return fail(j, LINE_SKIP);
    switch (*p) {
    case '"': {
        int escaped;
        p = scan_string(p + 1, e, &escaped);
        return p ? p : fail(j, LINE_SKIP);
    }
    case '{':
    case '[':
        return scan_container(j, p, depth + 1);
    case 'n':
        return scan_literal(j, p, "null");
    case 't':
        return scan_literal(j, p, "true");
    case 'f':
        return scan_literal(j, p, "false");
    case 'N':
        return scan_literal(j, p, "NaN");
    case 'I':
        return scan_literal(j, p, "Infinity");
    case '-':
        if (e - p >= 9 && !memcmp(p + 1, "Infinity", 8))
            return p + 9;
        /* fall through */
    default:
        return scan_number(j, p);
    }
}

/* Whether the key body s[0:n], which scan_string accepted, reads "text". */
static int is_text_key(const unsigned char *s, int64_t n, int escaped)
{
    if (!escaped)
        return n == 4 && !memcmp(s, "text", 4);
    unsigned char key[24]; /* four characters, each at most six bytes */
    return n <= (int64_t)sizeof key && unescape(s, n, key) == 4 && !memcmp(key, "text", 4);
}

/* Decides the line s[0:n] (without its newline): LINE_TEXT with the body
 * of its "text" string in *text, *len and *escaped, or LINE_BLANK,
 * LINE_SKIP or LINE_PYTHON. */
static int parse_record(const unsigned char *s, int64_t n, const unsigned char **text,
                        int64_t *len, int *escaped)
{
    const unsigned char *e = s + n, *p = s;
    while (p < e && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) /* bytes.strip()'s set */
        p++;
    if (p == e)
        return LINE_BLANK;
    /* a line that holds no object raises in json.loads or in ["text"] */
    p = skip_ws(s, e);
    if (p == e || *p != '{')
        return LINE_SKIP;
    json j = {e, LINE_SKIP};
    int found = 0; /* 1: "text" is a string, 2: it is some other value */
    p = skip_ws(p + 1, e);
    if (p < e && *p == '}') {
        p++;
    } else {
        for (;;) {
            if (p >= e || *p != '"')
                return LINE_SKIP;
            int key_escaped = 0;
            const unsigned char *key = p + 1;
            if (!(p = scan_string(key, e, &key_escaped)))
                return LINE_SKIP;
            int is_text = is_text_key(key, p - 1 - key, key_escaped);
            p = skip_ws(p, e);
            if (p >= e || *p != ':')
                return LINE_SKIP;
            p = skip_ws(p + 1, e);
            if (is_text && p < e && *p == '"') {
                *text = p + 1;
                *escaped = 0;
                if (!(p = scan_string(p + 1, e, escaped)))
                    return LINE_SKIP;
                *len = p - 1 - *text;
                found = 1;
            } else {
                if (!(p = scan_value(&j, p, 1)))
                    return j.verdict;
                if (is_text)
                    found = 2;
            }
            p = skip_ws(p, e);
            if (p < e && *p == '}') {
                p++;
                break;
            }
            if (p >= e || *p != ',')
                return LINE_SKIP;
            p = skip_ws(p + 1, e);
        }
    }
    if (skip_ws(p, e) != e || found != 1)
        return LINE_SKIP;
    return LINE_TEXT;
}

/* Counts the records of the JSONL lines in buf[start:len] (each line
 * ends in '\n', but for one at len), adding the documents, tokens and
 * skipped lines to totals[0], totals[1] and totals[2].  Stops after the
 * first record at whose end the table holds at least threshold keys, or
 * before a line it cannot decide, which it marks by setting totals[3] to
 * 1.  Returns the offset of the line it stopped before (len when there
 * is none), or -1 when out of memory. */
int64_t fg_count_jsonl(counter *c, const unsigned char *buf, int64_t start, int64_t len,
                       int64_t threshold, int64_t *totals)
{
    for (int64_t i = start; i < len;) {
        const unsigned char *nl = memchr(buf + i, '\n', (size_t)(len - i));
        int64_t end = nl ? nl - buf : len, next = nl ? end + 1 : len;
        const unsigned char *text = NULL;
        int64_t n = 0;
        int escaped = 0;
        switch (parse_record(buf + i, end - i, &text, &n, &escaped)) {
        case LINE_PYTHON:
            totals[3] = 1;
            return i;
        case LINE_SKIP:
            totals[2]++;
            break;
        case LINE_TEXT:
            if (escaped) {
                if (n > c->scratch_cap) {
                    unsigned char *scratch = realloc(c->scratch, (size_t)n);
                    if (!scratch)
                        return -1;
                    c->scratch = scratch;
                    c->scratch_cap = n;
                }
                n = unescape(text, n, c->scratch);
                text = c->scratch;
            }
            if (count_document(c, text, n, &totals[1]))
                return -1;
            totals[0]++;
            if ((int64_t)c->used >= threshold)
                return next;
            break;
        }
        i = next;
    }
    return len;
}
