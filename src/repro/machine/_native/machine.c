/* Native phase-1 tracing interpreter.
 *
 * A machine-code port of the plain-tracing path of the Python CPU
 * (src/repro/machine/cpu.py, Cpu._loop) fused with the event emission of
 * the phase-1 tracer (src/repro/trace/tracer.py): it executes the flat
 * LoadedProgram image, charges the per-opcode cycle costs, keeps frames,
 * the stack pointer and the instruction budget exactly as the Python
 * loop does, and writes the INSTALL/REMOVE/WRITE events of every CALL,
 * RET and ST straight into the trace columns.
 *
 * Values.  Registers and memory cells are tagged: an int64 payload plus
 * a tag byte saying whether it holds a Python int, a float (the payload
 * is the IEEE-754 double's bits), or None.  Arithmetic follows Python's
 * rules for those types.  Where int64/double arithmetic could differ
 * from Python's unbounded ints (overflow, huge shifts, mixing an int
 * beyond 2^53 with a float, integer DIV/MOD on floats, F2I of a value
 * with no int64 image) or where Python would raise a TypeError (None or
 * float operands to integer-only operations), the kernel stops with
 * MS_ABANDON and the caller re-runs the program on the Python CPU.  The
 * faults whose message depends only on machine state (alignment, range,
 * stack overflow, division by zero, budget) stop with their own status
 * and the caller raises the Python tier's exception.
 *
 * Builtins.  sqrt/exp/log/fabs run here through libm; a non-finite
 * result abandons.  Every other builtin (the heap and print_*) stops
 * with MS_HOST so Python runs the existing runtime implementation, then
 * resumes through machine_host_return().
 *
 * Chunking.  With flush_at > 0 the kernel stops with MS_FLUSH after any
 * instruction whose events bring the buffered count to flush_at or more
 * (the per-hook rule of repro.trace.stream.ChunkingTracer), so streamed
 * chunk boundaries match the Python tier's.
 *
 * Plain C99 + libm, no Python.h; loaded through ctypes and guarded by
 * MACHINE_ABI_VERSION and the opcode-table handshake.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MACHINE_ABI_VERSION 1

#if defined(_WIN32)
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

/* Opcodes: the values of repro/machine/isa.py (checked at load time via
 * machine_opcodes()).  OP_BAD marks an instruction the encoder could not
 * represent; executing it abandons the run. */
enum {
    OP_BAD = 0,
    OP_LDI = 1, OP_MOV = 2, OP_LEAF = 3,
    OP_ADD = 10, OP_SUB = 11, OP_MUL = 12, OP_DIV = 13, OP_MOD = 14,
    OP_FADD = 15, OP_FSUB = 16, OP_FMUL = 17, OP_FDIV = 18,
    OP_AND = 20, OP_OR = 21, OP_XOR = 22, OP_SHL = 23, OP_SHR = 24,
    OP_NEG = 30, OP_FNEG = 31, OP_NOT = 32, OP_BNOT = 33, OP_I2F = 34,
    OP_F2I = 35,
    OP_EQ = 40, OP_NE = 41, OP_LT = 42, OP_LE = 43, OP_GT = 44, OP_GE = 45,
    OP_LD = 50, OP_ST = 51,
    OP_JMP = 60, OP_BF = 61, OP_BT = 62,
    OP_CALL = 70, OP_CALLB = 71, OP_RET = 72,
    OP_CHK = 80, OP_TRAP = 81,
    OP_NOP = 90, OP_HALT = 91,
    N_OPCODES = 92
};

static const int64_t OPCODE_TABLE[] = {
    OP_LDI, OP_MOV, OP_LEAF, OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MOD,
    OP_FADD, OP_FSUB, OP_FMUL, OP_FDIV, OP_AND, OP_OR, OP_XOR, OP_SHL,
    OP_SHR, OP_NEG, OP_FNEG, OP_NOT, OP_BNOT, OP_I2F, OP_F2I, OP_EQ, OP_NE,
    OP_LT, OP_LE, OP_GT, OP_GE, OP_LD, OP_ST, OP_JMP, OP_BF, OP_BT, OP_CALL,
    OP_CALLB, OP_RET, OP_CHK, OP_TRAP, OP_NOP, OP_HALT,
};
#define N_TABLE ((int64_t)(sizeof OPCODE_TABLE / sizeof OPCODE_TABLE[0]))

/* Value tags. */
#define T_INT 0
#define T_FLT 1
#define T_NONE 2

/* Event kinds (repro.trace.events.EventKind). */
#define EV_INSTALL 1
#define EV_REMOVE 2
#define EV_WRITE 3

/* Builtin kinds: run in Python, or one of the libm functions. */
#define B_HOST 0
#define B_SQRT 1
#define B_EXP 2
#define B_LOG 3
#define B_FABS 4

/* Why machine_start()/machine_run() returned (MachinePublic.status). */
#define MS_DONE 0
#define MS_HOST 1
#define MS_FLUSH 2
#define MS_ABANDON 3
#define MS_ALIGN 4        /* detail = address */
#define MS_LOAD_RANGE 5   /* detail = address */
#define MS_STORE_RANGE 6  /* detail = address */
#define MS_STACK 7        /* detail = function index */
#define MS_LIMIT 8
#define MS_INT_DIV0 9
#define MS_FLOAT_DIV0 10

/* Abandon reasons (MachinePublic.detail when status is MS_ABANDON). */
#define R_OVERFLOW 1
#define R_SHIFT 2
#define R_OPERAND 3       /* None/float where Python would raise */
#define R_MIXED 4         /* int beyond 2^53 mixed with a float */
#define R_F2I 5
#define R_OPCODE 6        /* unencodable instruction, CHK or TRAP */
#define R_MATH 7
#define R_BUILTIN 8
#define R_NOMEM 9
#define R_DEPTH 10

#define MAX_HOST_ARGS 8
#define MAX_DEPTH (1 << 20)
#define TWO53 (INT64_C(1) << 53)

/* The part of the machine Python reads and writes through ctypes
 * (mirrored by repro.machine.native._Public; keep in step). */
typedef struct {
    /* Counters. */
    int64_t instructions, cycles, stores;
    int64_t events;                 /* buffered events (reset by take) */
    int64_t n_writes, n_installs, n_removes;
    int64_t host_exits;
    int64_t max_depth;
    int64_t depth;
    /* Exit protocol. */
    int64_t status, detail;
    int64_t exit_val, exit_tag;
    int64_t host_builtin, host_nargs, host_dest;
    int64_t host_val[MAX_HOST_ARGS];
    int64_t host_tag[MAX_HOST_ARGS];
    /* Memory cells (Python views them for setup and the heap). */
    int64_t *mem;
    uint8_t *tag;
    int64_t mem_words;
} MachinePublic;

typedef struct { int64_t op, a, b, c, d; } Instr;

typedef struct { int64_t func, ret_pc, saved_fp, dest, base; } Frame;

typedef struct {
    MachinePublic pub;
    int64_t stack_limit, stack_top;
    int64_t sp, fp, pc;
    int64_t max_instructions, flush_at;
    int done;
    /* Program image. */
    Instr *code;
    int64_t n_code;
    int64_t *pool;                  /* CALL/CALLB argument registers */
    int64_t n_funcs;
    int64_t *f_entry, *f_nregs, *f_frame;
    int64_t *plan_start, *plan_off, *plan_size, *plan_obj;
    int64_t cost[N_OPCODES];
    int64_t n_builtins;
    int64_t *b_kind, *b_cycles;
    /* Event columns. */
    int8_t *kinds;
    int64_t *col_a, *col_b, *col_c;
    int64_t ev_cap;
    /* Frames and the register stack. */
    Frame *frames;
    int64_t frame_cap;
    int64_t *rv;
    uint8_t *rt;
    int64_t reg_top, reg_cap;
} Machine;

API int64_t machine_abi_version(void)
{
    return MACHINE_ABI_VERSION;
}

API int64_t machine_opcodes(int64_t *out, int64_t cap)
{
    for (int64_t i = 0; i < N_TABLE && i < cap; i++)
        out[i] = OPCODE_TABLE[i];
    return N_TABLE;
}

static void free_image(Machine *m)
{
    free(m->code); free(m->pool);
    free(m->f_entry); free(m->f_nregs); free(m->f_frame);
    free(m->plan_start); free(m->plan_off); free(m->plan_size);
    free(m->plan_obj);
    free(m->b_kind); free(m->b_cycles);
    m->code = NULL; m->pool = NULL;
    m->f_entry = m->f_nregs = m->f_frame = NULL;
    m->plan_start = m->plan_off = m->plan_size = m->plan_obj = NULL;
    m->b_kind = m->b_cycles = NULL;
}

API void machine_free(void *handle)
{
    Machine *m = (Machine *)handle;
    if (!m)
        return;
    free_image(m);
    free(m->pub.mem); free(m->pub.tag);
    free(m->kinds); free(m->col_a); free(m->col_b); free(m->col_c);
    free(m->frames); free(m->rv); free(m->rt);
    free(m);
}

/* Memory is calloc'd, so only the pages a program touches are resident,
 * and every cell starts as the int 0, like the Python CPU's memory. */
API void *machine_new(int64_t mem_words, int64_t stack_limit,
                      int64_t stack_top)
{
    Machine *m = (Machine *)calloc(1, sizeof(Machine));
    if (!m)
        return NULL;
    m->pub.mem = (int64_t *)calloc((size_t)mem_words, sizeof(int64_t));
    m->pub.tag = (uint8_t *)calloc((size_t)mem_words, 1);
    if (!m->pub.mem || !m->pub.tag) {
        machine_free(m);
        return NULL;
    }
    m->pub.mem_words = mem_words;
    m->stack_limit = stack_limit;
    m->stack_top = stack_top;
    m->sp = m->fp = stack_top;
    return m;
}

static int64_t *dup64(const int64_t *src, int64_t n)
{
    int64_t *out = (int64_t *)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (out && n > 0)
        memcpy(out, src, (size_t)n * sizeof(int64_t));
    return out;
}

/* Copy in the encoded image (rows of op, a, b, c, d), the argument-
 * register pool, per-function entry/register-count/frame-size, the frame
 * install plans (function f's entries are plan_start[f]..plan_start[f+1]),
 * the cycle-cost table and the builtin table.  Returns 0, or -1 when out
 * of memory. */
API int machine_load(void *handle,
                     const int64_t *code, int64_t n_code,
                     const int64_t *pool, int64_t n_pool,
                     int64_t n_funcs, const int64_t *f_entry,
                     const int64_t *f_nregs, const int64_t *f_frame,
                     const int64_t *plan_start, const int64_t *plan_off,
                     const int64_t *plan_size, const int64_t *plan_obj,
                     const int64_t *cost, int64_t n_cost,
                     int64_t n_builtins, const int64_t *b_kind,
                     const int64_t *b_cycles)
{
    Machine *m = (Machine *)handle;
    int64_t n_plan = plan_start[n_funcs];
    free_image(m);
    m->code = (Instr *)dup64(code, n_code * 5);
    m->n_code = n_code;
    m->pool = dup64(pool, n_pool);
    m->n_funcs = n_funcs;
    m->f_entry = dup64(f_entry, n_funcs);
    m->f_nregs = dup64(f_nregs, n_funcs);
    m->f_frame = dup64(f_frame, n_funcs);
    m->plan_start = dup64(plan_start, n_funcs + 1);
    m->plan_off = dup64(plan_off, n_plan);
    m->plan_size = dup64(plan_size, n_plan);
    m->plan_obj = dup64(plan_obj, n_plan);
    m->n_builtins = n_builtins;
    m->b_kind = dup64(b_kind, n_builtins);
    m->b_cycles = dup64(b_cycles, n_builtins);
    for (int64_t op = 0; op < N_OPCODES; op++)
        m->cost[op] = op < n_cost ? cost[op] : 0;
    if (!m->code || !m->pool || !m->f_entry || !m->f_nregs || !m->f_frame
        || !m->plan_start || !m->plan_off || !m->plan_size || !m->plan_obj
        || !m->b_kind || !m->b_cycles)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Event columns                                                       */
/* ------------------------------------------------------------------ */

static int grow_events(Machine *m)
{
    int64_t cap = m->ev_cap ? m->ev_cap * 2 : 65536;
    /* realloc of these large blocks remaps pages rather than copying. */
    int8_t *kinds = (int8_t *)realloc(m->kinds, (size_t)cap);
    if (kinds) m->kinds = kinds;
    int64_t *a = (int64_t *)realloc(m->col_a, (size_t)cap * 8);
    if (a) m->col_a = a;
    int64_t *b = (int64_t *)realloc(m->col_b, (size_t)cap * 8);
    if (b) m->col_b = b;
    int64_t *c = (int64_t *)realloc(m->col_c, (size_t)cap * 8);
    if (c) m->col_c = c;
    if (!kinds || !a || !b || !c)
        return -1;
    m->ev_cap = cap;
    return 0;
}

static inline int emit(Machine *m, int8_t kind, int64_t a, int64_t b,
                       int64_t c)
{
    MachinePublic *p = &m->pub;
    if (p->events == m->ev_cap && grow_events(m))
        return -1;
    int64_t i = p->events++;
    m->kinds[i] = kind;
    m->col_a[i] = a;
    m->col_b[i] = b;
    m->col_c[i] = c;
    if (kind == EV_WRITE)
        p->n_writes++;
    else if (kind == EV_INSTALL)
        p->n_installs++;
    else
        p->n_removes++;
    return 0;
}

/* Install (or remove) every frame variable of function f at frame fp. */
static int emit_plan(Machine *m, int8_t kind, int64_t f, int64_t fp)
{
    for (int64_t i = m->plan_start[f]; i < m->plan_start[f + 1]; i++) {
        int64_t begin = fp + m->plan_off[i];
        if (emit(m, kind, m->plan_obj[i], begin, begin + m->plan_size[i]))
            return -1;
    }
    return 0;
}

/* An event from Python (the tracer's begin/heap/finish events). */
API int machine_emit(void *handle, int64_t kind, int64_t a, int64_t b,
                     int64_t c)
{
    return emit((Machine *)handle, (int8_t)kind, a, b, c);
}

/* Copy the buffered events out and empty the buffer (one chunk). */
API void machine_take(void *handle, int8_t *kinds, int64_t *a, int64_t *b,
                      int64_t *c)
{
    Machine *m = (Machine *)handle;
    size_t n = (size_t)m->pub.events;
    if (n) {
        memcpy(kinds, m->kinds, n);
        memcpy(a, m->col_a, n * 8);
        memcpy(b, m->col_b, n * 8);
        memcpy(c, m->col_c, n * 8);
    }
    m->pub.events = 0;
}

/* Hand the column buffers, trimmed to the event count, to the caller,
 * who frees them with machine_free_buffer(); the machine forgets them. */
API void machine_release_columns(void *handle, void **out)
{
    Machine *m = (Machine *)handle;
    size_t n = (size_t)(m->pub.events > 0 ? m->pub.events : 1);
    void *kinds = realloc(m->kinds, n);
    void *a = realloc(m->col_a, n * 8);
    void *b = realloc(m->col_b, n * 8);
    void *c = realloc(m->col_c, n * 8);
    out[0] = kinds ? kinds : m->kinds;
    out[1] = a ? a : m->col_a;
    out[2] = b ? b : m->col_b;
    out[3] = c ? c : m->col_c;
    m->kinds = NULL;
    m->col_a = m->col_b = m->col_c = NULL;
    m->ev_cap = 0;
    m->pub.events = 0;
}

API void machine_free_buffer(void *buffer)
{
    free(buffer);
}

/* Function indices of the live frames, outermost first. */
API int64_t machine_call_stack(void *handle, int64_t *out, int64_t cap)
{
    Machine *m = (Machine *)handle;
    int64_t depth = m->pub.depth;
    for (int64_t i = 0; i < depth && i < cap; i++)
        out[i] = m->frames[i].func;
    return depth;
}

/* ------------------------------------------------------------------ */
/* Frames                                                              */
/* ------------------------------------------------------------------ */

/* Push a frame for function f with a zeroed register window; returns
 * the new frame, or NULL when out of memory or too deep. */
static Frame *push_frame(Machine *m, int64_t f, int64_t ret_pc,
                         int64_t saved_fp, int64_t dest)
{
    MachinePublic *p = &m->pub;
    if (p->depth >= MAX_DEPTH)
        return NULL;
    if (p->depth == m->frame_cap) {
        int64_t cap = m->frame_cap ? m->frame_cap * 2 : 256;
        Frame *frames = (Frame *)realloc(m->frames, (size_t)cap * sizeof(Frame));
        if (!frames)
            return NULL;
        m->frames = frames;
        m->frame_cap = cap;
    }
    int64_t n = m->f_nregs[f];
    if (m->reg_top + n > m->reg_cap) {
        int64_t cap = m->reg_cap ? m->reg_cap : 4096;
        while (cap < m->reg_top + n)
            cap *= 2;
        int64_t *rv = (int64_t *)realloc(m->rv, (size_t)cap * 8);
        if (rv) m->rv = rv;
        uint8_t *rt = (uint8_t *)realloc(m->rt, (size_t)cap);
        if (rt) m->rt = rt;
        if (!rv || !rt)
            return NULL;
        m->reg_cap = cap;
    }
    memset(m->rv + m->reg_top, 0, (size_t)n * 8);
    memset(m->rt + m->reg_top, T_INT, (size_t)n);
    Frame *frame = &m->frames[p->depth++];
    frame->func = f;
    frame->ret_pc = ret_pc;
    frame->saved_fp = saved_fp;
    frame->dest = dest;
    frame->base = m->reg_top;
    m->reg_top += n;
    if (p->depth > p->max_depth)
        p->max_depth = p->depth;
    return frame;
}

/* ------------------------------------------------------------------ */
/* Values                                                              */
/* ------------------------------------------------------------------ */

static inline double as_f(int64_t bits)
{
    double d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

static inline int64_t f_bits(double d)
{
    int64_t bits;
    memcpy(&bits, &d, sizeof bits);
    return bits;
}

/* A numeric operand as a double under Python's int/float mixing rule;
 * 0 when it is None or an int whose conversion could round. */
static inline int num(uint8_t tag, int64_t v, double *out)
{
    if (tag == T_FLT) {
        *out = as_f(v);
        return 1;
    }
    if (tag == T_INT && v >= -TWO53 && v <= TWO53) {
        *out = (double)v;
        return 1;
    }
    return 0;
}

/* Python truthiness: 0, 0.0, -0.0 and None are false (NaN is true). */
static inline int truthy(uint8_t tag, int64_t v)
{
    if (tag == T_INT)
        return v != 0;
    if (tag == T_FLT)
        return as_f(v) != 0.0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* The interpreter                                                     */
/* ------------------------------------------------------------------ */

API int64_t machine_run(void *handle);

/* Enter function f with nargs tagged arguments, as Cpu._run_from does;
 * then run.  The event buffer may already hold the tracer's begin
 * events. */
API int64_t machine_start(void *handle, int64_t f, const int64_t *arg_val,
                          const int64_t *arg_tag, int64_t nargs,
                          int64_t max_instructions, int64_t flush_at)
{
    Machine *m = (Machine *)handle;
    MachinePublic *p = &m->pub;
    m->max_instructions = max_instructions;
    m->flush_at = flush_at;
    m->done = 0;
    m->sp -= m->f_frame[f];
    if (m->sp < m->stack_limit) {
        p->detail = f;
        return p->status = MS_STACK;
    }
    m->fp = m->sp;
    Frame *frame = push_frame(m, f, -1, m->stack_top, -1);
    if (!frame) {
        p->detail = R_NOMEM;
        return p->status = MS_ABANDON;
    }
    for (int64_t i = 0; i < nargs; i++) {
        m->rv[frame->base + i] = arg_val[i];
        m->rt[frame->base + i] = (uint8_t)arg_tag[i];
    }
    if (emit_plan(m, EV_INSTALL, f, m->fp)) {
        p->detail = R_NOMEM;
        return p->status = MS_ABANDON;
    }
    m->pc = m->f_entry[f];
    if (m->flush_at && p->events >= m->flush_at)
        return p->status = MS_FLUSH;
    return machine_run(handle);
}

/* Finish a host builtin: store its result, step past the CALLB. */
API void machine_host_return(void *handle, int64_t val, int64_t tag)
{
    Machine *m = (Machine *)handle;
    int64_t dest = m->pub.host_dest;
    if (dest >= 0) {
        int64_t base = m->frames[m->pub.depth - 1].base;
        m->rv[base + dest] = val;
        m->rt[base + dest] = (uint8_t)tag;
    }
    m->pc++;
}

API int64_t machine_run(void *handle)
{
    Machine *m = (Machine *)handle;
    MachinePublic *p = &m->pub;
    if (m->done)
        return p->status = MS_DONE;

    const Instr *code = m->code;
    const int64_t *cost = m->cost;
    const int64_t *pool = m->pool;
    int64_t *mem = p->mem;
    uint8_t *mtag = p->tag;
    const int64_t mem_bytes = p->mem_words * 4;
    const int64_t max_instructions = m->max_instructions;
    const int64_t flush_at = m->flush_at;

    int64_t pc = m->pc, fp = m->fp;
    int64_t n_instr = p->instructions, cycles = p->cycles;
    int64_t n_stores = p->stores;
    int64_t status, detail = 0;
    Frame *frame = &m->frames[p->depth - 1];
    int64_t *rv = m->rv + frame->base;
    uint8_t *rt = m->rt + frame->base;

#define STOP(st, det) do { status = (st); detail = (det); goto out; } while (0)
#define ABANDON(reason) STOP(MS_ABANDON, reason)
#define EMIT(kind, a, b, c) \
    do { if (emit(m, kind, a, b, c)) ABANDON(R_NOMEM); } while (0)
#define FLUSH_CHECK() \
    do { if (flush_at && p->events >= flush_at) STOP(MS_FLUSH, 0); } while (0)
#define INTS(x, y) ((rt[x] | rt[y]) == T_INT)
#define SET_INT(d, v) do { rv[d] = (v); rt[d] = T_INT; } while (0)
#define SET_FLT(d, v) do { rv[d] = f_bits(v); rt[d] = T_FLT; } while (0)
#define ADDRESS(reg, off, out) \
    do { \
        if (rt[reg] != T_INT) ABANDON(R_OPERAND); \
        if (__builtin_add_overflow(rv[reg], (off), &(out))) ABANDON(R_OVERFLOW); \
    } while (0)
/* ADD/SUB/MUL and their F-forms: Python's generic +, -, *. */
#define ARITH(builtin, oper) \
    do { \
        int64_t x = in->b, y = in->c; \
        if (INTS(x, y)) { \
            int64_t r; \
            if (builtin(rv[x], rv[y], &r)) ABANDON(R_OVERFLOW); \
            SET_INT(in->a, r); \
        } else { \
            double fx, fy; \
            if (!num(rt[x], rv[x], &fx) || !num(rt[y], rv[y], &fy)) \
                ABANDON(rt[x] == T_NONE || rt[y] == T_NONE ? R_OPERAND : R_MIXED); \
            SET_FLT(in->a, fx oper fy); \
        } \
        pc++; \
    } while (0)
#define COMPARE(oper) \
    do { \
        int64_t x = in->b, y = in->c, r; \
        if (INTS(x, y)) { \
            r = rv[x] oper rv[y]; \
        } else { \
            double fx, fy; \
            if (!num(rt[x], rv[x], &fx) || !num(rt[y], rv[y], &fy)) \
                ABANDON(rt[x] == T_NONE || rt[y] == T_NONE ? R_OPERAND : R_MIXED); \
            r = fx oper fy; \
        } \
        SET_INT(in->a, r); \
        pc++; \
    } while (0)
#define BITWISE(oper) \
    do { \
        int64_t x = in->b, y = in->c; \
        if (!INTS(x, y)) ABANDON(R_OPERAND); \
        SET_INT(in->a, rv[x] oper rv[y]); \
        pc++; \
    } while (0)

    for (;;) {
        const Instr *in = &code[pc];
        int64_t op = in->op;
        cycles += cost[op];
        if (++n_instr > max_instructions)
            STOP(MS_LIMIT, 0);

        switch (op) {
        case OP_LD: {
            int64_t addr;
            ADDRESS(in->b, in->c, addr);
            if (addr & 3) STOP(MS_ALIGN, addr);
            if (addr < 0 || addr >= mem_bytes) STOP(MS_LOAD_RANGE, addr);
            rv[in->a] = mem[addr >> 2];
            rt[in->a] = mtag[addr >> 2];
            pc++;
            break;
        }
        case OP_ST: {
            int64_t addr;
            ADDRESS(in->a, in->b, addr);
            if (addr & 3) STOP(MS_ALIGN, addr);
            if (addr < 0 || addr >= mem_bytes) STOP(MS_STORE_RANGE, addr);
            mem[addr >> 2] = rv[in->c];
            mtag[addr >> 2] = rt[in->c];
            n_stores++;
            EMIT(EV_WRITE, addr, addr + 4, 0);
            pc++;
            FLUSH_CHECK();
            break;
        }
        case OP_LDI:
            rv[in->a] = in->b;
            rt[in->a] = (uint8_t)in->c;
            pc++;
            break;
        case OP_MOV:
            rv[in->a] = rv[in->b];
            rt[in->a] = rt[in->b];
            pc++;
            break;
        case OP_LEAF: {
            int64_t r;
            if (__builtin_add_overflow(fp, in->b, &r)) ABANDON(R_OVERFLOW);
            SET_INT(in->a, r);
            pc++;
            break;
        }
        case OP_ADD: case OP_FADD:
            ARITH(__builtin_add_overflow, +);
            break;
        case OP_SUB: case OP_FSUB:
            ARITH(__builtin_sub_overflow, -);
            break;
        case OP_MUL: case OP_FMUL:
            ARITH(__builtin_mul_overflow, *);
            break;
        case OP_DIV: case OP_MOD: {
            int64_t x = in->b, y = in->c;
            if (!INTS(x, y)) ABANDON(R_OPERAND);
            if (rv[y] == 0) STOP(MS_INT_DIV0, 0);
            if (rv[x] == INT64_MIN && rv[y] == -1) ABANDON(R_OVERFLOW);
            SET_INT(in->a, op == OP_DIV ? rv[x] / rv[y] : rv[x] % rv[y]);
            pc++;
            break;
        }
        case OP_FDIV: {
            int64_t x = in->b, y = in->c;
            double fx, fy;
            if (rt[y] == T_NONE) ABANDON(R_OPERAND);
            if (rt[y] == T_INT ? rv[y] == 0 : as_f(rv[y]) == 0.0)
                STOP(MS_FLOAT_DIV0, 0);
            if (!num(rt[x], rv[x], &fx) || !num(rt[y], rv[y], &fy))
                ABANDON(rt[x] == T_NONE ? R_OPERAND : R_MIXED);
            SET_FLT(in->a, fx / fy);
            pc++;
            break;
        }
        case OP_AND: BITWISE(&); break;
        case OP_OR: BITWISE(|); break;
        case OP_XOR: BITWISE(^); break;
        case OP_SHL: case OP_SHR: {
            int64_t x = in->b, y = in->c, r;
            if (!INTS(x, y)) ABANDON(R_OPERAND);
            int64_t n = rv[y];
            if (n < 0 || n >= 63) ABANDON(R_SHIFT);
            if (op == OP_SHL) {
                r = (int64_t)((uint64_t)rv[x] << n);
                if ((r >> n) != rv[x]) ABANDON(R_OVERFLOW);
            } else {
                r = rv[x] >> n;   /* arithmetic (build probe asserts it) */
            }
            SET_INT(in->a, r);
            pc++;
            break;
        }
        case OP_NEG: case OP_FNEG: {
            int64_t x = in->b;
            if (rt[x] == T_INT) {
                if (rv[x] == INT64_MIN) ABANDON(R_OVERFLOW);
                SET_INT(in->a, -rv[x]);
            } else if (rt[x] == T_FLT) {
                SET_FLT(in->a, -as_f(rv[x]));
            } else {
                ABANDON(R_OPERAND);
            }
            pc++;
            break;
        }
        case OP_NOT:
            SET_INT(in->a, truthy(rt[in->b], rv[in->b]) ? 0 : 1);
            pc++;
            break;
        case OP_BNOT:
            if (rt[in->b] != T_INT) ABANDON(R_OPERAND);
            SET_INT(in->a, ~rv[in->b]);
            pc++;
            break;
        case OP_I2F: {
            int64_t x = in->b;
            if (rt[x] == T_NONE) ABANDON(R_OPERAND);
            /* float(int) and the C conversion both round to nearest. */
            SET_FLT(in->a, rt[x] == T_INT ? (double)rv[x] : as_f(rv[x]));
            pc++;
            break;
        }
        case OP_F2I: {
            int64_t x = in->b;
            if (rt[x] == T_FLT) {
                double d = as_f(rv[x]);
                /* False for NaN and the infinities too. */
                if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0))
                    ABANDON(R_F2I);
                SET_INT(in->a, (int64_t)d);
            } else if (rt[x] == T_INT) {
                SET_INT(in->a, rv[x]);
            } else {
                ABANDON(R_OPERAND);
            }
            pc++;
            break;
        }
        case OP_EQ: COMPARE(==); break;
        case OP_NE: COMPARE(!=); break;
        case OP_LT: COMPARE(<); break;
        case OP_LE: COMPARE(<=); break;
        case OP_GT: COMPARE(>); break;
        case OP_GE: COMPARE(>=); break;
        case OP_JMP:
            pc = in->a;
            break;
        case OP_BF:
            pc = truthy(rt[in->a], rv[in->a]) ? pc + 1 : in->b;
            break;
        case OP_BT:
            pc = truthy(rt[in->a], rv[in->a]) ? in->b : pc + 1;
            break;
        case OP_CALL: {
            int64_t f = in->a;
            int64_t base = frame->base;
            m->sp -= m->f_frame[f];
            if (m->sp < m->stack_limit) STOP(MS_STACK, f);
            frame = push_frame(m, f, pc + 1, fp, in->b);
            if (!frame) ABANDON(p->depth >= MAX_DEPTH ? R_DEPTH : R_NOMEM);
            /* push_frame may move the register stack. */
            const int64_t *args = pool + in->c;
            for (int64_t i = 0; i < in->d; i++) {
                m->rv[frame->base + i] = m->rv[base + args[i]];
                m->rt[frame->base + i] = m->rt[base + args[i]];
            }
            rv = m->rv + frame->base;
            rt = m->rt + frame->base;
            fp = m->sp;
            if (emit_plan(m, EV_INSTALL, f, fp)) ABANDON(R_NOMEM);
            pc = m->f_entry[f];
            FLUSH_CHECK();
            break;
        }
        case OP_RET: {
            int64_t ret_val = 0, ret_tag = T_NONE;
            if (in->a >= 0) {
                ret_val = rv[in->a];
                ret_tag = rt[in->a];
            }
            Frame done = *frame;
            p->depth--;
            if (emit_plan(m, EV_REMOVE, done.func, fp)) ABANDON(R_NOMEM);
            m->sp += m->f_frame[done.func];
            m->reg_top = done.base;
            if (p->depth == 0) {
                p->exit_val = ret_val;
                p->exit_tag = ret_tag;
                m->done = 1;
                FLUSH_CHECK();
                STOP(MS_DONE, 0);
            }
            frame = &m->frames[p->depth - 1];
            fp = done.saved_fp;
            rv = m->rv + frame->base;
            rt = m->rt + frame->base;
            if (done.dest >= 0) {
                rv[done.dest] = ret_val;
                rt[done.dest] = (uint8_t)ret_tag;
            }
            pc = done.ret_pc;
            FLUSH_CHECK();
            break;
        }
        case OP_CALLB: {
            int64_t id = in->a, nargs = in->d;
            const int64_t *args = pool + in->c;
            if (id < 0 || id >= m->n_builtins) ABANDON(R_BUILTIN);
            int64_t kind = m->b_kind[id];
            if (kind == B_HOST) {
                if (nargs > MAX_HOST_ARGS) ABANDON(R_BUILTIN);
                p->host_builtin = id;
                p->host_nargs = nargs;
                p->host_dest = in->b;
                for (int64_t i = 0; i < nargs; i++) {
                    p->host_val[i] = rv[args[i]];
                    p->host_tag[i] = rt[args[i]];
                }
                p->host_exits++;
                STOP(MS_HOST, id);   /* machine_host_return steps the pc */
            }
            cycles += m->b_cycles[id];
            double x, r;
            if (nargs < 1) ABANDON(R_BUILTIN);
            if (rt[args[0]] == T_INT)
                x = (double)rv[args[0]];
            else if (rt[args[0]] == T_FLT)
                x = as_f(rv[args[0]]);
            else
                ABANDON(R_OPERAND);
            switch (kind) {
            case B_SQRT: r = sqrt(x); break;
            case B_EXP: r = exp(x); break;
            case B_LOG: r = log(x); break;
            default: r = fabs(x); break;
            }
            if (!isfinite(r)) ABANDON(R_MATH);
            if (in->b >= 0)
                SET_FLT(in->b, r);
            pc++;
            break;
        }
        case OP_NOP:
            pc++;
            break;
        case OP_HALT:
            p->exit_val = 0;
            p->exit_tag = T_NONE;
            m->done = 1;
            STOP(MS_DONE, 0);
        default:   /* OP_BAD, CHK, TRAP */
            ABANDON(R_OPCODE);
        }
    }

out:
    m->pc = pc;
    m->fp = fp;
    p->instructions = n_instr;
    p->cycles = cycles;
    p->stores = n_stores;
    p->detail = detail;
    return p->status = status;

#undef STOP
#undef ABANDON
#undef EMIT
#undef FLUSH_CHECK
#undef INTS
#undef SET_INT
#undef SET_FLT
#undef ADDRESS
#undef ARITH
#undef COMPARE
#undef BITWISE
}

/* gcc and clang shift signed int64 right arithmetically, matching
 * Python's >>; the loader refuses a build where they do not. */
API int machine_shift_probe(void)
{
    volatile int64_t minus_eight = -8;
    return (minus_eight >> 1) == -4;
}
