//! The rule families: determinism (D), panic-safety (P) and cycle
//! arithmetic (A). The cross-file trace-contract family (T) lives in
//! [`crate::contract`] because it reads three files at once.
//!
//! Each rule walks the token stream of one file and produces raw
//! diagnostics; waiver handling, sorting and rendering live in
//! [`crate::engine`]. The rules are lexical by design: a token scanner
//! cannot do type inference, so each rule names the *syntactic shape*
//! of a hazard and the static-analysis policy (DESIGN.md §7) decides
//! where it applies.

use crate::itemtree::{ItemTree, KEYWORDS};
use crate::lexer::{TokKind, Token};

/// How strictly a crate is held to the determinism policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Simulation-result-affecting crates: every rule applies.
    Critical,
    /// Test/bench/lint tooling: only wall-clock (D002) applies, since
    /// tooling output never feeds simulation state.
    Tooling,
}

/// How serious a diagnostic is. Both levels fail the lint (exit 1);
/// severity is reporting metadata — it tells a reader whether the
/// finding sits on a hot path (error) or in cold setup code (warning),
/// and maps onto SARIF's `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Cold-path or advisory finding.
    Warning,
    /// Hot-path or correctness-contract finding.
    Error,
}

impl Severity {
    /// The rendered form (`warn` / `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warn",
            Severity::Error => "error",
        }
    }
}

/// Everything `run_rules` needs to know about the file being scanned.
#[derive(Debug, Clone, Copy)]
pub struct ScanCtx<'a> {
    /// Crate classification (critical vs. tooling).
    pub class: CrateClass,
    /// The crate the file belongs to (`sim`, `htm`, ... or a fixture
    /// name); P/A-rules gate on explicit crate lists.
    pub crate_name: &'a str,
    /// True under `--workspace`: promotes W002 (unused waiver) to an
    /// error so waiver debt cannot accumulate silently.
    pub workspace: bool,
    /// True for files under a `tests/` directory: P/A-rules are
    /// test-exempt (tests may panic and use bare arithmetic freely).
    pub test_file: bool,
}

/// A diagnostic before waiver matching.
#[derive(Debug, Clone)]
pub struct RawDiag {
    /// Rule code (`D001`...).
    pub code: &'static str,
    /// Hot-path error or cold-path warning.
    pub severity: Severity,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// One rule's code and one-line description, for `--list-rules` and the
/// JSON report.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "HashMap/HashSet in a determinism-critical crate (iteration order varies per process)",
    ),
    (
        "D002",
        "wall-clock read (Instant::now / SystemTime); simulation time must come from the engine",
    ),
    (
        "D003",
        "float accumulation fed by iteration over a hash-ordered container",
    ),
    (
        "D004",
        "hash randomisation or thread identity (RandomState / DefaultHasher / thread::current)",
    ),
    (
        "D005",
        "ambient mutable or environmental state (static mut / std::env::var*) in a critical crate",
    ),
    (
        "P001",
        ".unwrap() in a panic-audited crate; name the invariant with .expect(..) instead",
    ),
    (
        "P002",
        "panic!/unreachable!/todo!/unimplemented! in a panic-audited crate",
    ),
    (
        "P003",
        "raw slice/array indexing in a hot-path fn (out-of-bounds aborts mid-run)",
    ),
    (
        "A001",
        "bare +/-/* on a cycle-flavoured value; u64 overflow wraps silently in release",
    ),
    (
        "T001",
        "TraceEvent variant not matched by the replay audit (trace/src/audit.rs)",
    ),
    (
        "T002",
        "TraceEvent variant not handled by the JSONL exporter (bench/src/trace_export.rs)",
    ),
];

/// True if `code` names a rule that may be waived.
pub fn is_waivable(code: &str) -> bool {
    RULES.iter().any(|(c, _)| *c == code)
}

/// Crates held to the panic-safety policy (P-rules). Gated by name, not
/// [`CrateClass`], so fixture crates opt in explicitly.
pub const PANIC_CRATES: &[&str] = &["sim", "htm", "core", "bloomsig", "baselines", "workloads"];

/// Crates whose cycle accounting is held to the checked-arithmetic
/// policy (A001).
pub const ARITH_CRATES: &[&str] = &["sim", "htm"];

/// Hot-path fns (`crate`, `Type::fn`): P-findings inside these are
/// errors (a panic here kills a multi-million-event run mid-flight),
/// elsewhere they are warnings. The list names the per-event code paths:
/// the engine step loop and its sleeper promotion, the calendar queue and
/// its node pool, cycle accounting, the HTM thread state machine, the HTM
/// access path and its line table, and the signature algebra.
pub const HOT_FNS: &[(&str, &str)] = &[
    ("sim", "CalendarQueue::push"),
    ("sim", "CalendarQueue::pop"),
    ("sim", "CalendarQueue::min_time"),
    ("sim", "CalendarQueue::set_bit"),
    ("sim", "CalendarQueue::clear_bit"),
    ("sim", "CalendarQueue::migrate"),
    ("sim", "CalendarQueue::find_next"),
    ("sim", "CalendarQueue::next_word"),
    ("sim", "Pool::push_back"),
    ("sim", "Pool::pop_front"),
    ("sim", "EventQueue::push"),
    ("sim", "EventQueue::pop"),
    ("sim", "EventQueue::min_time"),
    ("sim", "Engine::run_into"),
    ("sim", "Engine::try_run_into"),
    ("sim", "Engine::arm"),
    ("sim", "Engine::arm_inner"),
    ("sim", "Engine::promote_sleepers"),
    ("sim", "Engine::service_cpu"),
    ("sim", "Engine::step_thread"),
    ("sim", "Engine::charge"),
    ("sim", "Engine::runs_ahead"),
    ("sim", "Cpu::preempts"),
    ("sim", "Engine::wake_internal"),
    ("sim", "TimeBuckets::charge"),
    ("sim", "TimeBuckets::transfer"),
    ("sim", "Cycle::since"),
    ("htm", "TxThreadLogic::step"),
    ("htm", "TxThreadLogic::advance"),
    ("htm", "TmState::read"),
    ("htm", "TmState::write"),
    ("htm", "TmState::grant"),
    ("htm", "TmState::commit_tx"),
    ("htm", "TmState::abort_tx"),
    ("htm", "LineTable::probe"),
    ("htm", "LineTable::insert"),
    ("htm", "LineTable::release"),
    ("core", "Sig::intersects"),
    ("core", "Sig::intersection_estimate"),
    ("bloomsig", "BloomFilter::insert"),
    ("bloomsig", "BloomFilter::may_contain"),
    ("bloomsig", "BloomFilter::set_bit"),
    ("bloomsig", "BloomFilter::union_in_place"),
    ("bloomsig", "BloomFilter::intersects"),
    ("bloomsig", "BloomFilter::intersection_estimate"),
];

fn is_hot(crate_name: &str, qualified: &str) -> bool {
    HOT_FNS
        .iter()
        .any(|&(c, f)| c == crate_name && f == qualified)
}

/// Runs every applicable rule over one file's token stream.
pub fn run_rules(tokens: &[Token], tree: &ItemTree, ctx: &ScanCtx) -> Vec<RawDiag> {
    let mut out = Vec::new();
    if ctx.class == CrateClass::Critical {
        d001_hash_collections(tokens, ctx.crate_name, &mut out);
        d003_float_accumulation(tokens, &mut out);
        d004_hash_randomisation(tokens, &mut out);
        d005_ambient_state(tokens, ctx.crate_name, &mut out);
    }
    d002_wall_clock(tokens, &mut out);
    if PANIC_CRATES.contains(&ctx.crate_name) {
        p001_unwrap(tokens, tree, ctx, &mut out);
        p002_panic_macros(tokens, tree, ctx, &mut out);
        p003_raw_indexing(tokens, tree, ctx, &mut out);
    }
    if ARITH_CRATES.contains(&ctx.crate_name) {
        a001_bare_arithmetic(tokens, tree, ctx, &mut out);
    }
    out
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const HASH_MODULES: &[&str] = &["hash_map", "hash_set"];

fn d001_hash_collections(tokens: &[Token], crate_name: &str, out: &mut Vec<RawDiag>) {
    for t in tokens {
        if t.kind != TokKind::Ident {
            continue;
        }
        if HASH_TYPES.contains(&t.text.as_str()) || HASH_MODULES.contains(&t.text.as_str()) {
            out.push(RawDiag {
                code: "D001",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in determinism-critical crate `{crate_name}`: iteration order \
                     depends on per-process hash randomisation",
                    t.text
                ),
                hint: "use BTreeMap/BTreeSet, or collect into a Vec and sort before any \
                       order-sensitive use; if the order provably never escapes, waive with \
                       `// detlint: allow(D001) -- <why>`",
            });
        }
    }
}

fn d002_wall_clock(tokens: &[Token], out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("Instant")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            out.push(RawDiag {
                code: "D002",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: "`Instant::now()` reads the wall clock".into(),
                hint: D002_HINT,
            });
        }
        if t.is_ident("SystemTime") {
            out.push(RawDiag {
                code: "D002",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: "`SystemTime` reads the wall clock".into(),
                hint: D002_HINT,
            });
        }
    }
}

const D002_HINT: &str = "simulation time must come from the engine's `Cycle` clock; \
                         bench harness timing is the only legitimate use and must carry \
                         `// detlint: allow(D002) -- <why>`";

/// Accumulation markers searched for downstream of a hash-container
/// iteration call.
const ACCUMULATORS: &[&str] = &["sum", "fold", "product"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "drain",
];

/// D003 is a two-pass heuristic: first collect names bound to a
/// `HashMap`/`HashSet` (`let x: HashMap<..>` or `x = HashMap::new()`),
/// then flag iteration calls on those names whose enclosing statement
/// or loop body accumulates (`+=`, `.sum()`, `.fold(..)`).
fn d003_float_accumulation(tokens: &[Token], out: &mut Vec<RawDiag>) {
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) && i >= 2 {
            let sep = &tokens[i - 1];
            let name = &tokens[i - 2];
            if (sep.is_punct(":") || sep.is_punct("=")) && name.kind == TokKind::Ident {
                hash_names.push(name.text.as_str());
            }
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        let is_source = t.kind == TokKind::Ident
            && hash_names.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("."))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && ITER_METHODS.contains(&n.text.as_str())
            });
        if !is_source {
            continue;
        }
        // Scan forward through the rest of the statement (or the loop
        // body it opens) for an accumulation marker.
        let mut depth = 0i32;
        for n in tokens.iter().skip(i + 3).take(120) {
            match n.text.as_str() {
                "{" if n.kind == TokKind::Punct => depth += 1,
                "}" if n.kind == TokKind::Punct => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if depth <= 0 => break,
                "+=" => {
                    out.push(d003_diag(t));
                    break;
                }
                a if n.kind == TokKind::Ident && ACCUMULATORS.contains(&a) => {
                    out.push(d003_diag(t));
                    break;
                }
                _ => {}
            }
        }
    }
}

fn d003_diag(t: &Token) -> RawDiag {
    RawDiag {
        code: "D003",
        severity: Severity::Error,
        line: t.line,
        col: t.col,
        message: format!(
            "float accumulation over `{}`, a hash-ordered container: the sum \
             depends on iteration order",
            t.text
        ),
        hint: "iterate an ordered container (BTreeMap/BTreeSet) or sort the items \
               before accumulating; float addition is not associative",
    }
}

fn d004_hash_randomisation(tokens: &[Token], out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("RandomState") || t.is_ident("DefaultHasher") {
            out.push(RawDiag {
                code: "D004",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: format!("`{}` seeds per-process hash randomisation", t.text),
                hint: "use the fixed hash functions in `bfgts_bloomsig::hash` or an \
                       explicitly seeded hasher",
            });
        }
        if t.is_ident("thread")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("current"))
        {
            out.push(RawDiag {
                code: "D004",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: "`thread::current()` identity varies between runs".into(),
                hint: "thread identity must come from the simulator's `ThreadId`",
            });
        }
    }
}

fn d005_ambient_state(tokens: &[Token], crate_name: &str, out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("static") && tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            out.push(RawDiag {
                code: "D005",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: format!("`static mut` in determinism-critical crate `{crate_name}`"),
                hint: "thread shared state through the simulation `World` so runs stay \
                       self-contained",
            });
        }
        if t.is_ident("env")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| {
                n.is_ident("var")
                    || n.is_ident("vars")
                    || n.is_ident("var_os")
                    || n.is_ident("vars_os")
            })
        {
            out.push(RawDiag {
                code: "D005",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: format!("environment read in determinism-critical crate `{crate_name}`"),
                hint: "plumb configuration through explicit arguments (`RunCell`, \
                       `TmRunConfig`) so a run is a pure function of its inputs",
            });
        }
    }
}

// ---------------------------------------------------------------------
// P-rules: panic safety.
// ---------------------------------------------------------------------

/// True when token `i` is exempt from P/A-rules: test files, test
/// modules and `#[test]` fns may panic and use bare arithmetic freely.
fn exempt(tree: &ItemTree, i: usize, ctx: &ScanCtx) -> bool {
    ctx.test_file || tree.in_test(i)
}

/// Severity and an optional ` (hot path: ...)` message suffix for a
/// P-finding at token `i`.
fn p_severity(tree: &ItemTree, i: usize, ctx: &ScanCtx) -> (Severity, String) {
    match tree.fn_at(i) {
        Some(f) if is_hot(ctx.crate_name, &f.qualified) => {
            (Severity::Error, format!(" (hot path: `{}`)", f.qualified))
        }
        _ => (Severity::Warning, String::new()),
    }
}

fn p001_unwrap(tokens: &[Token], tree: &ItemTree, ctx: &ScanCtx, out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("unwrap")
            || i == 0
            || !tokens[i - 1].is_punct(".")
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            continue;
        }
        if exempt(tree, i, ctx) {
            continue;
        }
        let (severity, hot) = p_severity(tree, i, ctx);
        out.push(RawDiag {
            code: "P001",
            severity,
            line: t.line,
            col: t.col,
            message: format!(
                "`.unwrap()` in panic-audited crate `{}`{hot}: aborts the run with no \
                 invariant message",
                ctx.crate_name
            ),
            hint: "use `.expect(\"<the invariant that guarantees Some/Ok>\")` or handle \
                   the None/Err arm; waive with `// detlint: allow(P001) -- <why>`",
        });
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn p002_panic_macros(tokens: &[Token], tree: &ItemTree, ctx: &ScanCtx, out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !PANIC_MACROS.contains(&t.text.as_str())
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            continue;
        }
        if exempt(tree, i, ctx) {
            continue;
        }
        let (severity, hot) = p_severity(tree, i, ctx);
        out.push(RawDiag {
            code: "P002",
            severity,
            line: t.line,
            col: t.col,
            message: format!(
                "`{}!` in panic-audited crate `{}`{hot}",
                t.text, ctx.crate_name
            ),
            hint: "return an error or make the state unrepresentable; a deliberate \
                   invariant check may stay with `// detlint: allow(P002) -- <why>`",
        });
    }
}

fn p003_raw_indexing(tokens: &[Token], tree: &ItemTree, ctx: &ScanCtx, out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_punct("[") || i == 0 {
            continue;
        }
        let prev = &tokens[i - 1];
        let indexes_value = (prev.kind == TokKind::Ident
            && !KEYWORDS.contains(&prev.text.as_str()))
            || prev.is_punct(")")
            || prev.is_punct("]");
        if !indexes_value {
            continue;
        }
        // P003 only bites on hot paths: cold-path indexing is handled
        // by the ordinary panic policy (the audit catches it offline).
        let Some(f) = tree.fn_at(i) else { continue };
        if !is_hot(ctx.crate_name, &f.qualified) {
            continue;
        }
        if exempt(tree, i, ctx) {
            continue;
        }
        let what = if prev.kind == TokKind::Ident {
            format!("`{}[..]`", prev.text)
        } else {
            "indexing".to_string()
        };
        out.push(RawDiag {
            code: "P003",
            severity: Severity::Error,
            line: t.line,
            col: t.col,
            message: format!(
                "raw {what} on hot path `{}`: out-of-bounds aborts the run mid-flight",
                f.qualified
            ),
            hint: "use `.get()/.get_mut()` with `.expect(\"<bounds invariant>\")`, or \
                   mask/clamp the index; waive with `// detlint: allow(P003) -- <why>`",
        });
    }
}

// ---------------------------------------------------------------------
// A001: cycle arithmetic.
// ---------------------------------------------------------------------

/// Identifier vocabulary that marks a value as cycle/time/charge
/// flavoured. Exact matches are engine-local variable names; substring
/// matches catch the `*_cycles` / `*_cost` / `*_poll` families.
const A_EXACT: &[&str] = &[
    "cursor",
    "makespan",
    "extra",
    "spun",
    "left",
    "chunk",
    "moved",
    "requested",
];
const A_SUBSTR: &[&str] = &["cycle", "cost", "charge", "poll"];

fn cycle_flavoured(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    A_EXACT.contains(&lower.as_str()) || A_SUBSTR.iter().any(|s| lower.contains(s))
}

/// Collects the dotted-path identifiers of the operand ending at token
/// `op - 1` (e.g. `ctx.costs().abort_trap` → `[abort_trap, costs, ctx]`).
/// Returns an empty list when the operand is a `::` path — an
/// associated call like `Cycle::new(..)` is the sanctioned checked
/// boundary, not a bare value.
fn operand_back(tokens: &[Token], op: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut j = op as isize - 1;
    let mut steps = 0;
    while j >= 0 && steps < 48 {
        steps += 1;
        let t = &tokens[j as usize];
        if t.is_punct(")") || t.is_punct("]") {
            // Skip the balanced group backwards to its opener.
            let mut depth = 0i32;
            while j >= 0 {
                let u = &tokens[j as usize];
                if u.is_punct(")") || u.is_punct("]") {
                    depth += 1;
                } else if u.is_punct("(") || u.is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            j -= 1;
            continue;
        }
        if t.kind == TokKind::Number {
            j -= 1;
            if j >= 0 && tokens[j as usize].is_punct(".") {
                j -= 1;
                continue;
            }
            break;
        }
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            names.push(t.text.clone());
            j -= 1;
            if j >= 0 {
                let sep = &tokens[j as usize];
                if sep.is_punct(".") {
                    j -= 1;
                    continue;
                }
                if sep.is_punct("::") {
                    return Vec::new();
                }
            }
            break;
        }
        break;
    }
    names
}

/// Collects the dotted-path identifiers of the operand starting at
/// token `start` (after the operator). Same `::` exemption as
/// [`operand_back`].
fn operand_fwd(tokens: &[Token], start: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut j = start;
    let mut steps = 0;
    while j < tokens.len() && steps < 48 {
        steps += 1;
        let t = &tokens[j];
        // Unary prefixes and grouping.
        if t.is_punct("&") || t.is_punct("*") || t.is_punct("-") {
            j += 1;
            continue;
        }
        if t.is_punct("(") {
            let mut depth = 0i32;
            while j < tokens.len() {
                if tokens[j].is_punct("(") || tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct(")") || tokens[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
            if tokens.get(j).is_some_and(|n| n.is_punct(".")) {
                j += 1;
                continue;
            }
            break;
        }
        if t.kind == TokKind::Number {
            j += 1;
            if tokens.get(j).is_some_and(|n| n.is_punct(".")) {
                j += 1;
                continue;
            }
            break;
        }
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            if tokens.get(j + 1).is_some_and(|n| n.is_punct("::")) {
                return Vec::new();
            }
            names.push(t.text.clone());
            j += 1;
            // Method call: skip the argument list, keep chaining.
            if tokens.get(j).is_some_and(|n| n.is_punct("(")) {
                let mut depth = 0i32;
                while j < tokens.len() {
                    if tokens[j].is_punct("(") || tokens[j].is_punct("[") {
                        depth += 1;
                    } else if tokens[j].is_punct(")") || tokens[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                j += 1;
            }
            if tokens.get(j).is_some_and(|n| n.is_punct(".")) {
                j += 1;
                continue;
            }
            break;
        }
        break;
    }
    names
}

fn a001_bare_arithmetic(tokens: &[Token], tree: &ItemTree, ctx: &ScanCtx, out: &mut Vec<RawDiag>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        let (op, rhs_start): (&str, usize) = match t.text.as_str() {
            "+=" => ("+=", i + 1),
            "+" => ("+", i + 1),
            "-" => {
                if tokens.get(i + 1).is_some_and(|n| n.is_punct(">")) {
                    continue; // `->` return arrow
                }
                if tokens.get(i + 1).is_some_and(|n| n.is_punct("=")) {
                    ("-=", i + 2)
                } else {
                    ("-", i + 1)
                }
            }
            "*" => {
                if tokens.get(i + 1).is_some_and(|n| n.is_punct("=")) {
                    ("*=", i + 2)
                } else {
                    ("*", i + 1)
                }
            }
            _ => continue,
        };
        // Binary-ness: the previous token must be able to end an
        // operand, otherwise this is a unary minus / deref / generic
        // marker.
        let Some(prev) = i.checked_sub(1).map(|k| &tokens[k]) else {
            continue;
        };
        let binary = prev.kind == TokKind::Number
            || prev.is_punct(")")
            || prev.is_punct("]")
            || (prev.kind == TokKind::Ident && !KEYWORDS.contains(&prev.text.as_str()));
        if !binary {
            continue;
        }
        if exempt(tree, i, ctx) {
            continue;
        }
        let lhs = operand_back(tokens, i);
        let rhs = operand_fwd(tokens, rhs_start);
        let Some(name) = lhs.iter().chain(rhs.iter()).find(|n| cycle_flavoured(n)) else {
            continue;
        };
        out.push(RawDiag {
            code: "A001",
            severity: Severity::Error,
            line: t.line,
            col: t.col,
            message: format!(
                "bare `{op}` on cycle-flavoured value `{name}`: u64 overflow wraps \
                 silently in release and corrupts accounting",
            ),
            hint: "use checked_*/saturating_*/wrapping_* (or the `Cycle` newtype's \
                   checked operators) so the policy is explicit; waive with \
                   `// detlint: allow(A001) -- <why>`",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemtree::ItemTree;
    use crate::lexer::lex;

    fn diags_in(src: &str, class: CrateClass, crate_name: &str) -> Vec<RawDiag> {
        let toks = lex(src).unwrap().tokens;
        let tree = ItemTree::build(&toks);
        run_rules(
            &toks,
            &tree,
            &ScanCtx {
                class,
                crate_name,
                workspace: false,
                test_file: false,
            },
        )
    }

    fn diags(src: &str, class: CrateClass) -> Vec<RawDiag> {
        diags_in(src, class, "testcrate")
    }

    fn codes(src: &str, class: CrateClass) -> Vec<&'static str> {
        diags(src, class).iter().map(|d| d.code).collect()
    }

    fn codes_in(src: &str, crate_name: &str) -> Vec<&'static str> {
        diags_in(src, CrateClass::Critical, crate_name)
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn d001_fires_on_hash_collections_in_critical_crates() {
        let src = "use std::collections::HashMap;\nfn f() -> HashSet<u64> { todo!() }";
        assert_eq!(codes(src, CrateClass::Critical), vec!["D001", "D001"]);
        assert!(codes(src, CrateClass::Tooling).is_empty());
    }

    #[test]
    fn d001_fires_on_hash_module_paths() {
        let src = "use std::collections::hash_map::Entry;";
        assert_eq!(codes(src, CrateClass::Critical), vec!["D001"]);
    }

    #[test]
    fn d001_ignores_strings_and_comments() {
        let src = "// a HashMap would be bad\nlet s = \"HashMap\";";
        assert!(codes(src, CrateClass::Critical).is_empty());
    }

    #[test]
    fn d002_fires_everywhere() {
        let src = "let t = Instant::now(); let s = SystemTime::now();";
        assert_eq!(codes(src, CrateClass::Tooling), vec!["D002", "D002"]);
        assert_eq!(codes(src, CrateClass::Critical), vec!["D002", "D002"]);
    }

    #[test]
    fn d002_ignores_bare_instant() {
        assert!(codes("use std::time::Instant;", CrateClass::Tooling).is_empty());
    }

    #[test]
    fn d003_flags_accumulation_over_hash_values() {
        let src = "let mut m: HashMap<u64, f64> = HashMap::new();\n\
                   let mut total = 0.0;\n\
                   for v in m.values() { total += v; }";
        let c = codes(src, CrateClass::Critical);
        assert!(c.contains(&"D003"), "got {c:?}");
    }

    #[test]
    fn d003_flags_sum_chains() {
        let src = "let m = HashMap::new();\nlet s: f64 = m.values().sum();";
        assert!(codes(src, CrateClass::Critical).contains(&"D003"));
    }

    #[test]
    fn d003_quiet_without_accumulation() {
        let src = "let m = HashMap::new();\nfor v in m.values() { println!(\"{v}\"); }";
        assert!(!codes(src, CrateClass::Critical).contains(&"D003"));
    }

    #[test]
    fn d004_flags_hashers_and_thread_identity() {
        let src = "let h = DefaultHasher::new();\nlet s = RandomState::new();\nlet t = thread::current();";
        assert_eq!(
            codes(src, CrateClass::Critical),
            vec!["D004", "D004", "D004"]
        );
        assert!(codes(src, CrateClass::Tooling).is_empty());
    }

    #[test]
    fn d005_flags_static_mut_and_env_reads() {
        let src = "static mut X: u64 = 0;\nfn f() { let _ = std::env::var(\"SEED\"); }";
        assert_eq!(codes(src, CrateClass::Critical), vec!["D005", "D005"]);
        assert!(codes(src, CrateClass::Tooling).is_empty());
    }

    #[test]
    fn d005_allows_env_args() {
        assert!(codes("let a = std::env::args();", CrateClass::Critical).is_empty());
    }

    #[test]
    fn plain_static_is_fine() {
        assert!(codes("static X: u64 = 0;", CrateClass::Critical).is_empty());
    }

    // --- P-rules ---

    #[test]
    fn p001_fires_only_in_panic_crates() {
        let src = "fn f() { let x = opt.unwrap(); }";
        assert_eq!(codes_in(src, "sim"), vec!["P001"]);
        assert!(codes_in(src, "trace").is_empty());
        assert!(codes(src, CrateClass::Critical).is_empty());
    }

    #[test]
    fn p001_expect_is_sanctioned() {
        let src = "fn f() { let x = opt.expect(\"queue is non-empty after len check\"); }";
        assert!(codes_in(src, "sim").is_empty());
    }

    #[test]
    fn p001_hot_path_is_an_error_cold_is_a_warning() {
        let hot = "impl CalendarQueue { fn pop(&mut self) { x.unwrap(); } }";
        let cold = "fn setup() { x.unwrap(); }";
        let hd = diags_in(hot, CrateClass::Critical, "sim");
        let cd = diags_in(cold, CrateClass::Critical, "sim");
        assert_eq!(hd[0].severity, Severity::Error);
        assert_eq!(cd[0].severity, Severity::Warning);
    }

    #[test]
    fn p002_fires_on_panic_macros() {
        let src = "fn f() { panic!(\"boom\"); unreachable!(); }";
        assert_eq!(codes_in(src, "htm"), vec!["P002", "P002"]);
    }

    #[test]
    fn p002_asserts_are_sanctioned() {
        let src = "fn f() { assert!(x > 0); debug_assert_eq!(a, b); }";
        assert!(codes_in(src, "htm").is_empty());
    }

    #[test]
    fn p_rules_skip_tests() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); panic!(); } }";
        assert!(codes_in(src, "sim").is_empty());
        let src2 = "#[test]\nfn check() { x.unwrap(); }";
        assert!(codes_in(src2, "sim").is_empty());
    }

    #[test]
    fn p003_fires_only_on_hot_paths() {
        let hot = "impl CalendarQueue { fn pop(&mut self) { let x = self.buckets[idx]; } }";
        let cold = "fn setup() { let x = buckets[idx]; }";
        assert_eq!(codes_in(hot, "sim"), vec!["P003"]);
        assert!(codes_in(cold, "sim").is_empty());
    }

    #[test]
    fn p003_ignores_attributes_types_and_patterns() {
        let src = "impl CalendarQueue {\n\
                   #[inline]\n\
                   fn pop(&mut self) -> [u64; 4] { let [a, b] = pair; let v: &[u64] = s; vec![1] }\n\
                   }";
        assert!(codes_in(src, "sim").is_empty());
    }

    // --- A001 ---

    #[test]
    fn a001_fires_on_bare_cycle_addition() {
        let src = "fn f() { let t = self.cursor + dist; }";
        assert_eq!(codes_in(src, "sim"), vec!["A001"]);
        assert!(codes_in(src, "trace").is_empty());
    }

    #[test]
    fn a001_fires_on_compound_assignment() {
        let src = "fn f() { self.tx_work += self.cfg.access_cost; }";
        assert_eq!(codes_in(src, "htm"), vec!["A001"]);
        let src2 = "fn f() { total_cycles -= spent; }";
        assert_eq!(codes_in(src2, "sim"), vec!["A001"]);
    }

    #[test]
    fn a001_method_chain_operands_are_traced() {
        let src = "fn f() { let r = ctx.costs().abort_trap + base; }";
        assert_eq!(codes_in(src, "htm"), vec!["A001"]);
    }

    #[test]
    fn a001_checked_forms_are_sanctioned() {
        let src = "fn f() { let t = cycles.checked_add(extra).expect(\"cycle overflow\"); \
                   let s = left.saturating_sub(chunk); }";
        assert!(codes_in(src, "sim").is_empty());
    }

    #[test]
    fn a001_type_paths_are_sanctioned() {
        // `Cycle::new(..)` is the checked boundary; `now + Cycle::new(x)`
        // routes through the newtype's own (checked) Add.
        let src = "fn f() { let t = now + Cycle::new(x); }";
        assert!(codes_in(src, "sim").is_empty());
    }

    #[test]
    fn a001_ignores_non_cycle_names() {
        let src = "fn f() { let n = count + 1; let m = idx * 2; seq -= 1; }";
        assert!(codes_in(src, "sim").is_empty());
    }

    #[test]
    fn a001_ignores_unary_and_arrows() {
        let src = "fn f(x: &u64) -> u64 { let v = *x; let neg = -jitter(cost_of()); v }";
        assert!(codes_in(src, "sim").is_empty());
    }

    #[test]
    fn a001_skips_tests() {
        let src = "#[cfg(test)]\nmod tests { fn f() { let t = cursor + 1; } }";
        assert!(codes_in(src, "sim").is_empty());
    }
}
