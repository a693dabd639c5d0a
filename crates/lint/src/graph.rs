//! The workspace semantic model: a symbol table of `fn` items, an
//! approximate intra-workspace call graph, and a lock-site model with
//! guard live ranges. R7 (lock order), R8 (no blocking in the event
//! loop), R9 (verb conformance) and R10 (public functions with no
//! caller) reason over this instead of raw tokens.
//!
//! This is *name resolution by heuristic*, not rustc. The documented
//! approximations (DESIGN.md §17):
//!
//! * A call resolves only when its target is unambiguous: a `self.m()`
//!   receiver resolves within the caller's own `impl` block first; a
//!   `Type::f()` path resolves against `impl Type`; anything else
//!   resolves only if exactly one workspace `fn` bears the name
//!   (preferring a same-file match when several exist).
//! * Ubiquitous trait/std method names (`clone`, `next`, `drop`, …)
//!   are never resolved — treating every `.len()` as a call into the
//!   one local `fn len` would wire the graph to noise.
//! * No trait-object or closure resolution. A call through `dyn
//!   Trait`/`fn()` is invisible; rules built on the graph prefer
//!   false negatives over false positives.
//! * Lock identity is textual: the last field name of the receiver
//!   chain before a no-argument `.lock()`/`.read()`/`.write()`,
//!   qualified by the `impl` type when the receiver is `self.field`
//!   (`Registry::cache`). Two non-`self` locks sharing a field name
//!   collapse into one node — conservative for cycle detection.
//! * A guard's live range is the `let` binding's range (declaration to
//!   `drop(name)` or scope end, as R4 computes it); a guard never
//!   bound by a `let` lives to the end of its statement.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::scan::SourceFile;

/// One `fn` item (free or inherent/trait-impl method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the defining file in the build's file slice.
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The `impl` type the item sits in, if any.
    pub impl_ty: Option<String>,
    /// Whether the item is plain `pub` (not `pub(crate)` and kin).
    pub public: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Byte range of the body including braces; `(0, 0)` for bodiless
    /// trait signatures.
    pub body: (usize, usize),
}

/// One resolved call edge out of a function.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Index of the callee in [`Graph::fns`].
    pub callee: usize,
    /// Byte offset of the call site (the callee name token).
    pub byte: usize,
    /// 1-based line of the call site.
    pub line: u32,
}

/// One guard acquisition: a no-argument `.lock()`/`.read()`/`.write()`.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Index of the file in the build's file slice.
    pub file: usize,
    /// Index of the enclosing function in [`Graph::fns`], if any.
    pub fn_idx: Option<usize>,
    /// The lock's node name (`Type::field` for `self.field`, else the
    /// last receiver ident).
    pub name: String,
    /// The full receiver chain text (`self.cache`), for self-edge
    /// precision.
    pub chain: String,
    /// Whether the receiver chain contains an index expression —
    /// distinct elements of one collection, never a self-deadlock.
    pub indexed: bool,
    /// Byte offset of the taker ident (`lock`/`read`/`write`).
    pub byte: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Byte range over which the guard is live.
    pub live: (usize, usize),
}

/// The workspace model R7–R10 consume.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every `fn` item, in (file, byte) order.
    pub fns: Vec<FnItem>,
    /// Function indices by name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Resolved call edges, indexed by caller (parallel to `fns`).
    pub calls: Vec<Vec<CallEdge>>,
    /// Every lock acquisition outside test code.
    pub locks: Vec<LockSite>,
}

/// Method names never resolved as workspace calls: trait entry points
/// and std vocabulary that would wire the graph to noise.
const SKIP_CALLS: [&str; 63] = [
    "drop", "clone", "fmt", "default", "from", "into", "try_from", "try_into", "eq", "ne",
    "cmp", "partial_cmp", "hash", "next", "len", "is_empty", "iter", "iter_mut", "into_iter",
    "get", "get_mut", "insert", "remove", "push", "pop", "contains", "contains_key", "as_ref",
    "as_mut", "as_str", "as_bytes", "to_string", "to_owned", "to_vec", "unwrap", "unwrap_or",
    "unwrap_or_else", "unwrap_or_default", "expect", "map", "map_err", "and_then", "or_else",
    "ok", "ok_or", "ok_or_else", "filter", "collect", "extend", "clear", "take", "replace",
    "write", "read", "lock", "join", "new", "send", "min", "max", "abs", "parse", "spawn",
];

/// Atomic intrinsics that collide with workspace `fn` names (`load`,
/// `store`, …); an `Ordering` argument identifies the std atomic call.
const ATOMIC_METHODS: [&str; 11] = [
    "load", "store", "swap", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange", "compare_exchange_weak", "fetch_update",
];

/// Keywords that can precede `(` without being calls.
const KEYWORDS: [&str; 18] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "fn", "let", "use",
    "pub", "impl", "mod", "where", "unsafe", "move",
];

const GUARD_TAKERS: [&str; 3] = ["lock", "read", "write"];

impl Graph {
    /// Builds the model over the parsed files, in slice order.
    pub fn build(files: &[SourceFile]) -> Graph {
        let mut g = Graph::default();
        for (fi, f) in files.iter().enumerate() {
            scan_fns(f, fi, &mut g.fns);
        }
        for (i, item) in g.fns.iter().enumerate() {
            g.by_name.entry(item.name.clone()).or_default().push(i);
        }
        g.calls = vec![Vec::new(); g.fns.len()];
        for (fi, f) in files.iter().enumerate() {
            scan_calls(f, fi, &mut g);
            scan_locks(f, fi, &mut g);
        }
        g
    }

    /// Index of the innermost `fn` whose body contains `byte` in `file`.
    pub fn enclosing_fn(&self, file: usize, byte: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, it)| it.file == file && it.body.0 < byte && byte < it.body.1)
            .min_by_key(|(_, it)| it.body.1 - it.body.0)
            .map(|(i, _)| i)
    }

    /// Functions reachable from `roots` (inclusive), with the BFS
    /// parent of each reached node for witness paths.
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(r) {
                v.insert(None);
                queue.push(r);
            }
        }
        let mut qi = 0usize;
        while qi < queue.len() {
            let u = queue[qi];
            qi += 1;
            for e in &self.calls[u] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(e.callee) {
                    v.insert(Some(u));
                    queue.push(e.callee);
                }
            }
        }
        parent
    }

    /// The `entry -> … -> target` name chain out of a BFS parent map.
    pub fn path_names(&self, parent: &BTreeMap<usize, Option<usize>>, target: usize) -> Vec<String> {
        let mut chain = vec![self.fns[target].name.clone()];
        let mut cur = target;
        while let Some(Some(p)) = parent.get(&cur) {
            chain.push(self.fns[*p].name.clone());
            cur = *p;
        }
        chain.reverse();
        chain
    }
}

/// Collects `fn` items and their `impl` context from one file.
#[allow(clippy::needless_range_loop)]
fn scan_fns(f: &SourceFile, fi: usize, out: &mut Vec<FnItem>) {
    // `impl` block extents, innermost-last, found first so methods can
    // be attributed.
    let impls = scan_impls(f);
    let code = &f.code;
    for c in 0..code.len() {
        if ident_at(f, c) != Some("fn") {
            continue;
        }
        let Some(name) = ident_at(f, c + 1) else { continue };
        let tok = f.toks[code[c]];
        // Body: first `{` at paren/bracket depth 0 before a `;` (a `;`
        // first means a bodiless trait signature). `->` makes naive
        // angle tracking wrong, so angles are ignored: no `{` appears
        // inside the generics/return type of this codebase's subset.
        let mut depth = 0i32;
        let mut body = (0usize, 0usize);
        for d in (c + 2)..code.len() {
            let ti = code[d];
            if f.toks[ti].kind == TokKind::Punct {
                match f.text.as_bytes()[f.toks[ti].start] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => {
                        if let Some(close) = brace_close(f, d) {
                            body = (f.toks[ti].start, f.toks[f.code[close]].end);
                        }
                        break;
                    }
                    b';' if depth == 0 => break,
                    _ => {}
                }
            }
        }
        let impl_ty = impls
            .iter()
            .filter(|(_, s, e)| *s < tok.start && tok.start < *e)
            .min_by_key(|(_, s, e)| e - s)
            .map(|(ty, _, _)| ty.clone());
        let public = is_pub_item(f, c);
        out.push(FnItem { file: fi, name: name.to_string(), impl_ty, public, line: tok.line, body });
    }
}

/// Whether the `fn` keyword at code index `c` opens a plain `pub`
/// item: `pub`, then only `const`/`async`/`unsafe`/`extern "abi"`.
fn is_pub_item(f: &SourceFile, c: usize) -> bool {
    let mut p = c;
    while p > 0 {
        p -= 1;
        let t = f.toks[f.code[p]];
        match (t.kind, f.text_of(&t)) {
            (TokKind::Ident, "const" | "async" | "unsafe" | "extern") | (TokKind::Literal, _) => {}
            (TokKind::Ident, "pub") => return true,
            _ => return false,
        }
    }
    false
}

/// `(type name, body byte range)` of each `impl` block.
#[allow(clippy::needless_range_loop)]
fn scan_impls(f: &SourceFile) -> Vec<(String, usize, usize)> {
    let mut impls = Vec::new();
    let code = &f.code;
    for c in 0..code.len() {
        if ident_at(f, c) != Some("impl") {
            continue;
        }
        // `-> impl Trait` / `impl Trait` in argument position is not an
        // item: an item-position `impl` follows `}`/`;`/`]` or file
        // start or `unsafe`.
        if c > 0 {
            let prev = f.toks[code[c - 1]];
            let ok = match prev.kind {
                TokKind::Punct => matches!(f.text.as_bytes()[prev.start], b'}' | b';' | b']'),
                TokKind::Ident => f.text_of(&prev) == "unsafe",
                _ => false,
            };
            if !ok {
                continue;
            }
        }
        // Header idents at angle depth 0 up to the `{`; `for` splits a
        // trait impl — the type is the segment after it.
        let mut angle = 0i32;
        let mut before: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut open = None;
        for d in (c + 1)..code.len() {
            let ti = code[d];
            let t = f.toks[ti];
            match t.kind {
                TokKind::Punct => match f.text.as_bytes()[t.start] {
                    b'<' => angle += 1,
                    b'>' => angle -= 1,
                    b'{' if angle <= 0 => {
                        open = Some(d);
                        break;
                    }
                    b';' => break,
                    _ => {}
                },
                TokKind::Ident if angle == 0 => {
                    let name = f.text_of(&t).to_string();
                    if name == "for" {
                        saw_for = true;
                    } else if saw_for {
                        after_for.push(name);
                    } else {
                        before.push(name);
                    }
                }
                _ => {}
            }
        }
        let (Some(open), Some(close)) = (open, open.and_then(|o| brace_close(f, o))) else {
            continue;
        };
        let segs = if saw_for { &after_for } else { &before };
        if let Some(ty) = segs.last() {
            impls.push((
                ty.clone(),
                f.toks[code[open]].start,
                f.toks[f.code[close]].end,
            ));
        }
    }
    impls
}

/// Resolves call sites in one file against the symbol table.
#[allow(clippy::needless_range_loop)]
fn scan_calls(f: &SourceFile, fi: usize, g: &mut Graph) {
    let code = &f.code;
    for c in 0..code.len() {
        let Some(name) = ident_at(f, c) else { continue };
        if !punct_at(f, c + 1, '(') {
            continue;
        }
        if KEYWORDS.contains(&name) || SKIP_CALLS.contains(&name) {
            continue;
        }
        let tok = f.toks[code[c]];
        if f.in_test(tok.start) {
            continue;
        }
        // `name!(…)` is a macro, `fn name(` a definition.
        if c > 0 && ident_at(f, c - 1) == Some("fn") {
            continue;
        }
        let Some(caller) = g.enclosing_fn(fi, tok.start) else { continue };
        let is_method = c > 0 && punct_at(f, c - 1, '.');
        if is_method && ATOMIC_METHODS.contains(&name) && has_ordering_arg(f, c + 1) {
            continue;
        }
        let qualifier = if c >= 2 && punct_at(f, c - 1, ':') && punct_at(f, c - 2, ':') {
            ident_at(f, c.wrapping_sub(3)).map(|s| s.to_string())
        } else {
            None
        };
        let self_recv = is_method && ident_at(f, c.wrapping_sub(2)) == Some("self");
        let Some(callee) = resolve(g, fi, caller, name, is_method, self_recv, qualifier) else {
            continue;
        };
        g.calls[caller].push(CallEdge { callee, byte: tok.start, line: tok.line });
    }
}

/// Resolution order: `Self`/`self` → caller's impl; `Type::` → that
/// impl; then unique name workspace-wide (same file breaks ties).
fn resolve(
    g: &Graph,
    fi: usize,
    caller: usize,
    name: &str,
    is_method: bool,
    self_recv: bool,
    qualifier: Option<String>,
) -> Option<usize> {
    let cands = g.by_name.get(name)?;
    let caller_ty = g.fns[caller].impl_ty.as_deref();
    if self_recv {
        if let Some(ty) = caller_ty {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| g.fns[i].file == fi && g.fns[i].impl_ty.as_deref() == Some(ty))
                .collect();
            if same.len() == 1 {
                return Some(same[0]);
            }
        }
    }
    if let Some(q) = &qualifier {
        let want = if q == "Self" { caller_ty.map(|s| s.to_string()) } else { Some(q.clone()) };
        if let Some(want) = want {
            let hits: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| g.fns[i].impl_ty.as_deref() == Some(want.as_str()))
                .collect();
            if hits.len() == 1 {
                return Some(hits[0]);
            }
            if hits.is_empty() && is_qualifier_module_like(q) {
                // `module::free_fn(…)` — fall through to the unique
                // rule below.
            } else if hits.is_empty() {
                return None; // a foreign type's method — not ours
            }
        }
    }
    // A method call on a non-self receiver stays resolvable by unique
    // name: that is exactly the `store.flush()` case the event-loop
    // rule exists for.
    if cands.len() == 1 {
        let target = cands[0];
        if target == caller {
            return None; // self-recursion adds nothing to reachability
        }
        return Some(target);
    }
    let same_file: Vec<usize> = cands.iter().copied().filter(|&i| g.fns[i].file == fi).collect();
    if same_file.len() == 1 && same_file[0] != caller {
        return Some(same_file[0]);
    }
    let _ = is_method;
    None
}

fn is_qualifier_module_like(q: &str) -> bool {
    q.chars().next().is_some_and(|c| c.is_lowercase())
}

/// Whether the argument list opening at code index `open` mentions
/// `Ordering` — the signature of a std atomic operation.
fn has_ordering_arg(f: &SourceFile, open: usize) -> bool {
    let mut depth = 0i32;
    for d in open..f.code.len() {
        if punct_at(f, d, '(') {
            depth += 1;
        } else if punct_at(f, d, ')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if ident_at(f, d) == Some("Ordering") {
            return true;
        }
    }
    false
}

/// Collects guard acquisitions and their live ranges from one file.
#[allow(clippy::needless_range_loop)]
fn scan_locks(f: &SourceFile, fi: usize, g: &mut Graph) {
    let code = &f.code;
    for c in 2..code.len() {
        let Some(name) = ident_at(f, c) else { continue };
        if !GUARD_TAKERS.contains(&name) || !punct_at(f, c - 1, '.') {
            continue;
        }
        // No-argument call: `(` directly followed by `)`.
        if !(punct_at(f, c + 1, '(') && punct_at(f, c + 2, ')')) {
            continue;
        }
        let tok = f.toks[code[c]];
        if f.in_test(tok.start) {
            continue;
        }
        let (chain, indexed) = receiver_chain(f, c - 1);
        let Some(last) = chain.rsplit('.').next().filter(|s| !s.is_empty()) else {
            continue;
        };
        let fn_idx = g.enclosing_fn(fi, tok.start);
        let node = if chain.starts_with("self.") {
            match fn_idx.and_then(|i| g.fns[i].impl_ty.clone()) {
                Some(ty) => format!("{ty}::{last}"),
                None => last.to_string(),
            }
        } else {
            last.to_string()
        };
        let live = live_range(f, tok.start);
        g.locks.push(LockSite {
            file: fi,
            fn_idx,
            name: node,
            chain,
            indexed,
            byte: tok.start,
            line: tok.line,
            live,
        });
    }
}

/// Walks the receiver chain backwards from the `.` before the taker:
/// `self.cache` from `self.cache.lock()`, `partials` (indexed) from
/// `partials[i].lock()`.
fn receiver_chain(f: &SourceFile, dot: usize) -> (String, bool) {
    let mut parts: Vec<String> = Vec::new();
    let mut indexed = false;
    let mut c = dot; // points at the `.`
    loop {
        if c == 0 {
            break;
        }
        let prev = c - 1;
        if punct_at(f, prev, ']') {
            indexed = true;
            // Skip the whole `[…]` group.
            let mut depth = 0i32;
            let mut d = prev;
            loop {
                if punct_at(f, d, ']') {
                    depth += 1;
                } else if punct_at(f, d, '[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if d == 0 {
                    return (parts_join(&parts), indexed);
                }
                d -= 1;
            }
            c = d;
            continue;
        }
        if let Some(id) = ident_at(f, prev) {
            parts.push(id.to_string());
            // Another `.` continues the chain.
            if prev >= 1 && punct_at(f, prev - 1, '.') {
                c = prev - 1;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    (parts.join("."), indexed)
}

fn parts_join(parts: &[String]) -> String {
    let mut p = parts.to_vec();
    p.reverse();
    p.join(".")
}

/// The guard's live byte range: the enclosing `let`'s (R4 semantics —
/// declaration end to `drop(name)` or scope end) when the taker sits
/// at the top level of an initializer, else site to statement end.
fn live_range(f: &SourceFile, site: usize) -> (usize, usize) {
    let binding = f
        .lets
        .iter()
        .filter(|l| l.init.0 <= site && site < l.init.1 && top_level_in(f, l.init.0, site))
        .min_by_key(|l| l.init.1 - l.init.0);
    if let Some(l) = binding {
        return (l.decl_end, drop_point(f, &l.name, l.decl_end, l.scope_end));
    }
    (site, stmt_end(f, site))
}

/// Whether no `{ … }` block opens between `from` and `site` — i.e. the
/// site is at the top level of the initializer, so the guard reaches
/// the binding's value position instead of dying in an inner block.
#[allow(clippy::needless_range_loop)]
fn top_level_in(f: &SourceFile, from: usize, site: usize) -> bool {
    let mut depth = 0i32;
    for &ti in &f.code {
        let t = f.toks[ti];
        if t.start < from || t.start >= site {
            continue;
        }
        if t.kind == TokKind::Punct {
            match f.text.as_bytes()[t.start] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
    }
    depth <= 0
}

/// Byte offset where `drop(name)` releases the guard, else `scope_end`.
#[allow(clippy::needless_range_loop)]
fn drop_point(f: &SourceFile, name: &str, from: usize, scope_end: usize) -> usize {
    let code = &f.code;
    for c in 0..code.len() {
        let tok = f.toks[code[c]];
        if tok.start < from || tok.start >= scope_end {
            continue;
        }
        if ident_at(f, c) == Some("drop")
            && punct_at(f, c + 1, '(')
            && ident_at(f, c + 2) == Some(name)
            && punct_at(f, c + 3, ')')
        {
            return tok.start;
        }
    }
    scope_end
}

/// First `;` at brace/paren depth ≤ 0 after `site` (a temporary guard
/// dies at its statement's end; a guard feeding a block expression is
/// over-approximated to the next statement boundary).
fn stmt_end(f: &SourceFile, site: usize) -> usize {
    let mut depth = 0i32;
    for &ti in &f.code {
        let t = f.toks[ti];
        if t.start <= site {
            continue;
        }
        if t.kind == TokKind::Punct {
            match f.text.as_bytes()[t.start] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => depth -= 1,
                b';' if depth <= 0 => return t.start,
                _ => {}
            }
            if depth < 0 {
                return t.start; // enclosing block closed first
            }
        }
    }
    f.text.len()
}

/// Code index of the `}` matching the `{` at code index `open`.
fn brace_close(f: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, &ti) in f.code[open..].iter().enumerate() {
        let t = f.toks[ti];
        if t.kind != TokKind::Punct {
            continue;
        }
        match f.text.as_bytes()[t.start] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

fn ident_at(f: &SourceFile, c: usize) -> Option<&str> {
    f.code.get(c).and_then(|&ti| {
        let t = f.toks[ti];
        (t.kind == TokKind::Ident).then(|| f.text_of(&t))
    })
}

fn punct_at(f: &SourceFile, c: usize, ch: char) -> bool {
    f.code.get(c).is_some_and(|&ti| {
        let t = f.toks[ti];
        t.kind == TokKind::Punct && f.text.as_bytes()[t.start] == ch as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Graph) {
        let files: Vec<SourceFile> =
            srcs.iter().map(|(rel, s)| SourceFile::parse(rel.to_string(), s.to_string())).collect();
        let g = Graph::build(&files);
        (files, g)
    }

    fn fn_idx(g: &Graph, name: &str) -> usize {
        g.by_name[name][0]
    }

    #[test]
    fn fns_and_impl_attribution() {
        let (_, g) = build(&[(
            "a.rs",
            "struct S;\nimpl S {\n  fn m(&self) {}\n}\nimpl Drop for S {\n  fn drop(&mut self) {}\n}\nfn free() {}\n",
        )]);
        let m = &g.fns[fn_idx(&g, "m")];
        assert_eq!(m.impl_ty.as_deref(), Some("S"));
        let d = &g.fns[fn_idx(&g, "drop")];
        assert_eq!(d.impl_ty.as_deref(), Some("S"), "trait impl binds to the type after `for`");
        assert!(g.fns[fn_idx(&g, "free")].impl_ty.is_none());
    }

    #[test]
    fn visibility_is_plain_pub_only() {
        let (_, g) = build(&[(
            "a.rs",
            "pub fn a() {}\npub const unsafe fn b() {}\npub(crate) fn c() {}\nfn d() {}\n",
        )]);
        let public: Vec<bool> = g.fns.iter().map(|f| f.public).collect();
        assert_eq!(public, vec![true, true, false, false]);
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let (_, g) = build(&[(
            "a.rs",
            "fn make() -> impl Iterator<Item = u8> { [1u8].into_iter() }\nfn other() {}\n",
        )]);
        assert!(g.fns.iter().all(|f| f.impl_ty.is_none()));
    }

    #[test]
    fn unique_name_and_self_receiver_resolution() {
        let (_, g) = build(&[(
            "a.rs",
            "struct S;\nimpl S {\n  fn outer(&self) { self.helper(); other_file(); }\n  fn helper(&self) {}\n}\nfn other_file() { leaf(); }\nfn leaf() {}\n",
        )]);
        let outer = fn_idx(&g, "outer");
        let callees: Vec<&str> =
            g.calls[outer].iter().map(|e| g.fns[e.callee].name.as_str()).collect();
        assert_eq!(callees, vec!["helper", "other_file"]);
        let reach = g.reachable(&[outer]);
        assert!(reach.contains_key(&fn_idx(&g, "leaf")), "transitive closure");
        assert_eq!(
            g.path_names(&reach, fn_idx(&g, "leaf")),
            vec!["outer", "other_file", "leaf"]
        );
    }

    #[test]
    fn atomic_load_with_ordering_is_not_a_call_into_fn_load() {
        let (_, g) = build(&[(
            "a.rs",
            "struct S { total: AtomicU64 }\nimpl S {\n  fn load(&self) {}\n  \
             fn f(&self) { self.total.load(Ordering::Relaxed); store.load(&key); }\n}\n",
        )]);
        let f_ = fn_idx(&g, "f");
        // The atomic op is skipped; the keyed store read still resolves.
        assert_eq!(g.calls[f_].len(), 1, "{:?}", g.calls[f_]);
        assert_eq!(g.fns[g.calls[f_][0].callee].name, "load");
    }

    #[test]
    fn ambiguous_and_skipped_names_do_not_resolve() {
        let (_, g) = build(&[
            ("a.rs", "fn run() {}\nfn caller() { run(); x.clone(); }\n"),
            ("b.rs", "fn run() {}\n"),
        ]);
        // `run` is defined twice across files; the same-file candidate
        // wins for a caller in a.rs.
        let caller = fn_idx(&g, "caller");
        assert_eq!(g.calls[caller].len(), 1);
        assert_eq!(g.fns[g.calls[caller][0].callee].file, 0);
    }

    #[test]
    fn method_on_foreign_type_does_not_resolve() {
        let (_, g) = build(&[(
            "a.rs",
            "struct S;\nimpl S {\n  fn work(&self) {}\n}\nfn f() { Other::work(); }\n",
        )]);
        let f_ = fn_idx(&g, "f");
        assert!(g.calls[f_].is_empty(), "Other:: has no impl here — unresolved");
    }

    #[test]
    fn lock_sites_names_and_live_ranges() {
        let (files, g) = build(&[(
            "a.rs",
            "struct S;\nimpl S {\n  fn f(&self) {\n    let guard = self.cache.lock().unwrap();\n    let x = guard.len();\n    drop(guard);\n    self.other.lock().unwrap();\n  }\n}\n",
        )]);
        assert_eq!(g.locks.len(), 2);
        let cache = &g.locks[0];
        assert_eq!(cache.name, "S::cache");
        assert_eq!(cache.chain, "self.cache");
        let drop_at = files[0].text.find("drop(guard)").unwrap();
        assert_eq!(cache.live.1, drop_at, "drop(name) ends the live range");
        let other = &g.locks[1];
        assert_eq!(other.name, "S::other");
        let semi = files[0].text.find(".unwrap();\n  }\n}").map(|p| p + ".unwrap()".len());
        assert_eq!(Some(other.live.1), semi, "temporary guard dies at its statement");
    }

    #[test]
    fn indexed_receiver_is_marked() {
        let (_, g) = build(&[("a.rs", "fn f(p: &[Mutex<u8>]) { p[0].lock(); }\n")]);
        assert_eq!(g.locks.len(), 1);
        assert!(g.locks[0].indexed);
        assert_eq!(g.locks[0].name, "p");
    }

    #[test]
    fn lock_with_arguments_is_not_a_guard() {
        let (_, g) = build(&[("a.rs", "fn f() { sock.read(&mut buf); file.write(b); }\n")]);
        assert!(g.locks.is_empty());
    }

    #[test]
    fn test_code_is_invisible() {
        let (_, g) = build(&[(
            "a.rs",
            "fn target() {}\n#[cfg(test)]\nmod tests {\n  fn t() { target(); m.lock(); }\n}\n",
        )]);
        assert!(g.locks.is_empty());
        // The test fn exists but its call edge is dropped.
        let t = fn_idx(&g, "t");
        assert!(g.calls[t].is_empty());
    }
}
