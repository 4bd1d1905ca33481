//! Call-site extraction and resolution over the workspace symbol table.
//!
//! Every `name(…)` shape outside attributes and macro invocations becomes a
//! [`CallSite`] and is resolved into one of three classes:
//!
//! - **Workspace** — a unique workspace `fn`. Contributes a call edge.
//! - **External** — confidently std/foreign (std module paths, non-workspace
//!   receiver types, constructors, names the workspace never defines).
//! - **Ambiguous** — several workspace candidates and no discriminating
//!   evidence. No edge: reachability under-approximates rather than
//!   fanning out to every same-named method.
//!
//! Method receivers get one level of type inference: `recv: Type`
//! declarations (params, fields) and `let recv = Type::new(…)` initializers
//! in the enclosing function (falling back to file scope), with
//! `Arc`/`Rc`/`Box` peeled to the pointee. `resolved / call_sites` is the
//! resolution rate the CI `--stats` line reports and gates on.

use crate::lexer::TokKind;
use crate::model::{receiver_chain, SourceFile};
use crate::resolve::{build_symbols, norm_crate, FnInfo, SymbolTable};

/// What a call site resolved to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// A unique workspace function (fn id).
    Workspace(usize),
    /// Confidently not a workspace function.
    External,
    /// Workspace candidates exist but none is uniquely supported.
    Ambiguous,
}

/// One syntactic call.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index of the file in the analyzed set.
    pub file: usize,
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-based line of the callee name.
    pub line: u32,
    /// The callee name as written.
    pub name: String,
    /// Enclosing function (fn id), when the call is inside one.
    pub caller: Option<usize>,
    /// Resolution class.
    pub resolution: Resolution,
}

/// Aggregate numbers for `--stats` and the CI gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphStats {
    /// Files analyzed.
    pub files: usize,
    /// Function items found.
    pub functions: usize,
    /// Call sites extracted.
    pub call_sites: usize,
    /// Sites classed Workspace or External (not Ambiguous).
    pub resolved: usize,
    /// Caller → callee edges (workspace resolutions inside functions).
    pub edges: usize,
}

impl GraphStats {
    /// `resolved / call_sites` in `[0, 1]`; 1.0 when there are no sites.
    pub fn resolution_rate(&self) -> f64 {
        if self.call_sites == 0 {
            return 1.0;
        }
        self.resolved as f64 / self.call_sites as f64
    }
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// The underlying symbol table.
    pub symbols: SymbolTable,
    /// Every extracted call site.
    pub sites: Vec<CallSite>,
    /// Per caller fn id: `(callee fn id, site index)`.
    pub callees: Vec<Vec<(usize, usize)>>,
    /// Per callee fn id: `(caller fn id, site index)`.
    pub callers: Vec<Vec<(usize, usize)>>,
    /// Aggregate numbers.
    pub stats: GraphStats,
}

/// Keywords that read like `name(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "use", "pub", "unsafe", "where", "impl", "dyn", "ref", "mut", "box", "await", "break",
    "continue", "struct", "enum", "trait", "mod", "const", "static", "type", "crate", "super",
    "self", "Self",
];

/// Std/core module path heads and segments: a path qualified by one of
/// these is external by construction.
const STD_MODULES: &[&str] = &[
    "std",
    "core",
    "alloc",
    "mem",
    "ptr",
    "fmt",
    "cmp",
    "iter",
    "slice",
    "str",
    "char",
    "time",
    "thread",
    "process",
    "env",
    "fs",
    "io",
    "net",
    "sync",
    "mpsc",
    "atomic",
    "collections",
    "ops",
    "num",
    "panic",
    "hint",
    "array",
    "task",
    "borrow",
    "convert",
    "hash",
    "marker",
    "option",
    "result",
    "vec",
    "string",
    "boxed",
    "arch",
    "f32",
    "f64",
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "bool",
];

/// Method names so generic (`Vec`, maps, iterators, guards all have them)
/// that, without receiver-type evidence, a candidate-count vote would be
/// noise. With no inferred type these resolve External; with an inferred
/// workspace type they resolve normally.
const COMMON_METHOD_NAMES: &[&str] = &[
    "len", "is_empty", "get", "push", "pop", "clear", "contains", "extend", "insert", "remove",
    "iter", "clone", "next", "min", "max", "take", "get_mut", "new", "fmt", "eq", "cmp", "run",
    "expect", "unwrap", "write", "read", "send", "flush", "join",
];

/// Wrappers peeled to their pointee during receiver-type inference: smart
/// pointers, and lock types whose guards deref to the protected value
/// (`views: Mutex<ViewManager>` types its guard's methods as
/// `ViewManager`'s).
const DEREF_TYPES: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Option",
];

fn is_capitalized(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Token ranges covered by `#[…]` attributes (no calls inside).
fn attr_ranges(sf: &SourceFile) -> Vec<(usize, usize)> {
    let toks = sf.tokens();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
            if let Some(close) = sf.lexed.match_of(i + 1) {
                out.push((i, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Walks back from the callee name over `seg::seg::…::` and returns the
/// qualifying segments (empty for an unqualified call). Gives up on
/// qualified-generic prefixes (`Vec::<u8>::new`) — rare enough to leave
/// ambiguous.
fn path_qualifier(sf: &SourceFile, name_tok: usize) -> Vec<String> {
    let toks = sf.tokens();
    let mut segs: Vec<String> = Vec::new();
    let mut j = name_tok;
    while j >= 2 && toks[j - 1].is_punct("::") {
        let prev = &toks[j - 2];
        if prev.kind != TokKind::Ident {
            break;
        }
        segs.push(prev.text.clone());
        j -= 2;
    }
    segs.reverse();
    segs
}

/// Skips a turbofish `::<…>` after `name` and reports whether a `(`
/// follows, i.e. `name::<T>(…)` is a call of `name`.
fn turbofish_call(sf: &SourceFile, name_tok: usize) -> bool {
    let toks = sf.tokens();
    if !(toks.get(name_tok + 1).is_some_and(|t| t.is_punct("::"))
        && toks.get(name_tok + 2).is_some_and(|t| t.is_punct("<")))
    {
        return false;
    }
    let mut depth = 0i32;
    let mut j = name_tok + 2;
    while j < toks.len() && j < name_tok + 64 {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            ";" | "{" | "}" => return false,
            _ => {}
        }
        if depth <= 0 {
            return toks.get(j + 1).is_some_and(|t| t.is_punct("("));
        }
        j += 1;
    }
    false
}

/// Reads the type name out of a path starting at token `k`: the last
/// capitalized segment of `seg::seg::…`, with `Arc`/`Rc`/`Box` peeled to
/// the next capitalized identifier (`Arc<Mutex<T>>` → `Mutex`,
/// `Arc::new(Pool…)` → `Pool`).
fn type_from_path(sf: &SourceFile, mut k: usize) -> Option<String> {
    let toks = sf.tokens();
    while toks
        .get(k)
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime)
    {
        k += 1;
    }
    let mut ty: Option<String> = None;
    while let Some(t) = toks.get(k) {
        if t.kind == TokKind::Ident {
            if is_capitalized(&t.text) {
                ty = Some(t.text.clone());
            }
            if toks.get(k + 1).is_some_and(|n| n.is_punct("::")) {
                k += 2;
                continue;
            }
        }
        break;
    }
    // Peel smart pointers: look a few tokens past the pointer type for the
    // pointee (`Arc<Mutex<…>>`, `Arc::new(Pool::new(…))`).
    let mut depth = 0;
    while let Some(t) = ty.as_deref() {
        if !DEREF_TYPES.contains(&t) || depth > 3 {
            break;
        }
        depth += 1;
        let mut inner = None;
        for step in 1..8 {
            match toks.get(k + step) {
                Some(n) if n.kind == TokKind::Ident && is_capitalized(&n.text) => {
                    inner = Some((n.text.clone(), k + step));
                    break;
                }
                Some(n) if n.is_punct(";") || n.is_punct("{") => break,
                Some(_) => {}
                None => break,
            }
        }
        match inner {
            Some((name, at)) => {
                ty = Some(name);
                k = at;
            }
            None => break,
        }
    }
    ty
}

/// Infers the type of `recv` from declarations in `lo..hi` (an enclosing-fn
/// token range, or the whole file): `recv: Type` (params, struct fields,
/// field inits with a constructor) and `let [mut] recv = Type::…`.
fn infer_type_in(sf: &SourceFile, recv: &str, lo: usize, hi: usize) -> Option<String> {
    let toks = sf.tokens();
    let hi = hi.min(toks.len());
    for k in lo..hi {
        if !toks[k].is_ident(recv) {
            continue;
        }
        // `recv : <type-or-ctor-path>`
        if toks.get(k + 1).is_some_and(|t| t.is_punct(":")) {
            if let Some(ty) = type_from_path(sf, k + 2) {
                return Some(ty);
            }
        }
        // `let [mut] recv = <ctor-path>`
        let mut b = k;
        while b >= 1 && toks[b - 1].is_ident("mut") {
            b -= 1;
        }
        if b >= 1 && toks[b - 1].is_ident("let") && toks.get(k + 1).is_some_and(|t| t.is_punct("="))
        {
            if let Some(ty) = type_from_path(sf, k + 2) {
                return Some(ty);
            }
        }
    }
    None
}

/// True when `name` is bound to a closure in `lo..hi` (`let name = |…|` /
/// `let name = move |…|`), so a bare `name(…)` is not a workspace call.
fn is_local_closure(sf: &SourceFile, name: &str, lo: usize, hi: usize) -> bool {
    let toks = sf.tokens();
    let hi = hi.min(toks.len());
    for k in lo..hi {
        if toks[k].is_ident(name)
            && k >= 1
            && (toks[k - 1].is_ident("let") || toks[k - 1].is_ident("mut"))
            && toks.get(k + 1).is_some_and(|t| t.is_punct("="))
            && toks
                .get(k + 2)
                .is_some_and(|t| t.is_punct("|") || t.is_ident("move"))
        {
            return true;
        }
    }
    false
}

struct Resolver<'a> {
    files: &'a [SourceFile],
    symbols: &'a SymbolTable,
}

impl Resolver<'_> {
    fn fns(&self) -> &[FnInfo] {
        &self.symbols.fns
    }

    fn candidates(&self, name: &str) -> &[usize] {
        self.symbols.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Unique candidate satisfying `pred`, else the crate-preference
    /// tiebreak, else Ambiguous/External by candidate count.
    fn vote(
        &self,
        cands: &[usize],
        site_file: usize,
        pred: impl Fn(&FnInfo) -> bool,
    ) -> Resolution {
        let matched: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| pred(&self.fns()[id]))
            .collect();
        match matched.len() {
            0 => Resolution::External,
            1 => Resolution::Workspace(matched[0]),
            _ => {
                let same_file: Vec<usize> = matched
                    .iter()
                    .copied()
                    .filter(|&id| self.fns()[id].file == site_file)
                    .collect();
                if same_file.len() == 1 {
                    return Resolution::Workspace(same_file[0]);
                }
                let krate = &self.files[site_file].crate_name;
                let same_crate: Vec<usize> = matched
                    .iter()
                    .copied()
                    .filter(|&id| &self.files[self.fns()[id].file].crate_name == krate)
                    .collect();
                if same_crate.len() == 1 {
                    return Resolution::Workspace(same_crate[0]);
                }
                Resolution::Ambiguous
            }
        }
    }

    fn resolve_path(
        &self,
        file: usize,
        name: &str,
        qual: &[String],
        caller: Option<&FnInfo>,
    ) -> Resolution {
        let q = qual.last().map(String::as_str).unwrap_or("");
        if q == "Self" {
            let self_ty = caller.and_then(|c| c.self_type.clone());
            return match self_ty {
                Some(ty) => self.vote(self.candidates(name), file, |f| {
                    f.self_type.as_deref() == Some(&ty)
                }),
                None => Resolution::Ambiguous,
            };
        }
        if is_capitalized(q) {
            if self.symbols.impl_types.contains(q) {
                return self.vote(self.candidates(name), file, |f| {
                    f.self_type.as_deref() == Some(q)
                });
            }
            return Resolution::External; // std / foreign type
        }
        let qn = norm_crate(q);
        if qn == "crate" || q == "self" || q == "super" {
            let krate = &self.files[file].crate_name;
            return self.vote(self.candidates(name), file, |f| {
                &self.files[f.file].crate_name == krate
            });
        }
        if self.symbols.crates.contains(qn) {
            return self.vote(self.candidates(name), file, |f| {
                norm_crate(&self.files[f.file].crate_name) == qn
            });
        }
        if self.symbols.modules.contains(q) {
            return self.vote(self.candidates(name), file, |f| {
                self.files[f.file]
                    .path
                    .rsplit('/')
                    .next()
                    .is_some_and(|n| n.strip_suffix(".rs") == Some(q))
            });
        }
        if STD_MODULES.contains(&q)
            || qual
                .first()
                .is_some_and(|h| STD_MODULES.contains(&h.as_str()))
        {
            return Resolution::External;
        }
        Resolution::External // unknown lowercase qualifier: a local module alias
    }

    fn resolve_method(
        &self,
        file: usize,
        name: &str,
        tok: usize,
        caller: Option<&FnInfo>,
    ) -> Resolution {
        let sf = &self.files[file];
        let toks = sf.tokens();
        // Plain `self.name(…)`.
        let plain_self =
            tok >= 2 && toks[tok - 2].is_ident("self") && (tok < 3 || !toks[tok - 3].is_punct("."));
        if plain_self {
            if let Some(ty) = caller.and_then(|c| c.self_type.as_deref()) {
                let r = self.vote(self.candidates(name), file, |f| {
                    f.self_type.as_deref() == Some(ty)
                });
                if !matches!(r, Resolution::External) {
                    return r;
                }
            }
        }
        // Receiver-type inference: the last field in the receiver chain,
        // looked up in the enclosing fn first, then file-wide.
        let chain = receiver_chain(&sf.lexed, tok as isize - 2);
        let ty = chain.last().and_then(|recv| {
            let scoped = caller.filter(|c| c.file == file).and_then(|c| {
                let (_, close) = c.body?;
                infer_type_in(sf, recv, c.fn_tok, close)
            });
            scoped.or_else(|| infer_type_in(sf, recv, 0, toks.len()))
        });
        if let Some(ty) = ty.as_deref() {
            if self.symbols.impl_types.contains(ty) {
                return self.vote(self.candidates(name), file, |f| {
                    f.self_type.as_deref() == Some(ty) && f.has_self
                });
            }
            return Resolution::External; // receiver typed to a non-workspace type
        }
        if COMMON_METHOD_NAMES.contains(&name) {
            return Resolution::External;
        }
        self.vote(self.candidates(name), file, |f| f.has_self)
    }

    fn resolve_bare(&self, file: usize, name: &str, caller: Option<&FnInfo>) -> Resolution {
        if is_capitalized(name) {
            return Resolution::External; // tuple-struct / enum constructor
        }
        let sf = &self.files[file];
        if let Some(c) = caller.filter(|c| c.file == file) {
            if let Some((_, close)) = c.body {
                if is_local_closure(sf, name, c.fn_tok, close) {
                    return Resolution::External;
                }
            }
        }
        // An explicit import decides the crate.
        if let Some(path) = self.symbols.imports[file].get(name) {
            if let Some(head) = path.first() {
                let hn = norm_crate(head);
                if STD_MODULES.contains(&head.as_str()) {
                    return Resolution::External;
                }
                if self.symbols.crates.contains(hn) {
                    return self.vote(self.candidates(name), file, |f| {
                        f.self_type.is_none() && norm_crate(&self.files[f.file].crate_name) == hn
                    });
                }
            }
        }
        self.vote(self.candidates(name), file, |f| f.self_type.is_none())
    }
}

/// Builds the call graph for the analyzed set.
pub fn build(files: &[SourceFile]) -> CallGraph {
    let symbols = build_symbols(files);
    let resolver = Resolver {
        files,
        symbols: &symbols,
    };

    // Per-file fn ids, for enclosing-fn lookup.
    let mut file_fns: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
    for (id, f) in symbols.fns.iter().enumerate() {
        file_fns[f.file].push(id);
    }
    let enclosing = |file: usize, tok: usize| -> Option<usize> {
        file_fns[file]
            .iter()
            .copied()
            .filter(|&id| matches!(symbols.fns[id].body, Some((a, b)) if tok > a && tok < b))
            .max_by_key(|&id| symbols.fns[id].body.map(|(a, _)| a))
    };

    let mut sites: Vec<CallSite> = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        let toks = sf.tokens();
        let attrs = attr_ranges(sf);
        let in_attr = |i: usize| attrs.iter().any(|&(a, b)| i >= a && i <= b);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                || in_attr(i)
            {
                continue;
            }
            let direct = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if !direct && !turbofish_call(sf, i) {
                continue;
            }
            if i >= 1 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct("!")) {
                continue; // definition, or macro-rules fragment
            }
            let caller = enclosing(fi, i);
            let caller_info = caller.map(|id| &symbols.fns[id]);
            let resolution = if i >= 1 && toks[i - 1].is_punct(".") {
                resolver.resolve_method(fi, &t.text, i, caller_info)
            } else if i >= 1 && toks[i - 1].is_punct("::") {
                let qual = path_qualifier(sf, i);
                if qual.is_empty() {
                    Resolution::Ambiguous // qualified-generic prefix we skip
                } else {
                    resolver.resolve_path(fi, &t.text, &qual, caller_info)
                }
            } else {
                resolver.resolve_bare(fi, &t.text, caller_info)
            };
            sites.push(CallSite {
                file: fi,
                tok: i,
                line: t.line,
                name: t.text.clone(),
                caller,
                resolution,
            });
        }
    }

    let mut callees: Vec<Vec<(usize, usize)>> = vec![Vec::new(); symbols.fns.len()];
    let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); symbols.fns.len()];
    let mut edges = 0usize;
    for (si, s) in sites.iter().enumerate() {
        if let (Some(c), Resolution::Workspace(g)) = (s.caller, &s.resolution) {
            callees[c].push((*g, si));
            callers[*g].push((c, si));
            edges += 1;
        }
    }
    let resolved = sites
        .iter()
        .filter(|s| !matches!(s.resolution, Resolution::Ambiguous))
        .count();
    let stats = GraphStats {
        files: files.len(),
        functions: symbols.fns.len(),
        call_sites: sites.len(),
        resolved,
        edges,
    };
    CallGraph {
        symbols,
        sites,
        callees,
        callers,
        stats,
    }
}

impl CallGraph {
    /// The site at `(file, tok)`, if one was extracted there.
    pub fn site_at(&self, file: usize, tok: usize) -> Option<&CallSite> {
        self.sites.iter().find(|s| s.file == file && s.tok == tok)
    }

    /// Workspace-resolved call sites within a token range of one file.
    pub fn sites_in(&self, file: usize, lo: usize, hi: usize) -> impl Iterator<Item = &CallSite> {
        self.sites
            .iter()
            .filter(move |s| s.file == file && s.tok > lo && s.tok < hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let g = build(&files);
        (files, g)
    }

    fn resolution_of<'g>(g: &'g CallGraph, name: &str) -> &'g Resolution {
        &g.sites
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no call site named {name}"))
            .resolution
    }

    #[test]
    fn bare_calls_prefer_same_file_then_unique_global() {
        let (_f, g) = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn top() { helper(); distant(); }\n",
            ),
            ("crates/b/src/lib.rs", "pub fn distant() {}\n"),
        ]);
        assert!(matches!(
            resolution_of(&g, "helper"),
            Resolution::Workspace(_)
        ));
        assert!(matches!(
            resolution_of(&g, "distant"),
            Resolution::Workspace(_)
        ));
    }

    #[test]
    fn std_paths_and_constructors_are_external() {
        let (_f, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn top() { std::mem::take(&mut x); Vec::new(); Some(3); }\n",
        )]);
        assert_eq!(*resolution_of(&g, "take"), Resolution::External);
        assert_eq!(*resolution_of(&g, "new"), Resolution::External);
        assert_eq!(*resolution_of(&g, "Some"), Resolution::External);
    }

    #[test]
    fn crate_qualified_paths_resolve_across_crates() {
        let (_f, g) = graph_of(&[
            ("crates/wmc/src/dpll.rs", "pub fn solve() {}\n"),
            (
                "crates/server/src/service.rs",
                "fn top() { pdb_wmc::solve(); }\n",
            ),
        ]);
        let Resolution::Workspace(id) = resolution_of(&g, "solve") else {
            panic!("expected workspace resolution");
        };
        assert_eq!(g.symbols.fns[*id].name, "solve");
        assert_eq!(g.stats.edges, 1);
    }

    #[test]
    fn method_calls_use_receiver_type_inference() {
        let src = "pub struct Pool;\nimpl Pool { pub fn submit(&self) {} }\n\
                   fn top(pool: &Pool, m: &Mutex<u32>) { pool.submit(); m.lock(); }\n";
        let (_f, g) = graph_of(&[("crates/par/src/lib.rs", src)]);
        assert!(matches!(
            resolution_of(&g, "submit"),
            Resolution::Workspace(_)
        ));
        assert_eq!(*resolution_of(&g, "lock"), Resolution::External);
    }

    #[test]
    fn arc_receivers_peel_to_the_pointee() {
        let src = "pub struct Pool;\nimpl Pool { pub fn submit(&self) {} }\n\
                   fn top() { let pool = Arc::new(Pool); pool.submit(); }\n";
        let (_f, g) = graph_of(&[("crates/par/src/lib.rs", src)]);
        assert!(matches!(
            resolution_of(&g, "submit"),
            Resolution::Workspace(_)
        ));
    }

    #[test]
    fn self_methods_resolve_within_the_impl_type() {
        let src = "pub struct A;\npub struct B;\n\
                   impl A { fn go(&self) { self.step(); }\n fn step(&self) {} }\n\
                   impl B { fn step(&self) {} }\n";
        let (_f, g) = graph_of(&[("crates/a/src/lib.rs", src)]);
        let Resolution::Workspace(id) = resolution_of(&g, "step") else {
            panic!("expected workspace resolution");
        };
        assert_eq!(g.symbols.fns[*id].self_type.as_deref(), Some("A"));
    }

    #[test]
    fn local_closures_are_not_workspace_calls() {
        let src = "pub fn sat() {}\nfn top() { let sat = |x: u32| x; sat(3); }\n";
        let (_f, g) = graph_of(&[("crates/a/src/lib.rs", src)]);
        // Both the definition file's call and the closure shadow resolve
        // away from the workspace fn.
        assert_eq!(*resolution_of(&g, "sat"), Resolution::External);
    }

    #[test]
    fn macros_and_attributes_are_not_call_sites() {
        let src = "#[derive(Clone)]\nstruct S;\nfn top() { vec![1]; format!(\"x\"); }\n";
        let (_f, g) = graph_of(&[("crates/a/src/lib.rs", src)]);
        assert!(g.sites.is_empty(), "{:?}", g.sites);
    }

    #[test]
    fn turbofish_calls_are_extracted() {
        let src = "fn take<T>() -> T { todo!() }\nfn top() { take::<u32>(); }\n";
        let (_f, g) = graph_of(&[("crates/a/src/lib.rs", src)]);
        assert!(g
            .sites
            .iter()
            .any(|s| s.name == "take" && matches!(s.resolution, Resolution::Workspace(_))));
    }

    #[test]
    fn common_method_names_need_type_evidence() {
        let src = "pub struct M;\nimpl M { pub fn len(&self) -> usize { 0 } }\n\
                   fn a(m: &M) -> usize { m.len() }\nfn b(v: &Vec<u32>) -> usize { v.len() }\n";
        let (_f, g) = graph_of(&[("crates/a/src/lib.rs", src)]);
        let lens: Vec<&Resolution> = g
            .sites
            .iter()
            .filter(|s| s.name == "len")
            .map(|s| &s.resolution)
            .collect();
        assert!(matches!(lens[0], Resolution::Workspace(_)), "{lens:?}");
        assert_eq!(*lens[1], Resolution::External, "{lens:?}");
    }

    #[test]
    fn stats_count_sites_and_edges() {
        let (_f, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn x() {}\nfn top() { x(); String::new(); }\n",
        )]);
        assert_eq!(g.stats.call_sites, 2);
        assert_eq!(g.stats.resolved, 2);
        assert_eq!(g.stats.edges, 1);
        assert!(g.stats.resolution_rate() > 0.99);
    }
}
