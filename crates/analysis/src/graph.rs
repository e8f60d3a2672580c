//! The workspace call graph and hot-path reachability.
//!
//! Builds an interprocedural, whole-workspace call graph on top of the
//! per-file [`crate::source`] model: every non-test `fn` item becomes a
//! node; call sites inside function bodies become edges, resolved
//! *conservatively* — when a call is ambiguous the graph keeps every
//! plausible callee rather than guessing one:
//!
//! * `self.m(…)` resolves inside the receiver's `impl` block first;
//! * `x.m(…)` *types the receiver expression*: parameter and
//!   `let x: T = …` annotations, struct-field declarations
//!   (`self.shards`, chained `a.b.c`), the return types of workspace
//!   calls in the receiver chain, `let` bindings inferred from their
//!   initialisers, lock-guard payload projection
//!   (`Mutex<Lru>` + `.lock()` → `Lru`), smart-pointer transparency
//!   (`Arc`/`Rc`/`Box`), `Vec` indexing and `?` payloads, and struct
//!   literals. A typed workspace receiver resolves through the owner
//!   index only; a typed *external* receiver (`Vec`, `DefaultHasher`)
//!   yields no edges; only a genuinely untyped receiver (or a
//!   single-letter generic parameter) fans out to every workspace
//!   method named `m` — and never for `STD_METHODS` names, which
//!   are std/derive vocabulary, not workspace calls;
//! * `Type::m(…)` / `Self::m(…)` path calls resolve through the owner
//!   index, `free(…)` calls prefer the same module then fan out;
//! * calls that land on a body-less trait declaration are expanded to
//!   every workspace implementation of that method name (trait-impl
//!   conservatism);
//! * closure bodies are attributed to the enclosing function (a closure
//!   is treated as always called), and a bare function name in argument
//!   position (`rows.sort_by(total_cmp_f64)`) becomes an edge to that
//!   function (callback conservatism) — unless the name is shadowed by
//!   a local, parameter, or pattern binding.
//!
//! Known, documented gaps: implicit calls (`Drop::drop`, operator
//! traits, `?` conversions) and macro-generated code are not modeled —
//! the counting allocator in `it_hotpath_alloc` is the runtime check
//! that sees those.
//!
//! [`Reach`] is a breadth-first closure from declared entry points
//! ([`crate::config::EntryPoint`]); each reached node keeps its BFS
//! parent and the call-site line, so every finding raised inside a
//! reached function can carry a concrete *call-path witness* — the
//! entry-point→…→violation chain.

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::{BTreeSet, HashMap};

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index of the file in the scanned set.
    pub file: usize,
    /// Index of the function within [`SourceFile::functions`].
    pub func: usize,
    /// The file's module path (`costing::service`).
    pub module: String,
    /// The `impl`/`trait` owner type, if any.
    pub owner: Option<String>,
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// False for body-less trait declarations.
    pub has_body: bool,
}

impl Node {
    /// `module::Owner::name` (owner omitted for free functions).
    pub(crate) fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{}::{}::{}", self.module, owner, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Function nodes, in (sorted-file, token) order — deterministic.
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[n]` are `n`'s callees, sorted and deduplicated.
    pub edges: Vec<Vec<Edge>>,
    /// `token_owner[file][token]` — the *innermost* function node whose
    /// body contains the token (None outside function bodies / in test
    /// code). Rules use this to scope interprocedural checks.
    pub token_owner: Vec<Vec<Option<usize>>>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "let", "fn", "loop", "move", "in", "as", "where",
    "impl", "pub", "use", "mod", "unsafe", "ref", "mut", "else", "break", "continue", "dyn", "box",
    "type", "const", "static", "trait", "enum", "struct", "union", "await", "async", "crate",
    "super", "true", "false",
];

impl CallGraph {
    /// Builds the graph over pre-parsed sources. `files` order defines
    /// node order; pass a sorted set for deterministic output.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, function) in file.functions.iter().enumerate() {
                if file.in_test_code(function.line) {
                    continue;
                }
                nodes.push(Node {
                    file: fi,
                    func: gi,
                    module: file.module.clone(),
                    owner: function.owner.clone(),
                    name: function.name.clone(),
                    line: function.line,
                    has_body: !function.body.is_empty(),
                });
            }
        }

        // Lookup indexes. `by_name` splits methods (any `self` param)
        // from free functions so method calls never resolve to free
        // functions and vice versa.
        let mut by_owner: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_module_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (id, node) in nodes.iter().enumerate() {
            let function = &files[node.file].functions[node.func];
            if let Some(owner) = &node.owner {
                by_owner
                    .entry((owner.as_str(), node.name.as_str()))
                    .or_default()
                    .push(id);
            }
            if function.params.first().is_some_and(|p| p == "self") {
                methods_by_name.entry(&node.name).or_default().push(id);
            } else {
                free_by_name.entry(&node.name).or_default().push(id);
            }
            by_module_name
                .entry((node.module.as_str(), node.name.as_str()))
                .or_default()
                .push(id);
        }

        let field_types = collect_field_types(files);
        let mut type_names: std::collections::HashSet<String> =
            nodes.iter().filter_map(|n| n.owner.clone()).collect();
        type_names.extend(field_types.keys().map(|(owner, _)| owner.clone()));
        let resolver = Resolver {
            nodes: &nodes,
            files,
            by_owner,
            methods_by_name,
            free_by_name,
            by_module_name,
            field_types,
            type_names,
        };

        // Innermost-function ownership per token, per file, so calls in
        // a nested `fn` are attributed to the nested node, not the
        // enclosing one (closures have no node and stay attributed to
        // the enclosing function).
        let mut edges: Vec<BTreeSet<Edge>> = vec![BTreeSet::new(); nodes.len()];
        let mut token_owner: Vec<Vec<Option<usize>>> = Vec::with_capacity(files.len());
        for (fi, file) in files.iter().enumerate() {
            let mut inner: Vec<Option<usize>> = vec![None; file.tokens.len()];
            let mut file_nodes: Vec<usize> =
                (0..nodes.len()).filter(|&n| nodes[n].file == fi).collect();
            // Larger bodies first: smaller (nested) ranges overwrite.
            file_nodes.sort_by_key(|&n| {
                let b = &file.functions[nodes[n].func].body;
                std::cmp::Reverse(b.end - b.start)
            });
            for &n in &file_nodes {
                let body = file.functions[nodes[n].func].body.clone();
                for slot in &mut inner[body.start..body.end.min(file.tokens.len())] {
                    *slot = Some(n);
                }
            }
            for &n in &file_nodes {
                resolver.collect_calls(file, n, &inner, &mut edges[n]);
            }
            token_owner.push(inner);
        }

        CallGraph {
            edges: edges.into_iter().map(|s| s.into_iter().collect()).collect(),
            nodes,
            token_owner,
        }
    }

    /// Node index of `module`-level function `name`, if unique-enough:
    /// the first node matching (module, name) in node order.
    #[cfg(test)]
    pub(crate) fn find(&self, module: &str, name: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.module == module && n.name == name)
    }
}

/// A breadth-first reachability closure with BFS-parent witnesses.
#[derive(Debug)]
pub struct Reach {
    /// `flag[n]` — is node `n` in the closure?
    pub flag: Vec<bool>,
    /// `entry[n]` — is node `n` one of the seed entry points?
    pub entry: Vec<bool>,
    /// BFS parent of each reached node: `(caller, call-site line)`.
    pub parent: Vec<Option<(usize, usize)>>,
}

impl Reach {
    /// BFS from `entries` over `graph`, visiting nodes in index order
    /// (deterministic witnesses). Nodes matching `boundary` are *in*
    /// the closure but their out-edges are not followed — the escape
    /// for observability layers that are disabled in steady state.
    pub(crate) fn compute(
        graph: &CallGraph,
        entries: &[usize],
        boundary: &dyn Fn(&Node) -> bool,
    ) -> Reach {
        let n = graph.nodes.len();
        let mut reach = Reach {
            flag: vec![false; n],
            entry: vec![false; n],
            parent: vec![None; n],
        };
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if !reach.flag[e] {
                reach.flag[e] = true;
                reach.entry[e] = true;
                queue.push_back(e);
            }
        }
        while let Some(at) = queue.pop_front() {
            if boundary(&graph.nodes[at]) && !reach.entry[at] {
                continue;
            }
            for edge in &graph.edges[at] {
                if !reach.flag[edge.to] {
                    reach.flag[edge.to] = true;
                    reach.parent[edge.to] = Some((at, edge.line));
                    queue.push_back(edge.to);
                }
            }
        }
        reach
    }

    /// The witness chain for a reached node: qualified names from the
    /// entry point down to (and including) `node`.
    pub(crate) fn witness(&self, graph: &CallGraph, node: usize) -> Vec<String> {
        let mut chain = vec![graph.nodes[node].qualified()];
        let mut at = node;
        let mut hops = 0usize;
        while let Some((parent, _)) = self.parent[at] {
            chain.push(graph.nodes[parent].qualified());
            at = parent;
            hops += 1;
            if hops > graph.nodes.len() {
                break; // cycle guard; BFS parents cannot loop, belt & braces
            }
        }
        chain.reverse();
        chain
    }
}

/// Resolves entry points declared in the config to node indexes,
/// returning `(hot, zero_alloc, nonblocking, unresolved)` seed sets.
pub fn resolve_entries(
    graph: &CallGraph,
    config: &Config,
) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<String>) {
    let mut hot = Vec::new();
    let mut zero_alloc = Vec::new();
    let mut nonblocking = Vec::new();
    let mut unresolved = Vec::new();
    for ep in &config.entry_points {
        let mut found = false;
        for (id, node) in graph.nodes.iter().enumerate() {
            if node.module == ep.module && node.name == ep.function {
                found = true;
                hot.push(id);
                if ep.zero_alloc {
                    zero_alloc.push(id);
                }
                if ep.nonblocking {
                    nonblocking.push(id);
                }
            }
        }
        if !found {
            unresolved.push(format!("{}::{}", ep.module, ep.function));
        }
    }
    (hot, zero_alloc, nonblocking, unresolved)
}

/// Methods on the guard types below that return a guard dereferencing
/// to the wrapped payload type (`Mutex<LruCache>` + `.lock()` → method
/// calls on the guard resolve against `LruCache`).
const GUARD_METHODS: &[&str] = &["lock", "read", "write", "borrow", "borrow_mut"];

/// Container types whose single generic argument is the guard payload.
const GUARD_TYPES: &[&str] = &["Mutex", "RwLock", "RefCell"];

/// Transparent smart pointers: method calls auto-deref through them, so
/// the receiver type of `Arc<ServiceInner>` is `ServiceInner`.
const DEREF_WRAPPERS: &[&str] = &["Arc", "Rc", "Box"];

/// Std/core method names too ubiquitous to fan out on an *unknown*
/// receiver. An untyped `.len()` or `.finish()` is overwhelmingly the
/// std method; linking it to every same-named workspace method would
/// make the whole workspace reachable from any entry point (a hasher's
/// `h.finish()` must not become an edge to every `finish` in the tree).
/// Typed receivers are unaffected — a known workspace owner still
/// resolves any of these names through the owner index.
const STD_METHODS: &[&str] = &[
    "abs",
    "add",
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chars",
    "chunks",
    "chunks_exact",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "div",
    "drain",
    "drop",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "expect",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "filter_map",
    "find",
    "finish",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "log2",
    "map",
    "map_err",
    "max",
    "max_by",
    "min",
    "min_by",
    "mul",
    "ne",
    "neg",
    "next",
    "parse",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_at_mut",
    "sqrt",
    "starts_with",
    "step_by",
    "store",
    "sub",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "wrapping_add",
    "write",
    "write_all",
    "zip",
];

struct Resolver<'a> {
    nodes: &'a [Node],
    files: &'a [SourceFile],
    by_owner: HashMap<(&'a str, &'a str), Vec<usize>>,
    methods_by_name: HashMap<&'a str, Vec<usize>>,
    free_by_name: HashMap<&'a str, Vec<usize>>,
    by_module_name: HashMap<(&'a str, &'a str), Vec<usize>>,
    /// `(struct name, field name)` → declared field type, workspace-wide.
    field_types: HashMap<(String, String), String>,
    /// Every type name the workspace declares (impl/trait owners and
    /// field-bearing structs) — distinguishes a *workspace* receiver
    /// type (resolve through the owner index, no fan-out) from an
    /// *external* one (`Vec`, `DefaultHasher`: no edges at all) and
    /// from a single-letter *generic parameter* (untyped: keep the
    /// conservative fan-out for trait-bound calls).
    type_names: std::collections::HashSet<String>,
}

impl Resolver<'_> {
    /// Scans node `n`'s body for call sites and appends resolved edges.
    fn collect_calls(
        &self,
        file: &SourceFile,
        n: usize,
        inner: &[Option<usize>],
        out: &mut BTreeSet<Edge>,
    ) {
        let node = &self.nodes[n];
        let function = &file.functions[node.func];
        let body = function.body.clone();
        if body.is_empty() {
            return;
        }
        let locals = self.infer_locals(file, node);
        let bound = bound_idents(file, function);
        let tokens = &file.tokens;
        for i in body.clone() {
            if inner[i] != Some(n) {
                continue; // inside a nested fn item
            }
            let t = &tokens[i];
            if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            let next = tokens.get(i + 1);
            let name = t.text.as_str();
            if next.is_some_and(|x| x.is_punct('!')) {
                continue; // macro invocation
            }
            if next.is_some_and(|x| x.is_punct('(')) {
                let prev_dot = i >= 1 && tokens[i - 1].is_punct('.');
                let prev_path =
                    i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
                let targets = if prev_dot {
                    self.resolve_method(file, i, name, node, &locals)
                } else if prev_path {
                    let qualifier = tokens.get(i.wrapping_sub(3)).map(|q| q.text.as_str());
                    self.resolve_path(name, qualifier, node)
                } else if name == "self" || name == "Self" {
                    continue;
                } else {
                    self.resolve_free(name, node)
                };
                for id in targets {
                    out.insert(Edge {
                        to: id,
                        line: t.line,
                    });
                }
            } else if self.free_by_name.contains_key(name)
                && i >= 1
                && (tokens[i - 1].is_punct('(') || tokens[i - 1].is_punct(','))
                && next.is_some_and(|x| x.is_punct(')') || x.is_punct(','))
                && !locals.contains_key(name)
                && !bound.contains(name)
            {
                // Function passed as a value in argument position:
                // `rows.sort_by(total_cmp_f64)`. Conservatively assume
                // the callee invokes it.
                for &id in &self.free_by_name[name] {
                    out.insert(Edge {
                        to: id,
                        line: t.line,
                    });
                }
            }
        }
    }

    /// `recv.name(…)`: the receiver *expression* is typed (fields,
    /// locals, call-return types, guard projection, smart-pointer
    /// deref) and the method resolves through the owner index. A typed
    /// receiver that lacks the method yields no edges — it is a std or
    /// derived method, and fanning it out would link unrelated code.
    /// Only an *untyped* receiver falls back to every same-named
    /// workspace method, and never for [`STD_METHODS`] names.
    fn resolve_method(
        &self,
        file: &SourceFile,
        call: usize,
        name: &str,
        node: &Node,
        locals: &HashMap<String, String>,
    ) -> Vec<usize> {
        if call >= 2 {
            if let Some(ty) = self.expr_type(file, call - 2, node, locals, 0) {
                let stripped = strip_wrappers(&ty);
                if let Some(main) = main_type_ident(&stripped) {
                    if let Some(ids) = self.by_owner.get(&(main.as_str(), name)) {
                        return self.expand_traits(ids, name, true);
                    }
                    if self.type_names.contains(&main) {
                        // A workspace type without this method: a std
                        // or derived call on it — no workspace edges.
                        return Vec::new();
                    }
                    if !(main.len() == 1 && main.chars().all(char::is_uppercase)) {
                        // External type (`Vec`, `DefaultHasher`, `f64`):
                        // the call leaves the workspace. A single
                        // uppercase letter is a generic parameter and
                        // falls through to the conservative fan-out.
                        return Vec::new();
                    }
                }
            }
        }
        if STD_METHODS.contains(&name) {
            return Vec::new();
        }
        let ids = self.methods_by_name.get(name).cloned().unwrap_or_default();
        self.expand_traits(&ids, name, true)
    }

    /// Best-effort static type of the expression *ending* at token `at`
    /// (an identifier, or the closer of a call / index / struct
    /// literal). Returns the declared type string; `None` when the
    /// expression cannot be typed from local evidence.
    fn expr_type(
        &self,
        file: &SourceFile,
        at: usize,
        node: &Node,
        locals: &HashMap<String, String>,
        depth: usize,
    ) -> Option<String> {
        if depth > 12 {
            return None;
        }
        let tokens = &file.tokens;
        let t = tokens.get(at)?;
        match &t.kind {
            TokenKind::Ident if t.text == "self" => node.owner.clone(),
            TokenKind::Ident => {
                if at >= 2 && tokens[at - 1].is_punct('.') {
                    // `base.field` — type through the workspace field map.
                    let base = self.expr_type(file, at - 2, node, locals, depth + 1)?;
                    let main = main_type_ident(&strip_wrappers(&base))?;
                    self.field_types.get(&(main, t.text.clone())).cloned()
                } else {
                    locals.get(&t.text).cloned()
                }
            }
            TokenKind::Punct(')') => {
                let open = matching_open(tokens, at, '(', ')')?;
                let m = tokens.get(open.checked_sub(1)?)?;
                if m.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&m.text.as_str()) {
                    // Parenthesized expression, not a call.
                    return if open + 1 < at {
                        self.expr_type(file, at - 1, node, locals, depth + 1)
                    } else {
                        None
                    };
                }
                let mname = m.text.as_str();
                if open >= 2 && tokens[open - 2].is_punct('.') {
                    // `base.m(…)` — guard projection, then return type.
                    let base =
                        self.expr_type(file, open.checked_sub(3)?, node, locals, depth + 1)?;
                    let stripped = strip_wrappers(&base);
                    let main = main_type_ident(&stripped)?;
                    if GUARD_METHODS.contains(&mname) && GUARD_TYPES.contains(&main.as_str()) {
                        return generic_payload(&stripped);
                    }
                    let ids = self.by_owner.get(&(main.as_str(), mname))?;
                    self.ret_of(ids)
                } else if open >= 3
                    && tokens[open - 2].is_punct(':')
                    && tokens[open - 3].is_punct(':')
                {
                    // `Qual::m(…)` — associated-fn return type; for an
                    // external type, constructor names return the type
                    // itself (`DefaultHasher::new()` → `DefaultHasher`).
                    let q = tokens.get(open.checked_sub(4)?)?;
                    if q.kind != TokenKind::Ident {
                        return None;
                    }
                    let qname = if q.text == "Self" {
                        node.owner.clone()?
                    } else {
                        q.text.clone()
                    };
                    if let Some(ids) = self.by_owner.get(&(qname.as_str(), mname)) {
                        return self.ret_of_owned(ids, &qname);
                    }
                    let ctor = matches!(mname, "new" | "with_capacity" | "default" | "from");
                    if ctor && qname.chars().next().is_some_and(char::is_uppercase) {
                        return Some(qname);
                    }
                    None
                } else {
                    // Free call `f(…)`.
                    let ids = self
                        .by_module_name
                        .get(&(node.module.as_str(), mname))
                        .or_else(|| self.free_by_name.get(mname))?;
                    self.ret_of(ids)
                }
            }
            TokenKind::Punct(']') => {
                // Indexing projects a `Vec<T>` element.
                let open = matching_open(tokens, at, '[', ']')?;
                let base = self.expr_type(file, open.checked_sub(1)?, node, locals, depth + 1)?;
                let stripped = strip_wrappers(&base);
                let main = main_type_ident(&stripped)?;
                if matches!(main.as_str(), "Vec" | "VecDeque") {
                    generic_payload(&stripped)
                } else {
                    None
                }
            }
            TokenKind::Punct('?') => {
                // `expr?` unwraps the success payload.
                let inner = self.expr_type(file, at.checked_sub(1)?, node, locals, depth + 1)?;
                let stripped = strip_wrappers(&inner);
                let main = main_type_ident(&stripped)?;
                if matches!(main.as_str(), "Result" | "Option") {
                    generic_payload(&stripped)
                } else {
                    None
                }
            }
            TokenKind::Punct('}') => {
                // `Type { … }` struct literal (scrutinee blocks are
                // guarded out by the uppercase + not-`match` checks).
                let open = matching_open(tokens, at, '{', '}')?;
                let name = tokens.get(open.checked_sub(1)?)?;
                let before = open.checked_sub(2).and_then(|i| tokens.get(i));
                if name.kind == TokenKind::Ident
                    && name.text.chars().next().is_some_and(char::is_uppercase)
                    && !before.is_some_and(|b| b.is_ident("match"))
                {
                    Some(name.text.clone())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Declared return type of the first bodied candidate (`Self`
    /// normalized to the impl owner). `None` for `()`-returning fns.
    fn ret_of(&self, ids: &[usize]) -> Option<String> {
        let &id = ids
            .iter()
            .find(|&&id| self.nodes[id].has_body)
            .or(ids.first())?;
        let node = &self.nodes[id];
        let ret = &self.files[node.file].functions[node.func].ret;
        if ret.is_empty() {
            return None;
        }
        if main_type_ident(ret).as_deref() == Some("Self") {
            return node.owner.clone();
        }
        Some(ret.clone())
    }

    /// [`Resolver::ret_of`] with `Self` resolving to `owner` (for
    /// `Qual::m(…)` where the candidate's impl owner is the qualifier).
    fn ret_of_owned(&self, ids: &[usize], owner: &str) -> Option<String> {
        match self.ret_of(ids) {
            Some(ret) => Some(ret),
            None => {
                let &id = ids.first()?;
                let node = &self.nodes[id];
                let ret = &self.files[node.file].functions[node.func].ret;
                if main_type_ident(ret).as_deref() == Some("Self") {
                    Some(owner.to_string())
                } else {
                    None
                }
            }
        }
    }

    /// Local name → declared-or-inferred type for one function body:
    /// typed parameters, `let x: T` annotations, and `let x = <expr>`
    /// initializers typed through [`Resolver::expr_type`] (so
    /// `let shard = self.shard(…)` picks up the method's return type).
    fn infer_locals(&self, file: &SourceFile, node: &Node) -> HashMap<String, String> {
        let function = &file.functions[node.func];
        let body = &function.body;
        let mut out = HashMap::new();
        for (name, ty) in function.param_names.iter().zip(function.params.iter()) {
            if !name.is_empty() && name != "self" {
                out.insert(name.clone(), ty.clone());
            }
        }
        let tokens = &file.tokens;
        let mut i = body.start;
        while i + 3 < body.end {
            if !tokens[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let (Some(name_tok), Some(after)) = (tokens.get(j), tokens.get(j + 1)) else {
                i += 1;
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            if after.is_punct(':') {
                // `let x: T [= …];` — the annotation wins.
                let mut ty = String::new();
                let mut k = j + 2;
                let mut angle = 0i32;
                while let Some(t) = tokens.get(k) {
                    match &t.kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct('=') | TokenKind::Punct(';') if angle <= 0 => break,
                        _ => {}
                    }
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&token_text(t));
                    k += 1;
                }
                if !ty.is_empty() {
                    out.insert(name_tok.text.clone(), ty);
                }
                i = k;
            } else if after.is_punct('=') && !tokens.get(j + 2).is_some_and(|t| t.is_punct('=')) {
                // `let x = <expr>;` — type the initializer. Find the
                // statement-ending `;` at bracket depth 0.
                let mut k = j + 2;
                let mut depth = 0i32;
                let mut end = None;
                while let Some(t) = tokens.get(k) {
                    if k >= body.end {
                        break;
                    }
                    match &t.kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            depth += 1
                        }
                        TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                            depth -= 1
                        }
                        TokenKind::Punct(';') if depth <= 0 => {
                            end = Some(k);
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(end) = end {
                    if end > j + 2 {
                        if let Some(ty) = self.expr_type(file, end - 1, node, &out, 0) {
                            out.insert(name_tok.text.clone(), ty);
                        }
                    }
                    i = end;
                } else {
                    i = k;
                }
            } else {
                i += 1;
            }
        }
        out
    }

    /// `Qual::name(…)`: the owner index when `Qual` is a workspace
    /// type, the module index when it is a module path segment. A
    /// qualifier naming neither (std/external types like `Vec`,
    /// `DefaultHasher`, `std::mem`) yields no edges — fanning those out
    /// to every same-named workspace function would make everything
    /// reachable from anything.
    fn resolve_path(&self, name: &str, qualifier: Option<&str>, node: &Node) -> Vec<usize> {
        if let Some(q) = qualifier {
            let q = if q == "Self" {
                node.owner.as_deref().unwrap_or(q)
            } else {
                q
            };
            if let Some(ids) = self.by_owner.get(&(q, name)) {
                return self.expand_traits(ids, name, false);
            }
            let is_type_like = q.chars().next().is_some_and(char::is_uppercase);
            if is_type_like {
                // A workspace type without this associated fn, or an
                // external type: no edges either way.
                return Vec::new();
            }
            // A lowercase qualifier is a module path segment; resolve
            // to that module's functions with the name (none → external
            // module, no edges).
            let mut ids: Vec<usize> = self
                .by_module_name
                .iter()
                .filter(|((m, fname), _)| *fname == name && module_tail_matches(m, q))
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            ids.sort_unstable();
            return ids;
        }
        self.all_by_name(name)
    }

    /// `name(…)` with no qualifier: same-module first, then every free
    /// function with the name, then any function at all.
    fn resolve_free(&self, name: &str, node: &Node) -> Vec<usize> {
        if let Some(ids) = self.by_module_name.get(&(node.module.as_str(), name)) {
            return ids.clone();
        }
        if let Some(ids) = self.free_by_name.get(name) {
            return ids.clone();
        }
        Vec::new()
    }

    fn all_by_name(&self, name: &str) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .free_by_name
            .get(name)
            .into_iter()
            .chain(self.methods_by_name.get(name))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Replaces body-less trait declarations in `ids` with every bodied
    /// function of the same name (`methods_only` restricts the
    /// expansion to `self`-taking functions).
    fn expand_traits(&self, ids: &[usize], name: &str, methods_only: bool) -> Vec<usize> {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for &id in ids {
            if self.nodes[id].has_body {
                out.insert(id);
            } else {
                let pool = if methods_only {
                    self.methods_by_name.get(name)
                } else {
                    None
                }
                .into_iter()
                .chain(if methods_only {
                    None
                } else {
                    self.methods_by_name.get(name)
                })
                .chain(self.free_by_name.get(name))
                .flatten();
                for &impl_id in pool {
                    if self.nodes[impl_id].has_body {
                        out.insert(impl_id);
                    }
                }
                out.insert(id); // keep the decl node too (harmless)
            }
        }
        out.into_iter().collect()
    }
}

/// Does module path `m` end in segment `q` (`costing::service` matches
/// qualifier `service`)?
fn module_tail_matches(m: &str, q: &str) -> bool {
    m == q || m.ends_with(&format!("::{q}"))
}

/// Collects `name → type` facts visible inside a function body: the
/// function's own typed parameters plus `let [mut] x: Type = …`
/// annotations. Types reduce to their main path identifier with
/// references and generics stripped (`&mut EstimateScratch` →
/// `EstimateScratch`).
pub(crate) fn local_types(
    file: &SourceFile,
    body: &std::ops::Range<usize>,
    function: &crate::source::Function,
) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for (name, ty) in function.param_names.iter().zip(function.params.iter()) {
        if !name.is_empty() && name != "self" {
            if let Some(main) = main_type_ident(ty) {
                out.insert(name.clone(), main);
            }
        }
    }
    let tokens = &file.tokens;
    let mut i = body.start;
    while i + 3 < body.end {
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name_tok), Some(colon)) = (tokens.get(j), tokens.get(j + 1)) {
                if name_tok.kind == TokenKind::Ident && colon.is_punct(':') {
                    // Type tokens run to `=` or `;` at angle depth 0.
                    let mut ty_main = None;
                    let mut k = j + 2;
                    let mut angle = 0i32;
                    while let Some(t) = tokens.get(k) {
                        match &t.kind {
                            TokenKind::Punct('<') => angle += 1,
                            TokenKind::Punct('>') => angle -= 1,
                            TokenKind::Punct('=') | TokenKind::Punct(';') if angle <= 0 => break,
                            TokenKind::Ident
                                if angle <= 0
                                    && ty_main.is_none()
                                    && t.text != "mut"
                                    && t.text != "dyn" =>
                            {
                                ty_main = Some(t.text.clone());
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(ty) = ty_main {
                        out.insert(name_tok.text.clone(), ty);
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// The leading path identifier of a normalized type string
/// (`&mut Vec<f64>` → `Vec`; `&'a CacheKeyRef<'a>` → `CacheKeyRef`;
/// `impl Estimator` → `Estimator`). Modifier words (`mut`, `dyn`,
/// `impl`, `const`), lifetimes, and single-letter type parameters are
/// skipped — a `T` receiver stays untyped so trait-bound calls keep
/// their conservative fan-out.
pub(crate) fn main_type_ident(ty: &str) -> Option<String> {
    let mut chars = ty.chars().peekable();
    loop {
        while chars
            .peek()
            .is_some_and(|c| !(c.is_alphanumeric() || *c == '_'))
        {
            if *chars.peek().unwrap() == '<' {
                return None; // ran into generics without a head ident
            }
            chars.next();
        }
        let mut ident = String::new();
        while chars
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            ident.push(chars.next().unwrap());
        }
        if ident.is_empty() {
            return None;
        }
        if matches!(ident.as_str(), "mut" | "dyn" | "impl" | "const")
            || (ident.len() == 1 && ident.chars().all(char::is_lowercase))
        {
            continue; // modifier word or lifetime remnant
        }
        return Some(ident);
    }
}

/// A token's source text — punctuation tokens carry their char in the
/// kind, not the (empty) text field.
/// Identifiers bound by patterns inside `function`'s body: `for <pat>
/// in`, and `let <pat>` (tuple destructuring, `if let`/`while let`).
/// A name bound here that happens to collide with a free function must
/// not be mistaken for the function passed as a value — `x.swap(col,
/// r)` passes the loop variable `col`, not `Expr::col`.
fn bound_idents(file: &SourceFile, function: &crate::source::Function) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let mut out = BTreeSet::new();
    let mut i = function.body.start;
    while i < function.body.end {
        let t = &tokens[i];
        if t.is_ident("for") {
            // Everything between `for` and `in` is the pattern.
            let mut j = i + 1;
            while j < function.body.end && !tokens[j].is_ident("in") {
                if tokens[j].kind == TokenKind::Ident {
                    out.insert(tokens[j].text.clone());
                }
                j += 1;
            }
            i = j;
        } else if t.is_ident("let") {
            // The pattern runs to `=` (or `:`/`;`, whichever first).
            let mut j = i + 1;
            while j < function.body.end
                && !(tokens[j].is_punct('=') || tokens[j].is_punct(':') || tokens[j].is_punct(';'))
            {
                if tokens[j].kind == TokenKind::Ident {
                    out.insert(tokens[j].text.clone());
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

fn token_text(t: &crate::lexer::Token) -> String {
    match &t.kind {
        TokenKind::Punct(c) => c.to_string(),
        _ => t.text.clone(),
    }
}

/// Backward scan from a closing delimiter to its matching opener.
fn matching_open(
    tokens: &[crate::lexer::Token],
    close: usize,
    open_c: char,
    close_c: char,
) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        let t = tokens.get(j)?;
        if t.is_punct(close_c) {
            depth += 1;
        } else if t.is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// Peels references, modifiers, and transparent smart pointers off a
/// declared type string: `&'a Arc<ServiceInner>` → `ServiceInner`,
/// `&mut Mutex<LruCache>` → `Mutex < LruCache >` (guard types are kept
/// for payload projection).
fn strip_wrappers(ty: &str) -> String {
    let mut s = ty.to_string();
    loop {
        let Some(main) = main_type_ident(&s) else {
            return s;
        };
        if !DEREF_WRAPPERS.contains(&main.as_str()) {
            return s;
        }
        match generic_payload(&s) {
            Some(payload) => s = payload,
            None => return s,
        }
    }
}

/// The first top-level generic argument of a type string
/// (`Mutex<LruCache>` → `LruCache`; `Result<CostEstimate, E>` →
/// `CostEstimate`).
fn generic_payload(ty: &str) -> Option<String> {
    let start = ty.find('<')?;
    let mut depth = 0i32;
    let mut out = String::new();
    let mut prev = ' ';
    for c in ty[start..].chars() {
        match c {
            '<' => {
                depth += 1;
                if depth == 1 {
                    prev = c;
                    continue;
                }
            }
            '>' if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ',' if depth == 1 => break,
            _ => {}
        }
        out.push(c);
        prev = c;
    }
    let out = out.trim().to_string();
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Scans every file for `struct Name { field: Type, … }` declarations
/// and returns the workspace-wide `(struct, field) → type` map. Tuple
/// structs and enums contribute nothing; attributes, `pub` modifiers,
/// and generic/`where` headers are tolerated; test-code structs are
/// skipped.
fn collect_field_types(files: &[SourceFile]) -> HashMap<(String, String), String> {
    let mut out = HashMap::new();
    for file in files {
        let tokens = &file.tokens;
        let mut i = 0;
        while i + 2 < tokens.len() {
            if !tokens[i].is_ident("struct") || file.in_test_code(tokens[i].line) {
                i += 1;
                continue;
            }
            let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                i += 2;
                continue;
            };
            // Skip the generic/`where` header to the body `{` (a `;` or
            // `(` instead means a unit or tuple struct — no fields).
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut body_open = None;
            while let Some(t) = tokens.get(j) {
                match &t.kind {
                    TokenKind::Punct('<') => angle += 1,
                    TokenKind::Punct('>') => angle -= 1,
                    TokenKind::Punct('{') if angle <= 0 => {
                        body_open = Some(j);
                        break;
                    }
                    TokenKind::Punct(';') | TokenKind::Punct('(') if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body_open else {
                i = j + 1;
                continue;
            };
            let mut depth = 1i32;
            j = open + 1;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('{') {
                    depth += 1;
                    j += 1;
                    continue;
                }
                if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    j += 1;
                    continue;
                }
                if depth != 1 {
                    j += 1;
                    continue;
                }
                if t.is_punct('#') && tokens.get(j + 1).is_some_and(|x| x.is_punct('[')) {
                    let mut d = 0i32;
                    let mut k = j + 1;
                    while let Some(x) = tokens.get(k) {
                        if x.is_punct('[') {
                            d += 1;
                        } else if x.is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    j = k + 1;
                    continue;
                }
                if t.is_ident("pub") {
                    j += 1;
                    if tokens.get(j).is_some_and(|x| x.is_punct('(')) {
                        let mut d = 0i32;
                        while let Some(x) = tokens.get(j) {
                            if x.is_punct('(') {
                                d += 1;
                            } else if x.is_punct(')') {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                    continue;
                }
                if t.kind == TokenKind::Ident
                    && tokens.get(j + 1).is_some_and(|x| x.is_punct(':'))
                    && !tokens.get(j + 2).is_some_and(|x| x.is_punct(':'))
                {
                    let fname = t.text.clone();
                    let mut ty = String::new();
                    let mut k = j + 2;
                    let (mut a, mut p) = (0i32, 0i32);
                    let mut prev_minus = false;
                    while let Some(x) = tokens.get(k) {
                        match &x.kind {
                            TokenKind::Punct('<') => a += 1,
                            TokenKind::Punct('>') if !prev_minus => a -= 1,
                            TokenKind::Punct('(')
                            | TokenKind::Punct('[')
                            | TokenKind::Punct('{') => p += 1,
                            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                                if p == 0 {
                                    break;
                                }
                                p -= 1;
                            }
                            TokenKind::Punct('}') => {
                                if p == 0 {
                                    break;
                                }
                                p -= 1;
                            }
                            TokenKind::Punct(',') if a <= 0 && p <= 0 => break,
                            _ => {}
                        }
                        prev_minus = x.is_punct('-');
                        if !ty.is_empty() {
                            ty.push(' ');
                        }
                        ty.push_str(&token_text(x));
                        k += 1;
                    }
                    if !ty.is_empty() {
                        out.entry((name.text.clone(), fname)).or_insert(ty);
                    }
                    j = k;
                    continue;
                }
                j += 1;
            }
            i = j + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(sources: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect();
        CallGraph::build(&files)
    }

    fn edge_names(graph: &CallGraph, from: &str) -> Vec<String> {
        let fi = graph
            .nodes
            .iter()
            .position(|n| n.qualified().ends_with(from))
            .unwrap_or_else(|| panic!("no node {from}"));
        graph.edges[fi]
            .iter()
            .map(|e| graph.nodes[e.to].qualified())
            .collect()
    }

    #[test]
    fn pattern_bound_names_are_not_callback_edges() {
        // `col` is a free function, but the loop binding and the plain
        // variable argument shadow it — only the genuine
        // function-as-value use (`sort_by(col)`) gets an edge.
        let src = "\
pub(crate) fn col(a: &f64, b: &f64) -> std::cmp::Ordering { a.total_cmp(b) }
pub(crate) fn shadowed(xs: &mut [f64]) {
    for (i, col) in xs.iter().enumerate() { let _ = (i, col); }
    let (lo, col) = (1usize, 2usize);
    xs.swap(lo, col);
}
pub(crate) fn callback(xs: &mut [f64]) { xs.sort_by(col); }
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        assert!(edge_names(&graph, "a::shadowed").is_empty());
        assert_eq!(
            edge_names(&graph, "a::callback"),
            vec!["a::col".to_string()]
        );
    }

    #[test]
    fn direct_and_cross_crate_calls_resolve() {
        let graph = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); b_helper(3.0); }\nfn helper() {}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn b_helper(x: f64) -> f64 { x }\n",
            ),
        ]);
        let out = edge_names(&graph, "a::entry");
        assert!(out.contains(&"a::helper".to_string()), "{out:?}");
        assert!(out.contains(&"b::b_helper".to_string()), "{out:?}");
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let src = "\
struct S;
impl S {
    pub(crate) fn outer(&self) { self.inner(); }
    fn inner(&self) {}
}
struct T;
impl T {
    fn inner(&self) { boom(); }
}
fn boom() {}
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        let out = edge_names(&graph, "S::outer");
        assert_eq!(
            out,
            vec!["a::S::inner".to_string()],
            "self call stays in impl"
        );
    }

    #[test]
    fn typed_receivers_resolve_by_declared_type() {
        let src = "\
struct S;
struct T;
impl S { fn m(&self) {} }
impl T { fn m(&self) {} }
fn with_param(s: &S) { s.m(); }
fn with_let() { let t: T = make(); t.m(); }
fn make() -> T { T }
fn untyped(x) { x.m(); }
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(
            edge_names(&graph, "a::with_param"),
            vec!["a::S::m".to_string()]
        );
        let wl = edge_names(&graph, "a::with_let");
        assert!(wl.contains(&"a::T::m".to_string()), "{wl:?}");
        // Unknown receiver types fan out to every method of the name.
        let un = edge_names(&graph, "a::untyped");
        assert!(un.contains(&"a::S::m".to_string()) && un.contains(&"a::T::m".to_string()));
    }

    #[test]
    fn trait_calls_expand_to_every_impl() {
        let src = "\
trait Sink { fn on_event(&self); }
struct A;
struct B;
impl Sink for A { fn on_event(&self) {} }
impl Sink for B { fn on_event(&self) {} }
fn fire(s: &dyn Sink) { s.on_event(); }
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        let out = edge_names(&graph, "a::fire");
        assert!(
            out.contains(&"a::A::on_event".to_string())
                && out.contains(&"a::B::on_event".to_string()),
            "{out:?}"
        );
    }

    #[test]
    fn recursion_and_cycles_are_tolerated() {
        let src = "fn ping() { pong(); }\nfn pong() { ping(); }\nfn looper() { looper(); }\n";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        let ping = graph.find("a", "ping").unwrap();
        let reach = Reach::compute(&graph, &[ping], &|_| false);
        assert!(reach.flag.iter().filter(|&&f| f).count() >= 2);
        let pong = graph.find("a", "pong").unwrap();
        let chain = reach.witness(&graph, pong);
        assert_eq!(chain, vec!["a::ping".to_string(), "a::pong".to_string()]);
    }

    #[test]
    fn callback_references_create_edges() {
        let src = "\
fn cmp(a: &f64, b: &f64) -> Ordering { total(a, b) }
fn total(a: &f64, b: &f64) -> Ordering { a.total_cmp(b) }
fn sorter(xs: &mut [f64]) { xs.sort_by(cmp); }
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        let out = edge_names(&graph, "a::sorter");
        assert!(out.contains(&"a::cmp".to_string()), "{out:?}");
    }

    #[test]
    fn closure_bodies_attribute_to_the_enclosing_function() {
        let src = "\
fn outer(xs: &[f64]) -> f64 { xs.iter().map(|x| helper(*x)).sum() }
fn helper(x: f64) -> f64 { x }
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        assert!(edge_names(&graph, "a::outer").contains(&"a::helper".to_string()));
    }

    #[test]
    fn nested_fn_items_take_their_own_calls() {
        let src = "\
fn outer() { fn nested() { deep(); } nested(); }
fn deep() {}
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        let outer = edge_names(&graph, "a::outer");
        assert!(outer.contains(&"a::nested".to_string()), "{outer:?}");
        assert!(!outer.contains(&"a::deep".to_string()), "{outer:?}");
        assert!(edge_names(&graph, "a::nested").contains(&"a::deep".to_string()));
    }

    #[test]
    fn test_code_is_not_in_the_graph() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() { super::live(); }
}
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        assert!(graph.nodes.iter().all(|n| n.name != "helper"));
    }

    #[test]
    fn boundary_nodes_stop_traversal_but_stay_reached() {
        let src = "\
fn entry() { boundary(); }
fn boundary() { beyond(); }
fn beyond() {}
";
        let graph = graph_of(&[("crates/a/src/lib.rs", src)]);
        let e = graph.find("a", "entry").unwrap();
        let reach = Reach::compute(&graph, &[e], &|n| n.name == "boundary");
        let b = graph.find("a", "boundary").unwrap();
        let beyond = graph.find("a", "beyond").unwrap();
        assert!(reach.flag[b]);
        assert!(!reach.flag[beyond]);
    }

    #[test]
    fn graph_json_is_deterministic() {
        let sources = [
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); }\nfn helper() {}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn other() { helper_b(); }\nfn helper_b() {}\n",
            ),
        ];
        // Two builds agree node for node and edge for edge: witnesses
        // (BFS in index order) are stable across runs.
        let shape = |graph: &CallGraph| -> (Vec<(String, usize)>, Vec<Vec<Edge>>) {
            let nodes = graph.nodes.iter().map(|n| (n.qualified(), n.line));
            (nodes.collect(), graph.edges.clone())
        };
        let graph1 = graph_of(&sources);
        let graph2 = graph_of(&sources);
        assert_eq!(shape(&graph1), shape(&graph2));
        assert_eq!(graph1.nodes[0].qualified(), "a::entry");
        assert_eq!(edge_names(&graph1, "entry"), ["a::helper"]);
    }
}
