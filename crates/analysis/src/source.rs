//! Per-file source model: tokens plus the derived structure every rule
//! shares — module path, `#[cfg(test)]` spans, function inventory, and
//! `analysis:allow` annotations.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// An inline `// analysis:allow(rule): reason` escape-hatch annotation.
///
/// Accepted spellings (the reason is mandatory — rule
/// `allow-missing-reason` fires otherwise):
///
/// ```text
/// // analysis:allow(panic-freedom): callers guard on is_specific
/// // analysis:allow(panic-freedom, callers guard on is_specific)
/// ```
///
/// An annotation suppresses matching findings on its own line and on
/// the line directly below it.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line of the annotation comment.
    pub line: usize,
    /// The rule id it suppresses.
    pub rule: String,
    /// Why the violation is acceptable (may be empty — then invalid).
    pub reason: String,
}

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Normalized parameter type strings (receivers collapse to `"self"`).
    pub params: Vec<String>,
    /// Parameter binding names aligned with [`Function::params`]
    /// (receivers are `"self"`; destructuring patterns are `""`).
    pub param_names: Vec<String>,
    /// Normalized return-type string (empty for `()`-returning fns).
    pub ret: String,
    /// Token-index range of the body, `start..end` over the `{`…`}`.
    pub body: std::ops::Range<usize>,
    /// Doc comment attached above the item, concatenated.
    pub doc: String,
    /// Token index of the `fn` keyword (for impl-owner attribution).
    pub decl: usize,
    /// The `impl`/`trait` type this function belongs to, if any
    /// (`impl Display for CostEstimate` attributes to `CostEstimate`).
    pub owner: Option<String>,
}

impl Function {
    /// True when the doc comment declares a `# Panics` section — the
    /// documented-contract escape for the panic-freedom rule.
    pub(crate) fn documents_panics(&self) -> bool {
        self.doc.contains("# Panics")
    }
}

/// A lexed file plus the shared derived structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Rust module path, e.g. `costing::service` for
    /// `crates/costing/src/service/mod.rs`.
    pub module: String,
    /// The token stream (comments excluded).
    pub tokens: Vec<Token>,
    /// The comment side channel.
    pub comments: Vec<Comment>,
    /// Parsed `analysis:allow` annotations.
    pub allows: Vec<Allow>,
    /// Every recovered `fn` item.
    pub functions: Vec<Function>,
    /// Line ranges (inclusive) of `#[cfg(test)]` modules and `#[test]` fns.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and indexes one file. `path` is workspace-relative; the
    /// module path is derived from it (see [`module_path_of`]).
    pub(crate) fn parse(path: &str, text: &str) -> SourceFile {
        let (tokens, comments) = lex(text);
        let allows = parse_allows(&comments);
        let test_spans = find_test_spans(&tokens);
        let functions = find_functions(&tokens, &comments);
        SourceFile {
            path: path.to_string(),
            module: module_path_of(path),
            tokens,
            comments,
            allows,
            functions,
            test_spans,
        }
    }

    /// True when `line` falls inside a `#[cfg(test)]` module or a
    /// `#[test]` function.
    pub(crate) fn in_test_code(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// True when this file's module path is, or sits under, one of
    /// `prefixes` (matching on `::` boundaries).
    pub(crate) fn module_in(&self, prefixes: &[String]) -> bool {
        prefixes
            .iter()
            .any(|p| self.module == *p || self.module.starts_with(&format!("{p}::")))
    }
}

/// Derives a module path from a workspace-relative file path.
///
/// `crates/costing/src/service/mod.rs` → `costing::service`;
/// `crates/remote-sim/src/lib.rs` → `remote_sim`; paths outside the
/// `crates/*/src` shape fall back to the `/`-to-`::` mapping of the
/// whole path minus the extension.
pub(crate) fn module_path_of(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let (crate_name, rest) = match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] => (krate.replace('-', "_"), rest),
        ["shims", krate, "src", rest @ ..] => (krate.replace('-', "_"), rest),
        _ => {
            return path
                .trim_end_matches(".rs")
                .replace('-', "_")
                .replace('/', "::")
        }
    };
    let mut module = vec![crate_name];
    for (i, part) in rest.iter().enumerate() {
        let leaf = part.trim_end_matches(".rs");
        let last = i + 1 == rest.len();
        if last && (leaf == "mod" || leaf == "lib" || leaf == "main") {
            continue;
        }
        module.push(leaf.replace('-', "_"));
    }
    module.join("::")
}

fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        if c.doc {
            // Doc comments *mention* the annotation (rule docs show the
            // syntax); only plain `//` comments *are* annotations.
            continue;
        }
        let Some(at) = c.text.find("analysis:allow(") else {
            continue;
        };
        let args = &c.text[at + "analysis:allow(".len()..];
        let Some(close) = args.find(')') else {
            continue;
        };
        let inside = &args[..close];
        let after = &args[close + 1..];
        let (rule, mut reason) = match inside.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
            None => (inside.trim().to_string(), String::new()),
        };
        if reason.is_empty() {
            if let Some(rest) = after.trim_start().strip_prefix(':') {
                reason = rest.trim().to_string();
            }
        }
        out.push(Allow {
            line: c.line,
            rule,
            reason,
        });
    }
    out
}

/// Finds `#[cfg(test)] mod … { … }` and `#[test] fn … { … }` line spans.
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && matches(tokens, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            if let Some(end) = body_end_from(tokens, i + 7) {
                spans.push((tokens[i].line, tokens[end].line));
            }
        } else if tokens[i].is_punct('#') && matches(tokens, i + 1, &["[", "test", "]"]) {
            if let Some(end) = body_end_from(tokens, i + 4) {
                spans.push((tokens[i].line, tokens[end].line));
            }
        }
        i += 1;
    }
    spans
}

/// Matches a run of single-char puncts / idents starting at `start`.
fn matches(tokens: &[Token], start: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(i, p)| {
        let Some(t) = tokens.get(start + i) else {
            return false;
        };
        let mut chars = p.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if !c.is_alphanumeric() && c != '_' => t.is_punct(c),
            _ => t.is_ident(p),
        }
    })
}

/// From `start`, skips to the first `{` and returns the index of its
/// matching `}`.
fn body_end_from(tokens: &[Token], start: usize) -> Option<usize> {
    let open = (start..tokens.len()).find(|&i| tokens[i].is_punct('{'))?;
    matching_brace(tokens, open)
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds `impl [Trait for] Type { … }` and `trait Name { … }` blocks,
/// returning `(type-name, body-token-range)` pairs. The type name is
/// the last path identifier of the implemented-for type (so
/// `impl fmt::Display for CostEstimate` and
/// `impl<'a> CacheQuery for CacheKeyRef<'a>` both attribute to the
/// concrete type), with generic arguments and `dyn` skipped.
fn find_impl_owners(tokens: &[Token]) -> Vec<(String, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_impl = tokens[i].is_ident("impl");
        let is_trait = tokens[i].is_ident("trait");
        if !is_impl && !is_trait {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip `impl<…>` generics.
        if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Walk to the opening brace, remembering the last plain type
        // identifier at angle-depth 0; `for` restarts the collection so
        // the implemented-for type wins over the trait name.
        let mut owner: Option<String> = None;
        let mut angle = 0i32;
        let mut open = None;
        while let Some(t) = tokens.get(j) {
            match &t.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Punct('{') if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(';') if angle <= 0 => break,
                TokenKind::Ident if angle <= 0 => {
                    if t.text == "for" {
                        owner = None;
                    } else if t.text == "where" {
                        // Bounds follow; the owner is already decided.
                        let brace = (j..tokens.len()).find(|&k| tokens[k].is_punct('{'));
                        open = brace;
                        break;
                    } else if t.text != "dyn" && t.text != "mut" && t.text != "const" {
                        owner = Some(t.text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let (Some(owner), Some(open)) = (owner, open) {
            if let Some(close) = matching_brace(tokens, open) {
                out.push((owner, open..close + 1));
                i = open;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn find_functions(tokens: &[Token], comments: &[Comment]) -> Vec<Function> {
    let doc_lines: std::collections::BTreeMap<usize, &str> = comments
        .iter()
        .filter(|c| c.doc)
        .map(|c| (c.line, c.text.as_str()))
        .collect();
    let attr_lines: std::collections::BTreeSet<usize> = tokens
        .windows(2)
        .filter(|w| w[0].is_punct('#') && w[1].is_punct('['))
        .map(|w| w[0].line)
        .collect();

    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn(` is a function-pointer type, not an item.
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = tokens[i].line;
        let mut j = i + 2;
        // Skip generics (the `>` of a `Fn() -> T` bound closes nothing).
        if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') && !tokens[j - 1].is_punct('-') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        // Capture the parameter list.
        let params_open = j;
        let mut depth = 0i32;
        let mut params_close = None;
        while let Some(t) = tokens.get(j) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    params_close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(params_close) = params_close else {
            break;
        };
        let pairs = split_params(&tokens[params_open + 1..params_close]);
        let param_names: Vec<String> = pairs.iter().map(|(n, _)| n.clone()).collect();
        let params: Vec<String> = pairs.into_iter().map(|(_, t)| t).collect();

        // Return type: tokens between `->` and the body/`;`/`where`.
        let mut ret = String::new();
        let mut k = params_close + 1;
        if tokens.get(k).is_some_and(|t| t.is_punct('-'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('>'))
        {
            k += 2;
            let mut ret_tokens = Vec::new();
            let mut angle = 0i32;
            while let Some(t) = tokens.get(k) {
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                }
                if angle <= 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                    break;
                }
                ret_tokens.push(t);
                k += 1;
            }
            ret = join_tokens(&ret_tokens);
        }
        // Body (if any): first `{` before the next `;` at this level.
        let mut body = 0..0;
        while let Some(t) = tokens.get(k) {
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                if let Some(end) = matching_brace(tokens, k) {
                    body = k..end + 1;
                }
                break;
            }
            k += 1;
        }
        // Doc comment: contiguous doc/attribute lines directly above.
        let mut doc = Vec::new();
        let mut l = line.saturating_sub(1);
        while l > 0 {
            if let Some(text) = doc_lines.get(&l) {
                doc.push(*text);
            } else if !attr_lines.contains(&l) {
                break;
            }
            l -= 1;
        }
        doc.reverse();

        out.push(Function {
            name,
            line,
            params,
            param_names,
            ret,
            body,
            doc: doc.join("\n"),
            decl: i,
            owner: None,
        });
        i = params_close + 1;
    }
    // Attribute each function to the innermost enclosing impl/trait
    // block, if any.
    let owners = find_impl_owners(tokens);
    for f in &mut out {
        f.owner = owners
            .iter()
            .filter(|(_, r)| r.contains(&f.decl))
            .min_by_key(|(_, r)| r.end - r.start)
            .map(|(o, _)| o.clone());
    }
    out
}

/// Splits a parameter token run on top-level commas and normalizes each
/// parameter to a `(binding-name, type-text)` pair (`self` receivers
/// collapse to `("self", "self")`; destructuring patterns get `""`).
fn split_params(tokens: &[Token]) -> Vec<(String, String)> {
    let mut params = Vec::new();
    let mut current: Vec<&Token> = Vec::new();
    let mut depth = 0i32;
    for t in tokens {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct(',') if depth == 0 => {
                if let Some(p) = normalize_param(&current) {
                    params.push(p);
                }
                current.clear();
                continue;
            }
            _ => {}
        }
        current.push(t);
    }
    if let Some(p) = normalize_param(&current) {
        params.push(p);
    }
    params
}

fn normalize_param(tokens: &[&Token]) -> Option<(String, String)> {
    if tokens.is_empty() {
        return None;
    }
    if tokens.iter().any(|t| t.is_ident("self")) && !tokens.iter().any(|t| t.is_punct(':')) {
        return Some(("self".to_string(), "self".to_string()));
    }
    let colon = tokens.iter().position(|t| t.is_punct(':'))?;
    // Binding name: a plain `[mut] name` pattern before the colon;
    // anything fancier (tuples, refs) gets an empty name.
    let pattern: Vec<&&Token> = tokens[..colon]
        .iter()
        .filter(|t| !t.is_ident("mut"))
        .collect();
    let name = match pattern.as_slice() {
        [only] if only.kind == TokenKind::Ident => only.text.clone(),
        _ => String::new(),
    };
    Some((name, join_tokens(&tokens[colon + 1..])))
}

fn join_tokens(tokens: &[&Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        let piece = match &t.kind {
            TokenKind::Punct(c) => {
                out.push(*c);
                continue;
            }
            _ => t.text.as_str(),
        };
        if out
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            out.push(' ');
        }
        out.push_str(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        assert_eq!(
            module_path_of("crates/costing/src/service/mod.rs"),
            "costing::service"
        );
        assert_eq!(
            module_path_of("crates/costing/src/sub_op/measurement.rs"),
            "costing::sub_op::measurement"
        );
        assert_eq!(module_path_of("crates/remote-sim/src/lib.rs"), "remote_sim");
        assert_eq!(
            module_path_of("shims/parking_lot/src/lib.rs"),
            "parking_lot"
        );
        assert_eq!(
            module_path_of("tests/it_lock_order.rs"),
            "tests::it_lock_order"
        );
    }

    #[test]
    fn module_prefix_matching() {
        let f = SourceFile::parse("crates/costing/src/service/cache.rs", "");
        assert!(f.module_in(&["costing::service".into()]));
        assert!(f.module_in(&["costing".into()]));
        assert!(!f.module_in(&["costing::serv".into()]));
        assert!(!f.module_in(&["federation".into()]));
    }

    #[test]
    fn cfg_test_spans() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() {}\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_attr_fn_span() {
        let src = "#[test]\nfn check() {\n    boom();\n}\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.in_test_code(3));
        assert!(!f.in_test_code(5));
    }

    #[test]
    fn allow_annotations_both_spellings() {
        let src = "// analysis:allow(panic-freedom): invariant upheld by caller\n\
                   x.unwrap();\n\
                   // analysis:allow(float-discipline, exact sentinel compare)\n\
                   // analysis:allow(nondeterminism)\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 3);
        assert_eq!(f.allows[0].rule, "panic-freedom");
        assert_eq!(f.allows[0].reason, "invariant upheld by caller");
        assert_eq!(f.allows[1].rule, "float-discipline");
        assert_eq!(f.allows[1].reason, "exact sentinel compare");
        assert_eq!(f.allows[2].rule, "nondeterminism");
        assert!(f.allows[2].reason.is_empty());
    }

    #[test]
    fn function_inventory_with_docs_and_signatures() {
        let src = "\
/// Scales things.
///
/// # Panics
/// Panics when empty.
pub(crate) fn scale(xs: &[f64], k: f64) -> Vec<f64> {
    xs.iter().map(|x| x * k).collect()
}

impl Thing {
    fn resolve(&self, costs: &CostMap) -> Choice {
        pick(costs)
    }
    fn resolve_traced(&self, costs: &CostMap, ctx: &TraceCtx) -> Choice {
        self.resolve(costs)
    }
    fn emit<F: FnOnce() -> Event>(&self, f: F) {
        self.sink(f())
    }
}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<&str> = f.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["scale", "resolve", "resolve_traced", "emit"]);
        assert!(f.functions[0].documents_panics());
        assert!(!f.functions[1].documents_panics());
        assert_eq!(f.functions[1].params, vec!["self", "&CostMap"]);
        assert_eq!(f.functions[2].params, vec!["self", "&CostMap", "&TraceCtx"]);
        assert_eq!(f.functions[1].ret, "Choice");
        // The `->` inside a generic bound does not end the generics.
        assert_eq!(f.functions[3].params, vec!["self", "F"]);
        // Bodies are real token ranges.
        assert!(f.functions[2].body.len() > 3);
    }

    #[test]
    fn impl_owner_attribution_and_param_names() {
        let src = "\
pub(crate) fn free(x: f64, mut ys: &[f64]) -> f64 { x }

impl Thing {
    fn method(&self, count: usize) -> usize { count }
}

impl fmt::Display for CostEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { todo() }
}

impl<'a> CacheQuery for CacheKeyRef<'a> {
    fn system(&self) -> &SystemId { self.system }
}

trait Subscriber {
    fn on_event(&self, event: Event);
}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let by_name = |n: &str| f.functions.iter().find(|x| x.name == n).unwrap();
        assert_eq!(by_name("free").owner, None);
        assert_eq!(by_name("free").param_names, vec!["x", "ys"]);
        assert_eq!(by_name("method").owner.as_deref(), Some("Thing"));
        assert_eq!(by_name("method").param_names, vec!["self", "count"]);
        assert_eq!(by_name("fmt").owner.as_deref(), Some("CostEstimate"));
        assert_eq!(by_name("system").owner.as_deref(), Some("CacheKeyRef"));
        let on_event = by_name("on_event");
        assert_eq!(on_event.owner.as_deref(), Some("Subscriber"));
        assert!(on_event.body.is_empty(), "trait decl has no body");
    }

    #[test]
    fn docs_do_not_bleed_across_adjacent_items() {
        let src = "\
/// # Panics
fn a() {}
fn b() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.functions[0].documents_panics());
        assert!(!f.functions[1].documents_panics());
    }
}
