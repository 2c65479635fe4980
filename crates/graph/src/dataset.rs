//! The on-disk attributed-dataset format: SNAP edge lists paired with typed
//! attribute CSVs.
//!
//! The paper evaluates on real-life crawls (YouTube, Amazon, citation
//! networks) whose edges ship as SNAP edge lists and whose node attributes
//! ship separately. This module defines the repository's portable on-disk
//! dataset format and its loaders/writers:
//!
//! * **`<name>.edges`** — a SNAP-style edge list (`#` comments, one
//!   whitespace-separated `from to` pair of `u64` ids per line), exactly the
//!   format the SNAP collection ships the paper's crawls in;
//! * **`<name>.attrs`** — a CSV of typed node attributes. The first
//!   non-comment line is the schema header `id,<name>:<type>,...` (types:
//!   `int`, `float`, `str`, `bool`); every following line declares one node:
//!   its original id and one field per column. An empty field means "this
//!   node does not carry that attribute". String fields may be
//!   double-quoted (required when they contain commas, quotes or are empty;
//!   `""` inside quotes escapes a literal quote).
//!
//! ```text
//! # mini-youtube.attrs
//! id,category:str,rate:float,views:int
//! 0,Music,4.5,8123
//! 1,"Travel & Places",3.0,
//! ```
//!
//! **Node identity.** The attribute CSV *declares* the node set: rows are
//! processed in file order and assign dense [`NodeId`]s `0, 1, 2, …`, seeding
//! the `u64 → NodeId` remap that a raw crawl grows on first appearance. The
//! edge file is then streamed through that seeded remap, so edge endpoints
//! bind to the declared nodes and an id without an attribute row is a
//! positioned error. This makes the format
//! closed under export → import: the writer emits attribute rows in
//! [`NodeId`] order, so a round trip reproduces the graph bit-identically —
//! including isolated nodes, which an edge list alone cannot represent.
//!
//! For a **raw crawl** (a downloaded SNAP file with no `.attrs` companion),
//! [`load_dataset`] streams the edge list alone: ids are remapped densely in
//! first-appearance order, nodes carry no attributes, duplicate edges are
//! skipped and self-loops kept.
//!
//! All parse errors carry 1-based line numbers (and CSV column positions
//! where applicable) via [`GraphError::ParseAt`].

use crate::attributes::Attributes;
use crate::data_graph::DataGraph;
use crate::error::GraphError;
use crate::node_id::NodeId;
use crate::value::{AttrType, AttrValue};
use crate::Result;
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// File extension of the edge-list half of a dataset (`<name>.edges`).
pub const EDGES_EXT: &str = "edges";
/// File extension of the attribute-CSV half of a dataset (`<name>.attrs`).
pub const ATTRS_EXT: &str = "attrs";

/// The typed column schema of an attribute CSV, parsed from its header line
/// `id,<name>:<type>,...`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrSchema {
    /// Attribute columns in header order (the leading `id` column is
    /// implicit and not stored here).
    columns: Vec<(String, AttrType)>,
}

impl AttrSchema {
    /// The attribute columns (name, type) in header order.
    pub fn columns(&self) -> &[(String, AttrType)] {
        &self.columns
    }

    /// Number of attribute columns (excluding the `id` column).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema declares no attribute columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Parses a header line (already CSV-split is *not* required — pass the
    /// raw line). `lineno` is 0-based and only used for error positions.
    fn parse_header(line: &str, lineno: usize) -> Result<AttrSchema> {
        let fields = split_csv_line(line, lineno)?;
        if fields.first().map(CsvField::text) != Some("id") {
            return Err(err_at(lineno, 1, "header must start with an `id` column"));
        }
        let mut columns = Vec::with_capacity(fields.len() - 1);
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        seen.insert("id");
        for (i, field) in fields.iter().enumerate().skip(1) {
            let column = i + 1;
            let field = field.text();
            let (name, ty) = field.rsplit_once(':').ok_or_else(|| {
                err_at(
                    lineno,
                    column,
                    format!("header column `{field}` is not `<name>:<type>`"),
                )
            })?;
            if name.is_empty() {
                return Err(err_at(lineno, column, "empty attribute name in header"));
            }
            let ty = AttrType::parse_name(ty).ok_or_else(|| {
                err_at(
                    lineno,
                    column,
                    format!("unknown type `{ty}` for column `{name}` (expected int, float, str or bool)"),
                )
            })?;
            columns.push((name.to_string(), ty));
        }
        for (i, (name, _)) in columns.iter().enumerate() {
            if !seen.insert(name) {
                return Err(err_at(
                    lineno,
                    i + 2,
                    format!("duplicate header column `{name}`"),
                ));
            }
        }
        Ok(AttrSchema { columns })
    }

    /// Infers the schema of a graph: the union of all attribute keys, sorted
    /// by name, each typed by its values. A key carrying values of two
    /// different types on different nodes cannot be represented in a typed
    /// column and is an error.
    pub fn infer(g: &DataGraph) -> Result<AttrSchema> {
        let mut types: FxHashMap<&str, AttrType> = FxHashMap::default();
        for v in g.nodes() {
            for (key, value) in g.attributes(v).iter() {
                let ty = value.attr_type();
                match types.entry(key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        validate_key(key)?;
                        e.insert(ty);
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != ty {
                            return Err(GraphError::Parse(format!(
                                "attribute `{key}` has conflicting types {} and {ty} \
                                 across nodes; a typed CSV column cannot hold both",
                                e.get()
                            )));
                        }
                    }
                }
            }
        }
        let mut columns: Vec<(String, AttrType)> =
            types.into_iter().map(|(k, t)| (k.to_string(), t)).collect();
        columns.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(AttrSchema { columns })
    }

    /// The header line this schema serializes to (no trailing newline).
    pub fn header_line(&self) -> String {
        let mut out = String::from("id");
        for (name, ty) in &self.columns {
            out.push(',');
            out.push_str(name);
            out.push(':');
            out.push_str(ty.name());
        }
        out
    }
}

impl fmt::Display for AttrSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.header_line())
    }
}

/// A dataset loaded from disk by [`load_dataset`].
#[derive(Debug)]
pub struct OnDiskDataset {
    /// The dataset name (file stem of the `.edges`/`.attrs` pair).
    pub name: String,
    /// The loaded graph, ready for matching.
    pub graph: DataGraph,
    /// Maps each [`NodeId`] index back to the file's original `u64` id.
    pub original_ids: Vec<u64>,
    /// The attribute schema, when `<name>.attrs` was present.
    pub schema: Option<AttrSchema>,
}

/// Loads the dataset `<dir>/<name>.edges` (+ optional `<name>.attrs`).
///
/// When the attribute CSV is present it is streamed first, declaring the
/// node set (see the module docs); the edge list is then streamed through
/// the seeded remap and may only reference declared ids. Without an
/// attribute CSV the edge list alone declares the nodes — the raw-crawl
/// path. Each file is read in one buffered streaming pass.
pub fn load_dataset(dir: &Path, name: &str) -> Result<OnDiskDataset> {
    let edges_path = dir.join(format!("{name}.{EDGES_EXT}"));
    let attrs_path = dir.join(format!("{name}.{ATTRS_EXT}"));

    let mut g = DataGraph::new();
    let mut remap = IdRemap::default();
    let schema = if attrs_path.is_file() {
        let reader = open_buffered(&attrs_path)?;
        let schema = read_attrs_declaring(reader, &mut g, &mut remap)
            .map_err(|e| in_file(e, &attrs_path))?;
        Some(schema)
    } else {
        None
    };
    let allow_new = schema.is_none();
    let reader = open_buffered(&edges_path)?;
    read_snap_edges_into(reader, &mut g, &mut remap, allow_new)
        .map_err(|e| in_file(e, &edges_path))?;
    Ok(OnDiskDataset {
        name: name.to_string(),
        graph: g,
        original_ids: remap.into_ids(),
        schema,
    })
}

/// [`load_dataset`]'s two streaming passes over in-memory strings (tests,
/// examples). Returns `(graph, original_ids, schema)`.
pub fn read_dataset_strs(edges: &str, attrs: &str) -> Result<(DataGraph, Vec<u64>, AttrSchema)> {
    let mut g = DataGraph::new();
    let mut remap = IdRemap::default();
    let schema = read_attrs_declaring(attrs.as_bytes(), &mut g, &mut remap)?;
    read_snap_edges_into(edges.as_bytes(), &mut g, &mut remap, false)?;
    Ok((g, remap.into_ids(), schema))
}

/// Serializes a graph's edge list in the dataset format (`<name>.edges`).
///
/// Edges are written in [`DataGraph::edges`] order with node ids equal to
/// their [`NodeId`] values, matching the id assignment
/// [`dataset_attrs_string`] declares — so a written pair reloads
/// bit-identically.
pub fn dataset_edges_string(g: &DataGraph) -> String {
    use std::fmt::Write;
    // Writing straight into the output buffer keeps the export — like the
    // loaders — free of per-edge allocations at crawl scale.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# gpm attributed dataset: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );
    for (a, b) in g.edges() {
        let _ = writeln!(out, "{} {}", a.0, b.0);
    }
    out
}

/// Serializes a graph's node attributes in the dataset format
/// (`<name>.attrs`): the inferred schema header, then one row per node in
/// [`NodeId`] order.
///
/// Errors when the graph cannot be represented: an attribute key with
/// conflicting types across nodes, a key containing CSV metacharacters, or a
/// string value containing a line break (the format is line-oriented).
pub fn dataset_attrs_string(g: &DataGraph) -> Result<String> {
    use std::fmt::Write;
    let schema = AttrSchema::infer(g)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# gpm attributed dataset: one row per node\n{}",
        schema.header_line()
    );
    for v in g.nodes() {
        let attrs = g.attributes(v);
        let _ = write!(out, "{}", v.0);
        for (name, ty) in schema.columns() {
            out.push(',');
            if let Some(value) = attrs.get(name) {
                debug_assert_eq!(value.attr_type(), *ty);
                write_csv_field(&mut out, value)?;
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Writes `<dir>/<name>.edges` and `<dir>/<name>.attrs` for a graph,
/// creating `dir` if needed. Returns the two paths written.
///
/// This is the writer [`load_dataset`] round-trips with.
pub fn write_dataset(dir: &Path, name: &str, g: &DataGraph) -> Result<(PathBuf, PathBuf)> {
    let attrs_text = dataset_attrs_string(g)?;
    let edges_text = dataset_edges_string(g);
    std::fs::create_dir_all(dir).map_err(|e| fs_err(dir, &e))?;
    let edges_path = dir.join(format!("{name}.{EDGES_EXT}"));
    let attrs_path = dir.join(format!("{name}.{ATTRS_EXT}"));
    std::fs::write(&edges_path, edges_text).map_err(|e| fs_err(&edges_path, &e))?;
    std::fs::write(&attrs_path, attrs_text).map_err(|e| fs_err(&attrs_path, &e))?;
    Ok((edges_path, attrs_path))
}

// ---------------------------------------------------------------------------
// Streaming edge-list parsing
// ---------------------------------------------------------------------------

/// The dense `u64 → NodeId` remap shared by the `.edges` and `.attrs`
/// readers.
///
/// SNAP ids are sparse and can exceed `u32`, so loaders assign [`NodeId`]s
/// densely and keep the reverse `ids` vector (index = [`NodeId`] index,
/// value = original id). The remap is either seeded from the attribute CSV,
/// so edge endpoints bind to the declared nodes, or grown on first
/// appearance by a raw crawl's edge list.
#[derive(Debug, Default)]
struct IdRemap {
    map: FxHashMap<u64, NodeId>,
    ids: Vec<u64>,
}

impl IdRemap {
    /// Registers `raw → id` (used while seeding from an attribute CSV).
    /// Returns `false` when `raw` was already registered.
    fn insert(&mut self, raw: u64, id: NodeId) -> bool {
        let fresh = self.map.insert(raw, id).is_none();
        if fresh {
            self.ids.push(raw);
        }
        fresh
    }

    fn get(&self, raw: u64) -> Option<NodeId> {
        self.map.get(&raw).copied()
    }

    fn into_ids(self) -> Vec<u64> {
        self.ids
    }
}

/// Streams a SNAP-style edge list into `g`, interning node ids through
/// `remap`.
///
/// With `allow_new = true` unseen ids create fresh (attribute-less) nodes in
/// first-appearance order; with `allow_new = false` every endpoint must
/// already be registered in `remap` and an unknown id is a positioned
/// [`GraphError::ParseAt`] — how an attributed dataset enforces that the
/// edge file only references nodes declared by the attribute CSV.
fn read_snap_edges_into<R: BufRead>(
    mut reader: R,
    g: &mut DataGraph,
    remap: &mut IdRemap,
    allow_new: bool,
) -> Result<()> {
    let mut intern = |raw: u64, field: usize, lineno: usize, g: &mut DataGraph| -> Result<NodeId> {
        if let Some(id) = remap.get(raw) {
            return Ok(id);
        }
        if !allow_new {
            return Err(GraphError::ParseAt {
                line: lineno + 1,
                column: field,
                msg: format!("unknown node id {raw}: no attribute row declares it"),
            });
        }
        let id = g.add_node(Attributes::new());
        remap.insert(raw, id);
        Ok(id)
    };

    // One reused line buffer: real crawls run to tens of millions of lines,
    // so the loop must not allocate per line (as `reader.lines()` would).
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let read = reader
            .read_line(&mut buf)
            .map_err(|e| GraphError::Parse(format!("line {}: {e}", lineno + 1)))?;
        if read == 0 {
            break;
        }
        let line = buf.trim();
        if !(line.is_empty() || line.starts_with('#')) {
            let mut fields = line.split_whitespace();
            let from: u64 = parse_field(fields.next(), lineno, "SNAP edge source")?;
            let to: u64 = parse_field(fields.next(), lineno, "SNAP edge target")?;
            if fields.next().is_some() {
                return Err(GraphError::Parse(format!(
                    "line {}: expected `from to`, found extra fields",
                    lineno + 1
                )));
            }
            let a = intern(from, 1, lineno, g)?;
            let b = intern(to, 2, lineno, g)?;
            let _ = g.try_add_edge(a, b)?; // duplicates in the crawl are skipped
        }
        lineno += 1;
    }
    Ok(())
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, lineno: usize, what: &str) -> Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| GraphError::Parse(format!("line {}: missing/invalid {what}", lineno + 1)))
}

// ---------------------------------------------------------------------------
// Streaming attribute-CSV parsing
// ---------------------------------------------------------------------------

/// Streams an attribute CSV, creating one graph node per row (in row order,
/// which seeds the dense remap). Comments (`#`) and blank lines are
/// skipped. Uses one reused line buffer, like the edge-list reader.
fn read_attrs_declaring<R: BufRead>(
    mut reader: R,
    g: &mut DataGraph,
    remap: &mut IdRemap,
) -> Result<AttrSchema> {
    let mut schema: Option<AttrSchema> = None;
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let read = reader
            .read_line(&mut buf)
            .map_err(|e| err_at(lineno, 0, e.to_string()))?;
        if read == 0 {
            break;
        }
        let line = buf.strip_suffix('\n').unwrap_or(&buf);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() || line.starts_with('#') {
            lineno += 1;
            continue;
        }
        match &schema {
            None => schema = Some(AttrSchema::parse_header(line, lineno)?),
            Some(schema) => {
                let (raw, attrs) = parse_attrs_row(line, lineno, schema)?;
                let id = g.add_node(attrs);
                if !remap.insert(raw, id) {
                    return Err(err_at(lineno, 1, format!("duplicate node id {raw}")));
                }
            }
        }
        lineno += 1;
    }
    schema.ok_or_else(|| err_at(lineno, 0, "missing `id,<name>:<type>,...` header line"))
}

/// Parses one data row against the schema.
fn parse_attrs_row(line: &str, lineno: usize, schema: &AttrSchema) -> Result<(u64, Attributes)> {
    let fields = split_csv_line(line, lineno)?;
    let expected = schema.len() + 1;
    if fields.len() != expected {
        return Err(err_at(
            lineno,
            0,
            format!(
                "wrong number of fields: expected {expected} (id + {} attribute columns), found {}",
                schema.len(),
                fields.len()
            ),
        ));
    }
    let raw: u64 = fields[0]
        .parse()
        .map_err(|_| err_at(lineno, 1, format!("invalid node id `{}`", fields[0].text())))?;
    let mut attrs = Attributes::new();
    for (i, (name, ty)) in schema.columns().iter().enumerate() {
        let field = &fields[i + 1];
        // An empty unquoted field means "attribute absent"; a quoted empty
        // string (`""`) survives as an empty `str` value because the CSV
        // splitter marks it quoted.
        if field.is_empty() {
            continue;
        }
        let text = field.text();
        let value = ty.parse_value(text).ok_or_else(|| {
            err_at(
                lineno,
                i + 2,
                format!("`{text}` is not a valid {ty} for column `{name}`"),
            )
        })?;
        attrs.set(name.clone(), value);
    }
    Ok((raw, attrs))
}

/// One CSV field, remembering whether it was quoted (a quoted empty field is
/// an empty string value; an unquoted empty field means "absent").
#[derive(Debug, PartialEq, Eq)]
enum CsvField {
    Plain(String),
    Quoted(String),
}

impl CsvField {
    fn text(&self) -> &str {
        match self {
            CsvField::Plain(s) | CsvField::Quoted(s) => s,
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, CsvField::Plain(s) if s.is_empty())
    }

    fn parse<T: std::str::FromStr>(&self) -> std::result::Result<T, T::Err> {
        self.text().parse()
    }
}

/// Splits one line into CSV fields, honouring double-quoted fields with
/// `""` escapes. Fields are not trimmed. Errors carry the 1-based column
/// (field index) of the offending field.
fn split_csv_line(line: &str, lineno: usize) -> Result<Vec<CsvField>> {
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let column = fields.len() + 1;
        if chars.peek() == Some(&'"') {
            chars.next();
            let mut text = String::new();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            text.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(c) => text.push(c),
                    None => {
                        return Err(err_at(lineno, column, "unterminated quoted field"));
                    }
                }
            }
            match chars.next() {
                None => {
                    fields.push(CsvField::Quoted(text));
                    break;
                }
                Some(',') => fields.push(CsvField::Quoted(text)),
                Some(c) => {
                    return Err(err_at(
                        lineno,
                        column,
                        format!("unexpected `{c}` after closing quote"),
                    ));
                }
            }
        } else {
            let mut text = String::new();
            let mut terminated = false;
            for c in chars.by_ref() {
                match c {
                    ',' => {
                        terminated = true;
                        break;
                    }
                    '"' => {
                        return Err(err_at(
                            lineno,
                            column,
                            "unexpected `\"` inside unquoted field (quote the whole field)",
                        ));
                    }
                    c => text.push(c),
                }
            }
            fields.push(CsvField::Plain(text));
            if !terminated {
                break;
            }
        }
    }
    Ok(fields)
}

/// Appends one attribute value to `out` as a CSV field, quoting strings
/// that need it. Line breaks inside strings are unrepresentable in the
/// line-oriented format and error out.
fn write_csv_field(out: &mut String, value: &AttrValue) -> Result<()> {
    use std::fmt::Write;
    match value {
        AttrValue::Str(s) => {
            if s.contains('\n') || s.contains('\r') {
                return Err(GraphError::Parse(format!(
                    "string attribute value {s:?} contains a line break, which the \
                     line-oriented attrs format cannot represent"
                )));
            }
            if s.is_empty() || s.contains(',') || s.contains('"') {
                out.push('"');
                for c in s.chars() {
                    if c == '"' {
                        out.push('"');
                    }
                    out.push(c);
                }
                out.push('"');
            } else {
                out.push_str(s);
            }
        }
        AttrValue::Int(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::Float(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
    }
    Ok(())
}

/// Validates an attribute key for use as a CSV column name.
fn validate_key(key: &str) -> Result<()> {
    if key.is_empty() {
        return Err(GraphError::Parse(
            "empty attribute key cannot be a CSV column".to_string(),
        ));
    }
    if let Some(bad) = key
        .chars()
        .find(|c| matches!(c, ',' | '"' | ':' | '\n' | '\r'))
    {
        return Err(GraphError::Parse(format!(
            "attribute key `{key}` contains `{}`, which the attrs header cannot represent",
            bad.escape_debug()
        )));
    }
    Ok(())
}

fn err_at(lineno: usize, column: usize, msg: impl Into<String>) -> GraphError {
    GraphError::ParseAt {
        line: lineno + 1,
        column,
        msg: msg.into(),
    }
}

fn open_buffered(path: &Path) -> Result<std::io::BufReader<std::fs::File>> {
    std::fs::File::open(path)
        .map(std::io::BufReader::new)
        .map_err(|e| fs_err(path, &e))
}

fn fs_err(path: &Path, e: &std::io::Error) -> GraphError {
    GraphError::Parse(format!("{}: {e}", path.display()))
}

/// Prefixes a parse error's message with the file it came from.
fn in_file(e: GraphError, path: &Path) -> GraphError {
    match e {
        GraphError::Parse(msg) => GraphError::Parse(format!("{}: {msg}", path.display())),
        GraphError::ParseAt { line, column, msg } => GraphError::ParseAt {
            line,
            column,
            msg: format!("{}: {msg}", path.display()),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: &str = "# three nodes\n0 1\n1 2\n2 0\n";
    const ATTRS: &str = "# header then rows\n\
                         id,category:str,rate:float,verified:bool,views:int\n\
                         0,Music,4.5,true,100\n\
                         1,\"Travel & Places\",3,false,\n\
                         2,,,,7\n";

    fn expect_line(err: GraphError, line: usize) -> GraphError {
        match &err {
            GraphError::ParseAt { line: l, .. } => assert_eq!(*l, line, "wrong line in `{err}`"),
            other => panic!("expected ParseAt, got `{other}`"),
        }
        err
    }

    #[test]
    fn loads_attributed_dataset() {
        let (g, ids, schema) = read_dataset_strs(EDGES, ATTRS).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(
            schema.header_line(),
            "id,category:str,rate:float,verified:bool,views:int"
        );
        let a0 = g.attributes(NodeId::new(0));
        assert_eq!(a0.get("category"), Some(&AttrValue::Str("Music".into())));
        assert_eq!(a0.get("rate"), Some(&AttrValue::Float(4.5)));
        assert_eq!(a0.get("verified"), Some(&AttrValue::Bool(true)));
        assert_eq!(a0.get("views"), Some(&AttrValue::Int(100)));
        let a1 = g.attributes(NodeId::new(1));
        assert_eq!(
            a1.get("category"),
            Some(&AttrValue::Str("Travel & Places".into()))
        );
        assert_eq!(a1.get("views"), None, "empty field = absent attribute");
        let a2 = g.attributes(NodeId::new(2));
        assert_eq!(a2.len(), 1);
        assert_eq!(a2.get("views"), Some(&AttrValue::Int(7)));
    }

    #[test]
    fn attrs_rows_declare_node_identity() {
        // Rows in a non-trivial original-id order: remap follows row order.
        let attrs = "id,label:str\n40,a\n10,b\n30,c\n";
        let edges = "10 30\n40 10\n";
        let (g, ids, _) = read_dataset_strs(edges, attrs).unwrap();
        assert_eq!(ids, vec![40, 10, 30]);
        assert!(g.has_edge(NodeId::new(1), NodeId::new(2))); // 10 -> 30
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1))); // 40 -> 10
        assert_eq!(
            g.attributes(NodeId::new(0)).get("label"),
            Some(&AttrValue::Str("a".into()))
        );
    }

    #[test]
    fn isolated_nodes_survive() {
        let (g, ids, _) = read_dataset_strs("0 1\n", "id,x:int\n0,1\n1,2\n2,3\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(
            g.attributes(NodeId::new(2)).get("x"),
            Some(&AttrValue::Int(3))
        );
    }

    #[test]
    fn edge_referencing_undeclared_id_errors_with_position() {
        let err = read_dataset_strs("0 1\n0 9\n", "id,x:int\n0,1\n1,2\n").unwrap_err();
        let err = expect_line(err, 2);
        assert!(err.to_string().contains("unknown node id 9"), "{err}");
    }

    #[test]
    fn wrong_arity_row_errors_with_line() {
        let attrs = "id,a:int,b:int\n0,1,2\n1,3\n";
        let err = read_dataset_strs("0 1\n", attrs).unwrap_err();
        let err = expect_line(err, 3);
        assert!(err.to_string().contains("wrong number of fields"), "{err}");
    }

    #[test]
    fn bad_typed_field_errors_with_line_and_column() {
        let attrs = "id,a:int,b:float\n0,1,2.5\n1,oops,3.5\n";
        let err = read_dataset_strs("0 1\n", attrs).unwrap_err();
        match &err {
            GraphError::ParseAt { line, column, .. } => {
                assert_eq!((*line, *column), (3, 2));
            }
            other => panic!("expected ParseAt, got `{other}`"),
        }
        assert!(err.to_string().contains("not a valid int"), "{err}");
    }

    #[test]
    fn duplicate_header_column_errors() {
        let err = read_dataset_strs("", "id,a:int,a:float\n").unwrap_err();
        assert!(err.to_string().contains("duplicate header column"), "{err}");
        expect_line(err, 1);
    }

    #[test]
    fn header_must_lead_with_id() {
        let err = read_dataset_strs("", "a:int,b:int\n").unwrap_err();
        assert!(err.to_string().contains("`id` column"), "{err}");
    }

    #[test]
    fn unknown_type_name_errors() {
        let err = read_dataset_strs("", "id,a:integer\n").unwrap_err();
        assert!(err.to_string().contains("unknown type `integer`"), "{err}");
    }

    #[test]
    fn duplicate_node_id_row_errors() {
        let err = read_dataset_strs("0 1\n", "id,a:int\n0,1\n1,2\n0,3\n").unwrap_err();
        let err = expect_line(err, 4);
        assert!(err.to_string().contains("duplicate node id 0"), "{err}");
    }

    #[test]
    fn invalid_node_id_errors() {
        let err = read_dataset_strs("", "id,a:int\n-3,1\n").unwrap_err();
        assert!(err.to_string().contains("invalid node id"), "{err}");
        expect_line(err, 2);
    }

    #[test]
    fn missing_header_errors() {
        let err = read_dataset_strs("", "# only a comment\n").unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn unterminated_quote_errors() {
        let err = read_dataset_strs("", "id,a:str\n0,\"oops\n").unwrap_err();
        let err = expect_line(err, 2);
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn stray_quote_errors() {
        let err = read_dataset_strs("", "id,a:str\n0,o\"ops\n").unwrap_err();
        assert!(err.to_string().contains("unquoted field"), "{err}");
    }

    #[test]
    fn csv_quoting_roundtrips() {
        let attrs = "id,s:str\n0,\"a,b\"\n1,\"say \"\"hi\"\"\"\n2,\"\"\n";
        let (g, _, _) = read_dataset_strs("0 1\n1 2\n", attrs).unwrap();
        assert_eq!(
            g.attributes(NodeId::new(0)).get("s"),
            Some(&AttrValue::Str("a,b".into()))
        );
        assert_eq!(
            g.attributes(NodeId::new(1)).get("s"),
            Some(&AttrValue::Str("say \"hi\"".into()))
        );
        assert_eq!(
            g.attributes(NodeId::new(2)).get("s"),
            Some(&AttrValue::Str(String::new())),
            "quoted empty field is an empty string, not an absent attribute"
        );
    }

    #[test]
    fn writer_reader_roundtrip_is_bit_identical() {
        let mut g = DataGraph::new();
        let a = g.add_node(Attributes::labeled("Music").with("rate", 4.5).with("n", 3));
        let b = g.add_node(Attributes::labeled("a,b").with("q", "say \"hi\""));
        let c = g.add_node(Attributes::new()); // isolated, attribute-less
        g.add_edge(b, a).unwrap();
        g.add_edge(a, b).unwrap();
        let _ = c;

        let edges = dataset_edges_string(&g);
        let attrs = dataset_attrs_string(&g).unwrap();
        let (back, ids, _) = read_dataset_strs(&edges, &attrs).unwrap();

        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        for v in g.nodes() {
            assert_eq!(back.attributes(v), g.attributes(v), "attrs of {v}");
        }
        // Byte-identical re-serialization (write -> read -> write fixpoint).
        assert_eq!(dataset_edges_string(&back), edges);
        assert_eq!(dataset_attrs_string(&back).unwrap(), attrs);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = DataGraph::new();
        let edges = dataset_edges_string(&g);
        let attrs = dataset_attrs_string(&g).unwrap();
        let (back, ids, schema) = read_dataset_strs(&edges, &attrs).unwrap();
        assert_eq!(back.node_count(), 0);
        assert!(ids.is_empty());
        assert!(schema.is_empty());
    }

    #[test]
    fn conflicting_types_cannot_be_exported() {
        let mut g = DataGraph::new();
        g.add_node(Attributes::new().with("x", 1));
        g.add_node(Attributes::new().with("x", "one"));
        let err = dataset_attrs_string(&g).unwrap_err();
        assert!(err.to_string().contains("conflicting types"), "{err}");
    }

    #[test]
    fn newline_in_string_cannot_be_exported() {
        let mut g = DataGraph::new();
        g.add_node(Attributes::new().with("x", "a\nb"));
        let err = dataset_attrs_string(&g).unwrap_err();
        assert!(err.to_string().contains("line break"), "{err}");
    }

    /// A raw crawl's edge list alone, as [`load_dataset`] reads it when no
    /// `.attrs` file is present.
    fn raw_crawl(reader: impl BufRead) -> Result<(DataGraph, Vec<u64>)> {
        let mut g = DataGraph::new();
        let mut remap = IdRemap::default();
        read_snap_edges_into(reader, &mut g, &mut remap, true)?;
        Ok((g, remap.into_ids()))
    }

    #[test]
    fn snap_loader_parses_comments_whitespace_and_dense_remap() {
        let text = "# Directed graph: web-Sample.txt\n\
                    # FromNodeId\tToNodeId\n\
                    9999999999 17\n\
                    17\t42\n\
                    \n\
                    42   9999999999\n";
        let (g, ids) = raw_crawl(text.as_bytes()).unwrap();
        // First-appearance order: 9999999999, 17, 42.
        assert_eq!(ids, vec![9_999_999_999, 17, 42]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
    }

    #[test]
    fn snap_loader_skips_duplicates_and_keeps_self_loops() {
        let (g, ids) = raw_crawl("1 2\n1 2\n2 2\n".as_bytes()).unwrap();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(g.edge_count(), 2); // duplicate (1, 2) skipped
        assert!(g.has_edge(NodeId::new(1), NodeId::new(1))); // self-loop kept
    }

    #[test]
    fn snap_loader_streams_from_a_bufread() {
        // Exercise the BufRead path (not just a byte slice): a buffered
        // reader over bytes, as a file reader would present them.
        let bytes: &[u8] = b"# c\n3 4\n4 5\n";
        let (g, ids) = raw_crawl(std::io::BufReader::new(bytes)).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn snap_loader_rejects_malformed_lines() {
        assert!(raw_crawl("1\n".as_bytes()).is_err());
        assert!(raw_crawl("1 2 3\n".as_bytes()).is_err());
        assert!(raw_crawl("a b\n".as_bytes()).is_err());
        let (g, ids) = raw_crawl("# only comments\n\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert!(ids.is_empty());
    }

    #[test]
    fn load_dataset_from_directory() {
        let dir = std::env::temp_dir().join(format!("gpm-dataset-test-{}", std::process::id()));
        let mut g = DataGraph::new();
        let a = g.add_node(Attributes::labeled("x").with("views", 9));
        let b = g.add_node(Attributes::labeled("y"));
        g.add_edge(a, b).unwrap();
        write_dataset(&dir, "tiny", &g).unwrap();

        let loaded = load_dataset(&dir, "tiny").unwrap();
        assert_eq!(loaded.name, "tiny");
        assert_eq!(loaded.graph.node_count(), 2);
        assert_eq!(loaded.original_ids, vec![0, 1]);
        assert_eq!(
            loaded.schema.as_ref().map(AttrSchema::header_line),
            Some("id,label:str,views:int".to_string())
        );
        for v in g.nodes() {
            assert_eq!(loaded.graph.attributes(v), g.attributes(v));
        }

        // Raw-crawl fallback: delete the attrs file, loading still works.
        std::fs::remove_file(dir.join("tiny.attrs")).unwrap();
        let raw = load_dataset(&dir, "tiny").unwrap();
        assert!(raw.schema.is_none());
        assert_eq!(raw.graph.node_count(), 2);
        assert!(raw.graph.attributes(NodeId::new(0)).is_empty());

        // Missing edges file is a readable error naming the path.
        let err = load_dataset(&dir, "nope").unwrap_err();
        assert!(err.to_string().contains("nope.edges"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("gpm-dataset-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.edges"), "0 1\n").unwrap();
        std::fs::write(dir.join("bad.attrs"), "id,a:int\n0,x\n").unwrap();
        let err = load_dataset(&dir, "bad").unwrap_err();
        assert!(err.to_string().contains("bad.attrs"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_display_and_infer() {
        let mut g = DataGraph::new();
        g.add_node(Attributes::new().with("b", 1).with("a", "x"));
        g.add_node(Attributes::new().with("c", true));
        let schema = AttrSchema::infer(&g).unwrap();
        assert_eq!(schema.to_string(), "id,a:str,b:int,c:bool");
        assert_eq!(schema.len(), 3);
        assert!(!schema.is_empty());
    }
}
