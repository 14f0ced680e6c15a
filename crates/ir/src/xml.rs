//! XML serialisation of the dataflow graph.
//!
//! The paper's DSL emits the IR "in XML format … which is later on input
//! to the code generation tool chain". This module provides the same
//! interchange point: [`to_xml`] writes a graph, [`from_xml`] reads one
//! back. The format is a small, self-describing element-per-node schema:
//!
//! ```xml
//! <graph name="matmul">
//!   <node id="0" kind="data" data="vector" name="v1"/>
//!   <node id="8" kind="op" category="vector_op" core="dotp" name="dot"/>
//!   <edge from="0" to="8"/>
//! </graph>
//! ```
//!
//! The parser is hand-rolled (no external dependencies) and handles the
//! subset the writer produces: elements, attributes, self-closing tags,
//! comments and the five standard entities.

use crate::graph::Graph;
use crate::node::{CoreOp, DataKind, NodeId, NodeKind, Opcode, PostOp, PreOp, ScalarOp};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors raised by [`from_xml`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlError {
    Syntax(String),
    UnknownAttr(String),
    MissingAttr(&'static str),
    BadValue(String),
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::Syntax(m) => write!(f, "XML syntax error: {m}"),
            XmlError::UnknownAttr(a) => write!(f, "unknown attribute {a}"),
            XmlError::MissingAttr(a) => write!(f, "missing attribute {a}"),
            XmlError::BadValue(v) => write!(f, "bad value {v}"),
        }
    }
}

impl std::error::Error for XmlError {}

// ---- writing ----------------------------------------------------------------

/// Escape the five standard entities in an attribute value.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(ch),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, XmlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '&' {
            out.push(ch);
            continue;
        }
        let mut ent = String::new();
        for c in chars.by_ref() {
            if c == ';' {
                break;
            }
            ent.push(c);
        }
        out.push(match ent.as_str() {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            other => return Err(XmlError::BadValue(format!("&{other};"))),
        });
    }
    Ok(out)
}

fn core_str(c: CoreOp) -> &'static str {
    match c {
        CoreOp::Pass => "pass",
        CoreOp::Add => "add",
        CoreOp::Sub => "sub",
        CoreOp::Mul => "mul",
        CoreOp::Scale => "scale",
        CoreOp::DotP => "dotp",
        CoreOp::SquSum => "squsum",
        CoreOp::Mac => "mac",
    }
}

fn core_from(s: &str) -> Result<CoreOp, XmlError> {
    Ok(match s {
        "pass" => CoreOp::Pass,
        "add" => CoreOp::Add,
        "sub" => CoreOp::Sub,
        "mul" => CoreOp::Mul,
        "scale" => CoreOp::Scale,
        "dotp" => CoreOp::DotP,
        "squsum" => CoreOp::SquSum,
        "mac" => CoreOp::Mac,
        other => return Err(XmlError::BadValue(other.into())),
    })
}

fn pre_str(p: PreOp) -> String {
    match p {
        PreOp::Hermitian => "hermitian".into(),
        PreOp::Mask(m) => format!("mask:{m}"),
        PreOp::Shuffle(sh) => format!("shuffle:{sh}"),
    }
}

fn pre_from(s: &str) -> Result<PreOp, XmlError> {
    if s == "hermitian" {
        return Ok(PreOp::Hermitian);
    }
    if let Some(m) = s.strip_prefix("mask:") {
        return m
            .parse()
            .map(PreOp::Mask)
            .map_err(|_| XmlError::BadValue(s.into()));
    }
    if let Some(m) = s.strip_prefix("shuffle:") {
        return m
            .parse()
            .map(PreOp::Shuffle)
            .map_err(|_| XmlError::BadValue(s.into()));
    }
    Err(XmlError::BadValue(s.into()))
}

fn post_str(p: PostOp) -> &'static str {
    match p {
        PostOp::Sort => "sort",
        PostOp::Conj => "conj",
        PostOp::Neg => "neg",
    }
}

fn post_from(s: &str) -> Result<PostOp, XmlError> {
    Ok(match s {
        "sort" => PostOp::Sort,
        "conj" => PostOp::Conj,
        "neg" => PostOp::Neg,
        other => return Err(XmlError::BadValue(other.into())),
    })
}

fn scalar_str(s: ScalarOp) -> &'static str {
    match s {
        ScalarOp::Sqrt => "sqrt",
        ScalarOp::RSqrt => "rsqrt",
        ScalarOp::Div => "div",
        ScalarOp::Recip => "recip",
        ScalarOp::CordicRot => "cordic_rot",
        ScalarOp::CordicVec => "cordic_vec",
        ScalarOp::Add => "add",
        ScalarOp::Sub => "sub",
        ScalarOp::Mul => "mul",
        ScalarOp::Neg => "neg",
    }
}

fn scalar_from(s: &str) -> Result<ScalarOp, XmlError> {
    Ok(match s {
        "sqrt" => ScalarOp::Sqrt,
        "rsqrt" => ScalarOp::RSqrt,
        "div" => ScalarOp::Div,
        "recip" => ScalarOp::Recip,
        "cordic_rot" => ScalarOp::CordicRot,
        "cordic_vec" => ScalarOp::CordicVec,
        "add" => ScalarOp::Add,
        "sub" => ScalarOp::Sub,
        "mul" => ScalarOp::Mul,
        "neg" => ScalarOp::Neg,
        other => return Err(XmlError::BadValue(other.into())),
    })
}

/// Serialise a graph to XML.
pub fn to_xml(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, r#"<graph name="{}">"#, escape(&g.name));
    for id in g.ids() {
        let node = g.node(id);
        match &node.kind {
            NodeKind::Data(dk) => {
                let dks = match dk {
                    DataKind::Vector => "vector",
                    DataKind::Scalar => "scalar",
                };
                let _ = writeln!(
                    out,
                    r#"  <node id="{}" kind="data" data="{}" name="{}"/>"#,
                    id.0,
                    dks,
                    escape(&node.name)
                );
            }
            NodeKind::Op(op) => {
                let mut attrs = String::new();
                match op {
                    Opcode::Vector { pre, core, post } | Opcode::Matrix { pre, core, post } => {
                        let cat = if matches!(op, Opcode::Matrix { .. }) {
                            "matrix_op"
                        } else {
                            "vector_op"
                        };
                        let _ = write!(attrs, r#" category="{cat}" core="{}""#, core_str(*core));
                        if let Some((p, idx)) = pre {
                            let _ = write!(attrs, r#" pre="{}" pre_operand="{idx}""#, pre_str(*p));
                        }
                        if let Some(p) = post {
                            let _ = write!(attrs, r#" post="{}""#, post_str(*p));
                        }
                    }
                    Opcode::Scalar(s) => {
                        let _ = write!(attrs, r#" category="scalar_op" op="{}""#, scalar_str(*s));
                    }
                    Opcode::Index(k) => {
                        let _ = write!(attrs, r#" category="index" element="{k}""#);
                    }
                    Opcode::Merge => {
                        let _ = write!(attrs, r#" category="merge""#);
                    }
                }
                let _ = writeln!(
                    out,
                    r#"  <node id="{}" kind="op"{attrs} name="{}"/>"#,
                    id.0,
                    escape(&node.name)
                );
            }
        }
    }
    // Emit each node's incoming edges in operand order so that a parse
    // reconstructs identical `preds` lists (operand order is significant).
    for t in g.ids() {
        for &f in g.preds(t) {
            let _ = writeln!(out, r#"  <edge from="{}" to="{}"/>"#, f.0, t.0);
        }
    }
    out.push_str("</graph>\n");
    out
}

// ---- parsing ------------------------------------------------------------------

/// One tag: its name, its unescaped attributes, and whether it closes.
pub struct Element {
    pub name: String,
    pub attrs: HashMap<String, String>,
    pub closing: bool,
}

/// The tag lexer shared by the IR and the `eit-arch` XML formats.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            if let Some(after) = self.rest().strip_prefix("<!--") {
                match after.find("-->") {
                    Some(k) => self.pos += 4 + k + 3,
                    None => {
                        self.pos = self.src.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    /// Next element tag, or `None` at end of input.
    pub fn next_element(&mut self) -> Result<Option<Element>, XmlError> {
        self.skip_ws_and_comments();
        if self.rest().is_empty() {
            return Ok(None);
        }
        if !self.rest().starts_with('<') {
            return Err(XmlError::Syntax(format!(
                "expected '<' at byte {}",
                self.pos
            )));
        }
        let end = self
            .rest()
            .find('>')
            .ok_or_else(|| XmlError::Syntax("unterminated tag".into()))?;
        let tag = &self.rest()[1..end];
        self.pos += end + 1;

        let closing = tag.starts_with('/');
        let tag = tag.trim_start_matches('/');
        let tag = tag.trim_end_matches('/').trim();

        let (name, attr_src) = match tag.find(char::is_whitespace) {
            Some(k) => (&tag[..k], tag[k..].trim()),
            None => (tag, ""),
        };
        let mut attrs = HashMap::new();
        let mut rest = attr_src;
        while !rest.is_empty() {
            let eq = rest
                .find('=')
                .ok_or_else(|| XmlError::Syntax(format!("attribute without '=': {rest}")))?;
            let key = rest[..eq].trim().to_string();
            let after = rest[eq + 1..].trim_start();
            if !after.starts_with('"') {
                return Err(XmlError::Syntax(format!("unquoted attribute {key}")));
            }
            let close = after[1..]
                .find('"')
                .ok_or_else(|| XmlError::Syntax(format!("unterminated value for {key}")))?;
            let val = &after[1..1 + close];
            attrs.insert(key, unescape(val)?);
            rest = after[close + 2..].trim_start();
        }
        Ok(Some(Element {
            name: name.to_string(),
            attrs,
            closing,
        }))
    }
}

/// The value of a required attribute.
pub fn req<'e>(e: &'e Element, key: &'static str) -> Result<&'e str, XmlError> {
    e.attrs
        .get(key)
        .map(String::as_str)
        .ok_or(XmlError::MissingAttr(key))
}

/// Parse a numeric attribute, naming the attribute in the error and
/// distinguishing overflow from garbage — `id="99999999999"` must say
/// "overflows", not just "bad value", or the report is useless on
/// machine-generated files where every id looks plausible.
pub fn parse_u32(attr: &'static str, s: &str) -> Result<u32, XmlError> {
    use std::num::IntErrorKind;
    s.parse::<u32>().map_err(|e| match e.kind() {
        IntErrorKind::PosOverflow => {
            XmlError::BadValue(format!("{attr}=\"{s}\": overflows u32 (max {})", u32::MAX))
        }
        _ => XmlError::BadValue(format!("{attr}=\"{s}\": not a non-negative integer")),
    })
}

/// Same contract as [`parse_u32`] for the u8-sized attributes
/// (`element`, `pre_operand`).
fn parse_u8(attr: &'static str, s: &str) -> Result<u8, XmlError> {
    use std::num::IntErrorKind;
    s.parse::<u8>().map_err(|e| match e.kind() {
        IntErrorKind::PosOverflow => {
            XmlError::BadValue(format!("{attr}=\"{s}\": overflows u8 (max {})", u8::MAX))
        }
        _ => XmlError::BadValue(format!("{attr}=\"{s}\": not a non-negative integer")),
    })
}

/// Parse a graph from XML produced by [`to_xml`].
pub fn from_xml(src: &str) -> Result<Graph, XmlError> {
    let mut lex = Lexer::new(src);
    let root = lex
        .next_element()?
        .ok_or_else(|| XmlError::Syntax("empty document".into()))?;
    if root.name != "graph" || root.closing {
        return Err(XmlError::Syntax("expected <graph> root".into()));
    }
    let mut g = Graph::new(root.attrs.get("name").map(String::as_str).unwrap_or(""));
    // Node ids must be re-mapped: the writer emits them densely in order,
    // but we tolerate any ordering.
    let mut id_map: HashMap<u32, NodeId> = HashMap::new();
    let mut pending_edges: Vec<(u32, u32)> = Vec::new();

    while let Some(el) = lex.next_element()? {
        if el.closing {
            if el.name == "graph" {
                break;
            }
            continue;
        }
        match el.name.as_str() {
            "node" => {
                let id = parse_u32("id", req(&el, "id")?)?;
                let name = el.attrs.get("name").cloned().unwrap_or_default();
                let kind = match req(&el, "kind")? {
                    "data" => {
                        let dk = match req(&el, "data")? {
                            "vector" => DataKind::Vector,
                            "scalar" => DataKind::Scalar,
                            other => return Err(XmlError::BadValue(other.into())),
                        };
                        NodeKind::Data(dk)
                    }
                    "op" => {
                        let op = match req(&el, "category")? {
                            cat @ ("vector_op" | "matrix_op") => {
                                let core = core_from(req(&el, "core")?)?;
                                let pre = match el.attrs.get("pre") {
                                    Some(p) => {
                                        let idx = el
                                            .attrs
                                            .get("pre_operand")
                                            .map(|v| parse_u8("pre_operand", v))
                                            .transpose()?
                                            .unwrap_or(0);
                                        Some((pre_from(p)?, idx))
                                    }
                                    None => None,
                                };
                                let post =
                                    el.attrs.get("post").map(|p| post_from(p)).transpose()?;
                                if cat == "matrix_op" {
                                    Opcode::Matrix { pre, core, post }
                                } else {
                                    Opcode::Vector { pre, core, post }
                                }
                            }
                            "scalar_op" => Opcode::Scalar(scalar_from(req(&el, "op")?)?),
                            "index" => Opcode::Index(parse_u8("element", req(&el, "element")?)?),
                            "merge" => Opcode::Merge,
                            other => return Err(XmlError::BadValue(other.into())),
                        };
                        NodeKind::Op(op)
                    }
                    other => return Err(XmlError::BadValue(other.into())),
                };
                let nid = g.add_node(kind, &name);
                id_map.insert(id, nid);
            }
            "edge" => {
                pending_edges.push((
                    parse_u32("from", req(&el, "from")?)?,
                    parse_u32("to", req(&el, "to")?)?,
                ));
            }
            other => return Err(XmlError::Syntax(format!("unexpected <{other}>"))),
        }
    }

    for (f, t) in pending_edges {
        let (Some(&f), Some(&t)) = (id_map.get(&f), id_map.get(&t)) else {
            return Err(XmlError::BadValue(format!("edge {f}->{t}")));
        };
        g.add_edge(f, t);
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::CoreOp;

    fn sample() -> Graph {
        let mut g = Graph::new("sample & <demo>");
        let a = g.add_data(DataKind::Vector, "a\"quoted\"");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, s) = g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Mask(5), 1)),
                core: CoreOp::DotP,
                post: Some(PostOp::Conj),
            },
            &[a, b],
            DataKind::Scalar,
            "dot",
        );
        let (_, r) = g.add_op_with_output(
            Opcode::Scalar(ScalarOp::RSqrt),
            &[s],
            DataKind::Scalar,
            "rsqrt",
        );
        let idx = g.add_op(Opcode::Index(3), "idx");
        g.add_edge(b, idx);
        let d = g.add_data(DataKind::Scalar, "b3");
        g.add_edge(idx, d);
        let m = g.add_op(Opcode::Merge, "merge");
        g.add_edge(d, m);
        g.add_edge(r, m);
        let out = g.add_data(DataKind::Vector, "out");
        g.add_edge(m, out);
        g
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let g = sample();
        let xml = to_xml(&g);
        let g2 = from_xml(&xml).unwrap();
        assert_eq!(g2.name, g.name);
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.edge_count(), g.edge_count());
        for id in g.ids() {
            assert_eq!(g2.node(id).kind, g.node(id).kind, "{id:?}");
            assert_eq!(g2.node(id).name, g.node(id).name);
            assert_eq!(g2.preds(id), g.preds(id));
        }
    }

    #[test]
    fn roundtrip_twice_is_identity() {
        let g = sample();
        let x1 = to_xml(&g);
        let x2 = to_xml(&from_xml(&x1).unwrap());
        assert_eq!(x1, x2);
    }

    #[test]
    fn escaping_special_chars() {
        assert_eq!(
            escape("a<b>&\"c\"'d'"),
            "a&lt;b&gt;&amp;&quot;c&quot;&apos;d&apos;"
        );
        assert_eq!(unescape("a&lt;b&gt;&amp;").unwrap(), "a<b>&");
        assert!(unescape("&bogus;").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let g = sample();
        let xml = format!("<!-- header -->\n{}", to_xml(&g));
        assert!(from_xml(&xml).is_ok());
    }

    #[test]
    fn missing_attr_reported() {
        let r = from_xml(r#"<graph name="g"><node id="0" kind="data"/></graph>"#);
        assert!(matches!(r, Err(XmlError::MissingAttr("data"))));
    }

    #[test]
    fn dangling_edge_reported() {
        let r = from_xml(r#"<graph name="g"><edge from="0" to="1"/></graph>"#);
        assert!(matches!(r, Err(XmlError::BadValue(_))));
    }

    #[test]
    fn bad_root_reported() {
        assert!(matches!(from_xml("<nope/>"), Err(XmlError::Syntax(_))));
        assert!(matches!(from_xml(""), Err(XmlError::Syntax(_))));
    }

    #[test]
    fn numeric_attr_errors_are_positioned_and_overflow_aware() {
        // Overflow must be called out as overflow and name the attribute.
        let r = from_xml(
            r#"<graph name="g"><node id="99999999999" kind="data" data="scalar"/></graph>"#,
        );
        let Err(XmlError::BadValue(msg)) = r else {
            panic!("expected BadValue, got {r:?}")
        };
        assert!(msg.contains("id=\"99999999999\""), "{msg}");
        assert!(msg.contains("overflows u32"), "{msg}");

        // Garbage is a different diagnostic, still naming the attribute.
        let r = from_xml(r#"<graph name="g"><edge from="x" to="1"/></graph>"#);
        let Err(XmlError::BadValue(msg)) = r else {
            panic!()
        };
        assert!(msg.contains("from=\"x\""), "{msg}");
        assert!(msg.contains("not a non-negative integer"), "{msg}");

        // u8-sized attributes get the same treatment.
        let r = from_xml(
            r#"<graph name="g">
                <node id="0" kind="data" data="vector" name="v"/>
                <node id="1" kind="op" category="index" element="300" name="i"/>
            </graph>"#,
        );
        let Err(XmlError::BadValue(msg)) = r else {
            panic!()
        };
        assert!(msg.contains("element=\"300\""), "{msg}");
        assert!(msg.contains("overflows u8"), "{msg}");
    }

    #[test]
    fn sparse_ids_tolerated() {
        let xml = r#"<graph name="g">
            <node id="7" kind="data" data="scalar" name="x"/>
            <node id="42" kind="op" category="scalar_op" op="neg" name="n"/>
            <node id="3" kind="data" data="scalar" name="y"/>
            <edge from="7" to="42"/>
            <edge from="42" to="3"/>
        </graph>"#;
        let g = from_xml(xml).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        g.validate().unwrap();
    }
}
