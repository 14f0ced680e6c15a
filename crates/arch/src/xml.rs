//! The versioned XML architecture-description format (`eit-arch/1`).
//!
//! [`to_arch_xml`] renders an [`ArchSpec`] — geometry attributes on the
//! `<arch>` root, one `<unit>` element per functional unit, one `<op>`
//! row per opcode class the unit serves:
//!
//! ```xml
//! <arch version="1" lanes="4" banks="16" page_size="4" slots_per_bank="4"
//!       max_vector_reads="8" max_vector_writes="4" reconfig_cost="1">
//!   <unit name="vector-core" count="4">
//!     <op class="vector" latency="7" occupancy="1" width="1"/>
//!     <op class="matrix" latency="7" occupancy="1" width="0"/>
//!   </unit>
//! </arch>
//! ```
//!
//! [`from_arch_xml`] reads one back and **validates it on load** — a
//! description that parses but describes an impossible machine (a page
//! larger than the bank array, a port budget the banks cannot serve, an
//! op class no unit implements) is rejected with the attribute-named
//! message from [`ArchSpec::validate`], never handed to the scheduler.
//! The builtin presets render to this same format and reload equal to
//! themselves, so `--arch eit-rendered.xml` is byte-identical to the
//! builtin path by construction.
//!
//! The parser runs on `eit-ir::xml`'s lexer: no external dependencies,
//! attribute-named numeric errors distinguishing overflow from garbage,
//! comments and the five standard entities.

use crate::spec::{ArchSpec, FuncUnit, UnitOp, UnitTable};
use eit_ir::xml::{escape, parse_u32, req, Lexer};
use eit_ir::{OpClass, XmlError};
use std::fmt::Write as _;

/// Format version written by [`to_arch_xml`] and required on load.
pub const ARCH_XML_VERSION: u32 = 1;

// ---- writing ----------------------------------------------------------------

/// Render an architecture description to the versioned XML format.
pub fn to_arch_xml(spec: &ArchSpec) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        r#"<arch version="{ARCH_XML_VERSION}" lanes="{}" banks="{}" page_size="{}" slots_per_bank="{}" max_vector_reads="{}" max_vector_writes="{}" reconfig_cost="{}""#,
        spec.n_lanes,
        spec.n_banks,
        spec.page_size,
        spec.slots_per_bank,
        spec.max_vector_reads,
        spec.max_vector_writes,
        spec.reconfig_cost,
    );
    if let Some(cap) = spec.slot_cap {
        let _ = write!(out, r#" slot_cap="{cap}""#);
    }
    out.push_str(">\n");
    for u in &spec.units.units {
        let _ = writeln!(
            out,
            r#"  <unit name="{}" count="{}">"#,
            escape(&u.name),
            u.count
        );
        for op in &u.ops {
            let _ = writeln!(
                out,
                r#"    <op class="{}" latency="{}" occupancy="{}" width="{}"/>"#,
                op.class, op.latency, op.occupancy, op.width
            );
        }
        out.push_str("  </unit>\n");
    }
    out.push_str("</arch>\n");
    out
}

// ---- parsing ----------------------------------------------------------------

fn parse_i32(attr: &'static str, s: &str) -> Result<i32, XmlError> {
    use std::num::IntErrorKind;
    s.parse::<i32>().map_err(|e| match e.kind() {
        IntErrorKind::PosOverflow | IntErrorKind::NegOverflow => {
            XmlError::BadValue(format!("{attr}=\"{s}\": overflows i32"))
        }
        _ => XmlError::BadValue(format!("{attr}=\"{s}\": not an integer")),
    })
}

/// Parse (and [`ArchSpec::validate`]) an architecture description.
pub fn from_arch_xml(src: &str) -> Result<ArchSpec, XmlError> {
    let mut lex = Lexer::new(src);
    let root = lex
        .next_element()?
        .ok_or_else(|| XmlError::Syntax("empty document".into()))?;
    if root.name != "arch" || root.closing {
        return Err(XmlError::Syntax("expected <arch> root".into()));
    }
    let version = parse_u32("version", req(&root, "version")?)?;
    if version != ARCH_XML_VERSION {
        return Err(XmlError::BadValue(format!(
            "version=\"{version}\": unsupported (this build reads eit-arch/{ARCH_XML_VERSION})"
        )));
    }
    let slot_cap = root
        .attrs
        .get("slot_cap")
        .map(|v| parse_u32("slot_cap", v))
        .transpose()?;
    let mut spec = ArchSpec {
        n_lanes: parse_u32("lanes", req(&root, "lanes")?)?,
        n_banks: parse_u32("banks", req(&root, "banks")?)?,
        page_size: parse_u32("page_size", req(&root, "page_size")?)?,
        slots_per_bank: parse_u32("slots_per_bank", req(&root, "slots_per_bank")?)?,
        max_vector_reads: parse_u32("max_vector_reads", req(&root, "max_vector_reads")?)?,
        max_vector_writes: parse_u32("max_vector_writes", req(&root, "max_vector_writes")?)?,
        reconfig_cost: parse_i32("reconfig_cost", req(&root, "reconfig_cost")?)?,
        slot_cap,
        units: UnitTable { units: Vec::new() },
    };

    let mut current: Option<FuncUnit> = None;
    while let Some(el) = lex.next_element()? {
        if el.closing {
            match el.name.as_str() {
                "arch" => break,
                "unit" => {
                    if let Some(u) = current.take() {
                        spec.units.units.push(u);
                    }
                }
                _ => {}
            }
            continue;
        }
        match el.name.as_str() {
            "unit" => {
                // A self-closing or re-opened <unit> ends the previous one.
                if let Some(u) = current.take() {
                    spec.units.units.push(u);
                }
                current = Some(FuncUnit {
                    name: req(&el, "name")?.to_string(),
                    count: parse_u32("count", req(&el, "count")?)?,
                    ops: Vec::new(),
                });
            }
            "op" => {
                let class_s = req(&el, "class")?;
                let class = OpClass::parse(class_s).ok_or_else(|| {
                    XmlError::BadValue(format!(
                        "class=\"{class_s}\": not an op class (expected one of {})",
                        OpClass::ALL.map(|c| c.name()).join(", ")
                    ))
                })?;
                let op = UnitOp {
                    class,
                    latency: parse_i32("latency", req(&el, "latency")?)?,
                    occupancy: parse_i32("occupancy", req(&el, "occupancy")?)?,
                    width: parse_u32("width", req(&el, "width")?)?,
                };
                match current.as_mut() {
                    Some(u) => u.ops.push(op),
                    None => {
                        return Err(XmlError::Syntax("<op> outside of a <unit> element".into()))
                    }
                }
            }
            other => return Err(XmlError::Syntax(format!("unexpected <{other}>"))),
        }
    }
    if let Some(u) = current.take() {
        spec.units.units.push(u);
    }

    spec.validate().map_err(XmlError::BadValue)?;
    Ok(spec)
}

/// Resolve an `--arch` argument that is already in memory: a builtin
/// preset name, or an inline XML document (anything starting with `<`).
/// File loading is the caller's job — this layer stays I/O-free.
pub fn resolve_arch(arg: &str) -> Result<ArchSpec, String> {
    let trimmed = arg.trim_start();
    if trimmed.starts_with('<') {
        return from_arch_xml(arg).map_err(|e| format!("invalid arch xml: {e}"));
    }
    ArchSpec::preset(arg).ok_or_else(|| {
        format!(
            "unknown arch '{arg}' (expected a preset — {} — a file path, or inline XML)",
            ArchSpec::preset_names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_roundtrip_exactly() {
        for name in ArchSpec::preset_names() {
            let spec = ArchSpec::preset(name).unwrap();
            let xml = to_arch_xml(&spec);
            let back = from_arch_xml(&xml).unwrap();
            assert_eq!(back, spec, "{name} did not survive the roundtrip");
            // Roundtrip twice is the identity on the rendered bytes.
            assert_eq!(to_arch_xml(&back), xml);
        }
    }

    #[test]
    fn slot_cap_is_preserved() {
        let spec = ArchSpec::eit().with_slots(33);
        let xml = to_arch_xml(&spec);
        assert!(xml.contains(r#"slot_cap="33""#), "{xml}");
        assert_eq!(from_arch_xml(&xml).unwrap(), spec);
    }

    #[test]
    fn validation_runs_on_load() {
        // Parses fine, but the page is larger than the bank array.
        let xml = to_arch_xml(&ArchSpec::eit()).replace(r#"page_size="4""#, r#"page_size="32""#);
        let err = from_arch_xml(&xml).unwrap_err();
        assert!(
            matches!(&err, XmlError::BadValue(m) if m.starts_with("page_size=\"32\"")),
            "{err}"
        );

        // So is a vector core that holds an op past its issue cycle.
        let xml = to_arch_xml(&ArchSpec::eit()).replacen(
            r#"class="vector" latency="7" occupancy="1""#,
            r#"class="vector" latency="7" occupancy="2""#,
            1,
        );
        let err = from_arch_xml(&xml).unwrap_err();
        assert!(
            matches!(&err, XmlError::BadValue(m) if m.contains("occupancy=\"2\"")),
            "{err}"
        );

        // A machine missing a whole unit is rejected too.
        let mut spec = ArchSpec::eit();
        spec.units.units.pop();
        let xml = to_arch_xml(&spec);
        assert!(from_arch_xml(&xml).is_err());
    }

    #[test]
    fn numeric_attr_errors_name_the_attribute() {
        let xml = to_arch_xml(&ArchSpec::eit()).replace(r#"lanes="4""#, r#"lanes="many""#);
        let Err(XmlError::BadValue(msg)) = from_arch_xml(&xml) else {
            panic!()
        };
        assert!(msg.contains("lanes=\"many\""), "{msg}");
        assert!(msg.contains("not a non-negative integer"), "{msg}");

        let xml = to_arch_xml(&ArchSpec::eit()).replace(r#"banks="16""#, r#"banks="99999999999""#);
        let Err(XmlError::BadValue(msg)) = from_arch_xml(&xml) else {
            panic!()
        };
        assert!(msg.contains("overflows u32"), "{msg}");
    }

    #[test]
    fn version_is_enforced() {
        let xml = to_arch_xml(&ArchSpec::eit()).replace(r#"version="1""#, r#"version="2""#);
        let Err(XmlError::BadValue(msg)) = from_arch_xml(&xml) else {
            panic!()
        };
        assert!(msg.contains("version=\"2\""), "{msg}");
        let xml = to_arch_xml(&ArchSpec::eit()).replace(r#" version="1""#, "");
        assert!(matches!(
            from_arch_xml(&xml),
            Err(XmlError::MissingAttr("version"))
        ));
    }

    #[test]
    fn bad_structure_reported() {
        assert!(matches!(from_arch_xml(""), Err(XmlError::Syntax(_))));
        assert!(matches!(from_arch_xml("<nope/>"), Err(XmlError::Syntax(_))));
        let orphan_op = r#"<arch version="1" lanes="4" banks="16" page_size="4"
            slots_per_bank="4" max_vector_reads="8" max_vector_writes="4"
            reconfig_cost="1"><op class="vector" latency="7" occupancy="1"
            width="1"/></arch>"#;
        assert!(matches!(from_arch_xml(orphan_op), Err(XmlError::Syntax(_))));
        let bad_class = to_arch_xml(&ArchSpec::eit()).replace("\"vector\"", "\"warp\"");
        assert!(matches!(
            from_arch_xml(&bad_class),
            Err(XmlError::BadValue(_))
        ));
    }

    #[test]
    fn resolve_arch_handles_presets_and_inline_xml() {
        assert_eq!(resolve_arch("eit").unwrap(), ArchSpec::eit());
        assert_eq!(resolve_arch("wide").unwrap(), ArchSpec::wide());
        let inline = to_arch_xml(&ArchSpec::wide());
        assert_eq!(resolve_arch(&inline).unwrap(), ArchSpec::wide());
        assert!(resolve_arch("weird").unwrap_err().contains("eit, wide"));
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let xml = format!("<!-- my machine -->\n{}", to_arch_xml(&ArchSpec::eit()));
        assert!(from_arch_xml(&xml).is_ok());
    }
}
