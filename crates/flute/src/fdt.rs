//! File Delivery Table instances (RFC 3926 §3.4.2) and the strict XML
//! subset they are written in.
//!
//! FLUTE describes the files of a session *in band*: FDT instances are XML
//! documents carried on the reserved TOI 0, mapping each TOI to a content
//! location, its length, and the complete FEC Object Transmission
//! Information needed to decode it.
//!
//! The XML machinery here is a deliberately strict subset — elements,
//! double-quoted attributes, self-closing tags, the five predefined
//! entities, an optional prolog — because FDT content arrives from the
//! network and guessing at malformed input is how parsers grow CVEs.
//! No comments, no CDATA, no namespaces, no DTDs (all rejected loudly).
//!
//! ```
//! use fec_flute::{FdtInstance, FileEntry, ObjectTransmissionInfo};
//!
//! let oti = ObjectTransmissionInfo {
//!     code: fec_codec::builtin::ldgm_staircase(),
//!     transfer_length: 5000,
//!     symbol_size: 64,
//!     k: 79,
//!     n: 197,
//!     matrix_seed: 42,
//! };
//! let fdt = FdtInstance::new(1, 3_600_000)
//!     .with_file(FileEntry::new(1, "http://example.com/a.bin", oti));
//! let xml = fdt.to_xml();
//! // The instance ID travels in EXT_FDT, not in the document.
//! assert_eq!(FdtInstance::from_xml_with_id(&xml, 1).unwrap(), fdt);
//! ```

use crate::base64;
use crate::fti::ObjectTransmissionInfo;
use crate::FluteError;

// ---------------------------------------------------------------------------
// XML subset: escaping, cursor, element parsing
// ---------------------------------------------------------------------------

/// Escapes a string for use inside a double-quoted XML attribute.
fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Resolves the five predefined entities; anything else is an error.
fn unescape(value: &str) -> Result<String, FluteError> {
    let mut out = String::with_capacity(value.len());
    let mut rest = value;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let semi = tail.find(';').ok_or_else(|| FluteError::Xml {
            reason: "unterminated entity".into(),
        })?;
        match &tail[..=semi] {
            "&amp;" => out.push('&'),
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => {
                return Err(FluteError::Xml {
                    reason: format!("unknown entity {other}"),
                })
            }
        }
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// One parsed start tag: name, attributes, and whether it self-closes.
#[derive(Debug, PartialEq)]
struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    self_closing: bool,
}

impl Element {
    fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, FluteError> {
        self.attr(name).ok_or_else(|| FluteError::Xml {
            reason: format!("<{}> missing attribute {name}", self.name),
        })
    }
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_whitespace(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.text.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn error(&self, reason: impl Into<String>) -> FluteError {
        FluteError::Xml {
            reason: format!("{} at byte {}", reason.into(), self.pos),
        }
    }

    /// Skips an optional `<?xml …?>` prolog.
    fn skip_prolog(&mut self) -> Result<(), FluteError> {
        self.skip_whitespace();
        if self.eat("<?xml") {
            match self.rest().find("?>") {
                Some(end) => self.pos += end + 2,
                None => return Err(self.error("unterminated XML prolog")),
            }
        }
        Ok(())
    }

    fn name(&mut self) -> Result<String, FluteError> {
        let rest = self.rest();
        let len = rest
            .char_indices()
            .take_while(|&(_, c)| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == ':')
            .last()
            .map(|(i, c)| i + c.len_utf8())
            .unwrap_or(0);
        if len == 0 {
            return Err(self.error("expected a name"));
        }
        self.pos += len;
        Ok(rest[..len].to_string())
    }

    /// Parses `<Name attr="v" …>` or `<Name …/>`. The cursor must be at `<`.
    fn element(&mut self) -> Result<Element, FluteError> {
        if !self.eat("<") {
            return Err(self.error("expected '<'"));
        }
        if self.rest().starts_with('!') || self.rest().starts_with('?') {
            return Err(self.error("comments, CDATA, DTDs and PIs are not supported"));
        }
        let name = self.name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            if self.eat("/>") {
                return Ok(Element {
                    name,
                    attributes,
                    self_closing: true,
                });
            }
            if self.eat(">") {
                return Ok(Element {
                    name,
                    attributes,
                    self_closing: false,
                });
            }
            let attr_name = self.name()?;
            self.skip_whitespace();
            if !self.eat("=") {
                return Err(self.error(format!("attribute {attr_name} missing '='")));
            }
            self.skip_whitespace();
            if !self.eat("\"") {
                return Err(self.error("attribute values must be double-quoted"));
            }
            let rest = self.rest();
            let close = rest
                .find('"')
                .ok_or_else(|| self.error("unterminated attribute value"))?;
            let raw = &rest[..close];
            if raw.contains('<') {
                return Err(self.error("'<' inside attribute value"));
            }
            self.pos += close + 1;
            if attributes.iter().any(|(n, _)| *n == attr_name) {
                return Err(self.error(format!("duplicate attribute {attr_name}")));
            }
            attributes.push((attr_name, unescape(raw)?));
        }
    }

    /// Parses `</Name>`.
    fn close_tag(&mut self, name: &str) -> Result<(), FluteError> {
        if !self.eat("</") {
            return Err(self.error(format!("expected </{name}>")));
        }
        let got = self.name()?;
        if got != name {
            return Err(self.error(format!("mismatched close tag </{got}>, expected </{name}>")));
        }
        self.skip_whitespace();
        if !self.eat(">") {
            return Err(self.error("expected '>'"));
        }
        Ok(())
    }
}

fn parse_u32(element: &Element, attr: &str) -> Result<u32, FluteError> {
    let raw = element.required(attr)?;
    raw.parse().map_err(|_| FluteError::Xml {
        reason: format!("{attr}={raw:?} is not a u32"),
    })
}

fn parse_u64(element: &Element, attr: &str) -> Result<u64, FluteError> {
    let raw = element.required(attr)?;
    raw.parse().map_err(|_| FluteError::Xml {
        reason: format!("{attr}={raw:?} is not a u64"),
    })
}

// ---------------------------------------------------------------------------
// FDT data model
// ---------------------------------------------------------------------------

/// One `<File>` entry: a TOI bound to a location and its FEC OTI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Transport object identifier the file is carried on (never 0).
    pub toi: u32,
    /// Content location (URI).
    pub content_location: String,
    /// The complete OTI (transfer length, symbol size, code geometry, seed).
    pub oti: ObjectTransmissionInfo,
}

impl FileEntry {
    /// Creates an entry.
    pub fn new(
        toi: u32,
        content_location: impl Into<String>,
        oti: ObjectTransmissionInfo,
    ) -> FileEntry {
        FileEntry {
            toi,
            content_location: content_location.into(),
            oti,
        }
    }

    fn to_xml(&self) -> String {
        format!(
            r#"  <File TOI="{}" Content-Location="{}" Content-Length="{}" Transfer-Length="{}" FEC-OTI-FEC-Encoding-ID="{}" FEC-OTI-Encoding-Symbol-Length="{}" FEC-OTI-Scheme-Specific-Info="{}"/>"#,
            self.toi,
            escape(&self.content_location),
            self.oti.transfer_length,
            self.oti.transfer_length,
            self.oti.fti_id(),
            self.oti.symbol_size,
            base64::encode(&self.oti.to_bytes()),
        )
    }

    fn from_element(element: &Element) -> Result<FileEntry, FluteError> {
        if element.name != "File" {
            return Err(FluteError::Xml {
                reason: format!("expected <File>, found <{}>", element.name),
            });
        }
        let toi = parse_u32(element, "TOI")?;
        if toi == crate::FDT_TOI {
            return Err(FluteError::Xml {
                reason: "TOI 0 is reserved for the FDT itself".into(),
            });
        }
        let content_location = element.required("Content-Location")?.to_string();
        let ssi = element.required("FEC-OTI-Scheme-Specific-Info")?;
        let oti = ObjectTransmissionInfo::from_bytes(&base64::decode(ssi)?)?;
        // The redundant per-attribute OTI fields must agree with the blob.
        let transfer_length = parse_u64(element, "Transfer-Length")?;
        if transfer_length != oti.transfer_length {
            return Err(FluteError::Xml {
                reason: format!(
                    "Transfer-Length {transfer_length} contradicts OTI {}",
                    oti.transfer_length
                ),
            });
        }
        let enc = parse_u32(element, "FEC-OTI-FEC-Encoding-ID")?;
        if enc != oti.fti_id() as u32 {
            return Err(FluteError::Xml {
                reason: format!(
                    "FEC-OTI-FEC-Encoding-ID {enc} contradicts OTI {}",
                    oti.fti_id()
                ),
            });
        }
        let sym = parse_u32(element, "FEC-OTI-Encoding-Symbol-Length")?;
        if sym != oti.symbol_size as u32 {
            return Err(FluteError::Xml {
                reason: format!(
                    "FEC-OTI-Encoding-Symbol-Length {sym} contradicts OTI {}",
                    oti.symbol_size
                ),
            });
        }
        Ok(FileEntry {
            toi,
            content_location,
            oti,
        })
    }
}

/// A complete FDT instance: the session's file directory at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdtInstance {
    /// Instance identifier (20 bits on the wire, in EXT_FDT).
    pub instance_id: u32,
    /// Expiry, seconds since the sender's epoch (opaque to this crate —
    /// the paper's systems have no synchronized wall clock).
    pub expires: u64,
    /// File entries, in document order.
    pub files: Vec<FileEntry>,
}

impl FdtInstance {
    /// Creates an empty instance.
    pub fn new(instance_id: u32, expires: u64) -> FdtInstance {
        FdtInstance {
            instance_id,
            expires,
            files: Vec::new(),
        }
    }

    /// Adds a file entry (builder style).
    pub fn with_file(mut self, file: FileEntry) -> FdtInstance {
        self.files.push(file);
        self
    }

    /// Looks up a file by TOI.
    pub fn file(&self, toi: u32) -> Option<&FileEntry> {
        self.files.iter().find(|f| f.toi == toi)
    }

    /// Serialises to the FDT XML document.
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        out.push_str(&format!("<FDT-Instance Expires=\"{}\">\n", self.expires));
        for file in &self.files {
            out.push_str(&file.to_xml());
            out.push('\n');
        }
        out.push_str("</FDT-Instance>\n");
        out
    }

    /// Parses an FDT XML document, attaching the EXT_FDT instance ID
    /// (the ID travels in EXT_FDT, not in the document).
    pub fn from_xml_with_id(text: &str, instance_id: u32) -> Result<FdtInstance, FluteError> {
        let mut cur = Cursor::new(text);
        cur.skip_prolog()?;
        cur.skip_whitespace();
        let root = cur.element()?;
        if root.name != "FDT-Instance" {
            return Err(FluteError::Xml {
                reason: format!("root element <{}>, expected <FDT-Instance>", root.name),
            });
        }
        let expires = parse_u64(&root, "Expires")?;
        let mut files = Vec::new();
        if !root.self_closing {
            loop {
                cur.skip_whitespace();
                if cur.rest().starts_with("</") {
                    cur.close_tag("FDT-Instance")?;
                    break;
                }
                if cur.rest().is_empty() {
                    return Err(cur.error("unexpected end of document"));
                }
                let element = cur.element()?;
                if !element.self_closing {
                    return Err(cur.error("<File> must be self-closing"));
                }
                files.push(FileEntry::from_element(&element)?);
            }
        }
        cur.skip_whitespace();
        if !cur.rest().is_empty() {
            return Err(cur.error("trailing content after </FDT-Instance>"));
        }
        // TOIs must be unique within an instance.
        for (i, f) in files.iter().enumerate() {
            if files[..i].iter().any(|g| g.toi == f.toi) {
                return Err(FluteError::Xml {
                    reason: format!("duplicate TOI {}", f.toi),
                });
            }
        }
        Ok(FdtInstance {
            instance_id,
            expires,
            files,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::{builtin, CodecHandle};
    use proptest::prelude::*;

    fn oti(code: CodecHandle) -> ObjectTransmissionInfo {
        let matrix_seed = if code.uses_matrix_seed() { 42 } else { 0 };
        ObjectTransmissionInfo {
            code,
            transfer_length: 5000,
            symbol_size: 64,
            k: 79,
            n: 197,
            matrix_seed,
        }
    }

    fn sample() -> FdtInstance {
        FdtInstance::new(7, 3600)
            .with_file(FileEntry::new(
                1,
                "http://ex.com/a.bin",
                oti(builtin::ldgm_staircase()),
            ))
            .with_file(FileEntry::new(2, "b & \"c\" <d>", oti(builtin::rse())))
    }

    #[test]
    fn xml_roundtrip() {
        let fdt = sample();
        let xml = fdt.to_xml();
        let back = FdtInstance::from_xml_with_id(&xml, 7).unwrap();
        assert_eq!(back, fdt);
    }

    #[test]
    fn escaping_survives_hostile_locations() {
        let nasty = r#"a&b<c>d"e'f"#;
        let fdt = FdtInstance::new(0, 1).with_file(FileEntry::new(
            3,
            nasty,
            oti(builtin::ldgm_triangle()),
        ));
        let back = FdtInstance::from_xml_with_id(&fdt.to_xml(), 0).unwrap();
        assert_eq!(back.files[0].content_location, nasty);
    }

    #[test]
    fn empty_instance_roundtrip() {
        let fdt = FdtInstance::new(0, 99);
        let back = FdtInstance::from_xml_with_id(&fdt.to_xml(), 0).unwrap();
        assert_eq!(back.files.len(), 0);
        assert_eq!(back.expires, 99);
    }

    #[test]
    fn file_lookup() {
        let fdt = sample();
        assert_eq!(fdt.file(1).unwrap().content_location, "http://ex.com/a.bin");
        assert!(fdt.file(9).is_none());
    }

    #[test]
    fn rejects_wrong_root() {
        assert!(matches!(
            FdtInstance::from_xml_with_id(r#"<Fdt Expires="1"></Fdt>"#, 0),
            Err(FluteError::Xml { .. })
        ));
    }

    #[test]
    fn rejects_missing_expires() {
        assert!(FdtInstance::from_xml_with_id("<FDT-Instance></FDT-Instance>", 0).is_err());
    }

    #[test]
    fn rejects_toi_zero_and_duplicates() {
        let o = base64::encode(&oti(builtin::ldgm_staircase()).to_bytes());
        let file = |toi: u32| {
            format!(
                r#"<File TOI="{toi}" Content-Location="x" Content-Length="5000" Transfer-Length="5000" FEC-OTI-FEC-Encoding-ID="3" FEC-OTI-Encoding-Symbol-Length="64" FEC-OTI-Scheme-Specific-Info="{o}"/>"#
            )
        };
        let zero = format!(r#"<FDT-Instance Expires="1">{}</FDT-Instance>"#, file(0));
        assert!(FdtInstance::from_xml_with_id(&zero, 0).is_err());
        let dup = format!(
            r#"<FDT-Instance Expires="1">{}{}</FDT-Instance>"#,
            file(5),
            file(5)
        );
        assert!(FdtInstance::from_xml_with_id(&dup, 0).is_err());
    }

    #[test]
    fn rejects_contradictory_redundant_attributes() {
        let mut xml = sample().to_xml();
        // Lie about the encoding ID attribute (blob says 3).
        xml = xml.replace(
            "FEC-OTI-FEC-Encoding-ID=\"3\"",
            "FEC-OTI-FEC-Encoding-ID=\"4\"",
        );
        assert!(FdtInstance::from_xml_with_id(&xml, 0).is_err());
    }

    #[test]
    fn rejects_comments_and_dtd() {
        assert!(
            FdtInstance::from_xml_with_id("<!DOCTYPE x><FDT-Instance Expires=\"1\"/>", 0).is_err()
        );
        assert!(FdtInstance::from_xml_with_id(
            "<FDT-Instance Expires=\"1\"><!-- hi --></FDT-Instance>",
            0
        )
        .is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let xml = format!("{}<oops/>", sample().to_xml());
        assert!(FdtInstance::from_xml_with_id(&xml, 0).is_err());
    }

    #[test]
    fn rejects_single_quoted_attributes() {
        assert!(FdtInstance::from_xml_with_id("<FDT-Instance Expires='1'/>", 0).is_err());
    }

    #[test]
    fn rejects_unknown_entity() {
        let xml = r#"<FDT-Instance Expires="1" X="&bogus;"/>"#;
        assert!(FdtInstance::from_xml_with_id(xml, 0).is_err());
    }

    #[test]
    fn unescape_handles_adjacent_entities() {
        assert_eq!(unescape("&amp;&lt;&gt;").unwrap(), "&<>");
        assert_eq!(unescape("no entities").unwrap(), "no entities");
        assert!(unescape("&amp").is_err());
    }

    proptest! {
        /// Any printable content-location round-trips through escaping.
        #[test]
        fn location_roundtrip(loc in "[ -~]{1,60}") {
            let fdt = FdtInstance::new(0, 1)
                .with_file(FileEntry::new(1, loc.clone(), oti(builtin::ldgm_staircase())));
            let back = FdtInstance::from_xml_with_id(&fdt.to_xml(), 0).unwrap();
            prop_assert_eq!(&back.files[0].content_location, &loc);
        }

        /// Parsing arbitrary text never panics.
        #[test]
        fn fuzz_parse_no_panic(text in "[ -~<>\"&;=/]{0,120}") {
            let _ = FdtInstance::from_xml_with_id(&text, 0);
        }
    }
}
